"""CLI: regenerate the paper's tables and figures.

Usage::

    python -m repro.harness                 # everything, full scale
    python -m repro.harness fig8b fig9      # selected experiments
    python -m repro.harness --scale 0.5     # smaller workloads (faster)
    python -m repro.harness --jobs 8        # parallel campaign
    python -m repro.harness --no-cache      # ignore the on-disk cache

Results persist in a content-addressed cache (``~/.cache/repro`` or
``--cache-dir``), so a re-run only simulates what changed.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
import time

from repro.harness import EXPERIMENTS
from repro.harness.diskcache import ResultCache, parse_size
from repro.harness.executor import (
    CampaignExecutor,
    CampaignInterrupted,
    stderr_progress,
)


class IncrementalJsonWriter:
    """Rewrites the results JSON atomically after every experiment, so a
    crash in experiment N never loses experiments 1..N-1."""

    def __init__(self, path: str, scale: float, seed: int) -> None:
        self.path = path
        self.payload = {"scale": scale, "seed": seed, "experiments": []}

    def append(self, result) -> None:
        self.payload["experiments"].append(result.to_dict())
        self.flush()

    def mark_interrupted(self, completed: int, cancelled: int) -> None:
        """Stamp the partial export so downstream consumers can tell a
        Ctrl-C'd campaign from a finished one, and flush it atomically."""
        self.payload["interrupted"] = {
            "completed_runs": completed,
            "cancelled_runs": cancelled,
        }
        self.flush()

    def flush(self) -> None:
        directory = os.path.dirname(os.path.abspath(self.path))
        fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
        try:
            with os.fdopen(fd, "w") as handle:
                json.dump(self.payload, handle, indent=2)
            os.replace(tmp, self.path)
        except OSError:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description="Regenerate the UVE paper's evaluation figures.",
    )
    parser.add_argument(
        "experiments",
        nargs="*",
        default=[],
        help=f"experiment ids (default: all of {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument("--scale", type=float, default=None,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--seed", type=int, default=None,
                        help="workload RNG seed (default 0)")
    parser.add_argument("--jobs", type=int, default=None, metavar="N",
                        help="parallel simulation processes "
                             "(default: os.cpu_count())")
    parser.add_argument("--json", metavar="PATH", default="",
                        help="also write all results as JSON "
                             "(updated atomically after each experiment)")
    parser.add_argument("--cache-dir", metavar="DIR", default="",
                        help="persistent result cache location "
                             "(default ~/.cache/repro or $REPRO_CACHE_DIR)")
    parser.add_argument("--no-cache", action="store_true",
                        help="neither read nor write the on-disk cache")
    parser.add_argument("--cache-prune", metavar="SIZE", default="",
                        help="evict least-recently-used cache entries "
                             "until the store fits in SIZE (e.g. 500M, "
                             "2G) and exit")
    parser.add_argument("--cache-max-bytes", metavar="SIZE", default="",
                        help="after the campaign, prune the cache to "
                             "SIZE (LRU by mtime) so long sweep "
                             "campaigns don't grow it unboundedly")
    parser.add_argument("--trace", metavar="PATH", default="",
                        help="write a JSON log of per-run timing/cache "
                             "events")
    parser.add_argument("--check", metavar="RESULTS_JSON", default="",
                        help="validate a previously exported campaign "
                             "against the paper's shapes and exit")
    args = parser.parse_args(argv)

    if args.check:
        conflicting = [
            flag
            for flag, present in (
                ("experiments", bool(args.experiments)),
                ("--scale", args.scale is not None),
                ("--seed", args.seed is not None),
                ("--jobs", args.jobs is not None),
                ("--json", bool(args.json)),
                ("--cache-dir", bool(args.cache_dir)),
                ("--no-cache", args.no_cache),
                ("--cache-prune", bool(args.cache_prune)),
                ("--cache-max-bytes", bool(args.cache_max_bytes)),
                ("--trace", bool(args.trace)),
            )
            if present
        ]
        if conflicting:
            parser.error(
                "--check validates an existing results file and takes no "
                f"campaign arguments (got: {', '.join(conflicting)})"
            )
        from repro.harness.checks import validate_results
        report = validate_results(args.check)
        print(report.render())
        return 0 if report.ok else 1

    if args.cache_prune:
        if args.no_cache:
            parser.error("--cache-prune needs the cache (drop --no-cache)")
        try:
            limit = parse_size(args.cache_prune)
        except ValueError as exc:
            parser.error(str(exc))
        cache = ResultCache(args.cache_dir or None)
        print(cache.prune(limit).render())
        return 0

    max_bytes = None
    if args.cache_max_bytes:
        if args.no_cache:
            parser.error("--cache-max-bytes needs the cache "
                         "(drop --no-cache)")
        try:
            max_bytes = parse_size(args.cache_max_bytes)
        except ValueError as exc:
            parser.error(str(exc))

    scale = 1.0 if args.scale is None else args.scale
    seed = 0 if args.seed is None else args.seed

    names = args.experiments or list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        parser.error(f"unknown experiments: {unknown}")

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or None)
    executor = CampaignExecutor(
        scale=scale, seed=seed, jobs=args.jobs, cache=cache,
        progress=stderr_progress,
    )
    writer = IncrementalJsonWriter(args.json, scale, seed) if args.json \
        else None

    start = time.time()

    def on_result(result) -> None:
        print(result.render())
        print()
        if writer is not None:
            writer.append(result)

    try:
        executor.run_campaign(
            [EXPERIMENTS[name] for name in names], on_result=on_result
        )
    except CampaignInterrupted as interrupt:
        # Completed rows are safe (disk cache + already-flushed JSON);
        # record the interruption and exit with the conventional SIGINT
        # status so callers can distinguish it from success or failure.
        if writer is not None:
            writer.mark_interrupted(interrupt.completed, interrupt.cancelled)
            print(f"wrote partial {args.json} (interrupted)",
                  file=sys.stderr)
        print(f"{interrupt} — completed runs are cached; re-run to "
              f"finish", file=sys.stderr)
        return 130

    counts = executor.cache_summary()
    print(
        f"campaign: {counts['total']} runs in {time.time() - start:.1f}s "
        f"({counts['miss']} simulated, {counts['hit-disk']} from disk "
        f"cache; jobs={executor.jobs})",
        file=sys.stderr,
    )
    if counts["miss"]:
        print(executor.slowest_table().render(), file=sys.stderr)
    if args.trace:
        executor.write_trace(args.trace)
        print(f"wrote trace {args.trace}", file=sys.stderr)
    if writer is not None:
        print(f"wrote {args.json}")
    if max_bytes is not None and cache is not None:
        print(cache.prune(max_bytes).render(), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
