"""Declarative design-space-exploration sweeps over the simulator.

The paper's evaluation is a grid of (kernel × ISA × vector-bits ×
machine config) simulations; the "simulator as a design tool" workflow
(Ramírez et al., PAPERS.md) needs the same grid swept over *candidate*
configurations — engine sizing, stream cache level, vector length — with
thousands of points, run once, resumable, and summarised as a Pareto
front instead of nineteen hand-read tables.

A sweep is a small JSON document::

    {
      "name": "engine-sizing",
      "kernels": ["saxpy", "memcpy", "stream"],
      "isas": ["uve"],
      "axes": {
        "vector_bits": [128, 256, 512],
        "engine.fifo_depth": [4, 8, 16],
        "engine.processing_modules": [1, 2],
        "engine.mem_level_override": ["", "L2"]
      }
    }

Axis names are dotted paths into :class:`~repro.cpu.config.MachineConfig`
(validated against the dataclass tree at expansion time); the sweep is
the cartesian product kernels × isas × axes, expanded in a fixed,
documented order so row indices are stable across runs and machines.

Execution goes through either the in-process
:class:`~repro.harness.executor.CampaignExecutor` (``--serial``, the
reference path) or the sharded experiment service
(:mod:`repro.harness.serve`): submit every point (duplicates collapse by
fingerprint, finished artifacts are immediate cache hits), boot worker
shards, and stream rows as they complete.  Either way the emitted
``rows``/``pareto`` sections depend only on simulation results — byte
identical between serial, sharded, and resumed runs — while scheduling
noise (queue waits, retries, worker ids) is quarantined in ``jobs``.

CLI::

    python -m repro.harness.sweep SPEC.json --serial --json out.json
    python -m repro.harness.sweep SPEC.json --queue DIR --workers 4 \
        --json out.json [--resume]
"""
from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.config import MachineConfig, baseline_machine, uve_machine
from repro.errors import ConfigError
from repro.harness.report import ExperimentResult, geomean
from repro.harness.runner import RunSpec
from repro.kernels import get_kernel


# -- Spec --------------------------------------------------------------------


@dataclass(frozen=True)
class SweepSpec:
    """A declarative sweep: kernels × isas × config axes."""

    name: str
    kernels: Tuple[str, ...]
    isas: Tuple[str, ...]
    #: ordered (dotted_path, values) pairs; product order follows this.
    axes: Tuple[Tuple[str, Tuple[object, ...]], ...]
    description: str = ""

    _FIELDS = ("name", "kernels", "isas", "axes", "description")

    @classmethod
    def from_dict(cls, payload: dict) -> "SweepSpec":
        unknown = sorted(set(payload) - set(cls._FIELDS))
        if unknown:
            raise ConfigError(
                f"unknown sweep spec fields {unknown} "
                f"(expected {list(cls._FIELDS)})"
            )
        for field in ("name", "kernels", "isas", "axes"):
            if field not in payload:
                raise ConfigError(f"sweep spec missing {field!r}")
        if not payload["kernels"] or not payload["isas"]:
            raise ConfigError("sweep spec needs >= 1 kernel and >= 1 isa")
        axes = tuple(
            (path, tuple(values))
            for path, values in payload["axes"].items()
        )
        for path, values in axes:
            if not values:
                raise ConfigError(f"sweep axis {path!r} has no values")
        return cls(
            name=payload["name"],
            kernels=tuple(payload["kernels"]),
            isas=tuple(payload["isas"]),
            axes=axes,
            description=payload.get("description", ""),
        )

    @classmethod
    def from_file(cls, path) -> "SweepSpec":
        try:
            payload = json.loads(Path(path).read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(f"unreadable sweep spec {path}: {exc}")
        return cls.from_dict(payload)

    def point_count(self) -> int:
        count = len(self.kernels) * len(self.isas)
        for _, values in self.axes:
            count *= len(values)
        return count

    def expand(self) -> List["SweepPoint"]:
        """The full point list in canonical order: kernels outermost,
        then isas, then the axes in spec order (itertools.product)."""
        for kernel in self.kernels:
            get_kernel(kernel)  # unknown kernels fail before any run
        points = []
        value_lists = [values for _, values in self.axes]
        paths = [path for path, _ in self.axes]
        index = 0
        for kernel in self.kernels:
            for isa in self.isas:
                for combo in itertools.product(*value_lists):
                    axes = dict(zip(paths, combo))
                    cfg = _apply_axes(_base_config(isa), axes)
                    _check_streaming(isa, cfg)
                    points.append(SweepPoint(
                        index=index, kernel=kernel, isa=isa,
                        axes=axes, spec=RunSpec(kernel, isa, cfg),
                    ))
                    index += 1
        return points


@dataclass(frozen=True)
class SweepPoint:
    """One expanded grid point (a RunSpec plus its sweep coordinates)."""

    index: int
    kernel: str
    isa: str
    axes: Dict[str, object]
    spec: RunSpec


def _base_config(isa: str) -> MachineConfig:
    return uve_machine() if isa == "uve" else baseline_machine()


def _check_streaming(isa: str, cfg: MachineConfig) -> None:
    if (isa == "uve") != cfg.streaming:
        raise ConfigError(
            f"sweep axis set streaming={cfg.streaming} which is "
            f"inconsistent with isa {isa!r}"
        )


def _apply_axes(cfg: MachineConfig, axes: Dict[str, object]) -> MachineConfig:
    for path, value in axes.items():
        cfg = _set_path(cfg, path.split("."), value)
    return cfg


def _set_path(node, parts: List[str], value):
    """Replace one dotted-path field in a frozen dataclass tree."""
    if not dataclasses.is_dataclass(node) or isinstance(node, type):
        raise ConfigError(
            f"axis path descends into non-config value {node!r}"
        )
    head, rest = parts[0], parts[1:]
    names = {f.name for f in dataclasses.fields(node)}
    if head not in names:
        raise ConfigError(
            f"unknown config field {head!r} on {type(node).__name__} "
            f"(valid: {sorted(names)})"
        )
    new = value if not rest else _set_path(getattr(node, head), rest, value)
    return dataclasses.replace(node, **{head: new})


# -- Resource proxy + Pareto -------------------------------------------------


def resource_proxy(cfg: MachineConfig) -> float:
    """Dimensionless hardware-cost proxy for Pareto fronts (bigger =
    more silicon).  Normalised so the paper's 512-bit UVE configuration
    scores ~2.25: vector datapath and vector register file scale with
    vector width; a streaming engine adds its processing modules and the
    per-stream FIFO storage (streams × depth × vector bits).  A proxy,
    not an area model — it only needs to order configs sensibly."""
    proxy = cfg.vector_bits / 512.0
    proxy += (cfg.core.vec_phys_regs * cfg.vector_bits) / (48 * 512.0)
    if cfg.streaming:
        engine = cfg.engine
        fifo_bits = engine.max_streams * engine.fifo_depth * cfg.vector_bits
        proxy += fifo_bits / float(32 * 8 * 512)
        proxy += 0.25 * engine.processing_modules / 2.0
    return round(proxy, 6)


def pareto_front(rows: List[dict]) -> List[dict]:
    """Group rows by (isa, axes), aggregate cycles across kernels by
    geomean, and mark the non-dominated set minimising
    (geomean_cycles, resource_proxy)."""
    groups: Dict[str, dict] = {}
    for row in rows:
        label = json.dumps(
            {"isa": row["isa"], **row["axes"]}, sort_keys=True
        )
        group = groups.setdefault(label, {
            "isa": row["isa"], "axes": row["axes"],
            "resource_proxy": row["resource_proxy"], "cycles": [],
        })
        group["cycles"].append(row["cycles"])
    entries = []
    for label in sorted(groups):
        group = groups[label]
        entries.append({
            "isa": group["isa"],
            "axes": group["axes"],
            "geomean_cycles": round(geomean(group["cycles"]), 6),
            "resource_proxy": group["resource_proxy"],
        })
    for entry in entries:
        entry["on_front"] = not any(
            _dominates(other, entry) for other in entries
        )
    return entries


def _dominates(a: dict, b: dict) -> bool:
    """True when ``a`` is at least as good on both objectives and
    strictly better on one (minimisation)."""
    if a is b:
        return False
    better_eq = (a["geomean_cycles"] <= b["geomean_cycles"]
                 and a["resource_proxy"] <= b["resource_proxy"])
    strictly = (a["geomean_cycles"] < b["geomean_cycles"]
                or a["resource_proxy"] < b["resource_proxy"])
    return better_eq and strictly


# -- Campaign driver ---------------------------------------------------------


def _row_for(point: SweepPoint, record) -> dict:
    """One deterministic result row: sweep coordinates + measurements.
    No scheduling data here — rows must be byte-identical between
    serial, sharded, and resumed runs."""
    return {
        "index": point.index,
        "kernel": point.kernel,
        "isa": point.isa,
        "axes": point.axes,
        "resource_proxy": resource_proxy(point.spec.resolved_config()),
        **dataclasses.asdict(record),
    }


def run_sweep_serial(
    spec: SweepSpec,
    scale: float = 1.0,
    seed: int = 0,
    lowering: str = "ir",
    jobs: int = 1,
    cache=None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """Reference path: the whole sweep through the existing
    :class:`CampaignExecutor` (serial by default), no service."""
    from repro.harness.executor import CampaignExecutor

    points = spec.expand()
    executor = CampaignExecutor(
        scale=scale, seed=seed, jobs=jobs, cache=cache,
        progress=progress, lowering=lowering,
    )
    keyed = {}
    for point in points:
        keyed.setdefault(point.spec.key(scale, seed, lowering), point.spec)
    start = time.monotonic()
    executor.run_specs(keyed)
    rows = [
        _row_for(point, executor.runner.cached(
            point.spec.key(scale, seed, lowering)
        ))
        for point in points
    ]
    counts = executor.cache_summary()
    return _payload(spec, scale, seed, lowering, rows, jobs={
        "mode": "serial",
        "total": len(points),
        "unique": len(keyed),
        "cache_hits": counts["hit-disk"] + counts["hit-memory"],
        "ran": counts["miss"],
        "wall_s": round(time.monotonic() - start, 3),
    })


def run_sweep_service(
    spec: SweepSpec,
    root,
    workers: int,
    scale: float = 1.0,
    seed: int = 0,
    lowering: str = "ir",
    lease_seconds: float = 60.0,
    max_attempts: int = 3,
    resume: bool = False,
    chaos_kill: int = 0,
    timeout_s: Optional[float] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> dict:
    """The sharded campaign: submit every point to the experiment
    service, boot worker shards, stream rows as they complete.

    Resumable by construction — finished rows live in the artifact
    store, so a second invocation (``--resume`` releases stale leases
    first) submits the same fingerprints, gets cache hits for finished
    work, and only simulates the remainder, including rows whose
    artifact was pruned since."""
    from repro.harness.serve import ExperimentService, serve_workers

    points = spec.expand()
    service = ExperimentService(
        root, scale=scale, seed=seed, lowering=lowering,
        lease_seconds=lease_seconds, max_attempts=max_attempts,
        resume=resume,
    )
    if resume:
        released = service.queue.release_stale_leases()
        if released and progress is not None:
            progress(f"[sweep] resume: released {released} stale leases")

    submits = service.submit_many([p.spec for p in points])
    statuses = [s.status for s in submits]
    keys = list(dict.fromkeys(s.key for s in submits))
    if progress is not None:
        progress(
            f"[sweep] {spec.name}: {len(points)} points -> "
            f"{len(keys)} unique jobs ({statuses.count('hit')} artifact "
            f"hits, {statuses.count('queued')} queued, "
            f"{statuses.count('duplicate')} already queued)"
        )

    start = time.monotonic()
    shard_summary: dict = {}
    supervisor = None
    if workers > 0 and not service.queue.drained():
        supervisor = threading.Thread(
            target=lambda: shard_summary.update(serve_workers(
                root, workers, chaos_kill=chaos_kill, progress=None,
            )),
            daemon=True,
        )
        supervisor.start()

    results = {}
    done = 0
    for result in service.stream_results(
        keys, timeout_s=timeout_s, progress=None
    ):
        results[result.key] = result
        done += 1
        if progress is not None and (done % 25 == 0 or done == len(keys)):
            progress(f"[sweep] {done}/{len(keys)} rows complete")
    if supervisor is not None:
        supervisor.join()

    dead = [r for r in results.values() if r.status == "dead"]
    if dead:
        raise ConfigError(
            f"{len(dead)} sweep jobs failed permanently, e.g. "
            f"{dead[0].key[:12]}: {dead[0].error}"
        )

    rows = []
    for point in points:
        result = results[service.key_for(point.spec)]
        rows.append(_row_for(point, result.record))

    # "ran" means *this* invocation: keys whose artifact already existed
    # at submit time are cache hits even if a prior campaign ran them
    # through this same queue (their Job rows still read "done").
    hit_keys = {s.key for s in submits if s.status == "hit"}
    ran = [
        r for r in results.values()
        if r.status == "ran" and r.key not in hit_keys
    ]
    waits = [r.queue_wait_s for r in ran]
    runs = [r.run_s for r in ran]
    jobs = {
        "mode": "service",
        "workers": workers,
        "total": len(points),
        "unique": len(keys),
        "cache_hits": statuses.count("hit"),
        "ran": len(ran),
        "cache_hit_rate": round(
            statuses.count("hit") / max(1, len(keys)), 4
        ),
        "requeues": sum(r.requeues for r in ran),
        "retries": sum(max(0, r.attempts - 1) for r in ran),
        "queue_wait_mean_s": round(sum(waits) / len(waits), 3) if waits
        else 0.0,
        "queue_wait_max_s": round(max(waits), 3) if waits else 0.0,
        "run_mean_s": round(sum(runs) / len(runs), 3) if runs else 0.0,
        "run_max_s": round(max(runs), 3) if runs else 0.0,
        "wall_s": round(time.monotonic() - start, 3),
        "queue": service.queue.counts(),
    }
    if shard_summary:
        jobs["worker_exits"] = shard_summary.get("worker_exits", [])
    return _payload(spec, scale, seed, lowering, rows, jobs=jobs)


def _payload(spec, scale, seed, lowering, rows, jobs) -> dict:
    return {
        "sweep": spec.name,
        "description": spec.description,
        "scale": scale,
        "seed": seed,
        "lowering": lowering,
        "rows": rows,
        "pareto": pareto_front(rows),
        "jobs": jobs,
    }


def pareto_table(payload: dict, limit: int = 15) -> ExperimentResult:
    """Render the Pareto front (plus how much it pruned) as a table."""
    entries = payload["pareto"]
    front = [e for e in entries if e["on_front"]]
    front.sort(key=lambda e: e["resource_proxy"])
    rows = [
        (
            e["isa"],
            json.dumps(e["axes"], sort_keys=True),
            e["resource_proxy"],
            e["geomean_cycles"],
        )
        for e in front[:limit]
    ]
    return ExperimentResult(
        f"sweep-{payload['sweep']}",
        f"Pareto front: {len(front)}/{len(entries)} configs "
        f"non-dominated (cycles vs. resource proxy, "
        f"{len(payload['rows'])} rows)",
        ["isa", "config", "resource", "geomean cycles"],
        rows,
    )


# -- CLI ---------------------------------------------------------------------


def _write_json(path: str, payload: dict) -> None:
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.sweep",
        description="Expand and run a declarative design-space sweep.",
    )
    parser.add_argument("spec", help="sweep spec JSON file")
    parser.add_argument("--queue", metavar="DIR", default="",
                        help="campaign directory (required unless "
                             "--serial/--expand)")
    parser.add_argument("--workers", type=int, default=2, metavar="N",
                        help="worker shards to boot (default 2; 0 "
                             "attaches to externally started workers)")
    parser.add_argument("--serial", action="store_true",
                        help="run in-process through the campaign "
                             "executor instead of the service "
                             "(reference path)")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="process-pool width for --serial")
    parser.add_argument("--resume", action="store_true",
                        help="release stale leases and continue a "
                             "half-finished campaign")
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--lowering", default="ir",
                        choices=("ir", "legacy"))
    parser.add_argument("--lease-seconds", type=float, default=60.0,
                        help="worker lease/heartbeat window")
    parser.add_argument("--timeout", type=float, default=None,
                        metavar="S", help="abort if no row completes "
                        "for S seconds")
    parser.add_argument("--json", metavar="PATH", default="",
                        help="write rows + Pareto front + job metrics")
    parser.add_argument("--expand", action="store_true",
                        help="print the expanded point count and exit")
    parser.add_argument("--chaos-kill", type=int, default=0, metavar="N",
                        help="fault-injection drill: SIGKILL N worker "
                             "shards mid-campaign (CI uses 1)")
    args = parser.parse_args(argv)

    spec = SweepSpec.from_file(args.spec)
    if args.expand:
        points = spec.expand()
        print(f"{spec.name}: {len(points)} points "
              f"({len(spec.kernels)} kernels x {len(spec.isas)} isas x "
              f"{len(points) // max(1, len(spec.kernels) * len(spec.isas))}"
              f" configs)")
        return 0

    progress = lambda line: print(line, file=sys.stderr, flush=True)  # noqa: E731
    if args.serial:
        payload = run_sweep_serial(
            spec, scale=args.scale, seed=args.seed,
            lowering=args.lowering, jobs=args.jobs, progress=progress,
        )
    else:
        if not args.queue:
            parser.error("--queue DIR is required (or pass --serial)")
        payload = run_sweep_service(
            spec, args.queue, args.workers, scale=args.scale,
            seed=args.seed, lowering=args.lowering,
            lease_seconds=args.lease_seconds, resume=args.resume,
            chaos_kill=args.chaos_kill, timeout_s=args.timeout,
            progress=progress,
        )

    print(pareto_table(payload).render())
    jobs = payload["jobs"]
    print(
        f"sweep {spec.name}: {jobs['total']} rows in "
        f"{jobs['wall_s']:.1f}s ({jobs.get('ran', 0)} simulated, "
        f"{jobs.get('cache_hits', 0)} cache hits, "
        f"{jobs.get('requeues', 0)} requeues, mode {jobs['mode']})",
        file=sys.stderr,
    )
    if args.json:
        _write_json(args.json, payload)
        print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
