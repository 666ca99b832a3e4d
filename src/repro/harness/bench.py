"""Simulator-performance micro-benchmark (wall clock, not model output).

Measures the pure timing loop — :meth:`Pipeline.run` over a fully
materialised dynamic trace — with the event-horizon fast-forward on and
off, and checks that both produce bit-identical :class:`PipelineStats`.
The functional pass is deliberately excluded: it is shared by both
configurations and would only dilute the quantity being optimised (the
per-cycle Python loop in ``Pipeline.run`` / ``StreamingEngine.tick``).

``BENCH_sim.json`` is a *tracked trajectory*: besides the latest run it
carries an append-only ``trajectory`` list of blessed results (git rev +
cycles/s per case).  ``--gate`` fails a run that regresses more than
``GATE_TOLERANCE`` below the newest same-scale entry; ``--bless``
appends the run as the new reference.  Writes are atomic
(write-to-temp + rename), so a crash can never lose history.

Re-measure and extend the repo's ``BENCH_sim.json``::

    PYTHONPATH=src python -m repro.harness.bench --repeats 3 \
        --json BENCH_sim.json --gate --bless

CI runs the gate at reduced scale against the previous run's cached
artifact and uploads the result; ``benchmarks/test_perf.py`` wraps the
same machinery under pytest.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional, Tuple

from repro.cpu.config import MachineConfig, default_machine
from repro.cpu.pipeline import Pipeline
from repro.sim.simulator import Recording, record_kernel

#: kernel × ISA pairs benchmarked by default: four memory-bound 1-D
#: cases, where fast-forward dominates, then a 2-D kernel, an indirect
#: kernel and the starred scalar kernel, which load rename and issue
DEFAULT_CASES: Tuple[Tuple[str, str], ...] = (
    ("stream", "uve"),
    ("memcpy", "uve"),
    ("saxpy", "uve"),
    ("memcpy", "sve"),
    ("gemm", "sve"),
    ("irsmk", "uve"),
    ("floyd-warshall", "sve"),
)

#: regression tolerance of the trajectory gate: a run whose cycles/s
#: falls more than this fraction below the last blessed entry fails
GATE_TOLERANCE = 0.10


def time_run(
    recording: Recording, config: MachineConfig, fast_forward: bool
) -> Tuple[float, Pipeline]:
    """One timed ``Pipeline.run`` over the recorded trace under
    ``config``; returns (wall seconds, finished pipeline)."""
    pipeline = recording.pipeline(config.with_(fast_forward=fast_forward))
    start = time.perf_counter()
    pipeline.run(recording.trace)
    return time.perf_counter() - start, pipeline


def bench_case(
    kernel: str, isa: str, scale: float = 1.0, repeats: int = 2
) -> Dict[str, object]:
    """Benchmark one kernel × ISA: fast-forward off vs on (best-of-N),
    verifying that both produce identical PipelineStats."""
    config = default_machine(isa)
    recording, _ = record_kernel(kernel, isa, config.vector_bits, scale=scale)
    off_s, off_pipe = min(
        (time_run(recording, config, False) for _ in range(repeats)),
        key=lambda r: r[0],
    )
    on_s, on_pipe = min(
        (time_run(recording, config, True) for _ in range(repeats)),
        key=lambda r: r[0],
    )
    off_stats = off_pipe.stats.as_dict()
    on_stats = on_pipe.stats.as_dict()
    if off_stats != on_stats:
        raise AssertionError(
            f"fast-forward changed PipelineStats for {kernel}/{isa}: "
            f"{off_stats} != {on_stats}"
        )
    cycles = off_pipe.stats.cycles
    engine = on_pipe.engine
    occ_off = (
        off_pipe.engine.stats.mean_fifo_occupancy
        if off_pipe.engine is not None
        else 0.0
    )
    occ_on = engine.stats.mean_fifo_occupancy if engine is not None else 0.0
    if occ_off != occ_on:
        raise AssertionError(
            f"fast-forward changed mean_fifo_occupancy for {kernel}/{isa}: "
            f"{occ_off} != {occ_on}"
        )
    return {
        "kernel": kernel,
        "isa": isa,
        "scale": scale,
        "cycles": cycles,
        "committed": off_pipe.stats.committed,
        "wall_s_off": round(off_s, 4),
        "wall_s_on": round(on_s, 4),
        "cycles_per_sec_off": round(cycles / off_s, 1),
        "cycles_per_sec_on": round(cycles / on_s, 1),
        "speedup": round(off_s / on_s, 3),
        "skipped_cycles": on_pipe.ff_skipped_cycles,
        "skipped_fraction": round(on_pipe.ff_skipped_cycles / cycles, 4),
        "stats_identical": True,
    }


#: stand-alone script run under PYTHONPATH=<baseline>/src — times the
#: *baseline tree's own* Pipeline.run on the same materialised workload
#: (the functional side is deterministic and shared, so the traces match)
_BASELINE_SNIPPET = r"""
import json, sys, time
from repro.cpu.config import uve_machine, baseline_machine
from repro.cpu.pipeline import Pipeline
from repro.kernels import get_kernel
from repro.memory.hierarchy import MemoryHierarchy
from repro.sim.functional import FunctionalSimulator

kern, isa, scale, repeats = (
    sys.argv[1], sys.argv[2], float(sys.argv[3]), int(sys.argv[4])
)
kernel = get_kernel(kern)
wl = kernel.workload(seed=0, scale=scale)
cfg = uve_machine() if isa == "uve" else baseline_machine()
program = kernel.build(isa, wl, cfg.vector_bits)
functional = FunctionalSimulator(
    program, memory=wl.memory, vector_bits=cfg.vector_bits
)
trace = list(functional.trace())
best, stats = None, None
for _ in range(repeats):
    h = MemoryHierarchy(cfg)
    h.warm(0, wl.memory._brk)
    p = Pipeline(cfg, h, dict(functional.summary.streams))
    t0 = time.perf_counter()
    p.run(iter(trace))
    dt = time.perf_counter() - t0
    if best is None or dt < best:
        best, stats = dt, p.stats
print(json.dumps(
    {"wall_s": best, "cycles": stats.cycles, "committed": stats.committed}
))
"""


def time_baseline(
    baseline_src: str, kernel: str, isa: str, scale: float, repeats: int
) -> Dict[str, object]:
    """Time ``Pipeline.run`` of another source tree (e.g. a git worktree
    of the pre-fast-forward commit) on the same case, in a subprocess."""
    env = dict(os.environ, PYTHONPATH=baseline_src)
    out = subprocess.run(
        [sys.executable, "-c", _BASELINE_SNIPPET, kernel, isa,
         str(scale), str(repeats)],
        env=env, capture_output=True, text=True, check=True,
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def run_benchmarks(
    cases=DEFAULT_CASES,
    scale: float = 1.0,
    repeats: int = 2,
    baseline_src: Optional[str] = None,
    baseline_ref: str = "",
) -> Dict[str, object]:
    runs = [bench_case(k, isa, scale=scale, repeats=repeats) for k, isa in cases]
    out: Dict[str, object] = {
        "benchmark": "timing-loop wall clock, fast-forward off vs on",
        "scale": scale,
        "repeats": repeats,
        "runs": runs,
        "max_speedup": max(r["speedup"] for r in runs),
    }
    if baseline_src:
        for run in runs:
            base = time_baseline(
                baseline_src, run["kernel"], run["isa"], scale, repeats
            )
            if base["cycles"] != run["cycles"]:
                raise AssertionError(
                    f"baseline tree simulated different cycles for "
                    f"{run['kernel']}/{run['isa']}: "
                    f"{base['cycles']} != {run['cycles']}"
                )
            run["wall_s_baseline"] = round(base["wall_s"], 4)
            run["speedup_vs_baseline"] = round(
                base["wall_s"] / run["wall_s_on"], 3
            )
        out["baseline_ref"] = baseline_ref
        out["max_speedup_vs_baseline"] = max(
            r["speedup_vs_baseline"] for r in runs
        )
    return out


# -- Tracked trajectory -------------------------------------------------------
#
# BENCH_sim.json carries an append-only ``trajectory`` list: one entry
# per blessed run, recording the git revision and the cycles/s each case
# achieved.  ``--gate`` compares a fresh run against the newest entry of
# the same scale and fails on a >GATE_TOLERANCE regression, turning the
# file into a simulator-performance ratchet; ``--bless`` appends the
# fresh run as the new reference.  Entries are never rewritten.


def _git_rev() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True,
            text=True,
            check=True,
            cwd=here,
        )
        rev = out.stdout.strip()
    except Exception:
        return "unknown"
    try:
        dirty = subprocess.run(
            ["git", "diff", "--quiet", "HEAD"], cwd=here
        ).returncode != 0
    except Exception:
        dirty = False
    return rev + "-dirty" if dirty else rev


def trajectory_entry(results: Dict[str, object], rev: str = "") -> Dict[str, object]:
    """One append-only trajectory record summarising ``results``."""
    runs = results["runs"]
    return {
        "rev": rev or _git_rev(),
        "recorded_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "scale": results["scale"],
        "cycles": {f"{r['kernel']}/{r['isa']}": r["cycles"] for r in runs},
        "cycles_per_sec_on": {
            f"{r['kernel']}/{r['isa']}": r["cycles_per_sec_on"] for r in runs
        },
    }


def _reference_from(doc: Dict[str, object], scale: float) -> Optional[Dict]:
    """Extract a gate reference from a results document: the newest
    same-scale trajectory entry, else the document's own runs (so a
    previous CI artifact works directly as ``--gate-against``)."""
    for entry in reversed(doc.get("trajectory", [])):
        if entry.get("scale") == scale:
            return entry
    if doc.get("scale") == scale and "runs" in doc:
        return trajectory_entry(doc, rev=str(doc.get("rev", "previous-run")))
    return None


def check_gate(
    results: Dict[str, object],
    reference: Optional[Dict],
    tolerance: float = GATE_TOLERANCE,
) -> Tuple[List[str], List[str]]:
    """Compare ``results`` against a trajectory ``reference``.

    Returns ``(failures, warnings)``.  Only cases present in both are
    compared, and only when their simulated cycle counts agree — a cycle
    count changed by a timing-model PR makes wall-clock comparison
    meaningless, so it downgrades to a warning (model *output* drift is
    guarded separately by tier-1 and the differential fuzzer).
    """
    failures: List[str] = []
    warnings: List[str] = []
    if reference is None:
        warnings.append("gate: no same-scale reference entry; passing")
        return failures, warnings
    ref_cycles = reference.get("cycles", {})
    ref_cps = reference.get("cycles_per_sec_on", {})
    for run in results["runs"]:
        key = f"{run['kernel']}/{run['isa']}"
        want_cps = ref_cps.get(key)
        if want_cps is None:
            warnings.append(f"gate: {key} not in reference; skipping")
            continue
        want_cycles = ref_cycles.get(key)
        if want_cycles is not None and want_cycles != run["cycles"]:
            warnings.append(
                f"gate: {key} simulated cycles changed "
                f"{want_cycles} -> {run['cycles']}; wall-clock comparison "
                "skipped (bless a new entry after review)"
            )
            continue
        floor = want_cps * (1.0 - tolerance)
        if run["cycles_per_sec_on"] < floor:
            failures.append(
                f"gate: {key} regressed to {run['cycles_per_sec_on']:,.0f} "
                f"cycles/s, more than {tolerance:.0%} below the blessed "
                f"{want_cps:,.0f} (rev {reference.get('rev', '?')})"
            )
    return failures, warnings


def _atomic_write_json(path: str, payload: Dict[str, object]) -> None:
    """Replace ``path`` atomically so a crash mid-write can never lose
    the append-only trajectory."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        os.replace(tmp, path)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--json", default=None, help="write the results to this JSON file "
        "(an existing file's trajectory is carried forward)"
    )
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--repeats", type=int, default=2)
    parser.add_argument(
        "--cases",
        default=None,
        help="comma-separated kernel/isa pairs, e.g. stream/uve,memcpy/sve",
    )
    parser.add_argument(
        "--baseline-src",
        default=None,
        help="PYTHONPATH of another source tree (e.g. a git worktree of "
        "the pre-fast-forward commit) to time as a baseline",
    )
    parser.add_argument(
        "--baseline-ref",
        default="",
        help="label recorded for the baseline tree (e.g. its git rev)",
    )
    parser.add_argument(
        "--gate",
        action="store_true",
        help="fail (exit 2) if cycles/s regresses more than the tolerance "
        "below the newest same-scale trajectory entry",
    )
    parser.add_argument(
        "--gate-against",
        default=None,
        help="read the gate reference from this JSON file instead of the "
        "--json file (e.g. a previous CI artifact)",
    )
    parser.add_argument(
        "--gate-tolerance",
        type=float,
        default=GATE_TOLERANCE,
        help="allowed fractional cycles/s regression (default %(default)s)",
    )
    parser.add_argument(
        "--bless",
        action="store_true",
        help="append this run to the trajectory as the new gate reference "
        "(skipped if --gate fails)",
    )
    args = parser.parse_args(argv)
    cases = DEFAULT_CASES
    if args.cases:
        cases = tuple(
            tuple(pair.split("/", 1)) for pair in args.cases.split(",")
        )

    previous: Dict[str, object] = {}
    if args.json and os.path.exists(args.json):
        with open(args.json) as fh:
            previous = json.load(fh)
    trajectory = list(previous.get("trajectory", []))

    results = run_benchmarks(
        cases,
        scale=args.scale,
        repeats=args.repeats,
        baseline_src=args.baseline_src,
        baseline_ref=args.baseline_ref,
    )

    failures: List[str] = []
    if args.gate:
        if args.gate_against:
            with open(args.gate_against) as fh:
                reference = _reference_from(json.load(fh), args.scale)
        else:
            reference = _reference_from(
                {"trajectory": trajectory}, args.scale
            )
        failures, warnings = check_gate(
            results, reference, tolerance=args.gate_tolerance
        )
        for line in warnings:
            print(line, file=sys.stderr)
        for line in failures:
            print(line, file=sys.stderr)

    if args.bless and not failures:
        trajectory.append(trajectory_entry(results))
    results["trajectory"] = trajectory

    text = json.dumps(results, indent=2)
    print(text)
    if args.json:
        _atomic_write_json(args.json, results)
    return 2 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
