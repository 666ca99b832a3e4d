"""Host-time benchmark of the UVE reproduction: full simulations,
differential-fuzz cases and a Fig. 8 campaign.

Run from the repository root::

    python3 perfbench/run.py --workload sim --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate cProfile-traced run (see ``perfbench/README.md``).
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it describe the run.  The exit code is 0 whenever a result is printed.

The workload runs in a child process (``child.py``) with
``PYTHONHASHSEED`` fixed, one thread for NumPy's libraries, and its
caches in ``.perfbench/`` under the repository root, which is removed
afterwards except for the traced run's span file.
"""
from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import REFERENCE_S

HERE = Path(__file__).resolve().parent
WORKLOADS = ("sim", "fuzz", "campaign")
#: the clock every end-to-end time is taken from: process CPU time
#: corrected for the host's speed (speed.py; README.md gives the measured
#: spread of each clock that decided it)
CLOCK = "corrected"
#: setup_s is the median of this many set-up-only processes, half
#: started before the workload process and half after it, after one
#: discarded process has compiled the bytecode.
SETUP_PROBES = 8
#: a whole run, child processes included, ends within 180 s
DEADLINE_S = 170.0
PER_LAYER_COUNTS = (
    "lower.static_instrs", "sim.committed", "cpu.cycles",
    "cpu.ff_skipped_cycles", "engine.line_requests", "engine.chunks_filled",
    "memory.l1d_accesses", "memory.l1d_misses", "memory.dram_bytes",
    "harness.cache_hits", "harness.cache_misses", "fuzz.cases",
    "fuzz.timing_checked",
)
UNITS = {
    "kinstr_per_s": "kinstr/s", "op_s_p50": "s", "op_s_tail": "s",
    "hit_s_p50": "s", "peak_rss_mb": "MiB", "setup_s": "s",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MiB"
    if name.endswith("_per_instr") or name.endswith("_per_cycle"):
        return "ns"
    if name in ("harness.hit_ratio", "trace.overhead", "trace.accounted"):
        return "ratio"
    return "count"


class Children:
    """Starts child processes and makes sure each has ended."""

    def __init__(self, root: Path, seed: int, scratch: Path) -> None:
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.deadline = time.monotonic() + DEADLINE_S
        env = {
            key: value for key, value in os.environ.items()
            if key not in ("REPRO_CACHE_DIR", "PYTHONPATH")
        }
        env.update(
            PYTHONPATH=str(root / "src"),
            PYTHONHASHSEED="0",
            OMP_NUM_THREADS="1",
            OPENBLAS_NUM_THREADS="1",
            MKL_NUM_THREADS="1",
        )
        self.env = env

    def _argv(self, workload: str, extra) -> list:
        return [
            sys.executable, str(HERE / "child.py"),
            "--workload", workload, "--seed", str(self.seed),
            "--scratch", str(self.scratch), *extra,
        ]

    def _remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time")
        return left

    def run(self, workload: str, *extra: str) -> dict:
        """Run a child to completion; returns its JSON result line."""
        proc = subprocess.Popen(
            self._argv(workload, extra), cwd=self.root, env=self.env,
            stdout=subprocess.PIPE, text=True,
        )
        try:
            out, _ = proc.communicate(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if proc.returncode != 0:
            raise BenchError(
                f"{workload} process exited with {proc.returncode}"
            )
        return json.loads(out.strip().splitlines()[-1])

    def setup_time(self, workload: str):
        """Seconds from starting a set-up-only child to its ``ready``:
        ``(measured, corrected for the host's speed)`` by the reference
        time the child reports after ``ready``."""
        start = time.perf_counter()
        proc = subprocess.Popen(
            self._argv(workload, ["--setup-only"]), cwd=self.root,
            env=self.env, stdout=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - start
            reference_s, _ = proc.communicate(timeout=self._remaining())
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise BenchError(f"{workload} set-up process failed")
        return elapsed, elapsed * REFERENCE_S / float(reference_s)


def check_run(child: dict) -> None:
    for failure in child["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if child["ops"] < 2:
        raise BenchError(f"only {child['ops']} ops succeeded")


def repeat_problems(name: str, cycles: list) -> list:
    """Cycles that repeat the same ops must repeat their counts."""
    return [
        f"{name}: cycle {index} counts {counts} differ from cycle 0 "
        f"{cycles[0]}"
        for index, counts in enumerate(cycles)
        if counts != cycles[0]
    ]


def end_to_end(children: Children, args, problems: list) -> dict:
    children.setup_time(args.workload)  # compiles bytecode; discarded
    half = SETUP_PROBES // 2
    setup = [children.setup_time(args.workload) for _ in range(half)]
    child = children.run(
        args.workload, "--mode", "plain", "--seconds", str(args.seconds)
    )
    setup += [
        children.setup_time(args.workload)
        for _ in range(SETUP_PROBES - half)
    ]
    check_run(child)
    problems += repeat_problems(args.workload, child["cycle_counts"])
    metrics = dict(child["clocks"][CLOCK])
    metrics["peak_rss_mb"] = child["peak_rss_mb"]
    metrics["setup_s"] = statistics.median(c for _, c in setup)
    ops, pct = child["ops"], child["tail_percentile"]
    print(
        f"{args.workload}: {ops} ops + {child['warm_ops']} warm ops in "
        f"{len(child['cycle_counts'])} cycles; op_s_tail is p{pct} "
        f"({ops - round(ops * pct / 100)} ops beyond it)"
    )
    for clock in ("wall", "cpu"):
        print(f"by {clock} clock: " + json.dumps(child["clocks"][clock]))
    print("setup_s probes (measured, corrected): "
          + json.dumps([[round(m, 4), round(c, 4)] for m, c in setup]))
    return child, metrics


def per_layer(children: Children, args, problems: list) -> dict:
    """One untraced cycle, then the same cycle traced in a second
    process; their counts must agree."""
    plain = children.run(args.workload, "--mode", "plain", "--seconds", "0")
    trace_out = children.scratch.parent / (
        f"trace-{args.workload}-seed{args.seed}.json"
    )
    traced = children.run(
        args.workload, "--mode", "traced", "--trace-out", str(trace_out),
    )
    check_run(plain)
    check_run(traced)
    problems += repeat_problems(
        args.workload, plain["cycle_counts"] + traced["cycle_counts"]
    )
    counts = {name: 0 for name in PER_LAYER_COUNTS}
    for cycle in traced["cycle_counts"]:
        for name, value in cycle.items():
            counts[name] += value
    self_s = traced["self_s"]
    metrics = {f"{package}.self_s": t for package, t in self_s.items()}
    metrics.update(traced["named_s"])
    metrics.update(counts)
    lookups = counts["harness.cache_hits"] + counts["harness.cache_misses"]
    metrics["harness.hit_ratio"] = (
        counts["harness.cache_hits"] / lookups if lookups else 0.0
    )
    metrics["sim.host_ns_per_instr"] = (
        1e9 * metrics["sim.functional_s"] / counts["sim.committed"]
    )
    metrics["cpu.host_ns_per_cycle"] = (
        1e9 * metrics["cpu.self_s"] / counts["cpu.cycles"]
        if counts["cpu.cycles"] else 0.0
    )
    metrics["sim.run_peak_mb"] = traced["run_peak_mb"]
    metrics["trace.op_s"] = traced["op_wall_s"]
    metrics["trace.accounted"] = sum(self_s.values()) / traced["op_wall_s"]
    metrics["trace.overhead"] = (
        plain["clocks"][CLOCK]["kinstr_per_s"]
        / traced["clocks"][CLOCK]["kinstr_per_s"]
    )
    print(f"{args.workload}: traced {traced['ops']} ops in one cycle; "
          f"spans in {trace_out}")
    merged = dict(plain)
    merged["attempted"] = plain["attempted"] + traced["attempted"]
    merged["failures"] = plain["failures"] + traced["failures"]
    return merged, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print("run from the repository root: src/repro is missing",
              file=sys.stderr)
        return 2
    scratch = root / ".perfbench" / f"tmp-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    problems: list = []
    try:
        children = Children(root, args.seed, scratch)
        measure = per_layer if args.trace else end_to_end
        child, metrics = measure(children, args, problems)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    for problem in problems:
        print(f"NOT DETERMINISTIC {problem}", file=sys.stderr)
    unit = UNITS.get if not args.trace else layer_unit
    failed = len(child["failures"])
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": child["attempted"],
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit(name)}
            for name, value in sorted(metrics.items())
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
