"""The workload process: runs one workload and prints its results as one
JSON line.  ``run.py`` starts it with ``PYTHONPATH=src`` and a fixed
``PYTHONHASHSEED``; it is not meant to be run by hand.

Modes:

* ``--setup-only``: set up, print ``ready``, then the CPU time of the
  host-speed reference (speed.py) and exit; ``run.py`` times process
  start to ``ready`` to measure ``setup_s``.
* ``plain``: whole cycles until ``--seconds`` have passed (at least
  one), every op timed by wall clock, by process CPU time and by CPU
  time corrected for the host's speed (speed.py).
* ``traced``: one cycle with cProfile on around each op, then one pass
  over the cycle's simulations under tracemalloc.
"""
from __future__ import annotations

import argparse
import cProfile
import json
import pstats
import resource
import statistics
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

START = time.perf_counter()

from speed import SpeedProbe, fastest_reference  # noqa: E402
from workloads import WARM, WORKLOADS  # noqa: E402  (imports the library)

from repro.cpu.config import baseline_machine, uve_machine  # noqa: E402
from repro.kernels import kernel_names  # noqa: E402


def set_up(name: str, seed: int, scratch: Path):
    """Everything before the first op: the imports above, the kernel
    registry, the code-version salt and the machine configs (both built
    by workload construction or here)."""
    kernel_names()
    uve_machine()
    baseline_machine()
    return WORKLOADS[name](seed, scratch)


class Loop:
    """Runs a workload's ops, recording times, counts and failures."""

    def __init__(self, workload, profiler=None) -> None:
        self.workload = workload
        self.profiler = profiler
        self.speed = SpeedProbe()
        self.attempted = 0
        self.failures = []
        #: per measured op:
        #: (cycle, kind, wall_s, cpu_s, corrected cpu_s, committed)
        self.samples = []
        self.spans = []
        self.cycle_counts = []

    def _op(self, op, cycle: int, counts: Counter) -> None:
        self.attempted += 1
        self.speed.refresh()
        profiler = self.profiler
        wall0 = time.perf_counter()
        cpu0 = time.process_time()
        try:
            if profiler is not None:
                profiler.enable()
            try:
                outcome = op.run()
            finally:
                if profiler is not None:
                    profiler.disable()
            wall = time.perf_counter() - wall0
            cpu = time.process_time() - cpu0
            op_counts = op.check(outcome)
        except Exception:  # noqa: BLE001 — a failed op is a result
            self.failures.append(
                f"{op.kind} {op.label}: {traceback.format_exc(limit=3)}"
            )
            return
        counts.update(op_counts)
        self.samples.append(
            (cycle, op.kind, wall, cpu, cpu * self.speed.factor,
             op_counts.get("sim.committed", 0))
        )
        self.spans.append(
            {"cycle": cycle, "kind": op.kind, "label": op.label,
             "start_s": wall0 - START, "wall_s": wall}
        )

    def warm_up(self) -> None:
        """Run and discard one op (first-call costs: lazy imports,
        allocator growth)."""
        ops = self.workload.cycle()
        try:
            op = next(ops)
            try:
                op.check(op.run())
            except Exception:  # noqa: BLE001
                self.attempted += 1
                self.failures.append(
                    f"warm-up {op.label}: {traceback.format_exc(limit=3)}"
                )
        finally:
            ops.close()

    def cycle(self, index: int) -> None:
        counts: Counter = Counter()
        for op in self.workload.cycle():
            self._op(op, index, counts)
        self.cycle_counts.append(dict(counts))


def percentile(values, pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def summarise(loop: Loop, tail_pct: int) -> dict:
    """End-to-end metrics from the loop's samples, for each clock: wall,
    process CPU, and CPU corrected for the host's speed."""
    ops = [s for s in loop.samples if s[1] != WARM]
    warm = [s for s in loop.samples if s[1] == WARM]
    committed = sum(s[5] for s in ops)
    out = {}
    for clock, column in (("wall", 2), ("cpu", 3), ("corrected", 4)):
        times = [s[column] for s in ops]
        metrics = {
            "kinstr_per_s": committed / 1000.0 / sum(times),
            "op_s_p50": statistics.median(times),
            "op_s_tail": percentile(times, tail_pct),
        }
        if warm:
            metrics["hit_s_p50"] = statistics.median(s[column] for s in warm)
        out[clock] = metrics
    return out


def peak_in_simulations(workload) -> float:
    """Largest tracemalloc peak inside ``Simulator.run``, in MiB, over
    every simulation of one cycle."""
    import tracemalloc

    from repro.sim.simulator import Simulator

    peak = 0
    tracemalloc.start()
    try:
        for build in workload.simulations():
            program, memory, cfg = build()
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            Simulator(program, memory, cfg).run()
            peak = max(peak, tracemalloc.get_traced_memory()[1] - base)
    finally:
        tracemalloc.stop()
    return peak / 2**20


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--mode", choices=("plain", "traced"), default="plain")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default=None)
    args = parser.parse_args(argv)

    workload = set_up(args.workload, args.seed, Path(args.scratch))
    if args.setup_only:
        print("ready", flush=True)
        print(fastest_reference(), flush=True)
        return 0

    if args.mode == "plain":
        loop = Loop(workload)
        loop.warm_up()
        began = time.perf_counter()
        index = 0
        while index == 0 or time.perf_counter() - began < args.seconds:
            loop.cycle(index)
            index += 1
        result = {"clocks": summarise(loop, workload.TAIL_PERCENTILE)}
    else:
        profiler = cProfile.Profile(builtins=False)
        loop = Loop(workload, profiler)
        loop.warm_up()
        loop.cycle(0)
        stats = pstats.Stats(profiler).stats
        from layers import named_call_times, package_self_times

        result = {
            "clocks": summarise(loop, workload.TAIL_PERCENTILE),
            "self_s": package_self_times(stats),
            "named_s": named_call_times(stats),
            "run_peak_mb": peak_in_simulations(workload),
        }
        if args.trace_out:
            with open(args.trace_out, "w") as handle:
                json.dump(
                    {"spans": loop.spans, "self_s": result["self_s"],
                     "named_s": result["named_s"]},
                    handle, indent=1,
                )

    ops = [s for s in loop.samples if s[1] != WARM]
    result.update(
        workload=args.workload,
        mode=args.mode,
        attempted=loop.attempted,
        failures=loop.failures,
        cycle_counts=loop.cycle_counts,
        ops=len(ops),
        warm_ops=len(loop.samples) - len(ops),
        op_wall_s=sum(s[2] for s in loop.samples),
        tail_percentile=workload.TAIL_PERCENTILE,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
