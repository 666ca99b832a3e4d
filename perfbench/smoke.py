"""Smoke check of the benchmark: every workload at minimum length (one
cycle), untraced and traced.

Run from the repository root::

    python3 perfbench/smoke.py

It checks that each run prints every metric ``BENCHMARK.json`` names,
with its unit, that the run is correct and that no op failed, and exits
1 if any check fails.
"""
from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def check(workload: str, trace: int, declared: list) -> list:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180,
    )
    tag = f"{workload} --trace {trace}"
    if out.returncode != 0:
        return [f"{tag}: exit {out.returncode}: {out.stderr[-2000:]}"]
    result = json.loads(out.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"]:
        problems.append(
            f"{tag}: correct={result['correct']} failed={result['failed']} "
            f"of {result['attempted']}: {out.stderr[-2000:]}"
        )
    metrics = result["metrics"]
    for metric in declared:
        got = metrics.get(metric["name"])
        if got is None:
            problems.append(f"{tag}: metric {metric['name']} missing")
        elif got["unit"] != metric["unit"]:
            problems.append(
                f"{tag}: {metric['name']} in {got['unit']}, "
                f"declared {metric['unit']}"
            )
    extra = set(metrics) - {m["name"] for m in declared}
    if extra:
        problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
    print(f"{tag}: {result['attempted']} ops, {len(metrics)} metrics, "
          f"{len(problems)} problem(s)", flush=True)
    return problems


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems += check(workload["name"], trace, spec[key])
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
