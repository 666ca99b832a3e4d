"""Automated shape validation of a results.json campaign.

``python -m repro.harness --check results.json`` (or
:func:`validate_results`) asserts the qualitative claims of the paper —
who wins, orderings, flat-vs-growing sensitivities — against a previously
exported campaign, without pinning fragile absolute numbers.
:func:`diff_results` pins them instead: it lists every value in which a
campaign differs from a reference export such as ``results.json``;
``python -m repro.harness.checks EXPECTED GOT`` prints that list, one
difference a line, and exits 1 when it is not empty.

A malformed or truncated campaign (e.g. an export missing its ``average``
row) must degrade to ``FAIL:`` entries naming the missing row, never to
an exception: ``--check`` runs in CI against files a crashed campaign may
have left incomplete.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, field
from itertools import zip_longest
from typing import Dict, List, Optional, Sequence


@dataclass
class CheckReport:
    passed: List[str] = field(default_factory=list)
    failed: List[str] = field(default_factory=list)

    def check(self, condition: bool, description: str) -> None:
        (self.passed if condition else self.failed).append(description)

    @property
    def ok(self) -> bool:
        return not self.failed

    def render(self) -> str:
        lines = [f"{len(self.passed)} checks passed, "
                 f"{len(self.failed)} failed"]
        for item in self.failed:
            lines.append(f"  FAIL: {item}")
        return "\n".join(lines)


def _experiments(payload: dict) -> Dict[str, dict]:
    return {e["experiment"]: e for e in payload["experiments"]}


def diff_results(expected: dict, got: dict) -> List[str]:
    """Every value in which the exported campaign ``got`` differs from
    ``expected``, one line each naming the experiment, row, column and
    both values (``None`` where one side has no such cell); empty when
    they agree exactly."""
    diffs = [
        f"{name}: expected {expected.get(name)!r}, got {got.get(name)!r}"
        for name in ("scale", "seed") if expected.get(name) != got.get(name)
    ]
    want, have = _experiments(expected), _experiments(got)
    for name in list(want) + [n for n in have if n not in want]:
        a, b = want.get(name), have.get(name)
        if a is None or b is None:
            side = "got" if a is None else "expected"
            diffs.append(f"{name}: only in {side}")
            continue
        for part in ("title", "headers"):
            if a[part] != b[part]:
                diffs.append(f"{name} {part}: expected {a[part]!r}, "
                             f"got {b[part]!r}")
        rows = zip_longest(a["rows"], b["rows"], fillvalue=[])
        for i, (row_a, row_b) in enumerate(rows):
            label = " ".join(str(cell) for cell in (row_a or row_b)[:2])
            cells = zip_longest(row_a, row_b)
            for j, (x, y) in enumerate(cells):
                if x != y:
                    column = a["headers"][j] if j < len(a["headers"]) else j
                    diffs.append(f"{name} row {i} ({label}) column "
                                 f"{column!r}: expected {x!r}, got {y!r}")
        notes = zip_longest(a["notes"], b["notes"])
        for i, (x, y) in enumerate(notes):
            if x != y:
                diffs.append(f"{name} note {i}: expected {x!r}, got {y!r}")
    return diffs


def _speedup(cell: str) -> float:
    return float(str(cell).rstrip("x"))


def _find_row(
    report: CheckReport,
    rows: Sequence[Sequence[object]],
    column: int,
    value: str,
    what: str,
) -> Optional[Sequence[object]]:
    """First row whose ``column`` equals ``value``; a missing row is a
    reported failure, not a crash."""
    for row in rows:
        if len(row) > column and row[column] == value:
            return row
    report.check(False, f"{what}: missing '{value}' row")
    return None


def _nth_row(
    report: CheckReport,
    rows: Sequence[Sequence[object]],
    index: int,
    what: str,
) -> Optional[Sequence[object]]:
    if index < len(rows):
        return rows[index]
    report.check(
        False, f"{what}: missing row {index} (got {len(rows)} rows)"
    )
    return None


def _wide_enough(
    report: CheckReport, cells: Sequence[object], needed: int, what: str
) -> bool:
    if len(cells) >= needed:
        return True
    report.check(
        False,
        f"{what}: expected at least {needed} values, got {len(cells)}",
    )
    return False


def validate_results(path: str) -> CheckReport:
    """Validate an exported campaign against the paper's shapes."""
    with open(path) as handle:
        payload = json.load(handle)
    exps = _experiments(payload)
    report = CheckReport()

    if "fig8a" in exps:
        rows = [r for r in exps["fig8a"]["rows"] if r[0]]
        for row in rows:
            reduction = float(str(row[5]).rstrip("%"))
            report.check(
                reduction > 0,
                f"fig8a: {row[1]} commits fewer instructions than SVE",
            )
        avg_row = _find_row(report, exps["fig8a"]["rows"], 1, "average",
                            "fig8a")
        if avg_row is not None:
            avg = float(str(avg_row[5]).rstrip("%"))
            report.check(
                40 <= avg <= 80,
                f"fig8a: average reduction {avg}% in the paper's range",
            )

    if "fig8b" in exps:
        rows = [r for r in exps["fig8b"]["rows"] if r[0]]
        for row in rows:
            report.check(
                _speedup(row[2]) >= 1.0,
                f"fig8b: UVE at least matches SVE on {row[1]}",
            )
        starred = [r for r in rows if r[4] == "*" and r[1] != "seidel-2d"]
        report.check(
            all(_speedup(r[2]) > 5 for r in starred),
            "fig8b: order-of-magnitude spikes on compiler-unvectorized "
            "benchmarks",
        )

    if "fig8d" in exps:
        rows = exps["fig8d"]["rows"]
        for name in ("memcpy", "stream"):
            row = _find_row(report, rows, 1, name, "fig8d")
            if row is not None:
                report.check(
                    float(row[2]) > float(row[3]),
                    f"fig8d: UVE uses more DRAM bandwidth on {name}",
                )
        for name in ("gemm", "jacobi-1d", "irsmk"):
            row = _find_row(report, rows, 1, name, "fig8d")
            if row is not None:
                report.check(
                    float(row[2]) < 0.1 and float(row[3]) < 0.1,
                    f"fig8d: {name} stays L2-bound on both cores",
                )

    if "fig8e" in exps:
        speeds = [_speedup(r[2]) for r in exps["fig8e"]["rows"]]
        if _wide_enough(report, speeds, 1, "fig8e"):
            report.check(speeds[0] == 1.0, "fig8e: factor 1 is the baseline")
            report.check(max(speeds) > 1.2,
                         "fig8e: unrolling yields a real speed-up")

    if "fig9" in exps:
        for row in exps["fig9"]["rows"]:
            name, isa, *cells = row
            values = [_speedup(c) for c in cells]
            if isa == "uve" and _wide_enough(report, values, 1,
                                             f"fig9 {name}/uve"):
                report.check(
                    max(values) - min(values) < 0.1,
                    f"fig9: UVE flat in vector PRs on {name}",
                )
        sve_gains = [
            _speedup(row[4]) for row in exps["fig9"]["rows"]
            if len(row) > 4 and row[1] == "sve"
        ]
        if _wide_enough(report, sve_gains, 1, "fig9 sve rows"):
            report.check(max(sve_gains) > 1.2,
                         "fig9: SVE gains from more vector PRs somewhere")

    if "fig10" in exps:
        for row in exps["fig10"]["rows"]:
            name, *cells = row
            values = [_speedup(c) for c in cells]
            if not _wide_enough(report, values, 3, f"fig10 {name}"):
                continue
            report.check(values[0] < 0.8,
                         f"fig10: depth 2 clearly hurts {name}")
            report.check(values[2] == 1.0,
                         f"fig10: depth 8 is the baseline for {name}")

    if "fig11" in exps:
        for row in exps["fig11"]["rows"]:
            name = row[0]
            if not _wide_enough(report, row, 4, f"fig11 {name}"):
                continue
            l2 = _speedup(row[2])
            dram = _speedup(row[3])
            report.check(l2 == 1.0, f"fig11: L2 is the baseline for {name}")
            report.check(dram <= 1.0,
                         f"fig11: DRAM streaming never beats L2 on {name}")

    if "overheads" in exps:
        rows = exps["overheads"]["rows"]
        evaluated = _nth_row(report, rows, 0, "overheads")
        reduced = _nth_row(report, rows, 1, "overheads")
        if evaluated is not None:
            report.check(
                float(evaluated[5]) < 0.6,
                "overheads: evaluated engine under ~1/2 of an L1",
            )
        if reduced is not None:
            report.check(
                float(reduced[5]) <= 0.12,
                "overheads: reduced configuration around 10% of an L1",
            )

    if "ext-rvv" in exps:
        for row in exps["ext-rvv"]["rows"]:
            report.check(
                _speedup(row[2]) >= 1.0,
                f"ext-rvv: UVE at least matches RVV on {row[0]}",
            )

    if "ext-vl" in exps:
        for row in exps["ext-vl"]["rows"]:
            label = " ".join(str(cell) for cell in row[:2])
            if _wide_enough(report, row, 5, f"ext-vl {label}"):
                report.check(row[4] == "1.00x",
                             f"ext-vl: 512b is the baseline for {label}")

    if "ext-shared-fifo" in exps:
        for row in exps["ext-shared-fifo"]["rows"]:
            if _wide_enough(report, row, 4, f"ext-shared-fifo {row[0]}"):
                report.check(_speedup(row[3]) > 0.9,
                             f"ext-shared-fifo: pooling keeps {row[0]} fed")

    if "ablation-prefetch" in exps:
        for row in exps["ablation-prefetch"]["rows"]:
            if _wide_enough(report, row, 3, f"ablation-prefetch {row[0]}"):
                report.check(_speedup(row[2]) >= _speedup(row[1]) - 0.5,
                             f"ablation-prefetch: {row[0]} keeps UVE's lead")

    if "ablation-mac-forwarding" in exps:
        for row in exps["ablation-mac-forwarding"]["rows"]:
            label = " ".join(str(cell) for cell in row[:2])
            if _wide_enough(report, row, 5,
                            f"ablation-mac-forwarding {label}"):
                report.check(_speedup(row[4]) >= 0.99,
                             f"ablation-mac-forwarding: never slows {label}")

    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.checks",
        description="Print every value in which the exported campaign GOT "
        "differs from EXPECTED (such as results.json), one a line; exit 1 "
        "if any differs.",
    )
    parser.add_argument("expected", help="reference campaign JSON")
    parser.add_argument("got", help="campaign JSON to compare")
    args = parser.parse_args(argv)
    with open(args.expected) as fh:
        expected = json.load(fh)
    with open(args.got) as fh:
        got = json.load(fh)
    diffs = diff_results(expected, got)
    print("\n".join(diffs) or f"{args.got} equals {args.expected}")
    return 1 if diffs else 0


if __name__ == "__main__":
    sys.exit(main())
