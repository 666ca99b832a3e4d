"""Benchmark: regenerate Streaming Engine storage overheads (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_overheads(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["overheads"])
    assert result.rows, "experiment produced no rows"
