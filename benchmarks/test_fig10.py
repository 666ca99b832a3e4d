"""Benchmark: regenerate Fig 10 FIFO depth sensitivity (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig10(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig10"])
    assert result.rows, "experiment produced no rows"
