"""Benchmark: regenerate Fig 8.D bus utilization (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig8d(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig8d"])
    assert result.rows, "experiment produced no rows"
