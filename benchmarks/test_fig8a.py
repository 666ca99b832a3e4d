"""Benchmark: regenerate Fig 8.A instruction reduction (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig8a(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig8a"])
    assert result.rows, "experiment produced no rows"
