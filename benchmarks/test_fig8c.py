"""Benchmark: regenerate Fig 8.C rename blocks (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig8c(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig8c"])
    assert result.rows, "experiment produced no rows"
