"""Benchmark: regenerate Fig 8.B speedup (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig8b(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig8b"])
    assert result.rows, "experiment produced no rows"
