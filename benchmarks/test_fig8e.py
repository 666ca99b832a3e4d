"""Benchmark: regenerate Fig 8.E loop unrolling (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig8e(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig8e"])
    assert result.rows, "experiment produced no rows"
