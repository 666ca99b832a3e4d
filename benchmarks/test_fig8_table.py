"""Benchmark: regenerate Fig 8 benchmark table (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig8_table(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig8-table"])
    assert result.rows, "experiment produced no rows"
