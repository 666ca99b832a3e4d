"""Benchmark: regenerate Fig 11 stream cache level (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig11(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig11"])
    assert result.rows, "experiment produced no rows"
