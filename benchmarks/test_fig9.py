"""Benchmark: regenerate Fig 9 vector-register sensitivity (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_fig9(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["fig9"])
    assert result.rows, "experiment produced no rows"
