"""Benchmark: regenerate Table I configuration (paper evaluation)."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_table1(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["table1"])
    assert result.rows, "experiment produced no rows"
