"""Benchmarks: the extension experiments beyond the paper's figures."""
from repro.harness import EXPERIMENTS

from conftest import run_figure


def test_ext_rvv(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["ext-rvv"])
    assert result.rows
    # UVE never loses to RVV.
    for row in result.rows:
        assert float(str(row[2]).rstrip("x")) >= 0.95


def test_ext_vl(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["ext-vl"])
    assert result.rows
    for row in result.rows:
        assert str(row[4]) == "1.00x"  # 512-bit column is the baseline


def test_ext_shared_fifo(benchmark, executor):
    result = run_figure(benchmark, executor, EXPERIMENTS["ext-shared-fifo"])
    assert result.rows
    for row in result.rows:
        assert float(str(row[3]).rstrip("x")) > 0.9
