"""Integration tests for the sensitivity/extension experiments at tiny
scale (shape checks; full-scale numbers live in EXPERIMENTS.md)."""
import pytest

from repro.harness import EXPERIMENTS
from repro.harness.executor import CampaignExecutor


@pytest.fixture(scope="module")
def tables():
    """Every table these tests read, from one campaign, so runs the
    experiments share simulate once."""
    names = ("fig9", "fig10", "fig11", "ext-rvv", "ext-shared-fifo")
    results = CampaignExecutor(scale=0.1, seed=0, jobs=1).run_campaign(
        [EXPERIMENTS[name] for name in names]
    )
    return {result.experiment: result for result in results}


class TestFig9:
    def test_uve_is_flat_in_vector_registers(self, tables):
        result = tables["fig9"]
        for row in result.rows:
            name, isa, *speeds = row
            values = [float(s.rstrip("x")) for s in speeds]
            if isa == "uve":
                assert max(values) - min(values) < 0.15, row

    def test_normalization_column_is_one(self, tables):
        result = tables["fig9"]
        for row in result.rows:
            assert float(row[2].rstrip("x")) == 1.0


class TestFig10:
    def test_shallow_fifos_hurt(self, tables):
        result = tables["fig10"]
        for row in result.rows:
            name, *speeds = row
            values = [float(s.rstrip("x")) for s in speeds]
            # depth 2 is clearly slower than depth 8 (normalized 1.0)
            assert values[0] < 0.95, row
            # performance is monotone non-decreasing in depth
            assert values == sorted(values) or values[-1] >= values[1], row


class TestFig11:
    def test_dram_streaming_is_worst_for_l2_resident(self, tables):
        result = tables["fig11"]
        by_name = {row[0]: row for row in result.rows}
        for name in ("gemm", "jacobi-2d", "mamr"):
            dram = float(by_name[name][3].rstrip("x"))
            l2 = float(by_name[name][2].rstrip("x"))
            assert dram < l2, by_name[name]


class TestExtensions:
    def test_rvv_between_uve_and_neon(self, tables):
        result = tables["ext-rvv"]
        for row in result.rows:
            vs_rvv = float(row[2].rstrip("x"))
            vs_neon = float(row[3].rstrip("x"))
            assert vs_rvv >= 0.9  # UVE never meaningfully loses to RVV
            assert vs_neon >= vs_rvv - 0.2

    def test_shared_fifo_never_hurts_much(self, tables):
        result = tables["ext-shared-fifo"]
        for row in result.rows:
            assert float(row[3].rstrip("x")) > 0.9, row
