"""Shared fixtures for the benchmark harness.

Each ``benchmarks/test_*.py`` regenerates one table/figure of the paper
through pytest-benchmark (single-round pedantic mode: a figure is a
deterministic simulation campaign, not a microbenchmark).

Set ``REPRO_BENCH_SCALE`` to change the workload scale (default 0.5 for
turnaround; 1.0 reproduces the EXPERIMENTS.md numbers).
"""
import os

import pytest

from repro.harness.diskcache import ResultCache
from repro.harness.executor import CampaignExecutor


def bench_scale() -> float:
    return float(os.environ.get("REPRO_BENCH_SCALE", "0.5"))


@pytest.fixture(scope="session")
def executor(tmp_path_factory) -> CampaignExecutor:
    """One in-process executor for the session.  Its disk cache, fresh
    per session, lets figures that share runs simulate them once."""
    cache = ResultCache(tmp_path_factory.mktemp("results"))
    return CampaignExecutor(scale=bench_scale(), seed=0, jobs=1, cache=cache)


def run_figure(benchmark, executor, experiment):
    """Run one experiment (its runs, then its table) exactly once under
    pytest-benchmark and print its table."""
    [result] = benchmark.pedantic(
        executor.run_campaign, args=([experiment],), rounds=1,
        iterations=1, warmup_rounds=0,
    )
    print()
    print(result.render())
    return result
