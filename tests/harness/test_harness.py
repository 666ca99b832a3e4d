"""Unit tests for the experiment harness (runner, report, registry)."""
import pytest

from repro.cpu.config import default_machine
from repro.harness import EXPERIMENTS, Experiment, Runner, RunSpec
from repro.harness.executor import CampaignExecutor
from repro.harness.report import ExperimentResult, geomean


def run_records(specs, scale=0.1):
    """The executor and the records of an ad-hoc run list, through a
    campaign of one experiment whose table is its records."""
    executor = CampaignExecutor(scale=scale, jobs=1)
    [records] = executor.run_campaign(
        [Experiment(build=dict, specs=lambda runner: specs)]
    )
    return executor, records


def run_table(name, scale=0.1):
    [result] = CampaignExecutor(scale=scale, jobs=1).run_campaign(
        [EXPERIMENTS[name]]
    )
    return result


class TestReport:
    def test_render_aligns_columns(self):
        result = ExperimentResult(
            "exp", "A title", ["name", "value"],
            [("short", 1.0), ("a-much-longer-name", 22.5)],
            notes=["a note"],
        )
        text = result.render()
        lines = text.splitlines()
        assert lines[0] == "== exp: A title =="
        assert "a note" in lines[-1]
        header, sep, row1, row2 = lines[1:5]
        assert len(header) == len(row1) == len(row2)
        assert "22.500" in row2  # floats render with 3 decimals

    def test_geomean(self):
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)
        assert geomean([]) == 0.0
        assert geomean([0.0, 4.0]) == pytest.approx(4.0)  # zeros dropped


class TestRunner:
    def test_identical_runs_simulate_once(self):
        executor, records = run_records(
            [RunSpec("saxpy", "uve"), RunSpec("saxpy", "uve")]
        )
        assert list(records) == [RunSpec("saxpy", "uve")]
        assert executor.cache_summary()["miss"] == 1

    def test_distinct_configs_not_conflated(self):
        from dataclasses import replace
        base = default_machine("uve")
        varied = base.with_(engine=replace(base.engine, fifo_depth=2))
        specs = [RunSpec("saxpy", "uve", base),
                 RunSpec("saxpy", "uve", varied)]
        executor, records = run_records(specs)
        assert records[specs[0]] is not records[specs[1]]
        assert executor.cache_summary()["miss"] == 2

    def test_record_fields_populated(self):
        spec = RunSpec("saxpy", "sve")
        record = run_records([spec])[1][spec]
        assert record.kernel == "saxpy"
        assert record.letter == "C"
        assert record.committed > 0
        assert record.cycles > 0
        assert 0 < record.ipc <= 8
        assert record.fifo_occupancy == 0.0  # no engine on the baseline

    def test_uve_record_has_engine_stats(self):
        spec = RunSpec("saxpy", "uve")
        assert run_records([spec])[1][spec].fifo_occupancy > 0

    def test_key_takes_only_the_ir_lowering(self):
        """perfbench keys specs with ``CampaignExecutor.lowering``."""
        from repro.errors import ConfigError
        spec = RunSpec("saxpy", "uve")
        assert spec.key(0.1, 0, CampaignExecutor.lowering) == spec.key(0.1, 0)
        with pytest.raises(ConfigError, match="lowering"):
            spec.key(0.1, 0, "legacy")

    def test_simulate_resolves_each_config_once(self, monkeypatch):
        """A group resolves each spec's config once, not once per use
        (trace key, consistency check, recording, timing)."""
        from dataclasses import replace
        base = default_machine("uve")
        specs = [
            RunSpec("saxpy", "uve"),
            RunSpec("saxpy", "uve",
                    base.with_(engine=replace(base.engine, fifo_depth=2))),
        ]
        calls = []
        resolve = RunSpec.resolved_config
        monkeypatch.setattr(
            RunSpec, "resolved_config",
            lambda spec: calls.append(spec) or resolve(spec),
        )
        records = [r for r, _ in Runner(scale=0.1).simulate(specs)]
        assert calls == specs
        monkeypatch.undo()
        assert [r.cycles for r in records] == [
            next(Runner(scale=0.1).simulate([spec]))[0].cycles
            for spec in specs
        ]


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "table1", "fig8-table", "fig8a", "fig8b", "fig8c", "fig8d",
            "fig8e", "fig9", "fig10", "fig11", "overheads",
            "ext-rvv", "ext-vl", "ext-shared-fifo", "ablation-scheduler",
            "ablation-spm", "ablation-prefetch", "ablation-mac-forwarding",
        }
        assert expected == set(EXPERIMENTS)

    def test_cheap_experiments_run(self):
        for name in ("table1", "fig8-table", "overheads"):
            result = run_table(name)
            assert result.rows
            assert result.render()

    def test_fig8e_runs_at_tiny_scale(self):
        # Unroll factors must divide K, which the workload guarantees at
        # any scale (K is a multiple of 8 at the default size).
        result = run_table("fig8e", scale=1.0)
        speedups = [float(str(row[2]).rstrip("x")) for row in result.rows]
        assert speedups[0] == 1.0
        assert max(speedups) >= 1.0
