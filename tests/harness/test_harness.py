"""Unit tests for the experiment harness (runner, report, registry)."""
import pytest

from repro.cpu.config import default_machine
from repro.harness import EXPERIMENTS, Runner, run_experiment
from repro.harness.report import ExperimentResult, geomean


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
    def test_caches_identical_runs(self):
        runner = Runner(scale=0.1)
        first = runner.run("saxpy", "uve")
        second = runner.run("saxpy", "uve")
        assert first is second  # cache hit returns the same record

    def test_distinct_configs_not_conflated(self):
        from dataclasses import replace
        runner = Runner(scale=0.1)
        base = default_machine("uve")
        varied = base.with_(engine=replace(base.engine, fifo_depth=2))
        a = runner.run("saxpy", "uve", base)
        b = runner.run("saxpy", "uve", varied)
        assert a is not b

    def test_record_fields_populated(self):
        runner = Runner(scale=0.1)
        record = runner.run("saxpy", "sve")
        assert record.kernel == "saxpy"
        assert record.letter == "C"
        assert record.committed > 0
        assert record.cycles > 0
        assert 0 < record.ipc <= 8
        assert record.fifo_occupancy == 0.0  # no engine on the baseline

    def test_uve_record_has_engine_stats(self):
        runner = Runner(scale=0.1)
        record = runner.run("saxpy", "uve")
        assert record.fifo_occupancy > 0

    def test_lowering_selects_program_path(self):
        """Both lowerings run and are cached under distinct keys; for a
        migrated kernel the programs are instruction-identical, so the
        results agree."""
        ir = Runner(scale=0.1, lowering="ir").run("saxpy", "uve")
        legacy = Runner(scale=0.1, lowering="legacy").run("saxpy", "uve")
        assert ir is not legacy
        assert ir.committed == legacy.committed
        assert ir.cycles == legacy.cycles

    def test_rejects_unknown_lowering(self):
        from repro.errors import ConfigError
        with pytest.raises(ConfigError, match="lowering"):
            Runner(scale=0.1, lowering="asm")

    def test_simulate_resolves_each_config_once(self, monkeypatch):
        """A group resolves each spec's config once, not once per use
        (trace key, consistency check, recording, timing)."""
        from dataclasses import replace
        from repro.harness.runner import RunSpec
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
            Runner(scale=0.1).run_spec(spec).cycles for spec in specs
        ]


class TestRegistry:
    def test_all_figures_registered(self):
        expected = {
            "table1", "fig8-table", "fig8a", "fig8b", "fig8c", "fig8d",
            "fig8e", "fig9", "fig10", "fig11", "overheads",
            "ext-rvv", "ext-vl", "ext-shared-fifo",
        }
        assert expected == set(EXPERIMENTS)

    def test_cheap_experiments_run(self):
        for name in ("table1", "fig8-table", "overheads"):
            result = run_experiment(name, Runner(scale=0.1))
            assert result.rows
            assert result.render()

    def test_fig8e_runs_at_tiny_scale(self):
        # Unroll factors must divide K, which the workload guarantees at
        # any scale (K is a multiple of 8 at the default size).
        result = run_experiment("fig8e", Runner(scale=1.0))
        speedups = [float(str(row[2]).rstrip("x")) for row in result.rows]
        assert speedups[0] == 1.0
        assert max(speedups) >= 1.0
