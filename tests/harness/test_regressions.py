"""Regression tests for the harness bugfixes: the fragile ``repr(cfg)``
cache key, silent isa/config mismatches, ``--check`` swallowing campaign
arguments, crash-lossy ``--json`` export, and ``validate_results``
crashing on truncated campaigns."""
import json

import pytest

from repro.cpu.config import DEFAULT_LATENCIES, baseline_machine, uve_machine
from repro.errors import ConfigError
from repro.harness import EXPERIMENTS, Experiment, RunSpec
from repro.harness.__main__ import main as harness_main
from repro.harness.checks import validate_results
from repro.harness.executor import CampaignExecutor


def run_list(*specs):
    """Run ``specs`` through an executor; return it and their records."""
    executor = CampaignExecutor(scale=0.1, jobs=1)
    [records] = executor.run_campaign(
        [Experiment(build=dict, specs=lambda runner: list(specs))]
    )
    return executor, records


SHUFFLED = dict(reversed(list(DEFAULT_LATENCIES.items())))


class TestRunnerCacheKey:
    def test_semantically_equal_configs_hit(self):
        """Two equal configs with different dict insertion order used to
        miss under the repr() key; the fingerprint key must hit."""
        a = RunSpec("saxpy", "uve", uve_machine())
        b = RunSpec("saxpy", "uve", uve_machine(latencies=SHUFFLED))
        executor, records = run_list(a, b)
        assert executor.cache_summary()["miss"] == 1
        assert records[a] is records[b]

    def test_explicit_default_config_hits_implicit(self):
        a = RunSpec("saxpy", "uve", uve_machine())
        b = RunSpec("saxpy", "uve")
        executor, records = run_list(a, b)
        assert a != b  # a table looks a run up as its run list built it
        assert executor.cache_summary()["miss"] == 1
        assert records[a] is records[b]

    def test_equal_specs_hash_and_compare_equal(self):
        """A table looks its runs up by a RunSpec built again, so specs
        built apart must hash alike, whatever their dicts' order."""
        pairs = [
            (RunSpec("saxpy", "uve"), RunSpec("saxpy", "uve")),
            (RunSpec("saxpy", "uve", uve_machine()),
             RunSpec("saxpy", "uve", uve_machine(latencies=SHUFFLED))),
            (RunSpec("gemm", "uve", unroll=2),
             RunSpec("gemm", "uve", unroll=2)),
        ]
        for a, b in pairs:
            assert a is not b
            assert a == b and hash(a) == hash(b)
            assert {a: "record"}[b] == "record"
        assert RunSpec("saxpy", "uve") != RunSpec("saxpy", "sve")
        assert RunSpec("gemm", "uve", unroll=2) != RunSpec("gemm", "uve")


class TestIsaConfigConsistency:
    def test_uve_on_baseline_config_rejected(self):
        with pytest.raises(ConfigError, match="streaming"):
            run_list(RunSpec("saxpy", "uve", baseline_machine()))

    def test_baseline_isa_on_streaming_config_rejected(self):
        with pytest.raises(ConfigError, match="baseline"):
            run_list(RunSpec("saxpy", "sve", uve_machine()))


class TestChecksDegradeGracefully:
    def payload(self, experiment, rows):
        return {
            "scale": 1.0,
            "seed": 0,
            "experiments": [
                {"experiment": experiment, "title": "", "headers": [],
                 "rows": rows, "notes": []},
            ],
        }

    def run(self, tmp_path, payload):
        path = tmp_path / "r.json"
        path.write_text(json.dumps(payload))
        return validate_results(str(path))

    def test_fig8a_missing_average_row_fails_not_crashes(self, tmp_path):
        rows = [["A", "memcpy", 10, 20, 30, "50.0%", "66.7%"]]
        report = self.run(tmp_path, self.payload("fig8a", rows))
        assert not report.ok
        assert any("missing 'average' row" in f for f in report.failed)

    def test_fig8d_missing_benchmark_fails_not_crashes(self, tmp_path):
        rows = [["A", "memcpy", 0.9, 0.5, 0.4]]
        report = self.run(tmp_path, self.payload("fig8d", rows))
        assert not report.ok
        assert any("missing 'stream' row" in f for f in report.failed)

    def test_overheads_missing_reduced_row_fails_not_crashes(self, tmp_path):
        rows = [["evaluated", 1, 2, 3, 4, "0.5"]]
        report = self.run(tmp_path, self.payload("overheads", rows))
        assert not report.ok
        assert any("overheads: missing row 1" in f for f in report.failed)

    def test_empty_fig8e_fails_not_crashes(self, tmp_path):
        report = self.run(tmp_path, self.payload("fig8e", []))
        assert not report.ok

    def test_fig9_without_sve_rows_fails_not_crashes(self, tmp_path):
        rows = [["gemm", "uve", "1.00x", "1.00x", "1.01x"]]
        report = self.run(tmp_path, self.payload("fig9", rows))
        assert not report.ok


class TestCheckArgumentHandling:
    def good_results(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text(json.dumps(
            {"scale": 1.0, "seed": 0, "experiments": []}
        ))
        return str(path)

    def test_check_alone_still_works(self, tmp_path, capsys):
        assert harness_main(["--check", self.good_results(tmp_path)]) == 0

    @pytest.mark.parametrize("extra", [
        ["fig8b"],
        ["--json", "out.json"],
        ["--scale", "0.5"],
        ["--seed", "3"],
        ["--jobs", "2"],
        ["--no-cache"],
        ["--trace", "t.json"],
    ])
    def test_check_rejects_campaign_arguments(self, tmp_path, extra, capsys):
        with pytest.raises(SystemExit) as exc:
            harness_main(["--check", self.good_results(tmp_path)] + extra)
        assert exc.value.code == 2
        assert "--check" in capsys.readouterr().err


class TestIncrementalJson:
    def test_crash_preserves_completed_experiments(
        self, tmp_path, monkeypatch, capsys
    ):
        def explode(records):
            raise RuntimeError("experiment crashed")

        monkeypatch.setitem(
            EXPERIMENTS, "boom", Experiment(build=explode)
        )
        out = tmp_path / "out.json"
        with pytest.raises(RuntimeError):
            harness_main(
                ["table1", "boom", "--json", str(out), "--no-cache"]
            )
        payload = json.loads(out.read_text())
        assert [e["experiment"] for e in payload["experiments"]] == ["table1"]
        assert payload["experiments"][0]["rows"]

    def test_no_temp_files_left(self, tmp_path, capsys):
        out = tmp_path / "out.json"
        assert harness_main(
            ["table1", "overheads", "--json", str(out), "--no-cache"]
        ) == 0
        names = [e["experiment"]
                 for e in json.loads(out.read_text())["experiments"]]
        assert names == ["table1", "overheads"]
        assert not list(tmp_path.glob("*.tmp"))
