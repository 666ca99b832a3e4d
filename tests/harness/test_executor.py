"""Tests for the parallel, cache-persistent campaign executor.

A cheap two-experiment campaign at tiny scale keeps these fast while
still covering run lists, pool execution, determinism, and the
disk-cache life cycle.
"""
import multiprocessing
from pathlib import Path

import pytest

import repro.harness.runner as runner_mod
from repro.errors import ConfigError
from repro.harness import EXPERIMENTS, Experiment
from repro.harness.__main__ import main as harness_main
from repro.harness.diskcache import ResultCache
from repro.harness.executor import CampaignExecutor, CampaignInterrupted
from repro.harness.runner import Runner, RunRecord, RunSpec
from repro.harness.sweep import SweepSpec
from repro.sim.functional import FunctionalSimulator

CAMPAIGN = [EXPERIMENTS[name] for name in ("fig8e", "ext-shared-fifo")]
SCALE = 0.1

#: a record every table can divide by, for campaigns that must not
#: simulate
STUB = RunRecord(
    kernel="stub", letter="Z", isa="uve", committed=100, cycles=50.0,
    ipc=2.0, rename_blocks_per_cycle=0.5, bus_utilization=0.25,
    dram_bytes=64, mispredict_rate=0.0, fifo_occupancy=1.0,
    l1_miss_rate=0.1, l2_miss_rate=0.1,
)


class StubCache:
    """A result cache that holds every run."""

    def load(self, key):
        return STUB

    def store(self, key, record):
        pass


def run_campaign(jobs, cache=None):
    executor = CampaignExecutor(scale=SCALE, seed=0, jobs=jobs, cache=cache)
    results = executor.run_campaign(CAMPAIGN)
    return executor, [r.to_dict() for r in results]


def count_keys(monkeypatch):
    """Count ``run_fingerprint`` calls from here on."""
    calls = []
    real = runner_mod.run_fingerprint

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(runner_mod, "run_fingerprint", counted)
    return calls


@pytest.fixture(scope="module")
def serial():
    return run_campaign(jobs=1)


class TestDeterminism:
    def test_parallel_matches_serial(self, serial):
        """--jobs 4 must produce byte-identical experiment dicts."""
        _, expected = serial
        _, got = run_campaign(jobs=4)
        assert got == expected

    def test_matches_tables_of_direct_simulations(self, serial):
        """Tables built from one-run simulations, outside the executor,
        equal the campaign's."""
        _, expected = serial
        runner = Runner(scale=SCALE, seed=0)
        direct = [
            experiment.build({
                spec: next(runner.simulate([spec]))[0]
                for spec in experiment.specs(runner)
            }).to_dict()
            for experiment in CAMPAIGN
        ]
        assert direct == expected


class TestRunLists:
    def test_every_experiment_declares_specs(self):
        runner = Runner(scale=SCALE)
        keys = {
            spec.key(SCALE, 0)
            for experiment in EXPERIMENTS.values()
            for spec in experiment.specs(runner)
        }
        # 19 kernels x 3 ISAs for fig8a-d alone; sweeps add more.
        assert len(keys) > 80

    def test_table_reading_an_undeclared_run_raises(self):
        """A table sees only the runs its list declared: it cannot
        simulate a run the list left out."""
        declared, undeclared = RunSpec("saxpy", "uve"), RunSpec("saxpy", "sve")
        executor = CampaignExecutor(scale=SCALE, jobs=1)
        experiment = Experiment(
            build=lambda records: records[undeclared],
            specs=lambda runner: [declared],
        )
        with pytest.raises(KeyError):
            executor.run_campaign([experiment])
        assert [e.label for e in executor.events] == ["saxpy/uve"]

    def test_shared_run_list_is_called_and_keyed_once(self, monkeypatch):
        """fig8a-d share one run list: one call, one key per run."""
        panels = ("fig8a", "fig8b", "fig8c", "fig8d")
        assert len({EXPERIMENTS[name].specs for name in panels}) == 1
        calls = []

        def run_list(runner):
            calls.append(runner)
            return EXPERIMENTS["fig8a"].specs(runner)

        executor = CampaignExecutor(scale=SCALE, jobs=1, cache=StubCache())
        keys = count_keys(monkeypatch)
        results = executor.run_campaign(
            [Experiment(EXPERIMENTS[name].build, run_list) for name in panels]
        )
        assert [result.experiment for result in results] == list(panels)
        assert len(calls) == 1
        assert len(keys) == 57
        assert executor.cache_summary() == \
            {"hit-disk": 57, "miss": 0, "total": 57}

    def test_cached_full_registry_rerun_keys_each_spec_once(
            self, tmp_path, monkeypatch, capsys):
        """A cached re-run of every experiment keys each spec of each
        distinct run list once, builds every table from the records of
        its own list, and simulates nothing."""
        cache = ResultCache(tmp_path)
        runner = Runner(scale=SCALE)
        run_lists = {experiment.specs for experiment in EXPERIMENTS.values()}
        specs = [spec for run_list in run_lists for spec in run_list(runner)]
        for spec in specs:
            cache.store(spec.key(SCALE, 0), STUB)
        keys = count_keys(monkeypatch)
        monkeypatch.setattr(Runner, "simulate", lambda *a, **k: pytest.fail(
            "a cached re-run simulated"
        ))
        assert harness_main(["--scale", str(SCALE), "--jobs", "1",
                             "--cache-dir", str(tmp_path)]) == 0
        err = capsys.readouterr().err
        assert len(keys) == len(specs) == 196
        assert "campaign: 141 runs" in err
        assert "(0 simulated, 141 from disk cache;" in err


class TestDiskCacheLifecycle:
    def test_second_campaign_simulates_nothing(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        first, payload = run_campaign(jobs=1, cache=cache)
        counts = first.cache_summary()
        assert counts["miss"] == counts["total"] > 0

        rerun, payload2 = run_campaign(jobs=4, cache=ResultCache(
            tmp_path, salt="s"))
        counts = rerun.cache_summary()
        assert counts["miss"] == 0
        assert counts["hit-disk"] == counts["total"]
        assert payload2 == payload

    def test_corrupted_entry_resimulates_only_that_run(self, tmp_path):
        cache = ResultCache(tmp_path, salt="s")
        first, payload = run_campaign(jobs=1, cache=cache)
        victim = next(tmp_path.rglob("*.json"))
        victim.write_text("corrupted! {{{")

        rerun, payload2 = run_campaign(jobs=1, cache=ResultCache(
            tmp_path, salt="s"))
        counts = rerun.cache_summary()
        assert counts["miss"] == 1
        assert counts["hit-disk"] == counts["total"] - 1
        assert payload2 == payload

    def test_salt_change_invalidates_everything(self, tmp_path):
        cache = ResultCache(tmp_path, salt="v1")
        run_campaign(jobs=1, cache=cache)
        rerun, _ = run_campaign(jobs=1, cache=ResultCache(
            tmp_path, salt="v2"))
        assert rerun.cache_summary()["hit-disk"] == 0


class TestObservability:
    def test_events_and_slowest_table(self, tmp_path):
        lines = []
        executor = CampaignExecutor(
            scale=SCALE, jobs=1, progress=lines.append
        )
        executor.run_campaign([EXPERIMENTS["fig8e"]])
        assert executor.events
        assert all(e.status == "miss" for e in executor.events)
        assert all(e.wall_s > 0 for e in executor.events)
        assert lines and all("worker" in line for line in lines)
        table = executor.slowest_table()
        assert table.rows
        walls = [float(r[1]) for r in table.rows]
        assert walls == sorted(walls, reverse=True)

    def test_trace_written(self, tmp_path):
        import json

        executor = CampaignExecutor(scale=SCALE, jobs=1)
        executor.run_campaign([EXPERIMENTS["fig8e"]])
        trace = tmp_path / "trace.json"
        executor.write_trace(str(trace))
        payload = json.loads(trace.read_text())
        assert payload["scale"] == SCALE
        assert len(payload["events"]) == len(executor.events)
        assert {"kernel", "status", "wall_s", "worker", "queue_depth"} \
            <= set(payload["events"][0])


class TestInterrupt:
    """Ctrl-C mid-campaign must surface as CampaignInterrupted with the
    completed work preserved, not as a bare KeyboardInterrupt."""

    def test_serial_interrupt_preserves_completed_runs(
            self, monkeypatch, tmp_path):
        import repro.harness.executor as executor_mod

        cache = ResultCache(tmp_path, salt="s")
        executor = CampaignExecutor(scale=SCALE, jobs=1, cache=cache)
        real = executor_mod._run_group
        calls = []

        def interrupt_after_two(group, *args, **kwargs):
            for run in real(group, *args, **kwargs):
                if len(calls) == 2:
                    raise KeyboardInterrupt
                calls.append(run)
                yield run

        monkeypatch.setattr(executor_mod, "_run_group", interrupt_after_two)
        with pytest.raises(CampaignInterrupted) as info:
            executor.run_campaign([EXPERIMENTS["fig8e"]])
        assert info.value.completed == 2
        assert info.value.cancelled > 0
        # The two finished runs are already persisted.
        done = [e for e in executor.events if e.status == "miss"]
        assert len(done) == 2
        assert all(cache.load(e.key) is not None for e in done)

    def test_pool_interrupt_cancels_pending_futures(self, monkeypatch):
        import repro.harness.executor as executor_mod

        executor = CampaignExecutor(scale=SCALE, jobs=2)

        def interrupt(futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(executor_mod, "as_completed", interrupt)
        with pytest.raises(CampaignInterrupted) as info:
            executor.run_campaign([EXPERIMENTS["fig8e"]])
        assert info.value.completed == 0
        # Runs a pool worker had already taken count as cancelled too.
        assert info.value.completed + info.value.cancelled == \
            len(EXPERIMENTS["fig8e"].specs(executor.runner))

    def test_cli_exits_130_and_flushes_partial_json(
            self, monkeypatch, tmp_path, capsys):
        from repro.harness import __main__ as cli

        def interrupted_campaign(self, experiments, on_result=None):
            raise CampaignInterrupted(completed=3, cancelled=5)

        monkeypatch.setattr(CampaignExecutor, "run_campaign",
                            interrupted_campaign)
        out = tmp_path / "partial.json"
        code = cli.main(["fig8e", "--scale", str(SCALE), "--no-cache",
                         "--json", str(out)])
        assert code == 130
        import json
        payload = json.loads(out.read_text())
        assert payload["interrupted"] == {"completed_runs": 3,
                                          "cancelled_runs": 5}


class TestRecordOncePerTraceKey:
    """Runs that differ only in timing share one functional pass: the
    mini sweep's 24 runs have 6 trace keys (2 kernels x 3 widths)."""

    MINI = Path(__file__).parents[2] / "examples" / "sweeps" / "mini.json"

    @pytest.fixture(scope="class")
    def specs(self):
        points = SweepSpec.from_file(self.MINI).expand()
        return {p.spec.key(SCALE, 0): p.spec for p in points}

    @pytest.mark.parametrize("jobs", [
        1,
        pytest.param(2, marks=pytest.mark.skipif(
            multiprocessing.get_start_method() != "fork",
            reason="pool workers count their passes through a forked patch",
        )),
    ])
    def test_one_functional_pass_per_trace_key(
            self, specs, jobs, monkeypatch, tmp_path):
        # Pool workers are forked, so they run the patched class too and
        # append to the shared log.
        log = tmp_path / "passes.log"
        trace = FunctionalSimulator.trace

        def logged(self, **kwargs):
            with open(log, "a") as handle:
                handle.write(self.program.name + "\n")
            return trace(self, **kwargs)

        monkeypatch.setattr(FunctionalSimulator, "trace", logged)
        executor = CampaignExecutor(scale=SCALE, seed=0, jobs=jobs)
        executor.run_specs(specs)
        trace_keys = {spec.trace_key(SCALE, 0) for spec in specs.values()}
        assert len(specs) == 24 and len(trace_keys) == 6
        assert len(log.read_text().splitlines()) == len(trace_keys)
        assert executor.cache_summary()["miss"] == len(specs)

        monkeypatch.setattr(FunctionalSimulator, "trace", trace)
        alone = Runner(scale=SCALE, seed=0)
        for key, spec in specs.items():
            record, _ = next(alone.simulate([spec]))
            assert executor.runner.cached(key) == record, spec

    def test_a_group_shares_one_trace_key(self):
        mixed = [RunSpec("saxpy", "uve"), RunSpec("memcpy", "uve")]
        with pytest.raises(ConfigError, match="share a trace key"):
            next(Runner(scale=SCALE, seed=0).simulate(mixed))
