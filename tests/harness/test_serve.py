"""Experiment-service tests: submission dedup, worker loops, idempotent
replay, lease recovery, and the streaming client — all in-process (the
real multi-process drill lives in tests/integration/test_serve_crash.py)."""
import json
import threading
import time

import pytest

from repro.errors import ConfigError
from repro.harness.jobqueue import JobQueue
from repro.harness.runner import RunSpec
from repro.harness.serve import ExperimentService, main, worker_loop

SCALE = 0.05


@pytest.fixture
def service(tmp_path):
    return ExperimentService(
        tmp_path / "campaign", scale=SCALE, seed=0, lease_seconds=30.0,
    )


SPECS = [
    RunSpec("saxpy", "uve"),
    RunSpec("memcpy", "uve"),
    RunSpec("saxpy", "sve"),
]


class TestSubmission:
    def test_duplicate_submissions_deduped_by_fingerprint(self, service):
        first = service.submit(SPECS[0])
        assert first.status == "queued"
        again = service.submit(SPECS[0])
        assert again.status == "duplicate"
        assert again.key == first.key
        # Semantically equal spec built through a different path dedupes
        # too — the fingerprint is canonical, not repr-based.
        from repro.cpu.config import uve_machine
        rebuilt = RunSpec("saxpy", "uve", uve_machine())
        assert service.submit(rebuilt).status == "duplicate"
        assert service.queue.counts()["total"] == 1

    def test_finished_artifact_is_immediate_hit(self, service):
        service.submit(SPECS[0])
        worker_loop(service.root, shard_id="w0")
        # New client, same campaign dir, identical request: cache hit,
        # nothing enqueued.
        fresh = ExperimentService(service.root, scale=SCALE, seed=0)
        assert fresh.submit(SPECS[0]).status == "hit"

    def test_manifest_guards_campaign_params(self, service, tmp_path):
        with pytest.raises(ConfigError, match="different parameters"):
            ExperimentService(service.root, scale=0.5, seed=0)
        with pytest.raises(ConfigError, match="cannot change"):
            ExperimentService(service.root, scale=0.5, seed=0, resume=True)

    def test_manifest_of_format_1_is_refused(self, service):
        """A campaign dir made when runs also had a lowering (manifest
        format 1) is refused, not resumed."""
        manifest = service.root / "manifest.json"
        params = json.loads(manifest.read_text())
        manifest.write_text(json.dumps({**params, "format": 1,
                                        "lowering": "ir"}))
        with pytest.raises(ConfigError, match="format"):
            ExperimentService(service.root, scale=SCALE, seed=0)

    def test_worker_refuses_campaign_of_other_sources(self, service):
        """A shard must not store results of its own sources under the
        salt of the sources that created the campaign."""
        submit = service.submit(SPECS[0])
        manifest = service.root / "manifest.json"
        params = json.loads(manifest.read_text())
        params["salt"] = "salt-of-other-sources"
        manifest.write_text(json.dumps(params))
        with pytest.raises(ConfigError, match="salt"):
            worker_loop(service.root, shard_id="w0")
        assert service.queue.get(submit.key).status == "pending"
        assert not list((service.root / "artifacts").rglob("*.json"))


class TestWorkerLoop:
    def test_drains_queue_and_streams_results(self, service):
        submits = service.submit_many(SPECS)
        completed = worker_loop(service.root, shard_id="w0")
        assert completed == len(SPECS)
        results = list(service.stream_results([s.key for s in submits],
                                              timeout_s=10.0))
        assert [r.status for r in results] == ["ran"] * 3
        assert all(r.record is not None and r.record.cycles > 0
                   for r in results)

    def test_results_match_direct_runner(self, service):
        from repro.harness.runner import Runner

        submits = service.submit_many(SPECS)
        worker_loop(service.root, shard_id="w0")
        runner = Runner(scale=SCALE, seed=0)
        for spec, submit in zip(SPECS, submits):
            direct, _ = next(runner.simulate([spec]))
            via_service = service.result_for(submit.key).record
            assert via_service == direct

    def test_max_jobs_stops_half_way(self, service):
        service.submit_many(SPECS)
        assert worker_loop(service.root, shard_id="w0", max_jobs=2) == 2
        counts = service.queue.counts()
        assert (counts["done"], counts["pending"]) == (2, 1)

    def test_failing_job_goes_dead_and_surfaces(self, tmp_path):
        service = ExperimentService(
            tmp_path / "c", scale=SCALE, seed=0, max_attempts=2,
        )
        # An unknown-kernel spec fails inside the worker every attempt.
        bad = RunSpec("saxpy", "uve")
        key = service.key_for(bad)
        service.queue.submit(key, '{"__dc__": "RunSpec", "kernel": '
                             '"no-such-kernel", "isa": "uve", "config": '
                             'null, "unroll": 0}')
        worker_loop(service.root, shard_id="w0")
        result = service.result_for(key)
        assert result.status == "dead"
        assert "no-such-kernel" in result.error
        assert result.attempts == 2

    def test_undecodable_payload_goes_dead(self, tmp_path):
        """A payload the tree cannot decode (here a field it no longer
        has) fails its attempts and goes dead; the shard carries on."""
        service = ExperimentService(
            tmp_path / "c", scale=SCALE, seed=0, max_attempts=2,
        )
        key = service.key_for(RunSpec("saxpy", "uve"))
        service.queue.submit(key, '{"__dc__": "RunSpec", "kernel": '
                             '"saxpy", "isa": "uve", "config": null, '
                             '"unroll": 0, "lowering": null}')
        assert worker_loop(service.root, shard_id="w0") == 0
        result = service.result_for(key)
        assert result.status == "dead"
        assert "unexpected field(s) lowering" in result.error
        assert result.attempts == 2


class TestClientLoop:
    def test_dead_job_raises(self, tmp_path):
        """The executor's back end surfaces a job that failed for good
        instead of waiting for a row that never comes."""
        service = ExperimentService(
            tmp_path / "c", scale=SCALE, seed=0, max_attempts=1,
        )
        key = service.submit(SPECS[0]).key
        service.queue.lease("w0")
        assert service.queue.fail(key, "w0", "boom") == "dead"
        with pytest.raises(ConfigError, match="boom"):
            list(service.run({key: SPECS[0]}, workers=0))
        assert service.worker_exits == []


class TestIdempotentReplay:
    def test_re_leased_job_with_artifact_does_not_resimulate(self, service):
        """A worker that stored the artifact but died before completing:
        the next owner finds the artifact and completes instantly."""
        submit = service.submit(SPECS[0])
        job = service.queue.lease("w-dead")
        # w-dead simulated and stored the artifact, then was killed
        # before queue.complete.
        from repro.harness.runner import Runner
        record, _ = next(Runner(scale=SCALE, seed=0).simulate(SPECS[:1]))
        service.cache.store(submit.key, record)
        service.queue.release_stale_leases()

        calls = []
        import repro.harness.runner as runner_mod
        orig = runner_mod.Runner.simulate

        def counting(self, *a, **k):
            calls.append(a)
            return orig(self, *a, **k)

        runner_mod.Runner.simulate = counting
        try:
            worker_loop(service.root, shard_id="w1")
        finally:
            runner_mod.Runner.simulate = orig
        assert not calls, "re-leased job resimulated despite artifact"
        assert service.result_for(submit.key).record == record
        assert service.result_for(submit.key).requeues == 1

    def test_lease_recovery_reruns_lost_job_exactly_once(self, tmp_path):
        """Worker killed before storing anything: lease expires, job is
        re-leased exactly once, final state has one done row."""
        clock = {"now": 1000.0}
        service = ExperimentService(
            tmp_path / "c", scale=SCALE, seed=0, lease_seconds=5.0,
            clock=lambda: clock["now"],
        )
        submit = service.submit(SPECS[0])
        assert service.queue.lease("w-dead") is not None
        clock["now"] += 6.0  # lease expires with no artifact stored
        # worker_loop uses the real clock; drive the queue directly with
        # the fake one, then run a real worker on the recovered job.
        assert service.queue.requeue_expired() == 1
        worker_loop(service.root, shard_id="w1")
        job = service.queue.get(submit.key)
        assert (job.status, job.requeues, job.attempts) == ("done", 1, 2)


class TestPrunedArtifact:
    def test_done_job_whose_artifact_was_pruned_runs_again(self, service):
        """Resubmitting a done job whose artifact is gone queues it again
        instead of deduplicating it into a row that never arrives."""
        submit = service.submit(SPECS[0])
        worker_loop(service.root, shard_id="w0")
        record = service.result_for(submit.key).record
        assert service.cache.prune(0).removed == 1
        assert service.result_for(submit.key) is None

        assert service.submit(SPECS[0]).status == "queued"
        assert worker_loop(service.root, shard_id="w1") == 1
        [result] = service.stream_results([submit.key], timeout_s=10.0)
        assert (result.status, result.record) == ("ran", record)
        assert (result.requeues, result.attempts) == (1, 1)


class TestStreaming:
    def test_stream_timeout_surfaces_stall(self, service):
        submit = service.submit(SPECS[0])  # no worker ever runs
        with pytest.raises(TimeoutError, match="stalled"):
            list(service.stream_results([submit.key], poll_s=0.01,
                                        timeout_s=0.1))

    def test_stream_timeout_counts_from_last_completed_row(self, service):
        """A row every 0.3 s is progress: a 0.6 s stall timeout must let
        the whole 0.9 s campaign through."""
        from repro.harness.runner import Runner

        submits = service.submit_many(SPECS)
        record, _ = next(Runner(scale=SCALE, seed=0).simulate(SPECS[:1]))

        def complete_slowly():
            queue = JobQueue(service.root / "queue.sqlite")
            for _ in SPECS:
                time.sleep(0.3)
                job = queue.lease("w0")
                service.cache.store(job.key, record)
                queue.complete(job.key, "w0")
            queue.close()

        worker = threading.Thread(target=complete_slowly)
        worker.start()
        try:
            results = list(service.stream_results(
                [s.key for s in submits], poll_s=0.02, timeout_s=0.6,
            ))
        finally:
            worker.join(timeout=10.0)
        assert not worker.is_alive()
        assert [r.status for r in results] == ["ran"] * len(SPECS)

    def test_structured_events_cover_lifecycle(self, service):
        submits = service.submit_many(SPECS[:2])
        worker_loop(service.root, shard_id="w0")
        events = service.queue.events()
        kinds = {e["event"] for e in events}
        assert {"submitted", "leased", "completed"} <= kinds
        keys = {e["key"] for e in events if e["event"] == "completed"}
        assert keys == {s.key for s in submits}


class TestCli:
    @pytest.mark.parametrize(
        "action", [["--status"], ["--worker"], ["--workers", "2"]],
        ids=["status", "worker", "workers"],
    )
    def test_missing_campaign_is_a_usage_error(self, tmp_path, capsys,
                                               action):
        missing = tmp_path / "typo"
        with pytest.raises(SystemExit) as exc:
            main(["--queue", str(missing), *action])
        assert exc.value.code == 2
        assert not missing.exists()
        assert "a sweep with --queue" in capsys.readouterr().err
