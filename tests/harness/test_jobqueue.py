"""Lease-queue semantics under a fake clock: leases, heartbeats, expiry
requeue, retry backoff, dedup, and the structured event log."""
import pytest

from repro.harness.jobqueue import Job, JobQueue, QueueError


class FakeClock:
    def __init__(self, now=1000.0):
        self.now = now

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


@pytest.fixture
def clock():
    return FakeClock()


@pytest.fixture
def queue(tmp_path, clock):
    q = JobQueue(
        tmp_path / "queue.sqlite", lease_seconds=10.0, max_attempts=3,
        backoff_base_s=2.0, clock=clock,
    )
    yield q
    q.close()


class TestSubmission:
    def test_submit_and_lease_fifo(self, queue):
        assert queue.submit("k1", "p1")
        assert queue.submit("k2", "p2")
        job = queue.lease("w0")
        assert (job.key, job.payload, job.status) == ("k1", "p1", "leased")
        assert queue.lease("w1").key == "k2"
        assert queue.lease("w2") is None

    def test_duplicate_submission_deduped(self, queue):
        assert queue.submit("k1", "p1")
        assert not queue.submit("k1", "p1")
        assert queue.counts()["total"] == 1

    def test_duplicate_of_done_job_still_deduped(self, queue):
        queue.submit("k1", "p1")
        queue.lease("w0")
        queue.complete("k1", "w0")
        assert not queue.submit("k1", "p1")
        assert queue.get("k1").status == "done"


class TestLeaseLifecycle:
    def test_complete_requires_lease_holder(self, queue):
        queue.submit("k1", "p1")
        queue.lease("w0")
        with pytest.raises(QueueError):
            queue.complete("k1", "intruder")
        queue.complete("k1", "w0")
        assert queue.drained()

    def test_heartbeat_extends_lease(self, queue, clock):
        queue.submit("k1", "p1")
        queue.lease("w0")
        clock.advance(8.0)
        queue.heartbeat("k1", "w0")
        clock.advance(8.0)  # 16s total; lease alive thanks to heartbeat
        assert queue.requeue_expired() == 0
        assert queue.get("k1").status == "leased"

    def test_killed_worker_job_releases_exactly_once(self, queue, clock):
        """The crash-recovery contract: a dead worker's lease expires,
        the job returns to pending exactly once, and the next worker
        runs it — nothing lost, nothing duplicated."""
        queue.submit("k1", "p1")
        queue.lease("w0")  # w0 is then SIGKILLed: no heartbeat, no complete
        clock.advance(11.0)
        assert queue.requeue_expired() == 1
        assert queue.requeue_expired() == 0  # exactly once
        job = queue.lease("w1")
        assert (job.key, job.requeues, job.attempts) == ("k1", 1, 2)
        queue.complete("k1", "w1")
        assert queue.get("k1").status == "done"
        assert queue.get("k1").requeues == 1

    def test_job_that_kills_every_worker_ends_dead(self, queue, clock):
        """A lease that expires on the last of ``max_attempts`` marks
        the job dead, naming the lost worker, instead of requeueing it
        forever; the first two expiries requeue it."""
        queue.submit("k1", "p1")
        for attempt, status in ((1, "pending"), (2, "pending"),
                                (3, "dead")):
            assert queue.lease(f"w{attempt}").attempts == attempt
            clock.advance(11.0)
            assert queue.requeue_expired() == 1
            assert queue.get("k1").status == status
        job = queue.get("k1")
        assert (job.attempts, job.requeues) == (3, 2)
        assert "w3" in job.error
        assert queue.drained()
        assert queue.lease("w4") is None
        last = queue.events()[-1]
        assert (last["event"], last["status"], last["lost_worker"]) == \
            ("failed", "dead", "w3")

    def test_zombie_worker_cannot_double_complete(self, queue, clock):
        """w0 loses its lease mid-run; when it comes back, heartbeat and
        complete both refuse rather than racing the new owner."""
        queue.submit("k1", "p1")
        queue.lease("w0")
        clock.advance(11.0)
        queue.requeue_expired()
        queue.lease("w1")
        with pytest.raises(QueueError):
            queue.heartbeat("k1", "w0")
        with pytest.raises(QueueError):
            queue.complete("k1", "w0")
        queue.complete("k1", "w1")

    def test_release_stale_leases_is_forced(self, queue, clock):
        queue.submit("k1", "p1")
        queue.lease("w0")
        assert queue.requeue_expired() == 0  # not yet expired...
        assert queue.release_stale_leases() == 1  # ...but --resume forces
        assert queue.get("k1").status == "pending"

    def test_requeue_done_reruns_only_done_jobs(self, queue, clock):
        """A done job whose result is gone goes back to pending with a
        fresh retry budget; pending, leased and dead jobs are refused."""
        queue.submit("k1", "p1")
        assert not queue.requeue_done("k1")  # pending
        queue.lease("w0")
        assert not queue.requeue_done("k1")  # leased
        queue.complete("k1", "w0")
        assert queue.requeue_done("k1")
        job = queue.get("k1")
        assert (job.status, job.requeues, job.attempts) == ("pending", 1, 0)
        assert queue.events()[-1]["event"] == "requeued"
        assert queue.lease("w1").attempts == 1

        queue.submit("k2", "p2")
        for _ in range(3):
            clock.advance(60.0)
            queue.lease("w0")
            queue.fail("k2", "w0", "boom")
        assert not queue.requeue_done("k2")
        assert queue.get("k2").status == "dead"


class TestRetries:
    def test_failure_retries_with_backoff(self, queue, clock):
        queue.submit("k1", "p1")
        queue.lease("w0")
        assert queue.fail("k1", "w0", "boom") == "pending"
        assert queue.lease("w0") is None  # backoff holds it back
        clock.advance(2.1)
        assert queue.lease("w0").attempts == 2

    def test_exhausted_attempts_mark_dead(self, queue, clock):
        queue.submit("k1", "p1")
        for attempt in range(3):
            clock.advance(60.0)  # clear any backoff
            job = queue.lease("w0")
            assert job is not None, f"attempt {attempt} could not lease"
            status = queue.fail("k1", "w0", f"boom {attempt}")
        assert status == "dead"
        assert queue.drained()
        assert queue.get("k1").error == "boom 2"

    def test_backoff_grows_exponentially(self, queue, clock):
        queue.submit("k1", "p1")
        queue.lease("w0")
        queue.fail("k1", "w0", "1")  # backoff 2s
        clock.advance(2.1)
        queue.lease("w0")
        queue.fail("k1", "w0", "2")  # backoff 4s
        clock.advance(2.1)
        assert queue.lease("w0") is None
        clock.advance(2.0)
        assert queue.lease("w0") is not None


class TestInspection:
    def test_counts_and_drained(self, queue):
        for i in range(3):
            queue.submit(f"k{i}", "p")
        queue.lease("w0")
        counts = queue.counts()
        assert (counts["pending"], counts["leased"]) == (2, 1)
        assert not queue.drained()

    def test_event_log_records_lifecycle(self, queue, clock):
        queue.submit("k1", "p1")
        queue.lease("w0")
        clock.advance(11.0)
        queue.requeue_expired()
        queue.lease("w1")
        queue.complete("k1", "w1")
        kinds = [e["event"] for e in queue.events()]
        assert kinds == ["submitted", "leased", "requeued", "leased",
                         "completed"]
        requeued = queue.events()[2]
        assert requeued["lost_worker"] == "w0"

    def test_queue_survives_reopen(self, tmp_path, clock):
        """Persistence: a new process (fresh JobQueue on the same file)
        sees the full queue state."""
        q1 = JobQueue(tmp_path / "q.sqlite", clock=clock)
        q1.submit("k1", "p1")
        q1.close()
        q2 = JobQueue(tmp_path / "q.sqlite", clock=clock)
        assert q2.counts()["pending"] == 1
        assert isinstance(q2.lease("w0"), Job)
        q2.close()
