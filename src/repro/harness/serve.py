"""Sharded experiment service: the campaign executor's durable back end.

:class:`~repro.harness.executor.CampaignExecutor` runs every ``RunSpec``
grid: in-process, on a process pool, or, when it is handed an
:class:`ExperimentService`, on worker shards that share one campaign
directory::

    campaign/
      manifest.json     # scale/seed/salt — resume safety
      queue.sqlite      # persistent job queue (jobqueue.JobQueue)
      events.jsonl      # structured job events (submit/lease/complete/...)
      artifacts/        # content-addressed result store (ResultCache)

The executor serves memory and artifact hits itself and hands only its
misses to :meth:`ExperimentService.run`, the one client loop: submit
(deduplicated by content fingerprint; a spec already queued joins the
existing row), boot the worker shards, stream rows as they complete, and
raise on a job that failed for good.  *Worker shards* are separate OS
processes that lease jobs with heartbeats and store each artifact
themselves; a SIGKILLed worker's lease expires and any surviving worker
requeues and re-runs the job, finding any artifact the dead worker
already stored (idempotent replay).  A shard refuses a campaign whose
manifest salt differs from its own simulator sources.

CLI::

    python -m repro.harness.serve --queue DIR --status
    python -m repro.harness.serve --queue DIR --workers 4 [--resume]
    python -m repro.harness.serve --queue DIR --worker --shard-id w0

Jobs are normally submitted by :mod:`repro.harness.sweep` through the
executor; the worker and supervisor here run any queued RunSpec.
"""
from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional

from repro.errors import ConfigError
from repro.harness.diskcache import ResultCache, code_version_salt
from repro.harness.jobqueue import JobQueue, QueueError
from repro.harness.runner import Runner, RunRecord, RunSpec
from repro.harness.speccodec import spec_from_json, spec_to_json

#: manifest schema version; bump on incompatible campaign-dir changes.
MANIFEST_FORMAT = 2


@dataclass
class SubmitResult:
    """Outcome of one submission: where the row will come from."""

    key: str
    status: str  # "hit" (artifact exists) | "queued" | "duplicate"


@dataclass
class JobResult:
    """One completed row, as streamed back to the client."""

    key: str
    status: str  # "hit" | "ran" | "dead"
    record: Optional[RunRecord]
    error: Optional[str] = None
    run_s: float = 0.0
    worker: Optional[str] = None
    attempts: int = 0
    requeues: int = 0


class ExperimentService:
    """Client/worker handle on one campaign directory.

    ``chaos_kill`` and ``timeout_s`` steer only the client loop
    (:meth:`run`); after it, ``worker_exits`` holds the exit codes of
    the shards it booted."""

    def __init__(
        self,
        root,
        scale: float = 1.0,
        seed: int = 0,
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        clock: Callable[[], float] = time.time,
        resume: bool = False,
        chaos_kill: int = 0,
        timeout_s: Optional[float] = None,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        params = {
            "format": MANIFEST_FORMAT,
            "scale": scale,
            "seed": seed,
            "lease_seconds": lease_seconds,
            "max_attempts": max_attempts,
            "salt": code_version_salt(),
        }
        self.params = self._load_or_create_manifest(params, resume=resume)
        self.chaos_kill = chaos_kill
        self.timeout_s = timeout_s
        self.worker_exits: List[int] = []
        self.scale = self.params["scale"]
        self.seed = self.params["seed"]
        self.queue = JobQueue(
            self.root / "queue.sqlite",
            lease_seconds=self.params["lease_seconds"],
            max_attempts=self.params["max_attempts"],
            clock=clock,
        )
        self.cache = ResultCache(
            self.root / "artifacts", salt=self.params["salt"]
        )

    @classmethod
    def attach(cls, root) -> "ExperimentService":
        """Open an existing campaign directory, inheriting its run
        parameters from the manifest (worker-shard entry point).  The
        salt comes from this process's own sources, so a campaign
        created by other sources is refused before anything is leased."""
        manifest = Path(root) / "manifest.json"
        try:
            params = json.loads(manifest.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"no readable campaign manifest at {manifest}: {exc}"
            )
        return cls(
            root,
            scale=params["scale"],
            seed=params["seed"],
            lease_seconds=params["lease_seconds"],
            max_attempts=params["max_attempts"],
        )

    def _load_or_create_manifest(self, params: dict, resume: bool) -> dict:
        manifest = self.root / "manifest.json"
        if manifest.exists():
            existing = json.loads(manifest.read_text())
            mismatched = {
                k: (existing.get(k), v)
                for k, v in params.items()
                if existing.get(k) != v and k not in ("lease_seconds",
                                                      "max_attempts")
            }
            if mismatched and not resume:
                raise ConfigError(
                    f"campaign dir {self.root} was created with different "
                    f"parameters: {mismatched}; use a fresh --queue dir"
                )
            if mismatched:
                raise ConfigError(
                    f"--resume cannot change campaign parameters "
                    f"{sorted(mismatched)} (manifest {manifest})"
                )
            return existing
        manifest.write_text(json.dumps(params, indent=2, sort_keys=True))
        return params

    # -- Client API ----------------------------------------------------------

    def key_for(self, spec: RunSpec) -> str:
        return spec.key(self.scale, self.seed)

    def submit(self, spec: RunSpec) -> SubmitResult:
        """Submit one run.  Identical requests — same content fingerprint,
        from any client, any time — collapse to one job or one artifact.
        A done job whose artifact is gone (pruned) is queued again."""
        return self._submit(self.key_for(spec), spec)

    def _submit(self, key: str, spec: RunSpec) -> SubmitResult:
        if self.cache.load(key) is not None:
            return SubmitResult(key, "hit")
        if self.queue.submit(key, spec_to_json(spec)) or \
                self.queue.requeue_done(key):
            return SubmitResult(key, "queued")
        return SubmitResult(key, "duplicate")

    def submit_many(self, specs: List[RunSpec]) -> List[SubmitResult]:
        return [self.submit(spec) for spec in specs]

    def result_for(self, key: str) -> Optional[JobResult]:
        """The finished row for ``key`` if it is available now, else None."""
        job = self.queue.get(key)
        if job is None or job.status == "done":
            record = self.cache.load(key)
            if record is None:
                # Never submitted, or done but its artifact was pruned:
                # only a new submit(), which requeues it, brings it back.
                return None
            if job is None:
                return JobResult(key, "hit", record)
            return JobResult(
                key, "ran", record,
                run_s=(job.finished_at or 0.0) - (job.started_at or 0.0),
                worker=job.worker, attempts=job.attempts,
                requeues=job.requeues,
            )
        if job.status == "dead":
            return JobResult(
                key, "dead", None, error=job.error,
                attempts=job.attempts, requeues=job.requeues,
            )
        return None

    def stream_results(
        self,
        keys: List[str],
        poll_s: float = 0.2,
        timeout_s: Optional[float] = None,
    ) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per key as rows complete
        (completion order; cache hits first).  Raises once no row has
        completed for ``timeout_s`` seconds, so a wedged campaign
        surfaces instead of hanging forever."""
        pending = list(dict.fromkeys(keys))
        last_row = time.monotonic()
        while pending:
            still = []
            for key in pending:
                result = self.result_for(key)
                if result is None:
                    still.append(key)
                    continue
                last_row = time.monotonic()
                yield result
            pending = still
            if not pending:
                return
            stalled = time.monotonic() - last_row
            if timeout_s is not None and stalled > timeout_s:
                raise TimeoutError(
                    f"campaign stalled: no row completed for "
                    f"{stalled:.1f}s, {len(pending)} rows outstanding "
                    f"(queue {self.queue.counts()})"
                )
            time.sleep(poll_s)

    def run(self, specs: Mapping[str, RunSpec],
            workers: int) -> Iterator[JobResult]:
        """The executor's back end: submit ``specs``, a ``{key: spec}``
        mapping the executor has already keyed, boot ``workers`` shards
        unless the queue needs none (0: shards started elsewhere) and
        yield each row as it completes.

        Raises :class:`ConfigError` on a job that failed for good and
        :class:`TimeoutError` once no row completed for ``timeout_s``.
        However the stream ends (drained, raised, interrupted or closed),
        no shard it booted outlives it."""
        keys = [self._submit(key, spec).key for key, spec in specs.items()]
        procs = []
        if workers > 0 and not self.queue.drained():
            procs = _boot_shards(self.root, workers)
        kills_left = self.chaos_kill
        try:
            for result in self.stream_results(keys,
                                              timeout_s=self.timeout_s):
                if result.status == "dead":
                    raise ConfigError(
                        f"campaign job {result.key[:12]} failed after "
                        f"{result.attempts} attempts: {result.error}"
                    )
                if kills_left and result.status == "ran":
                    # Fault-injection drill: SIGKILL one shard after each
                    # further completed row; its lease must expire and
                    # another shard re-run the job.
                    victim = next(
                        (p for p in procs if p.poll() is None), None
                    )
                    if victim is not None:
                        victim.send_signal(signal.SIGKILL)
                        victim.wait()
                        kills_left -= 1
                        self.queue._event("chaos-kill", "",
                                          victim_pid=victim.pid)
                yield result
            for proc in procs:
                proc.wait()  # each shard exits once the queue drains
        finally:
            self.worker_exits = _stop_shards(procs)


# -- Worker shard ------------------------------------------------------------


class _Heartbeat:
    """Background lease-extender for the job a worker is simulating.

    Uses its own queue connection (SQLite connections are not shareable
    across threads).  Losing the lease — expired while the worker was
    descheduled, then re-leased elsewhere — flips ``lost`` so the worker
    discards its completion instead of double-recording."""

    def __init__(self, queue_path, params: dict, key: str, worker: str)\
            -> None:
        self.queue = JobQueue(
            queue_path, lease_seconds=params["lease_seconds"],
            max_attempts=params["max_attempts"],
        )
        self.key = key
        self.worker = worker
        self.lost = False
        self.interval_s = max(0.05, params["lease_seconds"] / 3.0)
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self) -> None:
        while not self._stop.wait(self.interval_s):
            try:
                self.queue.heartbeat(self.key, self.worker)
            except QueueError:
                self.lost = True
                return

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=5.0)
        self.queue.close()


def worker_loop(
    root,
    shard_id: Optional[str] = None,
    max_jobs: Optional[int] = None,
    poll_s: float = 0.2,
    forever: bool = False,
    progress: Optional[Callable[[str], None]] = None,
) -> int:
    """Lease-and-run loop for one worker shard.  Returns jobs completed.

    Exits when the queue is drained (every job terminal) unless
    ``forever`` keeps it waiting for future submissions; ``max_jobs``
    bounds the shard (tests use it to stop a campaign half-finished)."""
    service = ExperimentService.attach(root)
    worker = shard_id or f"{os.uname().nodename}:{os.getpid()}"
    runner = Runner(scale=service.scale, seed=service.seed)
    completed = 0
    while max_jobs is None or completed < max_jobs:
        service.queue.requeue_expired()
        job = service.queue.lease(worker)
        if job is None:
            if service.queue.drained() and not forever:
                break
            time.sleep(poll_s)
            continue
        heartbeat = _Heartbeat(
            service.root / "queue.sqlite", service.params, job.key, worker
        )
        try:
            # An undecodable payload fails like any run, so it retries
            # and goes dead instead of ending the shard with its lease.
            spec = spec_from_json(job.payload)
            # Idempotent replay: a job whose previous owner died after
            # storing the artifact completes without resimulating.
            if service.cache.load(job.key) is None:
                record, _ = next(runner.simulate([spec]))
                service.cache.store(job.key, record)
        except Exception as exc:  # noqa: BLE001 — any failure retries
            heartbeat.stop()
            try:
                service.queue.fail(job.key, worker, repr(exc))
            except QueueError:
                pass  # lease lost while failing; owner will retry anyway
            continue
        heartbeat.stop()
        try:
            if not heartbeat.lost:
                service.queue.complete(job.key, worker)
                completed += 1
                if progress is not None:
                    progress(f"[worker {worker}] done {spec.kernel}/"
                             f"{spec.isa} {job.key[:12]}")
        except QueueError:
            # Lease expired and the job was re-leased: the artifact is
            # stored, the new owner will complete instantly.  Not a loss.
            pass
    service.queue.close()
    return completed


# -- Shard supervisor --------------------------------------------------------


def _worker_env() -> dict:
    """Child env whose PYTHONPATH can import this very repro package."""
    import repro

    env = dict(os.environ)
    pkg_root = str(Path(repro.__file__).resolve().parent.parent)
    existing = env.get("PYTHONPATH", "")
    if pkg_root not in existing.split(os.pathsep):
        env["PYTHONPATH"] = (
            pkg_root + (os.pathsep + existing if existing else "")
        )
    return env


def _boot_shards(root, workers: int,
                 max_jobs: Optional[int] = None) -> List[subprocess.Popen]:
    """Start ``workers`` worker-shard subprocesses on one campaign dir."""
    argv = [
        sys.executable, "-m", "repro.harness.serve",
        "--queue", str(root), "--worker",
    ]
    if max_jobs is not None:
        argv += ["--max-jobs", str(max_jobs)]
    env = _worker_env()
    return [
        subprocess.Popen(argv + ["--shard-id", f"w{i}"], env=env)
        for i in range(workers)
    ]


def _stop_shards(procs: List[subprocess.Popen]) -> List[int]:
    """Terminate the shards still running, reap every one and return
    their exit codes."""
    for p in procs:
        if p.poll() is None:
            p.terminate()
    for p in procs:
        try:
            p.wait(timeout=10.0)
        except subprocess.TimeoutExpired:
            p.kill()
            p.wait()
    return [p.returncode for p in procs]


def serve_workers(
    root,
    workers: int,
    max_jobs: Optional[int] = None,
    poll_s: float = 0.2,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, int]:
    """Boot ``workers`` shard subprocesses on one campaign dir and wait
    until they exit (normally: queue drained).  Returns the final queue
    counts plus per-shard exit codes."""
    root = Path(root)
    queue = JobQueue(root / "queue.sqlite")
    procs = _boot_shards(root, workers, max_jobs)
    try:
        while any(p.poll() is None for p in procs):
            if progress is not None:
                counts = queue.counts()
                progress(
                    f"[serve] queue: {counts['pending']} pending, "
                    f"{counts['leased']} leased, {counts['done']} done, "
                    f"{counts['dead']} dead"
                )
            time.sleep(poll_s)
    finally:
        exits = _stop_shards(procs)
    summary = queue.counts()
    summary["worker_exits"] = exits
    queue.close()
    return summary


# -- CLI ---------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.serve",
        description="Run worker shards / inspect a campaign queue.",
    )
    parser.add_argument("--queue", metavar="DIR", required=True,
                        help="campaign directory (queue + artifacts)")
    parser.add_argument("--workers", type=int, default=0, metavar="N",
                        help="boot N worker shard subprocesses and wait "
                             "for the queue to drain")
    parser.add_argument("--worker", action="store_true",
                        help="run a single in-process worker loop "
                             "(what --workers shards execute)")
    parser.add_argument("--shard-id", default=None,
                        help="worker shard name (default host:pid)")
    parser.add_argument("--max-jobs", type=int, default=None, metavar="N",
                        help="stop this worker after N completed jobs")
    parser.add_argument("--forever", action="store_true",
                        help="keep the worker alive when the queue drains "
                             "(wait for future submissions)")
    parser.add_argument("--resume", action="store_true",
                        help="force stale leases back to pending before "
                             "starting (only when no workers are running)")
    parser.add_argument("--status", action="store_true",
                        help="print queue counts and recent events, then "
                             "exit")
    args = parser.parse_args(argv)

    root = Path(args.queue)
    # Opening the queue would create the directory, so a mistyped path
    # must be caught before anything touches it.
    if (args.status or args.worker or args.workers > 0) and \
            not (root / "manifest.json").is_file():
        parser.error(
            f"no campaign at {root} (no manifest.json); a sweep with "
            f"--queue {root} creates it"
        )
    if args.status:
        queue = JobQueue(root / "queue.sqlite")
        counts = queue.counts()
        print(json.dumps(counts, indent=2, sort_keys=True))
        for event in queue.events()[-20:]:
            print(f"  {event['event']:<10} {event['key'][:12]} "
                  f"pid {event.get('pid')}")
        queue.close()
        return 0

    if args.worker:
        completed = worker_loop(
            root, shard_id=args.shard_id, max_jobs=args.max_jobs,
            forever=args.forever,
            progress=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(f"worker {args.shard_id or os.getpid()}: "
              f"{completed} jobs completed", file=sys.stderr)
        return 0

    if args.workers > 0:
        if args.resume:
            queue = JobQueue(root / "queue.sqlite")
            released = queue.release_stale_leases()
            queue.close()
            if released:
                print(f"resume: released {released} stale leases",
                      file=sys.stderr)
        summary = serve_workers(
            root, args.workers, max_jobs=args.max_jobs,
            progress=lambda line: print(line, file=sys.stderr, flush=True),
        )
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0 if summary["pending"] == summary["leased"] == \
            summary["dead"] == 0 else 1

    parser.error("nothing to do: pass --workers N, --worker, or --status")
    return 2


if __name__ == "__main__":
    sys.exit(main())
