"""Sharded experiment service: queue, worker shards, streaming client.

PR 1's :class:`~repro.harness.executor.CampaignExecutor` is one process
pool deep: submit everything, wait, lose in-flight work on a crash.  This
module promotes it to a small experiment *service* built from three
pieces that share one campaign directory::

    campaign/
      manifest.json     # scale/seed/lowering/salt — resume safety
      queue.sqlite      # persistent job queue (jobqueue.JobQueue)
      events.jsonl      # structured job events (submit/lease/complete/...)
      artifacts/        # content-addressed result store (ResultCache)

*Submission* deduplicates by the existing content fingerprints: a spec
whose artifact already exists is an immediate cache hit (never enqueued),
a spec already queued joins the existing row, anything else becomes a
pending job.  *Worker shards* are separate OS processes that lease jobs
with heartbeats; a SIGKILLed worker's lease expires and any surviving
worker requeues and re-runs the job, finding any artifact the dead worker
already stored (idempotent replay).  *Clients* stream results as rows
complete — completion order for liveness, while callers that need
deterministic output sort by their own submission order afterwards.

CLI::

    python -m repro.harness.serve --queue DIR --status
    python -m repro.harness.serve --queue DIR --workers 4 [--resume]
    python -m repro.harness.serve --queue DIR --worker --shard-id w0

Jobs are normally submitted by :mod:`repro.harness.sweep`; the worker and
supervisor here run any queued RunSpec.
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
from typing import Callable, Dict, Iterator, List, Optional

from repro.errors import ConfigError
from repro.harness.diskcache import ResultCache, code_version_salt
from repro.harness.jobqueue import JobQueue, QueueError
from repro.harness.runner import Runner, RunRecord, RunSpec
from repro.harness.speccodec import spec_from_json, spec_to_json

#: manifest schema version; bump on incompatible campaign-dir changes.
MANIFEST_FORMAT = 1


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
    queue_wait_s: float = 0.0
    run_s: float = 0.0
    worker: Optional[str] = None
    attempts: int = 0
    requeues: int = 0


class ExperimentService:
    """Client/worker handle on one campaign directory."""

    def __init__(
        self,
        root,
        scale: float = 1.0,
        seed: int = 0,
        lowering: str = "ir",
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        salt: Optional[str] = None,
        clock: Callable[[], float] = time.time,
        resume: bool = False,
    ) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        params = {
            "format": MANIFEST_FORMAT,
            "scale": scale,
            "seed": seed,
            "lowering": lowering,
            "lease_seconds": lease_seconds,
            "max_attempts": max_attempts,
            "salt": salt if salt is not None else code_version_salt(),
        }
        self.params = self._load_or_create_manifest(params, resume=resume)
        self.scale = self.params["scale"]
        self.seed = self.params["seed"]
        self.lowering = self.params["lowering"]
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
    def attach(cls, root, clock: Callable[[], float] = time.time,
               **overrides) -> "ExperimentService":
        """Open an existing campaign directory, inheriting every campaign
        parameter from its manifest (worker-shard entry point)."""
        manifest = Path(root) / "manifest.json"
        try:
            params = json.loads(manifest.read_text())
        except (OSError, ValueError) as exc:
            raise ConfigError(
                f"no readable campaign manifest at {manifest}: {exc}"
            )
        params.update(overrides)
        return cls(
            root,
            scale=params["scale"],
            seed=params["seed"],
            lowering=params["lowering"],
            lease_seconds=params["lease_seconds"],
            max_attempts=params["max_attempts"],
            salt=params["salt"],
            clock=clock,
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
        return spec.key(self.scale, self.seed, self.lowering)

    def submit(self, spec: RunSpec) -> SubmitResult:
        """Submit one run.  Identical requests — same content fingerprint,
        from any client, any time — collapse to one job or one artifact.
        A done job whose artifact is gone (pruned) is queued again."""
        key = self.key_for(spec)
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
                queue_wait_s=job.queue_wait_s,
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
        progress: Optional[Callable[[str], None]] = None,
    ) -> Iterator[JobResult]:
        """Yield one :class:`JobResult` per key as rows complete
        (completion order; cache hits first).  Raises on timeout so a
        wedged campaign surfaces instead of hanging forever."""
        pending = list(dict.fromkeys(keys))
        start = time.monotonic()
        total = len(pending)
        yielded = 0
        while pending:
            advanced = False
            still = []
            for key in pending:
                result = self.result_for(key)
                if result is None:
                    still.append(key)
                    continue
                advanced = True
                yielded += 1
                if progress is not None:
                    progress(
                        f"[serve] {yielded}/{total} rows "
                        f"({result.status}) {key[:12]}"
                    )
                yield result
            pending = still
            if not pending:
                return
            if not advanced:
                if timeout_s is not None and \
                        time.monotonic() - start > timeout_s:
                    raise TimeoutError(
                        f"campaign stalled: {len(pending)} rows outstanding "
                        f"after {timeout_s:.0f}s (queue {self.queue.counts()})"
                    )
                time.sleep(poll_s)


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
    runner = Runner(
        scale=service.scale, seed=service.seed,
        disk_cache=service.cache, lowering=service.lowering,
    )
    completed = 0
    while max_jobs is None or completed < max_jobs:
        service.queue.requeue_expired()
        job = service.queue.lease(worker)
        if job is None:
            if service.queue.drained() and not forever:
                break
            time.sleep(poll_s)
            continue
        spec = spec_from_json(job.payload)
        heartbeat = _Heartbeat(
            service.root / "queue.sqlite", service.params, job.key, worker
        )
        try:
            # Idempotent replay: run_spec consults the shared artifact
            # store first, so a job whose previous owner died after
            # storing the artifact completes without resimulating.
            record = runner.run_spec(spec)
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


def _worker_argv(root, shard_id: str,
                 max_jobs: Optional[int] = None) -> List[str]:
    argv = [
        sys.executable, "-m", "repro.harness.serve",
        "--queue", str(root), "--worker", "--shard-id", shard_id,
    ]
    if max_jobs is not None:
        argv += ["--max-jobs", str(max_jobs)]
    return argv


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


def serve_workers(
    root,
    workers: int,
    max_jobs: Optional[int] = None,
    chaos_kill: int = 0,
    poll_s: float = 0.2,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, int]:
    """Boot ``workers`` shard subprocesses on one campaign dir and wait
    until they exit (normally: queue drained).

    ``chaos_kill`` SIGKILLs that many shards, one at a time, each after
    at least one further job completes — the fault-injection drill used
    by CI to prove lease recovery.  Returns the final queue counts plus
    per-shard exit codes."""
    root = Path(root)
    queue = JobQueue(root / "queue.sqlite")
    env = _worker_env()
    procs = [
        subprocess.Popen(_worker_argv(root, f"w{i}", max_jobs), env=env)
        for i in range(workers)
    ]
    kills_left = chaos_kill
    kill_after_done = 1  # next completion count that triggers a kill
    try:
        while any(p.poll() is None for p in procs):
            counts = queue.counts()
            if kills_left > 0 and counts["done"] >= kill_after_done:
                victim = next(
                    (p for p in procs if p.poll() is None), None
                )
                if victim is not None:
                    victim.send_signal(signal.SIGKILL)
                    victim.wait()
                    kills_left -= 1
                    kill_after_done = counts["done"] + 1
                    queue._event("chaos-kill", "", victim_pid=victim.pid)
                    if progress is not None:
                        progress(
                            f"[serve] chaos: SIGKILLed worker pid "
                            f"{victim.pid} ({counts['done']} rows done)"
                        )
            if progress is not None:
                progress(
                    f"[serve] queue: {counts['pending']} pending, "
                    f"{counts['leased']} leased, {counts['done']} done, "
                    f"{counts['dead']} dead"
                )
            time.sleep(poll_s)
    finally:
        for p in procs:
            if p.poll() is None:
                p.terminate()
        for p in procs:
            try:
                p.wait(timeout=10.0)
            except subprocess.TimeoutExpired:
                p.kill()
                p.wait()
    summary = queue.counts()
    summary["worker_exits"] = [p.returncode for p in procs]
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
