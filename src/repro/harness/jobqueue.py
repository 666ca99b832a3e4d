"""Persistent, crash-safe job queue for the experiment service.

One SQLite file holds every job of a campaign, keyed by content
fingerprint so duplicate submissions collapse to one row.  Workers in
separate processes *lease* jobs rather than popping them: a lease carries
the worker id and an expiry deadline, the worker extends it with
heartbeats while simulating, and if the worker dies (crash, SIGKILL, OOM)
the lease simply expires and the next ``requeue_expired`` moves the job
back to pending — a killed worker loses nothing.  Failures retry with
exponential backoff up to ``max_attempts``, after which the job is marked
``dead`` (terminal, surfaced to the client rather than looping forever).

Job lifecycle::

    pending --lease--> leased --complete--> done
       ^                  |  `--fail--> pending (backoff) ... or dead
       |---requeue_expired'                  |
       `---------------requeue_done----------'

``requeue_done`` is for a done job whose result artifact was deleted
(pruned): the job must run again.

All state transitions are single ``BEGIN IMMEDIATE`` transactions, so any
number of worker processes can share the queue file; SQLite's WAL mode
plus a busy timeout make the cross-process races safe.  Every transition
additionally appends a structured JSON line to ``events.jsonl`` next to
the queue — the campaign's observability log.
"""
from __future__ import annotations

import json
import os
import sqlite3
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.errors import ReproError


class QueueError(ReproError):
    """Illegal job-queue transition (e.g. completing a lost lease)."""


_SCHEMA = """
CREATE TABLE IF NOT EXISTS jobs (
    key          TEXT PRIMARY KEY,
    payload      TEXT NOT NULL,
    seq          INTEGER NOT NULL,
    status       TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    requeues     INTEGER NOT NULL DEFAULT 0,
    worker       TEXT,
    lease_expiry REAL,
    not_before   REAL NOT NULL DEFAULT 0,
    submitted_at REAL NOT NULL,
    started_at   REAL,
    finished_at  REAL,
    error        TEXT
);
CREATE INDEX IF NOT EXISTS jobs_status ON jobs (status, not_before, seq);
"""


@dataclass
class Job:
    """A leased (or inspected) queue entry."""

    key: str
    payload: str
    seq: int
    status: str
    attempts: int
    requeues: int
    worker: Optional[str]
    submitted_at: float
    started_at: Optional[float]
    finished_at: Optional[float]
    error: Optional[str]

    @property
    def queue_wait_s(self) -> float:
        if self.started_at is None:
            return 0.0
        return max(0.0, self.started_at - self.submitted_at)


_ROW_FIELDS = (
    "key, payload, seq, status, attempts, requeues, worker, "
    "submitted_at, started_at, finished_at, error"
)


class JobQueue:
    """SQLite-backed lease queue; one instance per process, shared file."""

    def __init__(
        self,
        path,
        lease_seconds: float = 60.0,
        max_attempts: int = 3,
        backoff_base_s: float = 0.5,
        clock: Callable[[], float] = time.time,
    ) -> None:
        self.path = Path(path)
        self.lease_seconds = lease_seconds
        self.max_attempts = max_attempts
        self.backoff_base_s = backoff_base_s
        self.clock = clock
        self.events_path = self.path.with_name("events.jsonl")
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._conn = sqlite3.connect(self.path, timeout=30.0)
        self._conn.isolation_level = None  # explicit transactions only
        self._conn.execute("PRAGMA journal_mode=WAL")
        self._conn.execute("PRAGMA busy_timeout=30000")
        self._conn.executescript(_SCHEMA)

    def close(self) -> None:
        self._conn.close()

    # -- Event log -----------------------------------------------------------

    def _event(self, kind: str, key: str, **extra) -> None:
        """Append one structured event line (best-effort; O_APPEND writes
        of short lines are atomic on POSIX, so concurrent workers can
        share the log without interleaving)."""
        record = {"ts": self.clock(), "event": kind, "key": key,
                  "pid": os.getpid(), **extra}
        try:
            with open(self.events_path, "a") as handle:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        except OSError:
            pass

    def events(self) -> List[dict]:
        """Parse the event log (damaged lines are skipped, not fatal)."""
        out = []
        try:
            lines = self.events_path.read_text().splitlines()
        except OSError:
            return out
        for line in lines:
            try:
                out.append(json.loads(line))
            except ValueError:
                continue
        return out

    # -- Submission ----------------------------------------------------------

    def submit(self, key: str, payload: str) -> bool:
        """Enqueue a job; returns False if ``key`` is already queued
        (duplicate submissions are deduplicated, not re-run)."""
        now = self.clock()
        with self._txn() as cur:
            cur.execute("SELECT COALESCE(MAX(seq), -1) + 1 FROM jobs")
            seq = cur.fetchone()[0]
            try:
                cur.execute(
                    "INSERT INTO jobs (key, payload, seq, submitted_at) "
                    "VALUES (?, ?, ?, ?)",
                    (key, payload, seq, now),
                )
            except sqlite3.IntegrityError:
                return False
        self._event("submitted", key, seq=seq)
        return True

    # -- Leasing -------------------------------------------------------------

    def lease(self, worker: str) -> Optional[Job]:
        """Atomically lease the oldest runnable pending job, or None."""
        now = self.clock()
        with self._txn() as cur:
            cur.execute(
                f"SELECT {_ROW_FIELDS} FROM jobs "
                "WHERE status = 'pending' AND not_before <= ? "
                "ORDER BY seq LIMIT 1",
                (now,),
            )
            row = cur.fetchone()
            if row is None:
                return None
            cur.execute(
                "UPDATE jobs SET status = 'leased', worker = ?, "
                "lease_expiry = ?, started_at = ?, attempts = attempts + 1 "
                "WHERE key = ?",
                (worker, now + self.lease_seconds, now, row[0]),
            )
        job = Job(*row)
        job.status = "leased"
        job.worker = worker
        job.attempts += 1
        job.started_at = now
        self._event("leased", job.key, worker=worker, attempts=job.attempts)
        return job

    def heartbeat(self, key: str, worker: str) -> None:
        """Extend a held lease; raises if the lease was lost (expired and
        re-leased elsewhere), so a zombie worker stops rather than
        double-completing."""
        now = self.clock()
        with self._txn() as cur:
            cur.execute(
                "UPDATE jobs SET lease_expiry = ? "
                "WHERE key = ? AND status = 'leased' AND worker = ?",
                (now + self.lease_seconds, key, worker),
            )
            if cur.rowcount != 1:
                raise QueueError(
                    f"lost lease on {key[:12]} (worker {worker})"
                )

    def requeue_expired(self) -> int:
        """Return expired leases to pending (the crash-recovery path)."""
        now = self.clock()
        with self._txn() as cur:
            cur.execute(
                "SELECT key, worker FROM jobs "
                "WHERE status = 'leased' AND lease_expiry < ?",
                (now,),
            )
            expired = cur.fetchall()
            if not expired:
                return 0
            cur.execute(
                "UPDATE jobs SET status = 'pending', worker = NULL, "
                "lease_expiry = NULL, requeues = requeues + 1 "
                "WHERE status = 'leased' AND lease_expiry < ?",
                (now,),
            )
        for key, worker in expired:
            self._event("requeued", key, lost_worker=worker)
        return len(expired)

    def release_stale_leases(self) -> int:
        """Force every lease back to pending regardless of expiry — the
        explicit ``--resume`` path, valid only when no workers are
        running (a live worker's lease would be stolen)."""
        with self._txn() as cur:
            cur.execute("SELECT key, worker FROM jobs WHERE status='leased'")
            stale = cur.fetchall()
            if not stale:
                return 0
            cur.execute(
                "UPDATE jobs SET status = 'pending', worker = NULL, "
                "lease_expiry = NULL, requeues = requeues + 1 "
                "WHERE status = 'leased'"
            )
        for key, worker in stale:
            self._event("requeued", key, lost_worker=worker, forced=True)
        return len(stale)

    def requeue_done(self, key: str) -> bool:
        """Move a done job back to pending, with a fresh retry budget,
        because its result is gone; returns False if it was not done."""
        with self._txn() as cur:
            cur.execute(
                "UPDATE jobs SET status = 'pending', worker = NULL, "
                "lease_expiry = NULL, attempts = 0, not_before = 0, "
                "started_at = NULL, finished_at = NULL, "
                "requeues = requeues + 1 "
                "WHERE key = ? AND status = 'done'",
                (key,),
            )
            if cur.rowcount != 1:
                return False
        self._event("requeued", key, reason="result missing")
        return True

    # -- Completion ----------------------------------------------------------

    def complete(self, key: str, worker: str) -> None:
        """Mark a leased job done.  Only the lease holder may complete it;
        a worker whose lease expired and was re-leased raises instead of
        recording a duplicate completion."""
        now = self.clock()
        with self._txn() as cur:
            cur.execute(
                "UPDATE jobs SET status = 'done', finished_at = ?, "
                "error = NULL WHERE key = ? AND status = 'leased' "
                "AND worker = ?",
                (now, key, worker),
            )
            if cur.rowcount != 1:
                raise QueueError(
                    f"cannot complete {key[:12]}: lease not held by {worker}"
                )
        self._event("completed", key, worker=worker)

    def fail(self, key: str, worker: str, error: str) -> str:
        """Record a job failure: retry with exponential backoff while
        attempts remain, else mark the job dead.  Returns the new status."""
        now = self.clock()
        with self._txn() as cur:
            cur.execute(
                "SELECT attempts FROM jobs "
                "WHERE key = ? AND status = 'leased' AND worker = ?",
                (key, worker),
            )
            row = cur.fetchone()
            if row is None:
                raise QueueError(
                    f"cannot fail {key[:12]}: lease not held by {worker}"
                )
            attempts = row[0]
            if attempts >= self.max_attempts:
                status = "dead"
                cur.execute(
                    "UPDATE jobs SET status = 'dead', finished_at = ?, "
                    "error = ? WHERE key = ?",
                    (now, error, key),
                )
            else:
                status = "pending"
                backoff = self.backoff_base_s * (2 ** (attempts - 1))
                cur.execute(
                    "UPDATE jobs SET status = 'pending', worker = NULL, "
                    "lease_expiry = NULL, not_before = ?, error = ? "
                    "WHERE key = ?",
                    (now + backoff, error, key),
                )
        self._event("failed", key, worker=worker, status=status,
                    attempts=attempts, error=error[:500])
        return status

    # -- Inspection ----------------------------------------------------------

    def get(self, key: str) -> Optional[Job]:
        cur = self._conn.execute(
            f"SELECT {_ROW_FIELDS} FROM jobs WHERE key = ?", (key,)
        )
        row = cur.fetchone()
        return Job(*row) if row else None

    def jobs(self) -> List[Job]:
        cur = self._conn.execute(
            f"SELECT {_ROW_FIELDS} FROM jobs ORDER BY seq"
        )
        return [Job(*row) for row in cur.fetchall()]

    def counts(self) -> Dict[str, int]:
        out = {"pending": 0, "leased": 0, "done": 0, "dead": 0, "total": 0}
        cur = self._conn.execute(
            "SELECT status, COUNT(*) FROM jobs GROUP BY status"
        )
        for status, count in cur.fetchall():
            out[status] = count
            out["total"] += count
        return out

    def drained(self) -> bool:
        """True when every job is terminal (done or dead)."""
        cur = self._conn.execute(
            "SELECT COUNT(*) FROM jobs WHERE status NOT IN ('done', 'dead')"
        )
        return cur.fetchone()[0] == 0

    # -- Internals -----------------------------------------------------------

    def _txn(self):
        return _Transaction(self._conn)


class _Transaction:
    """``BEGIN IMMEDIATE`` context manager (commit/rollback on exit)."""

    def __init__(self, conn: sqlite3.Connection) -> None:
        self.conn = conn

    def __enter__(self) -> sqlite3.Cursor:
        self.conn.execute("BEGIN IMMEDIATE")
        return self.conn.cursor()

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.conn.execute("COMMIT")
        else:
            self.conn.execute("ROLLBACK")
