"""Persistent, content-addressed result cache for campaign runs.

Records live under ``~/.cache/repro`` (or ``--cache-dir``) as one JSON
file per run, addressed by the run fingerprint mixed with a code-version
salt — a hash of the simulator sources — so editing the simulator
invalidates every cached result while harness-only changes keep them.
Corrupted or schema-incompatible entries degrade to cache misses and are
overwritten on the next store.
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Tuple

from repro.harness.runner import RunRecord

#: schema version of the stored record payload; bump on RunRecord changes.
CACHE_FORMAT = 1

_SALT_CACHE: dict = {}


def default_cache_dir() -> Path:
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME")
    base = Path(xdg) if xdg else Path.home() / ".cache"
    return base / "repro"


def code_version_salt() -> str:
    """Hash of the simulator sources (everything under ``repro`` except
    the harness itself, whose changes cannot alter simulation results)."""
    import repro

    root = Path(repro.__file__).resolve().parent
    cached = _SALT_CACHE.get(root)
    if cached is not None:
        return cached
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root)
        if rel.parts and rel.parts[0] == "harness":
            continue
        digest.update(str(rel).encode())
        digest.update(path.read_bytes())
    salt = digest.hexdigest()
    _SALT_CACHE[root] = salt
    return salt


class ResultCache:
    """On-disk cache of run results, keyed by fingerprint.

    ``record_cls`` is the payload constructor: the campaign harness uses
    the default :class:`RunRecord`; other subsystems (e.g. the fuzzer)
    pass their own dataclass — or ``dict`` for schemaless payloads."""

    def __init__(
        self,
        root: Optional[Path] = None,
        salt: Optional[str] = None,
        record_cls=RunRecord,
    ) -> None:
        self.root = Path(root) if root is not None else default_cache_dir()
        self.salt = salt if salt is not None else code_version_salt()
        self.record_cls = record_cls
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        addressed = hashlib.sha256(
            f"{CACHE_FORMAT}:{self.salt}:{key}".encode()
        ).hexdigest()
        return os.path.join(self.root, addressed[:2], addressed + ".json")

    def load(self, key: str) -> Optional[RunRecord]:
        """Return the cached record for ``key``, or None on any miss —
        including unreadable, corrupted, or schema-incompatible entries."""
        path = self._path(key)
        try:
            with open(path, "rb") as handle:
                payload = json.loads(handle.read())
            record = self.record_cls(**payload["record"])
        except (OSError, ValueError, TypeError, KeyError):
            self.misses += 1
            return None
        self.hits += 1
        try:
            # LRU touch: prune() evicts by mtime, so a hit must count as
            # recent use, not leave the entry looking as old as its write.
            os.utime(path)
        except OSError:
            pass
        return record

    def store(self, key: str, record: RunRecord) -> None:
        """Atomically persist ``record`` (temp file + rename), so readers
        never observe a half-written entry.  Best-effort: an unwritable
        cache degrades to a slower campaign, never a failed one."""
        path = self._path(key)
        body = (
            dataclasses.asdict(record)
            if dataclasses.is_dataclass(record)
            else dict(record)
        )
        payload = {
            "format": CACHE_FORMAT,
            "key": key,
            "record": body,
        }
        tmp = ""
        shard, name = os.path.split(path)
        try:
            os.makedirs(shard, exist_ok=True)
            fd, tmp = tempfile.mkstemp(
                dir=shard, prefix=os.path.splitext(name)[0], suffix=".tmp"
            )
            with os.fdopen(fd, "w") as handle:
                json.dump(payload, handle)
            os.replace(tmp, path)
        except OSError:
            if tmp:
                try:
                    os.unlink(tmp)
                except OSError:
                    pass

    # -- Garbage collection --------------------------------------------------

    def entries(self) -> List[Tuple[Path, float, int]]:
        """Every cache entry as ``(path, mtime, size_bytes)``, across all
        salts/formats sharing this root (GC is salt-agnostic: stale-salt
        entries are exactly the ones worth evicting first).  Temp files
        count too: a writer killed before its rename leaves one behind
        that nothing else removes, and evicting a live writer's costs
        only that one best-effort store."""
        out = []
        try:
            paths = [
                path for path in self.root.rglob("*")
                if path.suffix in (".json", ".tmp")
            ]
        except OSError:
            return out
        for path in paths:
            try:
                stat = path.stat()
            except OSError:
                continue
            out.append((path, stat.st_mtime, stat.st_size))
        return out

    def size_bytes(self) -> int:
        return sum(size for _, _, size in self.entries())

    def prune(self, max_bytes: int) -> "PruneStats":
        """Evict least-recently-used entries (by mtime; hits touch) until
        the store fits in ``max_bytes``.  Best-effort and concurrent-safe:
        a worker re-storing an evicted entry just repopulates it, and an
        entry that vanishes mid-prune is skipped."""
        entries = self.entries()
        total = sum(size for _, _, size in entries)
        stats = PruneStats(
            scanned=len(entries), removed=0,
            bytes_before=total, bytes_after=total,
        )
        if total <= max_bytes:
            return stats
        # Oldest first; break mtime ties by path for determinism.
        for path, _, size in sorted(entries, key=lambda e: (e[1], str(e[0]))):
            if stats.bytes_after <= max_bytes:
                break
            try:
                path.unlink()
            except OSError:
                continue
            stats.removed += 1
            stats.bytes_after -= size
            parent = path.parent
            if parent != self.root:
                try:
                    parent.rmdir()  # only succeeds when empty
                except OSError:
                    pass
        return stats


@dataclass
class PruneStats:
    """Outcome of one :meth:`ResultCache.prune` pass."""

    scanned: int
    removed: int
    bytes_before: int
    bytes_after: int

    def render(self) -> str:
        return (
            f"cache prune: {self.removed}/{self.scanned} entries evicted "
            f"({self.bytes_before} -> {self.bytes_after} bytes)"
        )


def parse_size(text: str) -> int:
    """Parse ``500M``/``2G``-style sizes into bytes (plain int = bytes)."""
    text = text.strip()
    units = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3, "T": 1024 ** 4}
    mult = 1
    if text and text[-1].upper() in units:
        mult = units[text[-1].upper()]
        text = text[:-1]
    try:
        value = float(text)
    except ValueError:
        raise ValueError(f"unparseable size {text!r} (want e.g. 500M, 2G)")
    if value < 0:
        raise ValueError(f"negative size {text!r}")
    return int(value * mult)
