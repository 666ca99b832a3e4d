"""Canonical run fingerprints shared by every result cache.

``repr(cfg)`` is a fragile cache key: it depends on field ordering, dict
insertion order, and float formatting, and two semantically equal
configurations built through different code paths need not compare equal.
This module derives a *canonical* fingerprint by walking dataclass fields
(tagged ``__dataclass__`` with the class name), naming enums by class and
member (``"Cls.NAME"``), sorting dicts by key string and turning tuples
into lists, then hashing the sorted-JSON form, so equal configs always
hit and any nested field change always misses.  The same fingerprint keys
a campaign's records (:attr:`~repro.harness.runner.Runner.records`), the
on-disk :class:`~repro.harness.diskcache.ResultCache` and the service's
job queue.

A key is one walk.  ``str``, ``int``, ``float``, ``bool`` and ``None``
are returned as they are; every other class is looked at once, when a
value of it is first met, and given its walk by the rules above in this
order: dataclass (field names kept), dict, list or tuple, enum, other
subclass of ``int``/``float``/``str``, and otherwise ``TypeError``.  So an
``IntEnum`` member is ``"Cls.NAME"``, an ``OrderedDict`` walks as a dict
and a ``NamedTuple`` as a list, and every key is byte for byte what a
plain recursive walk of the same rules computes, except for a proxy
whose ``__class__`` names another type: ``isinstance`` believes it, but
the walk goes by ``type(value)``.  Nothing is remembered per value:
``MachineConfig.latencies`` is a mutable dict inside a frozen dataclass.

Dict keys are compared as strings, so keys that stringify alike (``1``
and ``"1"``) collapse into one entry.  The code-version salt skips the
harness, so a change to a key's bytes must bump ``CACHE_FORMAT``
(docs/HARNESS.md, "What a cache hit costs").
"""
from __future__ import annotations

import dataclasses
import hashlib
import json
from enum import Enum
from typing import Callable, Dict, Optional

from repro.cpu.config import MachineConfig

#: exact types that are their own canonical form
_ATOMS = frozenset((str, int, float, bool, type(None)))

_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def canonicalize(value):
    """Convert ``value`` into a JSON-stable structure."""
    cls = type(value)
    if cls in _ATOMS:
        return value
    walk = _WALKS.get(cls)
    if walk is None:
        walk = _WALKS[cls] = _walk_for(cls)
    return walk(value)


def _walk_dict(value) -> dict:
    items = [
        (
            k if type(k) is str else _key(k),
            v if type(v) in _ATOMS else canonicalize(v),
        )
        for k, v in value.items()
    ]
    items.sort()
    return dict(items)


def _walk_list(value) -> list:
    return [v if type(v) in _ATOMS else canonicalize(v) for v in value]


def _walk_atom(value):
    return value


def _walk_for(cls: type) -> Callable:
    """How to canonicalize every instance of ``cls``.  The rules are
    tried in this order, so a dataclass wins over anything it subclasses
    and a container wins over ``Enum``."""
    if dataclasses.is_dataclass(cls) and not issubclass(cls, type):
        tag = cls.__name__
        names = tuple(f.name for f in dataclasses.fields(cls))

        def walk_dataclass(value) -> dict:
            out = {"__dataclass__": tag}
            for name in names:
                v = getattr(value, name)
                out[name] = v if type(v) in _ATOMS else canonicalize(v)
            return out

        return walk_dataclass
    if issubclass(cls, dict):
        return _walk_dict
    if issubclass(cls, (list, tuple)):
        return _walk_list
    if issubclass(cls, Enum):
        prefix = cls.__name__

        def walk_enum(value) -> str:
            return f"{prefix}.{value.name}"

        return walk_enum
    if issubclass(cls, (int, float, str)):
        return _walk_atom
    message = f"cannot canonicalize {cls.__name__!r} for fingerprinting"

    def refuse(value):
        raise TypeError(message)

    return refuse


#: the walk of every class met so far, chosen by :func:`_walk_for`
_WALKS: Dict[type, Callable] = {}


def _key(key) -> str:
    """Dict keys must be strings after canonicalisation (sortable, JSON)."""
    canon = canonicalize(key)
    return canon if isinstance(canon, str) else json.dumps(canon)


def fingerprint(value) -> str:
    """SHA-256 hex digest of the canonical JSON form of ``value``."""
    blob = _ENCODER.encode(canonicalize(value))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def config_fingerprint(cfg: MachineConfig) -> str:
    """Canonical fingerprint of a machine configuration."""
    return fingerprint(cfg)


def run_fingerprint(
    kernel: str,
    isa: str,
    cfg: MachineConfig,
    scale: float,
    seed: int,
    unroll: int = 0,
    salt: Optional[str] = None,
) -> str:
    """Fingerprint identifying one simulation run.

    ``salt`` lets the on-disk cache mix in a code-version component so
    stale results from an older simulator never satisfy a newer one.
    The ``lowering`` field is a constant that keeps every key what it
    was when programs could also come from a second, hand-built path.
    """
    return fingerprint(
        {
            "kernel": kernel,
            "isa": isa,
            "config": cfg,
            "scale": scale,
            "seed": seed,
            "unroll": unroll,
            "salt": salt or "",
            "lowering": "ir",
        }
    )
