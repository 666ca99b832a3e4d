"""JSON wire codec for run specifications.

The campaign executor moves :class:`~repro.harness.runner.RunSpec`
objects between processes by pickling, which is fine inside one pool but
wrong for a persistent job queue: pickles are version-fragile, unreadable
in the queue database, and unsafe to load from a shared artifact
directory.  This module round-trips specs (and the nested
:class:`~repro.cpu.config.MachineConfig` dataclass tree) through plain
JSON instead — human-inspectable, diffable, and stable across worker
restarts.

The encoding is structural: dataclasses carry a ``__dc__`` type tag,
enums a ``__enum__`` tag, and dicts with non-string keys (the per-opclass
latency table) become tagged pair lists.  Decoding resolves tags against
an explicit registry, so a queue entry written by an older tree either
decodes into an equal spec or fails loudly — it never half-applies.
Round-tripping preserves content fingerprints: ``decode(encode(spec))``
produces the identical cache key.
"""
from __future__ import annotations

import dataclasses
import json

from repro.cpu.config import (
    CacheConfig,
    CoreConfig,
    DramConfig,
    EngineConfig,
    MachineConfig,
    PrefetcherConfig,
)
from repro.errors import ConfigError
from repro.harness.runner import RunSpec
from repro.isa.microop import OpClass

#: decodable dataclasses, by tag name.  Anything else fails loudly.
DATACLASSES = {
    cls.__name__: cls
    for cls in (
        RunSpec,
        MachineConfig,
        CoreConfig,
        CacheConfig,
        DramConfig,
        PrefetcherConfig,
        EngineConfig,
    )
}

#: decodable enums, by tag name.
ENUMS = {"OpClass": OpClass}


def encode(value):
    """Recursively convert ``value`` into a JSON-serialisable structure."""
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        name = type(value).__name__
        if name not in DATACLASSES:
            raise ConfigError(f"cannot encode unregistered dataclass {name!r}")
        out = {"__dc__": name}
        for f in dataclasses.fields(value):
            out[f.name] = encode(getattr(value, f.name))
        return out
    if isinstance(value, OpClass):
        return {"__enum__": ["OpClass", value.name]}
    if isinstance(value, dict):
        if all(isinstance(k, str) for k in value):
            return {k: encode(v) for k, v in value.items()}
        return {"__map__": [[encode(k), encode(v)] for k, v in value.items()]}
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise ConfigError(f"cannot encode {type(value).__name__!r} for the queue")


def decode(value):
    """Inverse of :func:`encode`."""
    if isinstance(value, dict):
        if "__dc__" in value:
            name = value["__dc__"]
            cls = DATACLASSES.get(name)
            if cls is None:
                raise ConfigError(f"unknown dataclass tag {name!r} in queue entry")
            fields = {
                k: decode(v) for k, v in value.items() if k != "__dc__"
            }
            _check_fields(cls, fields)
            return cls(**fields)
        if "__enum__" in value:
            enum_name, member = value["__enum__"]
            enum_cls = ENUMS.get(enum_name)
            if enum_cls is None:
                raise ConfigError(f"unknown enum tag {enum_name!r} in queue entry")
            return enum_cls[member]
        if "__map__" in value:
            return {decode(k): decode(v) for k, v in value["__map__"]}
        return {k: decode(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode(v) for v in value]
    return value


def _check_fields(cls, fields: dict) -> None:
    """Refuse a ``__dc__`` entry whose fields are not ``cls``'s: one it
    does not have, or one without a default that the entry lacks."""
    params = [f for f in dataclasses.fields(cls) if f.init]
    unexpected = sorted(set(fields) - {f.name for f in params})
    missing = [
        f.name for f in params
        if f.name not in fields
        and f.default is dataclasses.MISSING
        and f.default_factory is dataclasses.MISSING
    ]
    if unexpected or missing:
        problems = []
        if unexpected:
            problems.append(f"unexpected field(s) {', '.join(unexpected)}")
        if missing:
            problems.append(f"missing field(s) {', '.join(missing)}")
        raise ConfigError(
            f"queue entry for {cls.__name__}: {'; '.join(problems)}"
        )


def spec_to_json(spec: RunSpec) -> str:
    """Serialise one RunSpec to a compact JSON string (queue payload)."""
    return json.dumps(encode(spec), sort_keys=True, separators=(",", ":"))


def spec_from_json(payload: str) -> RunSpec:
    """Rebuild a RunSpec from a queue payload, failing loudly on damage."""
    spec = decode(json.loads(payload))
    if not isinstance(spec, RunSpec):
        raise ConfigError(
            f"queue payload decoded to {type(spec).__name__}, expected RunSpec"
        )
    return spec
