"""The one-pass fingerprint walk against the plain recursive walk.

``repro.harness.fingerprint`` dispatches on exact types and decides once
per class how to walk it; the code-version salt skips the harness, so
nothing but a key's bytes tells two runs apart across a change to that
module.  The recursive walk below is the rule book the fast walk must
match, byte for byte and exception for exception, on generated values
and on every real key the harness and the fuzzer compute.
"""
import dataclasses
import hashlib
import json
from collections import OrderedDict
from enum import Enum, IntEnum
from pathlib import Path
from typing import Any, NamedTuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cpu.config import baseline_machine, uve_machine
from repro.fuzz.campaign import ORACLE_VERSION, case_key
from repro.fuzz.generator import generate_spec
from repro.harness import EXPERIMENTS
from repro.harness.fingerprint import (
    canonicalize,
    config_fingerprint,
    fingerprint,
    run_fingerprint,
)
from repro.harness.runner import Runner, RunSpec
from repro.harness.sweep import SweepSpec

SWEEPS = Path(__file__).resolve().parents[2] / "examples" / "sweeps"


# -- The reference: the recursive walk, one rule after another -------------

def ref_canonicalize(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        out = {"__dataclass__": type(value).__name__}
        for f in dataclasses.fields(value):
            out[f.name] = ref_canonicalize(getattr(value, f.name))
        return out
    if isinstance(value, dict):
        items = [(ref_key(k), ref_canonicalize(v)) for k, v in value.items()]
        return {k: v for k, v in sorted(items)}
    if isinstance(value, (list, tuple)):
        return [ref_canonicalize(v) for v in value]
    if isinstance(value, Enum):
        return f"{type(value).__name__}.{value.name}"
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    raise TypeError(
        f"cannot canonicalize {type(value).__name__!r} for fingerprinting"
    )


def ref_key(key) -> str:
    canon = ref_canonicalize(key)
    return canon if isinstance(canon, str) else json.dumps(canon)


def ref_fingerprint(value) -> str:
    blob = json.dumps(
        ref_canonicalize(value), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def ref_run_key(spec: RunSpec, scale: float, seed: int):
    """``RunSpec.key`` as the recursive walk computes it, with the ISA's
    default machine chosen inline."""
    cfg = spec.config
    if cfg is None:
        cfg = uve_machine() if spec.isa == "uve" else baseline_machine()
    return ref_fingerprint({
        "kernel": spec.kernel,
        "isa": spec.isa,
        "config": ref_canonicalize(cfg),
        "scale": scale,
        "seed": seed,
        "unroll": spec.unroll,
        "salt": "",
        "lowering": "ir",
    })


def ref_case_key(spec, inject, timing) -> str:
    return ref_fingerprint({
        "fuzz": ORACLE_VERSION,
        "spec": spec.to_dict(),
        "inject": inject,
        "timing": timing,
    })


def shape(value):
    """``value`` with every type and every dict's key order spelled
    out, so ``1``/``1.0``/``True`` and reordered dicts do not compare
    equal; floats by ``repr`` so ``-0.0`` and ``nan`` compare too."""
    if isinstance(value, dict):
        return ("dict", [(type(k), k, shape(v)) for k, v in value.items()])
    if isinstance(value, list):
        return ("list", [shape(v) for v in value])
    if isinstance(value, float):
        return (type(value), repr(value))
    return (type(value), value)


def outcome(walk, value):
    """What ``walk`` makes of ``value``: its result, or the exception."""
    try:
        return ("ok", walk(value))
    except (TypeError, ValueError) as exc:
        return ("raised", type(exc), str(exc))


def assert_same_walk(value):
    got = outcome(canonicalize, value)
    want = outcome(ref_canonicalize, value)
    if want[0] == "ok":
        assert got[0] == "ok", got
        assert shape(got[1]) == shape(want[1])
    else:
        assert got == want
    assert outcome(fingerprint, value) == outcome(ref_fingerprint, value)


# -- Generated values ------------------------------------------------------

class Color(Enum):
    RED = 1
    GREEN = "g"


class Level(IntEnum):
    LOW = 1
    HIGH = 10


class Pair(NamedTuple):
    left: Any
    right: Any


@dataclasses.dataclass(frozen=True)
class Leaf:
    x: int
    tag: str = "t"


@dataclasses.dataclass(frozen=True)
class Node:
    a: Any
    b: Any = None


class Loose(dict):
    """A dict subclass: walked as a dict."""


class Span(tuple, Enum):
    """An enum over a container: walked as the container."""

    SHORT = (1, 2)


class Named(str, Enum):
    """An enum over ``str``: named like any enum."""

    A = "a"


@dataclasses.dataclass
class Point:
    x: int


class Corner(Point, Enum):
    """An enum over a dataclass: walked as the dataclass."""

    ORIGIN = 0


class Big(int):
    pass


class Tag(str):
    pass


ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.sampled_from([0, 1, 2, 10, -1, 2 ** 64, -(2 ** 70)]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([0.0, -0.0, 1.0, 1.5, float("inf"), float("-inf")]),
    st.text(max_size=4),
)

#: hashable keys, among them keys that stringify alike: ``1``, ``"1"``,
#: ``1.0`` (``"1.0"``), ``True``/``"true"``, ``None``/``"null"``, an enum
#: member and its name, a tuple and its JSON text, subclasses of ``int``
#: and ``str`` and their plain values.
KEYS = st.one_of(
    st.text(max_size=3),
    st.sampled_from([
        "1", "2", "10", "1.0", "true", "false", "null", "Color.RED",
        "Level.LOW", "[1, 2]", "__dataclass__",
    ]),
    st.integers(-3, 12),
    st.booleans(),
    st.none(),
    st.sampled_from([1.0, -0.0, float("inf")]),
    st.sampled_from(list(Color) + list(Level)),
    st.tuples(st.integers(0, 2), st.integers(0, 2)),
    st.builds(Leaf, st.integers(0, 2), st.sampled_from(["t", "u"])),
    st.sampled_from([Span.SHORT, Named.A, Big(1), Tag("1"), Tag("Named.A")]),
)

LEAVES = st.one_of(
    ATOMS,
    st.sampled_from(list(Color) + list(Level)),
    st.sampled_from([Span.SHORT, Named.A, Corner.ORIGIN, Big(3),
                     Big(2 ** 70), Tag("t")]),
    st.builds(Leaf, st.integers(), st.text(max_size=2)),
)


def _containers(children):
    return st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(KEYS, children, max_size=5),
        st.dictionaries(KEYS, children, max_size=4).map(OrderedDict),
        st.dictionaries(KEYS, children, max_size=3).map(Loose),
        st.builds(Pair, children, children),
        st.builds(Node, children, children),
    )


VALUES = st.recursive(LEAVES, _containers, max_leaves=25)


class TestGeneratedValues:
    @settings(max_examples=300, deadline=None)
    @given(VALUES)
    def test_same_canonical_form_and_fingerprint(self, value):
        assert_same_walk(value)

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(KEYS, VALUES), max_size=6))
    def test_keys_that_stringify_alike_collapse_the_same_way(self, items):
        # Insertion order decides which of two equal-sorting entries
        # survives, so build the dict in the generated order.
        assert_same_walk(dict(items))
        assert_same_walk(OrderedDict(reversed(items)))

    @settings(max_examples=100, deadline=None)
    @given(VALUES, st.sampled_from([
        object(), {1, 2}, frozenset(), b"x", 1j, Leaf, Color,
    ]))
    def test_unsupported_types_raise_the_same_error(self, value, bad):
        for wrapped in (bad, [value, bad], {"k": bad}, Node(value, bad),
                        Pair(bad, value), {Leaf(1): [bad]}):
            assert_same_walk(wrapped)

    def test_colliding_keys(self):
        for value in (
            {1: "int", "1": "str"},
            {"1": "str", 1: "int"},
            {True: 1, "true": 1},          # equal values: insertion wins
            {None: [1], "null": [0]},      # lists compare: larger wins
            {Color.RED: 1, "Color.RED": 2},
            {(1, 2): 0, "[1, 2]": 1},
            {1: {"a": 1}, "1": {"a": 2}},  # dicts do not compare: raises
            {1: 2, 2: 1, 10: 0},           # sorted as "1", "10", "2"
        ):
            assert_same_walk(value)

    def test_subclasses_follow_the_rule_order(self):
        assert canonicalize(Level.HIGH) == "Level.HIGH"
        assert canonicalize(Named.A) == "Named.A"
        assert canonicalize(Span.SHORT) == [1, 2]
        assert canonicalize(Corner.ORIGIN) == {
            "__dataclass__": "Corner", "x": 0,
        }
        assert canonicalize(Pair(1, (2,))) == [1, [2]]
        assert canonicalize(OrderedDict([(2, "b"), (1, "a")])) == {
            "1": "a", "2": "b",
        }
        for value in (Level.LOW, Pair(Color.GREEN, 1.5), Loose(a=Leaf(3)),
                      OrderedDict(b=1, a=2), [float("nan"), -0.0, 2 ** 80],
                      {Big(2): Tag("x"), Named.A: Span.SHORT, Tag("k"): 1}):
            assert_same_walk(value)


# -- Real inputs -----------------------------------------------------------

class TestRealKeys:
    @pytest.mark.parametrize("scale,seed", [(0.25, 0), (1.0, 3)])
    def test_every_campaign_spec(self, scale, seed):
        runner = Runner(scale, seed)
        count = 0
        for name, experiment in EXPERIMENTS.items():
            for spec in experiment.specs(runner):
                assert spec.key(scale, seed) == ref_run_key(
                    spec, scale, seed
                ), (name, spec.kernel, spec.isa)
                count += 1
        assert count > 100

    @pytest.mark.parametrize("sweep", ["mini.json", "engine_sizing.json"])
    def test_every_sweep_point(self, sweep):
        points = SweepSpec.from_file(SWEEPS / sweep).expand()
        for point in points:
            cfg = point.spec.config
            assert config_fingerprint(cfg) == ref_fingerprint(cfg)
            assert point.spec.key(0.25, 0) == ref_run_key(
                point.spec, 0.25, 0
            ), point.index

    @pytest.mark.parametrize("seed", [0, 7])
    def test_fuzz_case_keys(self, seed):
        for index in range(150):
            spec = generate_spec(seed, index)
            for inject, timing in ((None, index % 10 == 0),
                                   ("uve-mod-extra-count", False)):
                assert case_key(spec, inject, timing) == ref_case_key(
                    spec, inject, timing
                ), (seed, index, inject)

    def test_run_fingerprint_walks_the_config_once(self):
        cfg = uve_machine()
        assert run_fingerprint("saxpy", "uve", cfg, 1.0, 0, salt="s") == \
            ref_fingerprint({
                "kernel": "saxpy", "isa": "uve",
                "config": ref_canonicalize(cfg), "scale": 1.0, "seed": 0,
                "unroll": 0, "salt": "s", "lowering": "ir",
            })

    def test_keys_are_pinned(self):
        """Keys of literal inputs, computed before the walk changed.  A
        failure means the same input now gives other key bytes, which
        orphans every cached result and queued job.  If that is meant,
        bump ``CACHE_FORMAT``, update the pins and say so in CHANGES.md
        (a bump of the fuzz ``ORACLE_VERSION`` changes the case keys on
        purpose)."""
        assert [
            fingerprint(PINNED_CONFIG),
            run_fingerprint("gemm", "sve", PINNED_CONFIG, 0.25, 3, unroll=4,
                            salt="salt"),
            case_key(LiteralCase(), None, True),
            case_key(LiteralCase(), "uve-mod-extra-count", False),
        ] == PINNED_KEYS


#: A config-like value built from literals and this module's classes
#: only: nested frozen dataclasses, enum and int dict keys (``1``, ``2``,
#: ``10``), tuples, an IntEnum, an OrderedDict, a NamedTuple, ``-0.0``,
#: ``inf`` and a big int.
PINNED_CONFIG = Node(
    a=(Leaf(1), Leaf(2, "u"), Pair(Color.GREEN, Level.HIGH)),
    b={
        Color.RED: Node(1.5, -0.0),
        Level.LOW: OrderedDict([(3, "c"), (1, "a")]),
        1: [True, None, float("inf")],
        2: (2 ** 70, -1),
        10: {"nested": Leaf(0, "")},
    },
)


class LiteralCase:
    """Stands in for a fuzz ``CaseSpec``: ``case_key`` asks it only for
    ``to_dict()``."""

    def to_dict(self):
        return {
            "arrays": [{"mods": [], "name": "A", "offsets": [0, 4],
                        "strides": [1, 8]}],
            "ops": [{"imm": 0.5, "op": "add", "rhs": "imm"}],
            "trip": (3, 7),
            "indirect": None,
        }


#: the keys above, as the recursive walk computed them before the
#: one-pass walk replaced it (the run fingerprint's as computed for
#: lowering "ir" before the lowering argument was removed)
PINNED_KEYS = [
    "a9fd76220efd39da5c4b21d290f4ab1840a5452b8522dee77918786564e3e859",
    "9d8c7b682b7f415b71a20f1544be16943b484f7b9a55bba3be29ae02366b4d96",
    "e34eacc99cbd6059014093a843393c6cb9770f71c80c39a3d862f212501ebee8",
    "f2a7e309c2b95eb0d4d08d188f6c3d730acc06e65da49f76cef6d2ed1000e933",
]
