"""Independent reference semantics for fuzz cases.

This module interprets a :class:`~repro.fuzz.spec.CaseSpec` with code
written separately from both the ``streams`` descriptor machinery and
the per-ISA lowerings: a small recursive expander turns each array's
view of the nest into a flat list of element indices (honouring the
cumulative/reset semantics of static modifiers and the SET_ADD
semantics of the indirect level), NumPy computes the expected values,
and a sequential last-write-wins scatter produces the expected final
contents of the output region.

``materialize`` additionally lays the arrays out in a fresh
:class:`~repro.memory.backing.Memory` (disjoint 64-byte-aligned
regions, deterministic contents derived from the case seed) so every
lowering of the same spec starts from bit-identical memory.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.common.types import ElementType
from repro.fuzz.spec import ArraySpec, CaseSpec
from repro.memory.backing import Memory

#: rng stream ids per array, mixed with the case seed.
_RNG_LANE = {"a": 1, "b": 2, "c": 3, "idx": 4}


def _rng(spec: CaseSpec, lane: str) -> np.random.Generator:
    return np.random.default_rng([spec.seed & 0x7FFFFFFF, _RNG_LANE[lane]])


# ---------------------------------------------------------------------------
# Index expansion
# ---------------------------------------------------------------------------

def expand_indices(
    spec: CaseSpec,
    arr: ArraySpec,
    idx_values: Optional[np.ndarray] = None,
) -> List[int]:
    """Element indices touched by ``arr``, in iteration order.

    Mirrors the Streaming Engine's traversal semantics from first
    principles: per-level working parameters are reset to their
    configured values when the level above (re)starts; modifiers bound
    at a level fire before each of its first ``count`` iterations; the
    indirect level (gather/scatter) sets the row offset to
    ``configured + index`` per iteration of level 1.
    """
    sizes, offsets, strides = spec.sizes, arr.offsets, arr.strides
    ndims = len(sizes)
    indirect_here = (
        spec.indirect is not None and spec.indirect.array == arr.name
    )
    mods_by_level: Dict[int, Tuple] = {}
    for level in range(1, ndims):
        mods = spec.mods_for(arr, level)
        if mods:
            mods_by_level[level] = mods

    work_off = list(offsets)
    work_str = list(strides)
    work_size = list(sizes)
    out: List[int] = []

    def run_level(k: int, disp: int) -> None:
        if k == 0:
            off, step = work_off[0], work_str[0]
            for i in range(work_size[0]):
                out.append(disp + off + i * step)
            return
        # (Re)starting level k resets the level below to its configured
        # parameters and rearms the modifiers bound here.
        work_off[k - 1] = offsets[k - 1]
        work_str[k - 1] = strides[k - 1]
        work_size[k - 1] = sizes[k - 1]
        mods = mods_by_level.get(k, ())
        fired = [0] * len(mods)
        off, step, count = work_off[k], work_str[k], work_size[k]
        for i in range(count):
            for m_i, mod in enumerate(mods):
                if fired[m_i] < mod.count:
                    delta = mod.signed_displacement
                    if mod.target == "offset":
                        work_off[k - 1] += delta
                    elif mod.target == "stride":
                        work_str[k - 1] += delta
                    else:
                        work_size[k - 1] += delta
                    fired[m_i] += 1
            if indirect_here and k == 1:
                work_off[0] = offsets[0] + int(idx_values[i])
            run_level(k - 1, disp + off + i * step)

    run_level(ndims - 1, 0)
    return out


def expand_output_indices(
    spec: CaseSpec, idx_values: Optional[np.ndarray] = None
) -> List[int]:
    if spec.reduce is not None:
        return [spec.output.offsets[0]]
    return expand_indices(spec, spec.output, idx_values)


# ---------------------------------------------------------------------------
# Index vector (gather / scatter)
# ---------------------------------------------------------------------------

def index_vector(spec: CaseSpec) -> Optional[np.ndarray]:
    """The int32 row-index vector for gather/scatter cases, derived
    deterministically from the case seed and sampled so every row stays
    inside the indirect array's fixed region."""
    ind = spec.indirect
    if ind is None:
        return None
    arr = spec.array(ind.array)
    inner_extent = (spec.sizes[0] - 1) * arr.strides[0] + 1
    high = ind.region - inner_extent
    if high < 0:
        raise ValueError(
            f"indirect region {ind.region} too small for inner extent "
            f"{inner_extent}"
        )
    rows = spec.sizes[1]
    return _rng(spec, "idx").integers(0, high + 1, size=rows).astype(np.int32)


# ---------------------------------------------------------------------------
# Value semantics
# ---------------------------------------------------------------------------

_BINARY = {
    "add": np.add,
    "sub": np.subtract,
    "mul": np.multiply,
    "min": np.minimum,
    "max": np.maximum,
    "and": np.bitwise_and,
    "or": np.bitwise_or,
    "xor": np.bitwise_xor,
}
_COMPARE = {
    "eq": np.equal,
    "ne": np.not_equal,
    "lt": np.less,
    "le": np.less_equal,
    "gt": np.greater,
    "ge": np.greater_equal,
}


def chain_values(spec: CaseSpec, va: np.ndarray, vb: Optional[np.ndarray]):
    """Per-element values of the op chain, computed in the case dtype
    (the same width the vector ISAs use)."""
    dtype = spec.element_type.dtype
    run = va.astype(dtype, copy=True)
    for step in spec.ops:
        if step.rhs is None:
            run = np.abs(run) if step.op == "abs" else -run
            run = run.astype(dtype, copy=False)
            continue
        if step.rhs == "b":
            rhs = vb
        else:
            rhs = np.dtype(dtype).type(step.imm)
        run = _BINARY[step.op](run, rhs).astype(dtype, copy=False)
    return run


def reduce_values(spec: CaseSpec, values: np.ndarray, mask=None) -> float:
    """Reference reduction, accumulated in wide precision (float64 /
    int64) — per-ISA chunking error is absorbed by oracle tolerances."""
    wide = np.float64 if spec.is_float else np.int64
    vals = values.astype(wide)
    if mask is not None:
        vals = vals[mask]
    if vals.size == 0:
        return 0  # the hardware identity: empty reductions yield zero
    if spec.reduce == "min":
        return vals.min()
    if spec.reduce == "max":
        return vals.max()
    return vals.sum()


# ---------------------------------------------------------------------------
# Materialisation
# ---------------------------------------------------------------------------

@dataclass
class ArrayView:
    """One array's placement: region byte address/length plus the
    region-relative element index of every iteration step."""

    name: str
    addr: int
    length: int  # region length, elements
    bias: int  # absolute element index added to spec-level indices
    rel: np.ndarray  # region-relative indices, iteration order

    @property
    def base_elem(self) -> int:
        return self.addr // self.width if self.width else 0

    width: int = 4


@dataclass
class Artifacts:
    """Everything the oracle needs: the initial memory image, array
    placements, the index vector, and the expected final output."""

    spec: CaseSpec
    memory: Memory
    views: Dict[str, ArrayView]
    idx_addr: Optional[int]
    idx_values: Optional[np.ndarray]
    ref_c: np.ndarray  # expected final contents of the c region
    total: int  # elements iterated by the nest

    def output_region(self, memory: Memory) -> np.ndarray:
        view = self.views["c"]
        etype = self.spec.element_type
        return memory.ndarray(view.addr, (view.length,), etype.dtype).copy()


def materialize(spec: CaseSpec) -> Artifacts:
    """Expand, place, and populate a case; compute its reference output."""
    etype = spec.element_type
    width = etype.width
    idx_values = index_vector(spec)

    indices: Dict[str, List[int]] = {}
    for arr in spec.inputs:
        indices[arr.name] = expand_indices(spec, arr, idx_values)
    indices["c"] = expand_output_indices(spec, idx_values)
    total = len(indices[spec.inputs[0].name])

    # Region spans.  The indirect array's span is pinned by the spec so
    # index values could be sampled without seeing the data first.
    spans: Dict[str, Tuple[int, int]] = {}
    for name, idx in indices.items():
        if spec.indirect is not None and spec.indirect.array == name:
            spans[name] = (0, spec.indirect.region - 1)
        else:
            spans[name] = (min(idx), max(idx))

    need = sum((hi - lo + 1) * width + 64 for lo, hi in spans.values())
    if idx_values is not None:
        need += len(idx_values) * 4 + 64
    size = max(1 << 16, 1 << (int(need + 4096).bit_length()))
    memory = Memory(size=size)

    views: Dict[str, ArrayView] = {}
    for name in ("a", "b", "c"):
        if name not in indices:
            continue
        lo, hi = spans[name]
        length = hi - lo + 1
        addr = memory.alloc(length * width, align=64)
        bias = addr // width - lo
        rel = np.asarray(indices[name], dtype=np.int64) - lo
        if rel.size and (rel.min() < 0 or rel.max() >= length):
            raise ValueError(f"array {name!r} indices escape its region")
        views[name] = ArrayView(
            name=name, addr=addr, length=length, bias=bias, rel=rel,
            width=width,
        )

    idx_addr = None
    if idx_values is not None:
        idx_addr = memory.alloc(len(idx_values) * 4, align=64)
        memory.ndarray(idx_addr, (len(idx_values),), np.int32)[:] = idx_values

    # Deterministic contents (the output region too: stale-data holes in
    # any lowering then diverge from the reference instead of hiding).
    for name, view in views.items():
        region = memory.ndarray(view.addr, (view.length,), etype.dtype)
        rng = _rng(spec, name)
        if spec.is_float:
            region[:] = rng.standard_normal(view.length).astype(etype.dtype)
        else:
            region[:] = rng.integers(-64, 65, size=view.length).astype(
                etype.dtype
            )

    # Reference output.
    va = memory.ndarray(
        views["a"].addr, (views["a"].length,), etype.dtype
    )[views["a"].rel]
    vb = None
    if "b" in views:
        vb = memory.ndarray(
            views["b"].addr, (views["b"].length,), etype.dtype
        )[views["b"].rel]
    values = chain_values(spec, va, vb)
    if spec.reduce is not None and spec.use_mac:
        # mac reductions consume both streams: c = reduce(a * b).
        values = np.multiply(va, vb).astype(etype.dtype)

    ref_c = memory.ndarray(
        views["c"].addr, (views["c"].length,), etype.dtype
    ).copy()
    if spec.reduce is not None:
        mask = None
        if spec.pred_cond is not None:
            mask = _COMPARE[spec.pred_cond](va, vb)
            values = va.astype(etype.dtype)
        result = reduce_values(spec, values, mask)
        ref_c[views["c"].rel[0]] = np.dtype(etype.dtype).type(result)
    else:
        # Sequential last-write-wins scatter: NumPy fancy-index stores
        # are unspecified under duplicate indices, the hardware is not.
        region = ref_c
        vals = values.astype(etype.dtype)
        for pos, val in zip(views["c"].rel, vals):
            region[pos] = val
    return Artifacts(
        spec=spec,
        memory=memory,
        views=views,
        idx_addr=idx_addr,
        idx_values=idx_values,
        ref_c=ref_c,
        total=total,
    )


ELEMENT_TYPES: Tuple[ElementType, ...] = (
    ElementType.F32,
    ElementType.F64,
    ElementType.I32,
    ElementType.I64,
)
