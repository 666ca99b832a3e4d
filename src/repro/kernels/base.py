"""Kernel framework: workloads, per-ISA programs, verification.

Each of the 19 evaluation benchmarks (paper Fig. 8, left table) is a
:class:`Kernel` subclass providing a workload generator, a NumPy
reference, and its programs: loop-nest IR lowered for every ISA
(:meth:`Kernel.ir_nests`) or hand-written per-ISA builders.  Benchmarks
the ARM compiler failed to vectorize (marked * in the paper) return
*scalar* programs for both baselines, as in the paper.
"""
from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.errors import ConfigError
from repro.isa.program import Program
from repro.memory.backing import Memory

#: ISA identifiers of the paper's main comparison.
ISAS = ("uve", "sve", "neon")

#: all implemented ISAs (RVV is the Fig. 1.C comparator, provided for the
#: extension experiment on the 1-D benchmark family).
ALL_ISAS = ISAS + ("rvv",)


@dataclass
class Workload:
    """One generated problem instance, resident in simulated memory."""

    memory: Memory
    #: name -> (base address, shape, numpy dtype)
    arrays: Dict[str, Tuple[int, Tuple[int, ...], object]] = field(
        default_factory=dict
    )
    #: name -> expected final contents (only for arrays the kernel writes)
    expected: Dict[str, np.ndarray] = field(default_factory=dict)
    params: Dict[str, int] = field(default_factory=dict)

    def addr(self, name: str) -> int:
        return self.arrays[name][0]

    def place(self, name: str, values: np.ndarray) -> int:
        """Allocate and copy an array; returns its base address."""
        addr = self.memory.alloc_array(values)
        self.arrays[name] = (addr, values.shape, values.dtype)
        return addr

    def result(self, name: str) -> np.ndarray:
        addr, shape, dtype = self.arrays[name]
        return self.memory.ndarray(addr, shape, dtype)

    def verify(self, rtol: float = 5e-3, atol: float = 1e-4) -> None:
        # float32 kernels vs float64 references: chained products (3mm)
        # legitimately accumulate relative error of order 1e-3.
        """Compare every expected array against simulated memory."""
        for name, want in self.expected.items():
            got = self.result(name)
            np.testing.assert_allclose(
                got, want, rtol=rtol, atol=atol,
                err_msg=f"array {name!r} mismatches the reference",
            )


class Kernel(ABC):
    """One benchmark: metadata + workload + per-ISA programs."""

    #: short identifier (the registry key) and the paper's letter.
    name: str = ""
    letter: str = ""
    domain: str = ""
    #: Fig. 8 left-table metadata.
    n_streams: int = 0
    max_nesting: int = 1
    n_kernels: int = 1
    pattern: str = "1D"
    #: False for the benchmarks the ARM SVE compiler failed to vectorize.
    sve_vectorized: bool = True
    #: False for extension kernels outside the paper's A..S evaluation set
    #: (they are registry-addressable but excluded from the figures).
    paper: bool = True
    #: memory size to allocate for workloads.
    memory_bytes: int = 1 << 23

    @abstractmethod
    def workload(self, seed: int = 0, scale: float = 1.0) -> Workload:
        """Generate a problem instance (arrays placed, reference computed)."""

    # -- IR lowering ---------------------------------------------------------

    def ir_nests(self, wl: Workload):
        """The kernel as loop-nest IR: a tuple of :class:`repro.ir.Nest`
        placed over ``wl``'s arrays, or ``None`` when the kernel has not
        been migrated (hand builders only).  A kernel with nests has no
        hand builders: :meth:`build` lowers the nests for every ISA."""
        return None

    def lowering_source(self) -> str:
        """``"ir"`` when the kernel lowers through the shared loop-nest
        IR, ``"hand"`` when only the hand-written builders exist."""
        return "ir" if type(self).ir_nests is not Kernel.ir_nests else "hand"

    def supported_isas(self) -> Tuple[str, ...]:
        """The ISAs this kernel can be built for.  RVV support requires
        either a hand ``build_rvv`` override or an IR migration (the RVV
        backend lowers the streamlined 1-D family)."""
        has_rvv = (
            type(self).build_rvv is not Kernel.build_rvv
            or type(self).ir_nests is not Kernel.ir_nests
        )
        return ALL_ISAS if has_rvv else ISAS

    def build_uve(self, wl: Workload, lanes: int) -> Program:
        """The hand-written UVE implementation."""
        raise NotImplementedError(f"{self.name} has no UVE implementation")

    def build_vector(self, wl: Workload, isa: str) -> Program:
        """Hand-written vectorized baseline (``isa`` is ``sve`` or
        ``neon``)."""
        raise NotImplementedError(
            f"{self.name} has no {isa} implementation"
        )

    def build_scalar(self, wl: Workload) -> Program:
        """Scalar fallback for SVE-unvectorized kernels."""
        raise NotImplementedError(
            f"{self.name} has no scalar implementation"
        )

    def build_rvv(self, wl: Workload) -> Program:
        """RVV-like implementation (extension; 1-D benchmark family)."""
        raise NotImplementedError(
            f"{self.name} has no RVV implementation"
        )

    # -- Dispatch ------------------------------------------------------------

    def build(self, isa: str, wl: Workload, vector_bits: int = 512) -> Program:
        """The kernel's program for ``isa``: its IR nests lowered when it
        has them, else its hand-written builder."""
        if isa not in ALL_ISAS:
            raise ConfigError(
                f"unknown ISA {isa!r} (expected one of {ALL_ISAS})"
            )
        if isa == "rvv" and "rvv" not in self.supported_isas():
            raise ConfigError(
                f"kernel {self.name!r} does not implement ISA 'rvv' "
                f"(supported: {', '.join(self.supported_isas())})"
            )
        if isa in ("sve", "neon") and not self.sve_vectorized:
            # The paper's compiler could not vectorize this kernel: the
            # baseline core runs scalar code.
            return self.build_scalar(wl)
        nests = self.ir_nests(wl)
        if nests is not None:
            from repro.errors import LoweringError
            from repro.lower import lower_nests

            try:
                return lower_nests(nests, isa, f"{self.name}-{isa}")
            except LoweringError as exc:
                raise ConfigError(
                    f"kernel {self.name!r} cannot be lowered to "
                    f"{isa!r} through the IR: {exc}"
                ) from exc
        if isa == "uve":
            return self.build_uve(wl, lanes=vector_bits // 32)
        if isa in ("sve", "neon"):
            return self.build_vector(wl, isa)
        return self.build_rvv(wl)

    def fresh_memory(self) -> Memory:
        return Memory(self.memory_bytes)

    def describe(self) -> Dict[str, object]:
        return {
            "letter": self.letter,
            "name": self.name,
            "domain": self.domain,
            "streams": self.n_streams,
            "nesting": self.max_nesting,
            "kernels": self.n_kernels,
            "pattern": self.pattern,
            "sve_vectorized": self.sve_vectorized,
            "lowering": self.lowering_source(),
            "isas": list(self.supported_isas()),
        }


def scaled(value: int, scale: float, minimum: int = 1, multiple: int = 1) -> int:
    """Scale a problem dimension, keeping it a positive multiple."""
    out = max(minimum, int(round(value * scale)))
    if multiple > 1:
        out = max(multiple, out - out % multiple)
    return out
