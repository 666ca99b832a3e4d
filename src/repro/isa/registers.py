"""Architectural register model (paper §III-A1).

UVE adds 32 vector registers (``u0``–``u31``) and 16 predicate registers
(``p0``–``p15``, ``p0`` hardwired to all-true) on top of the RISC-V scalar
integer (``x``) and floating-point (``f``) banks.  The SVE-like and
NEON-like baseline ISAs reuse the same vector/predicate banks (named
``z``/``v`` in their own assemblers, but architecturally identical here).
"""
from __future__ import annotations

import enum
from dataclasses import dataclass

from repro.errors import IsaError


class RegClass(enum.Enum):
    """Register bank."""

    X = "x"  # scalar integer
    F = "f"  # scalar floating point
    V = "u"  # vector (UVE u / SVE z / NEON v)
    P = "p"  # predicate

    # Members are singletons compared by identity, so the identity hash
    # is exact; Enum.__hash__ runs in Python on every dict lookup.
    __hash__ = object.__hash__


_BANK_SIZES = {RegClass.X: 32, RegClass.F: 32, RegClass.V: 32, RegClass.P: 16}


@dataclass(frozen=True, eq=False)
class Reg:
    """A single architectural register."""

    cls: RegClass
    index: int

    def __post_init__(self) -> None:
        limit = _BANK_SIZES[self.cls]
        if not 0 <= self.index < limit:
            raise IsaError(
                f"register index {self.index} out of range for bank "
                f"{self.cls.value} (0..{limit - 1})"
            )
        # Cache the hash: registers are dict keys on the functional hot
        # path (per-instruction operand dedup).  The timing model's RAT
        # uses small int keys decoded once per static instruction.
        object.__setattr__(self, "_hash", hash((self.cls.value, self.index)))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Reg):
            return NotImplemented
        return self.cls is other.cls and self.index == other.index

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        # The cached hash is salted per process (``str`` hashing), so a
        # register unpickles to the loading process's own register.
        return _reg, (self.cls, self.index)

    def __str__(self) -> str:
        return f"{self.cls.value}{self.index}"

    __repr__ = __str__


#: every register of each bank, built once: the constructors below hand
#: these out, so building a program allocates no ``Reg``.
_BANKS = {
    cls: tuple(Reg(cls, index) for index in range(size))
    for cls, size in _BANK_SIZES.items()
}


def _reg(cls: RegClass, index: int) -> Reg:
    bank = _BANKS[cls]
    if 0 <= index < len(bank):
        return bank[index]
    return Reg(cls, index)  # raises the out-of-range IsaError


def x(index: int) -> Reg:
    """Scalar integer register ``x<index>``."""
    return _reg(RegClass.X, index)


def f(index: int) -> Reg:
    """Scalar floating-point register ``f<index>``."""
    return _reg(RegClass.F, index)


def u(index: int) -> Reg:
    """Vector register ``u<index>`` (also the stream interface)."""
    return _reg(RegClass.V, index)


def p(index: int) -> Reg:
    """Predicate register ``p<index>`` (``p0`` is hardwired all-true)."""
    return _reg(RegClass.P, index)


#: Hardwired all-valid predicate (paper: "p0 is always hardwired to 1").
P0 = p(0)

#: Hardwired zero scalar register (RISC-V x0).
X0 = x(0)


def parse_reg(name: str) -> Reg:
    """Parse a register name like ``u3``, ``x10``, ``f2`` or ``p1``."""
    name = name.strip().lower()
    if len(name) < 2:
        raise IsaError(f"malformed register name {name!r}")
    # SVE/NEON spellings map onto the same banks.
    aliases = {"z": "u", "v": "u", "a": None, "t": None, "fa": None}
    prefix, digits = name[0], name[1:]
    if prefix in aliases and aliases[prefix]:
        prefix = aliases[prefix]
    # RISC-V ABI aliases used in the paper's listings.
    if name.startswith("a") and digits.isdigit():
        return x(10 + int(digits))
    if name.startswith("fa") and name[2:].isdigit():
        return f(10 + int(name[2:]))
    if name.startswith("t") and digits.isdigit():
        return x(5 + int(digits))
    try:
        cls = RegClass(prefix)
    except ValueError:
        raise IsaError(f"unknown register bank in {name!r}") from None
    if not digits.isdigit():
        raise IsaError(f"malformed register name {name!r}")
    return _reg(cls, int(digits))
