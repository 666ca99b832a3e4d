"""The lowering driver layer: backend dispatch, streamlined-shape
eligibility, label namespacing, and backend capability errors."""
import numpy as np
import pytest

from repro.common.types import ElementType
from repro.errors import LoweringError
from repro.ir import FMA_OP, Access, Mod, Op, loop1d
from repro.isa.program import ProgramBuilder
from repro.isa.registers import p, u, x
from repro.isa.scalar_ops import Halt, Li
from repro.isa.sve_ops import Index, PTrue
from repro.lower import BACKENDS, INJECTIONS, ISAS, lower, lower_nests
from repro.lower.common import J_X, streamlined
from repro.lower.sve import _sve_access
from repro.memory.backing import Memory
from repro.sim.functional import FunctionalSimulator

F32 = ElementType.F32


def saxpy_nest(name="saxpy"):
    return loop1d("%s" % name, [0, 64], 64, 32,
                  ops=(Op(FMA_OP, "b", 2.5),))


class TestDriver:
    def test_every_backend_halts(self):
        nest = saxpy_nest()
        for isa in BACKENDS:
            program = lower(nest, isa)
            assert isinstance(program.instructions[-1], Halt), isa

    def test_oracle_isas_are_a_backend_subset(self):
        assert set(ISAS) <= set(BACKENDS)
        assert "rvv" not in ISAS

    def test_unknown_isa(self):
        with pytest.raises(ValueError, match="unknown isa"):
            lower(saxpy_nest(), "avx512")

    def test_unknown_injection(self):
        with pytest.raises(ValueError, match="unknown injection"):
            lower(saxpy_nest(), "uve", inject="uve-bogus")

    def test_injections_are_uve_only(self):
        inject = sorted(INJECTIONS)[0]
        with pytest.raises(ValueError, match="uve"):
            lower(saxpy_nest(), "sve", inject=inject)

    def test_lower_nests_requires_a_nest(self):
        with pytest.raises(ValueError, match="at least one"):
            lower_nests([], "uve", "empty")

    def test_multi_nest_labels_are_namespaced(self):
        nests = (saxpy_nest("first"), saxpy_nest("second"))
        program = lower_nests(nests, "neon", "pair")
        assert any(label.startswith("first_") for label in program.labels)
        assert any(label.startswith("second_") for label in program.labels)

    def test_single_nest_labels_are_bare(self):
        program = lower_nests((saxpy_nest(),), "neon", "solo")
        assert program.labels
        assert not any(label.startswith("saxpy_")
                       for label in program.labels)


class TestStreamlined:
    def test_kernel_shapes_qualify(self):
        assert streamlined(saxpy_nest())
        assert streamlined(loop1d("copy", [0], 64, 32))

    def test_pinned_schedule_disqualifies(self):
        assert not streamlined(saxpy_nest().with_(schedule="nested"))

    def test_modifiers_disqualify(self):
        nest = loop1d("k", [0], 64, 32)
        assert not streamlined(
            nest.with_(size_mods=(Mod(1, "size", "add", 1, 1),))
        )

    def test_two_fmas_disqualify(self):
        nest = saxpy_nest()
        assert not streamlined(
            nest.with_(ops=nest.ops + (Op(FMA_OP, "b", 1.0),))
        )


class TestRvvBackend:
    def test_rejects_general_nest(self):
        pinned = saxpy_nest().with_(schedule="nested")
        with pytest.raises(LoweringError, match="streamlined"):
            lower(pinned, "rvv")

    def test_lowers_kernel_shapes(self):
        program = lower(saxpy_nest(), "rvv")
        assert program.instructions


class _DynamicStrideEmitter:
    """The part of a NestEmitter that ``_sve_access`` reads, with the
    innermost stride held in ``x2`` (a dynamic working parameter)."""

    def __init__(self, etype):
        self.b = ProgramBuilder("probe")
        self.etype = etype

    def stride_operand(self, acc, level):
        return x(2)


class TestSveBackend:
    def test_gather_index_above_float32_precision(self):
        """The index vector of an F32 gather is built in int32: element
        counter 2**24 + 1 and stride 1 gather elements 2**24 + 1 ...
        2**24 + 16, where a float32 index vector would round them to
        2**24, 2**24 + 2, 2**24 + 4, ..."""
        first = 2**24 + 1
        emitter = _DynamicStrideEmitter(F32)
        b = emitter.b
        b.emit(Li(x(8), 64))  # row base of array "a"
        b.emit(Li(J_X, first))
        b.emit(Li(x(2), 1))
        b.emit(PTrue(p(1), F32))
        _sve_access(emitter, Access("a", 0, (0,), (1,)), u(1), store=False)
        b.emit(Halt())
        program = b.build()
        assert any(isinstance(inst, Index) for inst in program.instructions)

        memory = Memory(80 << 20)
        lanes = 16
        want = np.arange(1, lanes + 1, dtype=np.float32)
        for i, value in enumerate(want):
            memory.write_scalar(64 + (first + i) * 4, float(value), F32)
        sim = FunctionalSimulator(program, memory=memory, vector_bits=512)
        sim.run()
        np.testing.assert_array_equal(sim.state.read_v(u(1), F32).data, want)
