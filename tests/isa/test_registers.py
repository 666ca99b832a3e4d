"""Unit tests for the register model and name parsing."""
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from repro.errors import IsaError
from repro.isa.registers import P0, Reg, RegClass, f, p, parse_reg, u, x

BANKS = ((x, 32), (f, 32), (u, 32), (p, 16))


class TestConstruction:
    def test_banks_and_limits(self):
        assert x(31).cls is RegClass.X
        assert f(31).cls is RegClass.F
        assert u(31).cls is RegClass.V
        assert p(15).cls is RegClass.P

    def test_out_of_range_rejected(self):
        with pytest.raises(IsaError):
            x(32)
        with pytest.raises(IsaError):
            p(16)
        with pytest.raises(IsaError):
            u(-1)
        for bank, size in BANKS:
            for index in (size, -1, -size):
                with pytest.raises(IsaError, match="out of range"):
                    bank(index)

    def test_registers_are_interned(self):
        """Each bank hands out one register object per index; a directly
        built ``Reg`` still equals it and hashes alike."""
        for bank, size in BANKS:
            for index in range(size):
                reg = bank(index)
                assert bank(index) is reg
                assert reg.index == index
                built = Reg(reg.cls, index)
                assert built is not reg
                assert built == reg and hash(built) == hash(reg)
        assert parse_reg("u3") is u(3)

    def test_p0_is_predicate_zero(self):
        assert P0 == p(0)

    def test_str(self):
        assert str(u(7)) == "u7"
        assert str(x(0)) == "x0"


class TestEqualityHash:
    def test_equal_same_bank_index(self):
        assert u(3) == u(3)
        assert hash(u(3)) == hash(u(3))

    def test_distinct_banks_not_equal(self):
        assert x(3) != u(3)
        assert f(3) != x(3)

    def test_usable_as_dict_key(self):
        table = {u(1): "a", x(1): "b"}
        assert table[u(1)] == "a"
        assert table[x(1)] == "b"

    def test_non_reg_comparison(self):
        assert u(1) != "u1"

    def test_pickled_register_is_the_loading_process_register(self):
        """A register's cached hash is salted per process: one pickled
        under one hash seed and loaded under another must still find
        its dict entries there."""
        dump = "import pickle, sys; from repro.isa import u, x; " \
            "sys.stdout.buffer.write(pickle.dumps([u(3), {x(5): 7}]))"
        load = "import pickle, sys; from repro.isa import u, x; " \
            "reg, table = pickle.loads(sys.stdin.buffer.read()); " \
            "assert reg is u(3) and {u(3): 1}.get(reg) == 1, 'u3'; " \
            "assert table.get(x(5)) == 7, 'x5'"
        src = str(Path(__file__).resolve().parents[2] / "src")

        def python(code, seed, stdin=None):
            env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
            return subprocess.run(
                [sys.executable, "-c", code], input=stdin, env=env,
                capture_output=True, check=True,
            ).stdout

        python(load, "2", python(dump, "1"))
        assert pickle.loads(pickle.dumps(u(3))) is u(3)


class TestParsing:
    def test_basic_names(self):
        assert parse_reg("u5") == u(5)
        assert parse_reg("x12") == x(12)
        assert parse_reg("f3") == f(3)
        assert parse_reg("p2") == p(2)

    def test_case_and_whitespace(self):
        assert parse_reg(" U5 ") == u(5)

    def test_riscv_abi_aliases(self):
        assert parse_reg("a0") == x(10)
        assert parse_reg("a3") == x(13)
        assert parse_reg("fa0") == f(10)
        assert parse_reg("t1") == x(6)

    def test_sve_style_names(self):
        assert parse_reg("z4") == u(4)  # SVE z-registers map to the
        assert parse_reg("v4") == u(4)  # same vector bank as NEON v

    def test_malformed_rejected(self):
        for bad in ("", "q3", "u", "xx", "u3a"):
            with pytest.raises(IsaError):
                parse_reg(bad)
