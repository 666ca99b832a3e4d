"""A stream read of a chunk the engine never recorded fails at rename.

The functional pass records a stream chunk once it fills or ends a
dimension, so a program that halts with a chunk half consumed leaves
reads of a chunk the Streaming Engine never holds.  The timing model
used to wait for that chunk forever; it now raises a ``StreamError``
naming the instruction, the stream and both chunk counts.
"""
import signal
from contextlib import contextmanager

import numpy as np
import pytest

from repro.cpu.config import uve_machine
from repro.errors import StreamError
from repro.isa import ProgramBuilder, u, x
from repro.isa import scalar_ops as sc
from repro.isa import uve_ops as uve
from repro.memory.backing import Memory
from repro.sim.simulator import Simulator
from repro.streams.pattern import Direction


@contextmanager
def deadline(seconds: float):
    """Fail instead of hanging when the body runs past ``seconds``."""

    def expired(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def test_read_of_unrecorded_chunk_raises_at_once():
    n = 64  # four 16-lane chunks
    mem = Memory(1 << 20)
    src = mem.alloc_array(np.arange(n, dtype=np.float32))
    b = ProgramBuilder("halt-mid-chunk")
    b.emit(
        uve.SsConfig1D(u(1), Direction.LOAD, src // 4, n, 1),
        uve.SoScalarRead(x(5), u(1)),
        uve.SoScalarRead(x(6), u(1)),
        uve.SoScalarRead(x(7), u(1)),
        sc.Halt(),
    )
    with deadline(1.0), pytest.raises(StreamError) as err:
        Simulator(b.build(), mem, uve_machine()).run()
    assert str(err.value) == (
        "pc 1 (so.v.tosc x5, u1): stream uid 0 (u1) read of chunk 0, "
        "but the engine holds 0 chunks"
    )
