"""What a timing run shows its observer, and what it leaves behind.

``Pipeline.run`` performs every stage of a cycle in one loop body and
keeps the machine's counters in locals, which it writes back to the
pipeline when it returns.  Every registry kernel is timed on UVE, SVE
and NEON at scale 0.05, with ``fast_forward`` on and off, and each run
must keep two contracts:

* the observer's: every committed op is renamed once, issued at most
  once and committed once, in that order and on strictly later cycles;
  commits come in trace order; no cycle renames, issues or commits more
  ops than the fetch, issue or commit width;
* the end state's: the ROB, IQ, LQ and SQ counters are 0, every
  physical register is free again, the RAT names no producer, every
  queue is empty, and on UVE every stream's Store FIFO reservations
  have drained.

The counters must also agree with the queues they count whenever
``_event_horizon`` reads the pipeline mid-run, and after a run that
raised.  A counter the loop does not write back, or a lost decrement,
fails one of these although the run's statistics may still be exact.
"""
from collections import Counter, defaultdict
from functools import lru_cache

import pytest

from repro.cpu.config import default_machine, uve_machine
from repro.engine.engine import StreamingEngine
from repro.errors import SimulationError
from repro.kernels import all_kernels
from repro.memory.backing import Memory
from repro.sim.simulator import record, record_kernel

from tests.cpu.test_watchdog import sum_program

SCALE = 0.05
RUNS = [
    (kernel.name, isa, fast_forward)
    for kernel in all_kernels()
    for isa in ("uve", "sve", "neon")
    for fast_forward in (True, False)
]


@lru_cache(maxsize=2)
def recording(kernel_name, isa):
    config = default_machine(isa)
    rec, _ = record_kernel(kernel_name, isa, config.vector_bits, scale=SCALE)
    return rec


def check_counters(pipeline, initial_free):
    """The structural counters agree with the queues they count, as they
    must between any two cycles."""
    rob_q = pipeline._rob_q
    assert pipeline._rob == len(rob_q)
    assert pipeline._iq == sum(len(q) for q in pipeline._sched.values())
    assert pipeline._lq == sum(op.is_load for op in rob_q)
    assert pipeline._sq == (
        sum(op.is_store for op in rob_q) + len(pipeline._post_stores)
    )
    free = list(initial_free)
    for op in rob_q:
        for bank, count in op.allocs:
            free[bank] -= count
    assert pipeline._free == free


class TimedRun:
    def __init__(self, kernel_name, isa, fast_forward):
        self.rec = recording(kernel_name, isa)
        self.config = default_machine(isa).with_(fast_forward=fast_forward)
        self.events = []
        self.horizons = 0
        pipeline = self.rec.pipeline(self.config)
        self.initial_free = list(pipeline._free)
        pipeline.observer = lambda event, dyn, cycle: self.events.append(
            (event, dyn.seq, cycle)
        )
        horizon = pipeline._event_horizon

        def checked_horizon(now):
            check_counters(pipeline, self.initial_free)
            self.horizons += 1
            return horizon(now)

        pipeline._event_horizon = checked_horizon
        self.stats = pipeline.run(self.rec.trace)
        self.pipeline = pipeline


@pytest.fixture(
    scope="module",
    params=RUNS,
    ids=[f"{k}-{isa}-{'ff' if ff else 'no-ff'}" for k, isa, ff in RUNS],
)
def run(request):
    return TimedRun(*request.param)


def test_observer_sees_each_op_renamed_issued_and_committed_in_order(run):
    cycles = defaultdict(lambda: defaultdict(list))
    per_cycle = Counter()
    commits = []
    for event, seq, cycle in run.events:
        cycles[seq][event].append(cycle)
        per_cycle[event, cycle] += 1
        if event == "commit":
            commits.append(seq)
    trace_seqs = [dyn.seq for dyn in run.rec.trace]
    assert commits == trace_seqs
    assert run.stats.committed == len(trace_seqs)
    assert set(cycles) == set(trace_seqs)
    for seq, seen in cycles.items():
        assert len(seen["rename"]) == 1, (seq, dict(seen))
        assert len(seen["commit"]) == 1, (seq, dict(seen))
        assert len(seen["issue"]) <= 1, (seq, dict(seen))
        order = seen["rename"] + seen["issue"] + seen["commit"]
        assert order == sorted(set(order)), (seq, dict(seen))
    core = run.config.core
    widths = {
        "rename": core.fetch_width,
        "issue": core.issue_width,
        "commit": core.commit_width,
    }
    for (event, cycle), count in per_cycle.items():
        assert count <= widths[event], (event, cycle, count)


def test_counters_are_written_back_before_the_event_horizon(run):
    """``check_counters`` ran on every horizon, with fast-forward on."""
    assert (run.horizons > 0) == run.config.fast_forward


def test_finished_run_leaves_every_structure_empty(run):
    pipeline = run.pipeline
    assert (pipeline._rob, pipeline._iq, pipeline._lq, pipeline._sq) == (
        0, 0, 0, 0)
    assert pipeline._free == run.initial_free
    assert not any(pipeline._rat)
    assert not pipeline._decode
    assert not pipeline._rob_q
    assert not pipeline._post_stores
    assert not any(pipeline._sched.values())
    assert not pipeline._store_by_line
    engine = pipeline.engine
    if run.config.streaming:
        assert not engine.stores_pending
        for stream in engine.streams.values():
            assert stream.store_reserved == stream.store_drained, stream.uid
    else:
        assert engine is None


def test_counters_are_written_back_when_the_run_raises(monkeypatch):
    """A run the watchdog stops leaves counters that match its queues."""
    monkeypatch.setattr(
        StreamingEngine, "_generate", lambda self, stream, module, now: False
    )
    mem = Memory(1 << 20)
    rec = record(sum_program(mem), mem, 512)
    pipeline = rec.pipeline(uve_machine())
    initial_free = list(pipeline._free)
    with pytest.raises(SimulationError):
        pipeline.run(rec.trace)
    assert pipeline._rob > 0
    check_counters(pipeline, initial_free)
