"""The engine's event-driven schedule against a per-cycle rebuild.

The Stream Scheduler re-places a stream among its candidates only when
that stream's state changes.  This test drives the engine with seeded random
configure, fill, commit, squash and terminate events and, every cycle,
compares the streams it picks (and the FIFO occupancy it samples) with
the reference below: the Stream Scheduler as it was first written, which
rescans the Stream Table and sorts it on every cycle.
"""
import random

import pytest

from repro.cpu.config import EngineConfig
from repro.engine.engine import StreamingEngine
from repro.streams.pattern import Direction

from tests.engine.test_engine import FakeHierarchy, make_info


class ReferenceScheduler:
    """The per-cycle rebuild the engine must agree with."""

    def __init__(self, config: EngineConfig) -> None:
        self.config = config
        self.rr_next = 0

    @staticmethod
    def wants_generation(s, now, shared):
        if s.terminated or now < s.start_cycle or not s.is_load:
            return False
        if s.gen_next >= s.num_chunks:
            return False
        bound = 4 * s.fifo_depth if shared else s.fifo_depth
        return s.gen_next - s.commit_head < bound

    @staticmethod
    def pool_free(engine):
        active = [
            s for s in engine.streams.values()
            if s.is_load and not s.terminated and s.num_chunks > 0
            and s.commit_head < s.num_chunks
        ]
        capacity = engine.config.fifo_depth * max(len(active), 1)
        return capacity - sum(s.gen_next - s.commit_head for s in active)

    def select(self, engine, count, now):
        shared = self.config.shared_fifo
        streams = engine.streams.values()
        if shared:
            pool_free = self.pool_free(engine)
            eligible = [
                s for s in streams
                if self.wants_generation(s, now, True)
                and (s.gen_next - s.commit_head < s.fifo_depth or pool_free > 0)
            ]
        else:
            eligible = [
                s for s in streams if self.wants_generation(s, now, False)
            ]
        if not eligible:
            return []
        if self.config.scheduler_policy == "fifo-occupancy":
            eligible.sort(key=lambda s: (s.gen_next - s.commit_head, s.uid))
            return eligible[:count]
        start = self.rr_next % len(eligible)
        self.rr_next += 1
        return (eligible[start:] + eligible[:start])[:count]

    @staticmethod
    def occupancy_sample(engine):
        loads = [
            s for s in engine.streams.values()
            if s.is_load and not s.terminated
        ]
        return len(loads), sum(s.gen_next - s.commit_head for s in loads)


def random_info(rng, uid):
    direction = Direction.LOAD if rng.random() < 0.8 else Direction.STORE
    info = make_info(
        uid=uid, reg=uid % 32, direction=direction,
        n_chunks=rng.randint(1, 12), lines_per_chunk=rng.randint(1, 3),
    )
    if rng.random() < 0.3:
        info.chunk_flags[rng.randrange(len(info.chunk_flags))] = 1
    return info


def recyclable(s):
    if s.terminated:
        return True
    if s.is_load:
        return s.commit_head >= s.num_chunks
    return s.store_drained >= s.num_chunks


def drive(config: EngineConfig, seed: int, cycles: int = 400) -> int:
    """Run the engine and the reference side by side; returns the number
    of line requests compared."""
    rng = random.Random(seed)
    hier = FakeHierarchy(latency=rng.randint(1, 30))
    engine = StreamingEngine(config, hier)
    reference = ReferenceScheduler(config)
    picked = []
    generate = engine._generate

    def record(stream, module, now):
        picked.append((module, stream.uid))
        generate(stream, module, now)

    engine._generate = record
    next_uid = 0
    for now in range(cycles):
        # Pipeline-side events between engine cycles.
        if rng.random() < 0.08 and (
            len(engine.streams) < config.max_streams
            or any(map(recyclable, engine.streams.values()))
        ):
            engine.configure(random_info(rng, next_uid), now)
            next_uid += 1
        for stream in list(engine.streams.values()):
            if stream.terminated:
                continue
            if stream.is_load:
                head = stream.commit_head
                if (
                    head < stream.gen_next
                    and stream.ready_cycle(head) <= now
                    and rng.random() < 0.6
                ):
                    engine.commit_read(stream, head)
                if rng.random() < 0.05:
                    engine.squash(stream.uid, stream.commit_head)
            elif stream.store_reserved < stream.num_chunks and rng.random() < 0.3:
                if stream.reserve_store():
                    engine.commit_write(stream, stream.store_reserved - 1, now)
            if rng.random() < 0.01:
                engine.terminate(stream.uid)

        modules = [m for m, busy in enumerate(engine._module_busy) if busy <= now]
        want = [
            (module, s.uid) for module, s in
            zip(modules, reference.select(engine, len(modules), now))
        ] if modules else []
        samples = reference.occupancy_sample(engine)
        before = (engine.stats.occupancy_samples, engine.stats.occupancy_total)
        picked.clear()
        engine.tick(now)
        assert picked == want, f"cycle {now}: engine picked {picked}, want {want}"
        after = (engine.stats.occupancy_samples, engine.stats.occupancy_total)
        assert (after[0] - before[0], after[1] - before[1]) == samples
    return engine.stats.line_requests


CONFIGS = {
    "fifo-occupancy": {},
    "round-robin": {"scheduler_policy": "round-robin"},
    "shared-fifo": {"shared_fifo": True},
    "shared-fifo-round-robin": {
        "shared_fifo": True, "scheduler_policy": "round-robin",
    },
}


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_schedule_matches_per_cycle_rebuild(name, seed):
    rng = random.Random(seed)
    config = EngineConfig(
        fifo_depth=rng.randint(1, 6),
        processing_modules=rng.randint(1, 3),
        max_streams=rng.randint(3, 8),
        **CONFIGS[name],
    )
    assert drive(config, seed) > 0
