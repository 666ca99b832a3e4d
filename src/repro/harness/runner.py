"""Experiment runner: executes kernel × ISA × configuration simulations
and verifies their numerical correctness.

Runs are identified by a :class:`RunSpec` — a picklable value object that
a :class:`~repro.harness.executor.CampaignExecutor` worker can rebuild a
``Runner`` from — and cached under a canonical content fingerprint (see
:mod:`repro.harness.fingerprint`), so semantically equal configurations
share one record regardless of how they were constructed.

Runs whose build and functional pass are the same share a *trace key*
(:meth:`RunSpec.trace_key`); :meth:`Runner.simulate` records such a
group's trace once, verifies it once and times it under each run's
config.
"""
from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.cpu.config import MachineConfig, default_machine
from repro.errors import ConfigError
from repro.harness.fingerprint import run_fingerprint
from repro.kernels import get_kernel
from repro.sim.simulator import SimulationResult, record_kernel


@dataclass
class RunRecord:
    """The measurements a single simulation contributes to the figures."""

    kernel: str
    letter: str
    isa: str
    committed: int
    cycles: float
    ipc: float
    rename_blocks_per_cycle: float
    bus_utilization: float
    dram_bytes: int
    mispredict_rate: float
    fifo_occupancy: float
    l1_miss_rate: float
    l2_miss_rate: float


@dataclass(frozen=True)
class RunSpec:
    """One simulation a figure needs: kernel × ISA × configuration.

    Picklable, so a process-pool worker can rebuild the run from it.
    ``config=None`` means the ISA's default machine; ``unroll > 0``
    selects the unrolled UVE build (Fig. 8.E).
    """

    kernel: str
    isa: str
    config: Optional[MachineConfig] = None
    unroll: int = 0

    def __hash__(self) -> int:
        # ``config.latencies`` is a dict, so the config is left out of
        # the hash; equality still compares every field.
        return hash((self.kernel, self.isa, self.unroll))

    def resolved_config(self) -> MachineConfig:
        if self.config is not None:
            return self.config
        return default_machine(self.isa)

    def key(self, scale: float, seed: int, lowering: str = "ir") -> str:
        # perfbench's ``campaign`` workload passes ``lowering``.
        if lowering != "ir":
            raise ConfigError(
                f"unknown lowering {lowering!r} (expected 'ir')"
            )
        return run_fingerprint(
            self.kernel, self.isa, self.resolved_config(),
            scale, seed, self.unroll,
        )

    def trace_key(
        self,
        scale: float,
        seed: int,
        config: Optional[MachineConfig] = None,
    ) -> tuple:
        """Every input of the build and the functional pass.  Runs with
        equal trace keys record the same trace; the rest of the config
        only touches timing.  ``config`` is the spec's resolved config,
        for a caller that has resolved it already."""
        if config is None:
            config = self.resolved_config()
        return (
            self.kernel, self.isa, self.unroll,
            config.vector_bits, scale, seed,
        )


#: a table's input: the record of each run its run list declared, in
#: run-list order.
Records = Mapping[RunSpec, RunRecord]


class Runner:
    """Simulates runs for the experiment harness, and holds a campaign's
    records by fingerprint."""

    def __init__(self, scale: float = 1.0, seed: int = 0) -> None:
        self.scale = scale
        self.seed = seed
        #: fingerprint -> record, filled by the campaign executor
        self.records: Dict[str, RunRecord] = {}

    def cached(self, key: str) -> Optional[RunRecord]:
        return self.records.get(key)

    def simulate(
        self, specs: Sequence[RunSpec]
    ) -> Iterator[Tuple[RunRecord, float]]:
        """Simulate runs that share one trace key: build and record the
        trace once, verify the kernel once, then time each spec's config.

        Yields ``(record, host seconds)`` per spec, in order, as each run
        is timed, so a caller can finish (cache, report) every run before
        the next one starts.  The first run's seconds include the shared
        build, recording and verification.  No cache is consulted.
        """
        start = time.perf_counter()
        # Each spec's config is resolved once (a spec without one builds
        # its ISA's default machine) and passed down.
        configs = [spec.resolved_config() for spec in specs]
        if len({
            spec.trace_key(self.scale, self.seed, config)
            for spec, config in zip(specs, configs)
        }) > 1:
            raise ConfigError("runs of one group must share a trace key")
        for spec, config in zip(specs, configs):
            _check_consistent(spec.isa, config)
        first = specs[0]
        recording, wl = record_kernel(
            first.kernel, first.isa, configs[0].vector_bits,
            scale=self.scale, seed=self.seed, unroll=first.unroll,
        )
        wl.verify()
        letter = get_kernel(first.kernel).letter
        for spec, config in zip(specs, configs):
            result = recording.time(config)
            seconds = time.perf_counter() - start
            yield _run_record(spec, letter, result), seconds
            start = time.perf_counter()


def _run_record(
    spec: RunSpec, letter: str, result: SimulationResult
) -> RunRecord:
    engine = result.pipeline.engine
    return RunRecord(
        kernel=spec.kernel,
        letter=letter,
        isa=spec.isa,
        committed=result.committed,
        cycles=result.cycles,
        ipc=result.ipc,
        rename_blocks_per_cycle=result.rename_blocks_per_cycle,
        bus_utilization=result.bus_utilization,
        dram_bytes=result.hierarchy.dram.total_bytes,
        mispredict_rate=result.timing.mispredict_rate,
        fifo_occupancy=(
            engine.stats.mean_fifo_occupancy if engine is not None else 0.0
        ),
        l1_miss_rate=result.hierarchy.l1d.stats.miss_rate,
        l2_miss_rate=result.hierarchy.l2.stats.miss_rate,
    )


def _check_consistent(isa: str, cfg: MachineConfig) -> None:
    """An explicit config must match the requested ISA: UVE code needs the
    Streaming Engine, and the baseline ISAs must not silently run on a
    streaming core."""
    if isa == "uve" and not cfg.streaming:
        raise ConfigError(
            "isa 'uve' requires a streaming machine config "
            "(got streaming=False; use uve_machine())"
        )
    if isa != "uve" and cfg.streaming:
        raise ConfigError(
            f"isa {isa!r} must run on a non-streaming baseline config "
            "(got streaming=True; use baseline_machine())"
        )
