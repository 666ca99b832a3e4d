"""The benchmark's three workloads, built only on the library's public API.

A workload is a closed loop with one client: one process, one thread,
no process pool.  Its work is split into *cycles*; every cycle repeats
the same fixed list of ops derived from the seed, and child.py runs
whole cycles only, so a faster simulator runs more cycles of the same
mix instead of a different mix, and the counts of every cycle must be
identical.

Every cycle first runs its *cold* ops, which compute results, then
*warm* passes that answer the same requests again from a fresh on-disk
:class:`~repro.harness.diskcache.ResultCache` (fingerprint + load), the
path a repeated request takes.  Cold ops feed ``kinstr_per_s`` and
``op_s_*``; warm ops feed ``hit_s_p50``.

Each :class:`Op` separates the timed call (``run``) from the untimed
check of its output (``check``).  ``check`` raises when the output is
wrong and otherwise returns the op's exact counts, keyed by per-layer
metric name; ``sim.committed`` is the simulated instruction count that
``kinstr_per_s`` divides by host time.
"""
from __future__ import annotations

import json
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, Iterator, Tuple

from repro.cpu.config import MachineConfig, baseline_machine, uve_machine
from repro.fuzz.campaign import case_key
from repro.fuzz.generator import generate_spec
from repro.fuzz.lowering import ISAS as FUZZ_ISAS, lower
from repro.fuzz.oracle import clone_memory, run_case
from repro.fuzz.reference import materialize
from repro.harness import fig8
from repro.harness.diskcache import ResultCache, code_version_salt
from repro.harness.executor import CampaignExecutor
from repro.harness.runner import Runner, RunRecord, RunSpec
from repro.kernels import get_kernel
from repro.sim.functional import FunctionalSimulator
from repro.sim.simulator import Simulator

Counts = Dict[str, float]
WARM = "warm"


@dataclass
class Op:
    """One unit of measured work."""

    kind: str  # WARM for a cache load, else the workload's cold op kind
    label: str
    run: Callable[[], object]
    check: Callable[[object], Counts]


#: a simulation a workload's ops perform, rebuilt from scratch for the
#: traced run's memory pass: () -> (program, memory, machine config)
SimulationFactory = Callable[[], Tuple[object, object, MachineConfig]]


def machine_for(isa: str) -> MachineConfig:
    return uve_machine() if isa == "uve" else baseline_machine()


class CycleCache:
    """One cycle's result cache in a fresh directory: cold ops store
    their results (untimed), warm ops load them back (timed) and must
    get exactly what was stored."""

    def __init__(self, scratch: Path, salt: str, record_cls=dict) -> None:
        self.root = Path(tempfile.mkdtemp(prefix="cache-", dir=scratch))
        self.cache = ResultCache(
            root=self.root, salt=salt, record_cls=record_cls
        )
        self.stored: Dict[str, object] = {}

    def put(self, key: str, payload: dict) -> None:
        self.cache.store(key, payload)
        self.stored[key] = json.loads(json.dumps(payload))

    def warm_op(self, label: str, key_of: Callable[[], str]) -> Op:
        def run():
            key = key_of()
            return key, self.cache.load(key)

        def check(outcome) -> Counts:
            key, payload = outcome
            if payload is None:
                raise AssertionError("warm-pass lookup missed the cache")
            if payload != self.stored[key]:
                raise AssertionError("cache returned a different result")
            return {"harness.cache_hits": 1}

        return Op(WARM, label, run, check)

    def close(self) -> None:
        shutil.rmtree(self.root, ignore_errors=True)


class SimWorkload:
    """Full simulations of a fixed kernel × ISA list."""

    name = "sim"
    #: kernel -> problem scale.  Each op then takes 0.12-0.25 s of host
    #: time (uncontended), so a run holds dozens of ops, no kernel
    #: dominates ``kinstr_per_s`` and the median op is not one kernel's
    #: alone; every working set stays L2-resident.
    SCALES = {
        "stream": 0.17, "memcpy": 0.3, "saxpy": 0.8,  # 1-D, memory-bound
        "gemm": 0.73, "jacobi-2d": 0.6,  # 2-D
        "irsmk": 0.75, "knn": 0.9,  # indirect
        "floyd-warshall": 0.4,  # starred: scalar code on the SVE core
    }
    PROGRAMS = tuple(
        (kernel, isa)
        for kernel in list(SCALES)[:-1]
        for isa in ("uve", "sve")
    ) + (("floyd-warshall", "sve"),)
    WARM_PASSES = 3
    #: op_s_tail percentile: >= 10 ops lie beyond it once a run holds
    #: 3 cycles.
    TAIL_PERCENTILE = 75

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.salt = code_version_salt()

    def _simulate(self, kernel_name: str, isa: str):
        kernel = get_kernel(kernel_name)
        wl = kernel.workload(seed=self.seed, scale=self.SCALES[kernel_name])
        cfg = machine_for(isa)
        program = kernel.build(isa, wl, cfg.vector_bits)
        result = Simulator(program, wl.memory, cfg).run()
        wl.verify()
        return program, result

    @staticmethod
    def _counts(program, result) -> Counts:
        engine = result.pipeline.engine
        l1d = result.hierarchy.l1d.stats
        return {
            "sim.committed": result.committed,
            "lower.static_instrs": len(program.instructions),
            "cpu.cycles": result.cycles,
            "cpu.ff_skipped_cycles": result.pipeline.ff_skipped_cycles,
            "engine.line_requests": (
                engine.stats.line_requests if engine else 0
            ),
            "engine.chunks_filled": (
                engine.stats.chunks_filled if engine else 0
            ),
            "memory.l1d_accesses": l1d.accesses,
            "memory.l1d_misses": l1d.misses,
            "memory.dram_bytes": result.hierarchy.dram.total_bytes,
        }

    def _key(self, kernel_name: str, isa: str) -> str:
        return RunSpec(kernel_name, isa).key(
            self.SCALES[kernel_name], self.seed
        )

    def cycle(self) -> Iterator[Op]:
        store = CycleCache(self.scratch, self.salt)
        try:
            for kernel_name, isa in self.PROGRAMS:
                def check(outcome, key=self._key(kernel_name, isa)):
                    program, result = outcome
                    store.put(key, result.to_dict())
                    return self._counts(program, result)

                yield Op(
                    "sim", f"{kernel_name}/{isa}",
                    lambda k=kernel_name, i=isa: self._simulate(k, i),
                    check,
                )
            for _ in range(self.WARM_PASSES):
                for kernel_name, isa in self.PROGRAMS:
                    yield store.warm_op(
                        f"{kernel_name}/{isa}",
                        lambda k=kernel_name, i=isa: self._key(k, i),
                    )
        finally:
            store.close()

    def simulations(self) -> Iterator[SimulationFactory]:
        for kernel_name, isa in self.PROGRAMS:
            def build(k=kernel_name, i=isa):
                kernel = get_kernel(k)
                wl = kernel.workload(seed=self.seed, scale=self.SCALES[k])
                cfg = machine_for(i)
                return kernel.build(i, wl, cfg.vector_bits), wl.memory, cfg
            yield build


class FuzzWorkload:
    """Differential-fuzz cases: generate, lower four ways, run each
    functionally and compare against the NumPy reference.  The cold ops
    use no verdict cache; warm passes load the verdicts back the way a
    re-run fuzz campaign does (generate + case key + load)."""

    name = "fuzz"
    #: cases 0..CASES-1 of the seed's campaign, in every cycle
    CASES = 1500
    #: the fuzz campaign default: every 10th case also runs the UVE
    #: program through the timing model, fast-forward on and off.
    TIMING_EVERY = 10
    WARM_PASSES = 1
    #: one op in ten is a timing case, several times slower than the
    #: rest, so p90 would sit on that step; p95 lies inside the timing
    #: cases (75 ops beyond it per cycle), where p99 would mostly tell
    #: which ten heavy cases the seed drew.
    TAIL_PERCENTILE = 95

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.salt = code_version_salt()
        #: case index -> _recount(spec)
        self._recounts: Dict[int, Tuple[int, int, int]] = {}

    def _timing(self, index: int) -> bool:
        return index % self.TIMING_EVERY == 0

    def _case(self, index: int):
        spec = generate_spec(self.seed, index)
        return spec, run_case(spec, check_timing=self._timing(index))

    def _counts(self, index: int, spec, report) -> Counts:
        """Reject a failing verdict, then count the case's simulated
        instructions: ``run_case`` reports verdicts, not counts, so the
        four lowerings are rerun, once per case and process."""
        if not report.ok:
            raise AssertionError(
                "; ".join(
                    f"{fl.isa} {fl.kind}: {fl.detail}"
                    for fl in report.failures
                )
            )
        if index not in self._recounts:
            self._recounts[index] = self._recount(spec)
        committed, static, uve_committed = self._recounts[index]
        if report.timing_checked:
            committed += 2 * uve_committed  # fast-forward on and off
        return {
            "sim.committed": committed,
            "lower.static_instrs": static,
            "fuzz.cases": 1,
            "fuzz.timing_checked": int(report.timing_checked),
        }

    @staticmethod
    def _recount(spec) -> Tuple[int, int, int]:
        """(committed, static instructions) over the four lowerings, and
        the UVE lowering's committed count."""
        art = materialize(spec)
        committed = static = uve_committed = 0
        for isa in FUZZ_ISAS:
            program = lower(spec, art, isa)
            summary = FunctionalSimulator(
                program, memory=clone_memory(art.memory),
                vector_bits=spec.vector_bits,
            ).run()
            committed += summary.committed
            static += len(program.instructions)
            if isa == "uve":
                uve_committed = summary.committed
        return committed, static, uve_committed

    def _key(self, index: int) -> str:
        spec = generate_spec(self.seed, index)
        return case_key(spec, None, self._timing(index))

    def cycle(self) -> Iterator[Op]:
        store = CycleCache(self.scratch, self.salt)
        try:
            for case in range(self.CASES):
                def check(outcome, case=case):
                    spec, report = outcome
                    counts = self._counts(case, spec, report)
                    store.put(
                        case_key(spec, None, report.timing_checked),
                        report.to_dict(),
                    )
                    return counts

                yield Op(
                    "fuzz", f"case {case}",
                    lambda i=case: self._case(i), check,
                )
            for _ in range(self.WARM_PASSES):
                for case in range(self.CASES):
                    yield store.warm_op(
                        f"case {case}", lambda i=case: self._key(i)
                    )
        finally:
            store.close()

    def simulations(self) -> Iterator[SimulationFactory]:
        for case in range(self.CASES):
            if not self._timing(case):
                continue
            def build(i=case):
                spec = generate_spec(self.seed, i)
                art = materialize(spec)
                cfg = uve_machine().with_(vector_bits=spec.vector_bits)
                return lower(spec, art, "uve"), clone_memory(art.memory), cfg
            yield build


class CampaignWorkload:
    """The Fig. 8 comparison set through ``CampaignExecutor(jobs=1)``:
    one cold pass into a fresh on-disk cache, then warm passes, each by
    a fresh executor, that load every spec back from it."""

    name = "campaign"
    SCALE = 0.1
    WARM_PASSES = 3
    #: >= 10 cold ops lie beyond p90 once a run holds 2 cycles.
    TAIL_PERCENTILE = 90

    def __init__(self, seed: int, scratch: Path) -> None:
        self.seed = seed
        self.scratch = scratch
        self.salt = code_version_salt()
        self.specs = fig8.comparison_specs(Runner(self.SCALE, seed))

    def _executor(self, cache: ResultCache) -> CampaignExecutor:
        return CampaignExecutor(
            scale=self.SCALE, seed=self.seed, jobs=1, cache=cache
        )

    @staticmethod
    def _submit(executor: CampaignExecutor, spec) -> str:
        """One spec through the executor: fingerprint, cache lookup and,
        on a miss, simulate + store."""
        key = spec.key(executor.scale, executor.seed, executor.lowering)
        executor.run_specs({key: spec})
        return key

    @staticmethod
    def _served(executor: CampaignExecutor, want: str) -> None:
        status = executor.events[-1].status
        if status != want:
            raise AssertionError(
                f"spec was served as {status!r}, not {want!r}"
            )

    def _static_instrs(self, spec) -> int:
        kernel = get_kernel(spec.kernel)
        wl = kernel.workload(seed=self.seed, scale=self.SCALE)
        cfg = spec.resolved_config()
        return len(kernel.build(spec.isa, wl, cfg.vector_bits).instructions)

    def cycle(self) -> Iterator[Op]:
        store = CycleCache(self.scratch, self.salt, record_cls=RunRecord)
        try:
            cache = store.cache
            cold = self._executor(cache)
            records = {}
            for spec in self.specs:
                def check(key, spec=spec) -> Counts:
                    self._served(cold, "miss")
                    record = records[key] = cold.runner.cached(key)
                    return {
                        "sim.committed": record.committed,
                        "cpu.cycles": record.cycles,
                        "memory.dram_bytes": record.dram_bytes,
                        "lower.static_instrs": self._static_instrs(spec),
                        "harness.cache_misses": 1,
                    }

                yield Op(
                    "cold", f"{spec.kernel}/{spec.isa}",
                    lambda s=spec: self._submit(cold, s), check,
                )
            for _ in range(self.WARM_PASSES):
                warm = self._executor(cache)

                def check(key, warm=warm) -> Counts:
                    self._served(warm, "hit-disk")
                    if warm.runner.cached(key) != records[key]:
                        raise AssertionError(
                            "warm-pass record differs from the cold pass"
                        )
                    return {"harness.cache_hits": 1}

                for spec in self.specs:
                    yield Op(
                        WARM, f"{spec.kernel}/{spec.isa}",
                        lambda s=spec, w=warm: self._submit(w, s), check,
                    )
        finally:
            store.close()

    def simulations(self) -> Iterator[SimulationFactory]:
        return iter(())


WORKLOADS = {w.name: w for w in (SimWorkload, FuzzWorkload, CampaignWorkload)}
