"""Machine configuration (paper Table I).

Defaults reproduce the evaluated configuration: an ARM Cortex-A76-like
out-of-order core at 1.5 GHz with 512-bit vectors, 64 KB L1 caches (stride
prefetcher, depth 16), a 256 KB L2 (AMPM prefetcher, queue 32), dual-channel
DDR3-1600, and — for UVE — a Streaming Engine with 2 processing modules and
8-entry per-stream FIFOs.
"""
from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict

from repro.errors import ConfigError
from repro.isa.microop import OpClass


@dataclass(frozen=True)
class CacheConfig:
    name: str
    size_bytes: int
    assoc: int
    hit_latency: int
    mshrs: int
    line_bytes: int = 64
    #: line-wide access ports (bandwidth limit in lines/cycle)
    ports: int = 2

    def __post_init__(self) -> None:
        lines = self.size_bytes // self.line_bytes
        if lines % self.assoc != 0:
            raise ConfigError(f"{self.name}: lines not divisible by assoc")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // self.line_bytes // self.assoc


@dataclass(frozen=True)
class DramConfig:
    """Dual-channel DDR3-1600 (Table I), timed in core cycles @1.5 GHz."""

    channels: int = 2
    #: loaded-system access latency in core cycles (~93 ns @1.5 GHz,
    #: including controller queueing).
    access_latency: int = 140
    #: core cycles one 64 B line transfer occupies a channel
    #: (64 B / 12.8 GB/s = 5 ns = 7.5 cycles @1.5 GHz).
    line_transfer_cycles: float = 7.5
    line_bytes: int = 64

    @property
    def peak_bytes_per_cycle(self) -> float:
        return self.channels * self.line_bytes / self.line_transfer_cycles


@dataclass(frozen=True)
class PrefetcherConfig:
    """Baseline-core prefetchers (Table I)."""

    l1_stride_enabled: bool = True
    l1_stride_depth: int = 16
    l1_stride_table_entries: int = 64
    l2_ampm_enabled: bool = True
    l2_ampm_queue: int = 32
    l2_ampm_zones: int = 64


@dataclass(frozen=True)
class EngineConfig:
    """Streaming Engine (Table I, §IV-B)."""

    processing_modules: int = 2
    fifo_depth: int = 8  # vector-sized entries per stream
    max_streams: int = 32
    max_dims: int = 8
    max_mods: int = 7
    memory_request_queue: int = 16
    #: extra cycle when the address generator switches descriptor dimension
    dim_switch_penalty: int = 1
    #: load + store ports into the cache hierarchy (Table I: 1+1)
    load_ports: int = 1
    store_ports: int = 1
    scheduler_policy: str = "fifo-occupancy"  # or "round-robin" (ablation)
    #: override the per-stream cache level ("L1" | "L2" | "MEM"); None
    #: keeps each stream's configured level (Fig. 11 sweeps this)
    mem_level_override: str = ""
    #: pool the load-FIFO capacity across streams instead of fixed
    #: per-stream queues (the paper's §IV-B future-work design); a busy
    #: stream may then run ahead up to 4x its nominal depth while others
    #: are idle
    shared_fifo: bool = False


@dataclass(frozen=True)
class CoreConfig:
    """Out-of-order core parameters (Table I)."""

    # Pipeline widths.
    fetch_width: int = 4
    commit_width: int = 4
    issue_width: int = 8
    # Window structures.
    iq_entries: int = 80
    lq_entries: int = 32
    sq_entries: int = 48
    rob_entries: int = 128
    # Physical register files.
    int_phys_regs: int = 128
    fp_phys_regs: int = 192
    vec_phys_regs: int = 48
    # Functional units (per-cluster port counts + 24-entry schedulers).
    int_alus: int = 2
    fp_units: int = 2
    load_ports: int = 2
    store_ports: int = 1
    scheduler_entries: int = 24
    # Front-end depth: cycles from fetch redirect to rename (mispredict cost).
    frontend_depth: int = 11
    decode_queue: int = 16
    #: forward MAC results to a dependent MAC's accumulator two cycles
    #: early (Cortex-A76 FMLA accumulator forwarding); off by default —
    #: the simple fixed-latency model matches the paper's Fig. 8.E shape
    mac_forwarding: bool = False


#: Execution latencies per op class (cycles), Cortex-A76-flavoured.
DEFAULT_LATENCIES: Dict[OpClass, int] = {
    OpClass.INT_ALU: 1,
    OpClass.INT_MUL: 3,
    OpClass.INT_DIV: 12,
    OpClass.FP_ALU: 2,
    OpClass.FP_MUL: 3,
    OpClass.FP_DIV: 11,
    OpClass.FP_MAC: 4,
    OpClass.VEC_ALU: 2,
    OpClass.VEC_MUL: 3,
    OpClass.VEC_MAC: 4,
    OpClass.VEC_DIV: 13,
    OpClass.VEC_RED: 4,
    OpClass.VEC_MISC: 1,
    OpClass.BRANCH: 1,
    OpClass.STREAM_CFG: 1,
    OpClass.STREAM_CTL: 1,
    OpClass.NOP: 1,
    OpClass.HALT: 1,
}


@dataclass(frozen=True)
class MachineConfig:
    """Complete machine: core + memory + (optionally) Streaming Engine."""

    core: CoreConfig = field(default_factory=CoreConfig)
    #: MSHR depths follow gem5-classic-like values (the paper's substrate):
    #: a handful of outstanding L1 misses, more at the L2.
    l1d: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1D", 64 * 1024, 4, 4, 6, ports=3)
    )
    l1i: CacheConfig = field(
        default_factory=lambda: CacheConfig("L1I", 64 * 1024, 4, 1, 8, ports=1)
    )
    l2: CacheConfig = field(
        default_factory=lambda: CacheConfig("L2", 256 * 1024, 8, 12, 30, ports=2)
    )
    dram: DramConfig = field(default_factory=DramConfig)
    prefetch: PrefetcherConfig = field(default_factory=PrefetcherConfig)
    engine: EngineConfig = field(default_factory=EngineConfig)
    vector_bits: int = 512
    #: streaming support on (UVE core) or off (baseline ARM-like core)
    streaming: bool = True
    #: event-horizon fast-forward: when a cycle makes no progress, jump
    #: straight to the earliest cycle any state can change instead of
    #: ticking through the stall.  Produces bit-identical PipelineStats
    #: (see docs/TIMING.md "Fast-forward"); off simulates every cycle.
    fast_forward: bool = True
    latencies: Dict[OpClass, int] = field(
        default_factory=lambda: dict(DEFAULT_LATENCIES)
    )
    freq_ghz: float = 1.5

    def __post_init__(self) -> None:
        # The hierarchy indexes every level, and trains its prefetchers,
        # by one line number, so the levels must share a line size.
        if not (
            self.l1d.line_bytes == self.l2.line_bytes == self.dram.line_bytes
        ):
            raise ConfigError(
                f"the L1D, L2 and DRAM line sizes must agree, got l1d "
                f"{self.l1d.line_bytes} B, l2 {self.l2.line_bytes} B, "
                f"dram {self.dram.line_bytes} B"
            )

    def with_(self, **kwargs) -> "MachineConfig":
        """Return a modified copy (sweep helper)."""
        return replace(self, **kwargs)


def uve_machine(**kwargs) -> MachineConfig:
    """The paper's UVE configuration (streaming on, no prefetchers needed —
    they stay on for the scalar side, as stream and conventional accesses
    coexist)."""
    return MachineConfig(streaming=True, **kwargs)


def baseline_machine(**kwargs) -> MachineConfig:
    """The paper's baseline ARM configuration (SVE/NEON): identical core,
    no Streaming Engine, stride + AMPM prefetchers."""
    return MachineConfig(streaming=False, **kwargs)


def default_machine(isa: str) -> MachineConfig:
    """The machine ``isa`` runs on unless a run names another: the UVE
    core for UVE, the baseline core for every other ISA."""
    return uve_machine() if isa == "uve" else baseline_machine()
