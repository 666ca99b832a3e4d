"""Pipeline statistics, including the paper's reported metrics."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict


@dataclass
class PipelineStats:
    cycles: float = 0.0
    committed: int = 0
    fetched: int = 0
    #: cycles on which rename could not process an instruction, by cause
    rename_block_cycles: int = 0
    rename_block_causes: Dict[str, int] = field(default_factory=dict)
    fetch_stall_cycles: int = 0
    branch_mispredicts: int = 0
    branches: int = 0
    loads_issued: int = 0
    stores_issued: int = 0
    #: DRAM bus utilization, (ReadBW+WriteBW)/PeakBW (Fig. 8.D)
    bus_utilization: float = 0.0

    def as_dict(self) -> Dict[str, object]:
        """Every counter as a plain dict — the fast-forward equivalence
        gate compares these bit-for-bit, and BENCH records embed them."""
        return {
            "cycles": self.cycles,
            "committed": self.committed,
            "fetched": self.fetched,
            "rename_block_cycles": self.rename_block_cycles,
            "rename_block_causes": dict(
                sorted(self.rename_block_causes.items())
            ),
            "fetch_stall_cycles": self.fetch_stall_cycles,
            "branch_mispredicts": self.branch_mispredicts,
            "branches": self.branches,
            "loads_issued": self.loads_issued,
            "stores_issued": self.stores_issued,
            "bus_utilization": self.bus_utilization,
        }

    @property
    def ipc(self) -> float:
        return self.committed / self.cycles if self.cycles else 0.0

    @property
    def rename_blocks_per_cycle(self) -> float:
        """Fraction of cycles the rename stage was blocked (Fig. 8.C)."""
        return self.rename_block_cycles / self.cycles if self.cycles else 0.0

    @property
    def mispredict_rate(self) -> float:
        return self.branch_mispredicts / self.branches if self.branches else 0.0
