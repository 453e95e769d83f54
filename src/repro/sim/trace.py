"""Simulation results and optional per-step traces."""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class StepRecord:
    """Statistics of one simulated time-step."""

    step: int
    active_pes: int
    instances: int
    register_hits: int
    noc_transfers: int
    scratchpad_reads: int
    scratchpad_writes: int
    cycles: float


@dataclass
class SimulationResult:
    """Aggregate statistics of one simulated dataflow execution."""

    operation: str
    dataflow: str
    architecture: str
    total_cycles: float
    compute_cycles: float
    num_instances: int
    num_time_steps: int
    num_pes: int
    register_hits: int
    noc_transfers: int
    scratchpad_reads: int
    scratchpad_writes: int
    reads_per_tensor: dict[str, int] = field(default_factory=dict)
    writes_per_tensor: dict[str, int] = field(default_factory=dict)
    noc_per_tensor: dict[str, int] = field(default_factory=dict)
    steps: list[StepRecord] = field(default_factory=list)

    @property
    def average_pe_utilization(self) -> float:
        """Busy PE-cycles over total PE-cycles (uses the compute cycles only)."""
        if self.compute_cycles == 0 or self.num_pes == 0:
            return 0.0
        return self.num_instances / (self.num_pes * self.compute_cycles)

    @property
    def scratchpad_traffic(self) -> int:
        return self.scratchpad_reads + self.scratchpad_writes

    @property
    def macs_per_cycle(self) -> float:
        return self.num_instances / self.total_cycles if self.total_cycles else 0.0

    def reuse_factor(self, tensor: str) -> float:
        """Accesses per scratchpad transfer for one tensor, as observed by the simulator."""
        moved = self.reads_per_tensor.get(tensor, 0) + self.writes_per_tensor.get(tensor, 0)
        accesses = self.accesses_per_tensor.get(tensor, 0)
        if moved == 0:
            return float(accesses) if accesses else 1.0
        return accesses / moved

    #: Filled by the simulator: total (instance, reference) accesses per tensor.
    accesses_per_tensor: dict[str, int] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "operation": self.operation,
            "dataflow": self.dataflow,
            "architecture": self.architecture,
            "total_cycles": self.total_cycles,
            "compute_cycles": self.compute_cycles,
            "average_pe_utilization": self.average_pe_utilization,
            "register_hits": self.register_hits,
            "noc_transfers": self.noc_transfers,
            "scratchpad_reads": self.scratchpad_reads,
            "scratchpad_writes": self.scratchpad_writes,
        }

    def summary(self) -> str:
        return (
            f"{self.operation} / {self.dataflow} on {self.architecture}: "
            f"{self.total_cycles:.0f} cycles, util {self.average_pe_utilization:.1%}, "
            f"spad {self.scratchpad_traffic} words, noc {self.noc_transfers} words"
        )
