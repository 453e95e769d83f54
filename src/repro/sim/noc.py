"""Interconnect (NoC) accounting for the reference simulator."""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.interconnect import Interconnect
from repro.arch.pe_array import PEArray

Coord = tuple[int, ...]


@dataclass
class NocModel:
    """Answers "who can forward this operand?" and counts transfers.

    The predecessors are the links of the interconnect's Definition 3
    relation, the same links the analyzer's predecessor table holds.
    """

    pe_array: PEArray
    interconnect: Interconnect
    transfers_per_tensor: dict[str, int] = field(default_factory=dict)

    def __post_init__(self):
        self._predecessors = self.interconnect.predecessors(self.pe_array)

    def predecessors(self, destination: Coord) -> list[Coord]:
        return self._predecessors.get(tuple(destination), [])

    @property
    def same_cycle_forwarding(self) -> bool:
        """Multicast-style wires forward within the same time-step."""
        return self.interconnect.time_interval == 0

    def record_transfer(self, tensor: str, count: int = 1) -> None:
        self.transfers_per_tensor[tensor] = self.transfers_per_tensor.get(tensor, 0) + count

    @property
    def total_transfers(self) -> int:
        return sum(self.transfers_per_tensor.values())
