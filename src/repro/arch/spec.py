"""Complete spatial-architecture specification."""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from repro.arch.energy import EnergyTable
from repro.arch.interconnect import Interconnect, Systolic2D, make_interconnect
from repro.arch.memory import MemoryHierarchy
from repro.arch.pe_array import PEArray


@dataclass(frozen=True)
class ArchSpec:
    """PE array + interconnect + memory hierarchy + energy table.

    This is the "hardware specification" input of Figure 2.  The defaults
    describe the 8x8 2D-systolic configuration used for most of the paper's
    kernel-level experiments.
    """

    pe_array: PEArray = field(default_factory=lambda: PEArray((8, 8)))
    interconnect: Interconnect = field(default_factory=Systolic2D)
    memory: MemoryHierarchy = field(default_factory=MemoryHierarchy.default)
    energy: EnergyTable = field(default_factory=EnergyTable)
    frequency_mhz: float = 500.0
    name: str = "spatial-arch"

    # -- derived quantities -----------------------------------------------------

    @property
    def num_pes(self) -> int:
        return self.pe_array.size

    @property
    def peak_macs_per_cycle(self) -> int:
        return self.pe_array.total_macs

    def ideal_latency(self, mac_count: int) -> float:
        """Cycles needed at 100% utilisation (the normalisation of Figure 7)."""
        return mac_count / self.peak_macs_per_cycle

    @property
    def scratchpad_bandwidth_bits(self) -> float:
        return self.memory.scratchpad.bandwidth_bits_per_cycle

    # -- variations ----------------------------------------------------------------

    def with_bandwidth(self, bandwidth_bits: float) -> "ArchSpec":
        """Copy with a different scratchpad bandwidth (Figure 6's sweep axis)."""
        return replace(self, memory=self.memory.with_scratchpad_bandwidth(bandwidth_bits))

    def with_interconnect(self, interconnect: Interconnect) -> "ArchSpec":
        return replace(self, interconnect=interconnect)

    def with_pe_array(self, pe_array: PEArray) -> "ArchSpec":
        return replace(self, pe_array=pe_array)

    def describe(self) -> str:
        return (
            f"{self.name}: {self.pe_array} PEs, {self.interconnect.name} interconnect, "
            f"{self.memory.scratchpad.bandwidth_bits_per_cycle:g} bit/cycle scratchpad, "
            f"{self.memory.word_bits}-bit words"
        )

    def __str__(self) -> str:
        return self.describe()


def make_arch(
    pe_dims: Sequence[int] = (8, 8),
    interconnect: str = "2d-systolic",
    bandwidth_bits: float = 128.0,
    word_bits: int = 16,
    name: str | None = None,
    **interconnect_kwargs,
) -> ArchSpec:
    """Build an architecture from compact parameters: PE array extents, an
    interconnect name (:func:`~repro.arch.interconnect.make_interconnect`)
    and the scratchpad bandwidth in bits per cycle."""
    pe_array = PEArray(tuple(pe_dims))
    network = make_interconnect(interconnect, **interconnect_kwargs)
    memory = MemoryHierarchy.default(
        scratchpad_bandwidth_bits=bandwidth_bits, word_bits=word_bits
    )
    label = name or f"{'x'.join(str(d) for d in pe_dims)}-{network.name}"
    return ArchSpec(pe_array=pe_array, interconnect=network, memory=memory, name=label)
