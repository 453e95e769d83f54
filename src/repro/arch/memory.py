"""Memory hierarchy of a spatial architecture.

The paper assumes three levels (Section II-A): per-PE registers, an on-chip
scratchpad, and off-chip memory.  The scratchpad bandwidth (in bits per cycle,
matching Figure 6's x-axis) limits how fast the UniqueVolume of the tensors
can be streamed in and out; double buffering is assumed, so communication
overlaps computation (Section V-B).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ArchitectureError


@dataclass(frozen=True)
class MemoryLevel:
    """One level of the hierarchy."""

    name: str
    size_bytes: int
    bandwidth_bits_per_cycle: float

    def __post_init__(self):
        if self.size_bytes < 0:
            raise ArchitectureError(f"memory level {self.name} has negative size")
        if self.bandwidth_bits_per_cycle <= 0:
            raise ArchitectureError(f"memory level {self.name} needs positive bandwidth")

    def bandwidth_words_per_cycle(self, word_bits: int) -> float:
        return self.bandwidth_bits_per_cycle / word_bits


@dataclass(frozen=True)
class MemoryHierarchy:
    """Registers + scratchpad + DRAM, with a common word size."""

    scratchpad: MemoryLevel
    dram: MemoryLevel
    register_file_words: int = 16
    word_bits: int = 16

    def __post_init__(self):
        if self.word_bits <= 0:
            raise ArchitectureError("word size must be positive")
        if self.register_file_words <= 0:
            raise ArchitectureError("register file must hold at least one word")

    # -- convenience constructors -----------------------------------------------

    @classmethod
    def default(
        cls,
        scratchpad_kib: int = 128,
        scratchpad_bandwidth_bits: float = 128.0,
        dram_bandwidth_bits: float = 64.0,
        word_bits: int = 16,
        register_file_words: int = 16,
    ) -> "MemoryHierarchy":
        return cls(
            scratchpad=MemoryLevel("scratchpad", scratchpad_kib * 1024, scratchpad_bandwidth_bits),
            dram=MemoryLevel("dram", 1 << 34, dram_bandwidth_bits),
            register_file_words=register_file_words,
            word_bits=word_bits,
        )

    def with_scratchpad_bandwidth(self, bandwidth_bits: float) -> "MemoryHierarchy":
        """Copy of the hierarchy with a different scratchpad bandwidth (for sweeps)."""
        return MemoryHierarchy(
            scratchpad=MemoryLevel(
                self.scratchpad.name, self.scratchpad.size_bytes, bandwidth_bits
            ),
            dram=self.dram,
            register_file_words=self.register_file_words,
            word_bits=self.word_bits,
        )

    # -- derived quantities --------------------------------------------------------

    @property
    def scratchpad_words_per_cycle(self) -> float:
        return self.scratchpad.bandwidth_words_per_cycle(self.word_bits)
