"""Energy model.

Table I lists latency/energy modeling among TENET's capabilities; the energy
estimate charges the architecture's per-action energy table once per event:

* one MAC per loop instance,
* one register-file access per (stamp, element) access pair (``TotalVolume``),
* one NoC hop per spatially reused word (``SpatialReuseVolume``),
* one scratchpad access per word moved between the array and the scratchpad
  (``UniqueVolume``), and
* one DRAM access per distinct element of each tensor (its footprint), i.e.
  each tensor is streamed from/to off-chip memory once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

from repro.arch.energy import EnergyTable
from repro.core.volumes import VolumeMetrics


@dataclass(frozen=True)
class EnergyBreakdown:
    """Energy per event class, in picojoules."""

    mac_pj: float
    register_pj: float
    noc_pj: float
    scratchpad_pj: float
    dram_pj: float

    @property
    def total_pj(self) -> float:
        return self.mac_pj + self.register_pj + self.noc_pj + self.scratchpad_pj + self.dram_pj

    def as_dict(self) -> dict[str, float]:
        return {
            "mac_pj": self.mac_pj,
            "register_pj": self.register_pj,
            "noc_pj": self.noc_pj,
            "scratchpad_pj": self.scratchpad_pj,
            "dram_pj": self.dram_pj,
            "total_pj": self.total_pj,
        }


def compute_energy(
    mac_count: int,
    volumes: Mapping[str, VolumeMetrics],
    table: EnergyTable,
    noc_hop_distance: int = 1,
) -> EnergyBreakdown:
    """Combine volume metrics with the per-action energy table."""
    total_accesses = sum(volume.total for volume in volumes.values())
    spatial_reuse = sum(volume.spatial_reuse for volume in volumes.values())
    unique = sum(volume.unique for volume in volumes.values())
    footprint = sum(volume.footprint for volume in volumes.values())
    return EnergyBreakdown(
        mac_pj=mac_count * table.mac_pj,
        register_pj=total_accesses * table.register_access_pj,
        noc_pj=spatial_reuse * noc_hop_distance * table.noc_hop_pj,
        scratchpad_pj=unique * table.scratchpad_access_pj,
        dram_pj=footprint * table.dram_access_pj,
    )
