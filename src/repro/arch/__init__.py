"""Spatial-architecture specifications.

A spatial architecture (Section II-A) is a PE array, an interconnection
network between the PEs, and a memory hierarchy (PE registers, on-chip
scratchpad, off-chip DRAM).  The classes here describe those pieces and build
the **interconnection relation** of Definition 3 for the topologies modeled in
the paper (1D/2D systolic, mesh, multicast, reduction tree).  That relation is
each topology's only statement of its links: the performance model's
predecessor table and the reference simulator's NoC are both enumerated from
it (:meth:`Interconnect.links`).

:mod:`repro.arch.repository` provides the "common spatial architecture repo"
of Figure 2: ready-made specifications resembling TPU, Eyeriss, ShiDianNao,
MAERI and NVDLA-style accelerators.
"""

from repro.arch.pe_array import PEArray
from repro.arch.interconnect import (
    Interconnect,
    Mesh,
    Multicast1D,
    Multicast2D,
    NoInterconnect,
    ReductionTree,
    Systolic1D,
    Systolic2D,
    make_interconnect,
)
from repro.arch.memory import MemoryHierarchy, MemoryLevel
from repro.arch.energy import EnergyTable
from repro.arch.spec import ArchSpec
from repro.arch.repository import (
    dot_product_engine,
    eyeriss_like,
    maeri_like,
    mesh_cgra,
    nvdla_like,
    shidiannao_like,
    tpu_like,
)

__all__ = [
    "PEArray",
    "Interconnect",
    "Systolic1D",
    "Systolic2D",
    "Mesh",
    "Multicast1D",
    "Multicast2D",
    "ReductionTree",
    "NoInterconnect",
    "make_interconnect",
    "MemoryLevel",
    "MemoryHierarchy",
    "EnergyTable",
    "ArchSpec",
    "tpu_like",
    "eyeriss_like",
    "shidiannao_like",
    "maeri_like",
    "nvdla_like",
    "mesh_cgra",
    "dot_product_engine",
]
