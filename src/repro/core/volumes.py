"""Volume metrics (Table II and Figure 5).

All metrics are counts of relation elements:

* ``TotalVolume``  — number of (spacetime stamp, element) pairs of the data
  assignment relation: every access the PE array makes to the tensor.
* ``ReuseVolume``  — pairs whose element is also present at an *adjacent
  predecessor* stamp (same PE one time-stamp earlier, or an interconnected PE
  within the interconnect's time interval), i.e. accesses that do not need the
  scratchpad.
* ``UniqueVolume`` — ``Total - Reuse``: the minimum traffic between the PE
  array and the scratchpad.
* ``TemporalReuseVolume`` / ``SpatialReuseVolume`` — the two disjoint parts of
  ``ReuseVolume`` (same-PE register reuse vs. reuse through the interconnect).
* ``ReuseFactor``  — ``Total / Unique``.

The computation enumerates the assignment relation as integer key arrays and
answers the adjacency queries with sorted-array membership tests, processing
the relation in bounded-size chunks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ModelError


@dataclass(frozen=True)
class VolumeMetrics:
    """Volume metrics of one tensor under one dataflow."""

    tensor: str
    total: int
    reuse: int
    temporal_reuse: int
    spatial_reuse: int
    footprint: int

    @property
    def unique(self) -> int:
        """Minimum words transferred between the PE array and the scratchpad."""
        return self.total - self.reuse

    @property
    def reuse_factor(self) -> float:
        """How many times a word is used per scratchpad transfer (Table II)."""
        if self.unique == 0:
            return float(self.total) if self.total else 1.0
        return self.total / self.unique

    def as_dict(self) -> dict[str, float]:
        return {
            "tensor": self.tensor,
            "total": self.total,
            "reuse": self.reuse,
            "unique": self.unique,
            "temporal_reuse": self.temporal_reuse,
            "spatial_reuse": self.spatial_reuse,
            "footprint": self.footprint,
            "reuse_factor": self.reuse_factor,
        }

    def __str__(self) -> str:
        return (
            f"{self.tensor}: total={self.total} unique={self.unique} "
            f"temporal={self.temporal_reuse} spatial={self.spatial_reuse} "
            f"reuse_factor={self.reuse_factor:.2f}"
        )


def _membership(sorted_keys: np.ndarray, candidates: np.ndarray) -> np.ndarray:
    """Vectorised membership of ``candidates`` in the sorted key array."""
    positions = np.searchsorted(sorted_keys, candidates)
    positions = np.clip(positions, 0, sorted_keys.size - 1)
    return sorted_keys[positions] == candidates


def compute_volume_metrics(
    tensor: str,
    pe_lin: np.ndarray,
    t_rank: np.ndarray,
    element_keys: np.ndarray,
    predecessor_table: np.ndarray,
    num_pes: int,
    spatial_interval: int,
    chunk_size: int = 1 << 20,
    element_extent: int | None = None,
) -> VolumeMetrics:
    """Compute the Table II metrics for one tensor.

    Parameters
    ----------
    pe_lin, t_rank, element_keys:
        Parallel arrays with one entry per (instance, reference) access pair:
        the executing PE's linear index, the dense rank of its time-stamp in
        the global lexicographic execution order, and an integer key
        identifying the accessed element.
    predecessor_table:
        ``(num_pes, max_degree)`` array of interconnect predecessors, ``-1``
        padded (see :class:`repro.core.spacetime.SpacetimeMap`).
    spatial_interval:
        Time-stamp distance for reuse through the interconnect (1 for
        systolic/mesh links, 0 for multicast wires).  Register reuse within
        one PE is always one time-stamp back (Definition 4).
    element_extent:
        Exclusive upper bound on ``element_keys`` (the mixed-radix extent of
        the element coordinates).  When provided and small enough, the raw
        keys are combined with the spacetime keys directly; otherwise the
        element keys are first densified.
    """
    from repro.isl.enumeration import sorted_unique

    if not (pe_lin.shape == t_rank.shape == element_keys.shape):
        raise ModelError("assignment arrays must have identical shapes")
    if pe_lin.size == 0:
        return VolumeMetrics(tensor, 0, 0, 0, 0, 0)

    unique_elements = sorted_unique(element_keys)
    footprint_count = int(unique_elements.size)

    max_rank = int(t_rank.max()) + 1
    stamp_extent = max_rank * num_pes

    if element_extent is not None and stamp_extent * element_extent < (1 << 62):
        footprint = int(element_extent)
        dense_elements = element_keys
    elif stamp_extent * footprint_count < (1 << 62):
        footprint = footprint_count
        dense_elements = np.searchsorted(unique_elements, element_keys)
    else:
        raise ModelError(
            "assignment relation too large for int64 keys; scale the workload "
            "(see repro.workloads.scaling)"
        )

    pair_keys = (t_rank.astype(np.int64) * num_pes + pe_lin) * footprint + dense_elements
    assign_keys = sorted_unique(pair_keys)
    total = int(assign_keys.size)

    temporal_count = 0
    spatial_count = 0
    reuse_count = 0

    max_degree = predecessor_table.shape[1] if predecessor_table.size else 0
    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        keys = assign_keys[start:stop]
        elements = keys % footprint
        stamps = keys // footprint
        pes = stamps % num_pes
        ranks = stamps // num_pes

        # Temporal reuse: same PE, one time-stamp earlier.
        previous_rank = ranks - 1
        valid = previous_rank >= 0
        candidates = (previous_rank * num_pes + pes) * footprint + elements
        temporal_mask = valid & _membership(assign_keys, candidates)

        # Spatial reuse: an interconnected predecessor PE, ``spatial_interval`` earlier.
        # For same-cycle (multicast) reuse one PE in the group must act as the
        # fetcher, so only providers with a smaller linear index count — this
        # keeps UniqueVolume >= footprint.
        spatial_mask = np.zeros(keys.shape, dtype=bool)
        source_rank = ranks - spatial_interval
        rank_valid = source_rank >= 0
        for slot in range(max_degree):
            sources = predecessor_table[pes, slot]
            slot_valid = rank_valid & (sources >= 0)
            if spatial_interval == 0:
                slot_valid &= sources < pes
            if not slot_valid.any():
                continue
            candidates = (source_rank * num_pes + sources) * footprint + elements
            spatial_mask |= slot_valid & _membership(assign_keys, candidates)

        temporal_count += int(temporal_mask.sum())
        spatial_count += int((spatial_mask & ~temporal_mask).sum())
        reuse_count += int((temporal_mask | spatial_mask).sum())

    return VolumeMetrics(
        tensor=tensor,
        total=total,
        reuse=reuse_count,
        temporal_reuse=temporal_count,
        spatial_reuse=spatial_count,
        footprint=footprint_count,
    )
