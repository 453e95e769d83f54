"""Shared evaluation engine: cached relation materialisation and batched sweeps.

The paper's headline scalability claim — 25 920 CONV dataflows explored in
under an hour — rests on the observation that most of the relation machinery
is *dataflow independent*: the iteration domain, the access relations and the
element encodings depend only on the operation, while a candidate dataflow
only contributes the space-stamp and time-stamp columns.  This module turns
that observation into an architectural seam:

* :class:`RelationMaterializer` extracts relation materialisation out of the
  analyzer.  Without a cache it streams the iteration domain chunk by chunk,
  exactly like the original analyzer.  With a :class:`RelationCache` attached
  it materialises the dataflow-independent relations once per
  ``(operation, chunk_size)`` and re-evaluates only the PE/time stamps per
  candidate.
* :class:`RelationCache` is a small LRU keyed by the operation's structural
  signature, so sweeps over many operations can share one cache.
* :class:`EvaluationEngine` evaluates batches of candidate dataflows with an
  optimised (but bit-identical) metric kernel, optional process-pool
  parallelism (``jobs``), objective-aware early termination, and a report
  memo keyed by ``(operation, dataflow signature, architecture)``.

``TenetAnalyzer.analyze()`` remains the public single-candidate API; it is a
thin wrapper over the streaming materialiser and the shared metric pipeline.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.arch.pe_array import PEArray
from repro.arch.spec import ArchSpec
from repro.core.backends import make_backend
from repro.core.bandwidth import compute_bandwidth
from repro.core.dataflow import Dataflow
from repro.core.energy_model import compute_energy
from repro.core.latency import compute_latency
from repro.core.metrics import PerformanceReport
from repro.core.shm import attach_relations, share_relations
from repro.core.spacetime import SpacetimeMap
from repro.core.utilization import UtilizationMetrics, compute_utilization
from repro.core.volumes import VolumeMetrics, compute_volume_metrics
from repro.core.xp import resolve_namespace
from repro.errors import DataflowError, ExplorationError, ModelError, SpaceError
from repro.isl.enumeration import chunk_length, sorted_unique
from repro.tensor.operation import TensorOp

# -- signatures -------------------------------------------------------------------


def op_signature(op: TensorOp) -> str:
    """Structural identity of an operation (domain plus access relations)."""
    accesses = ";".join(f"{a.tensor}:{a.mode.value}:{a.relation}" for a in op.accesses)
    return f"{op.name}|{op.domain}|{accesses}"


def dataflow_signature(dataflow: Dataflow) -> str:
    """Structural identity of a dataflow: its space/time expressions, not its name.

    Two candidates with the same signature assign every loop instance the same
    spacetime stamp and therefore produce identical performance reports.  The
    signature is cached on the dataflow (its maps are immutable in practice),
    so sweeps do not re-render the expression strings per batch.
    """
    signature = getattr(dataflow, "_signature_cache", None)
    if signature is None:
        pe_text = ",".join(str(e) for e in dataflow.pe_exprs)
        time_text = ",".join(str(e) for e in dataflow.time_exprs)
        signature = f"PE[{pe_text}]|T[{time_text}]"
        dataflow._signature_cache = signature
    return signature


def arch_signature(arch: ArchSpec) -> str:
    """Identity of an architecture for report memoisation."""
    return f"{arch.describe()}|{arch.energy!r}|{arch.frequency_mhz}"


# -- dataflow-independent relations -------------------------------------------------


@dataclass
class TensorColumns:
    """Per-reference element-coordinate bounds of one tensor (shared radix)."""

    bounds: list[tuple[int, int]]

    @property
    def extent(self) -> int:
        """Exclusive upper bound of the mixed-radix element keys."""
        total = 1
        for lo, hi in self.bounds:
            total *= max(1, hi - lo + 1)
        return total

    def encode(self, coords: np.ndarray) -> np.ndarray:
        keys = np.zeros(coords.shape[0], dtype=np.int64)
        scale = 1
        for column, (lo, hi) in enumerate(self.bounds):
            extent = max(1, hi - lo + 1)
            keys += (coords[:, column] - lo) * scale
            scale *= extent
        return keys

    def encode_columns(self, columns: Sequence[np.ndarray]) -> np.ndarray:
        """Encode per-coordinate arrays without stacking them first."""
        keys: np.ndarray | None = None
        scale = 1
        for column, (lo, hi) in zip(columns, self.bounds):
            extent = max(1, hi - lo + 1)
            term = (column.astype(np.int64) - lo) * scale
            keys = term if keys is None else keys + term
            scale *= extent
        if keys is None:
            return np.zeros(0, dtype=np.int64)
        return keys


@dataclass
class TensorRelations:
    """Cached, dataflow-independent view of one tensor's access relation."""

    #: Mixed-radix element keys, one array per textual reference.
    raw_keys: list[np.ndarray]
    #: Keys of all references concatenated and densified to ``[0, footprint)``.
    dense_keys: np.ndarray
    #: Exclusive mixed-radix extent of the raw keys.
    extent: int
    #: Number of distinct elements touched (the tensor's footprint).
    footprint: int

    @property
    def references(self) -> int:
        return len(self.raw_keys)


@dataclass
class OpRelations:
    """Everything about an operation's relations that no dataflow can change."""

    signature: str
    chunk_size: int
    total: int
    #: The full iteration domain, one int64 array per loop dimension.
    domain: dict[str, np.ndarray]
    tensors: dict[str, TensorRelations]
    element_bounds: dict[str, TensorColumns]
    #: Inclusive per-dimension bounds, for time/PE expression intervals.
    inclusive_bounds: dict[str, tuple[int, int]]

    def nbytes(self) -> int:
        total = sum(a.nbytes for a in self.domain.values())
        for rel in self.tensors.values():
            total += rel.dense_keys.nbytes + sum(a.nbytes for a in rel.raw_keys)
        return total


class RelationCache:
    """LRU cache of :class:`OpRelations`, keyed by (op signature, chunk size)."""

    def __init__(
        self,
        max_entries: int = 4,
        max_instances: int = 8_000_000,
        max_bytes: int = 1 << 30,
    ):
        self.max_entries = int(max_entries)
        #: Ops with more instances than this are never cached (memory guard).
        self.max_instances = int(max_instances)
        #: Total byte budget across entries (at least one entry is kept).
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple[str, int], OpRelations] = OrderedDict()
        # Engines of concurrent server threads share one cache; the lock keeps
        # the LRU bookkeeping (move_to_end / eviction scans) coherent.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: tuple[str, int]) -> OpRelations | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def put(self, key: tuple[str, int], relations: OpRelations) -> None:
        with self._lock:
            self._entries[key] = relations
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries or (
                len(self._entries) > 1
                and sum(entry.nbytes() for entry in self._entries.values())
                > self.max_bytes
            ):
                self._entries.popitem(last=False)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> dict[str, int]:
        return {"entries": len(self._entries), "hits": self.hits, "misses": self.misses}


class RelationMaterializer:
    """Materialise the Section IV relations for one operation.

    Stateless with respect to dataflows: :meth:`materialize` accepts any
    candidate and returns the same ``(pe_lin, t_rank, element_keys,
    element_extents)`` tuple the original analyzer produced.  When a
    :class:`RelationCache` is attached, the dataflow-independent arrays are
    built once and only the stamp columns are evaluated per candidate.
    """

    def __init__(
        self,
        op: TensorOp,
        *,
        chunk_size: int = 1 << 20,
        cache: RelationCache | None = None,
    ):
        self.op = op
        self.chunk_size = int(chunk_size)
        self.cache = cache
        self._signature = op_signature(op)
        #: Memo of PE columns keyed by (pe_dims, space-expression signature):
        #: sweep families share a handful of space stamps across candidates.
        self._stamp_memo: OrderedDict[tuple, np.ndarray] = OrderedDict()

    # -- shared bounds ----------------------------------------------------------

    def inclusive_bounds(self) -> dict[str, tuple[int, int]]:
        return {
            dim: (lo, hi - 1) for dim, (lo, hi) in self.op.domain.derived_bounds().items()
        }

    def element_bounds(self) -> dict[str, TensorColumns]:
        """Shared per-coordinate bounds for every tensor (across its references)."""
        inclusive = self.inclusive_bounds()
        result: dict[str, TensorColumns] = {}
        for tensor in self.op.tensor_names:
            combined: list[tuple[int, int]] | None = None
            for access in self.op.accesses_to(tensor):
                bounds = [expr.bounds(inclusive) for expr in access.relation.out_exprs]
                if combined is None:
                    combined = bounds
                else:
                    combined = [
                        (min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(combined, bounds)
                    ]
            result[tensor] = TensorColumns(combined or [])
        return result

    # -- cached relations --------------------------------------------------------

    def relations(self, max_instances: int) -> OpRelations | None:
        """Build (or fetch) the cached relations; ``None`` when uncacheable."""
        if self.cache is None:
            return None
        key = (self._signature, self.chunk_size)
        cached = self.cache.get(key)
        if cached is not None:
            if cached.total > max_instances:
                raise ModelError(
                    f"iteration domain exceeds the analyzer cap of {max_instances} "
                    "instances; scale the workload first"
                )
            return cached
        box = self.op.domain.box_size()
        if box > self.cache.max_instances:
            return None
        built = self._build_relations(min(max_instances, self.cache.max_instances))
        if built is not None:
            self.cache.put(key, built)
        return built

    def _build_relations(self, max_instances: int) -> OpRelations | None:
        element_bounds = self.element_bounds()
        dims = self.op.loop_dims
        domain_parts: dict[str, list[np.ndarray]] = {dim: [] for dim in dims}
        element_parts: dict[str, list[list[np.ndarray]]] = {
            tensor: [[] for _ in self.op.accesses_to(tensor)]
            for tensor in self.op.tensor_names
        }
        total = 0
        for chunk in self.op.domain.chunks(self.chunk_size):
            length = chunk_length(chunk)
            total += length
            if total > max_instances:
                return None
            for dim in dims:
                domain_parts[dim].append(np.asarray(chunk[dim], dtype=np.int64))
            for tensor in self.op.tensor_names:
                columns = element_bounds[tensor]
                for index, access in enumerate(self.op.accesses_to(tensor)):
                    coordinate_arrays = [
                        expr.evaluate_vec(chunk) for expr in access.relation.out_exprs
                    ]
                    element_parts[tensor][index].append(
                        columns.encode_columns(coordinate_arrays)
                    )
        if total == 0:
            raise ModelError(f"operation {self.op.name} has an empty iteration domain")

        domain = {dim: np.concatenate(parts) for dim, parts in domain_parts.items()}
        tensors: dict[str, TensorRelations] = {}
        for tensor, per_reference in element_parts.items():
            raw = [np.concatenate(parts) for parts in per_reference]
            combined = raw[0] if len(raw) == 1 else np.concatenate(raw)
            unique_elements = sorted_unique(combined)
            dense = np.searchsorted(unique_elements, combined)
            tensors[tensor] = TensorRelations(
                raw_keys=raw,
                dense_keys=dense,
                extent=element_bounds[tensor].extent,
                footprint=int(unique_elements.size),
            )
        return OpRelations(
            signature=self._signature,
            chunk_size=self.chunk_size,
            total=total,
            domain=domain,
            tensors=tensors,
            element_bounds=element_bounds,
            inclusive_bounds=self.inclusive_bounds(),
        )

    # -- stamp evaluation ---------------------------------------------------------

    def stamps(
        self,
        relations: OpRelations,
        dataflow: Dataflow,
        pe_array: PEArray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Evaluate the dataflow's (PE, time-rank) columns over cached relations."""
        chunk = relations.domain
        length = relations.total

        memo_key = (pe_array.dims, tuple(str(e) for e in dataflow.pe_exprs))
        pe_lin = self._stamp_memo.get(memo_key)
        if pe_lin is None:
            pe_lin = np.zeros(length, dtype=np.int64)
            for extent, expr in zip(pe_array.dims, dataflow.pe_exprs):
                column = expr.evaluate_vec(chunk)
                if (column < 0).any() or (column >= extent).any():
                    raise DataflowError(
                        f"dataflow {dataflow.name!r} maps instances outside the "
                        f"{pe_array} array"
                    )
                pe_lin = pe_lin * extent + column
            self._stamp_memo[memo_key] = pe_lin
            max_bytes = 256 << 20
            while len(self._stamp_memo) > 64 or (
                len(self._stamp_memo) > 1
                and sum(a.nbytes for a in self._stamp_memo.values()) > max_bytes
            ):
                self._stamp_memo.popitem(last=False)

        time_bounds = [expr.bounds(relations.inclusive_bounds) for expr in dataflow.time_exprs]
        time_key = np.zeros(length, dtype=np.int64)
        for (lo, hi), expr in zip(time_bounds, dataflow.time_exprs):
            extent = hi - lo + 1
            time_key = time_key * extent + (expr.evaluate_vec(chunk) - lo)
        return pe_lin, _rank_keys(time_key)

    # -- analyzer-compatible materialisation ---------------------------------------

    def materialize(
        self,
        dataflow: Dataflow,
        pe_array: PEArray,
        max_instances: int,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, list[np.ndarray]], dict[str, int]]:
        """Evaluate dataflow and access relations over the whole iteration domain.

        Returns the exact ``(pe_lin, t_rank, element_keys, element_extents)``
        tuple of the original ``TenetAnalyzer._materialize_relations``; cached
        and streaming paths produce identical arrays.
        """
        relations = self.relations(max_instances) if self.cache is not None else None
        if relations is not None:
            pe_lin, t_rank = self.stamps(relations, dataflow, pe_array)
            element_keys = {
                tensor: list(rel.raw_keys) for tensor, rel in relations.tensors.items()
            }
            element_extents = {
                tensor: rel.extent for tensor, rel in relations.tensors.items()
            }
            return pe_lin, t_rank, element_keys, element_extents
        return self._materialize_streaming(dataflow, pe_array, max_instances)

    def _materialize_streaming(
        self,
        dataflow: Dataflow,
        pe_array: PEArray,
        max_instances: int,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, list[np.ndarray]], dict[str, int]]:
        op = self.op
        pe_dims = pe_array.dims
        time_bounds = dataflow.time_bounds(op)
        time_extents = [hi - lo + 1 for lo, hi in time_bounds]
        time_lows = [lo for lo, _ in time_bounds]
        element_bounds = self.element_bounds()

        pe_parts: list[np.ndarray] = []
        time_parts: list[np.ndarray] = []
        element_parts: dict[str, list[list[np.ndarray]]] = {
            tensor: [[] for _ in op.accesses_to(tensor)]
            for tensor in op.tensor_names
        }

        total = 0
        for chunk in op.domain.chunks(self.chunk_size):
            length = chunk_length(chunk)
            total += length
            if total > max_instances:
                raise ModelError(
                    f"iteration domain exceeds the analyzer cap of {max_instances} "
                    "instances; scale the workload first"
                )

            pe_lin = np.zeros(length, dtype=np.int64)
            for extent, expr in zip(pe_dims, dataflow.pe_exprs):
                column = expr.evaluate_vec(chunk)
                if (column < 0).any() or (column >= extent).any():
                    raise DataflowError(
                        f"dataflow {dataflow.name!r} maps instances outside the "
                        f"{pe_array} array"
                    )
                pe_lin = pe_lin * extent + column
            pe_parts.append(pe_lin)

            time_key = np.zeros(length, dtype=np.int64)
            for axis, (extent, expr) in enumerate(zip(time_extents, dataflow.time_exprs)):
                time_key = time_key * extent + (expr.evaluate_vec(chunk) - time_lows[axis])
            time_parts.append(time_key)

            for tensor in op.tensor_names:
                columns = element_bounds[tensor]
                for index, access in enumerate(op.accesses_to(tensor)):
                    coordinate_arrays = [
                        expr.evaluate_vec(chunk) for expr in access.relation.out_exprs
                    ]
                    element_parts[tensor][index].append(
                        columns.encode_columns(coordinate_arrays)
                    )

        if total == 0:
            raise ModelError(f"operation {op.name} has an empty iteration domain")

        pe_lin = np.concatenate(pe_parts)
        time_keys = np.concatenate(time_parts)
        unique_times = sorted_unique(time_keys)
        t_rank = np.searchsorted(unique_times, time_keys)

        element_keys = {
            tensor: [np.concatenate(parts) for parts in per_reference]
            for tensor, per_reference in element_parts.items()
        }
        element_extents = {
            tensor: columns.extent for tensor, columns in element_bounds.items()
        }
        return pe_lin, t_rank, element_keys, element_extents


# -- fast exact helpers ---------------------------------------------------------------


def _presence_table(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """``(presence, lut)`` over ``[0, max(keys)]``, or ``None`` for wide ranges.

    ``presence[k]`` marks the keys that occur and ``lut[k]`` is key ``k``'s
    dense rank among them.  Built only when the key range is comparable to the
    array length (non-negative keys); callers sort otherwise.
    """
    max_key = int(keys.max())
    if max_key > max(4 * keys.size, 1 << 22):
        return None
    presence = np.zeros(max_key + 1, dtype=bool)
    presence[keys] = True
    lut = np.cumsum(presence)
    lut -= 1
    return presence, lut


def _rank_keys(keys: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of every key (``searchsorted(unique, keys)``).

    When the key range is comparable to the array length a presence bitmap and
    a cumulative sum replace the sort, which is the common case for time-stamp
    keys built from tight per-dimension bounds.
    """
    if keys.size == 0:
        return keys
    table = _presence_table(keys)
    if table is not None:
        return table[1][keys]
    unique_keys = sorted_unique(keys)
    return np.searchsorted(unique_keys, keys)


def _utilization_dense(
    pe_lin: np.ndarray,
    t_rank: np.ndarray,
    num_pes: int,
    injective_shortcut: bool = False,
) -> UtilizationMetrics | None:
    """Sort-free :func:`compute_utilization` via a dense (time, PE) histogram.

    Valid because ``t_rank`` is dense (every rank in ``[0, max+1)`` occurs);
    returns ``None`` when the histogram would dwarf the instance count.

    ``injective_shortcut`` (used by the compiled backends) collapses the
    per-rank reductions when every stamp holds at most one instance: every
    rank is occupied, the compute delay is the rank count, and the instances
    per rank *are* the active PEs per rank.
    """
    num_instances = int(pe_lin.size)
    if num_instances == 0:
        return None
    num_ranks = int(t_rank.max()) + 1
    if num_ranks * num_pes > max(8 * num_instances, 1 << 22):
        return None
    counts = np.bincount(t_rank * num_pes + pe_lin, minlength=num_ranks * num_pes)
    counts = counts.reshape(num_ranks, num_pes)
    if injective_shortcut and int(counts.max()) == 1:
        active_per_stamp = counts.sum(axis=1)
        return UtilizationMetrics(
            num_instances=num_instances,
            num_pes=num_pes,
            num_time_stamps=num_ranks,
            occupied_stamps=num_instances,
            compute_delay_cycles=num_ranks,
            max_active_pes=int(active_per_stamp.max()),
        )
    occupied = counts > 0
    active_per_stamp = occupied.sum(axis=1)
    return UtilizationMetrics(
        num_instances=num_instances,
        num_pes=num_pes,
        num_time_stamps=int((active_per_stamp > 0).sum()),
        occupied_stamps=int(occupied.sum()),
        compute_delay_cycles=int(counts.max(axis=1).sum()),
        max_active_pes=int(active_per_stamp.max()),
    )


# -- fast exact volume kernel ---------------------------------------------------------


def _grouped_volume_metrics(
    tensor: str,
    pe_lin: np.ndarray,
    t_rank: np.ndarray,
    relations: TensorRelations,
    predecessor_table: np.ndarray,
    num_pes: int,
    spatial_interval: int,
    temporal_interval: int,
    assume_unique: bool = False,
) -> VolumeMetrics | None:
    """Exact Table II metrics via a group-major key layout.

    Instead of the stamp-major keys of :func:`compute_volume_metrics`, pairs
    are sorted by ``((pe, element), time-rank)``.  In that layout a temporal
    predecessor (same PE, same element, ``temporal_interval`` ranks earlier)
    is at most ``temporal_interval`` positions back in the sorted array, so
    the dominant membership ``searchsorted`` degenerates to shifted equality
    tests.  Spatial membership is then only probed for pairs without temporal
    reuse, which the sweeps' best candidates make a small minority.

    Returns ``None`` when the layout would overflow int64 or the temporal
    interval is too wide for the adjacency test; callers fall back to the
    reference implementation.
    """
    if temporal_interval < 1 or temporal_interval > 8:
        return None
    max_rank = int(t_rank.max()) + 1
    footprint = relations.footprint
    if num_pes * footprint * max_rank >= (1 << 62):
        return None

    references = relations.references
    if references > 1:
        pe_lin = np.tile(pe_lin, references)
        t_rank = np.tile(t_rank, references)
    elements = relations.dense_keys

    keys = (pe_lin * footprint + elements) * max_rank + t_rank
    keys = np.sort(keys, kind="stable")
    if assume_unique and references == 1:
        # An injective dataflow assigns unique stamps, so single-reference
        # (stamp, element) pairs cannot collide.
        unique_keys = keys
    else:
        fresh = np.empty(keys.shape, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        unique_keys = keys if fresh.all() else keys[fresh]
    total = int(unique_keys.size)

    ranks = unique_keys % max_rank

    # Temporal reuse: (pe, element, rank - ti) differs from the key by exactly
    # ``ti``; any key strictly between shares the group, so it can only occupy
    # one of the ``ti`` preceding slots of the sorted unique array.
    ti = temporal_interval
    target = unique_keys - ti
    temporal_mask = np.zeros(total, dtype=bool)
    for back in range(1, ti + 1):
        np.logical_or(
            temporal_mask[back:], unique_keys[:-back] == target[back:],
            out=temporal_mask[back:],
        )
    temporal_mask &= ranks >= ti
    temporal_count = int(temporal_mask.sum())

    # Spatial reuse only matters for pairs without temporal reuse (the counts
    # of the reference kernel are ``spatial & ~temporal`` and the union).
    spatial_count = 0
    if temporal_count < total and predecessor_table.size:
        if temporal_count == 0:
            keys_p, ranks_p = unique_keys, ranks
        else:
            probe = ~temporal_mask
            keys_p = unique_keys[probe]
            ranks_p = ranks[probe]
        stride = footprint * max_rank
        pes_p = keys_p // stride
        rank_valid = ranks_p >= spatial_interval
        spatial_mask = np.zeros(keys_p.shape, dtype=bool)
        for slot in range(predecessor_table.shape[1]):
            sources = predecessor_table[pes_p, slot]
            slot_valid = rank_valid & (sources >= 0)
            if spatial_interval == 0:
                slot_valid &= sources < pes_p
            if not slot_valid.any():
                continue
            candidates = keys_p + (sources - pes_p) * stride - spatial_interval
            positions = np.minimum(np.searchsorted(unique_keys, candidates), total - 1)
            spatial_mask |= slot_valid & (unique_keys[positions] == candidates)
        spatial_count = int(spatial_mask.sum())

    return VolumeMetrics(
        tensor=tensor,
        total=total,
        reuse=temporal_count + spatial_count,
        temporal_reuse=temporal_count,
        spatial_reuse=spatial_count,
        footprint=footprint,
    )


# -- objectives and lower bounds ------------------------------------------------------

Objective = Callable[[PerformanceReport], float]

OBJECTIVES: dict[str, Objective] = {
    "latency": lambda report: report.latency_cycles,
    "energy": lambda report: report.energy.total_pj,
    "edp": lambda report: report.latency_cycles * report.energy.total_pj,
    "sbw": lambda report: report.scratchpad_bandwidth_bits(),
    "unique_volume": lambda report: float(report.unique_volume()),
}


def _latency_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int] | None
) -> float:
    # Latency is the max of compute/read/write delays, so compute alone bounds it.
    return float(utilization.compute_delay_cycles)


def _energy_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int] | None
) -> float:
    # MAC energy is volume-independent and every other term is non-negative.
    return utilization.num_instances * arch.energy.mac_pj


def _edp_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int] | None
) -> float:
    return _latency_lower_bound(utilization, arch, footprints) * _energy_lower_bound(
        utilization, arch, footprints
    )


def _unique_volume_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int] | None
) -> float:
    # Every distinct element must cross the scratchpad boundary at least once,
    # so the per-tensor footprint is a floor on its unique volume.  When the
    # interconnect has no links the engine passes the candidate's distinct
    # (PE, element) group counts instead — a tighter, candidate-dependent
    # floor (each group's first access cannot be reused from anywhere).
    if not footprints:
        return float("-inf")
    return float(sum(footprints.values()))


def _sbw_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int] | None
) -> float:
    # SBW = sum(unique volume) * word_bits / max(compute delay, 1); the unique
    # volume is bounded below by the footprint and the compute delay is already
    # exact at this point, so this bound is candidate-dependent: highly parallel
    # candidates (short delay) are pruned once a low-bandwidth one is known.
    if not footprints:
        return float("-inf")
    delay = max(float(utilization.compute_delay_cycles), 1.0)
    return sum(footprints.values()) * arch.memory.word_bits / delay


#: Sound per-objective lower bounds computable before the volume metrics.
#: ``latency``/``edp`` bound from the compute delay alone; ``sbw`` and
#: ``unique_volume`` bound from the per-tensor footprints (dataflow
#: independent, cached with the relations) — ``sbw``'s bound divides by the
#: candidate's own compute delay, so it actually discriminates candidates.
#: On link-free interconnects the engine upgrades both floors to the
#: candidate's distinct-(PE, element) group counts, which discriminate
#: candidates even at equal compute delay.
#: ``energy``'s bound would be the same for every candidate of an operation
#: (it can never exceed the best score), so it has no entry.
LOWER_BOUNDS: dict[
    str, Callable[[UtilizationMetrics, ArchSpec, dict[str, int] | None], float]
] = {
    "latency": _latency_lower_bound,
    "edp": _edp_lower_bound,
    "sbw": _sbw_lower_bound,
    "unique_volume": _unique_volume_lower_bound,
}


# -- batch outcomes -------------------------------------------------------------------


@dataclass
class CandidateOutcome:
    """Result of evaluating (or skipping) one candidate in a batch."""

    index: int
    name: str
    signature: str
    report: PerformanceReport | None = None
    error: str | None = None
    pruned: bool = False
    bound: float | None = None
    memo_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.report is not None


@dataclass
class BatchResult:
    """Outcome of one :meth:`EvaluationEngine.evaluate_batch` call."""

    outcomes: list[CandidateOutcome] = field(default_factory=list)
    seconds: float = 0.0

    @property
    def reports(self) -> list[PerformanceReport]:
        return [outcome.report for outcome in self.outcomes if outcome.report is not None]

    @property
    def failures(self) -> list[tuple[str, str]]:
        return [
            (outcome.name, outcome.error)
            for outcome in self.outcomes
            if outcome.error is not None
        ]

    @property
    def pruned(self) -> list[tuple[str, float]]:
        return [
            (outcome.name, outcome.bound)
            for outcome in self.outcomes
            if outcome.pruned
        ]


#: Minimum candidates per parallel task.  A task's dispatch cost (pickling
#: candidates, queue round-trips, shipping outcomes back) is roughly constant
#: and the fused backend stacks stamps across a task's whole slice, so tiny
#: tasks pay full freight for almost no work — the committed ``jobs=2``
#: slower-than-serial regression on 40-candidate batches.
MIN_TASK_CANDIDATES = 8


def parallel_task_chunk(count: int, jobs: int) -> int:
    """Per-task candidate count for a parallel batch.

    Targets ~4 tasks per worker for load balance, floored at
    :data:`MIN_TASK_CANDIDATES` so dispatch overhead amortises, and capped at
    an even split so the floor never leaves a worker idle on small batches.
    """
    jobs = max(1, jobs)
    balanced = -(-count // (jobs * 4))
    even_split = -(-count // jobs)
    return max(1, min(max(MIN_TASK_CANDIDATES, balanced), even_split))


class EvaluationEngine:
    """Evaluate candidate dataflows for one (operation, architecture) pair.

    The engine owns a :class:`RelationMaterializer` (optionally backed by a
    shared :class:`RelationCache`), a report memo, and the batched sweep
    logic: parallel workers, objective-aware early termination, and the
    optimised volume kernel.  Reports are bit-identical to
    :meth:`repro.core.analyzer.TenetAnalyzer.analyze` (modulo the wall-clock
    ``analysis_seconds`` field).
    """

    def __init__(
        self,
        op: TensorOp,
        arch: ArchSpec,
        *,
        max_instances: int = 32_000_000,
        chunk_size: int = 1 << 20,
        temporal_interval: int = 1,
        validate: bool = False,
        jobs: int = 1,
        cache: RelationCache | None = None,
        memoize: bool = True,
        backend: str = "auto",
        device: str = "numpy",
        tune: str | dict | bool | None = "off",
    ):
        self.op = op
        self.arch = arch
        self.max_instances = int(max_instances)
        self.chunk_size = int(chunk_size)
        self.temporal_interval = int(temporal_interval)
        self.should_validate = bool(validate)
        self.jobs = max(1, int(jobs))
        self.cache = cache if cache is not None else RelationCache()
        self.materializer = RelationMaterializer(op, chunk_size=self.chunk_size, cache=self.cache)
        self.memoize = bool(memoize)
        self._memo: dict[tuple[str, str, str], PerformanceReport] = {}
        self._memo_prefix = (op_signature(op), arch_signature(arch))
        self._spacetime = SpacetimeMap(
            arch.pe_array, arch.interconnect, temporal_interval=self.temporal_interval
        )
        self._predecessor_table = self._spacetime.predecessor_table()
        #: Whether any PE can forward data to another.  Without links there is
        #: no spatial reuse, which makes the distinct-(PE, element) group count
        #: a sound (and candidate-dependent) unique-volume floor.
        self._has_links = bool((self._predecessor_table >= 0).any())
        self._pool: ProcessPoolExecutor | None = None
        self._pool_jobs = 0
        #: Parent-owned shared-memory segment holding the cached relations for
        #: ``jobs > 1`` workers (see :mod:`repro.core.shm`); ``close()`` owns it.
        self._shared_relations = None
        self.backend_name = str(backend)
        self.device_name = str(device)
        #: The resolved array namespace every compiled kernel computes on.
        #: Resolution fails loudly (listing available namespaces) before any
        #: evaluation starts, so a missing torch/cupy is a clear capability
        #: error instead of a mid-sweep crash.
        self.xp = resolve_namespace(self.device_name)
        if not self.xp.is_numpy and self.backend_name == "interp":
            raise ExplorationError(
                "backend 'interp' evaluates on the host interpreter and does "
                f"not support device '{self.device_name}'; use a compiled "
                "backend (auto/affine/bitset/fused)"
            )
        self.backend = make_backend(self.backend_name, self)
        self.stats: dict[str, int] = {
            "evaluated": 0,
            "memo_hits": 0,
            "pruned": 0,
            "failures": 0,
            "fast_path": 0,
            "reference_path": 0,
            # Candidates evaluated without cached relations (op above the
            # cache's max_instances guard): correct but not accelerated.
            "streaming_path": 0,
            # Per-tensor kernel choices of the compiled backends.
            "compiled_path": 0,
            "bitset_path": 0,
            "fused_path": 0,
            # Candidates replayed from the fused backend's spacetime-content
            # memo (identical (PE, rank) columns under different expressions).
            "spacetime_hits": 0,
            # Stamp expressions the compiled backends handed back to the
            # interpreter (nested floor/mod/abs terms).
            "stamp_fallback_exprs": 0,
        }
        #: Wall-clock seconds per pipeline stage, for ``tenet explore
        #: --profile``: where a sweep's time actually goes (stamps vs volume
        #: counting vs ranking), aggregated across workers like ``stats``.
        self.stage_seconds: dict[str, float] = {
            "materialise": 0.0,
            "stamps": 0.0,
            "utilization": 0.0,
            "volumes": 0.0,
            "rank": 0.0,
            # Host<->device copies (uploads + result downloads) on non-numpy
            # namespaces; stays 0.0 on the host namespace.
            "transfer": 0.0,
        }
        #: Optional measurement-driven controller (:mod:`repro.core.tuning`):
        #: ``"auto"`` calibrates batch/backend/jobs on the first batches,
        #: a profile dict pins previously learned decisions, ``"off"`` keeps
        #: every knob exactly as constructed.  Tuning never changes which
        #: reports are produced — only evaluation order and speed.
        self.tuner = None
        if tune not in (None, False, "off"):
            from repro.core.tuning import AutoTuner

            if tune in (True, "auto"):
                self.tuner = AutoTuner(self)
            elif isinstance(tune, dict):
                self.tuner = AutoTuner(self, profile=tune)
            else:
                raise ExplorationError(
                    f"tune must be 'auto', 'off', or a tuning profile dict; "
                    f"got {tune!r}"
                )

    def set_backend(self, backend: str) -> None:
        """Switch the evaluation backend in place (tuner calibration races).

        Safe mid-sweep because every backend is bit-identical; only cost
        changes.  The worker pool (whose workers captured the old backend at
        initialisation) is torn down and lazily rebuilt on the next parallel
        batch.
        """
        backend = str(backend)
        if backend == self.backend_name:
            return
        if not self.xp.is_numpy and backend == "interp":
            raise ExplorationError(
                "backend 'interp' evaluates on the host interpreter and does "
                f"not support device '{self.device_name}'; use a compiled "
                "backend (auto/affine/bitset/fused)"
            )
        self.backend_name = backend
        self.backend = make_backend(backend, self)
        if self._pool is not None:
            self.close()

    def close(self) -> None:
        """Shut down the persistent worker pool and release shared memory.

        Owns the lifecycle of the relations segment: the ``/dev/shm`` entry is
        unlinked here (and, as a backstop, at interpreter exit), never by the
        workers.  A later parallel batch transparently recreates both the pool
        and the segment.
        """
        if self._pool is not None:
            self._pool.shutdown()
            self._pool = None
            self._pool_jobs = 0
        if self._shared_relations is not None:
            self._shared_relations.close()
            self._shared_relations = None

    def __del__(self):  # pragma: no cover - interpreter-shutdown best effort
        try:
            self.close()
        except Exception:
            pass

    def cache_stats(self) -> dict[str, int]:
        """Relation-cache counters, including the aggregated worker caches."""
        stats = dict(self.cache.stats())
        stats["worker_hits"] = self.stats.get("worker_cache_hits", 0)
        stats["worker_misses"] = self.stats.get("worker_cache_misses", 0)
        return stats

    def profile(self) -> dict[str, float]:
        """Per-stage wall-clock breakdown (seconds), workers aggregated in."""
        return dict(self.stage_seconds)

    # -- single-candidate evaluation ---------------------------------------------

    def evaluate(self, dataflow: Dataflow) -> PerformanceReport:
        """Evaluate one candidate, using the memo and the relation cache."""
        report, _ = self._evaluate_memo(dataflow)
        assert isinstance(report, PerformanceReport)
        return report

    def _memo_key(self, dataflow: Dataflow) -> tuple[str, str, str]:
        op_sig, arch_sig = self._memo_prefix
        return (op_sig, dataflow_signature(dataflow), arch_sig)

    def _evaluate_memo(
        self,
        dataflow: Dataflow,
        *,
        objective: str | None = None,
        best_score: float | None = None,
        stamps: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> tuple[PerformanceReport | float, bool]:
        """Memoised evaluation; returns (report-or-lower-bound, memo hit)."""
        key = self._memo_key(dataflow)
        if self.memoize:
            hit = self._memo.get(key)
            if hit is not None:
                self.stats["memo_hits"] += 1
                return hit, True
        result = self._evaluate(
            dataflow, objective=objective, best_score=best_score, stamps=stamps
        )
        if isinstance(result, PerformanceReport):
            if self.memoize:
                self._memo[key] = result
            self.stats["evaluated"] += 1
        else:
            self.stats["pruned"] += 1
        return result, False

    def _evaluate(
        self,
        dataflow: Dataflow,
        *,
        objective: str | None = None,
        best_score: float | None = None,
        stamps: Callable[[], tuple[np.ndarray, np.ndarray]] | None = None,
    ) -> PerformanceReport | float:
        """Full metric pipeline; returns a lower bound instead of a report when
        the candidate provably cannot beat ``best_score`` under ``objective``.

        ``stamps`` optionally supplies precomputed (PE, time-rank) columns —
        the batched backends evaluate whole candidate windows at once and hand
        each candidate's columns in through here.
        """
        started = time.perf_counter()
        notes: list[str] = []

        box = self.op.domain.box_size()
        if box > self.max_instances:
            raise ModelError(
                f"iteration domain has up to {box} instances, above the analyzer cap of "
                f"{self.max_instances}; scale the workload (repro.workloads.scaling) or "
                "raise max_instances"
            )

        bound = dataflow.bind(self.op)
        if self.should_validate:
            validation = bound.validate(self.op, self.arch.pe_array, self.chunk_size)
            if not validation.is_valid:
                raise DataflowError(
                    f"dataflow {bound.name!r} is invalid for {self.op.name}: "
                    + "; ".join(validation.messages)
                )
            notes.extend(validation.messages)

        stage = self.stage_seconds
        mark = time.perf_counter()
        relations = self.materializer.relations(self.max_instances)
        num_pes = self.arch.pe_array.size
        now = time.perf_counter()
        stage["materialise"] += now - mark
        mark = now

        if relations is not None:
            if stamps is not None:
                pe_lin, t_rank = stamps()
            else:
                pe_lin, t_rank = self.backend.stamps(relations, bound, self.arch.pe_array)
            element_keys = None
        else:
            self.stats["streaming_path"] += 1
            pe_lin, t_rank, element_keys, element_extents = (
                self.materializer._materialize_streaming(
                    bound, self.arch.pe_array, self.max_instances
                )
            )
        now = time.perf_counter()
        stage["stamps"] += now - mark
        mark = now

        utilization = None
        if relations is not None:
            utilization = self.backend.utilization(pe_lin, t_rank, num_pes)
        if utilization is None:
            utilization = compute_utilization(pe_lin, t_rank, num_pes)
        now = time.perf_counter()
        stage["utilization"] += now - mark
        mark = now
        if not utilization.is_injective:
            notes.append(
                "dataflow is not injective: some spacetime stamps execute more than one "
                "instance (the compute delay accounts for the extra cycles)"
            )

        if objective is not None and best_score is not None:
            bound_fn = LOWER_BOUNDS.get(objective)
            if bound_fn is not None:
                floors = None
                if relations is not None:
                    if not self._has_links and objective in ("unique_volume", "sbw"):
                        # Without interconnect links the only reuse is temporal
                        # within one (PE, element) group, so every distinct
                        # group costs at least one scratchpad transfer.  This
                        # floor depends on the candidate's PE assignment, so it
                        # discriminates where the constant per-op footprint
                        # floor cannot.
                        floors = self._group_count_floors(pe_lin, relations)
                    else:
                        floors = {
                            t: rel.footprint for t, rel in relations.tensors.items()
                        }
                lower = bound_fn(utilization, self.arch, floors)
                if lower > best_score:
                    return lower

        if relations is not None and self.memoize:
            # Content-level dedup: a candidate whose (PE, rank) columns are
            # array-identical to an evaluated one has the same report by
            # construction, whatever its expressions look like.  Consulted
            # *after* the lower-bound check so early termination makes exactly
            # the pruning decisions the other backends (and a resumed sweep
            # with a cold memo) would make.
            memo_report = self.backend.spacetime_report(bound, pe_lin, t_rank)
            if memo_report is not None:
                self.stats["spacetime_hits"] += 1
                return replace(
                    memo_report,
                    dataflow=bound.name,
                    analysis_seconds=time.perf_counter() - started,
                    notes=list(memo_report.notes),
                )

        backend_metrics: dict[str, VolumeMetrics | None] = {}
        if relations is not None:
            backend_metrics = self.backend.volume_metrics_many(
                self.op.tensor_names,
                bound,
                pe_lin,
                t_rank,
                relations,
                assume_unique=utilization.is_injective,
                # Ranks are dense, so the occupied-stamp count *is* the span.
                rank_span=utilization.num_time_stamps,
            )

        volumes: dict[str, VolumeMetrics] = {}
        for tensor in self.op.tensor_names:
            metrics = backend_metrics.get(tensor)
            if metrics is not None:
                self.stats["fast_path"] += 1
            else:
                self.stats["reference_path"] += 1
                if relations is not None:
                    per_reference = relations.tensors[tensor].raw_keys
                    extent = relations.tensors[tensor].extent
                else:
                    per_reference = element_keys[tensor]
                    extent = element_extents[tensor]
                references = len(per_reference)
                if references == 1:
                    tensor_pe, tensor_rank = pe_lin, t_rank
                    tensor_elements = per_reference[0]
                else:
                    tensor_pe = np.tile(pe_lin, references)
                    tensor_rank = np.tile(t_rank, references)
                    tensor_elements = np.concatenate(per_reference)
                metrics = compute_volume_metrics(
                    tensor,
                    tensor_pe,
                    tensor_rank,
                    tensor_elements,
                    self._predecessor_table,
                    num_pes,
                    spatial_interval=self._spacetime.spatial_interval,
                    temporal_interval=self.temporal_interval,
                    chunk_size=self.chunk_size,
                    element_extent=extent,
                )
            volumes[tensor] = metrics
        now = time.perf_counter()
        stage["volumes"] += now - mark
        mark = now

        latency = compute_latency(
            utilization,
            volumes,
            self.op.input_tensors,
            self.op.output_tensors,
            self.arch.memory,
        )
        bandwidth = compute_bandwidth(volumes, utilization.compute_delay_cycles)
        energy = compute_energy(
            utilization.num_instances,
            volumes,
            self.arch.energy,
            noc_hop_distance=self.arch.interconnect.hop_distance,
        )

        elapsed = time.perf_counter() - started
        report = PerformanceReport(
            operation=self.op.name,
            dataflow=bound.name,
            architecture=self.arch.name,
            volumes=volumes,
            utilization=utilization,
            latency=latency,
            bandwidth=bandwidth,
            energy=energy,
            word_bits=self.arch.memory.word_bits,
            peak_macs_per_cycle=self.arch.peak_macs_per_cycle,
            analysis_seconds=elapsed,
            notes=notes,
        )
        if relations is not None and self.memoize:
            self.backend.spacetime_remember(bound, pe_lin, t_rank, report)
        stage["rank"] += time.perf_counter() - mark
        return report

    def _group_count_floors(
        self, pe_lin: np.ndarray, relations: OpRelations
    ) -> dict[str, int]:
        """Per-tensor distinct-(PE, element) group counts for one candidate.

        A sound unique-volume floor when the interconnect has no links: each
        group's first access cannot be reused temporally (same group only) or
        spatially (no links), so it must cross the scratchpad boundary.  The
        count needs only a sort over the combined keys — cheaper than the full
        volume kernel whose adjacency and spatial probes it lets the sweep
        skip.
        """
        floors: dict[str, int] = {}
        for tensor, rel in relations.tensors.items():
            if rel.references == 1:
                pe_column = pe_lin
            else:
                pe_column = np.tile(pe_lin, rel.references)
            keys = pe_column * rel.footprint + rel.dense_keys
            floors[tensor] = int(np.unique(keys).size)
        return floors

    # -- batched evaluation -------------------------------------------------------

    def evaluate_batch(
        self,
        dataflows: Iterable[Dataflow],
        *,
        objective: str | None = None,
        early_termination: bool = False,
        jobs: int | None = None,
        best_score: float | None = None,
    ) -> BatchResult:
        """Evaluate a batch of candidates and return per-candidate outcomes.

        ``objective`` (a name from :data:`OBJECTIVES`) enables objective-aware
        early termination: when a candidate's partial lower bound already
        exceeds the best fully evaluated score, the remaining metric
        computation is skipped and the candidate is reported as pruned.
        ``best_score`` seeds that running best, so streaming callers (one
        :class:`repro.sweep.SweepSession` batch after another) make exactly
        the pruning decisions a single whole-space batch would have made.
        Candidate order is preserved in the returned outcomes.
        """
        candidates = list(dataflows)
        if objective is not None and objective not in OBJECTIVES:
            raise ExplorationError(
                f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
            )
        started = time.perf_counter()
        jobs = self.jobs if jobs is None else max(1, int(jobs))
        if self.tuner is not None and candidates:
            # Calibration races and backend/jobs decisions: the tuner may
            # switch the (bit-identical) backend or force a serial batch, so
            # the measurement/decision happens before dispatch.
            self.tuner.tune_engine(self, len(candidates))
            jobs = self.tuner.effective_jobs(
                jobs, len(candidates), pool_warm=self._pool is not None
            )
        parallel = jobs > 1 and len(candidates) > 1
        if parallel:
            outcomes = self._evaluate_parallel(
                candidates, jobs, objective=objective,
                early_termination=early_termination, best_score=best_score,
            )
        else:
            outcomes = self._evaluate_serial(
                candidates, objective=objective,
                early_termination=early_termination, best_score=best_score,
            )
        seconds = time.perf_counter() - started
        if self.tuner is not None and candidates:
            self.tuner.observe_batch(
                outcomes,
                seconds,
                backend=self.backend_name,
                jobs=jobs if parallel else 1,
            )
        return BatchResult(outcomes=outcomes, seconds=seconds)

    def _prepare_batch_stamps(
        self, candidates: Sequence[Dataflow]
    ) -> tuple[object | None, dict[int, int]]:
        """Hand the batch to the backend for whole-batch stamp evaluation.

        Memoised candidates are excluded, so the backend only compiles and
        evaluates stamps that will actually be consumed.  Returns the provider
        (or ``None``) plus a map from batch index to provider slot.  The
        relation lookup is timed as ``materialise`` and the expression
        lowering as ``stamps``, like the per-candidate stages.
        """
        stage = self.stage_seconds
        mark = time.perf_counter()
        try:
            relations = self.materializer.relations(self.max_instances)
        except ModelError:
            relations = None  # per-candidate evaluation reports the error
        now = time.perf_counter()
        stage["materialise"] += now - mark
        if relations is None:
            return None, {}
        slots: dict[int, int] = {}
        pending: list[Dataflow] = []
        for index, dataflow in enumerate(candidates):
            if self.memoize and self._memo_key(dataflow) in self._memo:
                continue
            slots[index] = len(pending)
            pending.append(dataflow)
        provider = None
        if pending:
            provider = self.backend.prepare_batch(relations, pending, self.arch.pe_array)
        stage["stamps"] += time.perf_counter() - now
        return provider, slots if provider is not None else {}

    def _evaluate_serial(
        self,
        candidates: Sequence[Dataflow],
        *,
        objective: str | None,
        early_termination: bool,
        best_score: float | None = None,
    ) -> list[CandidateOutcome]:
        score_fn = OBJECTIVES.get(objective) if objective else None
        outcomes: list[CandidateOutcome] = []
        provider, provider_slots = self._prepare_batch_stamps(candidates)
        for index, dataflow in enumerate(candidates):
            signature = dataflow_signature(dataflow)
            outcome = CandidateOutcome(index=index, name=dataflow.name, signature=signature)
            slot = provider_slots.get(index)
            stamps = (
                (lambda s=slot: provider.stamps_for(s))
                if provider is not None and slot is not None
                else None
            )
            try:
                result, outcome.memo_hit = self._evaluate_memo(
                    dataflow,
                    objective=objective if early_termination else None,
                    best_score=best_score if early_termination else None,
                    stamps=stamps,
                )
                if isinstance(result, PerformanceReport):
                    outcome.report = result
                else:
                    outcome.pruned = True
                    outcome.bound = float(result)
            except (ModelError, DataflowError, SpaceError) as error:
                # Repro modelling errors mark the candidate invalid; anything
                # else (TypeError, KeyboardInterrupt, ...) is a real bug and
                # propagates.
                self.stats["failures"] += 1
                outcome.error = f"{type(error).__name__}: {error}"
            if outcome.report is not None and score_fn is not None:
                score = score_fn(outcome.report)
                if best_score is None or score < best_score:
                    best_score = score
            outcomes.append(outcome)
        return outcomes

    def _evaluate_parallel(
        self,
        candidates: Sequence[Dataflow],
        jobs: int,
        *,
        objective: str | None,
        early_termination: bool,
        best_score: float | None = None,
    ) -> list[CandidateOutcome]:
        # The operation, architecture and engine parameters travel once per
        # worker (pool initializer), not once per task: each worker builds one
        # engine, materialises the relations a single time, and then receives
        # only candidate lists.  Several tasks per worker keep the load
        # balanced without re-shipping anything heavy.  The pool itself
        # persists across batches (streaming sweeps call this repeatedly), so
        # later batches reuse warm workers; ``close()`` tears it down.
        chunk = parallel_task_chunk(len(candidates), jobs)
        tasks = [
            list(range(start, min(start + chunk, len(candidates))))
            for start in range(0, len(candidates), chunk)
        ]
        outcomes: list[CandidateOutcome | None] = [None] * len(candidates)
        pool = self._ensure_pool(jobs)
        try:
            futures = [
                pool.submit(
                    _sweep_worker_run,
                    [candidates[i] for i in indices],
                    indices,
                    objective,
                    early_termination,
                    best_score,
                )
                for indices in tasks
            ]
            results = [future.result() for future in futures]
        except BrokenProcessPool:
            # A crashed worker kills this batch (as it always did), but must
            # not poison the engine: drop the pool so the next batch rebuilds.
            self.close()
            raise
        for worker_outcomes, worker_stats, worker_cache, worker_stages in results:
            for outcome in worker_outcomes:
                outcomes[outcome.index] = outcome
            for key, value in worker_stats.items():
                self.stats[key] = self.stats.get(key, 0) + value
            self.stats["worker_cache_hits"] = (
                self.stats.get("worker_cache_hits", 0) + worker_cache["hits"]
            )
            self.stats["worker_cache_misses"] = (
                self.stats.get("worker_cache_misses", 0) + worker_cache["misses"]
            )
            for key, value in worker_stages.items():
                self.stage_seconds[key] = self.stage_seconds.get(key, 0.0) + value
        return [outcome for outcome in outcomes if outcome is not None]

    def _shared_descriptor(self):
        """Share the cached relations for zero-copy worker mapping.

        Built lazily (and rebuilt after ``close()``): the candidate-invariant
        arrays travel through one ``/dev/shm`` segment instead of being
        re-materialised privately by every worker.  ``None`` when the op is
        uncacheable or shared memory is unavailable — workers then fall back
        to materialising their own copy, exactly as before.
        """
        if self._shared_relations is not None and self._shared_relations.alive:
            return self._shared_relations.descriptor
        try:
            relations = self.materializer.relations(self.max_instances)
        except ModelError:
            relations = None  # per-candidate evaluation reports the error
        if relations is None:
            return None
        # None when shared memory is unavailable or /dev/shm cannot hold the
        # arrays — workers then materialise privately, as before this seam.
        self._shared_relations = share_relations(relations)
        if self._shared_relations is None:
            return None
        return self._shared_relations.descriptor

    def _ensure_pool(self, jobs: int) -> ProcessPoolExecutor:
        """The persistent worker pool, (re)built when the job count changes
        or a worker crash broke the executor (a broken pool would otherwise
        poison every later batch of a long-lived engine)."""
        if self._pool is not None and (
            self._pool_jobs != jobs or getattr(self._pool, "_broken", False)
        ):
            self.close()
        if self._pool is None:
            payload_params = {
                "max_instances": self.max_instances,
                "chunk_size": self.chunk_size,
                "temporal_interval": self.temporal_interval,
                "validate": self.should_validate,
                "backend": self.backend_name,
                "device": self.device_name,
                "memoize": self.memoize,
            }
            self._pool = ProcessPoolExecutor(
                max_workers=jobs,
                initializer=_sweep_worker_init,
                initargs=(self.op, self.arch, payload_params, self._shared_descriptor()),
            )
            self._pool_jobs = jobs
        return self._pool


#: Per-process engine of the sweep workers, built once by the pool initializer
#: so the operation and its materialised relations are shipped/built once per
#: worker instead of once per task.
_WORKER_ENGINE: "EvaluationEngine | None" = None
_WORKER_SNAPSHOT: tuple[dict[str, int], dict[str, int], dict[str, float]] | None = None


def _sweep_worker_init(
    op: TensorOp, arch: ArchSpec, params: dict, shared=None
) -> None:
    global _WORKER_ENGINE, _WORKER_SNAPSHOT
    _WORKER_ENGINE = EvaluationEngine(op, arch, jobs=1, **params)
    if shared is not None:
        # Map the parent's relation arrays zero-copy instead of enumerating
        # the iteration domain again; the first relations() call below then
        # hits the worker cache.
        relations = attach_relations(shared)
        if relations is not None:
            _WORKER_ENGINE.cache.put(
                (relations.signature, relations.chunk_size), relations
            )
    _WORKER_SNAPSHOT = (
        dict(_WORKER_ENGINE.stats),
        dict(_WORKER_ENGINE.cache.stats()),
        dict(_WORKER_ENGINE.stage_seconds),
    )


def _sweep_worker_run(
    candidates: list[Dataflow],
    indices: list[int],
    objective: str | None,
    early_termination: bool,
    best_score: float | None = None,
) -> tuple[list[CandidateOutcome], dict[str, int], dict[str, int], dict[str, float]]:
    """Evaluate one task's candidates on the worker's persistent engine.

    Returns the outcomes plus the engine's stat, relation-cache and
    stage-timing *deltas* since the previous task, so the parent can aggregate
    counters across workers without double counting.
    """
    global _WORKER_SNAPSHOT
    engine = _WORKER_ENGINE
    outcomes = engine._evaluate_serial(
        candidates, objective=objective, early_termination=early_termination,
        best_score=best_score,
    )
    for outcome, index in zip(outcomes, indices):
        outcome.index = index
    previous_stats, previous_cache, previous_stages = _WORKER_SNAPSHOT
    stats = {key: value - previous_stats.get(key, 0) for key, value in engine.stats.items()}
    cache = {
        key: value - previous_cache.get(key, 0) for key, value in engine.cache.stats().items()
    }
    stages = {
        key: value - previous_stages.get(key, 0.0)
        for key, value in engine.stage_seconds.items()
    }
    _WORKER_SNAPSHOT = (
        dict(engine.stats), dict(engine.cache.stats()), dict(engine.stage_seconds)
    )
    return outcomes, stats, cache, stages
