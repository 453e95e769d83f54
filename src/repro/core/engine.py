"""Shared evaluation engine: cached relation materialisation and batched sweeps.

The paper's headline scalability claim — 25 920 CONV dataflows explored in
under an hour — rests on the observation that most of the relation machinery
is *dataflow independent*: the iteration domain, the access relations and the
element encodings depend only on the operation, while a candidate dataflow
only contributes the space-stamp and time-stamp columns.  This module turns
that observation into an architectural seam:

* :class:`RelationMaterializer` extracts relation materialisation out of the
  analyzer.  For the analyzer it streams the iteration domain chunk by chunk.
  For the engine, over a :class:`RelationCache`, it materialises the
  dataflow-independent relations once per operation and re-evaluates only
  the PE/time stamps per candidate.  On a box domain the
  domain columns and each reference's element keys are broadcast sums of
  per-axis vectors; keys are densified by a presence bitmap rather than a
  sort, and the cached arrays are read-only.
* :class:`RelationCache` is a small LRU keyed by the operation's structural
  signature, so sweeps over many operations can share one cache.
* :class:`EvaluationEngine` evaluates batches of candidate dataflows, one
  candidate at a time, through one of two bit-identical backends (the
  interpreted reference or the fused per-axis path), with objective-aware
  early termination and a report memo keyed by ``(operation, dataflow
  signature, architecture)``.  Its interconnect's predecessor table is
  shared with every engine over an equal architecture, and the fused
  backend's live link directions with every engine over the same cached
  operation (:class:`LiveDirectionMemo`).
* :func:`time_ranks` ranks time stamps lexicographically; it never lets a
  mixed-radix key wrap int64.

An engine evaluates in its calling thread and starts no threads.  Sweeps
scale across processes with signature-hash shards (``tenet explore --shard``
or ``tenet fleet``), which merge bit-identically.

``TenetAnalyzer.analyze()`` remains the public single-candidate API; it is a
thin wrapper over the streaming materialiser and the shared metric pipeline.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
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
from repro.core.spacetime import SpacetimeMap
from repro.core.utilization import UtilizationMetrics, compute_utilization
from repro.core.volumes import VolumeMetrics, compute_volume_metrics
from repro.errors import DataflowError, ExplorationError, ModelError, SpaceError
from repro.isl.enumeration import box_sum, chunk_length, sorted_unique
from repro.isl.expr import combine_splits, split_axes
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
    """Identity of an architecture for report memoisation, sweep checkpoints
    and the server's engine registry.

    ``describe()`` names the interconnect but not its parameters, so they
    follow it (multicast ``reach``, reduction-tree ``group_size``); a
    topology without parameters adds nothing.
    """
    interconnect = "".join(
        f"|{key}={value!r}"
        for key, value in vars(arch.interconnect).items()
        if key != "name"
    )
    return f"{arch.describe()}|{arch.energy!r}|{arch.frequency_mhz}{interconnect}"


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


#: Entries one operation's live-direction memo keeps.  One op swept on
#: several architectures needs one entry per (architecture, space signature,
#: tensor): 54 for perfbench's gemm-sweep (3 interconnects x 6 x 3).
_LIVE_DIRECTION_ENTRIES = 256


class LiveDirectionMemo:
    """The fused backend's live link directions for one operation: an LRU of
    at most :data:`_LIVE_DIRECTION_ENTRIES` tuples of directions, shared by
    every engine over the operation's cached relations.

    A key is (predecessor-table key, space signature, tensor); the table
    key's interconnect type also fixes the spatial interval.  A value is a
    pure function of its key, so engines in concurrent threads may at worst
    build one entry twice.  The lock keeps the LRU
    bookkeeping coherent.
    """

    def __init__(self):
        self._entries: OrderedDict[tuple, tuple] = OrderedDict()
        self._lock = threading.Lock()

    def get(self, key: tuple) -> tuple | None:
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
            return value

    def put(self, key: tuple, value: tuple) -> None:
        with self._lock:
            self._entries[key] = value
            self._entries.move_to_end(key)
            while len(self._entries) > _LIVE_DIRECTION_ENTRIES:
                self._entries.popitem(last=False)

    def __len__(self) -> int:
        return len(self._entries)

    def nbytes(self) -> int:
        """Bytes of the directions held; entries built from one box's links
        share their directions, which count once."""
        with self._lock:
            directions = {id(d): d for value in self._entries.values() for d in value}
        return sum(direction.nbytes for direction in directions.values())


@dataclass
class OpRelations:
    """Everything about an operation's relations that no dataflow can change."""

    signature: str
    total: int
    #: The full iteration domain, one int64 array per loop dimension.
    domain: dict[str, np.ndarray]
    tensors: dict[str, TensorRelations]
    element_bounds: dict[str, TensorColumns]
    #: Inclusive per-dimension bounds, for time/PE expression intervals.
    inclusive_bounds: dict[str, tuple[int, int]]
    #: Per loop dimension, the values it takes when the domain is a box (the
    #: domain then lists the box in lexicographic order); ``None`` when other
    #: constraints filter the box.
    axes: tuple[np.ndarray, ...] | None
    #: Live link directions per architecture and candidate PE box, built by
    #: the fused backend and dropped with the cache entry.
    live_directions: LiveDirectionMemo = field(default_factory=LiveDirectionMemo)

    def nbytes(self) -> int:
        arrays = {id(a): a for a in self.domain.values()}
        for rel in self.tensors.values():
            # A dense single-reference key array is its own rank.
            arrays.update((id(a), a) for a in (rel.dense_keys, *rel.raw_keys))
        return sum(a.nbytes for a in arrays.values()) + self.live_directions.nbytes()


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it."""
    array.flags.writeable = False
    return array


class RelationCache:
    """LRU cache of :class:`OpRelations`, keyed by op signature."""

    def __init__(self, max_entries: int = 4, max_bytes: int = 1 << 30):
        self.max_entries = int(max_entries)
        #: Total byte budget across entries (at least one entry is kept).
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[str, OpRelations] = OrderedDict()
        # Engines of concurrent server threads share one cache; the lock keeps
        # the LRU bookkeeping (move_to_end / eviction scans) coherent.
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0

    def get(self, key: str) -> OpRelations | None:
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.hits += 1
            else:
                self.misses += 1
            return entry

    def put(self, key: str, relations: OpRelations) -> None:
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

    Stateless with respect to dataflows: :meth:`materialize` streams the
    domain for any candidate and returns the ``(pe_lin, t_rank, element_keys,
    element_extents)`` tuple the analyzer consumes.  Over the attached
    :class:`RelationCache`, :meth:`relations` builds the dataflow-independent
    arrays once and :meth:`stamps` evaluates only the stamp columns per
    candidate.
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

    def relations(self, max_instances: int) -> OpRelations:
        """The operation's relations from the cache, built and cached on a
        miss; a ``ModelError`` past ``max_instances`` instances."""
        key = self._signature
        relations = self.cache.get(key)
        if relations is None:
            relations = self._build_relations(max_instances)
            self.cache.put(key, relations)
        _check_cap(relations.total, max_instances)
        return relations

    def _build_relations(self, max_instances: int) -> OpRelations:
        element_bounds = self.element_bounds()
        inclusive = self.inclusive_bounds()
        dims = self.op.loop_dims
        domain_parts: dict[str, list[np.ndarray]] = {dim: [] for dim in dims}
        total = 0
        axes = None
        if self.op.domain.is_box:
            # A box's columns are broadcasts of its axes, in the order the
            # chunks would list them.
            axes = tuple(
                _read_only(np.arange(lo, hi + 1, dtype=np.int64))
                for lo, hi in (inclusive[dim] for dim in dims)
            )
            shape = [axis.size for axis in axes]
            total = math.prod(shape)
            _check_cap(total, max_instances)
            for index, dim in enumerate(dims):
                vectors = [axes[index] if other == index else None for other in range(len(dims))]
                domain_parts[dim].append(box_sum(shape, vectors))
        else:
            for chunk in self.op.domain.chunks(self.chunk_size):
                total += chunk_length(chunk)
                _check_cap(total, max_instances)
                for dim in dims:
                    domain_parts[dim].append(np.asarray(chunk[dim], dtype=np.int64))
        if total == 0:
            raise ModelError(f"operation {self.op.name} has an empty iteration domain")

        # The cache shares these arrays with every engine over the op: none
        # may be written through.
        domain = {
            dim: _read_only(parts[0] if len(parts) == 1 else np.concatenate(parts))
            for dim, parts in domain_parts.items()
        }
        tensors: dict[str, TensorRelations] = {}
        for tensor in self.op.tensor_names:
            columns = element_bounds[tensor]
            raw = [
                _read_only(_element_keys(access.relation.out_exprs, columns, domain, dims, axes))
                for access in self.op.accesses_to(tensor)
            ]
            combined = raw[0] if len(raw) == 1 else np.concatenate(raw)
            dense = _read_only(_rank_keys(combined))
            tensors[tensor] = TensorRelations(
                raw_keys=raw,
                dense_keys=dense,
                extent=columns.extent,
                footprint=int(dense.max()) + 1,
            )
        return OpRelations(
            signature=self._signature,
            total=total,
            domain=domain,
            tensors=tensors,
            element_bounds=element_bounds,
            inclusive_bounds=inclusive,
            axes=axes,
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
            pe_lin = _linear_pe(dataflow, pe_array, chunk, length)
            self._stamp_memo[memo_key] = pe_lin
            max_bytes = 256 << 20
            while len(self._stamp_memo) > 64 or (
                len(self._stamp_memo) > 1
                and sum(a.nbytes for a in self._stamp_memo.values()) > max_bytes
            ):
                self._stamp_memo.popitem(last=False)

        time_bounds = [expr.bounds(relations.inclusive_bounds) for expr in dataflow.time_exprs]
        columns = [expr.evaluate_vec(chunk) for expr in dataflow.time_exprs]
        return pe_lin, time_ranks(columns, time_bounds, length)

    # -- streaming materialisation ---------------------------------------------------

    def materialize(
        self,
        dataflow: Dataflow,
        pe_array: PEArray,
        max_instances: int,
    ) -> tuple[np.ndarray, np.ndarray, dict[str, list[np.ndarray]], dict[str, int]]:
        """Evaluate dataflow and access relations over the whole iteration domain.

        Streams the domain chunk by chunk without caching it and returns
        ``(pe_lin, t_rank, element_keys, element_extents)``: the analyzer's
        path.  :meth:`relations` plus :meth:`stamps` produce identical arrays.
        """
        op = self.op
        time_bounds = dataflow.time_bounds(op)
        # One mixed-radix key per chunk, unless it would wrap int64; then
        # every time column is kept and the stamps are ranked at the end.
        keyed = _radix_fits(time_bounds)
        element_bounds = self.element_bounds()

        pe_parts: list[np.ndarray] = []
        time_parts: list[list[np.ndarray]] = []
        element_parts: dict[str, list[list[np.ndarray]]] = {
            tensor: [[] for _ in op.accesses_to(tensor)]
            for tensor in op.tensor_names
        }

        total = 0
        for chunk in op.domain.chunks(self.chunk_size):
            length = chunk_length(chunk)
            total += length
            _check_cap(total, max_instances)

            pe_parts.append(_linear_pe(dataflow, pe_array, chunk, length))

            stamps = [expr.evaluate_vec(chunk) for expr in dataflow.time_exprs]
            time_parts.append([_time_key(stamps, time_bounds, length)] if keyed else stamps)

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
        time_columns = [np.concatenate(parts) for parts in zip(*time_parts)]
        if keyed:
            unique_times = sorted_unique(time_columns[0])
            t_rank = np.searchsorted(unique_times, time_columns[0])
        else:
            t_rank = time_ranks(time_columns, time_bounds, total)

        element_keys = {
            tensor: [np.concatenate(parts) for parts in per_reference]
            for tensor, per_reference in element_parts.items()
        }
        element_extents = {
            tensor: columns.extent for tensor, columns in element_bounds.items()
        }
        return pe_lin, t_rank, element_keys, element_extents


def _linear_pe(
    dataflow: Dataflow, pe_array: PEArray, chunk: dict[str, np.ndarray], length: int
) -> np.ndarray:
    """Each of the ``length`` instances' row-major linear PE index; a
    ``DataflowError`` when one maps outside the array."""
    pe_lin = np.zeros(length, dtype=np.int64)
    for extent, expr in zip(pe_array.dims, dataflow.pe_exprs):
        column = expr.evaluate_vec(chunk)
        if (column < 0).any() or (column >= extent).any():
            raise DataflowError(
                f"dataflow {dataflow.name!r} maps instances outside the "
                f"{pe_array} array"
            )
        pe_lin = pe_lin * extent + column
    return pe_lin


def _check_cap(total: int, max_instances: int) -> None:
    if total > max_instances:
        raise ModelError(
            f"iteration domain exceeds the analyzer cap of {max_instances} "
            "instances; scale the workload first"
        )


# -- fast exact helpers ---------------------------------------------------------------


def _element_keys(
    exprs: Sequence,
    columns: TensorColumns,
    domain: dict[str, np.ndarray],
    dims: Sequence[str],
    axes: tuple[np.ndarray, ...] | None,
) -> np.ndarray:
    """One reference's mixed-radix element keys.

    On a box domain whose coordinates all split per axis the keys are one
    broadcast sum of per-axis vectors; otherwise ``encode_columns`` of the
    coordinates evaluated over the domain.  Both give the same keys.
    """
    if axes is not None and columns.extent < 1 << 63:
        splits = [split_axes(expr, dims, axes) for expr in exprs]
        if None not in splits:
            scales = []
            scale = 1
            for lo, hi in columns.bounds:
                scales.append(scale)
                scale *= max(1, hi - lo + 1)
            low, vectors = combine_splits(splits, scales, len(dims))
            base = sum(s * lo for s, (lo, _) in zip(scales, columns.bounds))
            return box_sum([axis.size for axis in axes], vectors, low - base)
    return columns.encode_columns([expr.evaluate_vec(domain) for expr in exprs])


def _rank_keys(keys: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of every key (``searchsorted(unique, keys)``).

    When the key range is comparable to the array length a presence bitmap
    over ``[min, max]`` and a cumulative sum replace the sort, which is the
    common case for time-stamp keys built from tight per-dimension bounds and
    for mixed-radix element keys.  Keys that cover their range are their own
    rank less the minimum (``keys`` itself when that is 0).
    """
    if keys.size == 0:
        return keys
    low = int(keys.min())
    span = int(keys.max()) - low
    if span <= max(4 * keys.size, 1 << 22):
        offsets = keys - low if low else keys
        presence = np.zeros(span + 1, dtype=bool)
        presence[offsets] = True
        if presence.all():
            return offsets
        lut = np.cumsum(presence)
        lut -= 1
        return lut[offsets]
    unique_keys = sorted_unique(keys)
    return np.searchsorted(unique_keys, keys)


def _radix_fits(bounds: Sequence[tuple[int, int]]) -> bool:
    """Whether the mixed-radix key over inclusive ``bounds`` fits in int64."""
    return math.prod(hi - lo + 1 for lo, hi in bounds) < 1 << 63


def _time_key(
    columns: Sequence[np.ndarray], bounds: Sequence[tuple[int, int]], length: int
) -> np.ndarray:
    """The mixed-radix key of time-stamp ``columns`` over their inclusive
    ``bounds``, first column most significant; requires :func:`_radix_fits`."""
    key = np.zeros(length, dtype=np.int64)
    for column, (lo, hi) in zip(columns, bounds):
        key = key * (hi - lo + 1) + (column - lo)
    return key


def time_ranks(
    columns: Sequence[np.ndarray], bounds: Sequence[tuple[int, int]], length: int
) -> np.ndarray:
    """Dense lexicographic rank of ``length`` time stamps.

    ``columns`` hold the time-stamp coordinates, each within its inclusive
    ``bounds``.  The mixed-radix key over those bounds is ranked when the
    product of the extents fits in int64.  Past that the key would wrap and
    merge distinct stamps, so the stamps are ranked one coordinate at a time:
    each step ranks ``rank * width + digit``, which stays below
    ``length ** 2``.
    """
    if _radix_fits(bounds):
        return _rank_keys(_time_key(columns, bounds, length))
    rank = np.zeros(length, dtype=np.int64)
    for column in columns:
        digits = _rank_keys(column)
        rank = _rank_keys(rank * (int(digits.max()) + 1) + digits)
    return rank


def _grid_fits(cells: int, instances: int) -> bool:
    """Whether a dense per-cell array stays within a small multiple of the
    instance count (the bound of the stamp-grid and histogram kernels)."""
    return cells <= max(8 * instances, 1 << 22)


def _utilization_dense(
    pe_lin: np.ndarray,
    t_rank: np.ndarray,
    num_pes: int,
) -> UtilizationMetrics | None:
    """Sort-free :func:`compute_utilization` via a dense (time, PE) histogram.

    Valid because ``t_rank`` is dense (every rank in ``[0, max+1)`` occurs);
    returns ``None`` when the histogram would dwarf the instance count.
    """
    num_instances = int(pe_lin.size)
    if num_instances == 0:
        return None
    num_ranks = int(t_rank.max()) + 1
    if not _grid_fits(num_ranks * num_pes, num_instances):
        return None
    counts = np.bincount(t_rank * num_pes + pe_lin, minlength=num_ranks * num_pes)
    counts = counts.reshape(num_ranks, num_pes)
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
    assume_unique: bool = False,
) -> VolumeMetrics | None:
    """Exact Table II metrics via a group-major key layout.

    Instead of the stamp-major keys of :func:`compute_volume_metrics`, pairs
    are sorted by ``((pe, element), time-rank)``.  In that layout a temporal
    predecessor (same PE, same element, one rank earlier) is the key one
    below, and if it exists it is the previous entry of the sorted unique
    keys, so the dominant membership ``searchsorted`` degenerates to one
    shifted equality test.  Spatial membership is then only probed for pairs
    without temporal reuse, which the sweeps' best candidates make a small
    minority.

    Returns ``None`` when the layout would overflow int64; callers fall back
    to the reference implementation.
    """
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

    # Temporal reuse: (pe, element, rank - 1) is the key one below, so it
    # can only be the previous entry of the sorted unique array.  Below a
    # rank-0 key lies the previous group's last rank, which is no reuse.
    temporal_mask = np.zeros(total, dtype=bool)
    np.equal(unique_keys[:-1], unique_keys[1:] - 1, out=temporal_mask[1:])
    temporal_mask &= ranks >= 1
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
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int]
) -> float:
    # Latency is the max of compute/read/write delays, so compute alone bounds it.
    return float(utilization.compute_delay_cycles)


def _energy_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int]
) -> float:
    # MAC energy is volume-independent and every other term is non-negative.
    return utilization.num_instances * arch.energy.mac_pj


def _edp_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int]
) -> float:
    return _latency_lower_bound(utilization, arch, footprints) * _energy_lower_bound(
        utilization, arch, footprints
    )


def _unique_volume_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int]
) -> float:
    # Every distinct element must cross the scratchpad boundary at least once,
    # so the per-tensor footprint is a floor on its unique volume.  When the
    # interconnect has no links the engine passes the candidate's distinct
    # (PE, element) group counts instead — a tighter, candidate-dependent
    # floor (each group's first access cannot be reused from anywhere).
    return float(sum(footprints.values()))


def _sbw_lower_bound(
    utilization: UtilizationMetrics, arch: ArchSpec, footprints: dict[str, int]
) -> float:
    # SBW = sum(unique volume) * word_bits / max(compute delay, 1); the unique
    # volume is bounded below by the footprint and the compute delay is already
    # exact at this point, so this bound is candidate-dependent: highly parallel
    # candidates (short delay) are pruned once a low-bandwidth one is known.
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
    str, Callable[[UtilizationMetrics, ArchSpec, dict[str, int]], float]
] = {
    "latency": _latency_lower_bound,
    "edp": _edp_lower_bound,
    "sbw": _sbw_lower_bound,
    "unique_volume": _unique_volume_lower_bound,
}


# -- the metric pipeline's prologue and epilogue (shared with the analyzer) ----------


def bind_checked(
    op: TensorOp, dataflow: Dataflow, arch: ArchSpec, max_instances: int
) -> Dataflow:
    """Refuse an operation past the instance cap, then bind the dataflow to
    it and check its space-stamp rank against the PE array."""
    box = op.domain.box_size()
    if box > max_instances:
        raise ModelError(
            f"iteration domain has up to {box} instances, above the analyzer cap of "
            f"{max_instances}; scale the workload (repro.workloads.scaling) or "
            "raise max_instances"
        )
    bound = dataflow.bind(op)
    bound.check_pe_rank(op, arch.pe_array)
    return bound


def reference_volume_metrics(
    tensor: str,
    pe_lin: np.ndarray,
    t_rank: np.ndarray,
    per_reference: Sequence[np.ndarray],
    element_extent: int,
    spacetime: SpacetimeMap,
    *,
    chunk_size: int = 1 << 20,
) -> VolumeMetrics:
    """The reference volume kernel over every textual reference of a tensor:
    the stamp columns repeat once per reference, beside its element keys."""
    references = len(per_reference)
    if references == 1:
        tensor_pe, tensor_rank, elements = pe_lin, t_rank, per_reference[0]
    else:
        tensor_pe = np.tile(pe_lin, references)
        tensor_rank = np.tile(t_rank, references)
        elements = np.concatenate(per_reference)
    return compute_volume_metrics(
        tensor,
        tensor_pe,
        tensor_rank,
        elements,
        spacetime.predecessor_table(),
        spacetime.pe_array.size,
        spatial_interval=spacetime.spatial_interval,
        chunk_size=chunk_size,
        element_extent=element_extent,
    )


def assemble_report(
    op: TensorOp,
    arch: ArchSpec,
    dataflow_name: str,
    utilization: UtilizationMetrics,
    volumes: dict[str, VolumeMetrics],
    notes: list[str],
    started: float,
) -> PerformanceReport:
    """Latency, bandwidth and energy from the volumes, in one report timed
    from ``started``."""
    if not utilization.is_injective:
        notes.append(
            "dataflow is not injective: some spacetime stamps execute more than one "
            "instance (the compute delay accounts for the extra cycles)"
        )
    latency = compute_latency(
        utilization, volumes, op.input_tensors, op.output_tensors, arch.memory
    )
    bandwidth = compute_bandwidth(volumes, utilization.compute_delay_cycles)
    energy = compute_energy(
        utilization.num_instances,
        volumes,
        arch.energy,
        noc_hop_distance=arch.interconnect.hop_distance,
    )
    return PerformanceReport(
        operation=op.name,
        dataflow=dataflow_name,
        architecture=arch.name,
        volumes=volumes,
        utilization=utilization,
        latency=latency,
        bandwidth=bandwidth,
        energy=energy,
        word_bits=arch.memory.word_bits,
        peak_macs_per_cycle=arch.peak_macs_per_cycle,
        analysis_seconds=time.perf_counter() - started,
        notes=notes,
    )


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


class EvaluationEngine:
    """Evaluate candidate dataflows for one (operation, architecture) pair.

    The engine owns a :class:`RelationMaterializer` (optionally backed by a
    shared :class:`RelationCache`), a report memo, and the batched sweep
    logic: objective-aware early termination and the stamp and volume
    kernels of its backend (``interp``, the reference, or ``fused``, the
    default: per-axis stamps and the stamp-grid kernel; see
    :mod:`repro.core.backends`).  Every candidate is evaluated over the
    cached relations of the operation, which holds at most ``max_instances``
    instances.  Reports are bit-identical to
    :meth:`repro.core.analyzer.TenetAnalyzer.analyze` (modulo the wall-clock
    ``analysis_seconds`` field) whichever backend runs.
    """

    def __init__(
        self,
        op: TensorOp,
        arch: ArchSpec,
        *,
        max_instances: int = 8_000_000,
        cache: RelationCache | None = None,
        memoize: bool = True,
        backend: str = "fused",
    ):
        self.op = op
        self.arch = arch
        self.max_instances = int(max_instances)
        self.cache = cache if cache is not None else RelationCache()
        self.materializer = RelationMaterializer(op, cache=self.cache)
        self.memoize = bool(memoize)
        self._memo: dict[tuple[str, str, str], PerformanceReport] = {}
        self._memo_prefix = (op_signature(op), arch_signature(arch))
        self._spacetime = SpacetimeMap(arch.pe_array, arch.interconnect)
        self._predecessor_table = self._spacetime.predecessor_table()
        #: Whether any PE can forward data to another.  Without links there is
        #: no spatial reuse, which makes the distinct-(PE, element) group count
        #: a sound (and candidate-dependent) unique-volume floor.
        self._has_links = bool((self._predecessor_table >= 0).any())
        self.backend_name = str(backend)
        self.stats: dict[str, int] = {
            "evaluated": 0,
            "memo_hits": 0,
            "pruned": 0,
            "failures": 0,
            "fast_path": 0,
            "reference_path": 0,
            # Per-tensor evaluations on the fused backend's grid kernel.
            "fused_path": 0,
            # Stamp expressions the fused backend could not split per axis
            # (a floor/mod/abs argument over several loop variables, or a
            # domain that is not a box); the interpreter evaluates each.
            "stamp_fallback_exprs": 0,
            # Cells of every stamp grid the fused backend built (rank rows x
            # the candidate's box PEs), a non-injective candidate's included.
            "grid_cells": 0,
            # Live-direction presence matrices the fused backend built: misses
            # of the memo it shares with every engine over the cached op.
            "direction_builds": 0,
        }
        #: Wall-clock seconds per pipeline stage, for ``tenet explore
        #: --profile``: where a sweep's time actually goes (stamps vs volume
        #: counting vs ranking).
        self.stage_seconds: dict[str, float] = {
            "materialise": 0.0,
            "stamps": 0.0,
            "utilization": 0.0,
            "volumes": 0.0,
            "rank": 0.0,
        }
        # Built last: the backend copies the values it reads (stats included)
        # instead of keeping the engine.
        self.backend = make_backend(self.backend_name, self)

    def close(self) -> None:
        """End the engine's lifecycle; sweep drivers and the serve registry
        call it when they drop an engine.  Nothing needs releasing: the memos
        are freed with the engine by reference counting."""

    def cache_stats(self) -> dict[str, int]:
        """Relation-cache counters (entries, hits, misses)."""
        return dict(self.cache.stats())

    def profile(self) -> dict[str, float]:
        """Per-stage wall-clock breakdown (seconds)."""
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
    ) -> tuple[PerformanceReport | float, bool]:
        """Memoised evaluation; returns (report-or-lower-bound, memo hit)."""
        key = self._memo_key(dataflow)
        if self.memoize:
            hit = self._memo.get(key)
            if hit is not None:
                self.stats["memo_hits"] += 1
                return hit, True
        result = self._evaluate(dataflow, objective=objective, best_score=best_score)
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
    ) -> PerformanceReport | float:
        """Full metric pipeline; returns a lower bound instead of a report when
        the candidate provably cannot beat ``best_score`` under ``objective``.
        """
        started = time.perf_counter()
        bound = bind_checked(self.op, dataflow, self.arch, self.max_instances)

        stage = self.stage_seconds
        mark = time.perf_counter()
        relations = self.materializer.relations(self.max_instances)
        num_pes = self.arch.pe_array.size
        now = time.perf_counter()
        stage["materialise"] += now - mark
        mark = now

        stamps = self.backend.stamps(relations, bound, self.arch.pe_array)
        now = time.perf_counter()
        stage["stamps"] += now - mark
        mark = now

        utilization, grid = self.backend.utilization(stamps, num_pes)
        if utilization is None:
            utilization = compute_utilization(stamps.pe_lin, stamps.t_rank, num_pes)
        now = time.perf_counter()
        stage["utilization"] += now - mark
        mark = now

        if objective is not None and best_score is not None:
            bound_fn = LOWER_BOUNDS.get(objective)
            if bound_fn is not None:
                if not self._has_links and objective in ("unique_volume", "sbw"):
                    # Without interconnect links the only reuse is temporal
                    # within one (PE, element) group, so every distinct group
                    # costs at least one scratchpad transfer.  This floor
                    # depends on the candidate's PE assignment, so it
                    # discriminates where the constant per-op footprint floor
                    # cannot.
                    floors = self._group_count_floors(stamps.pe_lin, relations)
                else:
                    floors = {t: rel.footprint for t, rel in relations.tensors.items()}
                lower = bound_fn(utilization, self.arch, floors)
                if lower > best_score:
                    return lower

        backend_metrics = self.backend.volume_metrics_many(
            self.op.tensor_names,
            bound,
            stamps,
            relations,
            assume_unique=utilization.is_injective,
            grid=grid,
        )
        volumes: dict[str, VolumeMetrics] = {}
        for tensor in self.op.tensor_names:
            metrics = backend_metrics[tensor]
            if metrics is not None:
                self.stats["fast_path"] += 1
            else:
                self.stats["reference_path"] += 1
                rel = relations.tensors[tensor]
                metrics = reference_volume_metrics(
                    tensor, stamps.pe_lin, stamps.t_rank, rel.raw_keys, rel.extent,
                    self._spacetime,
                )
            volumes[tensor] = metrics
        now = time.perf_counter()
        stage["volumes"] += now - mark
        mark = now

        report = assemble_report(
            self.op, self.arch, bound.name, utilization, volumes, [], started
        )
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
        score_fn = OBJECTIVES.get(objective) if objective else None
        outcomes: list[CandidateOutcome] = []
        for index, dataflow in enumerate(candidates):
            signature = dataflow_signature(dataflow)
            outcome = CandidateOutcome(index=index, name=dataflow.name, signature=signature)
            try:
                result, outcome.memo_hit = self._evaluate_memo(
                    dataflow,
                    objective=objective if early_termination else None,
                    best_score=best_score if early_termination else None,
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
        return BatchResult(outcomes=outcomes, seconds=time.perf_counter() - started)
