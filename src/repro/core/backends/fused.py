"""The fused backend: per-axis stamps and the stamp-grid volume kernel.

:class:`FusedBackend` is the one fast evaluation path (``fused``, and
``auto``, its alias and the default).  It removes two sources of redundancy
from a sweep:

* **Per-axis stamps** — on a box domain, a stamp expression whose
  floor/mod/abs arguments each read one loop variable is a constant plus one
  int64 vector per loop axis, at most the axis's extent long
  (:func:`repro.isl.expr.split_axes`).  The PE range check and the time-key
  bounds are exact Python-int sums of the per-axis extremes.  Each
  instance's grid cell ``(key - min) * num_pes + pe`` is one broadcast sum
  of per-axis vectors (:func:`repro.isl.enumeration.box_sum`), and when the
  candidate is injective and its key dense that cell array *is* the stamp
  grid: no time-key or rank column is built.  The linear PE column is
  broadcast only when the live-direction memo or the engine's group-count
  floors read it.  Candidates whose key is not dense, or whose grid would
  pass the size bound, broadcast the key and PE columns and rank the keys;
  a key that would wrap int64 is ranked one time coordinate at a time.
  Expressions that do not split, and domains that are not a box, take the
  interpreter's stamps (counted in ``stamp_fallback_exprs``).
* **Stamp grid** — each instance's stamp ``t_rank * num_pes + pe_lin`` indexes
  a dense (time rank x PE) grid, built once per candidate by
  :meth:`FusedBackend.utilization` and handed by the engine to the volume
  kernel.  On an injective candidate every cell holds at most one instance,
  so TENET's intersection of a tensor's data assignment with the spacetime
  map becomes a comparison of grid cells: scatter the tensor's element ids
  onto the grid, one grid per distinct reference, then temporal reuse is the
  grids against themselves shifted ``temporal_interval * num_pes`` cells,
  and spatial reuse one shifted comparison per interconnect *direction* (the
  links sharing one linear PE offset), masked to the PEs that have the link.
  A stencil's cross-reference hits are its reuse: ``A[i-1][j]`` at
  ``(i, j)`` is ``A[i][j]`` at ``(i-1, j)``.  Directions along which no
  (PE, element) group has a source group are skipped per space signature.
  No sort, no ``searchsorted``, and any ``temporal_interval >= 1``.

Per tensor the kernels chain grid → group-major → the engine's reference
kernel (:func:`repro.core.volumes.compute_volume_metrics`).  Candidates
without a grid (non-injective ones and grids past the ``max(8n, 2^22)`` cell
bound) take the group-major sort/adjacency kernel that ``interp`` uses, and
temporal intervals past its 8-rank window the reference kernel.  All three
are exact, so reports are bit-identical to ``interp``.
"""

from __future__ import annotations

import math
import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from repro.core.backends.base import EngineBackend, Stamps
from repro.core.dataflow import Dataflow
from repro.core.utilization import UtilizationMetrics
from repro.core.volumes import VolumeMetrics
from repro.errors import DataflowError
from repro.isl.enumeration import box_sum
from repro.isl.expr import AxisSplit, combine_splits, split_axes

#: Process-wide thread pool for per-tensor volume kernels, the engine's only
#: in-process concurrency.  The kernels are pure numpy whose heavy operations
#: (scatters, comparisons, sorts) release the GIL, so one candidate's tensors
#: run concurrently; ``volume_metrics_many`` uses it for multi-tensor ops of at
#: least :data:`_VOLUME_POOL_MIN_INSTANCES` instances on a multi-core machine.
#: Shared and lazy so the many short-lived engines in tests do not each spawn
#: threads.  Keyed by PID: a pool inherited across ``fork`` (a caller may fork
#: after a sweep) has no live threads and would deadlock, so each process
#: builds its own.
_VOLUME_POOL: tuple[int, ThreadPoolExecutor] | None = None
_CPU_COUNT = os.cpu_count() or 1

#: Instance count from which a multi-tensor op's volume kernels run on the
#: pool: of the powers of two measured (2^17 to 2^22, README "More cores"),
#: the smallest at which the pool won every interleaved pair on conv2d.  On
#: gemm it won every pair nowhere, and it ties from 2^21 up.
_VOLUME_POOL_MIN_INSTANCES = 1 << 21


def _volume_pool() -> ThreadPoolExecutor | None:
    global _VOLUME_POOL
    if _CPU_COUNT < 2:
        return None
    pid = os.getpid()
    if _VOLUME_POOL is None or _VOLUME_POOL[0] != pid:
        _VOLUME_POOL = (
            pid,
            ThreadPoolExecutor(
                max_workers=min(4, _CPU_COUNT),
                thread_name_prefix="tenet-volume",
            ),
        )
    return _VOLUME_POOL[1]


# -- per-axis stamps ---------------------------------------------------------------


def _strides(extents: Sequence[int]) -> list[int]:
    """Row-major strides of a mixed-radix number with these digit extents."""
    strides = [1] * len(extents)
    for index in range(len(extents) - 2, -1, -1):
        strides[index] = strides[index + 1] * extents[index + 1]
    return strides


class SeparableStamps:
    """One candidate's stamps on a box domain, kept as per-axis vectors.

    The time key is the mixed-radix number of the time coordinates, each
    less its exact minimum, so it ranges over ``[0, num_keys)``.  ``cell``
    holds every instance's grid cell ``key * num_pes + pe``, one broadcast
    sum, when ``num_keys * num_pes`` is within the grid bound, and ``None``
    otherwise.  ``pe_lin`` and ``t_rank`` are broadcast when first read.
    """

    def __init__(
        self,
        shape: Sequence[int],
        pe_splits: Sequence[AxisSplit],
        pe_dims: Sequence[int],
        time_splits: Sequence[AxisSplit],
    ):
        from repro.core.engine import _grid_fits

        self.shape = tuple(shape)
        num_pes = math.prod(pe_dims)
        pe_weights = _strides(pe_dims)
        self._pe = combine_splits(pe_splits, pe_weights, len(shape))
        self._time = tuple(time_splits)
        extents = [split.high - split.low + 1 for split in time_splits]
        self.num_keys = math.prod(extents)
        self._key_weights = _strides(extents)
        self.cell: np.ndarray | None = None
        if _grid_fits(self.num_keys * num_pes, math.prod(shape)):
            _, vectors = combine_splits(
                [*time_splits, *pe_splits],
                [weight * num_pes for weight in self._key_weights] + pe_weights,
                len(shape),
            )
            self.cell = box_sum(self.shape, vectors, self._pe[0])

    @cached_property
    def pe_lin(self) -> np.ndarray:
        low, vectors = self._pe
        return box_sum(self.shape, vectors, low)

    @cached_property
    def t_rank(self) -> np.ndarray:
        from repro.core.engine import _rank_keys, time_ranks

        axes = len(self.shape)
        if self.num_keys < 1 << 63:
            _, vectors = combine_splits(self._time, self._key_weights, axes)
            return _rank_keys(box_sum(self.shape, vectors))
        columns = [
            box_sum(self.shape, combine_splits([split], [1], axes)[1])
            for split in self._time
        ]
        bounds = [(0, split.high - split.low) for split in self._time]
        return time_ranks(columns, bounds, math.prod(self.shape))


# -- stamp grid --------------------------------------------------------------------


@dataclass
class StampGrid:
    """One injective candidate's dense (time rank x PE) stamp grid.

    Cell ``t * num_pes + p`` is PE ``p`` at time rank ``t``.  ``stamp`` holds
    every instance's cell, ``occupied`` marks the cells an instance runs in
    (injective means at most one instance per cell) and ``active`` counts
    the occupied cells of each rank row.
    """

    stamp: np.ndarray
    occupied: np.ndarray
    num_ranks: int
    num_pes: int
    active: np.ndarray

    @property
    def full(self) -> bool:
        """Every cell holds an instance (no empty cell needs masking)."""
        return self.stamp.size == self.occupied.size


def stamp_grid(stamp: np.ndarray, num_ranks: int, num_pes: int) -> StampGrid | None:
    """The grid of a candidate whose instances run in cells ``stamp`` of a
    ``num_ranks x num_pes`` grid, or ``None`` when two instances share a
    cell (the candidate is not injective)."""
    instances = stamp.size
    occupied = np.zeros(num_ranks * num_pes, dtype=bool)
    occupied[stamp] = True
    if np.count_nonzero(occupied) != instances:
        return None
    active = np.count_nonzero(occupied.reshape(num_ranks, num_pes), axis=1)
    return StampGrid(stamp, occupied, num_ranks, num_pes, active)


@dataclass(frozen=True, eq=False)
class Direction:
    """The interconnect links that share one linear PE offset ``source - pe``."""

    offset: int
    #: Destination PEs that have a link with this offset.
    pes: np.ndarray
    #: ``pes`` as a per-PE mask, broadcast over the grid's time rows.
    mask: np.ndarray


def link_directions(
    predecessor_table: np.ndarray, num_pes: int, spatial_interval: int
) -> list[Direction]:
    """Group the predecessor table's links by linear PE offset.

    With a zero spatial interval (same-cycle multicast) only sources below
    the destination count, as in the reference kernel.
    """
    slots = predecessor_table.shape[1]
    pes = np.repeat(np.arange(num_pes), slots)
    sources = predecessor_table.ravel()
    valid = sources >= 0
    if spatial_interval == 0:
        valid &= sources < pes
    pes = pes[valid]
    offsets = sources[valid] - pes
    directions = []
    for offset in np.unique(offsets):
        dest = pes[offsets == offset]
        mask = np.zeros(num_pes, dtype=bool)
        mask[dest] = True
        directions.append(Direction(int(offset), dest, mask))
    return directions


def grid_volume_metrics(
    tensor: str,
    grid: StampGrid,
    ids: Sequence[np.ndarray],
    directions: Sequence[Direction],
    *,
    spatial_interval: int,
    temporal_interval: int,
    footprint: int,
) -> VolumeMetrics:
    """Exact Table II metrics by shifted comparisons on the stamp grid.

    ``ids`` holds, per distinct reference, the element each instance touches.
    Scattered onto one grid per reference, with -1 on empty cells, a (stamp,
    element) pair has temporal reuse when the cells ``temporal_interval *
    num_pes`` back (same PE, ``temporal_interval`` ranks earlier) hold its
    element under any reference, and spatial reuse when, for a direction of
    offset ``o`` its PE has, the cells ``spatial_interval * num_pes - o`` back
    (PE ``pe + o``, ``spatial_interval`` ranks earlier) do.  Both shifts are
    positive, so slicing drops sources before rank 0.  A pair counts once:
    a reference's cell is dropped where an earlier reference holds the same
    element.  Requires an injective candidate; the counts equal the
    reference kernel's.
    """
    num_pes = grid.num_pes
    size = grid.occupied.size
    cells = []
    for reference in ids:
        grid_ids = np.full(size, -1, dtype=reference.dtype)
        grid_ids[grid.stamp] = reference
        cells.append(grid_ids)
    if len(cells) == 1:
        # One element per occupied cell: nothing to deduplicate.
        pairs = None if grid.full else [grid.occupied]
        total = int(grid.stamp.size)
        scratch = None
    else:
        # A reference's cell holds a new (stamp, element) pair unless an
        # earlier reference holds the same element there.
        pairs = []
        for index, grid_ids in enumerate(cells):
            fresh = grid.occupied.copy()
            for earlier in cells[:index]:
                fresh &= grid_ids != earlier
            pairs.append(fresh)
        total = sum(int(np.count_nonzero(fresh)) for fresh in pairs)
        scratch = np.empty(size, dtype=bool)

    def match(grid_ids: np.ndarray, shift: int, out: np.ndarray) -> None:
        """``out[shift:]`` marks the cells whose element some reference
        holds ``shift`` cells back."""
        np.equal(grid_ids[shift:], cells[0][:-shift], out=out[shift:])
        for source in cells[1:]:
            np.equal(grid_ids[shift:], source[:-shift], out=scratch[shift:])
            out[shift:] |= scratch[shift:]

    def count(reuse: list[np.ndarray]) -> int:
        if pairs is not None:
            for hits, fresh in zip(reuse, pairs):
                hits &= fresh
        return sum(int(np.count_nonzero(hits)) for hits in reuse)

    reuse = [np.zeros(size, dtype=bool) for _ in cells]
    back = temporal_interval * num_pes
    if back < size:
        for grid_ids, hits in zip(cells, reuse):
            match(grid_ids, back, hits)
    temporal_count = count(reuse)

    spatial_count = 0
    if temporal_count < total and directions:
        # ``reuse`` becomes the union of temporal and spatial hits; a hit
        # only counts on a PE that has the direction's link.
        hits = np.empty(size, dtype=bool)
        hit_rows = hits.reshape(grid.num_ranks, num_pes)
        for direction in directions:
            shift = spatial_interval * num_pes - direction.offset
            if shift >= size:
                continue
            hits[:shift] = False
            for grid_ids, union in zip(cells, reuse):
                match(grid_ids, shift, hits)
                hit_rows &= direction.mask
                union |= hits
        spatial_count = count(reuse) - temporal_count

    return VolumeMetrics(
        tensor=tensor,
        total=total,
        reuse=temporal_count + spatial_count,
        temporal_reuse=temporal_count,
        spatial_reuse=spatial_count,
        footprint=footprint,
    )


# -- the backend -------------------------------------------------------------------


class FusedBackend(EngineBackend):
    """Per-axis stamps plus the stamp-grid volume kernel."""

    name = "fused"

    _DIRECTION_MEMO_ENTRIES = 32

    def __init__(self, engine):
        super().__init__(engine)
        #: Live link directions per (space signature, tensor).
        self._direction_memo: OrderedDict[tuple, tuple[Direction, ...]] = OrderedDict()
        #: Grid element ids per tensor, for one cached-relations object.
        self._ids: tuple[object, dict[str, tuple[np.ndarray, ...]]] | None = None
        self.directions = link_directions(
            self.predecessor_table, self.num_pes, self.spatial_interval
        )

    # -- stamps -----------------------------------------------------------------

    @staticmethod
    def pe_signature(dataflow: Dataflow) -> tuple[str, ...]:
        signature = getattr(dataflow, "_pe_signature", None)
        if signature is None:
            signature = tuple(str(e) for e in dataflow.pe_exprs)
            dataflow._pe_signature = signature
        return signature

    def stamps(self, relations, dataflow, pe_array):
        """Per-axis stamps on a box domain; the interpreter's otherwise, or
        when an expression does not split."""
        exprs = dataflow.pe_exprs + dataflow.time_exprs
        axes = relations.axes
        splits = [] if axes is None else [split_axes(e, self.loop_dims, axes) for e in exprs]
        unsplit = len(exprs) if axes is None else sum(split is None for split in splits)
        if unsplit:
            self.stats["stamp_fallback_exprs"] += unsplit
            return Stamps(*self.materializer.stamps(relations, dataflow, pe_array))
        rank = len(dataflow.pe_exprs)
        for extent, split in zip(pe_array.dims, splits[:rank]):
            if split.low < 0 or split.high >= extent:
                raise DataflowError(
                    f"dataflow {dataflow.name!r} maps instances outside the "
                    f"{pe_array} array"
                )
        return SeparableStamps(
            [axis.size for axis in axes], splits[:rank], pe_array.dims, splits[rank:]
        )

    def utilization(self, stamps, num_pes):
        """Utilization read off the stamp grid, which is returned too when
        the candidate is injective: every rank is occupied, the compute
        delay is the rank count, and the occupied cells per rank are the
        active PEs.

        A per-axis candidate's grid cells index its time keys, which are its
        ranks when every key row holds an instance; otherwise the keys are
        ranked and the grid rebuilt on the ranks.  A candidate that is not
        injective on its keys is not injective on its ranks either.
        """
        from repro.core.engine import _grid_fits, _utilization_dense

        cell = stamps.cell if isinstance(stamps, SeparableStamps) else None
        grid = None if cell is None else stamp_grid(cell, stamps.num_keys, num_pes)
        if cell is None or (grid is not None and not grid.active.all()):
            t_rank = stamps.t_rank
            num_ranks = int(t_rank.max()) + 1
            grid = None
            if _grid_fits(num_ranks * num_pes, t_rank.size):
                grid = stamp_grid(t_rank * num_pes + stamps.pe_lin, num_ranks, num_pes)
        if grid is None:
            return _utilization_dense(stamps.pe_lin, stamps.t_rank, num_pes), None
        metrics = UtilizationMetrics(
            num_instances=int(grid.stamp.size),
            num_pes=num_pes,
            num_time_stamps=grid.num_ranks,
            occupied_stamps=int(grid.stamp.size),
            compute_delay_cycles=grid.num_ranks,
            max_active_pes=int(grid.active.max()),
        )
        return metrics, grid

    # -- volumes ----------------------------------------------------------------

    def _element_ids(self, relations) -> dict[str, tuple[np.ndarray, ...]]:
        """Per tensor and distinct reference (identical ones collapse), the
        dense element id of every instance, as int16 when the footprint
        allows and int32 otherwise."""
        cached = self._ids
        if cached is not None and cached[0] is relations:
            return cached[1]
        total = relations.total
        ids: dict[str, tuple[np.ndarray, ...]] = {}
        for tensor, rel in relations.tensors.items():
            distinct: list[np.ndarray] = []
            for index in range(rel.references):
                segment = rel.dense_keys[index * total : (index + 1) * total]
                if not any(np.array_equal(segment, seen) for seen in distinct):
                    distinct.append(segment)
            dtype = np.int16 if rel.footprint < (1 << 15) else np.int32
            ids[tensor] = tuple(segment.astype(dtype) for segment in distinct)
        self._ids = (relations, ids)
        return ids

    def _live_directions(self, pe_lin, ids, footprint) -> tuple[Direction, ...]:
        """The directions along which some (PE, element) group has a source
        group, from a ``num_pes x footprint`` presence matrix over every
        reference; every direction when that matrix would exceed the grid
        bound."""
        from repro.core.engine import _grid_fits

        directions = self.directions
        if not directions or not _grid_fits(self.num_pes * footprint, pe_lin.size):
            return tuple(directions)
        presence = np.zeros(self.num_pes * footprint, dtype=bool)
        for reference in ids:
            presence[pe_lin * footprint + reference] = True
        presence = presence.reshape(self.num_pes, footprint)
        return tuple(
            direction
            for direction in directions
            if (presence[direction.pes] & presence[direction.pes + direction.offset]).any()
        )

    def volume_metrics_many(
        self, tensors, dataflow, stamps, relations, *, assume_unique, grid=None,
    ):
        """The grid kernel for every tensor of a candidate with a stamp grid;
        without one (non-injective, or past the size bound) the group-major
        kernel, as in ``interp``."""
        tensors = list(tensors)
        directions = {}
        if grid is not None:
            ids = self._element_ids(relations)
            signature = self.pe_signature(dataflow)
            memo = self._direction_memo
            # Memo reads and writes happen serially, before the kernels run.
            for tensor in tensors:
                key = (signature, tensor)
                live = memo.get(key)
                if live is None:
                    live = memo[key] = self._live_directions(
                        stamps.pe_lin, ids[tensor], relations.tensors[tensor].footprint
                    )
                memo.move_to_end(key)
                directions[tensor] = live
            while len(memo) > self._DIRECTION_MEMO_ENTRIES:
                memo.popitem(last=False)

        def volume(tensor):
            if grid is None:
                return self.volume_metrics(
                    tensor, dataflow, stamps.pe_lin, stamps.t_rank, relations,
                    assume_unique=assume_unique,
                )
            return grid_volume_metrics(
                tensor,
                grid,
                ids[tensor],
                directions[tensor],
                spatial_interval=self.spatial_interval,
                temporal_interval=self.temporal_interval,
                footprint=relations.tensors[tensor].footprint,
            )

        pool = _volume_pool() if (
            len(tensors) > 1 and relations.total >= _VOLUME_POOL_MIN_INSTANCES
        ) else None
        if pool is not None:
            futures = {tensor: pool.submit(volume, tensor) for tensor in tensors}
            results = {tensor: future.result() for tensor, future in futures.items()}
        else:
            results = {tensor: volume(tensor) for tensor in tensors}
        if grid is not None:
            self.stats["fused_path"] += len(tensors)
        return results
