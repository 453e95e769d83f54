"""The fused backend: per-axis stamps, PE boxes and the stamp-grid volume kernel.

:class:`FusedBackend` is the one fast evaluation path (``fused``, the
default).  It removes three sources of redundancy from a sweep:

* **Per-axis stamps** — on a box domain, a stamp expression whose
  floor/mod/abs arguments each read one loop variable is a constant plus one
  int64 vector per loop axis, at most the axis's extent long
  (:func:`repro.isl.expr.split_axes`).  An expression that does not split is
  evaluated by the interpreter over the cached domain columns and joins the
  sums as one whole-box column (counted in ``stamp_fallback_exprs``).  The
  PE range check and the time-key bounds are exact Python-int sums of the
  per-axis extremes (a column's own extremes).  Each instance's grid cell
  ``(key - min) * box_size + box_pe`` is one broadcast sum of per-axis
  vectors (:func:`repro.isl.enumeration.box_sum`), and when the candidate
  is injective and its key dense that cell array *is* the stamp grid: no
  time-key or rank column is built.  Candidates whose key is not dense, or
  whose grid would pass the size bound, broadcast the key and PE columns and
  rank the keys; a key that would wrap int64 is ranked one time coordinate
  at a time.  Domains that are not a box take the interpreter's stamps for
  every expression.
* **PE box** — a candidate's grid, link directions and presence matrix span
  its PE bounding box, not the array: per PE coordinate, the exact range the
  range check computes (the whole array on a domain that is not a box).  A
  PE outside the box runs no instance, so it holds no element to forward
  and receives none: dropping it changes no count.  Box PEs are numbered
  row-major within the box, which keeps the array's order among them, so
  multicast's ``source < pe`` rule carries over.  The whole-array linear PE
  column is broadcast only where the engine reads it in array terms (the
  link-free group-count floors and the reference kernel).
* **Stamp grid** — each instance's stamp ``t_rank * box_size + box_pe``
  indexes a dense (time rank x box PE) grid, built once per candidate by
  :meth:`FusedBackend.utilization` and handed by the engine to the volume
  kernel.  On an injective candidate every cell holds at most one instance,
  so TENET's intersection of a tensor's data assignment with the spacetime
  map becomes a comparison of grid cells: scatter the tensor's element ids
  onto the grid, one grid per distinct reference, then temporal reuse is the
  grids against themselves shifted one rank row (``box_size`` cells), and
  spatial reuse one shifted comparison per interconnect *direction* (the
  box links sharing one box-linear PE offset), masked to the PEs that have
  the link.  A stencil's cross-reference hits are its reuse: ``A[i-1][j]``
  at ``(i, j)`` is ``A[i][j]`` at ``(i-1, j)``.  Directions along which no
  (PE, element) group has a source group are skipped.  Which ones are live
  depends on the architecture, the space signature and the tensor, never on
  the time stamps, so the live directions are kept with the cached relations
  (:class:`repro.core.engine.LiveDirectionMemo`) and shared by every engine
  over the operation.  No sort and no ``searchsorted``.

Per tensor the kernels chain grid → group-major → the engine's reference
kernel (:func:`repro.core.volumes.compute_volume_metrics`).  Candidates
without a grid (non-injective ones and grids past the ``max(8n, 2^22)`` cell
bound) take the group-major sort/adjacency kernel that ``interp`` uses, on
box PEs and the box's links, and a group-major key layout past int64 the
reference kernel.  All three are exact, so reports are bit-identical to
``interp``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
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

# -- per-axis stamps ---------------------------------------------------------------


def _strides(extents: Sequence[int]) -> list[int]:
    """Row-major strides of a mixed-radix number with these digit extents."""
    strides = [1] * len(extents)
    for index in range(len(extents) - 2, -1, -1):
        strides[index] = strides[index + 1] * extents[index + 1]
    return strides


def _broadcast(
    shape: Sequence[int], splits: Sequence[AxisSplit], weights: Sequence[int], const: int = 0
) -> np.ndarray:
    """``const + sum(weights[e] * (splits[e] - splits[e].low))`` at every point
    of the box of ``shape``: one broadcast sum of the per-axis vectors, plus
    the whole-box column of every split that has one.  Every term is
    non-negative, so no partial sum leaves the result's range."""
    _, vectors = combine_splits(splits, weights, len(shape))
    values = box_sum(shape, vectors, const)
    for split, weight in zip(splits, weights):
        if split.column is not None:
            values += (split.column - split.low) * weight
    return values


@dataclass(frozen=True)
class PEBox:
    """The PEs a candidate can occupy: per array axis, ``extents[a]`` PEs
    from ``low[a]``.  Box PEs are numbered row-major within the box."""

    low: tuple[int, ...]
    extents: tuple[int, ...]

    @classmethod
    def whole(cls, dims: Sequence[int]) -> "PEBox":
        return cls((0,) * len(dims), tuple(dims))

    @property
    def size(self) -> int:
        return math.prod(self.extents)

    def links(self, predecessor_table: np.ndarray, pe_dims: Sequence[int]) -> np.ndarray:
        """The array's predecessor table restricted to the box, in box PEs.

        Row ``b`` lists the box PEs that can send to box PE ``b``, padded
        with -1; slot columns that hold no link in the box are dropped.
        """
        members = box_sum(self.extents, [
            np.arange(low, low + extent) * stride
            for low, extent, stride in zip(self.low, self.extents, _strides(pe_dims))
        ])
        # One spare entry, so the table's -1 padding reads -1.
        inverse = np.full(predecessor_table.shape[0] + 1, -1, dtype=np.int64)
        inverse[members] = np.arange(members.size)
        table = inverse[predecessor_table[members]]
        return table[:, (table >= 0).any(axis=0)]


class SeparableStamps:
    """One candidate's stamps on a box domain, kept as per-axis vectors.

    The time key is the mixed-radix number of the time coordinates, each
    less its exact minimum, so it ranges over ``[0, num_keys)``.  ``box`` is
    the candidate's PE bounding box and ``box_pe`` every instance's PE
    numbered in it.  ``cell`` holds every instance's grid cell ``key *
    box.size + box_pe``, one broadcast sum, when ``num_keys * box.size`` is
    within the grid bound, and ``None`` otherwise.  ``pe_lin`` (the
    whole-array linear PE), ``box_pe`` and ``t_rank`` are broadcast when
    first read.
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
        self._pe = tuple(pe_splits)
        self._pe_weights = _strides(pe_dims)
        self.box = PEBox(
            tuple(split.low for split in pe_splits),
            tuple(split.high - split.low + 1 for split in pe_splits),
        )
        self._box_weights = _strides(self.box.extents)
        self._time = tuple(time_splits)
        extents = [split.high - split.low + 1 for split in time_splits]
        self.num_keys = math.prod(extents)
        self._key_weights = _strides(extents)
        self.cell: np.ndarray | None = None
        size = self.box.size
        if _grid_fits(self.num_keys * size, math.prod(shape)):
            self.cell = _broadcast(
                self.shape,
                [*self._time, *self._pe],
                [weight * size for weight in self._key_weights] + self._box_weights,
            )

    @cached_property
    def pe_lin(self) -> np.ndarray:
        low = sum(weight * split.low for weight, split in zip(self._pe_weights, self._pe))
        return _broadcast(self.shape, self._pe, self._pe_weights, low)

    @cached_property
    def box_pe(self) -> np.ndarray:
        return _broadcast(self.shape, self._pe, self._box_weights)

    @cached_property
    def t_rank(self) -> np.ndarray:
        from repro.core.engine import _rank_keys, time_ranks

        if self.num_keys < 1 << 63:
            return _rank_keys(_broadcast(self.shape, self._time, self._key_weights))
        columns = [_broadcast(self.shape, [split], [1]) for split in self._time]
        bounds = [(0, split.high - split.low) for split in self._time]
        return time_ranks(columns, bounds, math.prod(self.shape))


@dataclass
class InterpretedStamps(Stamps):
    """The interpreter's stamps of a domain that is not a box, on the whole
    array as their PE box."""

    box: PEBox
    cell = None

    @property
    def box_pe(self) -> np.ndarray:
        return self.pe_lin


# -- stamp grid --------------------------------------------------------------------


@dataclass
class StampGrid:
    """One injective candidate's dense (time rank x box PE) stamp grid.

    Cell ``t * num_pes + p`` is box PE ``p`` at time rank ``t``.  ``stamp``
    holds every instance's cell, ``occupied`` marks the cells an instance
    runs in (injective means at most one instance per cell) and ``active``
    counts the occupied cells of each rank row.
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
    """The box links that share one box-linear PE offset ``source - pe``."""

    offset: int
    #: Destination box PEs that have a link with this offset.
    pes: np.ndarray
    #: ``pes`` as a per-box-PE mask, broadcast over the grid's time rows.
    mask: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.pes.nbytes + self.mask.nbytes


def link_directions(
    predecessor_table: np.ndarray,
    pe_dims: Sequence[int],
    box: PEBox,
    spatial_interval: int,
) -> list[Direction]:
    """Group the links between PEs of ``box`` by box-linear PE offset.

    The links are the array's predecessor table restricted to the box
    (:meth:`PEBox.links`).  With a zero spatial interval (same-cycle
    multicast) only sources below the destination count, as in the
    reference kernel; box numbering keeps the array's order, so the rule
    picks the same links.
    """
    table = box.links(predecessor_table, pe_dims)
    pes = np.repeat(np.arange(box.size), table.shape[1])
    sources = table.ravel()
    valid = sources >= 0
    if spatial_interval == 0:
        valid &= sources < pes
    pes = pes[valid]
    offsets = sources[valid] - pes
    directions = []
    for offset in np.unique(offsets):
        dest = pes[offsets == offset]
        mask = np.zeros(box.size, dtype=bool)
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
    footprint: int,
) -> VolumeMetrics:
    """Exact Table II metrics by shifted comparisons on the stamp grid.

    ``ids`` holds, per distinct reference, the element each instance touches.
    Scattered onto one grid per reference, with -1 on empty cells, a (stamp,
    element) pair has temporal reuse when the cells ``num_pes`` back (same
    PE, one rank earlier) hold its element under any reference, and spatial
    reuse when, for a direction of offset ``o`` its PE has, the cells
    ``spatial_interval * num_pes - o`` back (PE ``pe + o``,
    ``spatial_interval`` ranks earlier) do.  Both shifts are positive, so
    slicing drops sources before rank 0.  ``num_pes`` is the
    grid's box PEs and ``directions`` group the box's links.  A pair counts
    once: a reference's cell is dropped where an earlier reference holds the
    same element.  Requires an injective candidate; the counts equal the
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
    if num_pes < size:
        for grid_ids, hits in zip(cells, reuse):
            match(grid_ids, num_pes, hits)
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
    """Per-axis stamps on PE boxes plus the stamp-grid volume kernel."""

    name = "fused"

    def __init__(self, engine):
        super().__init__(engine)
        self.pe_dims = engine.arch.pe_array.dims
        #: The architecture's part of a live-direction memo key: what fixes
        #: the links, besides the PE box that the space signature fixes.  The
        #: interconnect type in it fixes the spatial interval too.
        self.links_key = engine._spacetime.table_key
        #: Grid element ids per tensor, for one cached-relations object.
        self._ids: tuple[object, dict[str, tuple[np.ndarray, ...]]] | None = None

    # -- stamps -----------------------------------------------------------------

    @staticmethod
    def pe_signature(dataflow: Dataflow) -> tuple[str, ...]:
        signature = getattr(dataflow, "_pe_signature", None)
        if signature is None:
            signature = tuple(str(e) for e in dataflow.pe_exprs)
            dataflow._pe_signature = signature
        return signature

    def stamps(self, relations, dataflow, pe_array):
        """Per-axis stamps and the PE box on a box domain; the interpreter's
        stamps on the whole array otherwise."""
        axes = relations.axes
        if axes is None:
            self.stats["stamp_fallback_exprs"] += (
                len(dataflow.pe_exprs) + len(dataflow.time_exprs)
            )
            pe_lin, t_rank = self.materializer.stamps(relations, dataflow, pe_array)
            return InterpretedStamps(pe_lin, t_rank, PEBox.whole(pe_array.dims))
        pe_splits = []
        for extent, expr in zip(pe_array.dims, dataflow.pe_exprs):
            split = self._split(expr, relations)
            if split.low < 0 or split.high >= extent:
                raise DataflowError(
                    f"dataflow {dataflow.name!r} maps instances outside the "
                    f"{pe_array} array"
                )
            pe_splits.append(split)
        time_splits = [self._split(expr, relations) for expr in dataflow.time_exprs]
        return SeparableStamps(
            [axis.size for axis in axes], pe_splits, pe_array.dims, time_splits
        )

    def _split(self, expr, relations) -> AxisSplit:
        """``expr`` split per axis, or, when it does not split, its
        interpreted values over the cached domain as a whole-box column."""
        split = split_axes(expr, self.loop_dims, relations.axes)
        if split is None:
            self.stats["stamp_fallback_exprs"] += 1
            column = expr.evaluate_vec(relations.domain)
            split = AxisSplit(
                0, (None,) * len(relations.axes), int(column.min()), int(column.max()),
                column,
            )
        return split

    def _stamp_grid(self, stamp, num_ranks, num_pes) -> StampGrid | None:
        self.stats["grid_cells"] += num_ranks * num_pes
        return stamp_grid(stamp, num_ranks, num_pes)

    def utilization(self, stamps, num_pes):
        """Utilization read off the stamp grid over the candidate's PE box,
        which is returned too when the candidate is injective: every rank is
        occupied, the compute delay is the rank count, and the occupied
        cells per rank are the active PEs.  ``num_pes`` stays the array's.

        A per-axis candidate's grid cells index its time keys, which are its
        ranks when every key row holds an instance; otherwise the keys are
        ranked and the grid rebuilt on the ranks.  A candidate that is not
        injective on its keys is not injective on its ranks either; its
        histogram spans the box PEs too.
        """
        from repro.core.engine import _grid_fits, _utilization_dense

        size = stamps.box.size
        cell = stamps.cell
        grid = None if cell is None else self._stamp_grid(cell, stamps.num_keys, size)
        if cell is None or (grid is not None and not grid.active.all()):
            t_rank = stamps.t_rank
            num_ranks = int(t_rank.max()) + 1
            grid = None
            if _grid_fits(num_ranks * size, t_rank.size):
                grid = self._stamp_grid(t_rank * size + stamps.box_pe, num_ranks, size)
        if grid is None:
            metrics = _utilization_dense(stamps.box_pe, stamps.t_rank, size)
            return (None if metrics is None else replace(metrics, num_pes=num_pes)), None
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

    @staticmethod
    def _live_directions(directions, stamps, ids, footprint) -> tuple[Direction, ...]:
        """The box directions along which some (PE, element) group has a
        source group, from a ``box PEs x footprint`` presence matrix over
        every reference; every direction when that matrix would exceed the
        grid bound."""
        from repro.core.engine import _grid_fits

        size = stamps.box.size
        if not directions or not _grid_fits(size * footprint, ids[0].size):
            return tuple(directions)
        box_pe = stamps.box_pe
        presence = np.zeros(size * footprint, dtype=bool)
        for reference in ids:
            presence[box_pe * footprint + reference] = True
        presence = presence.reshape(size, footprint)
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
        kernel, as in ``interp``, on the box PEs and the box's links."""
        from repro.core.engine import _grouped_volume_metrics

        box = stamps.box
        if grid is None:
            table = box.links(self.predecessor_table, self.pe_dims)
            return {
                tensor: _grouped_volume_metrics(
                    tensor, stamps.box_pe, stamps.t_rank, relations.tensors[tensor],
                    table, box.size,
                    spatial_interval=self.spatial_interval,
                    assume_unique=assume_unique,
                )
                for tensor in tensors
            }
        ids = self._element_ids(relations)
        signature = self.pe_signature(dataflow)
        memo = relations.live_directions
        links = None
        results = {}
        for tensor in tensors:
            footprint = relations.tensors[tensor].footprint
            key = (*self.links_key, signature, tensor)
            live = memo.get(key)
            if live is None:
                if links is None:
                    links = link_directions(
                        self.predecessor_table, self.pe_dims, box, self.spatial_interval,
                    )
                live = self._live_directions(links, stamps, ids[tensor], footprint)
                memo.put(key, live)
                self.stats["direction_builds"] += 1
            results[tensor] = grid_volume_metrics(
                tensor,
                grid,
                ids[tensor],
                live,
                spatial_interval=self.spatial_interval,
                footprint=footprint,
            )
        self.stats["fused_path"] += len(results)
        return results
