"""The compiled backend: compiled stamp rows and the stamp-grid volume kernel.

:class:`FusedBackend` is the one compiled evaluation path (``fused``, and
``auto``, its alias and the default).  It builds on the kernels of
:mod:`repro.core.backends.affine` and removes two sources of redundancy from a
sweep:

* **Compiled stamps** — each candidate's stamp expressions lower to integer
  coefficient rows, deduplicated across every candidate the backend sees and
  evaluated once each, exactly in int64, over the cached domain; a row that
  is a single column (``k``, ``floor(i/8)``, ``i mod 8``, ...) is that
  column, with no arithmetic.  PE columns are memoised per space signature.
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

import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.arch.pe_array import PEArray
from repro.core.backends.affine import (
    CompiledEvaluator,
    CompiledExprSet,
    _evict_lru,
)
from repro.core.backends.base import EngineBackend
from repro.core.dataflow import Dataflow
from repro.core.utilization import UtilizationMetrics
from repro.core.volumes import VolumeMetrics
from repro.errors import DataflowError

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


# -- stamp grid --------------------------------------------------------------------


@dataclass
class StampGrid:
    """One injective candidate's dense (time rank x PE) stamp grid.

    Cell ``t * num_pes + p`` is PE ``p`` at time rank ``t``.  ``stamp`` holds
    every instance's cell and ``occupied`` marks the cells an instance runs
    in; injective means at most one instance per cell.
    """

    stamp: np.ndarray
    occupied: np.ndarray
    num_ranks: int
    num_pes: int

    @property
    def full(self) -> bool:
        """Every cell holds an instance (no empty cell needs masking)."""
        return self.stamp.size == self.occupied.size


def stamp_grid(pe_lin: np.ndarray, t_rank: np.ndarray, num_pes: int) -> StampGrid | None:
    """The candidate's stamp grid, or ``None`` when the candidate is not
    injective or the grid would dwarf the instance count."""
    from repro.core.engine import _grid_fits

    instances = pe_lin.size
    if instances == 0:
        return None
    num_ranks = int(t_rank.max()) + 1
    if not _grid_fits(num_ranks * num_pes, instances):
        return None
    stamp = t_rank * num_pes + pe_lin
    occupied = np.zeros(num_ranks * num_pes, dtype=bool)
    occupied[stamp] = True
    if np.count_nonzero(occupied) != instances:
        return None
    return StampGrid(stamp, occupied, num_ranks, num_pes)


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
    """Compiled stamp rows plus the stamp-grid volume kernel."""

    name = "fused"

    #: Memory caps for the per-engine memos.
    _PE_MEMO_ENTRIES, _PE_MEMO_BYTES = 64, 256 << 20
    _DIRECTION_MEMO_ENTRIES = 32

    def __init__(self, engine):
        super().__init__(engine)
        self._pe_memo: OrderedDict[tuple, np.ndarray | None] = OrderedDict()
        #: Live link directions per (space signature, tensor).
        self._direction_memo: OrderedDict[tuple, tuple[Direction, ...]] = OrderedDict()
        #: Shared (expression set, evaluator) per cached-relations object.
        self._compiled: tuple[object, CompiledExprSet, CompiledEvaluator] | None = None
        #: Grid element ids per tensor, for one cached-relations object.
        self._ids: tuple[object, dict[str, tuple[np.ndarray, ...]]] | None = None
        self.directions = link_directions(
            self.predecessor_table, self.num_pes, self.spatial_interval
        )

    def compiled_for(self, relations) -> tuple[CompiledExprSet, CompiledEvaluator]:
        """The backend-wide compiled expression set for one relations object."""
        cached = self._compiled
        if cached is not None and cached[0] is relations:
            return cached[1], cached[2]
        exprs = CompiledExprSet(self.loop_dims)
        evaluator = CompiledEvaluator(exprs, relations.domain, relations.total)
        self._compiled = (relations, exprs, evaluator)
        return exprs, evaluator

    # -- stamps -----------------------------------------------------------------

    @staticmethod
    def pe_signature(dataflow: Dataflow) -> tuple[str, ...]:
        signature = getattr(dataflow, "_pe_signature", None)
        if signature is None:
            signature = tuple(str(e) for e in dataflow.pe_exprs)
            dataflow._pe_signature = signature
        return signature

    def _column(self, relations, expr) -> np.ndarray:
        """One stamp expression's values: a compiled row, or the interpreter
        for expressions that do not lower."""
        exprs, evaluator = self.compiled_for(relations)
        kind, index = exprs.add(expr)
        if kind == "row":
            return evaluator.evaluate_rows([index])[index]
        self.stats["stamp_fallback_exprs"] += 1
        return evaluator.evaluate_interp(index)

    def _pe_lin(self, relations, dataflow: Dataflow, pe_array: PEArray) -> np.ndarray:
        """The candidate's linear PE column, memoised per space signature; a
        signature that maps instances outside the array is memoised as a
        failure and raises for every candidate that has it."""
        signature = self.pe_signature(dataflow)
        memo = self._pe_memo
        if signature in memo:
            pe_lin = memo[signature]
        else:
            pe_lin = np.zeros(relations.total, dtype=np.int64)
            for extent, expr in zip(pe_array.dims, dataflow.pe_exprs):
                column = self._column(relations, expr)
                if (column < 0).any() or (column >= extent).any():
                    pe_lin = None
                    break
                pe_lin = pe_lin * extent + column
            memo[signature] = pe_lin
            _evict_lru(
                memo, self._PE_MEMO_ENTRIES, self._PE_MEMO_BYTES,
                lambda a: a.nbytes if a is not None else 0,
            )
        memo.move_to_end(signature)
        if pe_lin is None:
            raise DataflowError(
                f"dataflow {dataflow.name!r} maps instances outside the "
                f"{pe_array} array"
            )
        return pe_lin

    def stamps(self, relations, dataflow, pe_array):
        from repro.core.engine import _rank_keys

        pe_lin = self._pe_lin(relations, dataflow, pe_array)
        bounds = relations.inclusive_bounds
        time_key: np.ndarray | None = None
        for expr in dataflow.time_exprs:
            lo, hi = expr.bounds(bounds)
            column = self._column(relations, expr)
            if time_key is None:
                time_key = column - lo  # owned copy; columns stay cached
            else:
                time_key *= hi - lo + 1
                time_key += column
                if lo:
                    time_key -= lo
        if time_key is None:
            time_key = np.zeros(relations.total, dtype=np.int64)
        return pe_lin, _rank_keys(time_key)

    def utilization(self, pe_lin, t_rank, num_pes):
        """Utilization read off the stamp grid, which is returned too when
        the candidate is injective: every rank is occupied, the compute
        delay is the rank count, and the occupied cells per rank are the
        active PEs."""
        from repro.core.engine import _utilization_dense

        grid = stamp_grid(pe_lin, t_rank, num_pes)
        if grid is None:
            return _utilization_dense(pe_lin, t_rank, num_pes), None
        active = np.count_nonzero(
            grid.occupied.reshape(grid.num_ranks, num_pes), axis=1
        )
        metrics = UtilizationMetrics(
            num_instances=int(pe_lin.size),
            num_pes=num_pes,
            num_time_stamps=grid.num_ranks,
            occupied_stamps=int(pe_lin.size),
            compute_delay_cycles=grid.num_ranks,
            max_active_pes=int(active.max()),
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
        self, tensors, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        grid=None,
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
                        pe_lin, ids[tensor], relations.tensors[tensor].footprint
                    )
                memo.move_to_end(key)
                directions[tensor] = live
            while len(memo) > self._DIRECTION_MEMO_ENTRIES:
                memo.popitem(last=False)

        def volume(tensor):
            if grid is None:
                return self.volume_metrics(
                    tensor, dataflow, pe_lin, t_rank, relations,
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
