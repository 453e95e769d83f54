"""The compiled backend: stacked stamp matmuls and the stamp-grid volume kernel.

:class:`FusedBackend` is the one compiled evaluation path (``fused``, and
``auto``, its alias and the default).  It builds on the kernels of
:mod:`repro.core.backends.affine` and removes two sources of redundancy from a
sweep batch:

* **Stacked stamps** — the deduplicated coefficient rows of *every* candidate
  in the batch stack into one coefficient matrix, and the whole cached domain
  chunk is evaluated with a single float64-exact BLAS matmul (split only past
  a memory budget); per-candidate stamp columns are row views of the result.
  PE columns are memoised per space signature.
* **Stamp grid** — each instance's stamp ``t_rank * num_pes + pe_lin`` indexes
  a dense (time rank x PE) grid, built once per candidate by
  :meth:`FusedBackend.utilization` and handed by the engine to the volume
  kernel.  On an injective candidate every cell holds at most one instance,
  so TENET's intersection of a tensor's data assignment with the spacetime
  map becomes a comparison of grid cells: scatter the tensor's element ids
  onto the grid, then temporal reuse is the grid against itself shifted
  ``temporal_interval * num_pes`` cells, and spatial reuse one shifted
  comparison per interconnect *direction* (the links sharing one linear PE
  offset), masked to the PEs that have the link.  Directions along which no
  (PE, element) group has a source group are skipped per space signature.
  No sort, no ``searchsorted``, and any ``temporal_interval >= 1``.

Per tensor the kernels chain grid → :func:`compiled_group_volume_metrics`
(multi-reference tensors, non-injective candidates, grids past the
utilization histogram's size bound) → the engine's reference kernel
(temporal intervals above 8 on those).  Every step is exact, so reports are
bit-identical to ``interp``.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.pe_array import PEArray
from repro.core.backends.affine import (
    CompiledEvaluator,
    CompiledExprSet,
    GroupLayout,
    _evict_lru,
    build_group_layout,
    compiled_group_volume_metrics,
)
from repro.core.backends.base import BatchStampProvider, EngineBackend
from repro.core.dataflow import Dataflow
from repro.core.utilization import UtilizationMetrics
from repro.core.volumes import VolumeMetrics
from repro.errors import DataflowError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import OpRelations

#: One fused stamp matmul may produce up to this many result cells before the
#: provider splits the batch into several stacked evaluations.  The budget
#: covers a standard sweep batch in one window (a few hundred deduplicated
#: rows over a paper-scale chunk) while keeping the transient float64 result
#: and its int64 conversion near ~128 MB each.
_FUSED_MATMUL_CELLS = 16_000_000

#: Process-wide thread pool for per-tensor volume kernels, the engine's only
#: in-process concurrency.  The kernels are pure numpy whose heavy operations
#: (scatters, comparisons, sorts) release the GIL, so one candidate's tensors
#: run concurrently; ``volume_metrics_many`` uses it for multi-tensor ops of at
#: least 65,536 instances on a multi-core machine.  Shared and lazy so the
#: many short-lived engines in tests do not each spawn threads.  Keyed by PID:
#: a pool inherited across ``fork`` (a caller may fork after a sweep) has no
#: live threads and would deadlock, so each process builds its own.
_VOLUME_POOL: tuple[int, ThreadPoolExecutor] | None = None
_CPU_COUNT = os.cpu_count() or 1


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
    ids: np.ndarray,
    directions: Sequence[Direction],
    *,
    spatial_interval: int,
    temporal_interval: int,
    footprint: int,
) -> VolumeMetrics:
    """Exact Table II metrics by shifted comparisons on the stamp grid.

    ``ids`` holds the element each instance touches (one reference).
    Scattered onto the grid, with -1 on empty cells, an instance has temporal
    reuse when the cell ``temporal_interval * num_pes`` back (same PE,
    ``temporal_interval`` ranks earlier) holds its element, and spatial reuse
    when, for a direction of offset ``o`` its PE has, the cell
    ``spatial_interval * num_pes - o`` back (PE ``pe + o``,
    ``spatial_interval`` ranks earlier) does.  Both shifts are positive, so
    slicing drops sources before rank 0.  Requires an injective candidate;
    the counts equal the reference kernel's.
    """
    num_pes = grid.num_pes
    size = grid.occupied.size
    cells = np.full(size, -1, dtype=ids.dtype)
    cells[grid.stamp] = ids
    reuse = np.zeros(size, dtype=bool)
    back = temporal_interval * num_pes
    if back < size:
        np.equal(cells[back:], cells[:-back], out=reuse[back:])
        if not grid.full:
            reuse &= grid.occupied
    temporal_count = int(np.count_nonzero(reuse))
    total = int(grid.stamp.size)

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
            np.equal(cells[shift:], cells[:-shift], out=hits[shift:])
            hit_rows &= direction.mask
            reuse |= hits
        if not grid.full:
            reuse &= grid.occupied
        spatial_count = int(np.count_nonzero(reuse)) - temporal_count

    return VolumeMetrics(
        tensor=tensor,
        total=total,
        reuse=temporal_count + spatial_count,
        temporal_reuse=temporal_count,
        spatial_reuse=spatial_count,
        footprint=footprint,
    )


# -- batched stamp provider --------------------------------------------------------


_MISSING = object()


class _BatchStamps(BatchStampProvider):
    """Stacked, matmul-batched stamp evaluation for a list of candidates.

    A window covers as many candidates as fit the :data:`_FUSED_MATMUL_CELLS`
    budget, so a standard sweep batch evaluates every deduplicated compiled
    row in a single ``coeffs @ chunk.T`` product; per-candidate stamp columns
    are row views of that one result.
    """

    def __init__(
        self,
        backend: "FusedBackend",
        relations: "OpRelations",
        dataflows: Sequence[Dataflow],
        pe_array: PEArray,
    ):
        self.backend = backend
        self.relations = relations
        self.pe_array = pe_array
        self.dataflows = list(dataflows)
        # The expression set and evaluator are backend-owned and shared across
        # batches: row values, derived columns and the float matrix persist,
        # so overlapping sweeps and repeated single-candidate evaluations pay
        # for each distinct expression once.
        self.exprs, self._evaluator = backend.compiled_for(relations)
        self._time_plans: list[list[tuple[str, int]]] = []
        self._pe_plans: list[list[tuple[str, int]] | None] = []
        for dataflow in self.dataflows:
            self._time_plans.append([self.exprs.add(e) for e in dataflow.time_exprs])
            if backend.pe_signature(dataflow) in backend._pe_memo:
                self._pe_plans.append(None)
            else:
                self._pe_plans.append([self.exprs.add(e) for e in dataflow.pe_exprs])
        self._values: dict[int, np.ndarray] = {}
        self._window = (0, 0)
        self._rows_per_window = max(4, _FUSED_MATMUL_CELLS // max(1, relations.total))

    def _ensure_window(self, position: int) -> None:
        lo, hi = self._window
        if lo <= position < hi:
            return
        lo = position
        hi = position
        row_ids: set[int] = set()
        while hi < len(self.dataflows) and (
            hi == lo or len(row_ids) < self._rows_per_window
        ):
            for kind, index in self._time_plans[hi]:
                if kind == "row":
                    row_ids.add(index)
            plan = self._pe_plans[hi]
            if plan is not None and self.backend.pe_signature(self.dataflows[hi]) not in self.backend._pe_memo:
                row_ids.update(index for kind, index in plan if kind == "row")
            hi += 1
        self._values = self._evaluator.evaluate_rows(sorted(row_ids))
        self._window = (lo, hi)

    def _column(self, kind: str, index: int) -> np.ndarray:
        if kind == "row":
            column = self._values.get(index)
            if column is None:
                # The current window excluded this row (e.g. a PE signature
                # memoised when the window was built but evicted since); the
                # evaluator's row memo keeps the one-off evaluation cheap.
                column = self._evaluator.evaluate_rows([index])[index]
            return column
        self.backend.stats["stamp_fallback_exprs"] += 1
        return self._evaluator.evaluate_interp(index)

    def _pe_lin(self, position: int) -> np.ndarray:
        dataflow = self.dataflows[position]
        signature = self.backend.pe_signature(dataflow)
        memo = self.backend._pe_memo
        cached = memo.get(signature, _MISSING)
        if cached is not _MISSING:
            memo.move_to_end(signature)
            if cached is None:
                raise DataflowError(
                    f"dataflow {dataflow.name!r} maps instances outside the "
                    f"{self.pe_array} array"
                )
            return cached
        plan = self._pe_plans[position]
        if plan is None:  # memoised when the plan was built, evicted since
            plan = [self.exprs.add(e) for e in dataflow.pe_exprs]
            self._pe_plans[position] = plan
            # Force re-evaluation including the new rows (the evaluator picks
            # up any new derived columns itself).
            self._window = (0, 0)
        self._ensure_window(position)
        pe_lin = np.zeros(self.relations.total, dtype=np.int64)
        for extent, (kind, index) in zip(self.pe_array.dims, plan):
            column = self._column(kind, index)
            if (column < 0).any() or (column >= extent).any():
                self.backend.remember_pe(signature, None)
                raise DataflowError(
                    f"dataflow {dataflow.name!r} maps instances outside the "
                    f"{self.pe_array} array"
                )
            pe_lin = pe_lin * extent + column
        self.backend.remember_pe(signature, pe_lin)
        return pe_lin

    def stamps_for(self, position: int) -> tuple[np.ndarray, np.ndarray]:
        from repro.core.engine import _rank_keys

        dataflow = self.dataflows[position]
        self._ensure_window(position)
        pe_lin = self._pe_lin(position)
        bounds = self.relations.inclusive_bounds
        time_key: np.ndarray | None = None
        for expr, (kind, index) in zip(dataflow.time_exprs, self._time_plans[position]):
            lo, hi = expr.bounds(bounds)
            extent = hi - lo + 1
            column = self._column(kind, index)
            if time_key is None:
                time_key = column - lo  # owned copy; columns stay cached
            else:
                time_key *= extent
                time_key += column
                if lo:
                    time_key -= lo
        if time_key is None:
            time_key = np.zeros(self.relations.total, dtype=np.int64)
        return pe_lin, _rank_keys(time_key)


# -- the backend -------------------------------------------------------------------


class _TensorLayout:
    """One tensor's candidate-invariant volume structure for one space
    signature, each part built on first use: the live directions for the
    grid kernel and the :class:`GroupLayout` for the compiled kernel."""

    __slots__ = ("directions", "group")

    def __init__(self):
        self.directions: tuple[Direction, ...] | None = None
        self.group: GroupLayout | None | object = _MISSING

    def nbytes(self) -> int:
        return self.group.nbytes() if isinstance(self.group, GroupLayout) else 0


class FusedBackend(EngineBackend):
    """Stacked compiled stamps plus the grid → compiled volume-kernel chain."""

    name = "fused"

    #: Memory caps for the per-engine memos.
    _PE_MEMO_ENTRIES, _PE_MEMO_BYTES = 64, 256 << 20
    _LAYOUT_ENTRIES, _LAYOUT_BYTES = 32, 256 << 20

    def __init__(self, engine):
        super().__init__(engine)
        self._pe_memo: OrderedDict[tuple, np.ndarray | None] = OrderedDict()
        #: Volume structure per (space signature, tensor).
        self._layout_memo: OrderedDict[tuple, _TensorLayout] = OrderedDict()
        #: Shared (expression set, evaluator) per cached-relations object.
        self._compiled: tuple[object, CompiledExprSet, CompiledEvaluator] | None = None
        #: Grid element ids per tensor, for one cached-relations object.
        self._ids: tuple[object, dict[str, np.ndarray | None]] | None = None
        self.directions = link_directions(
            self.predecessor_table, self.num_pes, self.spatial_interval
        )

    def compiled_for(self, relations) -> tuple[CompiledExprSet, CompiledEvaluator]:
        """The backend-wide compiled expression set for one relations object."""
        cached = self._compiled
        if cached is not None and cached[0] is relations:
            return cached[1], cached[2]
        exprs = CompiledExprSet(self.loop_dims, relations.inclusive_bounds)
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

    def remember_pe(self, signature: tuple, pe_lin: np.ndarray | None) -> None:
        memo = self._pe_memo
        memo[signature] = pe_lin
        memo.move_to_end(signature)
        _evict_lru(
            memo, self._PE_MEMO_ENTRIES, self._PE_MEMO_BYTES,
            lambda a: a.nbytes if a is not None else 0,
        )

    def prepare_batch(self, relations, dataflows, pe_array):
        return _BatchStamps(self, relations, dataflows, pe_array)

    def stamps(self, relations, dataflow, pe_array):
        return _BatchStamps(self, relations, [dataflow], pe_array).stamps_for(0)

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

    def _element_ids(self, relations) -> dict[str, np.ndarray | None]:
        """Per tensor, the dense element id of every instance, as int16 when
        the footprint allows and int32 otherwise; ``None`` for a tensor with
        several distinct references (identical ones collapse)."""
        cached = self._ids
        if cached is not None and cached[0] is relations:
            return cached[1]
        total = relations.total
        ids: dict[str, np.ndarray | None] = {}
        for tensor, rel in relations.tensors.items():
            first = rel.dense_keys[:total]
            if all(
                np.array_equal(first, rel.dense_keys[index * total : (index + 1) * total])
                for index in range(1, rel.references)
            ):
                ids[tensor] = first.astype(np.int16 if rel.footprint < (1 << 15) else np.int32)
            else:
                ids[tensor] = None
        self._ids = (relations, ids)
        return ids

    def _live_directions(self, pe_lin, ids, footprint) -> tuple[Direction, ...]:
        """The directions along which some (PE, element) group has a source
        group, from a ``num_pes x footprint`` presence matrix; every
        direction when that matrix would exceed the grid bound."""
        from repro.core.engine import _grid_fits

        directions = self.directions
        if not directions or not _grid_fits(self.num_pes * footprint, pe_lin.size):
            return tuple(directions)
        presence = np.zeros(self.num_pes * footprint, dtype=bool)
        presence[pe_lin * footprint + ids] = True
        presence = presence.reshape(self.num_pes, footprint)
        return tuple(
            direction
            for direction in directions
            if (presence[direction.pes] & presence[direction.pes + direction.offset]).any()
        )

    def _volume_one(
        self, tensor, layout, ids, grid, pe_lin, t_rank, relations,
        assume_unique, rank_span,
    ) -> tuple[VolumeMetrics | None, str | None]:
        """Kernel chain for one tensor: (metrics-or-None, stats key).

        Touches only this tensor's layout, so several tensors of one
        candidate can run concurrently.  A rung that returns ``None`` hands
        the tensor to the next; ``(None, None)`` hands it to the engine's
        reference kernel.
        """
        rel = relations.tensors[tensor]
        if ids is not None:
            metrics = grid_volume_metrics(
                tensor,
                grid,
                ids,
                layout.directions,
                spatial_interval=self.spatial_interval,
                temporal_interval=self.temporal_interval,
                footprint=rel.footprint,
            )
            if metrics is not None:
                return metrics, "fused_path"
        if layout.group is _MISSING:
            layout.group = build_group_layout(
                pe_lin, rel, self.predecessor_table, self.spatial_interval
            )
        if layout.group is None:
            return None, None
        metrics = compiled_group_volume_metrics(
            tensor,
            layout.group,
            t_rank,
            spatial_interval=self.spatial_interval,
            temporal_interval=self.temporal_interval,
            footprint=rel.footprint,
            assume_unique=assume_unique,
            rank_span=rank_span,
        )
        if metrics is not None:
            return metrics, "compiled_path"
        return None, None

    def volume_metrics_many(
        self, tensors, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        rank_span=None, grid=None,
    ):
        """The grid kernel for single-reference tensors of a candidate with
        a stamp grid; the compiled kernel for the rest."""
        tensors = list(tensors)
        ids = self._element_ids(relations) if grid is not None else {}
        signature = self.pe_signature(dataflow)
        memo = self._layout_memo
        # Memo reads and writes happen serially up front (and eviction after);
        # the kernels below only touch their own tensor's layout.
        layouts = {}
        for tensor in tensors:
            key = (signature, tensor)
            layout = memo.get(key)
            if layout is None:
                layout = memo[key] = _TensorLayout()
            memo.move_to_end(key)
            if ids.get(tensor) is not None and layout.directions is None:
                layout.directions = self._live_directions(
                    pe_lin, ids[tensor], relations.tensors[tensor].footprint
                )
            layouts[tensor] = layout
        args = {
            tensor: (
                tensor, layouts[tensor], ids.get(tensor), grid, pe_lin, t_rank,
                relations, assume_unique, rank_span,
            )
            for tensor in tensors
        }
        pool = _volume_pool() if (
            len(tensors) > 1 and relations.total >= (1 << 16)
        ) else None
        if pool is not None:
            futures = {
                tensor: pool.submit(self._volume_one, *args[tensor]) for tensor in tensors
            }
            outcomes = {tensor: future.result() for tensor, future in futures.items()}
        else:
            outcomes = {tensor: self._volume_one(*args[tensor]) for tensor in tensors}
        _evict_lru(
            memo, self._LAYOUT_ENTRIES, self._LAYOUT_BYTES, lambda v: v.nbytes()
        )
        results: dict[str, VolumeMetrics | None] = {}
        for tensor, (metrics, path) in outcomes.items():
            if path is not None:
                self.stats[path] += 1
            results[tensor] = metrics
        return results
