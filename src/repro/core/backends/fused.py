"""The compiled backend: stacked stamp matmuls and windowed volume kernels.

:class:`FusedBackend` is the one compiled evaluation path (``fused``, and
``auto``, its alias and the default).  It builds on the kernels of
:mod:`repro.core.backends.affine` and removes two sources of redundancy from a
sweep batch:

* **Stacked stamps** — the deduplicated coefficient rows of *every* candidate
  in the batch stack into one coefficient matrix, and the whole cached domain
  chunk is evaluated with a single float64-exact BLAS matmul (split only past
  a memory budget); per-candidate stamp columns are row views of the result.
  PE columns are memoised per space signature.
* **Windowed volume kernels** — each dense (PE, element) group becomes one
  row of a ``(groups, m)`` rank matrix, ``m`` being the largest group, so the
  group-major sort degenerates to one segmented row sort, and spatial
  membership for constant-offset interconnect slots becomes ``2m - 1``
  shifted *slice* comparisons — no ``searchsorted``, no per-pair gathers.
  Slots that share a source offset share one membership pass.  Uniform
  layouts (every group holds ``m`` pairs) fill the matrix exactly; ragged
  ones, such as conv layers cut at the input boundary, pad each row with a
  sentinel rank that sorts last and never matches.

Per tensor the kernels chain fused → :func:`compiled_group_volume_metrics`
(multi-reference tensors, non-injective candidates, layouts whose padding
would more than double the pair count) → the engine's reference kernel
(temporal intervals outside the adjacency window).  Every step is exact, so
reports are bit-identical to ``interp``.
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

#: Windowed membership is used when the shifted-slice pass (2m - 1 comparisons)
#: is cheaper than a searchsorted probe; beyond this block size it is not.
_WINDOW_MAX_BLOCK = 16


#: Process-wide thread pool for per-tensor volume kernels, the engine's only
#: in-process concurrency.  The kernels are pure numpy whose heavy operations
#: (sort, searchsorted, bincount) release the GIL, so one candidate's tensors
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


def _scalar(value: int, narrow: bool):
    """An integer scalar that keeps ``array op scalar`` in the array dtype."""
    return np.int32(value) if narrow else np.int64(value)


# -- fused layout ------------------------------------------------------------------


@dataclass
class FusedSlot:
    """One interconnect slot, classified for the fused kernel."""

    #: Constant dense-group offset shared by every valid pair, or ``None``.
    delta_const: int | None
    #: Dense source-group offset (int32): per pair on a uniform layout, per
    #: group on a padded one (see :attr:`FusedLayout.real`).
    delta: np.ndarray
    #: Validity (source group exists), shaped to broadcast over the
    #: ``(groups, block)`` matrix: ``(groups, block)`` or ``(groups, 1)``.
    valid: np.ndarray
    #: Precomputed ``valid.any()``, so slot skipping costs nothing per candidate.
    valid_any: bool = True


class FusedLayout:
    """Candidate-invariant extras the fused volume kernel needs per tensor.

    Built once per :class:`GroupLayout` (itself cached per space signature),
    so the block sizing and the slot classification never run per candidate.
    The kernel works on a ``(groups, block)`` rank matrix, ``block`` being
    the largest group.  On a uniform layout that matrix is the group-sorted
    pair order itself and the layout's per-pair arrays are viewed in that
    shape, without copies.  Ragged layouts pad every group to ``block`` with
    sentinel ranks; ``real`` marks the pair positions, and the group-constant
    per-pair data (group id, slot validity and offset) is kept once per group
    and broadcast over the block.  ``usable`` is ``False`` for collapsed
    multi-reference tensors and when padding would more than double the pair
    count; callers then chain to the compiled kernel.
    """

    def __init__(self, layout: GroupLayout):
        self.layout = layout
        pairs = int(layout.dense_sorted.size)
        groups = layout.group_count
        sizes = np.bincount(layout.dense_sorted, minlength=groups)
        self.pairs = pairs
        self.block = int(sizes.max()) if pairs else 0
        #: Length of the flattened (groups, block) matrix.
        self.size = groups * self.block
        self.usable = layout.references == 1 and 0 < pairs and self.size <= 2 * pairs
        #: Real (non-padding) positions of the flattened matrix, or ``None``.
        self.real: np.ndarray | None = None
        self.dense: np.ndarray | None = None
        self.slots: list[FusedSlot] = []
        if self.usable and self.size == pairs:
            self.dense = layout.dense_sorted.reshape(groups, self.block)
            for delta_const, delta, valid in zip(
                layout.slot_delta_const, layout.slot_delta, layout.slot_valid
            ):
                self.slots.append(
                    FusedSlot(
                        delta_const, delta, valid.reshape(groups, self.block),
                        bool(valid.any()),
                    )
                )
        elif self.usable:
            self.real = (np.arange(self.block) < sizes[:, None]).ravel()
            group_ids = np.arange(groups, dtype=np.int32)
            self.dense = group_ids[:, None]
            for delta_const, src_group in zip(
                layout.slot_delta_const, layout.slot_src_group
            ):
                valid = src_group < groups
                self.slots.append(
                    FusedSlot(
                        delta_const, src_group - group_ids, valid[:, None],
                        bool(valid.any()),
                    )
                )


def fused_group_volume_metrics(
    tensor: str,
    fused: FusedLayout,
    t_rank: np.ndarray,
    *,
    spatial_interval: int,
    temporal_interval: int,
    footprint: int,
    rank_span: int,
    rank32: np.ndarray,
) -> VolumeMetrics | None:
    """Exact Table II metrics via segmented sorts and shifted-slice windows.

    Requires a usable :class:`FusedLayout` (one reference, bounded padding)
    and an injective candidate (unique (stamp, element) pairs); the caller
    guarantees both.  Returns ``None`` when the temporal interval is outside
    the adjacency window or keys would overflow — the compiled kernel then
    takes over.
    """
    ti = temporal_interval
    if ti < 1 or ti > 8:
        return None
    m = fused.block
    n = fused.size
    groups = fused.layout.group_count
    span = int(rank_span)
    if fused.pairs == 0 or span <= 0:
        return None
    real = fused.real
    # Keys are ``group * stride + rank``.  Padding holds the rank ``span +
    # ti``, which sorts after every real rank.  With ``stride = span + ti +
    # 1``, a padding key minus ``ti`` lands on the unused rank ``span``, and
    # a real key of rank ``>= ti`` minus ``ti`` on a real rank of its own
    # group, so padding never takes part in temporal reuse (lower ranks fail
    # the rank guard); spatial hits on padding are masked by ``real``.
    stride = span if real is None else span + ti + 1
    # Probe values reach +-(2 * groups * stride); keep them exactly
    # representable.
    if 2 * (groups + 1) * stride >= (1 << 62):
        return None
    narrow = 2 * (groups + 1) * stride < (1 << 31)

    # Segmented sort: ranks per pair in group-sorted order, laid out as the
    # padded (groups, block) matrix, then each row sorted independently.
    # Within-row sorting never moves a pair across groups, and padding sorts
    # last, so ``real`` still marks the real positions afterwards.  The int32
    # rank copy is only exact while the span fits; huge-span ops take the
    # int64 path end to end.
    ranks = np.take(rank32 if narrow else t_rank, fused.layout.perm_mod)
    if real is not None:
        padded = np.zeros(n, dtype=np.int32 if narrow else np.int64)
        padded += _scalar(span + ti, narrow)
        padded[real] = ranks
        ranks = padded
    ranks2d = ranks.reshape(groups, m)
    ranks2d.sort(axis=-1)
    if narrow:
        keys = fused.dense * np.int32(stride)
    else:
        keys = fused.dense.astype(np.int64) * stride
    # Group offsets are a full matrix on a uniform layout (add in place: a
    # fresh pair-sized array costs its page faults) and a column otherwise.
    if real is None:
        keys += ranks2d
    else:
        keys = keys + ranks2d
    keys = keys.ravel()
    ranks = ranks2d.ravel()

    # Temporal reuse: (g, r - ti) can only sit within ti positions back in the
    # block; a value match implies the same group because 0 <= r - ti < span.
    temporal = np.zeros(n, dtype=bool)
    if ti == 1:
        temporal[1:] = keys[:-1] == keys[1:] - 1
    else:
        for back in range(1, ti + 1):
            temporal[back:] |= keys[:-back] == keys[back:] - ti
    temporal &= ranks >= ti
    temporal_count = int(np.count_nonzero(temporal))

    spatial_count = 0
    if temporal_count < fused.pairs and fused.slots:
        si = spatial_interval
        rank_ok = ranks >= si if si else None
        if real is not None:
            rank_ok = real if rank_ok is None else rank_ok & real
        spatial = np.zeros(n, dtype=bool)
        spatial_rows = spatial.reshape(groups, m)
        window_masks: dict[int, np.ndarray] = {}
        for slot in fused.slots:
            if not slot.valid_any:
                continue
            if slot.delta_const is not None and m <= _WINDOW_MAX_BLOCK:
                # Constant source offset: the matching position, if any, lies
                # within one block of p + delta * m, so membership is 2m - 1
                # shifted slice comparisons.  Slots sharing an offset share
                # the pass.
                delta = slot.delta_const
                hits = window_masks.get(delta)
                if hits is None:
                    shift = delta * stride - si
                    probes = keys + _scalar(shift, narrow)
                    hits = np.zeros(n, dtype=bool)
                    centre = delta * m
                    for w in range(centre - m + 1, centre + m):
                        if w >= 0:
                            if w == 0:
                                hits |= keys == probes
                            elif w < n:
                                hits[: n - w] |= keys[w:] == probes[: n - w]
                        elif -w < n:
                            hits[-w:] |= keys[:w] == probes[-w:]
                    if rank_ok is not None:
                        hits &= rank_ok
                    window_masks[delta] = hits
                spatial_rows |= hits.reshape(groups, m) & slot.valid
            else:
                # Per-pair source offsets: probe only the pairs that still
                # need an answer (valid, rank-guarded, no temporal reuse).
                needed = ~(temporal | spatial)
                needed_rows = needed.reshape(groups, m)
                needed_rows &= slot.valid
                if rank_ok is not None:
                    needed &= rank_ok
                index = np.flatnonzero(needed)
                if not len(index):
                    continue
                if slot.delta_const is not None:
                    shift = slot.delta_const * stride - si
                    probes = keys[index] + _scalar(shift, narrow)
                else:
                    rows = index if real is None else index // m
                    delta = np.take(slot.delta, rows)
                    if narrow:
                        probes = keys[index] + (
                            delta * np.int32(stride) - np.int32(si)
                        )
                    else:
                        probes = keys[index] + (delta.astype(np.int64) * stride - si)
                positions = np.searchsorted(keys, probes)
                hits = np.take(keys, positions, mode="clip") == probes
                spatial[index[hits]] = True
        spatial_count = int(np.count_nonzero(spatial & ~temporal))

    return VolumeMetrics(
        tensor=tensor,
        total=fused.pairs,
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


class FusedBackend(EngineBackend):
    """Stacked compiled stamps plus the fused → compiled volume-kernel chain."""

    name = "fused"

    #: Memory caps for the per-engine memos.
    _PE_MEMO_ENTRIES, _PE_MEMO_BYTES = 64, 256 << 20
    _LAYOUT_ENTRIES, _LAYOUT_BYTES = 32, 256 << 20

    def __init__(self, engine):
        super().__init__(engine)
        self._pe_memo: OrderedDict[tuple, np.ndarray | None] = OrderedDict()
        #: (GroupLayout, FusedLayout) per (space signature, tensor).
        self._layout_memo: OrderedDict[
            tuple, tuple[GroupLayout, FusedLayout] | tuple[None, None]
        ] = OrderedDict()
        #: Shared (expression set, evaluator) per cached-relations object.
        self._compiled: tuple[object, CompiledExprSet, CompiledEvaluator] | None = None

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
        """Dense-histogram utilization with the injective shortcut enabled."""
        from repro.core.engine import _utilization_dense

        return _utilization_dense(pe_lin, t_rank, num_pes, injective_shortcut=True)

    # -- volumes ----------------------------------------------------------------

    def _layouts(self, tensor: str, dataflow: Dataflow, pe_lin, relations):
        """One tensor's (GroupLayout, FusedLayout), memoised per space
        signature; ``(None, None)`` when no group layout can be built."""
        key = (self.pe_signature(dataflow), tensor)
        memo = self._layout_memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        layout = build_group_layout(
            pe_lin,
            relations.tensors[tensor],
            self.predecessor_table,
            self.spatial_interval,
        )
        layouts = (layout, FusedLayout(layout)) if layout is not None else (None, None)
        memo[key] = layouts
        _evict_lru(
            memo, self._LAYOUT_ENTRIES, self._LAYOUT_BYTES,
            lambda v: v[0].nbytes() if v[0] is not None else 0,
        )
        return layouts

    def _volume_one(
        self, tensor, layout, fused, t_rank, relations, assume_unique,
        rank_span, rank32,
    ) -> tuple[VolumeMetrics | None, str | None]:
        """Kernel chain for one tensor: (metrics-or-None, stats key).

        Pure with respect to backend state (layouts and rank32 are passed
        in), so several tensors of one candidate can run concurrently.
        ``(None, None)`` hands the tensor to the engine's reference kernel.
        """
        if layout is None:
            return None, None
        footprint = relations.tensors[tensor].footprint
        if rank_span is None:
            rank_span = int(t_rank.max()) + 1
        # The fused kernel needs unique (stamp, element) pairs.
        if assume_unique and fused.usable:
            metrics = fused_group_volume_metrics(
                tensor,
                fused,
                t_rank,
                spatial_interval=self.spatial_interval,
                temporal_interval=self.temporal_interval,
                footprint=footprint,
                rank_span=rank_span,
                rank32=rank32,
            )
            if metrics is not None:
                return metrics, "fused_path"
        metrics = compiled_group_volume_metrics(
            tensor,
            layout,
            t_rank,
            spatial_interval=self.spatial_interval,
            temporal_interval=self.temporal_interval,
            footprint=footprint,
            assume_unique=assume_unique,
            rank_span=rank_span,
            rank32=rank32,
        )
        if metrics is not None:
            return metrics, "compiled_path"
        return None, None

    def volume_metrics(
        self, tensor, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        rank_span=None,
    ):
        return self.volume_metrics_many(
            [tensor], dataflow, pe_lin, t_rank, relations,
            assume_unique=assume_unique, rank_span=rank_span,
        )[tensor]

    def volume_metrics_many(
        self, tensors, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        rank_span=None,
    ):
        tensors = list(tensors)
        # Memo mutation happens serially up front; the kernels below only
        # read shared arrays.
        layouts = {
            tensor: self._layouts(tensor, dataflow, pe_lin, relations)
            for tensor in tensors
        }
        rank32 = t_rank.astype(np.int32)
        pool = _volume_pool() if (
            len(tensors) > 1 and relations.total >= (1 << 16)
        ) else None
        if pool is not None:
            futures = {
                tensor: pool.submit(
                    self._volume_one, tensor, *layouts[tensor], t_rank,
                    relations, assume_unique, rank_span, rank32,
                )
                for tensor in tensors
            }
            outcomes = {tensor: future.result() for tensor, future in futures.items()}
        else:
            outcomes = {
                tensor: self._volume_one(
                    tensor, *layouts[tensor], t_rank, relations,
                    assume_unique, rank_span, rank32,
                )
                for tensor in tensors
            }
        results: dict[str, VolumeMetrics | None] = {}
        for tensor, (metrics, path) in outcomes.items():
            if path is not None:
                self.stats[path] += 1
            results[tensor] = metrics
        return results
