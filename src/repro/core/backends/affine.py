"""Compiled affine stamp kernels for batched sweeps.

The interpreted hot path walks every candidate's quasi-affine expression trees
once per candidate (`AffExpr.evaluate_vec`).  This module compiles the batch
instead:

* :func:`lower_expr` turns a quasi-affine expression into one row of an
  integer coefficient matrix over the loop dimensions plus *derived columns*
  (one per distinct ``floor``/``mod``/``abs`` term with an affine argument).
  Expressions with nested quasi terms do not lower and fall back to the
  interpreter, so results stay bit-identical.
* :class:`CompiledExprSet` / :class:`CompiledEvaluator` evaluate all compiled
  rows of a candidate window with a single ``chunk_matrix @ C.T`` matmul over
  the cached domain chunk.  The matmul runs in float64 (BLAS); rows whose
  interval bounds do not fit float64 exactly are evaluated with exact int64
  accumulation instead, so the speedup never costs precision.
* :class:`GroupLayout` caches the candidate-invariant part of the volume
  kernel per (space-stamp signature, tensor): the (PE, element) group sort
  permutation, dense group ids, and per-interconnect-slot source groups.
  With it, :func:`compiled_group_volume_metrics` reduces each candidate's
  Table II counting to one narrow-key sort plus shifted-equality and
  membership tests — the same exact counts as the group-major kernel.
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.arch.pe_array import PEArray
from repro.core.backends.base import BatchStampProvider, EngineBackend
from repro.core.dataflow import Dataflow
from repro.core.volumes import VolumeMetrics
from repro.errors import DataflowError, SpaceError
from repro.isl.enumeration import sorted_unique
from repro.isl.expr import Abs, AffExpr, FloorDiv, Mod

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import OpRelations, TensorRelations

#: int64 values below this magnitude are represented exactly by float64.
_FLOAT_EXACT = 1 << 53

#: Process-wide thread pool for per-tensor volume kernels.  The kernels are
#: pure numpy whose heavy operations (sort, searchsorted, bincount) release
#: the GIL, so one candidate's tensors run concurrently.  Shared and lazy so
#: the many short-lived engines in tests do not each spawn threads.  Keyed by
#: PID: a pool inherited across ``fork`` (the ``jobs>1`` sweep workers) has
#: no live threads and would deadlock, so each process builds its own.
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


def _evict_lru(cache: OrderedDict, max_entries: int, max_bytes: int, nbytes) -> None:
    """Shared LRU budget: drop oldest entries past a count or byte cap."""
    while len(cache) > max_entries or (
        len(cache) > 1 and sum(nbytes(value) for value in cache.values()) > max_bytes
    ):
        cache.popitem(last=False)


# -- expression lowering ---------------------------------------------------------


@dataclass(frozen=True)
class DerivedColumn:
    """A lowered ``floor``/``mod``/``abs`` term with an affine argument."""

    kind: str                # "floordiv" | "mod" | "abs"
    param: int               # divisor / modulus (0 for abs)
    coeffs: tuple[int, ...]  # affine coefficients of the argument over the base dims
    const: int

    def bounds(self, dim_bounds: Sequence[tuple[int, int]]) -> tuple[int, int]:
        lo = hi = self.const
        for coeff, (blo, bhi) in zip(self.coeffs, dim_bounds):
            if coeff >= 0:
                lo += coeff * blo
                hi += coeff * bhi
            else:
                lo += coeff * bhi
                hi += coeff * blo
        if self.kind == "floordiv":
            return lo // self.param, hi // self.param
        if self.kind == "mod":
            if hi - lo + 1 >= self.param:
                return 0, self.param - 1
            lo_m, hi_m = lo % self.param, hi % self.param
            if lo_m <= hi_m:
                return lo_m, hi_m
            return 0, self.param - 1
        if lo >= 0:
            return lo, hi
        if hi <= 0:
            return -hi, -lo
        return 0, max(-lo, hi)

    def evaluate(self, base_columns: Sequence[np.ndarray], length: int) -> np.ndarray:
        total = np.full(length, self.const, dtype=np.int64)
        for coeff, column in zip(self.coeffs, base_columns):
            if coeff:
                total += coeff * column
        if self.kind == "floordiv":
            return total // self.param
        if self.kind == "mod":
            return total % self.param
        return np.abs(total)


def lower_expr(
    expr: AffExpr, dims: Sequence[str]
) -> tuple[tuple[int, ...], int, list[tuple[int, DerivedColumn]]] | None:
    """Lower a quasi-affine expression to coefficient-matrix form.

    Returns ``(base_coefficients, constant, [(coefficient, derived), ...])``
    or ``None`` when the expression cannot be compiled: it references a
    variable outside ``dims``, or a quasi term's argument is itself
    quasi-affine (nested floor/mod/abs) — those fall back to the interpreter.
    """
    try:
        base, const = expr.linear_row(dims)
    except SpaceError:  # references a variable outside the loop dimensions
        return None
    derived: list[tuple[int, DerivedColumn]] = []
    for coeff, term in expr.quasi:
        inner = term.expr
        if not inner.is_affine:
            return None
        try:
            inner_coeffs, inner_const = inner.linear_row(dims)
        except SpaceError:
            return None
        if isinstance(term, FloorDiv):
            kind, param = "floordiv", term.divisor
        elif isinstance(term, Mod):
            kind, param = "mod", term.modulus
        elif isinstance(term, Abs):
            kind, param = "abs", 0
        else:  # pragma: no cover - no other quasi terms exist
            return None
        derived.append((coeff, DerivedColumn(kind, param, inner_coeffs, inner_const)))
    return base, const, derived


class CompiledExprSet:
    """A batch of stamp expressions sharing one coefficient matrix."""

    def __init__(self, dims: Sequence[str], inclusive_bounds: Mapping[str, tuple[int, int]]):
        self.dims = tuple(dims)
        self.dim_bounds = [inclusive_bounds[dim] for dim in self.dims]
        self.derived: list[DerivedColumn] = []
        self._derived_ids: dict[DerivedColumn, int] = {}
        #: row = (base_coeffs, const, ((derived_index, coeff), ...))
        self.rows: list[tuple[tuple[int, ...], int, tuple[tuple[int, int], ...]]] = []
        self._row_ids: dict[tuple, int] = {}
        self.fallback: list[AffExpr] = []
        self._fallback_ids: dict[AffExpr, int] = {}

    def add(self, expr: AffExpr) -> tuple[str, int]:
        """Register an expression; returns ("row", i) or ("interp", i).

        Identical expressions (candidates of a sweep family share most of
        their time expressions) are registered once and evaluated once.
        """
        lowered = lower_expr(expr, self.dims)
        if lowered is None:
            index = self._fallback_ids.get(expr)
            if index is None:
                index = len(self.fallback)
                self._fallback_ids[expr] = index
                self.fallback.append(expr)
            return ("interp", index)
        base, const, derived = lowered
        refs = []
        for coeff, column in derived:
            index = self._derived_ids.get(column)
            if index is None:
                index = len(self.derived)
                self._derived_ids[column] = index
                self.derived.append(column)
            refs.append((index, coeff))
        row = (base, const, tuple(refs))
        index = self._row_ids.get(row)
        if index is None:
            index = len(self.rows)
            self._row_ids[row] = index
            self.rows.append(row)
        return ("row", index)


class CompiledEvaluator:
    """Evaluate compiled rows over one cached domain chunk.

    The evaluator is long-lived (owned by the backend, shared by every batch
    against the same cached relations): derived columns and the float column
    matrix extend incrementally as later batches register new expressions,
    and evaluated row values are memoised — a row is deterministic for a
    fixed domain, so repeated single-candidate evaluations and overlapping
    sweeps pay for each expression once.
    """

    #: Cap on memoised row values (count and bytes).
    _ROW_CACHE_ENTRIES, _ROW_CACHE_BYTES = 512, 256 << 20

    def __init__(
        self,
        exprs: CompiledExprSet,
        domain: Mapping[str, np.ndarray],
        length: int,
        *,
        xp=None,
        on_transfer=None,
    ):
        self.exprs = exprs
        self.domain = domain
        self.length = length
        self.base = [np.asarray(domain[dim], dtype=np.int64) for dim in exprs.dims]
        self.derived_cols = [col.evaluate(self.base, length) for col in exprs.derived]
        self.derived_bounds = [col.bounds(exprs.dim_bounds) for col in exprs.derived]
        self._matrix: np.ndarray | None = None
        #: Device namespace for the stacked matmul; ``None`` keeps the classic
        #: numpy path byte-for-byte (the host namespace needs no uploads).
        self.xp = None if xp is None or xp.is_numpy else xp
        self._on_transfer = on_transfer
        #: Chunk columns resident on the device, uploaded once per relations
        #: object (candidate-invariant) and re-uploaded only when new derived
        #: columns widen the matrix.
        self._device_matrix = None
        self._row_values: OrderedDict[int, np.ndarray] = OrderedDict()
        self._interp_values: OrderedDict[int, np.ndarray] = OrderedDict()

    def _sync_derived(self) -> None:
        """Pick up derived columns registered after this evaluator was built."""
        if len(self.exprs.derived) > len(self.derived_cols):
            for column in self.exprs.derived[len(self.derived_cols) :]:
                self.derived_cols.append(column.evaluate(self.base, self.length))
                self.derived_bounds.append(column.bounds(self.exprs.dim_bounds))
            self._matrix = None
            self._device_matrix = None

    def _float_matrix(self) -> np.ndarray:
        if self._matrix is None:
            columns = self.base + self.derived_cols
            matrix = np.empty((self.length, len(columns) + 1), dtype=np.float64)
            for j, column in enumerate(columns):
                matrix[:, j] = column
            matrix[:, -1] = 1.0
            self._matrix = matrix
            self._device_matrix = None
        return self._matrix

    def _note_transfer(self, started: float) -> None:
        if self._on_transfer is not None:
            self._on_transfer(time.perf_counter() - started)

    def _device_values(self, coeffs: np.ndarray) -> np.ndarray:
        """The stacked matmul on the device namespace, result back on host.

        The coefficient block covers every deduplicated row of the current
        batch window, so the host->device coefficient upload happens once per
        batch, not once per candidate.  Values are integers below the float64
        exactness bound (the caller filtered on ``_row_magnitude``), so the
        int64 conversion on device and the copy back are bit-identical to the
        host matmul.
        """
        xp = self.xp
        matrix = self._float_matrix()
        if self._device_matrix is None:
            started = time.perf_counter()
            self._device_matrix = xp.asarray(np.ascontiguousarray(matrix.T))
            self._note_transfer(started)
        started = time.perf_counter()
        device_coeffs = xp.asarray(coeffs)
        self._note_transfer(started)
        product = xp.astype(xp.matmul(device_coeffs, self._device_matrix), "int64")
        started = time.perf_counter()
        values = np.ascontiguousarray(xp.to_host(product))
        self._note_transfer(started)
        return values

    def _row_magnitude(self, row_id: int) -> int:
        base, const, derived = self.exprs.rows[row_id]
        total = abs(const)
        for coeff, (lo, hi) in zip(base, self.exprs.dim_bounds):
            total += abs(coeff) * max(abs(lo), abs(hi))
        for index, coeff in derived:
            lo, hi = self.derived_bounds[index]
            total += abs(coeff) * max(abs(lo), abs(hi))
        return total

    def _evaluate_exact(self, row_id: int) -> np.ndarray:
        base, const, derived = self.exprs.rows[row_id]
        total = np.full(self.length, const, dtype=np.int64)
        for coeff, column in zip(base, self.base):
            if coeff:
                total += coeff * column
        for index, coeff in derived:
            total += coeff * self.derived_cols[index]
        return total

    def _remember_rows(self, results: dict[int, np.ndarray]) -> None:
        cache = self._row_values
        for rid, values in results.items():
            cache[rid] = values
            cache.move_to_end(rid)
        _evict_lru(
            cache, self._ROW_CACHE_ENTRIES, self._ROW_CACHE_BYTES, lambda a: a.nbytes
        )

    def evaluate_rows(self, row_ids: Sequence[int]) -> dict[int, np.ndarray]:
        """Evaluate compiled rows, batching float-exact rows into one matmul.

        Previously evaluated rows come from the memo; only the rest run.
        """
        self._sync_derived()
        results: dict[int, np.ndarray] = {}
        pending: list[int] = []
        for rid in row_ids:
            cached = self._row_values.get(rid)
            if cached is not None:
                self._row_values.move_to_end(rid)
                results[rid] = cached
            else:
                pending.append(rid)
        if not pending:
            return results
        fresh: dict[int, np.ndarray] = {}
        safe = [rid for rid in pending if self._row_magnitude(rid) < _FLOAT_EXACT]
        safe_set = set(safe)
        for rid in pending:
            if rid not in safe_set:
                fresh[rid] = self._evaluate_exact(rid)
        if safe:
            width = len(self.base) + len(self.derived_cols) + 1
            coeffs = np.zeros((len(safe), width), dtype=np.float64)
            for j, rid in enumerate(safe):
                base, const, derived = self.exprs.rows[rid]
                coeffs[j, : len(base)] = base
                for index, coeff in derived:
                    coeffs[j, len(self.base) + index] += coeff
                coeffs[j, -1] = const
            # Row-major result: one contiguous int64 conversion, then row views.
            if self.xp is None:
                values = (coeffs @ self._float_matrix().T).astype(np.int64)
            else:
                values = self._device_values(coeffs)
            for j, rid in enumerate(safe):
                fresh[rid] = values[j]
        self._remember_rows(fresh)
        results.update(fresh)
        return results

    def evaluate_interp(self, index: int) -> np.ndarray:
        """Interpreter fallback, memoised like the compiled rows."""
        cache = self._interp_values
        values = cache.get(index)
        if values is None:
            values = self.exprs.fallback[index].evaluate_vec(self.domain)
            cache[index] = values
            _evict_lru(
                cache, self._ROW_CACHE_ENTRIES, self._ROW_CACHE_BYTES,
                lambda a: a.nbytes,
            )
        else:
            cache.move_to_end(index)
        return values


# -- candidate-invariant volume layout -------------------------------------------


@dataclass
class GroupLayout:
    """Space-stamp-derived structure of one tensor, shared by a sweep family.

    Pairs are the (instance, distinct reference) accesses of the tensor; a
    *group* is a distinct ``(PE, element)`` pair.  Everything here depends
    only on the space stamps and the cached relations, so candidates that
    share a space signature (the common case in sweep families) reuse it and
    pay only time-stamp-dependent work per candidate.
    """

    #: Instance index of each pair, in group-sorted order.
    perm_mod: np.ndarray
    #: Dense group id of each pair, group-sorted order (int32).
    dense_sorted: np.ndarray
    #: Dense group id of each pair in original (per-reference) order (int32).
    dense_orig: np.ndarray
    group_count: int
    #: Number of *distinct* references (identical references are collapsed).
    references: int
    #: Per interconnect slot: does the pair's group have a valid source group?
    slot_valid: list[np.ndarray]
    #: Per slot: dense source group minus dense group, per pair (int32).
    slot_delta: list[np.ndarray]
    #: Per slot: the delta shared by every valid pair, or ``None`` when it
    #: varies (systolic links between uniformly-populated PEs share one).
    slot_delta_const: list[int | None]
    #: Per slot: dense source group per *group* (sentinel ``group_count``).
    slot_src_group: list[np.ndarray]

    def nbytes(self) -> int:
        total = self.perm_mod.nbytes + self.dense_sorted.nbytes + self.dense_orig.nbytes
        for arrays in (self.slot_valid, self.slot_delta, self.slot_src_group):
            total += sum(a.nbytes for a in arrays)
        return total


def build_group_layout(
    pe_lin: np.ndarray,
    relations: "TensorRelations",
    predecessor_table: np.ndarray,
    spatial_interval: int,
) -> GroupLayout | None:
    """Build the candidate-invariant group structure for one tensor.

    Linear time whenever the ``(PE, element)`` key range is comparable to the
    pair count (the presence bitmap of :func:`repro.core.engine._rank_keys`):
    dense group ids and source groups are table lookups, block sizes a
    ``bincount``, and the only sort is one stable argsort of the integer
    group ids.  Per-pair slot arrays repeat their group's value over its
    block.  Every array equals the sort-based construction's, dtypes included.
    """
    from repro.core.engine import _presence_table

    footprint = relations.footprint
    length = pe_lin.size
    segments = [
        relations.dense_keys[index * length : (index + 1) * length]
        for index in range(relations.references)
    ]
    distinct: list[np.ndarray] = []
    for segment in segments:
        if not any(np.array_equal(segment, seen) for seen in distinct):
            distinct.append(segment)
    groups = [pe_lin * footprint + segment for segment in distinct]
    pairs = groups[0] if len(groups) == 1 else np.concatenate(groups)
    total = pairs.size
    if total == 0 or total >= (1 << 31):
        return None
    table = _presence_table(pairs)
    if table is not None:
        presence, lut = table
        unique_groups = np.flatnonzero(presence)
        dense_orig = lut[pairs].astype(np.int32)
    else:
        unique_groups = sorted_unique(pairs)
        dense_orig = np.searchsorted(unique_groups, pairs).astype(np.int32)
    group_count = int(unique_groups.size)
    sizes = np.bincount(dense_orig, minlength=group_count)
    # Stable, so pairs keep their original order inside a group, exactly as
    # a stable sort of the (PE, element) keys would leave them.  numpy's
    # stable sort is a radix sort on 16-bit ids, about twice timsort's speed.
    narrow_ids = dense_orig.astype(np.uint16) if group_count <= (1 << 16) else dense_orig
    perm = np.argsort(narrow_ids, kind="stable")
    group_ids = np.arange(group_count, dtype=np.int32)
    dense_sorted = np.repeat(group_ids, sizes)
    perm_mod = (perm % length if len(distinct) > 1 else perm).astype(np.int32)

    group_pe = unique_groups // footprint
    group_elem = unique_groups - group_pe * footprint
    slot_valid: list[np.ndarray] = []
    slot_delta: list[np.ndarray] = []
    slot_delta_const: list[int | None] = []
    slot_src_group: list[np.ndarray] = []
    slots = predecessor_table.shape[1] if predecessor_table.size else 0
    for slot in range(slots):
        src_pe = predecessor_table[group_pe, slot]
        valid = src_pe >= 0
        if spatial_interval == 0:
            valid &= src_pe < group_pe
        src_raw = src_pe * footprint + group_elem
        if table is not None:
            valid &= src_raw < presence.size
            lookup = np.where(valid, src_raw, 0)
            present = valid & presence[lookup]
            src_dense = np.where(present, lut[lookup], group_count).astype(np.int32)
        else:
            position = np.clip(np.searchsorted(unique_groups, src_raw), 0, group_count - 1)
            present = valid & (unique_groups[position] == src_raw)
            src_dense = np.where(present, position, group_count).astype(np.int32)
        slot_src_group.append(src_dense)
        slot_valid.append(np.repeat(present, sizes))
        group_delta = src_dense - group_ids
        slot_delta.append(np.repeat(group_delta, sizes))
        valid_deltas = group_delta[present]
        if valid_deltas.size and valid_deltas.min() == valid_deltas.max():
            slot_delta_const.append(int(valid_deltas[0]))
        else:
            slot_delta_const.append(None)
    return GroupLayout(
        perm_mod=perm_mod,
        dense_sorted=dense_sorted,
        dense_orig=dense_orig,
        group_count=group_count,
        references=len(distinct),
        slot_valid=slot_valid,
        slot_delta=slot_delta,
        slot_delta_const=slot_delta_const,
        slot_src_group=slot_src_group,
    )


def compiled_group_volume_metrics(
    tensor: str,
    layout: GroupLayout,
    t_rank: np.ndarray,
    *,
    spatial_interval: int,
    temporal_interval: int,
    footprint: int,
    assume_unique: bool,
    rank_span: int | None = None,
    rank32: np.ndarray | None = None,
) -> VolumeMetrics | None:
    """Exact Table II metrics from a cached :class:`GroupLayout`.

    Per candidate this needs one narrow-key in-place sort (int32 whenever the
    dense key span fits), shifted-equality temporal tests, and per-slot
    membership probes whose source groups were precomputed — no divisions, no
    predecessor-table gathers, no re-derivation of the group order.  Counts
    are bit-identical to the group-major kernel; returns ``None`` when the
    temporal interval is outside the adjacency window or keys would overflow.
    """
    ti = temporal_interval
    if ti < 1 or ti > 8:
        return None
    if t_rank.size == 0:
        return None
    if rank_span is None:
        rank_span = int(t_rank.max()) + 1
    group_count = layout.group_count
    span = group_count * rank_span
    if span >= (1 << 62):
        return None

    if span < (1 << 31):
        scaled = layout.dense_sorted * rank_span
        if rank32 is None:
            rank32 = t_rank.astype(np.int32)
        keys = scaled + np.take(rank32, layout.perm_mod)
    else:
        scaled = layout.dense_sorted.astype(np.int64) * rank_span
        keys = scaled + np.take(t_rank, layout.perm_mod)
    keys.sort()  # groups are the high digits, so group blocks stay in place

    slot_valid = layout.slot_valid
    slot_delta = layout.slot_delta
    if assume_unique and layout.references == 1:
        ranks = keys - scaled
    else:
        fresh = np.empty(keys.shape, dtype=bool)
        fresh[0] = True
        np.not_equal(keys[1:], keys[:-1], out=fresh[1:])
        if not fresh.all():
            keys = keys[fresh]
            scaled = scaled[fresh]
            slot_valid = [valid[fresh] for valid in slot_valid]
            slot_delta = [delta[fresh] for delta in slot_delta]
        ranks = keys - scaled
    total = int(keys.size)

    temporal_mask = np.zeros(total, dtype=bool)
    if ti == 1:
        np.equal(keys[:-1], keys[1:] - 1, out=temporal_mask[1:])
    else:
        for back in range(1, ti + 1):
            np.logical_or(
                temporal_mask[back:], keys[:-back] == keys[back:] - ti,
                out=temporal_mask[back:],
            )
    rank_guard = ranks >= ti
    temporal_mask &= rank_guard
    temporal_count = int(np.count_nonzero(temporal_mask))

    spatial_count = 0
    if temporal_count < total and slot_valid:
        if temporal_count == 0:
            # No temporal reuse (typical for input tensors): the probe set is
            # the rank guard itself, no mask inversion needed.
            if spatial_interval == 0:
                probe = None  # probe everything
            elif spatial_interval == ti:
                probe = rank_guard
            else:
                probe = ranks >= spatial_interval
        else:
            probe = ~temporal_mask
            if spatial_interval:
                # Reuse the temporal guard when the intervals coincide (the
                # common systolic case: both are one time-stamp).
                probe &= rank_guard if spatial_interval == ti else ranks >= spatial_interval
        keys_p = keys if probe is None else np.compress(probe, keys)
        if keys_p.size:
            spatial_mask: np.ndarray | None = None
            wide = keys.dtype == np.int64
            for valid, delta, delta_const in zip(
                slot_valid, slot_delta, layout.slot_delta_const
            ):
                valid_p = valid if probe is None else np.compress(probe, valid)
                if not valid_p.any():
                    continue
                if delta_const is not None:
                    # Uniform source offset (systolic links between equally
                    # populated PEs): one scalar add replaces the per-pair
                    # delta gather and multiply.
                    probes = keys_p + (delta_const * rank_span - spatial_interval)
                else:
                    delta_p = delta if probe is None else np.compress(probe, delta)
                    if wide:
                        delta_p = delta_p.astype(np.int64)
                    probes = keys_p + delta_p * rank_span - spatial_interval
                positions = np.searchsorted(keys, probes)
                hits = np.take(keys, positions, mode="clip") == probes
                hits &= valid_p
                if spatial_mask is None:
                    spatial_mask = hits
                else:
                    spatial_mask |= hits
            if spatial_mask is not None:
                spatial_count = int(np.count_nonzero(spatial_mask))

    return VolumeMetrics(
        tensor=tensor,
        total=total,
        reuse=temporal_count + spatial_count,
        temporal_reuse=temporal_count,
        spatial_reuse=spatial_count,
        footprint=footprint,
    )


# -- batched stamp provider ------------------------------------------------------


class _AffineBatchStamps(BatchStampProvider):
    """Windowed, matmul-batched stamp evaluation for a list of candidates."""

    def __init__(
        self,
        backend: "AffineBackend",
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
        # Bound transient stamp memory: at most ~8M matrix cells per window.
        self._rows_per_window = max(4, 8_000_000 // max(1, relations.total))

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
        self.backend.engine.stats["stamp_fallback_exprs"] += 1
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


_MISSING = object()


# -- the backend -----------------------------------------------------------------


class AffineBackend(EngineBackend):
    """Compiled stamps plus the group-layout volume kernel.

    ``bitset_mode`` controls the dense bit-set membership kernel (see
    :mod:`repro.core.backends.bitset`): ``"never"`` (pure affine backend),
    ``"auto"`` (use it for tensors whose packed occupancy is smaller than the
    pair array — the small-op regime) or ``"always"`` (use it whenever it is
    exact and fits memory).  Infeasible cases chain down to the compiled
    grouped kernel, then the PR 1 grouped kernel, then the reference kernel.
    """

    name = "affine"

    #: Memory caps for the per-engine memos.
    _PE_MEMO_ENTRIES, _PE_MEMO_BYTES = 64, 256 << 20
    _LAYOUT_ENTRIES, _LAYOUT_BYTES = 32, 256 << 20

    def __init__(self, engine, *, bitset_mode: str = "never"):
        super().__init__(engine)
        self.bitset_mode = bitset_mode
        self._pe_memo: OrderedDict[tuple, np.ndarray | None] = OrderedDict()
        self._layout_memo: OrderedDict[tuple, GroupLayout | None] = OrderedDict()
        #: Per-candidate int32 rank cache shared by the tensors' volume calls;
        #: the strong reference keeps the keyed array's identity stable.
        self._rank32: tuple[np.ndarray, np.ndarray] | None = None
        #: Shared (expression set, evaluator) per cached-relations object.
        self._compiled: tuple[object, CompiledExprSet, CompiledEvaluator] | None = None

    def _add_transfer_seconds(self, seconds: float) -> None:
        stage = self.engine.stage_seconds
        stage["transfer"] = stage.get("transfer", 0.0) + seconds

    def compiled_for(self, relations) -> tuple[CompiledExprSet, CompiledEvaluator]:
        """The backend-wide compiled expression set for one relations object."""
        cached = self._compiled
        if cached is not None and cached[0] is relations:
            return cached[1], cached[2]
        exprs = CompiledExprSet(self.engine.op.loop_dims, relations.inclusive_bounds)
        evaluator = CompiledEvaluator(
            exprs,
            relations.domain,
            relations.total,
            xp=self.engine.xp,
            on_transfer=self._add_transfer_seconds,
        )
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
        return _AffineBatchStamps(self, relations, dataflows, pe_array)

    def utilization(self, pe_lin, t_rank, num_pes):
        """Dense-histogram utilization with the injective shortcut enabled."""
        from repro.core.engine import _utilization_dense

        return _utilization_dense(pe_lin, t_rank, num_pes, injective_shortcut=True)

    def stamps(self, relations, dataflow, pe_array):
        return _AffineBatchStamps(self, relations, [dataflow], pe_array).stamps_for(0)

    # -- volumes ----------------------------------------------------------------

    def _layout(self, tensor: str, dataflow: Dataflow, pe_lin, relations) -> GroupLayout | None:
        key = (self.pe_signature(dataflow), tensor)
        memo = self._layout_memo
        if key in memo:
            memo.move_to_end(key)
            return memo[key]
        layout = build_group_layout(
            pe_lin,
            relations.tensors[tensor],
            self.engine._predecessor_table,
            self.engine._spacetime.spatial_interval,
        )
        memo[key] = layout
        _evict_lru(
            memo, self._LAYOUT_ENTRIES, self._LAYOUT_BYTES,
            lambda v: v.nbytes() if v is not None else 0,
        )
        return layout

    def _rank32_for(self, t_rank: np.ndarray) -> np.ndarray:
        cached = self._rank32
        if cached is not None and cached[0] is t_rank:
            return cached[1]
        rank32 = t_rank.astype(np.int32)
        self._rank32 = (t_rank, rank32)
        return rank32

    def _volume_sorted(
        self, tensor, layout, t_rank, relations, assume_unique, rank_span, rank32,
    ) -> tuple[VolumeMetrics, str] | None:
        """The sort-based kernel chain for one tensor, after the bit-set try.

        Subclasses insert faster sort-based kernels here (the fused backend's
        windowed kernel chains to this one); the bit-set dispatch stays in
        :meth:`_volume_one` so its gating exists in exactly one place.
        """
        engine = self.engine
        metrics = compiled_group_volume_metrics(
            tensor,
            layout,
            t_rank,
            spatial_interval=engine._spacetime.spatial_interval,
            temporal_interval=engine.temporal_interval,
            footprint=relations.tensors[tensor].footprint,
            assume_unique=assume_unique,
            rank_span=rank_span,
            rank32=rank32,
        )
        if metrics is not None:
            return metrics, "compiled_path"
        return None

    def _volume_one(
        self, tensor, layout, pe_lin, t_rank, relations, assume_unique,
        rank_span, rank32,
    ) -> tuple[VolumeMetrics | None, str | None]:
        """Kernel chain for one tensor: (metrics-or-None, stats key).

        Pure with respect to backend state (layout and rank32 are passed in),
        so several tensors of one candidate can run concurrently.
        """
        engine = self.engine
        footprint = relations.tensors[tensor].footprint
        if layout is not None:
            if self.bitset_mode != "never":
                from repro.core.backends.bitset import bitset_volume_metrics

                metrics = bitset_volume_metrics(
                    tensor,
                    layout,
                    t_rank,
                    spatial_interval=engine._spacetime.spatial_interval,
                    temporal_interval=engine.temporal_interval,
                    footprint=footprint,
                    assume_unique=assume_unique,
                    mode=self.bitset_mode,
                    rank_span=rank_span,
                )
                if metrics is not None:
                    return metrics, "bitset_path"
            sorted_result = self._volume_sorted(
                tensor, layout, t_rank, relations, assume_unique, rank_span, rank32
            )
            if sorted_result is not None:
                return sorted_result
        from repro.core.engine import _grouped_volume_metrics

        metrics = _grouped_volume_metrics(
            tensor,
            pe_lin,
            t_rank,
            relations.tensors[tensor],
            engine._predecessor_table,
            engine.arch.pe_array.size,
            spatial_interval=engine._spacetime.spatial_interval,
            temporal_interval=engine.temporal_interval,
            assume_unique=assume_unique,
        )
        return metrics, None

    def volume_metrics(
        self, tensor, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        rank_span=None,
    ):
        layout = self._layout(tensor, dataflow, pe_lin, relations)
        metrics, path = self._volume_one(
            tensor, layout, pe_lin, t_rank, relations, assume_unique,
            rank_span, self._rank32_for(t_rank),
        )
        if path is not None:
            self.engine.stats[path] += 1
        return metrics

    def volume_metrics_many(
        self, tensors, dataflow, pe_lin, t_rank, relations, *, assume_unique,
        rank_span=None,
    ):
        tensors = list(tensors)
        # Memo mutation happens serially up front; the kernels below only
        # read shared arrays.
        layouts = {
            tensor: self._layout(tensor, dataflow, pe_lin, relations)
            for tensor in tensors
        }
        rank32 = self._rank32_for(t_rank)
        results: dict[str, VolumeMetrics | None] = {}
        pool = _volume_pool() if (
            len(tensors) > 1 and relations.total >= (1 << 16)
        ) else None
        if pool is not None:
            futures = {
                tensor: pool.submit(
                    self._volume_one, tensor, layouts[tensor], pe_lin, t_rank,
                    relations, assume_unique, rank_span, rank32,
                )
                for tensor in tensors
            }
            outcomes = {tensor: future.result() for tensor, future in futures.items()}
        else:
            outcomes = {
                tensor: self._volume_one(
                    tensor, layouts[tensor], pe_lin, t_rank, relations,
                    assume_unique, rank_span, rank32,
                )
                for tensor in tensors
            }
        for tensor, (metrics, path) in outcomes.items():
            if path is not None:
                self.engine.stats[path] += 1
            results[tensor] = metrics
        return results
