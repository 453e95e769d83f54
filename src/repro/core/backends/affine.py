"""Compiled stamp kernels and the compiled group-layout volume kernel.

The interpreted hot path walks every candidate's quasi-affine expression trees
once per candidate (`AffExpr.evaluate_vec`).  The compiled backend
(:class:`repro.core.backends.fused.FusedBackend`) compiles the batch instead,
with the building blocks of this module:

* :func:`lower_expr` turns a quasi-affine expression into one row of an
  integer coefficient matrix over the loop dimensions plus *derived columns*
  (one per distinct ``floor``/``mod``/``abs`` term with an affine argument).
  Expressions with nested quasi terms do not lower and fall back to the
  interpreter, so results stay bit-identical.
* :class:`CompiledExprSet` / :class:`CompiledEvaluator` evaluate compiled rows
  with a single ``coeffs @ chunk_matrix.T`` matmul over the cached domain
  chunk.  The matmul runs in float64 (BLAS); rows whose interval bounds do
  not fit float64 exactly are evaluated with exact int64 accumulation
  instead, so the speedup never costs precision.
* :class:`GroupLayout` caches the candidate-invariant part of the volume
  kernel per (space-stamp signature, tensor): the (PE, element) group sort
  permutation, dense group ids, and per-interconnect-slot source groups.
  With it, :func:`compiled_group_volume_metrics` reduces each candidate's
  Table II counting to one narrow-key sort plus shifted-equality and
  membership tests — the same exact counts as the reference kernel.  It is
  the compiled backend's fallback for the tensors the stamp-grid kernel
  refuses.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Mapping, Sequence

import numpy as np

from repro.core.volumes import VolumeMetrics
from repro.errors import SpaceError
from repro.isl.enumeration import sorted_unique
from repro.isl.expr import Abs, AffExpr, FloorDiv, Mod

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import TensorRelations

#: int64 values below this magnitude are represented exactly by float64.
_FLOAT_EXACT = 1 << 53

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
    ):
        self.exprs = exprs
        self.domain = domain
        self.length = length
        self.base = [np.asarray(domain[dim], dtype=np.int64) for dim in exprs.dims]
        self.derived_cols = [col.evaluate(self.base, length) for col in exprs.derived]
        self.derived_bounds = [col.bounds(exprs.dim_bounds) for col in exprs.derived]
        self._matrix: np.ndarray | None = None
        self._row_values: OrderedDict[int, np.ndarray] = OrderedDict()
        self._interp_values: OrderedDict[int, np.ndarray] = OrderedDict()

    def _sync_derived(self) -> None:
        """Pick up derived columns registered after this evaluator was built."""
        if len(self.exprs.derived) > len(self.derived_cols):
            for column in self.exprs.derived[len(self.derived_cols) :]:
                self.derived_cols.append(column.evaluate(self.base, self.length))
                self.derived_bounds.append(column.bounds(self.exprs.dim_bounds))
            self._matrix = None

    def _float_matrix(self) -> np.ndarray:
        if self._matrix is None:
            columns = self.base + self.derived_cols
            matrix = np.empty((self.length, len(columns) + 1), dtype=np.float64)
            for j, column in enumerate(columns):
                matrix[:, j] = column
            matrix[:, -1] = 1.0
            self._matrix = matrix
        return self._matrix

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
            values = (coeffs @ self._float_matrix().T).astype(np.int64)
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

    def nbytes(self) -> int:
        total = self.perm_mod.nbytes + self.dense_sorted.nbytes
        for arrays in (self.slot_valid, self.slot_delta):
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
        group_count=group_count,
        references=len(distinct),
        slot_valid=slot_valid,
        slot_delta=slot_delta,
        slot_delta_const=slot_delta_const,
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
        keys = scaled + np.take(t_rank.astype(np.int32), layout.perm_mod)
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
