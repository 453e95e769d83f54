"""Compiled stamp kernels: quasi-affine expressions as coefficient-matrix rows.

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
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SpaceError
from repro.isl.expr import Abs, AffExpr, FloorDiv, Mod

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
