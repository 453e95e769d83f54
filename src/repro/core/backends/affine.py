"""Compiled stamp kernels: quasi-affine expressions as coefficient-matrix rows.

The interpreted hot path walks every candidate's quasi-affine expression trees
once per candidate (`AffExpr.evaluate_vec`).  The compiled backend
(:class:`repro.core.backends.fused.FusedBackend`) lowers them instead, with
the building blocks of this module:

* :func:`lower_expr` turns a quasi-affine expression into one row of an
  integer coefficient matrix over the loop dimensions plus *derived columns*
  (one per distinct ``floor``/``mod``/``abs`` term with an affine argument).
  Expressions with nested quasi terms do not lower and fall back to the
  interpreter, so results stay bit-identical.
* :class:`CompiledExprSet` / :class:`CompiledEvaluator` deduplicate rows
  across candidates and evaluate each one once, exactly, in int64 over its
  non-zero columns.  A row that is a single column with coefficient 1 and
  constant 0 (``k``, ``floor(i/8)``, ``i mod 8``, ...) is that cached
  column itself; the cached columns are read-only.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.errors import SpaceError
from repro.isl.expr import Abs, AffExpr, FloorDiv, Mod

def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark a cached array read-only and return it."""
    array.flags.writeable = False
    return array


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
    """Stamp expressions lowered to deduplicated coefficient rows over shared
    derived columns."""

    def __init__(self, dims: Sequence[str]):
        self.dims = tuple(dims)
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
    """Evaluate compiled rows over one cached domain.

    The evaluator is long-lived (owned by the backend, shared by every batch
    against the same cached relations): derived columns extend incrementally
    as later batches register new expressions, and evaluated row values are
    memoised — a row is deterministic for a fixed domain, so repeated
    single-candidate evaluations and overlapping sweeps pay for each
    expression once.  Base columns, derived columns and memoised rows are
    read-only, so a caller that writes through a returned row raises instead
    of corrupting the cache.
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
        self.base = [_read_only(np.asarray(domain[dim], dtype=np.int64)) for dim in exprs.dims]
        self.derived_cols: list[np.ndarray] = []
        self._row_values: OrderedDict[int, np.ndarray] = OrderedDict()
        self._interp_values: OrderedDict[int, np.ndarray] = OrderedDict()

    def _sync_derived(self) -> None:
        """Evaluate derived columns registered since the last call."""
        for column in self.exprs.derived[len(self.derived_cols) :]:
            self.derived_cols.append(_read_only(column.evaluate(self.base, self.length)))

    def _single_column(self, row_id: int) -> np.ndarray | None:
        """The cached column a row equals (one term, coefficient 1, constant 0)."""
        base, const, derived = self.exprs.rows[row_id]
        terms = [(self.base[j], coeff) for j, coeff in enumerate(base) if coeff]
        terms += [(self.derived_cols[index], coeff) for index, coeff in derived]
        if const == 0 and len(terms) == 1 and terms[0][1] == 1:
            return terms[0][0]
        return None

    def _evaluate_exact(self, row_id: int) -> np.ndarray:
        base, const, derived = self.exprs.rows[row_id]
        total = np.full(self.length, const, dtype=np.int64)
        for coeff, column in zip(base, self.base):
            if coeff:
                total += coeff * column
        for index, coeff in derived:
            total += coeff * self.derived_cols[index]
        return _read_only(total)

    def evaluate_rows(self, row_ids: Sequence[int]) -> dict[int, np.ndarray]:
        """Evaluate compiled rows exactly in int64.

        A single-column row is returned as that column; the other rows come
        from the memo or are evaluated once and memoised.
        """
        self._sync_derived()
        cache = self._row_values
        results: dict[int, np.ndarray] = {}
        for rid in row_ids:
            values = self._single_column(rid)
            if values is None:
                values = cache.get(rid)
                if values is None:
                    values = cache[rid] = self._evaluate_exact(rid)
                    _evict_lru(
                        cache, self._ROW_CACHE_ENTRIES, self._ROW_CACHE_BYTES,
                        lambda a: a.nbytes,
                    )
                else:
                    cache.move_to_end(rid)
            results[rid] = values
        return results

    def evaluate_interp(self, index: int) -> np.ndarray:
        """Interpreter fallback, memoised like the compiled rows."""
        cache = self._interp_values
        values = cache.get(index)
        if values is None:
            values = cache[index] = _read_only(
                self.exprs.fallback[index].evaluate_vec(self.domain)
            )
            _evict_lru(
                cache, self._ROW_CACHE_ENTRIES, self._ROW_CACHE_BYTES,
                lambda a: a.nbytes,
            )
        else:
            cache.move_to_end(index)
        return values
