"""Quasi-affine integer expressions.

The dataflows in the paper are built from *quasi-affine* expressions: integer
linear combinations of loop iterators extended with ``floor(e / d)``,
``e mod d`` (Section IV-A, "quasi-affine transformation") and, for interconnect
conditions, ``abs(e)``.  :class:`AffExpr` represents such an expression as an
immutable tree:

* a linear part: ``{variable: coefficient}`` plus an integer constant, and
* a list of ``(coefficient, term)`` pairs where each term is a
  :class:`FloorDiv`, :class:`Mod` or :class:`Abs` node wrapping a nested
  :class:`AffExpr`.

Expressions support arithmetic (``+``, ``-``, ``*`` by an integer, ``//`` and
``%`` by a positive integer), substitution of variables by sub-expressions,
scalar evaluation, and vectorised evaluation over numpy arrays.  Floor and mod
follow ISL semantics (floor division, non-negative remainder for positive
moduli), which match Python's ``//`` and ``%``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Union

import numpy as np

from repro.errors import SpaceError

Number = int
ExprLike = Union["AffExpr", int]


def _as_expr(value: ExprLike) -> "AffExpr":
    if isinstance(value, AffExpr):
        return value
    if isinstance(value, (int, np.integer)):
        return AffExpr(const=int(value))
    raise TypeError(f"cannot interpret {value!r} as a quasi-affine expression")


@dataclass(frozen=True)
class FloorDiv:
    """``floor(expr / divisor)`` with a positive integer divisor."""

    expr: "AffExpr"
    divisor: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.expr.evaluate(env) // self.divisor

    def evaluate_vec(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.expr.evaluate_vec(env) // self.divisor

    def substitute(self, mapping: Mapping[str, "AffExpr"]) -> "FloorDiv":
        return FloorDiv(self.expr.substitute(mapping), self.divisor)

    def variables(self) -> frozenset[str]:
        return self.expr.variables()

    def bounds(self, env_bounds: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        lo, hi = self.expr.bounds(env_bounds)
        return lo // self.divisor, hi // self.divisor

    def __str__(self) -> str:
        return f"floor(({self.expr})/{self.divisor})"


@dataclass(frozen=True)
class Mod:
    """``expr mod modulus`` with a positive integer modulus."""

    expr: "AffExpr"
    modulus: int

    def evaluate(self, env: Mapping[str, int]) -> int:
        return self.expr.evaluate(env) % self.modulus

    def evaluate_vec(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return self.expr.evaluate_vec(env) % self.modulus

    def substitute(self, mapping: Mapping[str, "AffExpr"]) -> "Mod":
        return Mod(self.expr.substitute(mapping), self.modulus)

    def variables(self) -> frozenset[str]:
        return self.expr.variables()

    def bounds(self, env_bounds: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        lo, hi = self.expr.bounds(env_bounds)
        if hi - lo + 1 >= self.modulus:
            return 0, self.modulus - 1
        lo_mod, hi_mod = lo % self.modulus, hi % self.modulus
        if lo_mod <= hi_mod:
            return lo_mod, hi_mod
        return 0, self.modulus - 1

    def __str__(self) -> str:
        return f"(({self.expr}) mod {self.modulus})"


@dataclass(frozen=True)
class Abs:
    """``abs(expr)``; used by interconnect conditions such as mesh adjacency."""

    expr: "AffExpr"

    def evaluate(self, env: Mapping[str, int]) -> int:
        return abs(self.expr.evaluate(env))

    def evaluate_vec(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        return np.abs(self.expr.evaluate_vec(env))

    def substitute(self, mapping: Mapping[str, "AffExpr"]) -> "Abs":
        return Abs(self.expr.substitute(mapping))

    def variables(self) -> frozenset[str]:
        return self.expr.variables()

    def bounds(self, env_bounds: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        lo, hi = self.expr.bounds(env_bounds)
        if lo >= 0:
            return lo, hi
        if hi <= 0:
            return -hi, -lo
        return 0, max(-lo, hi)

    def __str__(self) -> str:
        return f"abs({self.expr})"


QuasiTerm = Union[FloorDiv, Mod, Abs]


class AffExpr:
    """An immutable quasi-affine expression over named integer variables."""

    __slots__ = ("terms", "const", "quasi", "_hash")

    def __init__(
        self,
        terms: Mapping[str, int] | None = None,
        const: int = 0,
        quasi: tuple[tuple[int, QuasiTerm], ...] = (),
    ):
        cleaned = {}
        if terms:
            for name, coeff in terms.items():
                coeff = int(coeff)
                if coeff != 0:
                    cleaned[str(name)] = coeff
        self.terms: dict[str, int] = cleaned
        self.const: int = int(const)
        self.quasi: tuple[tuple[int, QuasiTerm], ...] = tuple(
            (int(c), t) for c, t in quasi if int(c) != 0
        )
        self._hash: int | None = None

    # -- constructors --------------------------------------------------------

    @staticmethod
    def variable(name: str) -> "AffExpr":
        return AffExpr({name: 1})

    @staticmethod
    def constant(value: int) -> "AffExpr":
        return AffExpr(const=value)

    # -- structural queries ----------------------------------------------------

    def variables(self) -> frozenset[str]:
        names = set(self.terms)
        for _, term in self.quasi:
            names |= term.variables()
        return frozenset(names)

    @property
    def is_affine(self) -> bool:
        """True when the expression has no floor/mod/abs terms."""
        return not self.quasi

    @property
    def is_constant(self) -> bool:
        return not self.terms and not self.quasi

    def coefficient(self, name: str) -> int:
        return self.terms.get(name, 0)

    # -- arithmetic ------------------------------------------------------------

    def __add__(self, other: ExprLike) -> "AffExpr":
        other = _as_expr(other)
        terms = dict(self.terms)
        for name, coeff in other.terms.items():
            terms[name] = terms.get(name, 0) + coeff
        return AffExpr(terms, self.const + other.const, self.quasi + other.quasi)

    __radd__ = __add__

    def __neg__(self) -> "AffExpr":
        return AffExpr(
            {name: -c for name, c in self.terms.items()},
            -self.const,
            tuple((-c, t) for c, t in self.quasi),
        )

    def __sub__(self, other: ExprLike) -> "AffExpr":
        return self + (-_as_expr(other))

    def __rsub__(self, other: ExprLike) -> "AffExpr":
        return _as_expr(other) + (-self)

    def __mul__(self, factor: int) -> "AffExpr":
        if isinstance(factor, AffExpr):
            if factor.is_constant:
                factor = factor.const
            else:
                raise TypeError("quasi-affine expressions only support multiplication by integers")
        factor = int(factor)
        return AffExpr(
            {name: c * factor for name, c in self.terms.items()},
            self.const * factor,
            tuple((c * factor, t) for c, t in self.quasi),
        )

    __rmul__ = __mul__

    def __floordiv__(self, divisor: int) -> "AffExpr":
        divisor = int(divisor)
        if divisor <= 0:
            raise ValueError("floor division requires a positive integer divisor")
        if divisor == 1:
            return self
        if self.is_constant:
            return AffExpr(const=self.const // divisor)
        return AffExpr(quasi=((1, FloorDiv(self, divisor)),))

    def __mod__(self, modulus: int) -> "AffExpr":
        modulus = int(modulus)
        if modulus <= 0:
            raise ValueError("modulo requires a positive integer modulus")
        if modulus == 1:
            return AffExpr.constant(0)
        if self.is_constant:
            return AffExpr(const=self.const % modulus)
        return AffExpr(quasi=((1, Mod(self, modulus)),))

    def abs(self) -> "AffExpr":
        if self.is_constant:
            return AffExpr(const=abs(self.const))
        return AffExpr(quasi=((1, Abs(self)),))

    # -- evaluation --------------------------------------------------------------

    def evaluate(self, env: Mapping[str, int]) -> int:
        """Evaluate the expression with integer values for every variable."""
        total = self.const
        for name, coeff in self.terms.items():
            try:
                total += coeff * int(env[name])
            except KeyError as exc:
                raise SpaceError(f"no value provided for variable {name!r}") from exc
        for coeff, term in self.quasi:
            total += coeff * term.evaluate(env)
        return total

    def evaluate_vec(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """Evaluate the expression over numpy arrays (vectorised, int64)."""
        total: np.ndarray | int = self.const
        for name, coeff in self.terms.items():
            try:
                total = total + coeff * env[name]
            except KeyError as exc:
                raise SpaceError(f"no value provided for variable {name!r}") from exc
        for coeff, term in self.quasi:
            total = total + coeff * term.evaluate_vec(env)
        if np.isscalar(total):
            sizes = {v.shape for v in env.values() if hasattr(v, "shape")}
            shape = sizes.pop() if sizes else ()
            return np.full(shape, total, dtype=np.int64)
        return np.asarray(total, dtype=np.int64)

    def bounds(self, env_bounds: Mapping[str, tuple[int, int]]) -> tuple[int, int]:
        """Interval bounds of the expression given inclusive per-variable bounds.

        ``env_bounds`` maps each variable to an inclusive ``(lo, hi)`` range.
        The result is a conservative (but for the paper's dataflow expressions,
        usually tight) inclusive interval computed by interval arithmetic.
        """
        lo = hi = self.const
        for name, coeff in self.terms.items():
            try:
                vlo, vhi = env_bounds[name]
            except KeyError as exc:
                raise SpaceError(f"no bounds provided for variable {name!r}") from exc
            if coeff >= 0:
                lo += coeff * vlo
                hi += coeff * vhi
            else:
                lo += coeff * vhi
                hi += coeff * vlo
        for coeff, term in self.quasi:
            tlo, thi = term.bounds(env_bounds)
            if coeff >= 0:
                lo += coeff * tlo
                hi += coeff * thi
            else:
                lo += coeff * thi
                hi += coeff * tlo
        return lo, hi

    # -- substitution -------------------------------------------------------------

    def substitute(self, mapping: Mapping[str, "AffExpr"]) -> "AffExpr":
        """Replace variables by sub-expressions (used to compose relations)."""
        result = AffExpr(const=self.const)
        for name, coeff in self.terms.items():
            if name in mapping:
                result = result + _as_expr(mapping[name]) * coeff
            else:
                result = result + AffExpr({name: coeff})
        for coeff, term in self.quasi:
            result = result + AffExpr(quasi=((coeff, term.substitute(mapping)),))
        return result

    def rename(self, mapping: Mapping[str, str]) -> "AffExpr":
        """Rename variables (a cheap special case of :meth:`substitute`)."""
        return self.substitute({old: AffExpr.variable(new) for old, new in mapping.items()})

    # -- equality / hashing ----------------------------------------------------------

    def _key(self):
        return (
            tuple(sorted(self.terms.items())),
            self.const,
            tuple(sorted(((c, str(t)) for c, t in self.quasi))),
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AffExpr):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._key())
        return self._hash

    def __setattr__(self, name, value):
        if name in ("terms", "const", "quasi", "_hash") and not hasattr(self, "_hash"):
            object.__setattr__(self, name, value)
        elif name == "_hash":
            object.__setattr__(self, name, value)
        else:
            raise AttributeError("AffExpr is immutable")

    # -- formatting -----------------------------------------------------------------

    def __str__(self) -> str:
        parts: list[str] = []
        for name in sorted(self.terms):
            coeff = self.terms[name]
            if coeff == 1:
                parts.append(f"+ {name}")
            elif coeff == -1:
                parts.append(f"- {name}")
            elif coeff > 0:
                parts.append(f"+ {coeff}{name}")
            else:
                parts.append(f"- {-coeff}{name}")
        for coeff, term in self.quasi:
            if coeff == 1:
                parts.append(f"+ {term}")
            elif coeff == -1:
                parts.append(f"- {term}")
            elif coeff > 0:
                parts.append(f"+ {coeff}*{term}")
            else:
                parts.append(f"- {-coeff}*{term}")
        if self.const > 0 or not parts:
            parts.append(f"+ {self.const}")
        elif self.const < 0:
            parts.append(f"- {-self.const}")
        text = " ".join(parts)
        if text.startswith("+ "):
            text = text[2:]
        elif text.startswith("- "):
            text = "-" + text[2:]
        return text

    def __repr__(self) -> str:
        return f"AffExpr({self})"


@dataclass(frozen=True, eq=False)
class AxisSplit:
    """An expression over a box domain as a constant plus one function per axis.

    ``vectors[a][x - lo_a]`` is the part that depends on axis ``a`` at value
    ``x`` (``None`` for an axis the expression does not read), so the
    expression at a point is ``const`` plus one entry of every vector.
    Every combination of axis values occurs in a box, so ``low`` and
    ``high``, the sums of the per-axis extremes, are the expression's exact
    extremes over it.

    An expression that does not split can still stand beside split ones as
    its ``column``, its value at every point of the box in lexicographic
    order: ``const`` is then 0, every vector ``None``, and ``low`` and
    ``high`` are the column's extremes.
    """

    const: int
    vectors: tuple[np.ndarray | None, ...]
    low: int
    high: int
    column: np.ndarray | None = None


def split_axes(
    expr: AffExpr, dims: Sequence[str], axes: Sequence[np.ndarray]
) -> AxisSplit | None:
    """Split ``expr`` over the box whose dimension ``dims[a]`` takes the
    values ``axes[a]``.

    A linear term, and a floor/mod/abs term whose argument reads one loop
    variable (nested or not), depend on one axis each; their vectors are
    evaluated by :meth:`AffExpr.evaluate_vec` on that axis's values, so the
    sums equal ``evaluate_vec`` over the box exactly.  Returns ``None`` when
    a floor/mod/abs argument reads several variables (the term is no sum of
    per-axis functions), when the expression reads a variable outside
    ``dims``, or when its extremes leave int64.
    """
    index = {dim: axis for axis, dim in enumerate(dims)}
    vectors: list[np.ndarray | None] = [None] * len(dims)

    def add(name: str, values: np.ndarray) -> None:
        axis = index[name]
        vectors[axis] = values if vectors[axis] is None else vectors[axis] + values

    for name, coeff in expr.terms.items():
        if name not in index:
            return None
        add(name, coeff * axes[index[name]])
    for coeff, term in expr.quasi:
        names = term.variables()
        if len(names) != 1:
            return None
        (name,) = names
        if name not in index:
            return None
        add(name, coeff * term.evaluate_vec({name: axes[index[name]]}))
    low = high = expr.const
    for vector in vectors:
        if vector is not None:
            low += int(vector.min())
            high += int(vector.max())
    if low < -(1 << 63) or high >= 1 << 63:
        return None
    return AxisSplit(expr.const, tuple(vectors), low, high)


def combine_splits(
    splits: Sequence[AxisSplit], weights: Sequence[int], num_axes: int
) -> tuple[int, list[np.ndarray | None]]:
    """``sum(weights[e] * splits[e])`` as ``(low, vectors)``.

    ``low`` is ``sum(weights[e] * splits[e].low)``, the sum's minimum for
    non-negative weights, and each axis's vector is shifted to a minimum of
    0, so the sum at a point is ``low`` plus one entry of every vector.  No
    partial sum of those entries exceeds the sum's range, so int64 holds
    every step whenever it holds ``max - low``.  A split's ``column`` is
    left out: the caller adds ``weight * (column - low)`` at every point.
    """
    low = 0
    vectors: list[np.ndarray | None] = [None] * num_axes
    for split, weight in zip(splits, weights):
        low += weight * split.low
        for axis, vector in enumerate(split.vectors):
            if vector is not None:
                term = (vector - vector.min()) * weight
                vectors[axis] = term if vectors[axis] is None else vectors[axis] + term
    return low, vectors


def var(name: str) -> AffExpr:
    """Shorthand for :meth:`AffExpr.variable`."""
    return AffExpr.variable(name)


def const(value: int) -> AffExpr:
    """Shorthand for :meth:`AffExpr.constant`."""
    return AffExpr.constant(value)


def vars_(*names: str) -> tuple[AffExpr, ...]:
    """Create several variables at once: ``i, j, k = vars_("i", "j", "k")``."""
    return tuple(AffExpr.variable(name) for name in names)
