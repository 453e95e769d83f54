"""Integer sets: conjunctions of quasi-affine constraints over a named space."""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import SpaceError, UnboundedSetError
from repro.isl.constraint import EQ, Constraint
from repro.isl.enumeration import (
    DEFAULT_CHUNK,
    chunk_length,
    chunk_to_array,
    filter_chunk,
    iter_box_chunks,
)
from repro.isl.expr import AffExpr
from repro.isl.point import Point, env_from
from repro.isl.space import Space


def _box_enforced(constraint: Constraint) -> bool:
    """Whether the box of :meth:`IntSet.derived_bounds` alone enforces the
    constraint: an affine constraint over one variable, except an equality
    whose constant its coefficient does not divide (that set is empty, and
    only the constraint itself says so)."""
    expr = constraint.expr
    if not expr.is_affine or len(expr.terms) != 1:
        return False
    (coeff,) = expr.terms.values()
    return constraint.kind != EQ or expr.const % coeff == 0


class IntSet:
    """A finite set of integer points described by quasi-affine constraints.

    A set is a conjunction of constraints over the dimensions of its
    :class:`~repro.isl.space.Space`.  Explicit box bounds can be supplied to
    make enumeration cheap; otherwise bounds are derived from single-variable
    affine constraints.
    """

    __slots__ = ("space", "constraints", "_explicit_bounds")

    def __init__(
        self,
        space: Space,
        constraints: Iterable[Constraint] = (),
        bounds: Mapping[str, tuple[int, int]] | None = None,
    ):
        self.space = space
        constraint_list = []
        for constraint in constraints:
            unknown = constraint.variables() - set(space.dims)
            if unknown:
                raise SpaceError(
                    f"constraint '{constraint}' uses variables {sorted(unknown)} "
                    f"outside space {space}"
                )
            if not constraint.is_trivially_true:
                constraint_list.append(constraint)
        self.constraints: tuple[Constraint, ...] = tuple(constraint_list)
        self._explicit_bounds = dict(bounds) if bounds else {}

    # -- constructors --------------------------------------------------------

    @classmethod
    def box(cls, space: Space, bounds: Mapping[str, tuple[int, int]]) -> "IntSet":
        """A rectangular set: ``lo <= dim < hi`` for every dimension."""
        constraints = []
        for dim in space.dims:
            if dim not in bounds:
                raise SpaceError(f"no bounds supplied for dimension {dim!r} of {space}")
            lo, hi = bounds[dim]
            constraints.append(Constraint.ge(AffExpr.variable(dim), lo))
            constraints.append(Constraint.lt(AffExpr.variable(dim), hi))
        return cls(space, constraints, bounds=bounds)

    @classmethod
    def from_sizes(cls, name: str, dims: Sequence[str], sizes: Sequence[int]) -> "IntSet":
        """A box ``0 <= dim < size`` for each (dim, size) pair."""
        if len(dims) != len(sizes):
            raise SpaceError("dims and sizes must have the same length")
        space = Space(name, dims)
        return cls.box(space, {d: (0, int(s)) for d, s in zip(dims, sizes)})

    # -- derived sets ----------------------------------------------------------

    def add_constraints(self, constraints: Iterable[Constraint]) -> "IntSet":
        return IntSet(self.space, self.constraints + tuple(constraints), self._explicit_bounds)

    def intersect(self, other: "IntSet") -> "IntSet":
        if other.space.name != self.space.name or other.space.dims != self.space.dims:
            raise SpaceError(f"cannot intersect sets in different spaces: {self.space} vs {other.space}")
        merged_bounds = dict(self._explicit_bounds)
        for dim, (lo, hi) in other._explicit_bounds.items():
            if dim in merged_bounds:
                olo, ohi = merged_bounds[dim]
                merged_bounds[dim] = (max(lo, olo), min(hi, ohi))
            else:
                merged_bounds[dim] = (lo, hi)
        return IntSet(self.space, self.constraints + other.constraints, merged_bounds)

    def fix_dim(self, dim: str, value: int) -> "IntSet":
        """Restrict one dimension to a constant value."""
        return self.add_constraints([Constraint.eq(AffExpr.variable(dim), value)])

    # -- bounds ------------------------------------------------------------------

    def derived_bounds(self) -> dict[str, tuple[int, int]]:
        """Box bounds per dimension, combining explicit and derived bounds.

        Bounds are derived from constraints whose expression involves a single
        variable and no floor/mod/abs terms (see :func:`_box_enforced`).  Raises
        :class:`~repro.errors.UnboundedSetError` if any dimension remains
        unbounded on either side.
        """
        lows: dict[str, int] = {}
        highs: dict[str, int] = {}
        for dim, (lo, hi) in self._explicit_bounds.items():
            lows[dim] = lo
            highs[dim] = hi - 1
        for constraint in self.constraints:
            if not _box_enforced(constraint):
                continue
            expr = constraint.expr
            (name, coeff), = expr.terms.items()
            if constraint.kind == EQ:
                value = -expr.const // coeff
                lows[name] = max(lows.get(name, value), value)
                highs[name] = min(highs.get(name, value), value)
            elif coeff > 0:  # name >= ceil(-const / coeff)
                bound = -(expr.const // coeff)
                lows[name] = max(lows.get(name, bound), bound)
            else:  # name <= floor(const / -coeff)
                bound = expr.const // -coeff
                highs[name] = min(highs.get(name, bound), bound)
        bounds: dict[str, tuple[int, int]] = {}
        for dim in self.space.dims:
            if dim not in lows or dim not in highs:
                raise UnboundedSetError(
                    f"dimension {dim!r} of {self.space} has no finite bounds; "
                    "add explicit bounds or bounding constraints"
                )
            bounds[dim] = (lows[dim], highs[dim] + 1)
        return bounds

    @property
    def is_box(self) -> bool:
        """Whether the set is the whole box of :meth:`derived_bounds` (no
        constraint filters its points)."""
        return all(_box_enforced(constraint) for constraint in self.constraints)

    def dim_extent(self, dim: str) -> tuple[int, int]:
        """Half-open bound of one dimension."""
        return self.derived_bounds()[dim]

    # -- membership ----------------------------------------------------------------

    def contains(self, coords: Sequence[int] | Point | Mapping[str, int]) -> bool:
        if isinstance(coords, Point):
            env = coords.env()
        elif isinstance(coords, Mapping):
            env = {dim: int(coords[dim]) for dim in self.space.dims}
        else:
            env = env_from(self.space, coords)
        for dim, (lo, hi) in self._explicit_bounds.items():
            if not lo <= env[dim] < hi:
                return False
        return all(constraint.satisfied(env) for constraint in self.constraints)

    def contains_vec(self, env: Mapping[str, np.ndarray]) -> np.ndarray:
        """Vectorised membership test for a chunk of candidate points."""
        mask: np.ndarray | None = None
        for dim, (lo, hi) in self._explicit_bounds.items():
            ok = (env[dim] >= lo) & (env[dim] < hi)
            mask = ok if mask is None else mask & ok
        for constraint in self.constraints:
            ok = constraint.satisfied_vec(env)
            mask = ok if mask is None else mask & ok
        if mask is None:
            length = chunk_length({dim: env[dim] for dim in self.space.dims})
            return np.ones(length, dtype=bool)
        return mask

    # -- enumeration ------------------------------------------------------------------

    def chunks(self, chunk_size: int = DEFAULT_CHUNK) -> Iterator[dict[str, np.ndarray]]:
        """Yield the set's points as chunks of per-dimension arrays.

        The box of :meth:`derived_bounds` already enforces the single-variable
        constraints, so only the others filter its points.
        """
        bounds = self.derived_bounds()
        residual = [c for c in self.constraints if not _box_enforced(c)]
        for chunk in iter_box_chunks(bounds, self.space.dims, chunk_size):
            filtered = filter_chunk(chunk, residual)
            if chunk_length(filtered):
                yield filtered

    def points_array(self, chunk_size: int = DEFAULT_CHUNK) -> np.ndarray:
        """All points as an ``(N, rank)`` array (use only for modest sets)."""
        parts = [chunk_to_array(chunk, self.space.dims) for chunk in self.chunks(chunk_size)]
        if not parts:
            return np.zeros((0, self.space.rank), dtype=np.int64)
        return np.concatenate(parts, axis=0)

    def points(self) -> Iterator[Point]:
        """Iterate points one by one (convenience for tests and small sets)."""
        for chunk in self.chunks():
            array = chunk_to_array(chunk, self.space.dims)
            for row in array:
                yield Point(self.space, tuple(int(v) for v in row))

    def count(self) -> int:
        """Exact cardinality (delegates to :mod:`repro.isl.count`)."""
        from repro.isl.count import count_points

        return count_points(self)

    def is_empty(self) -> bool:
        for chunk in self.chunks():
            if chunk_length(chunk):
                return False
        return True

    def box_size(self) -> int:
        """Number of candidate points in the bounding box (an upper bound)."""
        bounds = self.derived_bounds()
        total = 1
        for dim in self.space.dims:
            lo, hi = bounds[dim]
            total *= max(0, hi - lo)
        return total

    # -- formatting --------------------------------------------------------------------

    def __str__(self) -> str:
        condition = " and ".join(str(c) for c in self.constraints)
        if condition:
            return f"{{ {self.space} : {condition} }}"
        return f"{{ {self.space} }}"

    def __repr__(self) -> str:
        return f"IntSet({self})"
