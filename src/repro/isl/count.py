"""Exact cardinality counting (the Barvinok substitute).

Counting proceeds in two steps:

1. **Factoring.**  Dimensions that never appear together in a multi-variable
   constraint are independent, so the set factors into a product of lower
   dimensional sets.  Each connected component of the "appears in the same
   constraint" graph is counted separately and the results are multiplied.
   Dimensions that only appear in single-variable (box) constraints contribute
   their extent directly.
2. **Enumeration.**  Each component is counted by enumerating its bounding box
   in chunks and applying the component's constraints as vectorised
   predicates.

For the bounded quasi-affine sets used by the paper's dataflows this yields the
same exact counts Barvinok would produce symbolically.
"""

from __future__ import annotations

from typing import Sequence

from repro.isl.constraint import Constraint
from repro.isl.enumeration import chunk_length, filter_chunk, iter_box_chunks
from repro.isl.iset import IntSet


def _connected_components(dims: Sequence[str], constraints: Sequence[Constraint]) -> list[set[str]]:
    """Group dimensions that are linked by multi-variable constraints."""
    parent = {dim: dim for dim in dims}

    def find(node: str) -> str:
        while parent[node] != node:
            parent[node] = parent[parent[node]]
            node = parent[node]
        return node

    def union(a: str, b: str) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for constraint in constraints:
        names = [n for n in constraint.variables() if n in parent]
        for first, second in zip(names, names[1:]):
            union(first, second)

    groups: dict[str, set[str]] = {}
    for dim in dims:
        groups.setdefault(find(dim), set()).add(dim)
    return list(groups.values())


def count_points(iset: IntSet, chunk_size: int = 1 << 20) -> int:
    """Exact number of integer points in ``iset``."""
    bounds = iset.derived_bounds()
    for constraint in iset.constraints:
        if constraint.is_trivially_false:
            return 0

    components = _connected_components(iset.space.dims, iset.constraints)
    total = 1
    for component in components:
        member_dims = [dim for dim in iset.space.dims if dim in component]
        member_constraints = [
            c for c in iset.constraints if c.variables() & component
        ]
        if not member_constraints or all(len(c.variables()) <= 1 for c in member_constraints):
            count = _count_box_with_unary(member_dims, bounds, member_constraints, chunk_size)
        else:
            count = _count_by_enumeration(member_dims, bounds, member_constraints, chunk_size)
        if count == 0:
            return 0
        total *= count
    return total


def _count_box_with_unary(
    dims: Sequence[str],
    bounds,
    constraints: Sequence[Constraint],
    chunk_size: int,
) -> int:
    """Count a component whose constraints each involve at most one variable.

    Affine single-variable constraints are already folded into the derived
    bounds; quasi-affine unary constraints (e.g. ``i mod 2 = 0``) still need
    per-dimension filtering, which stays cheap because each dimension is
    handled independently.
    """
    total = 1
    for dim in dims:
        lo, hi = bounds[dim]
        extent = max(0, hi - lo)
        unary = [
            c for c in constraints
            if c.variables() == {dim} and not c.expr.is_affine
        ]
        if unary:
            count = 0
            for chunk in iter_box_chunks({dim: (lo, hi)}, [dim], chunk_size):
                count += chunk_length(filter_chunk(chunk, unary))
            total *= count
        else:
            total *= extent
    return total


def _count_by_enumeration(
    dims: Sequence[str],
    bounds,
    constraints: Sequence[Constraint],
    chunk_size: int,
) -> int:
    component_bounds = {dim: bounds[dim] for dim in dims}
    count = 0
    for chunk in iter_box_chunks(component_bounds, dims, chunk_size):
        count += chunk_length(filter_chunk(chunk, constraints))
    return count
