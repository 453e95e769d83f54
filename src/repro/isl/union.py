"""Unions of sets and maps.

ISL distinguishes *basic* sets/maps (single conjunctions) from unions of them.
The same split is used here: :class:`IntSet` / :class:`IntMap` are single
conjunctions, and :class:`UnionSet` / :class:`UnionMap` hold several pieces —
for example, a disjunctive interconnect condition (2D systolic: "right
neighbour or down neighbour") or a statement accessing the same tensor through
several references (Jacobi-2D reads ``A`` five times).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.errors import SpaceError
from repro.isl.imap import IntMap
from repro.isl.iset import IntSet


class UnionSet:
    """A union of :class:`IntSet` pieces living in the same space."""

    def __init__(self, pieces: Iterable[IntSet] = ()):
        self.pieces: list[IntSet] = list(pieces)
        if self.pieces:
            first = self.pieces[0].space
            for piece in self.pieces[1:]:
                if piece.space.dims != first.dims or piece.space.name != first.name:
                    raise SpaceError("all pieces of a UnionSet must share one space")

    @property
    def space(self):
        if not self.pieces:
            raise SpaceError("empty UnionSet has no space")
        return self.pieces[0].space

    def add(self, piece: IntSet) -> "UnionSet":
        return UnionSet(self.pieces + [piece])

    def contains(self, coords) -> bool:
        return any(piece.contains(coords) for piece in self.pieces)

    def contains_vec(self, env) -> np.ndarray:
        mask = None
        for piece in self.pieces:
            ok = piece.contains_vec(env)
            mask = ok if mask is None else mask | ok
        if mask is None:
            raise SpaceError("empty UnionSet cannot test membership")
        return mask

    def count(self) -> int:
        """Cardinality of the union (pieces may overlap; duplicates removed)."""
        if len(self.pieces) == 1:
            return self.pieces[0].count()
        seen: set[tuple[int, ...]] = set()
        for piece in self.pieces:
            for point in piece.points():
                seen.add(point.coords)
        return len(seen)

    def __iter__(self) -> Iterator[IntSet]:
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def __str__(self) -> str:
        return " ∪ ".join(str(piece) for piece in self.pieces) if self.pieces else "{ }"


class UnionMap:
    """A union of :class:`IntMap` pieces sharing input and output spaces."""

    def __init__(self, pieces: Iterable[IntMap] = ()):
        self.pieces: list[IntMap] = list(pieces)

    @property
    def in_space(self):
        if not self.pieces:
            raise SpaceError("empty UnionMap has no input space")
        return self.pieces[0].in_space

    @property
    def out_space(self):
        if not self.pieces:
            raise SpaceError("empty UnionMap has no output space")
        return self.pieces[0].out_space

    def add(self, piece: IntMap) -> "UnionMap":
        return UnionMap(self.pieces + [piece])

    @property
    def is_functional_union(self) -> bool:
        """True when every piece is functional (a multi-valued access function)."""
        return bool(self.pieces) and all(piece.is_functional for piece in self.pieces)

    def contains(self, in_coords: Sequence[int], out_coords: Sequence[int]) -> bool:
        return any(piece.contains(in_coords, out_coords) for piece in self.pieces)

    def contains_pairs_vec(self, env) -> np.ndarray:
        mask = None
        for piece in self.pieces:
            ok = piece.contains_pairs_vec(env)
            mask = ok if mask is None else mask | ok
        if mask is None:
            raise SpaceError("empty UnionMap cannot test membership")
        return mask

    def compose(self, other: "IntMap | UnionMap") -> "UnionMap":
        """Compose every piece with ``other`` (or with each of its pieces)."""
        other_pieces = other.pieces if isinstance(other, UnionMap) else [other]
        composed = [
            mine.compose(theirs) for mine in self.pieces for theirs in other_pieces
        ]
        return UnionMap(composed)

    def reverse(self) -> "UnionMap":
        return UnionMap([piece.reverse() for piece in self.pieces])

    def intersect_domain(self, domain: IntSet) -> "UnionMap":
        return UnionMap([piece.intersect_domain(domain) for piece in self.pieces])

    def count_pairs(self) -> int:
        """Cardinality of the union of all pieces' pair sets (duplicates removed)."""
        if len(self.pieces) == 1:
            return self.pieces[0].count_pairs()
        seen: set[tuple[int, ...]] = set()
        for piece in self.pieces:
            array = piece.pairs_array()
            for row in array:
                seen.add(tuple(int(v) for v in row))
        return len(seen)

    def __iter__(self) -> Iterator[IntMap]:
        return iter(self.pieces)

    def __len__(self) -> int:
        return len(self.pieces)

    def __str__(self) -> str:
        return " ∪ ".join(str(piece) for piece in self.pieces) if self.pieces else "{ }"


def as_union_map(value: IntMap | UnionMap) -> UnionMap:
    """Wrap a single map into a union (no-op for unions)."""
    if isinstance(value, UnionMap):
        return value
    return UnionMap([value])


def as_union_set(value: IntSet | UnionSet) -> UnionSet:
    """Wrap a single set into a union (no-op for unions)."""
    if isinstance(value, UnionSet):
        return value
    return UnionSet([value])
