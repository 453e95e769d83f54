"""Interconnection relations between PEs (Definition 3).

Each topology states its links once, as the relation
``{ PE[p] -> PE[p'] : conditions }`` over a given PE array.  Everything else
reads that relation: :meth:`Interconnect.links` enumerates its (source,
destination) pairs, which give both the predecessor lists the reference
simulator forwards through (:mod:`repro.sim`) and the predecessor table the
performance model counts spatial reuse with
(:class:`repro.core.spacetime.SpacetimeMap`).

The paper models three topologies explicitly (Section IV-C)::

    2D-systolic : (i' = i, j' = j + 1) or (i' = i + 1, j' = j)
    Mesh        : abs(i' - i) <= 1 and abs(j' - j) <= 1
    1D-multicast: abs(i' - i) <= 3        (groups of 4 PEs share a wire)

plus a 1-D systolic variant and a reduction tree (MAERI) used in the
evaluation.  Systolic and mesh links move data one hop per cycle, so their
reuse *time interval* is 1; multicast links share a wire, so their reuse
happens in the same cycle (time interval 0) — see Section V-A.  The interval
is a class constant of each topology, not a constructor argument: it is part
of what the topology is.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from repro.errors import ArchitectureError
from repro.isl.constraint import Constraint
from repro.isl.expr import AffExpr, var
from repro.isl.imap import IntMap
from repro.isl.iset import IntSet
from repro.isl.union import UnionMap
from repro.arch.pe_array import PEArray

Coord = tuple[int, ...]
#: One array axis as its (source ``p_k``, destination ``p_k'``) variables.
Axis = tuple[AffExpr, AffExpr]


class Interconnect(ABC):
    """Base class for interconnect topologies."""

    #: Human-readable topology name (used by the catalog and reports).
    name: str = "abstract"

    #: Cycles a datum needs to traverse one link, fixed per topology.  Reuse
    #: through the link is possible between time-stamps ``t`` and ``t +
    #: time_interval``; multicast wires have interval 0 (same-cycle reuse).
    time_interval: ClassVar[int] = 1

    #: Energy-model hop distance of one link (relative units).
    hop_distance: int = 1

    @abstractmethod
    def relation(self, array: PEArray) -> UnionMap:
        """The interconnection relation for the given PE array."""

    # -- derived from the relation ---------------------------------------------

    def links(self, array: PEArray) -> tuple[np.ndarray, np.ndarray]:
        """Every link as ``(sources, destinations)`` row-major linear PE indices.

        The relation's pairs without self-pairs, each pair once even when
        several pieces hold it, sorted by destination and then source.
        """
        size, rank = array.size, array.rank
        keys = [np.zeros(0, dtype=np.int64)]
        for piece in self.relation(array).pieces:
            pairs = piece.pairs_array()
            sources = np.ravel_multi_index(tuple(pairs[:, :rank].T), array.dims)
            destinations = np.ravel_multi_index(tuple(pairs[:, rank:].T), array.dims)
            keys.append(destinations * size + sources)
        destinations, sources = np.divmod(np.unique(np.concatenate(keys)), size)
        kept = sources != destinations
        return sources[kept], destinations[kept]

    def predecessors(self, array: PEArray) -> dict[Coord, list[Coord]]:
        """For every PE, the PEs that can send data *to* it, in row-major order."""
        coords = list(array.coords())
        result: dict[Coord, list[Coord]] = {c: [] for c in coords}
        sources, destinations = self.links(array)
        for source, destination in zip(sources.tolist(), destinations.tolist()):
            result[coords[destination]].append(coords[source])
        return result

    def __str__(self) -> str:
        return self.name


def _axes(array: PEArray) -> list[Axis]:
    """The (source, destination) variables of every array axis, outermost first."""
    return [
        (var(dim), var(primed))
        for dim, primed in zip(array.space.dims, array.space.primed().dims)
    ]


def _same(axes: list[Axis]) -> list[Constraint]:
    """Source and destination agree on every one of ``axes``."""
    return [Constraint.eq(destination, source) for source, destination in axes]


def _relation(array: PEArray, *pieces: list[Constraint]) -> UnionMap:
    """``{ PE[p] -> PE[p'] : piece }`` for every constraint list, both sides
    restricted to the array's PEs."""
    in_space = array.space
    out_space = in_space.primed()
    range_ = IntSet.box(
        out_space, {dim: (0, extent) for dim, extent in zip(out_space.dims, array.dims)}
    )
    return UnionMap(
        IntMap(in_space, out_space, constraints=constraints,
               domain=array.domain(), range_=range_)
        for constraints in pieces
    )


@dataclass
class Systolic1D(Interconnect):
    """Unidirectional links along the innermost array dimension only."""

    name: str = "1d-systolic"
    time_interval: ClassVar[int] = 1

    def relation(self, array: PEArray) -> UnionMap:
        *outer, (source, destination) = _axes(array)
        return _relation(array, [Constraint.eq(destination, source + 1), *_same(outer)])


@dataclass
class Systolic2D(Interconnect):
    """TPU-style 2-D systolic links: right neighbour or down neighbour."""

    name: str = "2d-systolic"
    time_interval: ClassVar[int] = 1

    def relation(self, array: PEArray) -> UnionMap:
        if array.rank == 1:
            return Systolic1D().relation(array)
        *_, (i, oi), (j, oj) = _axes(array)
        right = [Constraint.eq(oi, i), Constraint.eq(oj, j + 1)]
        down = [Constraint.eq(oi, i + 1), Constraint.eq(oj, j)]
        return _relation(array, right, down)


@dataclass
class Mesh(Interconnect):
    """Mesh NoC: every PE talks to its (up to 8) surrounding neighbours."""

    name: str = "mesh"
    time_interval: ClassVar[int] = 1

    def relation(self, array: PEArray) -> UnionMap:
        return _relation(array, [
            Constraint.le((destination - source).abs(), 1)
            for source, destination in _axes(array)
        ])


@dataclass
class Multicast1D(Interconnect):
    """Multicast wires shared by groups of neighbouring PEs (same-cycle reuse)."""

    name: str = "multicast"
    time_interval: ClassVar[int] = 0
    reach: int = 3

    def relation(self, array: PEArray) -> UnionMap:
        *outer, (source, destination) = _axes(array)
        within_reach = Constraint.le((destination - source).abs(), self.reach)
        return _relation(array, [within_reach, *_same(outer)])


@dataclass
class Multicast2D(Interconnect):
    """Row and column broadcast wires (NVDLA-style operand distribution).

    A PE can receive, in the same cycle, data held by any PE in its row or in
    its column (within ``reach`` hops).  This is the strongest interconnect the
    non-skewed output-stationary dataflows rely on.
    """

    name: str = "2d-multicast"
    time_interval: ClassVar[int] = 0
    reach: int = 7

    def relation(self, array: PEArray) -> UnionMap:
        *outer, (source, destination) = _axes(array)
        row = [Constraint.le((destination - source).abs(), self.reach), *_same(outer)]
        column = [Constraint.eq(destination, source)] + [
            Constraint.le((d - s).abs(), self.reach) for s, d in outer
        ]
        return _relation(array, row, column)


@dataclass
class ReductionTree(Interconnect):
    """MAERI-style reduction tree over a 1-D array of multipliers.

    Leaves within the same reduction group share an adder-tree path, so data
    forwarded between them is modeled as same-cycle multicast reuse within the
    group (the paper treats MAERI's multipliers as PEs connected via multicast
    interconnection, Section VI-E).
    """

    name: str = "reduction-tree"
    time_interval: ClassVar[int] = 0
    group_size: int = 8

    def __post_init__(self):
        if self.group_size <= 1:
            raise ArchitectureError("reduction-tree group size must exceed 1")

    def relation(self, array: PEArray) -> UnionMap:
        *outer, (source, destination) = _axes(array)
        same_group = Constraint.eq(destination // self.group_size, source // self.group_size)
        return _relation(array, [same_group, *_same(outer)])


@dataclass
class NoInterconnect(Interconnect):
    """No PE-to-PE links: every operand must come from the scratchpad."""

    name: str = "none"
    time_interval: ClassVar[int] = 1

    def relation(self, array: PEArray) -> UnionMap:
        # An unsatisfiable constraint: the empty relation.
        (source, _), *_ = _axes(array)
        return _relation(array, [Constraint.eq(source, source + 1)])


_TOPOLOGIES: dict[str, type[Interconnect]] = {
    "1d-systolic": Systolic1D,
    "2d-systolic": Systolic2D,
    "systolic": Systolic2D,
    "mesh": Mesh,
    "multicast": Multicast1D,
    "1d-multicast": Multicast1D,
    "2d-multicast": Multicast2D,
    "reduction-tree": ReductionTree,
    "none": NoInterconnect,
}


def make_interconnect(name: str, **kwargs) -> Interconnect:
    """Build an interconnect by name (``"2d-systolic"``, ``"mesh"``, ...)."""
    key = name.lower().replace("_", "-")
    if key not in _TOPOLOGIES:
        raise ArchitectureError(
            f"unknown interconnect {name!r}; available: {sorted(set(_TOPOLOGIES))}"
        )
    return _TOPOLOGIES[key](**kwargs)
