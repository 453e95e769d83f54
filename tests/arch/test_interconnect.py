"""Unit tests for interconnect topologies and their relations.

Each topology writes its links once, as its Definition 3 ``relation()``;
``predecessors()`` and the predecessor table are derived from that relation.
``connected`` below is the tests' own adjacency oracle: every topology's
links restated as a plain coordinate predicate, independently of the
relation, and checked against what the relation yields.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch import (
    Mesh,
    Multicast1D,
    Multicast2D,
    NoInterconnect,
    PEArray,
    ReductionTree,
    Systolic1D,
    Systolic2D,
    make_interconnect,
)
from repro.arch.interconnect import _TOPOLOGIES
from repro.core.spacetime import SpacetimeMap
from repro.errors import ArchitectureError


# -- the adjacency oracle ------------------------------------------------------------


def _pad(coords, rank=2):
    """Treat 1-D coordinates as (row 0, column) when a 2-D view is needed."""
    coords = tuple(coords)
    return (0,) * (rank - len(coords)) + coords


def _systolic_1d(topology, src, dst):
    return src[:-1] == dst[:-1] and dst[-1] == src[-1] + 1


def _systolic_2d(topology, src, dst):
    si, sj = src[-2:]
    di, dj = dst[-2:]
    return (di == si and dj == sj + 1) or (di == si + 1 and dj == sj)


def _mesh(topology, src, dst):
    return all(abs(d - s) <= 1 for s, d in zip(src, dst))


def _multicast_1d(topology, src, dst):
    return src[:-1] == dst[:-1] and abs(dst[-1] - src[-1]) <= topology.reach


def _multicast_2d(topology, src, dst):
    same_row = src[:-1] == dst[:-1] and abs(dst[-1] - src[-1]) <= topology.reach
    same_col = src[-1] == dst[-1] and all(
        abs(a - b) <= topology.reach for a, b in zip(src[:-1], dst[:-1])
    )
    return same_row or same_col


def _reduction_tree(topology, src, dst):
    return (
        src[:-1] == dst[:-1]
        and src[-1] // topology.group_size == dst[-1] // topology.group_size
    )


def _no_links(topology, src, dst):
    return False


_ORACLE = {
    Systolic1D: _systolic_1d,
    Systolic2D: _systolic_2d,
    Mesh: _mesh,
    Multicast1D: _multicast_1d,
    Multicast2D: _multicast_2d,
    ReductionTree: _reduction_tree,
    NoInterconnect: _no_links,
}


def connected(topology, src, dst):
    """The oracle: True when PE ``src`` can forward data to PE ``dst`` (src != dst)."""
    return src != dst and _ORACLE[type(topology)](topology, _pad(src), _pad(dst))


def oracle_predecessors(topology, array):
    coords = list(array.coords())
    return {dst: [src for src in coords if connected(topology, src, dst)] for dst in coords}


def oracle_table(topology, array):
    """The predecessor table the oracle implies: linear indices, ``-1`` padded."""
    rows = [
        [array.linear_index(src) for src in sources]
        for sources in oracle_predecessors(topology, array).values()
    ]
    table = np.full((array.size, max(1, *map(len, rows))), -1, dtype=np.int64)
    for row, sources in enumerate(rows):
        table[row, : len(sources)] = sources
    return table


def average_degree(topology, array):
    predecessors = topology.predecessors(array)
    return sum(map(len, predecessors.values())) / len(predecessors)


# -- topologies ----------------------------------------------------------------------


class TestSystolic:
    def test_2d_systolic_connectivity(self):
        relation = Systolic2D().relation(PEArray((3, 3)))
        assert relation.contains((1, 1), (1, 2))
        assert relation.contains((1, 1), (2, 1))
        assert not relation.contains((1, 1), (2, 2))
        assert not relation.contains((1, 1), (0, 1))

    def test_1d_systolic_only_moves_right(self):
        relation = Systolic1D().relation(PEArray((2, 2)))
        assert relation.contains((0, 0), (0, 1))
        assert not relation.contains((0, 0), (1, 0))
        assert not relation.contains((0, 1), (0, 0))

    def test_predecessors_on_boundary(self):
        array = PEArray((2, 2))
        predecessors = Systolic2D().predecessors(array)
        assert predecessors[(0, 0)] == []
        assert sorted(predecessors[(1, 1)]) == [(0, 1), (1, 0)]

    def test_relation_pieces(self):
        relation = Systolic2D().relation(PEArray((2, 2)))
        assert relation.contains((0, 0), (0, 1))
        assert not relation.contains((0, 0), (1, 1))

    def test_time_interval_is_one(self):
        assert Systolic2D().time_interval == 1


class TestMesh:
    def test_eight_neighbourhood(self):
        relation = Mesh().relation(PEArray((4, 4)))
        assert relation.contains((1, 1), (2, 2))
        assert relation.contains((1, 1), (0, 1))
        assert not relation.contains((1, 1), (3, 1))

    def test_degree_of_interior_pe(self):
        predecessors = Mesh().predecessors(PEArray((3, 3)))
        assert len(predecessors[(1, 1)]) == 8
        assert len(predecessors[(0, 0)]) == 3


class TestMulticastAndTree:
    def test_multicast_same_cycle(self):
        topology = Multicast1D(reach=3)
        assert topology.time_interval == 0
        relation = topology.relation(PEArray((8,)))
        assert relation.contains((0,), (3,))
        assert not relation.contains((0,), (4,))

    def test_multicast_row_restricted(self):
        relation = Multicast1D(reach=3).relation(PEArray((2, 2)))
        assert not relation.contains((0, 0), (1, 1))

    def test_reduction_tree_groups(self):
        relation = ReductionTree(group_size=4).relation(PEArray((8,)))
        assert relation.contains((1,), (3,))
        assert not relation.contains((3,), (4,))

    def test_reduction_tree_invalid_group(self):
        with pytest.raises(ArchitectureError):
            ReductionTree(group_size=1)

    def test_no_interconnect(self):
        topology = NoInterconnect()
        array = PEArray((2, 2))
        assert not topology.relation(array).contains((0, 0), (0, 1))
        assert (SpacetimeMap(array, topology).predecessor_table() == -1).all()


class TestFactory:
    @pytest.mark.parametrize("name,expected", [
        ("2d-systolic", Systolic2D),
        ("1d-systolic", Systolic1D),
        ("mesh", Mesh),
        ("multicast", Multicast1D),
        ("reduction-tree", ReductionTree),
        ("none", NoInterconnect),
    ])
    def test_make_interconnect(self, name, expected):
        assert isinstance(make_interconnect(name), expected)

    def test_unknown_topology(self):
        with pytest.raises(ArchitectureError):
            make_interconnect("hypercube")

    @pytest.mark.parametrize("topology, interval", [
        (Systolic1D, 1), (Systolic2D, 1), (Mesh, 1), (NoInterconnect, 1),
        (Multicast1D, 0), (Multicast2D, 0), (ReductionTree, 0),
    ])
    def test_time_interval_is_a_class_constant(self, topology, interval):
        # The interval is part of what a topology is: no constructor or
        # factory argument changes it.
        assert topology.time_interval == interval
        with pytest.raises(TypeError):
            topology(time_interval=1 - interval)
        with pytest.raises(TypeError):
            make_interconnect(topology().name, time_interval=1 - interval)

    def test_degree_ordering(self):
        array = PEArray((4, 4))
        assert (
            average_degree(Mesh(), array)
            > average_degree(Systolic2D(), array)
            > average_degree(Systolic1D(), array)
        )


class TestPredicateMatchesRelation:
    """The links derived from ``relation()`` (the Definition 3 notation that
    feeds the simulator and the volume kernels' predecessor table) are the
    oracle's, pair for pair and in ascending source order."""

    @pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
    @pytest.mark.parametrize("dims", [(4, 4), (3, 5), (8,), (2, 8)])
    def test_every_pair_agrees(self, name, dims):
        topology = make_interconnect(name)
        array = PEArray(dims)
        assert topology.predecessors(array) == oracle_predecessors(topology, array)

    @settings(max_examples=60, deadline=None)
    @given(
        dims=st.lists(st.integers(1, 9), min_size=1, max_size=2).map(tuple),
        topology=st.one_of(
            st.sampled_from([Systolic1D(), Systolic2D(), Mesh(), NoInterconnect()]),
            st.builds(Multicast1D, reach=st.integers(1, 7)),
            st.builds(Multicast2D, reach=st.integers(1, 7)),
            st.builds(ReductionTree, group_size=st.integers(2, 8)),
        ),
    )
    def test_links_match_the_oracle_on_any_array(self, dims, topology):
        array = PEArray(dims)
        assert topology.predecessors(array) == oracle_predecessors(topology, array)
        table = SpacetimeMap(array, topology)._build_predecessor_table()
        expected = oracle_table(topology, array)
        assert table.dtype == expected.dtype
        np.testing.assert_array_equal(table, expected)
