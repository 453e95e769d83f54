"""Unit tests for interconnect topologies and their relations."""

import pytest

from repro.arch import (
    Mesh,
    Multicast1D,
    NoInterconnect,
    PEArray,
    ReductionTree,
    Systolic1D,
    Systolic2D,
    make_interconnect,
)
from repro.arch.interconnect import _TOPOLOGIES
from repro.errors import ArchitectureError


class TestSystolic:
    def test_2d_systolic_connectivity(self):
        topology = Systolic2D()
        assert topology.connected((1, 1), (1, 2))
        assert topology.connected((1, 1), (2, 1))
        assert not topology.connected((1, 1), (2, 2))
        assert not topology.connected((1, 1), (0, 1))

    def test_1d_systolic_only_moves_right(self):
        topology = Systolic1D()
        assert topology.connected((0, 0), (0, 1))
        assert not topology.connected((0, 0), (1, 0))
        assert not topology.connected((0, 1), (0, 0))

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
        topology = Mesh()
        assert topology.connected((1, 1), (2, 2))
        assert topology.connected((1, 1), (0, 1))
        assert not topology.connected((1, 1), (3, 1))

    def test_degree_of_interior_pe(self):
        predecessors = Mesh().predecessors(PEArray((3, 3)))
        assert len(predecessors[(1, 1)]) == 8
        assert len(predecessors[(0, 0)]) == 3


class TestMulticastAndTree:
    def test_multicast_same_cycle(self):
        topology = Multicast1D(reach=3)
        assert topology.time_interval == 0
        assert topology.connected((0,), (3,))
        assert not topology.connected((0,), (4,))

    def test_multicast_row_restricted(self):
        topology = Multicast1D(reach=3)
        assert not topology.connected((0, 0), (1, 1))

    def test_reduction_tree_groups(self):
        topology = ReductionTree(group_size=4)
        assert topology.connected((1,), (3,))
        assert not topology.connected((3,), (4,))

    def test_reduction_tree_invalid_group(self):
        with pytest.raises(ArchitectureError):
            ReductionTree(group_size=1)

    def test_no_interconnect(self):
        topology = NoInterconnect()
        assert not topology.connected((0, 0), (0, 1))
        assert topology.degree(PEArray((2, 2))) == 0.0


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

    def test_degree_ordering(self):
        array = PEArray((4, 4))
        assert Mesh().degree(array) > Systolic2D().degree(array) > Systolic1D().degree(array)


class TestPredicateMatchesRelation:
    """``connected()`` feeds the volume kernels' predecessor table and
    ``relation()`` is the Definition 3 notation; they must state the same
    links."""

    @pytest.mark.parametrize("name", sorted(_TOPOLOGIES))
    @pytest.mark.parametrize("dims", [(4, 4), (3, 5), (8,), (2, 8)])
    def test_every_pair_agrees(self, name, dims):
        topology = make_interconnect(name)
        array = PEArray(dims)
        relation = topology.relation(array)
        coords = list(array.coords())
        disagreements = [
            (src, dst)
            for src in coords
            for dst in coords
            if src != dst and relation.contains(src, dst) != topology.connected(src, dst)
        ]
        assert disagreements == []
