"""Unit tests for integer sets, enumeration and counting."""

import numpy as np
import pytest

from repro.errors import SpaceError, UnboundedSetError
from repro.isl import IntSet, Space, box_set, parse_set
from repro.isl.constraint import Constraint
from repro.isl.count import count_points
from repro.isl.expr import var


class TestConstruction:
    def test_box_counts(self):
        s = IntSet.from_sizes("S", ["i", "j"], [4, 3])
        assert s.count() == 12

    def test_box_set_builder_with_sizes(self):
        s = box_set("PE", {"i": 8, "j": 8})
        assert s.count() == 64

    def test_box_set_builder_with_ranges(self):
        s = box_set("S", {"i": (2, 5), "j": (0, 2)})
        assert s.count() == 6

    def test_constraint_outside_space_rejected(self):
        with pytest.raises(SpaceError):
            IntSet(Space("S", ["i"]), [Constraint.ge(var("j"), 0)])

    def test_unbounded_enumeration_raises(self):
        s = IntSet(Space("S", ["i"]), [Constraint.ge(var("i"), 0)])
        with pytest.raises(UnboundedSetError):
            s.count()


class TestMembership:
    def test_contains_tuple_and_mapping(self):
        s = parse_set("{ S[i, j] : 0 <= i < 4 and 0 <= j < 3 and i >= j }")
        assert s.contains((2, 1))
        assert not s.contains((1, 2))
        assert s.contains({"i": 3, "j": 0})

    def test_contains_vec(self):
        s = parse_set("{ S[i, j] : 0 <= i < 4 and 0 <= j < 3 and i >= j }")
        env = {"i": np.array([2, 1, 3]), "j": np.array([1, 2, 5])}
        assert s.contains_vec(env).tolist() == [True, False, False]


class TestConstraints:
    def test_triangle_count(self):
        s = parse_set("{ S[i, j] : 0 <= i < 4 and 0 <= j < 4 and j <= i }")
        assert s.count() == 10

    def test_diagonal_equality(self):
        s = parse_set("{ S[i, j] : 0 <= i < 5 and 0 <= j < 5 and i = j }")
        assert s.count() == 5

    def test_modulus_constraint(self):
        s = parse_set("{ S[i] : 0 <= i < 10 and i mod 2 = 0 }")
        assert s.count() == 5

    def test_fix_dim(self):
        s = IntSet.from_sizes("S", ["i", "j"], [4, 4]).fix_dim("i", 2)
        assert s.count() == 4
        assert all(point.value("i") == 2 for point in s.points())

    def test_intersect(self):
        a = parse_set("{ S[i] : 0 <= i < 10 }")
        b = parse_set("{ S[i] : 5 <= i < 20 }")
        assert a.intersect(b).count() == 5

    def test_intersect_space_mismatch(self):
        a = parse_set("{ S[i] : 0 <= i < 10 }")
        b = parse_set("{ T[t] : 0 <= t < 10 }")
        with pytest.raises(SpaceError):
            a.intersect(b)

    def test_empty_set(self):
        s = parse_set("{ S[i] : 0 <= i < 10 and i > 20 }")
        assert s.is_empty()
        assert s.count() == 0


class TestEnumeration:
    def test_points_array_shape_and_order(self):
        s = IntSet.from_sizes("S", ["i", "j"], [2, 3])
        array = s.points_array()
        assert array.shape == (6, 2)
        assert array[0].tolist() == [0, 0]
        assert array[-1].tolist() == [1, 2]

    def test_points_iteration(self):
        s = parse_set("{ S[i] : 0 <= i < 3 }")
        assert [p.coords for p in s.points()] == [(0,), (1,), (2,)]

    def test_chunked_enumeration_matches_unchunked(self):
        s = parse_set("{ S[i, j] : 0 <= i < 50 and 0 <= j < 40 and (i + j) mod 3 = 0 }")
        small_chunks = sum(len(c["i"]) for c in s.chunks(chunk_size=17))
        assert small_chunks == s.count()

    @pytest.mark.parametrize("make_set", [
        lambda: IntSet.from_sizes("S", ["i", "j"], [5, 7]),
        lambda: IntSet.from_sizes("S", ["i", "j"], [5, 7]).add_constraints(
            [Constraint.eq(2 * var("i"), 3)]
        ),
        lambda: parse_set("{ S[i, j] : 0 <= i < 6 and 0 <= j < 6 and j <= i }"),
        lambda: IntSet(
            Space("S", ["i", "j"]),
            [Constraint.ge(var("i"), 0), Constraint.lt(var("i"), 9),
             Constraint.ge(var("j"), -3), Constraint.le(var("j"), 8),
             Constraint.le(var("j"), var("i"))],
            bounds={"i": (2, 5), "j": (1, 4)},
        ),
    ], ids=["box", "empty-equality", "triangle", "tight-explicit-bounds"])
    def test_chunks_equal_the_box_filtered_by_every_constraint(self, make_set):
        # chunks() skips the constraints its box already enforces; its points
        # must equal a wider box's filtered by every constraint and bound.
        s = make_set()
        grids = np.meshgrid(*(np.arange(-5, 15) for _ in s.space.dims), indexing="ij")
        env = {dim: grid.ravel() for dim, grid in zip(s.space.dims, grids)}
        keep = s.contains_vec(env)
        expected = np.stack([env[dim][keep] for dim in s.space.dims], axis=1)
        for chunk_size in (4, 1 << 20):
            np.testing.assert_array_equal(s.points_array(chunk_size=chunk_size), expected)

    def test_box_size_upper_bounds_count(self):
        s = parse_set("{ S[i, j] : 0 <= i < 6 and 0 <= j < 6 and i + j < 4 }")
        assert s.count() <= s.box_size()


class TestFactoredCounting:
    def test_separable_dimensions_multiply(self):
        s = parse_set(
            "{ S[i, j, k] : 0 <= i < 100 and 0 <= j < 200 and 0 <= k < 300 "
            "and i mod 2 = 0 and j mod 2 = 1 }"
        )
        assert count_points(s) == 50 * 100 * 300

    def test_coupled_pair_counts_exactly(self):
        s = parse_set(
            "{ S[i, j, k] : 0 <= i < 10 and 0 <= j < 10 and 0 <= k < 7 and i + j < 5 }"
        )
        # 15 pairs (i, j) with i + j < 5, times 7 free values of k
        assert count_points(s) == 15 * 7

    def test_derived_bounds_from_constraints(self):
        s = parse_set("{ S[i] : 3 <= i and i <= 9 }")
        assert s.dim_extent("i") == (3, 10)
        assert s.count() == 7
