"""Tests for the pluggable evaluation backends (repro.core.backends)."""

import json

import numpy as np
import pytest

from repro.core import Dataflow
from repro.core.analyzer import TenetAnalyzer
from repro.core.backends import BACKEND_NAMES, make_backend
from repro.core.backends.fused import PEBox, SeparableStamps, link_directions
from repro.core.engine import (
    EvaluationEngine,
    RelationCache,
    RelationMaterializer,
)
from repro.core.spacetime import SpacetimeMap
from repro.dse.pruning import pruned_candidates
from repro.errors import DataflowError, ExplorationError
from repro.experiments.common import make_arch
from repro.isl.constraint import Constraint
from repro.isl.enumeration import box_sum
from repro.isl.expr import split_axes, var
from repro.isl.imap import IntMap
from repro.isl.iset import IntSet
from repro.tensor.access import AccessMode, TensorAccess
from repro.tensor.kernels import conv2d, gemm, jacobi2d
from repro.tensor.operation import TensorOp


#: Every topology ``make_interconnect`` builds, one name each.
INTERCONNECTS = (
    "1d-systolic", "2d-systolic", "mesh", "multicast", "2d-multicast",
    "reduction-tree", "none",
)


def report_dict(report):
    data = report.as_dict()
    data.pop("analysis_seconds")
    data["notes"] = list(report.notes)
    return data


def transpose_sum(size):
    """``Y[i, j] = A[i, j] + A[j, i]``: two references that coincide on the
    diagonal."""
    domain = IntSet.from_sizes("S", ["i", "j"], [size, size])
    i, j = var("i"), var("j")

    def access(tensor, mode, exprs):
        relation = IntMap.from_exprs(domain.space, tensor, exprs, domain=domain)
        return TensorAccess(tensor, mode, relation)

    return TensorOp("transpose-sum", domain, [
        access("A", AccessMode.READ, [i, j]),
        access("A", AccessMode.READ, [j, i]),
        access("Y", AccessMode.WRITE, [i, j]),
    ])


def small_candidates(op, pe_dims=(4, 4), count=6):
    return list(pruned_candidates(op, pe_dims=pe_dims, allow_packing=True,
                                  max_candidates=count))


def nested_quasi_dataflow(op, rows=4, cols=4):
    """A dataflow whose last time stamp wraps a floordiv inside a mod."""
    i, j, k = (var(dim) for dim in op.loop_dims)
    folded = (i // rows + j) % 5
    return Dataflow.from_exprs(
        "nested", op.domain.space,
        [i % rows, j % cols], [k, i // rows, j // cols, folded],
    )


def triangular_gemm(size):
    """gemm over ``i <= j``: a constraint the bounding box does not enforce."""
    base = gemm(size, size, size)
    triangle = base.domain.add_constraints([Constraint.le(var("i") - var("j"), 0)])
    return TensorOp("tri-gemm", triangle, base.accesses)


class TestAxisSplit:
    @staticmethod
    def _split(expr, relations, dims=("i", "j", "k")):
        return split_axes(expr, dims, relations.axes)

    def test_split_matches_the_interpreter(self):
        op = gemm(12, 12, 12)
        relations = RelationMaterializer(op, cache=RelationCache()).relations(10**6)
        i, j, k = var("i"), var("j"), var("k")
        exprs = [
            i + 2 * j - k,
            i % 4 + j // 8 - 2,
            (k % 5) * 3 + i,
            (i % 4) // 2 + 7,  # nested, but over one variable
            # Past 2^53, where float64 no longer holds every integer.
            (1 << 50) * i + j,
            (1 << 52) * (k % 5) - 3 * i + 1,
        ]
        shape = [axis.size for axis in relations.axes]
        for expr in exprs:
            split = self._split(expr, relations)
            values = box_sum(shape, split.vectors, split.const)
            expected = expr.evaluate_vec(relations.domain)
            np.testing.assert_array_equal(values, expected)
            # The extremes are exact, not interval bounds.
            assert (split.low, split.high) == (int(expected.min()), int(expected.max()))

    def test_unsplittable_expressions(self):
        relations = RelationMaterializer(
            gemm(4, 4, 4), cache=RelationCache()
        ).relations(10**6)
        i, j, k = var("i"), var("j"), var("k")
        assert self._split((i + j) % 4, relations) is None
        assert self._split((i // 4 + j) % 5, relations) is None
        assert self._split(var("x") + i, relations) is None
        # Each term fits in int64, their sum does not.
        assert self._split((1 << 61) * (i + j + k), relations) is None

    def test_axes_describe_box_domains_only(self):
        relations = RelationMaterializer(
            jacobi2d(6, 5), cache=RelationCache()
        ).relations(10**6)
        assert [axis.tolist() for axis in relations.axes] == [[1, 2, 3, 4], [1, 2, 3]]
        triangle = RelationMaterializer(
            triangular_gemm(4), cache=RelationCache()
        ).relations(10**6)
        assert triangle.total == 40
        assert triangle.axes is None


class TestBackendStamps:
    @pytest.mark.parametrize("make_op", [
        lambda: gemm(16, 16, 16),
        lambda: conv2d(4, 4, 6, 6, 3, 3),
        lambda: jacobi2d(10, 10),
        lambda: triangular_gemm(8),
    ], ids=["gemm", "conv2d", "jacobi2d", "tri-gemm"])
    @pytest.mark.parametrize("backend", ["fused"])
    def test_stamps_match_interpreter(self, backend, make_op):
        op = make_op()
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        relations = engine.materializer.relations(10**7)
        candidates = small_candidates(op)
        if op.loop_dims == ("i", "j", "k"):
            candidates.append(nested_quasi_dataflow(op))
        for candidate in candidates:
            bound = candidate.bind(op)
            pe_ref, rank_ref = engine.materializer.stamps(relations, bound, arch.pe_array)
            stamps = engine.backend.stamps(relations, bound, arch.pe_array)
            np.testing.assert_array_equal(pe_ref, stamps.pe_lin)
            np.testing.assert_array_equal(rank_ref, stamps.t_rank)

    def test_box_candidates_split_and_others_fall_back(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        for candidate in small_candidates(op, count=8):
            stamps = engine.backend.stamps(relations, candidate.bind(op), arch.pe_array)
            assert isinstance(stamps, SeparableStamps)
        assert engine.stats["stamp_fallback_exprs"] == 0
        # One of the nested candidate's five expressions reads two variables
        # inside a mod: the interpreter evaluates that expression alone, and
        # the candidate keeps its per-axis stamps and its PE box.
        stamps = engine.backend.stamps(
            relations, nested_quasi_dataflow(op).bind(op), arch.pe_array
        )
        assert isinstance(stamps, SeparableStamps)
        assert stamps.box == PEBox((0, 0), (4, 4))
        assert engine.stats["stamp_fallback_exprs"] == 1

    def test_non_box_domains_count_every_expression(self):
        op = triangular_gemm(8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        candidate = small_candidates(op, count=1)[0]
        reference = TenetAnalyzer(op, candidate, arch).analyze()
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        assert engine.stats["stamp_fallback_exprs"] == (
            len(candidate.pe_exprs) + len(candidate.time_exprs)
        )

    def test_dense_injective_candidates_build_no_rank(self):
        # The grid's cells are the broadcast key-and-PE cells themselves;
        # neither the time rank nor the linear PE column is built.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4), interconnect="none")
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        i, j, k = (var(dim) for dim in op.loop_dims)
        candidate = Dataflow.from_exprs(
            "ij-ijk", op.domain.space, [i % 4, j % 4], [i // 4, j // 4, k]
        ).bind(op)
        stamps = engine.backend.stamps(relations, candidate, arch.pe_array)
        _, grid = engine.backend.utilization(stamps, arch.pe_array.size)
        assert grid.stamp is stamps.cell
        assert "t_rank" not in vars(stamps) and "pe_lin" not in vars(stamps)

    @pytest.mark.parametrize("case", ["strided", "past-bound", "non-injective"])
    def test_keys_without_a_key_grid_are_ranked(self, case):
        # A strided time stamp leaves key rows empty (the key is not dense),
        # a serial one passes the grid bound on its keys, and a dropped time
        # axis collides: each takes the ranked path and matches interp.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        time_exprs = {
            "strided": [2 * k, i // 4, j // 4],
            "past-bound": [65536 * k, i // 4, j // 4],
            "non-injective": [i // 4, j // 4],
        }[case]
        candidate = Dataflow.from_exprs(case, op.domain.space, [i % 4, j % 4], time_exprs)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        stamps = engine.backend.stamps(relations, candidate.bind(op), arch.pe_array)
        assert (stamps.cell is None) == (case == "past-bound")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        assert report_dict(reference.evaluate(candidate)) == report_dict(
            engine.evaluate(candidate)
        )
        assert engine.stats["fused_path"] == (0 if case == "non-injective" else 3)

    def test_out_of_range_candidate_raises_for_each_candidate(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        bad = Dataflow.from_exprs("bad", op.domain.space, ["i", "j"], ["k"])
        bad_twin = Dataflow.from_exprs("bad-twin", op.domain.space, ["i", "j"], ["k"])
        with pytest.raises(DataflowError, match="bad"):
            engine.backend.stamps(relations, bad, arch.pe_array)
        with pytest.raises(DataflowError, match="bad-twin"):
            engine.backend.stamps(relations, bad_twin, arch.pe_array)


class TestWideTimeStamps:
    """Time stamps whose mixed-radix key over their bounds passes int64.

    ``(2^31 k, 2^31 j, 2^31 i)`` spans about 2^97 keys and ``(2^40 k, 2^40 i,
    2^40 j)`` about 2^124; a wrapped key merged distinct stamps (32 and 10
    time steps instead of 64).  Every path ranks them lexicographically.
    """

    ORDERS = {31: ["k", "j", "i"], 40: ["k", "i", "j"]}

    @pytest.mark.parametrize("power", sorted(ORDERS))
    def test_every_path_counts_64_time_steps(self, power):
        from repro.sim import simulate

        op = gemm(4, 4, 4)
        arch = make_arch(pe_dims=(4, 4))
        order = self.ORDERS[power]
        scaled = [f"{1 << power}*{dim}" for dim in order]
        candidate = Dataflow.from_exprs("wide", op.domain.space, ["i", "j"], scaled)
        unscaled = Dataflow.from_exprs("plain", op.domain.space, ["i", "j"], order)
        expected = TenetAnalyzer(op, unscaled, arch).analyze()
        assert expected.utilization.num_time_stamps == 64
        reports = [TenetAnalyzer(op, candidate, arch).analyze()]
        for backend in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
            reports.append(engine.evaluate(candidate))
        for report in reports:
            assert report_dict(report) | {"dataflow": "plain"} == report_dict(expected)
            assert report.utilization.occupied_stamps == 64
            assert report.utilization.is_injective
        assert simulate(op, candidate, arch).num_time_steps == 64


class TestBackendReports:
    @pytest.mark.parametrize("make_op", [
        lambda: gemm(16, 16, 16),
        lambda: conv2d(6, 6, 5, 5, 3, 3),
    ], ids=["gemm", "conv2d"])
    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_backend_reports_equal_analyzer(self, make_op, interconnect, backend):
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        for candidate in small_candidates(op):
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_nested_quasi_reports_equal_analyzer(self, backend, interconnect):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        candidate = nested_quasi_dataflow(op)
        reference = TenetAnalyzer(op, candidate, arch).analyze()
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_non_injective_reports_equal_analyzer(self, backend, interconnect):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        collapsing = Dataflow.from_exprs(
            "collapse", op.domain.space, ["i mod 4", "j mod 4"], ["k mod 4"]
        )
        reference = TenetAnalyzer(op, collapsing, arch).analyze()
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        assert report_dict(reference) == report_dict(engine.evaluate(collapsing))

    def test_batch_matches_across_backends(self):
        op = conv2d(4, 4, 6, 6, 3, 3)
        arch = make_arch(pe_dims=(4, 4))
        candidates = small_candidates(op, count=8)
        batches = {}
        for backend in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
            batches[backend] = engine.evaluate_batch(candidates)
        reference = batches["interp"].reports
        assert reference
        assert len(batches["fused"].reports) == len(reference)
        for a, b in zip(reference, batches["fused"].reports):
            assert report_dict(a) == report_dict(b)


class TestLayout:
    def _op_with_duplicate_reference(self):
        """GEMM variant whose output is referenced twice (read then write)."""
        base = gemm(8, 8, 8)
        update = next(a for a in base.accesses if a.tensor == "Y")
        accesses = [a for a in base.accesses if a.tensor != "Y"]
        accesses.append(TensorAccess("Y", AccessMode.READ, update.relation))
        accesses.append(TensorAccess("Y", AccessMode.WRITE, update.relation))
        return TensorOp("gemm-dup", base.domain, accesses)

    def test_identical_references_collapse(self):
        op = self._op_with_duplicate_reference()
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        assert relations.tensors["Y"].references == 2
        grids = engine.backend._element_ids(relations)["Y"]
        assert len(grids) == 1
        assert grids[0].size == relations.total

    def test_duplicate_reference_reports_equal_analyzer(self):
        op = self._op_with_duplicate_reference()
        arch = make_arch(pe_dims=(4, 4))
        for backend in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
            for candidate in small_candidates(op, count=3):
                reference = TenetAnalyzer(op, candidate, arch).analyze()
                assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    def test_distinct_references_are_kept(self):
        op = jacobi2d(10, 10)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        assert relations.tensors["A"].references == 5
        grids = engine.backend._element_ids(relations)
        assert len(grids["A"]) == 5
        assert len(grids["Y"]) == 1

    def test_layout_memo_is_shared_across_candidates(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        candidates = small_candidates(op, count=6)
        engine.evaluate_batch(candidates)
        distinct_pe_signatures = {
            tuple(str(e) for e in c.pe_exprs) for c in candidates
        }
        # One entry per (space signature, tensor), not per candidate.
        memo = engine.materializer.relations(engine.max_instances).live_directions
        assert len(memo) <= len(distinct_pe_signatures) * 3


class TestFusedBackend:
    def test_fused_kernel_engages_on_uniform_layouts(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4), interconnect="2d-systolic")
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        for candidate in small_candidates(op):
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["fused_path"] == engine.stats["fast_path"] > 0
        assert engine.stats["reference_path"] == 0

    def test_fused_splits_mixed_reference_layouts_between_kernels(self):
        # jacobi2d mixes per-tensor layouts: the five-reference stencil input
        # takes the grid kernel with one element-id grid per reference, next
        # to the single-reference output.
        op = jacobi2d(10, 10)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        for candidate in small_candidates(op, count=3):
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["fused_path"] == engine.stats["fast_path"] > 0
        assert engine.stats["reference_path"] == 0

    @pytest.mark.parametrize("backend", ["fused"])
    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    def test_ragged_conv_layouts_take_the_fused_kernel(self, backend, interconnect):
        # Conv boundaries leave (PE, element) groups of unequal size and
        # empty stamps; the grid kernel masks the empty cells instead of
        # handing the tensor to another kernel.
        op = conv2d(2, 3, 6, 6, 3, 3)
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        for candidate in small_candidates(op):
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["reference_path"] == 0
        assert engine.stats["fused_path"] == engine.stats["fast_path"] > 0

    def test_fused_batch_matches_analyzer_across_interconnects(self):
        op = gemm(16, 16, 16)
        for interconnect in ("2d-systolic", "mesh", "multicast"):
            arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
            candidates = small_candidates(op, count=6)
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
            batch = engine.evaluate_batch(candidates)
            assert len(batch.reports) == len(candidates)
            for candidate, report in zip(candidates, batch.reports):
                reference = TenetAnalyzer(op, candidate, arch).analyze()
                assert report_dict(reference) == report_dict(report)


class TestKernelChain:
    """Each rung of the fused backend's per-tensor kernel chain on its own.

    A tensor goes to the stamp-grid kernel; without a grid to the
    group-major kernel, and when that kernel refuses (its key layout would
    pass int64) to the engine's reference kernel.  Most tensors stop at the
    first rung, so the tests below build no stamp grid for any candidate
    and, for the last rung, make the group-major kernel refuse: each rung
    must match the analyzer by itself, not only on the cases that reach it
    by default.
    """

    OPS = {
        "gemm": lambda: gemm(16, 16, 16),
        "conv2d": lambda: conv2d(6, 6, 5, 5, 3, 3),
        "jacobi2d": lambda: jacobi2d(10, 10),
    }

    @pytest.mark.parametrize("op_name", sorted(OPS))
    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "multicast"])
    @pytest.mark.parametrize("rung", ["group-major", "reference"])
    def test_forced_rung_reports_equal_analyzer(
        self, rung, interconnect, op_name, monkeypatch
    ):
        import repro.core.backends.fused as fused_module
        import repro.core.engine as engine_module

        monkeypatch.setattr(fused_module, "stamp_grid", lambda *a, **k: None)
        if rung == "reference":
            monkeypatch.setattr(
                engine_module, "_grouped_volume_metrics", lambda *a, **k: None
            )
        op = self.OPS[op_name]()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        for candidate in small_candidates(op):
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        stats = engine.stats
        assert stats["fused_path"] == 0
        if rung == "group-major":
            assert stats["fast_path"] > 0
            assert stats["reference_path"] == 0
        else:
            assert stats["fast_path"] == 0
            assert stats["reference_path"] > 0


class TestGridKernel:
    """The stamp-grid volume kernel: directions, dead directions, fallbacks."""

    @pytest.mark.parametrize("interconnect, pe_dims, offsets, masks", [
        ("2d-multicast", (4, 4), [-12, -8, -4, -3, -2, -1], [4, 8, 12, 4, 8, 12]),
        ("mesh", (4, 4), [-5, -4, -3, -1, 1, 3, 4, 5], [9, 12, 9, 12, 12, 9, 12, 9]),
        ("1d-systolic", (8,), [-1], [7]),
    ])
    def test_directions_group_links_by_linear_offset(
        self, interconnect, pe_dims, offsets, masks
    ):
        # The whole array as the box: box offsets are array offsets.
        arch = make_arch(pe_dims=pe_dims, interconnect=interconnect)
        engine = EvaluationEngine(gemm(8, 8, 8), arch, backend="fused")
        directions = link_directions(
            engine._predecessor_table, pe_dims, PEBox.whole(pe_dims),
            engine._spacetime.spatial_interval,
        )
        assert [d.offset for d in directions] == offsets
        assert [int(d.mask.sum()) for d in directions] == masks
        table = engine._predecessor_table
        for direction in directions:
            # Every destination PE really has a link from ``pe + offset``.
            for pe in direction.pes:
                assert pe + direction.offset in table[pe]

    @pytest.mark.parametrize("pe_dims", [(4, 4), (3, 5), (8, 8)])
    @pytest.mark.parametrize("interconnect, options", [
        ("1d-systolic", {}), ("2d-systolic", {}), ("mesh", {}),
        *(("multicast", {"reach": reach}) for reach in range(1, 8)),
        ("2d-multicast", {}), ("2d-multicast", {"reach": 2}),
        *(("reduction-tree", {"group_size": size}) for size in (2, 3, 8)),
        ("none", {}),
    ])
    def test_box_directions_match_a_brute_force_oracle(
        self, pe_dims, interconnect, options
    ):
        # Per random box: every (pe, pe + offset) of every direction is an
        # array link with both ends in the box, every such link lies in
        # exactly one direction, and at spatial interval 0 only sources
        # below their destination appear.
        import itertools

        from tests.arch.test_interconnect import _ORACLE

        arch = make_arch(pe_dims=pe_dims, interconnect=interconnect, **options)
        topology = arch.interconnect
        table = SpacetimeMap(arch.pe_array, topology).predecessor_table()
        interval = topology.time_interval
        coords = list(itertools.product(*(range(extent) for extent in pe_dims)))
        links = {
            (source, destination)
            for source, destination in itertools.permutations(range(len(coords)), 2)
            if _ORACLE[type(topology)](topology, coords[source], coords[destination])
            and (interval > 0 or source < destination)
        }
        rng = np.random.default_rng(sum(pe_dims) * 131 + len(interconnect))
        boxes = [PEBox.whole(pe_dims)]
        for _ in range(24):
            low = tuple(int(rng.integers(0, extent)) for extent in pe_dims)
            boxes.append(PEBox(low, tuple(
                int(rng.integers(1, extent - start + 1))
                for start, extent in zip(low, pe_dims)
            )))
        straddled = False
        for box in boxes:
            members = [
                int(np.ravel_multi_index(point, pe_dims))
                for point in itertools.product(*(
                    range(start, start + extent)
                    for start, extent in zip(box.low, box.extents)
                ))
            ]
            found = []
            for direction in link_directions(table, pe_dims, box, interval):
                assert direction.mask.tolist() == [
                    pe in direction.pes for pe in range(box.size)
                ]
                for pe in direction.pes.tolist():
                    source = pe + direction.offset
                    assert 0 <= source < box.size
                    if interval == 0:
                        assert source < pe
                    found.append((members[source], members[pe]))
            inside = set(members)
            expected = {
                link for link in links if link[0] in inside and link[1] in inside
            }
            assert sorted(found) == sorted(expected)
            if interconnect == "reduction-tree":
                # Some group the box touches has a PE outside it.
                size, width = topology.group_size, pe_dims[-1]
                first, last = box.low[-1], box.low[-1] + box.extents[-1]
                straddled |= any(
                    group * size < first or min(group * size + size, width) > last
                    for group in {coords[member][-1] // size for member in members}
                )
        assert straddled or interconnect != "reduction-tree"

    def test_sub_array_grid_fits_where_the_array_grid_would_not(self):
        # 70,000 time ranks x 64 PEs = 4.48M cells, past max(8n, 2^22) =
        # 4.19M, but the candidate occupies a 2x2 box: 280,000 cells.
        op = gemm(2, 2, 70000)
        arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic")
        i, j, k = (var(dim) for dim in op.loop_dims)
        candidate = Dataflow.from_exprs(
            "deep", op.domain.space, [i % 8, j % 8], [k]
        )
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        encoded = [
            json.dumps(report_dict(e.evaluate(candidate)), sort_keys=True).encode()
            for e in (reference, engine)
        ]
        assert encoded[0] == encoded[1]
        assert engine.stats["fused_path"] == 3
        assert engine.stats["grid_cells"] == 70000 * 4

    def test_dead_directions_are_skipped_per_tensor(self):
        # Space (i % 8, j % 8): A[i, k] is shared along PE rows, B[k, j]
        # along PE columns, and no two PEs ever hold the same Y[i, j].
        op = gemm(48, 48, 48)
        arch = make_arch(pe_dims=(8, 8), interconnect="2d-multicast")
        i, j, k = (var(dim) for dim in op.loop_dims)
        candidate = Dataflow.from_exprs(
            "ij-ijk", op.domain.space, [i % 8, j % 8], [i // 8, j // 8, k]
        )
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        report = engine.evaluate(candidate)
        reference = TenetAnalyzer(op, candidate, arch).analyze()
        assert report_dict(reference) == report_dict(report)
        assert engine.stats["fused_path"] == 3
        signature = engine.backend.pe_signature(candidate)
        memo = engine.materializer.relations(engine.max_instances).live_directions
        live = {
            tensor: [
                d.offset
                for d in memo.get((*engine.backend.links_key, signature, tensor))
            ]
            for tensor in ("A", "B", "Y")
        }
        assert live["A"] == [-7, -6, -5, -4, -3, -2, -1]
        assert live["B"] == [-56, -48, -40, -32, -24, -16, -8]
        assert live["Y"] == []

    @pytest.mark.parametrize("case", ["grid-past-bound", "non-injective", "multi-reference"])
    def test_each_case_takes_the_grid_or_group_major_kernel(self, case):
        if case == "grid-past-bound":
            # 110,592 time ranks x 64 PEs: past max(8n, 2^22) cells.
            op = gemm(48, 48, 48)
            arch = make_arch(pe_dims=(8, 8))
            i, j, k = (var(dim) for dim in op.loop_dims)
            candidates = [Dataflow.from_exprs(
                "serial", op.domain.space, [i % 8, j % 8], [i, j, k]
            )]
        elif case == "non-injective":
            op = gemm(8, 8, 8)
            arch = make_arch(pe_dims=(4, 4))
            candidates = [Dataflow.from_exprs(
                "collapse", op.domain.space, ["i mod 4", "j mod 4"], ["k mod 4"]
            )]
        else:
            op = jacobi2d(10, 10)
            arch = make_arch(pe_dims=(4, 4))
            candidates = small_candidates(op, count=3)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        for candidate in candidates:
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        assert engine.stats["reference_path"] == 0
        if case == "multi-reference":
            assert engine.stats["fused_path"] == engine.stats["fast_path"] > 0
        else:
            # No stamp grid: the group-major kernel, as in ``interp``.
            assert engine.stats["fused_path"] == 0
            assert engine.stats["fast_path"] > 0

    @pytest.mark.parametrize("make_op", [
        lambda: jacobi2d(10, 10),
        lambda: transpose_sum(8),
    ], ids=["jacobi2d", "transpose-sum"])
    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    def test_multi_reference_tensors_take_the_grid_kernel(self, make_op, interconnect):
        # One element-id grid per distinct reference: a stencil's reuse is
        # across references (A[i-1][j] at (i, j) is A[i][j] at (i-1, j)),
        # and references that coincide (A[i, j] and A[j, i] on the
        # diagonal) count one pair.
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        for candidate in small_candidates(op):
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        assert engine.stats["fused_path"] == engine.stats["fast_path"] > 0
        assert engine.stats["reference_path"] == 0


class TestRegistry:
    def test_unknown_backend_rejected(self):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError):
            EvaluationEngine(op, make_arch(pe_dims=(4, 4)), backend="gpu")

    def test_backend_names_are_interp_and_fused(self):
        assert BACKEND_NAMES == ("interp", "fused")

    @pytest.mark.parametrize("name", ["bitset", "affine", "auto"])
    def test_retired_backend_names_rejected(self, name):
        engine = EvaluationEngine(gemm(8, 8, 8), make_arch(pe_dims=(4, 4)))
        with pytest.raises(ExplorationError, match="available: interp, fused"):
            make_backend(name, engine)

    def test_backend_names_constructible(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        for name in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, backend=name)
            assert engine.backend.name == name
            assert engine.backend_name == name


class TestFusedBaseline:
    """The fused backend against the committed reference reports.

    ``tests/core/data/fused_baseline.json`` pins the fused backend's output
    (round-tripped through JSON, exactly like the fixture), so refactors of
    the compiled path cannot move a report.
    """

    CASES = {
        "gemm16": (lambda: gemm(16, 16, 16), "2d-systolic"),
        "gemm12_mesh": (lambda: gemm(12, 12, 12), "mesh"),
        "conv2d": (lambda: conv2d(4, 4, 6, 6, 3, 3), "2d-systolic"),
    }

    @staticmethod
    def _baseline():
        import json
        from pathlib import Path

        path = Path(__file__).parent / "data" / "fused_baseline.json"
        return json.loads(path.read_text())

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_fused_matches_pre_refactor_baseline(self, case):
        import json

        make_op, interconnect = self.CASES[case]
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, backend="fused")
        candidates = pruned_candidates(
            op, pe_dims=(4, 4), allow_packing=True, max_candidates=8
        )
        fresh = {c.name: report_dict(engine.evaluate(c)) for c in candidates}
        assert json.loads(json.dumps(fresh)) == self._baseline()[case]
        assert engine.stats["fused_path"] > 0


class TestSharedLiveDirections:
    """The fused backend's live-direction memo lives on the cached relations,
    keyed by architecture, space signature and tensor, and
    every engine over the operation shares it."""

    @staticmethod
    def _archs(dims):
        return [
            *(make_arch(pe_dims=dims, interconnect=ic) for ic in INTERCONNECTS),
            *(make_arch(pe_dims=dims, interconnect="multicast", reach=r) for r in (1, 7)),
            *(
                make_arch(pe_dims=dims, interconnect="reduction-tree", group_size=g)
                for g in (2, 3)
            ),
        ]

    @staticmethod
    def _candidates(op, dims):
        i, j, k = (var(dim) for dim in op.loop_dims)
        # A 2x3 PE box, inside either array.
        sub_box = Dataflow.from_exprs(
            "sub-box", op.domain.space, [i % 2, j % 3], [k, i // 2, j // 3]
        )
        return [*small_candidates(op, pe_dims=dims, count=4), sub_box]

    def test_mixed_architectures_match_fresh_engines_and_interp(self):
        # Spatial intervals 0 (multicast, reduction tree) and 1 share one
        # cache, on two PE shapes, built in interleaved order.
        op = gemm(8, 8, 8)
        plans = []
        for archs in zip(self._archs((4, 4)), self._archs((2, 8))):
            for arch in archs:
                plans.append((arch, self._candidates(op, arch.pe_array.dims)))
        expected = []
        for arch, candidates in plans:
            fresh = EvaluationEngine(op, arch, cache=RelationCache())
            interp = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
            reports = [report_dict(fresh.evaluate(c)) for c in candidates]
            assert reports == [report_dict(interp.evaluate(c)) for c in candidates]
            expected.append(reports)
        shared = RelationCache()
        for _ in range(2):
            for (arch, candidates), reports in zip(plans, expected):
                engine = EvaluationEngine(op, arch, cache=shared)
                assert [report_dict(engine.evaluate(c)) for c in candidates] == reports
        assert len(shared) == 1

    def test_threads_sweeping_different_interconnects(self, monkeypatch):
        import sys
        import threading

        from repro.core import engine as engine_module

        # More sweeping threads than cores, a short switch interval, and a
        # bound below the sweeps' keys: they evict and reorder each other's
        # entries while another thread counts the memo's bytes.
        monkeypatch.setattr(engine_module, "_LIVE_DIRECTION_ENTRIES", 4)
        op = gemm(12, 12, 12)
        candidates = small_candidates(op, count=8)
        archs = [
            make_arch(pe_dims=(4, 4), interconnect=ic)
            for ic in ("2d-systolic", "2d-multicast", "mesh", "reduction-tree")
        ]
        expected = [
            [report_dict(EvaluationEngine(op, arch, cache=RelationCache()).evaluate(c))
             for c in candidates]
            for arch in archs
        ]
        cache = RelationCache()
        relations = EvaluationEngine(op, archs[0], cache=cache).materializer.relations(10**6)
        rounds = 3
        results = [[] for _ in archs]
        errors = []
        done = threading.Event()

        def sweep(index):
            try:
                for _ in range(rounds):
                    engine = EvaluationEngine(op, archs[index], cache=cache)
                    results[index].append([report_dict(engine.evaluate(c)) for c in candidates])
            except BaseException as error:  # noqa: BLE001 - surfaced to the test
                errors.append(error)

        def count_bytes():
            try:
                while not done.wait(0.001):
                    relations.nbytes()
            except BaseException as error:  # noqa: BLE001 - surfaced to the test
                errors.append(error)

        threads = [threading.Thread(target=sweep, args=(index,)) for index in range(len(archs))]
        counter = threading.Thread(target=count_bytes)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            counter.start()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            done.set()
            counter.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in [*threads, counter])
        assert errors == []
        assert results == [[reports] * rounds for reports in expected]
        assert len(relations.live_directions) <= 4

    def test_a_second_engine_builds_no_directions(self):
        op = gemm(12, 12, 12)
        cache = RelationCache()
        candidates = small_candidates(op, count=6)
        first = EvaluationEngine(op, make_arch(pe_dims=(4, 4), interconnect="mesh"), cache=cache)
        first.evaluate_batch(candidates)
        assert first.stats["direction_builds"] > 0
        second = EvaluationEngine(op, make_arch(pe_dims=(4, 4), interconnect="mesh"), cache=cache)
        second.evaluate_batch(candidates)
        assert second.stats["direction_builds"] == 0
        assert second.stats["fused_path"] == first.stats["fused_path"]
        # Another interconnect has other links: it builds its own.
        other = EvaluationEngine(
            op, make_arch(pe_dims=(4, 4), interconnect="2d-multicast"), cache=cache
        )
        other.evaluate_batch(candidates)
        assert other.stats["direction_builds"] == first.stats["direction_builds"]

    def test_memo_bytes_are_counted_and_dropped_with_the_op(self):
        import gc
        import weakref

        op = gemm(12, 12, 12)
        arch = make_arch(pe_dims=(4, 4), interconnect="2d-multicast")
        cache = RelationCache(max_entries=1)
        engine = EvaluationEngine(op, arch, cache=cache)
        relations = engine.materializer.relations(engine.max_instances)
        arrays = relations.nbytes()
        candidates = small_candidates(op, count=4)
        engine.evaluate_batch(candidates)
        memo = relations.live_directions
        assert len(memo) > 0 and memo.nbytes() > 0
        assert relations.nbytes() == arrays + memo.nbytes()
        # Another op evicts this one, and its memo goes with it.
        dropped = weakref.ref(memo)
        other = gemm(8, 8, 8)
        EvaluationEngine(other, arch, cache=cache).evaluate(small_candidates(other, count=1)[0])
        builds = engine.stats["direction_builds"]
        del engine, relations, memo
        gc.collect()
        assert dropped() is None
        rebuilt = EvaluationEngine(op, arch, cache=cache)
        rebuilt.evaluate_batch(candidates)
        assert rebuilt.stats["direction_builds"] == builds
