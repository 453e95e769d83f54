"""Tests for the pluggable evaluation backends (repro.core.backends)."""

import numpy as np
import pytest

from repro.core import Dataflow
from repro.core.analyzer import TenetAnalyzer
from repro.core.backends import BACKEND_NAMES, make_backend
from repro.core.backends.affine import (
    CompiledExprSet,
    CompiledEvaluator,
    build_group_layout,
    lower_expr,
)
from repro.core.engine import (
    EvaluationEngine,
    RelationCache,
    RelationMaterializer,
    dataflow_signature,
)
from repro.dse.pruning import pruned_candidates
from repro.errors import DataflowError, ExplorationError
from repro.experiments.common import make_arch
from repro.isl.expr import var
from repro.tensor.kernels import conv2d, gemm, jacobi2d


def report_dict(report):
    data = report.as_dict()
    data.pop("analysis_seconds")
    data["notes"] = list(report.notes)
    return data


def _torch_available() -> bool:
    try:
        import torch  # noqa: F401
    except ImportError:
        return False
    return True


#: The namespace axis of the bit-identity matrix: numpy always runs; the
#: torch-CPU leg runs whenever torch is importable (the CI device-matrix job)
#: and is skipped, not failed, on hosts without it.
NAMESPACE_PARAMS = [
    pytest.param("numpy", id="numpy"),
    pytest.param(
        "torch:cpu",
        id="torch-cpu",
        marks=pytest.mark.skipif(not _torch_available(), reason="torch not installed"),
    ),
]


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


class TestExprLowering:
    def test_linear_row_of_affine_expr(self):
        expr = 2 * var("i") - 3 * var("j") + 7
        coeffs, const = expr.linear_row(("i", "j", "k"))
        assert coeffs == (2, -3, 0)
        assert const == 7

    def test_linear_row_rejects_unknown_variable(self):
        from repro.errors import SpaceError

        with pytest.raises(SpaceError):
            (2 * var("x")).linear_row(("i", "j"))

    def test_lower_affine(self):
        base, const, derived = lower_expr(
            var("i") + 2 * var("k") - 1, ("i", "j", "k")
        )
        assert base == (1, 0, 2)
        assert const == -1
        assert derived == []

    def test_lower_mod_and_floordiv_to_derived_columns(self):
        lowered = lower_expr(var("i") % 4 + var("j") // 8, ("i", "j"))
        assert lowered is not None
        _, _, derived = lowered
        kinds = sorted(column.kind for _, column in derived)
        assert kinds == ["floordiv", "mod"]

    def test_nested_quasi_does_not_lower(self):
        nested = (var("i") // 4 + var("j")) % 5
        assert lower_expr(nested, ("i", "j")) is None

    def test_unknown_variable_does_not_lower(self):
        assert lower_expr(var("x") + var("i"), ("i", "j")) is None

    def test_dataflow_stamp_rows(self):
        op = gemm(8, 8, 8)
        dataflow = Dataflow.from_exprs(
            "d", op.domain.space, ["i mod 4", "j mod 4"], ["k", "i"]
        )
        pe_rows, time_rows = dataflow.stamp_rows()
        assert pe_rows == [None, None]  # mod terms are not plain affine rows
        assert time_rows == [((0, 0, 1), 0), ((1, 0, 0), 0)]
        assert not dataflow.is_affine
        affine = Dataflow.from_exprs("a", op.domain.space, ["i", "j"], ["k"])
        assert affine.is_affine

    def test_compiled_rows_match_interpreter(self):
        op = gemm(12, 12, 12)
        materializer = RelationMaterializer(op, cache=RelationCache())
        relations = materializer.relations(10**6)
        exprs = [
            var("i") + 2 * var("j") - var("k"),
            var("i") % 4 + var("j") // 8 - 2,
            (var("k") % 5) * 3 + var("i"),
        ]
        compiled = CompiledExprSet(op.loop_dims, relations.inclusive_bounds)
        plans = [compiled.add(e) for e in exprs]
        evaluator = CompiledEvaluator(compiled, relations.domain, relations.total)
        values = evaluator.evaluate_rows([i for kind, i in plans if kind == "row"])
        for expr, (kind, index) in zip(exprs, plans):
            assert kind == "row"
            np.testing.assert_array_equal(values[index], expr.evaluate_vec(relations.domain))

    def test_identical_expressions_share_one_row(self):
        op = gemm(8, 8, 8)
        relations = RelationMaterializer(op, cache=RelationCache()).relations(10**6)
        compiled = CompiledExprSet(op.loop_dims, relations.inclusive_bounds)
        first = compiled.add(var("i") + var("k") // 4)
        second = compiled.add(var("i") + var("k") // 4)
        assert first == second
        assert len(compiled.rows) == 1


class TestBackendStamps:
    @pytest.mark.parametrize("backend", ["affine", "bitset", "fused", "auto"])
    def test_stamps_match_interpreter(self, backend):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        relations = engine.materializer.relations(10**7)
        for candidate in small_candidates(op) + [nested_quasi_dataflow(op)]:
            bound = candidate.bind(op)
            pe_ref, rank_ref = engine.materializer.stamps(relations, bound, arch.pe_array)
            pe_new, rank_new = engine.backend.stamps(relations, bound, arch.pe_array)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_batched_stamps_match_per_candidate(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="affine")
        relations = engine.materializer.relations(10**7)
        candidates = small_candidates(op, count=8)
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        for position, candidate in enumerate(candidates):
            pe_ref, rank_ref = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            pe_new, rank_new = provider.stamps_for(position)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_small_windows_still_match(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="affine")
        relations = engine.materializer.relations(10**6)
        candidates = small_candidates(op, count=6)
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        provider._rows_per_window = 1  # force window thrash
        for position, candidate in enumerate(candidates):
            pe_ref, rank_ref = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            pe_new, rank_new = provider.stamps_for(position)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_pe_memo_eviction_between_batches_replans(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="affine")
        relations = engine.materializer.relations(10**6)
        candidates = small_candidates(op, count=3)
        warmup = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        for position in range(len(candidates)):
            warmup.stamps_for(position)
        # The second provider records no PE plans (all signatures memoised);
        # evicting the memo in between forces the replan path.
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        engine.backend._pe_memo.clear()
        for position, candidate in enumerate(candidates):
            pe_ref, rank_ref = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            pe_new, rank_new = provider.stamps_for(position)
            np.testing.assert_array_equal(pe_ref, pe_new)
            np.testing.assert_array_equal(rank_ref, rank_new)

    def test_out_of_range_candidate_raises_for_each_candidate(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="affine")
        relations = engine.materializer.relations(10**7)
        bad = Dataflow.from_exprs("bad", op.domain.space, ["i", "j"], ["k"])
        bad_twin = Dataflow.from_exprs("bad-twin", op.domain.space, ["i", "j"], ["k"])
        provider = engine.backend.prepare_batch(relations, [bad, bad_twin], arch.pe_array)
        with pytest.raises(DataflowError, match="bad"):
            provider.stamps_for(0)
        # The failure is memoised per space signature but re-raised per candidate.
        with pytest.raises(DataflowError, match="bad-twin"):
            provider.stamps_for(1)

    def test_fallback_exprs_are_counted(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="affine")
        engine.evaluate(nested_quasi_dataflow(op))
        assert engine.stats["stamp_fallback_exprs"] > 0


class TestBackendReports:
    @pytest.mark.parametrize("make_op", [
        lambda: gemm(16, 16, 16),
        lambda: conv2d(6, 6, 5, 5, 3, 3),
    ], ids=["gemm", "conv2d"])
    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "multicast"])
    @pytest.mark.parametrize("backend", ["interp", "affine", "bitset", "fused", "auto"])
    @pytest.mark.parametrize("device", NAMESPACE_PARAMS)
    def test_backend_reports_equal_analyzer(self, make_op, interconnect, backend, device):
        if backend == "interp" and device != "numpy":
            pytest.skip("interp is host-only (rejected at engine construction)")
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend=backend, device=device
        )
        for candidate in small_candidates(op):
            reference = TenetAnalyzer(op, candidate, arch).analyze()
            assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    @pytest.mark.parametrize("backend", ["affine", "bitset", "fused", "auto"])
    @pytest.mark.parametrize("device", NAMESPACE_PARAMS)
    def test_nested_quasi_reports_equal_analyzer(self, backend, device):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        candidate = nested_quasi_dataflow(op)
        reference = TenetAnalyzer(op, candidate, arch).analyze()
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend=backend, device=device
        )
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))

    @pytest.mark.parametrize("backend", ["interp", "affine", "bitset", "fused", "auto"])
    def test_non_injective_reports_equal_analyzer(self, backend):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        collapsing = Dataflow.from_exprs(
            "collapse", op.domain.space, ["i mod 4", "j mod 4"], ["k mod 4"]
        )
        reference = TenetAnalyzer(op, collapsing, arch).analyze()
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        assert report_dict(reference) == report_dict(engine.evaluate(collapsing))

    def test_bitset_handles_wide_temporal_interval(self):
        # The sort-based kernels are limited to temporal intervals <= 8; the
        # bit-set kernel shifts occupancy words by any interval.
        op = gemm(12, 12, 12)
        arch = make_arch(pe_dims=(4, 4))
        candidate = small_candidates(op)[0]
        reference = TenetAnalyzer(op, candidate, arch, temporal_interval=11).analyze()
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="bitset", temporal_interval=11
        )
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        assert engine.stats["bitset_path"] > 0
        assert engine.stats["reference_path"] == 0

    def test_bitset_engages_on_small_op(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="bitset")
        engine.evaluate(small_candidates(op)[0])
        assert engine.stats["bitset_path"] > 0

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
        for backend in ("auto", "affine", "bitset"):
            assert len(batches[backend].reports) == len(reference)
            for a, b in zip(reference, batches[backend].reports):
                assert report_dict(a) == report_dict(b)


class TestLayout:
    def _op_with_duplicate_reference(self):
        """GEMM variant whose output is referenced twice (read then write)."""
        from repro.tensor.access import AccessMode, TensorAccess
        from repro.tensor.operation import TensorOp

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
        candidate = small_candidates(op)[0].bind(op)
        pe_lin, _ = engine.materializer.stamps(relations, candidate, arch.pe_array)
        assert relations.tensors["Y"].references == 2
        layout = build_group_layout(
            pe_lin, relations.tensors["Y"], engine._predecessor_table,
            engine._spacetime.spatial_interval,
        )
        assert layout.references == 1
        assert layout.dense_orig.size == pe_lin.size

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
        candidate = small_candidates(op, count=1)[0].bind(op)
        pe_lin, _ = engine.materializer.stamps(relations, candidate, arch.pe_array)
        tensor = next(t for t, rel in relations.tensors.items() if rel.references > 1)
        layout = build_group_layout(
            pe_lin, relations.tensors[tensor], engine._predecessor_table,
            engine._spacetime.spatial_interval,
        )
        assert layout.references == relations.tensors[tensor].references

    @staticmethod
    def _argsort_layout(pe_lin, relations, predecessor_table, spatial_interval):
        """The sort-based group layout construction, kept as a reference.

        Groups come from a stable argsort of the int64 (PE, element) keys
        and source groups from a ``searchsorted`` over the distinct keys.
        """
        footprint = relations.footprint
        length = pe_lin.size
        distinct = []
        for index in range(relations.references):
            segment = relations.dense_keys[index * length : (index + 1) * length]
            if not any(np.array_equal(segment, seen) for seen in distinct):
                distinct.append(segment)
        pairs = np.concatenate([pe_lin * footprint + segment for segment in distinct])
        perm = np.argsort(pairs, kind="stable")
        ordered = pairs[perm]
        boundary = np.empty(pairs.size, dtype=bool)
        boundary[0] = True
        np.not_equal(ordered[1:], ordered[:-1], out=boundary[1:])
        dense_sorted = (np.cumsum(boundary) - 1).astype(np.int32)
        group_count = int(dense_sorted[-1]) + 1
        unique_groups = ordered[boundary]
        dense_orig = np.empty(pairs.size, dtype=np.int32)
        dense_orig[perm] = dense_sorted
        group_pe = unique_groups // footprint
        group_elem = unique_groups - group_pe * footprint
        slots = {"valid": [], "delta": [], "const": [], "src": []}
        for slot in range(predecessor_table.shape[1]):
            src_pe = predecessor_table[group_pe, slot]
            valid = src_pe >= 0
            if spatial_interval == 0:
                valid &= src_pe < group_pe
            src_raw = src_pe * footprint + group_elem
            position = np.clip(np.searchsorted(unique_groups, src_raw), 0, group_count - 1)
            present = valid & (unique_groups[position] == src_raw)
            src_dense = np.where(present, position, group_count).astype(np.int32)
            group_delta = src_dense - np.arange(group_count, dtype=np.int32)
            valid_deltas = group_delta[present]
            constant = valid_deltas.size and valid_deltas.min() == valid_deltas.max()
            slots["valid"].append(present[dense_sorted])
            slots["delta"].append(group_delta[dense_sorted])
            slots["const"].append(int(valid_deltas[0]) if constant else None)
            slots["src"].append(src_dense)
        return {
            "perm_mod": (perm % length).astype(np.int32),
            "dense_sorted": dense_sorted,
            "dense_orig": dense_orig,
            "group_count": group_count,
            "references": len(distinct),
            "slot_valid": slots["valid"],
            "slot_delta": slots["delta"],
            "slot_delta_const": slots["const"],
            "slot_src_group": slots["src"],
        }

    @pytest.mark.parametrize("make_op", [
        lambda: conv2d(2, 3, 6, 6, 3, 3),
        lambda: gemm(12, 12, 12),
        lambda: jacobi2d(10, 10),  # one tensor has distinct multiple references
    ], ids=["conv2d", "gemm", "jacobi2d"])
    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "2d-multicast"])
    @pytest.mark.parametrize("bitmap", [True, False], ids=["bitmap", "sorted"])
    def test_layout_matches_argsort_construction(
        self, make_op, interconnect, bitmap, monkeypatch
    ):
        if not bitmap:
            # Key ranges too wide for a presence bitmap take the sorted path.
            import repro.core.engine

            monkeypatch.setattr(repro.core.engine, "_presence_table", lambda keys: None)
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        for candidate in small_candidates(op, count=3):
            pe_lin, _ = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            for tensor, rel in relations.tensors.items():
                args = (
                    pe_lin, rel, engine._predecessor_table,
                    engine._spacetime.spatial_interval,
                )
                layout = build_group_layout(*args)
                expected = self._argsort_layout(*args)
                for field, value in expected.items():
                    actual = getattr(layout, field)
                    if isinstance(value, list):
                        assert len(actual) == len(value), field
                        pairs = zip(actual, value)
                    else:
                        pairs = [(actual, value)]
                    for got, want in pairs:
                        if isinstance(want, np.ndarray):
                            assert got.dtype == want.dtype, field
                            np.testing.assert_array_equal(got, want, err_msg=field)
                        else:
                            assert got == want, field

    def test_layout_memo_is_shared_across_candidates(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="affine")
        candidates = small_candidates(op, count=6)
        engine.evaluate_batch(candidates)
        distinct_pe_signatures = {
            tuple(str(e) for e in c.pe_exprs) for c in candidates
        }
        # One layout per (space signature, tensor), not per candidate.
        assert len(engine.backend._layout_memo) <= len(distinct_pe_signatures) * 3


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
        assert engine.stats["fused_path"] > 0
        assert engine.stats["compiled_path"] == 0

    def test_fused_splits_mixed_reference_layouts_between_kernels(self):
        # jacobi2d mixes per-tensor layouts: the multi-reference stencil input
        # cannot use the fused kernel (it needs collapsed single-reference
        # blocks) and must chain to the affine kernels, while the
        # single-reference output still fuses — bit-identically either way.
        op = jacobi2d(10, 10)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        reference = EvaluationEngine(op, arch, cache=RelationCache(), backend="interp")
        for candidate in small_candidates(op, count=3):
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["fused_path"] > 0
        assert engine.stats["compiled_path"] + engine.stats["reference_path"] > 0

    @pytest.mark.parametrize("backend", ["fused", "auto"])
    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "2d-multicast"])
    @pytest.mark.parametrize("temporal_interval", [1, 3])
    def test_ragged_conv_layouts_take_the_fused_kernel(
        self, backend, interconnect, temporal_interval
    ):
        # Conv boundaries leave (PE, element) groups of unequal size; the
        # fused kernel pads them to the largest block instead of handing the
        # tensor to the compiled kernel.
        op = conv2d(2, 3, 6, 6, 3, 3)
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend=backend,
            temporal_interval=temporal_interval,
        )
        reference = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="interp",
            temporal_interval=temporal_interval,
        )
        for candidate in small_candidates(op):
            assert report_dict(reference.evaluate(candidate)) == report_dict(
                engine.evaluate(candidate)
            )
        assert engine.stats["compiled_path"] == 0
        assert engine.stats["fused_path"] > 0

    def test_fused_layout_pads_ragged_blocks(self):
        from repro.core.backends.fused import FusedLayout

        op = conv2d(2, 3, 6, 6, 3, 3)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**6)
        ragged = []
        for candidate in small_candidates(op):
            pe_lin, _ = engine.materializer.stamps(
                relations, candidate.bind(op), arch.pe_array
            )
            for rel in relations.tensors.values():
                layout = build_group_layout(
                    pe_lin, rel, engine._predecessor_table,
                    engine._spacetime.spatial_interval,
                )
                fused = FusedLayout(layout)
                assert fused.usable
                sizes = np.bincount(layout.dense_sorted)
                assert fused.block == sizes.max()
                if fused.real is not None:
                    ragged.append(fused)
                    assert fused.size == layout.group_count * fused.block > fused.pairs
                    assert int(fused.real.sum()) == fused.pairs
                    real_rows = fused.real.reshape(layout.group_count, fused.block)
                    np.testing.assert_array_equal(real_rows.sum(axis=1), sizes)
        assert ragged

    def test_fused_layout_refuses_padding_past_twice_the_pairs(self):
        from repro.core.backends.affine import GroupLayout
        from repro.core.backends.fused import FusedLayout

        def layout(sizes):
            dense = np.repeat(np.arange(len(sizes), dtype=np.int32), sizes)
            return GroupLayout(
                perm_mod=np.arange(dense.size, dtype=np.int32),
                dense_sorted=dense, dense_orig=dense, group_count=len(sizes),
                references=1, slot_valid=[], slot_delta=[], slot_delta_const=[],
                slot_src_group=[],
            )

        # 4 groups padded to 5 pairs each: 20 positions for 9 pairs.
        assert not FusedLayout(layout([1, 1, 2, 5])).usable
        # 4 groups padded to 4: exactly twice the 8 pairs still fuses.
        assert FusedLayout(layout([1, 1, 2, 4])).usable
        assert FusedLayout(layout([3, 3, 3])).real is None

    def test_fused_wide_interval_falls_back_to_reference(self):
        op = gemm(12, 12, 12)
        arch = make_arch(pe_dims=(4, 4))
        candidate = small_candidates(op)[0]
        reference = TenetAnalyzer(op, candidate, arch, temporal_interval=11).analyze()
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="fused", temporal_interval=11
        )
        assert report_dict(reference) == report_dict(engine.evaluate(candidate))
        assert engine.stats["fused_path"] == 0

    def test_spacetime_memo_replays_identical_stamp_content(self):
        # Shifting every time expression by a constant changes the structural
        # signature but not the rank order, so the second candidate's report
        # must come from the spacetime memo, renamed but otherwise identical.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        base = Dataflow.from_exprs(
            "base", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        )
        shifted = Dataflow.from_exprs(
            "shifted", op.domain.space, [i % 4, j % 4], [k + 3, i // 4, j // 4]
        )
        assert dataflow_signature(base) != dataflow_signature(shifted)
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        first = engine.evaluate(base)
        second = engine.evaluate(shifted)
        assert engine.stats["spacetime_hits"] == 1
        assert second.dataflow == "shifted"
        a, b = report_dict(first), report_dict(second)
        assert a.pop("dataflow") == "base" and b.pop("dataflow") == "shifted"
        assert a == b
        # The replayed report is still bit-identical to a fresh analysis.
        fresh = TenetAnalyzer(op, shifted, arch).analyze()
        c = report_dict(fresh)
        c.pop("dataflow")
        assert b == c

    def test_spacetime_memo_does_not_override_pruning(self):
        # Under early termination the memo is consulted only *after* the
        # lower-bound check: a candidate whose bound already loses must be
        # recorded as pruned (as interp/affine would), never replayed as a
        # report just because its spacetime map was evaluated earlier.
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        serial = Dataflow.from_exprs(
            "serial", op.domain.space, [i % 4, j % 4], [i, j, k]
        )
        serial_twin = Dataflow.from_exprs(
            "serial-twin", op.domain.space, [i % 4, j % 4], [i, j, k + 1]
        )
        fast = Dataflow.from_exprs(
            "fast", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        )
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        batch = engine.evaluate_batch(
            [serial, fast, serial_twin],
            objective="latency", early_termination=True,
        )
        by_name = {outcome.name: outcome for outcome in batch.outcomes}
        assert by_name["serial"].report is not None
        assert by_name["fast"].report is not None
        # The twin shares serial's exact spacetime map (memoised), but its
        # compute-delay bound exceeds fast's latency: pruned, not replayed.
        assert by_name["serial-twin"].pruned
        assert engine.stats["spacetime_hits"] == 0

    def test_spacetime_memo_skipped_under_validation(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        base = Dataflow.from_exprs(
            "base", op.domain.space, [i % 4, j % 4], [k, i // 4, j // 4]
        )
        shifted = Dataflow.from_exprs(
            "shifted", op.domain.space, [i % 4, j % 4], [k + 3, i // 4, j // 4]
        )
        engine = EvaluationEngine(
            op, arch, cache=RelationCache(), backend="fused", validate=True
        )
        engine.evaluate(base)
        engine.evaluate(shifted)
        assert engine.stats["spacetime_hits"] == 0

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

    def test_fused_provider_stacks_whole_batch_into_one_window(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend="fused")
        relations = engine.materializer.relations(10**7)
        candidates = small_candidates(op, count=12)
        provider = engine.backend.prepare_batch(relations, candidates, arch.pe_array)
        provider._ensure_window(0)
        # One stacked evaluation covers every candidate: the affine provider
        # would have split this batch into several matmul windows.
        assert provider._window == (0, len(candidates))

    def test_auto_is_fused_with_bitset(self):
        from repro.core.backends import FusedBackend

        op = gemm(8, 8, 8)
        engine = EvaluationEngine(op, make_arch(pe_dims=(4, 4)), backend="auto")
        assert isinstance(engine.backend, FusedBackend)
        assert engine.backend.bitset_mode == "auto"
        assert engine.backend.name == "auto"


class TestRegistry:
    def test_unknown_backend_rejected(self):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError):
            EvaluationEngine(op, make_arch(pe_dims=(4, 4)), backend="gpu")

    def test_backend_names_constructible(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        for name in BACKEND_NAMES:
            engine = EvaluationEngine(op, arch, backend=name)
            assert engine.backend.name == name
            assert engine.backend_name == name


class TestFusedBaseline:
    """The array-API fused backend against the committed pre-refactor reports.

    ``tests/core/data/fused_baseline.json`` was generated by the fused
    backend *before* the array-namespace port; these tests pin the refactor
    to bit-identical output (round-tripped through JSON, exactly like the
    fixture) on every namespace in the matrix.
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
    @pytest.mark.parametrize("device", NAMESPACE_PARAMS)
    def test_fused_matches_pre_refactor_baseline(self, case, device):
        import json

        make_op, interconnect = self.CASES[case]
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, backend="fused", device=device)
        candidates = pruned_candidates(
            op, pe_dims=(4, 4), allow_packing=True, max_candidates=8
        )
        fresh = {c.name: report_dict(engine.evaluate(c)) for c in candidates}
        assert json.loads(json.dumps(fresh)) == self._baseline()[case]
        assert engine.stats["fused_path"] > 0
