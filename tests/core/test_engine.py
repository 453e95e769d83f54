"""Tests for the shared evaluation engine (repro.core.engine)."""

import gc
import weakref

import numpy as np
import pytest

from repro.core import Dataflow
from repro.core.analyzer import TenetAnalyzer
from repro.core.backends import BACKEND_NAMES
from repro.core.engine import (
    EvaluationEngine,
    RelationCache,
    RelationMaterializer,
    TensorRelations,
    _grouped_volume_metrics,
    _rank_keys,
    _utilization_dense,
    dataflow_signature,
    op_signature,
    time_ranks,
)
from repro.core.spacetime import SpacetimeMap
from repro.core.utilization import compute_utilization
from repro.core.volumes import compute_volume_metrics
from repro.dataflows.catalog import get_dataflow
from repro.errors import DataflowError, ExplorationError, ModelError
from repro.experiments.common import make_arch
from repro.dse.pruning import pruned_candidates
from repro.isl.enumeration import sorted_unique
from repro.isl.expr import var
from repro.tensor.kernels import conv2d, gemm, jacobi2d

from tests.core.test_backends import INTERCONNECTS, triangular_gemm


def report_dict(report):
    """Comparable view of a report: everything except the wall-clock field."""
    data = report.as_dict()
    data.pop("analysis_seconds")
    data["notes"] = list(report.notes)
    return data


def small_candidates(op, pe_dims=(4, 4), count=6):
    return list(pruned_candidates(op, pe_dims=pe_dims, allow_packing=True,
                                  max_candidates=count))


class TestSignatures:
    def test_dataflow_signature_ignores_name(self):
        op = gemm(8, 8, 8)
        a = Dataflow.from_exprs("one", op.domain.space, ["i mod 4", "j mod 4"], ["k"])
        b = Dataflow.from_exprs("two", op.domain.space, ["i mod 4", "j mod 4"], ["k"])
        assert dataflow_signature(a) == dataflow_signature(b)

    def test_dataflow_signature_separates_structures(self):
        op = gemm(8, 8, 8)
        a = Dataflow.from_exprs("d", op.domain.space, ["i mod 4", "j mod 4"], ["k"])
        b = Dataflow.from_exprs("d", op.domain.space, ["j mod 4", "i mod 4"], ["k"])
        assert dataflow_signature(a) != dataflow_signature(b)

    def test_op_signature_depends_on_sizes(self):
        assert op_signature(gemm(8, 8, 8)) != op_signature(gemm(8, 8, 16))


class TestMaterializer:
    @pytest.mark.parametrize("make_op", [
        lambda: gemm(12, 12, 12),
        lambda: conv2d(4, 4, 6, 6, 3, 3),
        lambda: jacobi2d(10, 12),
        lambda: triangular_gemm(8),
    ], ids=["gemm", "conv2d", "jacobi2d", "tri-gemm"])
    def test_cached_materialisation_matches_streaming(self, make_op):
        # Box domains build their element keys per axis, the triangle
        # through the interpreter: both equal the streaming keys.
        op = make_op()
        arch = make_arch(pe_dims=(4, 4))
        dataflow = small_candidates(op)[0].bind(op)
        pe_a, tr_a, keys_a, ext_a = RelationMaterializer(op).materialize(
            dataflow, arch.pe_array, 10**7
        )
        cached = RelationMaterializer(op, cache=RelationCache())
        relations = cached.relations(10**7)
        pe_b, tr_b = cached.stamps(relations, dataflow, arch.pe_array)
        np.testing.assert_array_equal(pe_a, pe_b)
        np.testing.assert_array_equal(tr_a, tr_b)
        assert ext_a == {t: rel.extent for t, rel in relations.tensors.items()}
        assert keys_a.keys() == relations.tensors.keys()
        for tensor, rel in relations.tensors.items():
            assert len(keys_a[tensor]) == len(rel.raw_keys)
            for ref_a, ref_b in zip(keys_a[tensor], rel.raw_keys):
                np.testing.assert_array_equal(ref_a, ref_b)

    @pytest.mark.parametrize("make_op", [
        lambda: gemm(12, 10, 8),
        lambda: conv2d(4, 4, 6, 6, 3, 3),
        lambda: jacobi2d(10, 12),
    ], ids=["gemm", "conv2d", "jacobi2d"])
    def test_dense_keys_and_footprints_equal_sorted_unique(self, make_op):
        relations = RelationMaterializer(make_op(), cache=RelationCache()).relations(10**7)
        for rel in relations.tensors.values():
            combined = np.concatenate(rel.raw_keys)
            unique = sorted_unique(combined)
            np.testing.assert_array_equal(
                rel.dense_keys, np.searchsorted(unique, combined)
            )
            assert rel.footprint == unique.size

    def test_chunk_size_does_not_key_the_cache(self):
        cache = RelationCache()
        first = RelationMaterializer(gemm(8, 8, 8), chunk_size=7, cache=cache)
        second = RelationMaterializer(gemm(8, 8, 8), cache=cache)
        assert first.relations(10**6) is second.relations(10**6)
        assert len(cache) == 1

    def test_cache_is_shared_across_materializers(self):
        op = gemm(8, 8, 8)
        cache = RelationCache()
        first = RelationMaterializer(op, cache=cache)
        second = RelationMaterializer(op, cache=cache)
        assert first.relations(10**6) is second.relations(10**6)
        assert cache.stats()["hits"] >= 1

    def test_cache_eviction(self):
        cache = RelationCache(max_entries=1)
        for size in (4, 6):
            RelationMaterializer(gemm(size, size, size), cache=cache).relations(10**6)
        assert len(cache) == 1

    def test_cache_evicts_least_recently_used(self):
        cache = RelationCache(max_entries=2)
        ops = [gemm(size, size, size) for size in (4, 5, 6)]
        for op in ops[:2]:
            RelationMaterializer(op, cache=cache).relations(10**6)
        # Touch the first entry so the second becomes the eviction victim.
        RelationMaterializer(ops[0], cache=cache).relations(10**6)
        RelationMaterializer(ops[2], cache=cache).relations(10**6)
        assert len(cache) == 2
        hits_before = cache.hits
        RelationMaterializer(ops[0], cache=cache).relations(10**6)
        assert cache.hits == hits_before + 1  # survivor
        RelationMaterializer(ops[1], cache=cache).relations(10**6)  # evicted: rebuilt
        assert cache.misses >= 4

    def test_cache_byte_budget_eviction(self):
        # A tiny byte budget keeps at most one entry regardless of max_entries.
        cache = RelationCache(max_entries=8, max_bytes=1)
        for size in (4, 6):
            RelationMaterializer(gemm(size, size, size), cache=cache).relations(10**6)
        assert len(cache) == 1

    def test_cache_stats_counts_hits_and_misses(self):
        cache = RelationCache()
        materializer = RelationMaterializer(gemm(6, 6, 6), cache=cache)
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}
        materializer.relations(10**6)
        materializer.relations(10**6)
        materializer.relations(10**6)
        stats = cache.stats()
        assert stats["entries"] == 1
        assert stats["misses"] == 1
        assert stats["hits"] == 2

    @pytest.mark.parametrize("make_op", [
        lambda: gemm(16, 16, 16),
        lambda: triangular_gemm(16),
    ], ids=["gemm", "tri-gemm"])
    def test_relations_past_the_cap_raise(self, make_op):
        op = make_op()
        cache = RelationCache()
        with pytest.raises(ModelError, match="cap of 100 instances"):
            RelationMaterializer(op, cache=cache).relations(100)
        assert len(cache) == 0
        RelationMaterializer(op, cache=cache).relations(10**7)
        # A cached entry is refused to a caller with a lower cap too.
        with pytest.raises(ModelError, match="cap of 100 instances"):
            RelationMaterializer(op, cache=cache).relations(100)


class TestFastHelpers:
    def test_rank_keys_matches_searchsorted(self):
        rng = np.random.default_rng(7)
        cases = [np.array([-1, 0, 1]), np.array([-5, -5, -2, -9])]
        for low, high in ((0, 50), (0, 10**7), (-50, 0), (-30, 30), (-10**7, 10**7),
                          (10**9, 10**9 + 40)):
            cases.append(rng.integers(low, high, size=2000))
        # Keys that cover their range are their own rank.
        cases += [np.arange(50)[::-1], rng.permutation(1000) - 7]
        for keys in cases:
            expected = np.searchsorted(sorted_unique(keys), keys)
            np.testing.assert_array_equal(_rank_keys(keys), expected)

    @pytest.mark.parametrize("scale", [1, 1 << 40])
    def test_time_ranks_are_lexicographic(self, scale):
        # At scale 2^40 the mixed-radix key of three columns needs about
        # 2^126 values, far past int64; the ranks stay lexicographic.
        rng = np.random.default_rng(3)
        columns = [scale * rng.integers(-5, 5, size=500) for _ in range(3)]
        bounds = [(-5 * scale, 4 * scale)] * 3
        _, expected = np.unique(np.stack(columns, axis=1), axis=0, return_inverse=True)
        np.testing.assert_array_equal(
            time_ranks(columns, bounds, 500), expected.reshape(-1)
        )

    def test_utilization_dense_matches_reference(self):
        rng = np.random.default_rng(11)
        pe = rng.integers(0, 16, size=3000)
        time_key = rng.integers(0, 40, size=3000)
        t_rank = _rank_keys(time_key)
        dense = _utilization_dense(pe, t_rank, 16)
        reference = compute_utilization(pe, t_rank, 16)
        assert dense == reference


def tensor_relations(elements: np.ndarray) -> TensorRelations:
    """One single-reference tensor's cached relations over ``elements``."""
    dense = _rank_keys(elements)
    return TensorRelations(
        raw_keys=[elements], dense_keys=dense,
        extent=int(elements.max()) + 1, footprint=int(dense.max()) + 1,
    )


class TestGroupMajorKernel:
    """``_grouped_volume_metrics`` on raw assignment arrays.  In its
    ``((pe, element), rank)`` key layout a temporal predecessor is the key
    one below, which only the previous sorted key can be; a rank-0 key one
    above another is the start of a new group, not reuse."""

    def test_a_group_start_after_the_previous_groups_last_rank_is_not_reuse(self):
        # PE 0 holds element 0 at rank 2 (key 2) and element 1 at rank 0
        # (key 3): adjacent keys, but nothing stays in a register across them.
        pe_lin = np.array([0, 0, 1], dtype=np.int64)
        t_rank = np.array([2, 0, 1], dtype=np.int64)
        relations = tensor_relations(np.array([0, 1, 1], dtype=np.int64))
        metrics = _grouped_volume_metrics(
            "A", pe_lin, t_rank, relations, np.full((2, 1), -1), 2, spatial_interval=1,
        )
        assert (metrics.total, metrics.temporal_reuse, metrics.reuse) == (3, 0, 0)

    @pytest.mark.parametrize("interconnect", INTERCONNECTS)
    def test_counts_equal_the_reference_kernel(self, interconnect):
        # Few ranks and elements make adjacent keys across groups common;
        # stamps shared by several instances (not injective) are allowed.
        arch = make_arch(pe_dims=(2, 3), interconnect=interconnect)
        spacetime = SpacetimeMap(arch.pe_array, arch.interconnect)
        table = spacetime.predecessor_table()
        rng = np.random.default_rng(len(interconnect))
        for _ in range(40):
            size = int(rng.integers(1, 80))
            pe_lin = rng.integers(0, 6, size=size)
            t_rank = _rank_keys(rng.integers(0, 5, size=size))
            relations = tensor_relations(rng.integers(0, 4, size=size))
            grouped = _grouped_volume_metrics(
                "A", pe_lin, t_rank, relations, table, 6,
                spatial_interval=spacetime.spatial_interval,
            )
            reference = compute_volume_metrics(
                "A", pe_lin, t_rank, relations.dense_keys, table, 6,
                spatial_interval=spacetime.spatial_interval,
            )
            assert grouped == reference


class TestEngineReports:
    @pytest.mark.parametrize("make_op", [
        lambda: gemm(16, 16, 16),
        lambda: conv2d(6, 6, 5, 5, 3, 3),
    ], ids=["gemm", "conv2d"])
    @pytest.mark.parametrize("interconnect", ["2d-systolic", "mesh", "multicast"])
    def test_cached_reports_equal_uncached(self, make_op, interconnect):
        op = make_op()
        arch = make_arch(pe_dims=(4, 4), interconnect=interconnect)
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        for candidate in small_candidates(op):
            uncached = TenetAnalyzer(op, candidate, arch).analyze()
            cached = engine.evaluate(candidate)
            assert report_dict(uncached) == report_dict(cached)

    def test_non_injective_dataflow_equal_reports(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        collapsing = Dataflow.from_exprs(
            "collapse", op.domain.space, ["i mod 4", "j mod 4"], ["k mod 4"]
        )
        uncached = TenetAnalyzer(op, collapsing, arch).analyze()
        cached = EvaluationEngine(op, arch, cache=RelationCache()).evaluate(collapsing)
        assert report_dict(uncached) == report_dict(cached)
        assert any("not injective" in note for note in cached.notes)

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_grouped_kernel_refusal_falls_back_to_reference(self, backend, monkeypatch):
        # When the group-major kernel refuses (its key layout would pass
        # int64) the engine's reference kernel counts the tensor; reports
        # still match the analyzer.  Without a stamp grid the fused backend
        # reaches the group-major kernel too.
        import repro.core.backends.fused as fused_module
        import repro.core.engine as engine_module

        monkeypatch.setattr(engine_module, "_grouped_volume_metrics", lambda *a, **k: None)
        monkeypatch.setattr(fused_module, "stamp_grid", lambda *a, **k: None)
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        candidate = small_candidates(op)[0]
        uncached = TenetAnalyzer(op, candidate, arch).analyze()
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        assert report_dict(uncached) == report_dict(engine.evaluate(candidate))
        assert engine.stats["reference_path"] > 0
        assert engine.stats["fast_path"] == 0

    def test_memo_hit_returns_identical_report(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        candidate = small_candidates(op)[0]
        first = engine.evaluate(candidate)
        renamed = Dataflow(
            "other-name", candidate.space_map, candidate.time_map
        )
        second = engine.evaluate(renamed)
        assert second is first
        assert engine.stats["memo_hits"] == 1

    def test_out_of_range_candidate_raises_dataflow_error(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        bad = Dataflow.from_exprs("bad", op.domain.space, ["i", "j"], ["k"])
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        with pytest.raises(DataflowError):
            engine.evaluate(bad)

    def test_instance_cap_raises_model_error(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, max_instances=10)
        with pytest.raises(ModelError):
            engine.evaluate(small_candidates(op)[0])

    def test_default_cap_refuses_an_op_before_building_it(self):
        # 9,000,000 instances, past the default cap: the engine refuses the op
        # before it materialises anything, so no engine holds more than the
        # cap in its relation cache.
        op = gemm(300, 300, 100)
        cache = RelationCache()
        engine = EvaluationEngine(op, make_arch(pe_dims=(4, 4)), cache=cache)
        dataflow = Dataflow.from_exprs(
            "d", op.domain.space, ["i mod 4", "j mod 4"], ["fl(i/4)", "fl(j/4)", "k"]
        )
        with pytest.raises(ModelError, match="above the analyzer cap of 8000000"):
            engine.evaluate(dataflow)
        assert cache.stats() == {"entries": 0, "hits": 0, "misses": 0}


class TestBatchEvaluation:
    def test_batch_preserves_candidate_order(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        candidates = small_candidates(op, count=5)
        batch = EvaluationEngine(op, arch, cache=RelationCache()).evaluate_batch(candidates)
        assert [outcome.name for outcome in batch.outcomes] == [c.name for c in candidates]

    def test_batch_records_mismatched_dims_as_failure(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        wrong_space = Dataflow.from_exprs(
            "2d-candidate", conv2d(4, 4, 4, 4, 3, 3).domain.space,
            ["k mod 4", "c mod 4"], ["oy", "ox", "ry", "rx"],
        )
        good = small_candidates(op, count=1)[0]
        batch = EvaluationEngine(op, arch, cache=RelationCache()).evaluate_batch(
            [wrong_space, good]
        )
        assert len(batch.reports) == 1
        assert batch.failures and batch.failures[0][1].startswith("SpaceError")

    def test_batch_records_failures(self):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        bad = Dataflow.from_exprs("bad", op.domain.space, ["i", "j"], ["k"])
        good = Dataflow.from_exprs("good", op.domain.space, ["i mod 4", "j mod 4"],
                                   ["fl(i/4)", "fl(j/4)", "k"])
        batch = EvaluationEngine(op, arch, cache=RelationCache()).evaluate_batch([bad, good])
        assert len(batch.failures) == 1
        assert batch.failures[0][0] == "bad"
        assert len(batch.reports) == 1

    def test_unknown_objective_rejected(self):
        op = gemm(8, 8, 8)
        engine = EvaluationEngine(op, make_arch(pe_dims=(4, 4)))
        with pytest.raises(ExplorationError):
            engine.evaluate_batch(small_candidates(op, count=2), objective="beauty")

    def test_volume_lower_bounds_are_sound(self):
        # The registered bounds never exceed the true objective score, so
        # early termination can only skip provably-dominated candidates.
        from repro.core.engine import LOWER_BOUNDS, OBJECTIVES

        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        relations = engine.materializer.relations(10**6)
        footprints = {t: rel.footprint for t, rel in relations.tensors.items()}
        for candidate in small_candidates(op, count=8):
            report = engine.evaluate(candidate)
            for objective, bound_fn in LOWER_BOUNDS.items():
                bound = bound_fn(report.utilization, arch, footprints)
                assert bound <= OBJECTIVES[objective](report) + 1e-9, (
                    f"{objective} bound {bound} exceeds the true score for "
                    f"{candidate.name}"
                )

    def test_sbw_early_termination_prunes_and_preserves_best(self):
        # Once a long-delay, low-bandwidth candidate is known, the footprint
        # bound (divided by each candidate's compute delay) prunes the
        # highly-parallel candidates without changing the best report.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        from repro.isl.expr import var

        i, j, k = (var(dim) for dim in op.loop_dims)
        serial = Dataflow.from_exprs(
            "serial", op.domain.space, [i % 4, j % 4], [i, j, k]
        )
        candidates = [serial] + small_candidates(op, count=10)
        cache = RelationCache()
        full = EvaluationEngine(op, arch, cache=cache, memoize=False).evaluate_batch(
            candidates, objective="sbw"
        )
        pruned = EvaluationEngine(op, arch, cache=cache, memoize=False).evaluate_batch(
            candidates, objective="sbw", early_termination=True
        )
        score = lambda report: (report.scratchpad_bandwidth_bits(), report.dataflow)
        best_full = min(full.reports, key=score)
        best_pruned = min(pruned.reports, key=score)
        assert report_dict(best_full) == report_dict(best_pruned)
        assert len(pruned.pruned) > 0
        assert len(pruned.reports) + len(pruned.pruned) == len(candidates)
        # Every pruned bound provably exceeds the best fully evaluated score.
        best_score = best_full.scratchpad_bandwidth_bits()
        for _, bound in pruned.pruned:
            assert bound > best_score

    def test_sbw_rank_preservation_through_explorer(self):
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.isl.expr import var

        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        i, j, k = (var(dim) for dim in op.loop_dims)
        serial = Dataflow.from_exprs(
            "serial", op.domain.space, [i % 4, j % 4], [i, j, k]
        )
        candidates = [serial] + small_candidates(op, count=10)
        full = DesignSpaceExplorer(op, arch, objective="sbw").explore(candidates)
        pruned = DesignSpaceExplorer(op, arch, objective="sbw").explore(
            candidates, early_termination=True
        )
        assert pruned.best.dataflow == full.best.dataflow
        assert report_dict(pruned.best) == report_dict(full.best)
        assert len(pruned.pruned) > 0

    def test_early_termination_keeps_best_candidate(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        candidates = small_candidates(op, count=12)
        cache = RelationCache()
        full = EvaluationEngine(op, arch, cache=cache, memoize=False).evaluate_batch(
            candidates, objective="latency"
        )
        pruned = EvaluationEngine(op, arch, cache=cache, memoize=False).evaluate_batch(
            candidates, objective="latency", early_termination=True
        )
        best_full = min(full.reports, key=lambda r: (r.latency_cycles, r.dataflow))
        best_pruned = min(pruned.reports, key=lambda r: (r.latency_cycles, r.dataflow))
        assert report_dict(best_full) == report_dict(best_pruned)
        # Every pruned candidate's bound proves it cannot beat the best score.
        best_score = best_full.latency_cycles
        for _, bound in pruned.pruned:
            assert bound > best_score
        # Pruned + evaluated covers the whole batch.
        assert len(pruned.reports) + len(pruned.pruned) == len(candidates)


class TestPERankCheck:
    """A space stamp whose rank differs from the PE array's is always invalid.

    Stamp evaluation pairs PE extents with space-stamp expressions axis by
    axis, so without the check a 2-D stamp on a 1-D array kept only its first
    axis and one on a 3-D array left the third axis at zero.
    """

    CATALOG_2D = "(IJ-P | J,IJK-T)"

    @staticmethod
    def expected_error(rank):
        return (
            "DataflowError: dataflow '(IJ-P | J,IJK-T)' is invalid for GEMM: "
            f"space-stamp rank 2 does not match PE array rank {rank}"
        )

    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    @pytest.mark.parametrize("pe_dims", [(8,), (8, 8, 8)])
    def test_batch_records_rank_mismatch_as_invalid(self, backend, pe_dims):
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=pe_dims)
        mismatched = get_dataflow("gemm", self.CATALOG_2D)
        dims = op.loop_dims[: len(pe_dims)]
        matching = Dataflow.from_exprs(
            "matching-rank", op.domain.space,
            [f"{dim} mod {extent}" for dim, extent in zip(dims, pe_dims)],
            [f"fl({dim}/{extent})" for dim, extent in zip(dims, pe_dims)]
            + list(op.loop_dims[len(pe_dims):]),
        )
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        batch = engine.evaluate_batch([mismatched, matching])
        assert batch.failures == [
            (self.CATALOG_2D, self.expected_error(len(pe_dims)))
        ]
        assert [report.dataflow for report in batch.reports] == ["matching-rank"]
        assert engine.stats["failures"] == 1

    @pytest.mark.parametrize("pe_dims", [(8,), (8, 8, 8)])
    def test_analyzer_rejects_rank_mismatch(self, pe_dims):
        analyzer = TenetAnalyzer(
            gemm(8, 8, 8), get_dataflow("gemm", self.CATALOG_2D),
            make_arch(pe_dims=pe_dims),
        )
        with pytest.raises(DataflowError) as error:
            analyzer.analyze()
        assert f"DataflowError: {error.value}" == self.expected_error(len(pe_dims))


class TestStageProfile:
    def test_serial_stage_seconds_accumulate(self):
        op = gemm(12, 12, 12)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache())
        engine.evaluate_batch(small_candidates(op, count=4))
        profile = engine.profile()
        assert set(profile) >= {"materialise", "stamps", "utilization", "volumes", "rank"}
        assert profile["stamps"] > 0
        assert profile["volumes"] > 0
        assert profile["rank"] > 0
        # profile() returns a snapshot, not the live dict.
        profile["stamps"] = -1
        assert engine.stage_seconds["stamps"] >= 0


class TestGroupCountFloors:
    """The candidate-dependent unique-volume floor on link-free interconnects."""

    def _binary_candidates(self, op, count):
        import itertools

        from repro.dse.space import enumerate_binary_dataflows

        return list(itertools.islice(enumerate_binary_dataflows(op.loop_dims), count))

    def test_floor_is_sound_and_tighter_than_footprint(self):
        # Without links the distinct-(PE, element) group count never exceeds
        # the true unique volume, and it dominates the constant footprint.
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(16, 16), interconnect="none")
        engine = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
        assert not engine._has_links
        relations = engine.materializer.relations(10**7)
        checked = 0
        for candidate in self._binary_candidates(op, 40):
            try:
                report = engine.evaluate(candidate)
            except (ModelError, DataflowError):
                continue
            stamps = engine.backend.stamps(relations, candidate.bind(op), arch.pe_array)
            floors = engine._group_count_floors(stamps.pe_lin, relations)
            for tensor, floor in floors.items():
                assert floor <= report.volumes[tensor].unique
                assert floor >= relations.tensors[tensor].footprint
            checked += 1
        assert checked >= 10

    def test_unique_volume_sweep_prunes_and_preserves_rank(self):
        # ROADMAP "stronger volume bounds": the candidate-dependent floor
        # actually prunes unique_volume sweeps of the unpruned binary space,
        # and the surviving best report is bit-identical to the full sweep's.
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(16, 16), interconnect="none")
        candidates = self._binary_candidates(op, 120)
        cache = RelationCache()
        full = EvaluationEngine(op, arch, cache=cache, memoize=False).evaluate_batch(
            candidates, objective="unique_volume"
        )
        pruned = EvaluationEngine(op, arch, cache=cache, memoize=False).evaluate_batch(
            candidates, objective="unique_volume", early_termination=True
        )
        score = lambda r: (r.unique_volume(), r.dataflow)
        best_full = min(full.reports, key=score)
        best_pruned = min(pruned.reports, key=score)
        assert report_dict(best_full) == report_dict(best_pruned)
        assert len(pruned.pruned) > 0
        best_score = best_full.unique_volume()
        for _, bound in pruned.pruned:
            assert bound > best_score
        assert len(pruned.reports) + len(pruned.pruned) + len(pruned.failures) == len(
            candidates
        )

    def test_footprint_floor_kept_when_links_exist(self):
        # With links the group count is not a sound unique-volume floor (a
        # group's first access can be served spatially), so the engine keeps
        # the constant footprint floor — which can never prune candidates of
        # the operation it was derived from.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
        assert engine._has_links
        batch = engine.evaluate_batch(
            small_candidates(op, count=8),
            objective="unique_volume",
            early_termination=True,
        )
        assert not batch.pruned


class TestBatchBestScoreSeed:
    def test_seeded_best_score_prunes_first_batch(self):
        # Streaming callers thread the running best through batches: a seeded
        # best_score below every candidate's bound prunes the whole batch.
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        engine = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
        candidates = small_candidates(op, count=6)
        batch = engine.evaluate_batch(
            candidates, objective="latency", early_termination=True, best_score=0.5
        )
        assert len(batch.pruned) == len(candidates)

    def test_seed_matches_contiguous_sweep(self):
        # Evaluating [a; b] in one batch equals evaluating a then b with the
        # threaded best score (the SweepSession streaming contract).
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        candidates = small_candidates(op, count=10)
        whole = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
        one = whole.evaluate_batch(
            candidates, objective="latency", early_termination=True
        )
        split = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
        first = split.evaluate_batch(
            candidates[:4], objective="latency", early_termination=True
        )
        best = min(r.latency_cycles for r in first.reports)
        second = split.evaluate_batch(
            candidates[4:],
            objective="latency",
            early_termination=True,
            best_score=best,
        )
        merged = [(o.name, o.pruned, o.error) for o in first.outcomes + second.outcomes]
        assert merged == [(o.name, o.pruned, o.error) for o in one.outcomes]


class TestEngineLifecycle:
    @pytest.mark.parametrize("backend", BACKEND_NAMES)
    def test_closed_engine_is_freed_without_the_cyclic_gc(self, backend):
        # Backends copy what they read instead of holding their engine, so a
        # closed engine (and every memo in it) is freed by reference counting
        # alone, not only when the cyclic GC next runs.
        op = gemm(8, 8, 8)
        arch = make_arch(pe_dims=(4, 4))
        gc.collect()
        gc.disable()
        try:
            engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
            batch = engine.evaluate_batch(small_candidates(op))
            assert batch.reports
            engine.close()
            ref = weakref.ref(engine)
            del engine
            assert ref() is None
        finally:
            gc.enable()
