"""Tests for the design-space size computation, pruning and explorer."""

import pytest

from repro.dse import (
    DesignSpaceExplorer,
    data_centric_space_size,
    enumerate_binary_dataflows,
    paper_pruned_count,
    pruned_candidates,
    relation_centric_space_size,
)
from repro.errors import ExplorationError
from repro.experiments.common import make_arch
from repro.tensor import conv2d, gemm


class TestSpaceSizes:
    def test_gemm_sizes_match_paper(self):
        assert relation_centric_space_size(3) == 512
        assert data_centric_space_size(3) == 18
        assert relation_centric_space_size(3) // data_centric_space_size(3) == 28

    def test_conv_space_is_astronomically_larger(self):
        assert relation_centric_space_size(6) == 2 ** 36
        assert relation_centric_space_size(6) > data_centric_space_size(6)

    def test_enumeration_count_matches_formula(self):
        count = sum(1 for _ in enumerate_binary_dataflows(
            ["a", "b"], pe_rank=1, require_nonzero_rows=False))
        assert count == relation_centric_space_size(2)

    def test_enumeration_limit(self):
        dataflows = list(enumerate_binary_dataflows(["a", "b", "c"], limit=10))
        assert len(dataflows) == 10

    def test_enumerated_dataflows_are_well_formed(self):
        dataflow = next(enumerate_binary_dataflows(["i", "j", "k"]))
        assert dataflow.pe_rank == 2
        assert dataflow.time_rank == 1


class TestPruning:
    def test_paper_count(self):
        assert paper_pruned_count() == 25920

    def test_candidates_are_distinct_and_bounded(self):
        op = conv2d(8, 8, 5, 5, 3, 3)
        candidates = list(pruned_candidates(op, max_candidates=20))
        assert len(candidates) == 20
        assert len({c.name for c in candidates}) > 1

    def test_candidates_are_structurally_deduplicated(self):
        from repro.core.engine import dataflow_signature

        op = conv2d(8, 8, 5, 5, 3, 3)
        signatures = [
            dataflow_signature(c)
            for c in pruned_candidates(op, allow_packing=True)
        ]
        assert len(signatures) == len(set(signatures))

    @pytest.mark.parametrize("cap", [0, 1, 15])
    def test_cap_bounds_the_candidate_count(self, cap):
        # The cap is checked before a candidate is emitted, so 0 yields none.
        # gemm(8, 8, 8) on 8x8 PEs has 12 plain candidates, then 6 packed
        # ones: a cap of 15 stops inside the packed family.
        candidates = list(pruned_candidates(
            gemm(8, 8, 8), pe_dims=(8, 8), allow_packing=True, max_candidates=cap
        ))
        assert len(candidates) == cap

    def test_candidates_cover_skewed_and_plain(self):
        op = gemm(16, 16, 16)
        names = [c.name for c in pruned_candidates(op, max_candidates=30)]
        assert any("+skew" in name for name in names)
        assert any("+skew" not in name for name in names)


class TestExplorer:
    def test_explore_ranks_by_latency(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic")
        explorer = DesignSpaceExplorer(op, arch, objective="latency")
        result = explorer.explore(pruned_candidates(op, max_candidates=8))
        assert result.evaluated
        latencies = [report.latency_cycles for report in result.evaluated]
        assert latencies == sorted(latencies)
        assert result.best.latency_cycles == latencies[0]

    def test_invalid_candidates_are_recorded_not_fatal(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(4, 4))
        from repro.core import Dataflow

        bad = Dataflow.from_exprs("bad", op, ["i", "j"], ["k"])  # i, j exceed a 4x4 array
        good = Dataflow.from_exprs("good", op, ["i mod 4", "j mod 4"],
                                   ["fl(i/4)", "fl(j/4)", "k"])
        result = DesignSpaceExplorer(op, arch).explore([bad, good])
        assert len(result.failures) == 1
        assert len(result.evaluated) == 1

    def test_unknown_objective_rejected(self):
        op = gemm(8, 8, 8)
        with pytest.raises(ExplorationError):
            DesignSpaceExplorer(op, make_arch(), objective="beauty")

    def test_custom_objective(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8))
        explorer = DesignSpaceExplorer(op, arch, objective=lambda r: r.energy.total_pj)
        result = explorer.explore(pruned_candidates(op, max_candidates=4))
        energies = [report.energy.total_pj for report in result.evaluated]
        assert energies == sorted(energies)

    def test_empty_exploration_raises_on_best(self):
        op = gemm(8, 8, 8)
        result = DesignSpaceExplorer(op, make_arch()).explore([])
        with pytest.raises(ExplorationError):
            _ = result.best

    def test_summary_text(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8))
        result = DesignSpaceExplorer(op, arch).explore(pruned_candidates(op, max_candidates=3))
        assert "objective = latency" in result.summary()

    def test_equal_scores_tie_break_by_name(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8))
        result = DesignSpaceExplorer(op, arch).explore(pruned_candidates(op, max_candidates=12))
        ranking = [(r.latency_cycles, r.dataflow) for r in result.evaluated]
        assert ranking == sorted(ranking)

    def test_duplicate_candidates_are_skipped(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8))
        candidates = list(pruned_candidates(op, max_candidates=3))
        result = DesignSpaceExplorer(op, arch).explore(candidates + candidates)
        assert result.duplicates == 3
        assert len(result.evaluated) == 3
        assert result.num_candidates == 6

    def test_real_bugs_are_not_swallowed(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8))

        def broken_objective(report):
            raise TypeError("boom")

        explorer = DesignSpaceExplorer(op, arch, objective=broken_objective)
        with pytest.raises(TypeError):
            explorer.explore(pruned_candidates(op, max_candidates=2))

    def test_early_termination_keeps_best(self):
        op = gemm(16, 16, 16)
        arch = make_arch(pe_dims=(8, 8))
        candidates = list(pruned_candidates(op, max_candidates=10))
        full = DesignSpaceExplorer(op, arch).explore(candidates)
        pruned = DesignSpaceExplorer(op, arch).explore(candidates, early_termination=True)
        assert pruned.best.dataflow == full.best.dataflow
        assert pruned.best.latency_cycles == full.best.latency_cycles
        assert len(pruned.evaluated) + len(pruned.pruned) == len(full.evaluated)

    @pytest.mark.parametrize("backend", ["interp", "fused"])
    def test_dropped_explorer_frees_its_engine_without_the_cyclic_gc(self, backend):
        # A program that keeps creating explorers must not hold every
        # finished engine (relations, layouts, memos) until the cyclic GC runs.
        import gc
        import weakref

        op = gemm(8, 8, 8)
        candidates = list(pruned_candidates(op, pe_dims=(4, 4), max_candidates=6))
        gc.collect()
        gc.disable()
        try:
            explorer = DesignSpaceExplorer(op, make_arch(pe_dims=(4, 4)), backend=backend)
            result = explorer.explore(candidates)
            assert len(result.ranking) == len(candidates)
            ref = weakref.ref(explorer.engine)
            del explorer
            assert ref() is None
        finally:
            gc.enable()
