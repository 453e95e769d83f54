"""Tests for the Table III dataflow catalog."""

import pytest

from repro.dataflows import all_entries, dataflows_for, get_dataflow, get_entry
from repro.experiments.common import make_arch
from repro.tensor import conv2d, gemm, jacobi2d, mmc, mttkrp

from tests.core.test_dataflow import evaluators

OPERATIONS = {
    "gemm": gemm(16, 16, 16),
    "conv2d": conv2d(8, 8, 7, 7, 3, 3),
    "mttkrp": mttkrp(16, 16, 8, 8),
    "mmc": mmc(16, 16, 8, 8),
    "jacobi2d": jacobi2d(18, 18),
}


class TestCatalogStructure:
    def test_kernel_counts_match_table3(self):
        assert len(dataflows_for("gemm")) >= 5
        assert len(dataflows_for("conv2d")) >= 8
        assert len(dataflows_for("mttkrp")) == 3
        assert len(dataflows_for("jacobi2d")) == 2
        assert len(dataflows_for("mmc")) == 2

    def test_tenet_only_dataflows_exist(self):
        tenet_only = [e for e in all_entries() if not e.data_centric_expressible]
        assert len(tenet_only) >= 10

    def test_lookup_by_name(self):
        entry = get_entry("gemm", "(IJ-P | J,IJK-T)")
        assert entry.kernel == "gemm"
        assert not entry.data_centric_expressible

    def test_unknown_name_raises(self):
        with pytest.raises(KeyError):
            get_entry("gemm", "(ZZ-P | Q-T)")

    def test_data_centric_entries_have_directives(self):
        for entry in all_entries():
            if entry.data_centric_expressible:
                assert entry.data_centric_directives

    def test_str_mentions_expressibility(self):
        assert "TENET-only" in str(get_entry("gemm", "(IJ-P | J,IJK-T)"))


class TestCatalogDataflowsAreValid:
    @pytest.mark.parametrize("entry", all_entries(), ids=lambda e: f"{e.kernel}:{e.name}")
    def test_every_dataflow_is_valid_on_its_preferred_array(self, entry):
        # In range on its array (no DataflowError) and injective, on the
        # analyzer and both engine backends.
        op = OPERATIONS[entry.kernel]
        dataflow = entry.build()
        for evaluate in evaluators(op, make_arch(pe_dims=entry.preferred_pe_dims)):
            report = evaluate(dataflow)
            assert report.utilization.is_injective, report.notes

    def test_parameterised_pe_size(self):
        dataflow = get_dataflow("gemm", "(IJ-P | J,IJK-T)", rows=4, cols=4)
        pe, _ = dataflow.stamp_of((5, 6, 0))
        assert pe == (1, 2)

    def test_eyeriss_packing_formula(self):
        dataflow = get_dataflow("conv2d", "(RYOY-P | OY,OX-T)")
        pe, _ = dataflow.stamp_of((0, 5, 0, 3, 0, 2))  # k, c, ox, oy, rx, ry
        assert pe[0] == 2 + 3 * (5 % 4)
        assert pe[1] == 3
