"""Tests for the data-centric notation and the polynomial baseline model."""

import pytest

from repro.errors import ModelError
from repro.experiments.common import make_arch
from repro.maestro import (
    Cluster,
    DataCentricMapping,
    MaestroModel,
    SpatialMap,
    TemporalMap,
    default_mapping_for,
    mapping_to_dataflow,
)
from repro.tensor import conv1d, conv2d, gemm

from tests.core.test_dataflow import evaluators


@pytest.fixture()
def gemm_mapping():
    return DataCentricMapping("(K-P | I,J-T)", [SpatialMap("k"), TemporalMap("i"), TemporalMap("j")])


class TestDirectives:
    def test_levels_split_on_cluster(self):
        mapping = DataCentricMapping("clustered", [
            SpatialMap("k"), Cluster(8), SpatialMap("c"), TemporalMap("ox"),
        ])
        assert len(mapping.levels) == 2
        assert mapping.cluster_sizes == [8]

    def test_spatial_and_temporal_dims(self, gemm_mapping):
        assert gemm_mapping.spatial_dims() == ["k"]
        assert gemm_mapping.temporal_dims() == ["i", "j"]
        assert gemm_mapping.innermost_temporal_dim() == "j"

    def test_validate_against_unknown_dim(self, gemm_mapping):
        with pytest.raises(ModelError):
            gemm_mapping.validate_against(["a", "b"])

    def test_empty_mapping_rejected(self):
        with pytest.raises(ModelError):
            DataCentricMapping("empty", [])

    def test_str_matches_table3_style(self, gemm_mapping):
        text = str(gemm_mapping)
        assert "SpatialMap(1,1) K" in text


class TestPolynomialModel:
    def test_figure1_overestimate(self):
        """The motivating example: data-centric reuse of A is 8, not the true 6."""
        op = conv1d(4, 3)
        mapping = DataCentricMapping("fig1", [SpatialMap("i"), TemporalMap("j")])
        report = MaestroModel(num_pes=4).analyze(op, mapping)
        estimate = report.tensors["A"]
        assert estimate.total_accesses == 12
        assert estimate.total_accesses - estimate.unique_volume == pytest.approx(8)

    def test_output_never_reused(self):
        op = gemm(8, 8, 8)
        mapping = DataCentricMapping("x", [SpatialMap("k"), TemporalMap("i"), TemporalMap("j")])
        report = MaestroModel(num_pes=64).analyze(op, mapping)
        assert report.tensors["Y"].reuse_factor == 1.0

    def test_used_pes_bounded_by_array(self):
        op = gemm(256, 8, 8)
        mapping = DataCentricMapping("x", [SpatialMap("i"), TemporalMap("j"), TemporalMap("k")])
        report = MaestroModel(num_pes=64).analyze(op, mapping)
        assert report.used_pes == 64
        assert report.average_pe_utilization == 1.0

    def test_latency_is_max_of_delays(self, gemm_mapping):
        op = gemm(16, 16, 16)
        report = MaestroModel(num_pes=16, bandwidth_bits_per_cycle=32).analyze(op, gemm_mapping)
        assert report.latency_cycles == max(
            report.compute_delay, report.read_delay, report.write_delay
        )

    def test_runs_in_microseconds(self, gemm_mapping):
        op = gemm(64, 64, 64)
        report = MaestroModel(num_pes=64).analyze(op, gemm_mapping)
        assert report.analysis_seconds < 0.05

    def test_conv_input_reuse_overestimated_vs_filter(self):
        op = conv2d(8, 8, 7, 7, 3, 3)
        mapping = DataCentricMapping("conv", [
            SpatialMap("k"), TemporalMap("c"), TemporalMap("oy"), TemporalMap("ox"),
            TemporalMap("ry"), TemporalMap("rx"),
        ])
        report = MaestroModel(num_pes=64).analyze(op, mapping)
        # The halo coupling (ox+rx, oy+ry) is dropped, so rx becomes "irrelevant"
        # and the input reuse is credited the filter extent as well as K.
        assert report.tensors["A"].reuse_factor >= 8  # at least the spatial K broadcast

    def test_invalid_pe_count(self):
        with pytest.raises(ModelError):
            MaestroModel(num_pes=0)


class TestConversion:
    def test_mapping_to_dataflow_equivalence(self, gemm_mapping):
        op = gemm(16, 16, 128)
        dataflow = mapping_to_dataflow(gemm_mapping, op, pe_dims=(64,))
        pe, time = dataflow.stamp_of((3, 4, 70))
        assert pe == (70 % 64,)
        # unmapped/fold dims appear before the temporal dims i, j
        assert time[-2:] == (3, 4)

    def test_mapping_to_dataflow_validates(self, gemm_mapping):
        # In range on the 64-PE array (no DataflowError) and injective, on
        # the analyzer and both engine backends.
        op = gemm(16, 16, 16)
        dataflow = mapping_to_dataflow(gemm_mapping, op, pe_dims=(64,))
        for evaluate in evaluators(op, make_arch(pe_dims=(64,))):
            assert evaluate(dataflow).utilization.is_injective

    def test_cluster_mapping_rejected(self):
        op = conv2d(8, 8, 7, 7, 3, 3)
        mapping = DataCentricMapping("clustered", [
            SpatialMap("k"), Cluster(8), SpatialMap("c"), TemporalMap("ox"),
        ])
        with pytest.raises(ModelError):
            mapping_to_dataflow(mapping, op, pe_dims=(8, 8))

    def test_too_many_spatial_maps_rejected(self):
        op = gemm(8, 8, 8)
        mapping = DataCentricMapping("threespatial", [
            SpatialMap("i"), SpatialMap("j"), SpatialMap("k"),
        ])
        with pytest.raises(ModelError):
            mapping_to_dataflow(mapping, op, pe_dims=(8, 8))

    def test_default_mapping_lookup(self):
        mapping = default_mapping_for("gemm", "(K-P | I,J-T)")
        assert mapping.spatial_dims() == ["k"]
        with pytest.raises(ModelError):
            default_mapping_for("gemm", "(IJ-P | J,IJK-T)")
