"""End-to-end checks of the analyzer against the paper's worked examples."""

import pytest

from repro.arch import ArchSpec, Mesh, Multicast1D, PEArray, Systolic2D
from repro.core import Dataflow, TenetAnalyzer, analyze
from repro.errors import DataflowError
from repro.tensor import conv1d, gemm


@pytest.fixture(scope="module")
def figure3_report():
    """GEMM 2x2x4 on a 2x2 systolic array: the running example of Figure 3."""
    op = gemm(2, 2, 4)
    dataflow = Dataflow.from_exprs("(IJ-P | J,IJK-T)", op, ["i", "j"], ["i + j + k"])
    arch = ArchSpec(pe_array=PEArray((2, 2)), interconnect=Systolic2D(), name="2x2")
    return analyze(op, dataflow, arch)


class TestFigure3Volumes:
    def test_total_volume_equals_instances(self, figure3_report):
        for tensor in ("A", "B", "Y"):
            assert figure3_report.volumes[tensor].total == 16

    def test_input_a_moves_horizontally(self, figure3_report):
        volume = figure3_report.volumes["A"]
        assert volume.spatial_reuse == 8
        assert volume.temporal_reuse == 0
        assert volume.unique == 8

    def test_input_b_moves_vertically(self, figure3_report):
        volume = figure3_report.volumes["B"]
        assert volume.spatial_reuse == 8
        assert volume.unique == 8

    def test_output_is_stationary(self, figure3_report):
        volume = figure3_report.volumes["Y"]
        assert volume.temporal_reuse == 12
        assert volume.spatial_reuse == 0
        assert volume.unique == 4
        assert volume.reuse_factor == pytest.approx(4.0)

    def test_reuse_is_sum_of_temporal_and_spatial(self, figure3_report):
        for volume in figure3_report.volumes.values():
            assert volume.reuse == volume.temporal_reuse + volume.spatial_reuse

    def test_footprints(self, figure3_report):
        assert figure3_report.volumes["A"].footprint == 8
        assert figure3_report.volumes["Y"].footprint == 4


class TestFigure3LatencyUtilization:
    def test_time_stamps_and_compute_delay(self, figure3_report):
        assert figure3_report.utilization.num_time_stamps == 6
        assert figure3_report.latency.compute_delay == 6

    def test_average_and_max_utilization(self, figure3_report):
        assert figure3_report.average_pe_utilization == pytest.approx(16 / 24)
        assert figure3_report.max_pe_utilization == 1.0

    def test_latency_is_max_of_delays(self, figure3_report):
        latency = figure3_report.latency
        assert latency.latency == max(
            latency.compute_delay, latency.read_delay, latency.write_delay
        )

    def test_bandwidth_normalisation(self, figure3_report):
        bandwidth = figure3_report.bandwidth
        assert bandwidth["Y"].scratchpad_words_per_cycle == pytest.approx(4 / 6)
        assert bandwidth["A"].interconnect_words_per_cycle == pytest.approx(8 / 6)

    def test_energy_is_positive_and_dram_dominated(self, figure3_report):
        energy = figure3_report.energy
        assert energy.total_pj > 0
        assert energy.dram_pj > energy.noc_pj


class TestFigure1Example:
    def test_skewed_access_reuse_is_six(self):
        op = conv1d(4, 3)
        dataflow = Dataflow.from_exprs("fig1", op, ["i"], ["j"])
        arch = ArchSpec(pe_array=PEArray((4,)), interconnect=Mesh(), name="1d-mesh")
        report = analyze(op, dataflow, arch)
        assert report.volumes["A"].total == 12
        assert report.volumes["A"].reuse == 6
        assert report.volumes["A"].unique == 6

    def test_without_interconnect_reuse_drops(self):
        from repro.arch import NoInterconnect

        op = conv1d(4, 3)
        dataflow = Dataflow.from_exprs("fig1", op, ["i"], ["j"])
        arch = ArchSpec(pe_array=PEArray((4,)), interconnect=NoInterconnect())
        report = analyze(op, dataflow, arch)
        assert report.volumes["A"].spatial_reuse == 0


class TestAnalyzerBehaviour:
    def test_out_of_range_dataflow_raises(self):
        op = gemm(16, 16, 4)
        dataflow = Dataflow.from_exprs("broken", op, ["i", "j"], ["k"])
        arch = ArchSpec(pe_array=PEArray((8, 8)))
        with pytest.raises(DataflowError, match="outside"):
            TenetAnalyzer(op, dataflow, arch).analyze()

    def test_non_injective_dataflow_gets_note_and_longer_delay(self):
        op = gemm(8, 8, 4)
        dataflow = Dataflow.from_exprs("collide", op, ["i", "j"], ["0"])
        arch = ArchSpec(pe_array=PEArray((8, 8)))
        report = analyze(op, dataflow, arch)
        assert report.latency.compute_delay == 4  # 4 k-instances share each stamp
        assert any("not injective" in note for note in report.notes)

    def test_max_instances_cap(self):
        op = gemm(64, 64, 64)
        dataflow = Dataflow.from_exprs("x", op, ["i mod 8", "j mod 8"],
                                       ["fl(i/8)", "fl(j/8)", "k"])
        arch = ArchSpec()
        with pytest.raises(Exception):
            analyze(op, dataflow, arch, max_instances=1000)

    def test_report_serialisation(self, figure3_report):
        data = figure3_report.as_dict()
        assert data["operation"] == "GEMM"
        assert "volumes" in data and "A" in data["volumes"]
        assert "latency_cycles" in data

    def test_summary_mentions_dataflow(self, figure3_report):
        assert "(IJ-P | J,IJK-T)" in figure3_report.summary()

    def test_multicast_gives_same_cycle_reuse(self):
        op = gemm(8, 8, 8)
        dataflow = Dataflow.from_exprs("(IJ-P | K-T)", op, ["i", "j"], ["k"])
        arch = ArchSpec(pe_array=PEArray((8, 8)), interconnect=Multicast1D(reach=7))
        report = analyze(op, dataflow, arch)
        # A[i,k] is broadcast along each row (shared across j) in the same cycle.
        assert report.volumes["A"].spatial_reuse > 0
