"""Unit tests for the individual performance-model components."""

import numpy as np
import pytest

from repro.arch import Mesh, Multicast1D, PEArray, Systolic2D
from repro.arch.memory import MemoryHierarchy
from repro.core import Dataflow, SpacetimeMap
from repro.core.assignment import assignments_for
from repro.core.bandwidth import compute_bandwidth
from repro.core.latency import compute_latency
from repro.core.utilization import UtilizationMetrics, compute_utilization
from repro.core.volumes import VolumeMetrics, compute_volume_metrics
from repro.tensor import gemm


class TestVolumeMetricsDataclass:
    def test_unique_and_reuse_factor(self):
        volume = VolumeMetrics("A", total=16, reuse=8, temporal_reuse=2, spatial_reuse=6,
                               footprint=8)
        assert volume.unique == 8
        assert volume.reuse_factor == 2.0
        assert volume.temporal_reuse_fraction == pytest.approx(0.125)

    def test_fully_reused_tensor(self):
        volume = VolumeMetrics("Y", total=10, reuse=10, temporal_reuse=10, spatial_reuse=0,
                               footprint=1)
        assert volume.unique == 0
        assert volume.reuse_factor == 10.0

    def test_as_dict(self):
        volume = VolumeMetrics("A", 4, 2, 1, 1, 3)
        data = volume.as_dict()
        assert data["unique"] == 2 and data["tensor"] == "A"


class TestComputeVolumeMetrics:
    def test_pure_temporal_reuse(self):
        # one PE, 4 time stamps, always the same element
        pe = np.zeros(4, dtype=np.int64)
        rank = np.arange(4, dtype=np.int64)
        element = np.zeros(4, dtype=np.int64)
        table = np.full((1, 1), -1, dtype=np.int64)
        volume = compute_volume_metrics("Y", pe, rank, element, table, 1, spatial_interval=1)
        assert volume.total == 4
        assert volume.temporal_reuse == 3
        assert volume.spatial_reuse == 0
        assert volume.unique == 1

    def test_spatial_reuse_through_neighbour(self):
        # two PEs; PE1 uses at t+1 what PE0 used at t
        pe = np.array([0, 1], dtype=np.int64)
        rank = np.array([0, 1], dtype=np.int64)
        element = np.array([7, 7], dtype=np.int64)
        table = np.array([[-1], [0]], dtype=np.int64)  # PE1's predecessor is PE0
        volume = compute_volume_metrics("A", pe, rank, element, table, 2, spatial_interval=1)
        assert volume.spatial_reuse == 1
        assert volume.unique == 1

    def test_no_reuse_without_adjacency(self):
        pe = np.array([0, 1], dtype=np.int64)
        rank = np.array([0, 5], dtype=np.int64)  # too far apart in time
        element = np.array([7, 7], dtype=np.int64)
        table = np.array([[-1], [0]], dtype=np.int64)
        volume = compute_volume_metrics("A", pe, rank, element, table, 2, spatial_interval=1)
        assert volume.reuse == 0

    def test_multicast_same_cycle(self):
        pe = np.array([0, 1], dtype=np.int64)
        rank = np.array([3, 3], dtype=np.int64)
        element = np.array([9, 9], dtype=np.int64)
        table = np.array([[1], [0]], dtype=np.int64)
        volume = compute_volume_metrics("A", pe, rank, element, table, 2, spatial_interval=0)
        assert volume.spatial_reuse >= 1
        assert volume.unique == 1

    def test_duplicate_pairs_collapse(self):
        pe = np.array([0, 0], dtype=np.int64)
        rank = np.array([0, 0], dtype=np.int64)
        element = np.array([1, 1], dtype=np.int64)
        table = np.full((1, 1), -1, dtype=np.int64)
        volume = compute_volume_metrics("A", pe, rank, element, table, 1, spatial_interval=1)
        assert volume.total == 1

    def test_empty_input(self):
        empty = np.zeros(0, dtype=np.int64)
        table = np.full((1, 1), -1, dtype=np.int64)
        volume = compute_volume_metrics("A", empty, empty, empty, table, 1, spatial_interval=1)
        assert volume.total == 0 and volume.reuse_factor == 1.0


class TestUtilization:
    def test_injective_case(self):
        pe = np.array([0, 1, 0, 1], dtype=np.int64)
        rank = np.array([0, 0, 1, 1], dtype=np.int64)
        util = compute_utilization(pe, rank, num_pes=4)
        assert util.num_time_stamps == 2
        assert util.compute_delay_cycles == 2
        assert util.average_utilization == pytest.approx(0.5)
        assert util.max_utilization == pytest.approx(0.5)
        assert util.is_injective

    def test_collisions_extend_compute_delay(self):
        pe = np.zeros(6, dtype=np.int64)
        rank = np.array([0, 0, 0, 1, 1, 2], dtype=np.int64)
        util = compute_utilization(pe, rank, num_pes=2)
        assert util.compute_delay_cycles == 3 + 2 + 1
        assert not util.is_injective

    def test_empty(self):
        empty = np.zeros(0, dtype=np.int64)
        util = compute_utilization(empty, empty, num_pes=4)
        assert util.average_utilization == 0.0


class TestLatencyAndBandwidth:
    def _volumes(self):
        return {
            "A": VolumeMetrics("A", 100, 60, 30, 30, 50),
            "B": VolumeMetrics("B", 100, 80, 80, 0, 20),
            "Y": VolumeMetrics("Y", 100, 90, 90, 0, 10),
        }

    def test_latency_bound_selection(self):
        util = UtilizationMetrics(100, 4, 25, 100, 25, 4)
        memory = MemoryHierarchy.default(scratchpad_bandwidth_bits=16, word_bits=16)
        latency = compute_latency(util, self._volumes(), ["A", "B"], ["Y"], memory)
        assert latency.read_delay == pytest.approx(60.0)
        assert latency.write_delay == pytest.approx(10.0)
        assert latency.latency == pytest.approx(60.0)
        assert latency.bottleneck == "read"
        assert latency.is_memory_bound

    def test_compute_bound_case(self):
        util = UtilizationMetrics(100, 4, 25, 100, 200, 4)
        memory = MemoryHierarchy.default(scratchpad_bandwidth_bits=1024, word_bits=16)
        latency = compute_latency(util, self._volumes(), ["A", "B"], ["Y"], memory)
        assert latency.bottleneck == "compute"
        assert latency.is_compute_bound

    def test_bandwidth_per_tensor(self):
        report = compute_bandwidth(self._volumes(), compute_delay_cycles=50)
        assert report["A"].scratchpad_words_per_cycle == pytest.approx(40 / 50)
        assert report["A"].interconnect_words_per_cycle == pytest.approx(30 / 50)
        assert report.total_scratchpad_words_per_cycle == pytest.approx((40 + 20 + 10) / 50)
        assert report.total_scratchpad_bits_per_cycle(16) == pytest.approx(70 / 50 * 16)


class TestSpacetimeMapAndAssignment:
    def test_predecessor_table_shape(self):
        spacetime = SpacetimeMap(PEArray((3, 3)), Mesh())
        table = spacetime.predecessor_table()
        assert table.shape[0] == 9
        assert (table[4] >= 0).sum() == 8  # centre PE has 8 predecessors

    def test_predecessor_table_is_shared_and_read_only(self):
        from repro.core.engine import EvaluationEngine
        from repro.experiments.common import make_arch

        engines = [
            EvaluationEngine(gemm(4, 4, 4), make_arch(pe_dims=(4, 4), interconnect="mesh"))
            for _ in range(2)
        ]
        first, second = (engine._predecessor_table for engine in engines)
        assert first is second
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 3
        # The key holds the interconnect's fields, not only its type.
        near, far = (
            SpacetimeMap(PEArray((8,)), Multicast1D(reach=reach)).predecessor_table()
            for reach in (1, 3)
        )
        assert (near >= 0).sum() < (far >= 0).sum()

    def test_concurrent_builds_share_one_table(self, monkeypatch):
        import sys
        import threading
        from collections import OrderedDict

        from repro.core import spacetime as spacetime_module

        monkeypatch.setattr(spacetime_module, "_TABLES", OrderedDict())
        tables = []
        start = threading.Barrier(8)

        def build():
            start.wait(timeout=10)
            tables.append(SpacetimeMap(PEArray((12, 12)), Mesh()).predecessor_table())

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=build) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert len(tables) == 8
        assert all(table is tables[0] for table in tables)

    @pytest.mark.parametrize("name", [
        "1d-systolic", "2d-systolic", "mesh", "multicast", "2d-multicast",
        "reduction-tree", "none",
    ])
    @pytest.mark.parametrize("dims", [(4, 6), (16,)])
    def test_cached_predecessor_table_equals_a_fresh_build(self, name, dims):
        from repro.arch.interconnect import make_interconnect

        spacetime = SpacetimeMap(PEArray(dims), make_interconnect(name))
        np.testing.assert_array_equal(
            spacetime.predecessor_table(), spacetime._build_predecessor_table()
        )

    def test_spatial_interval_follows_interconnect(self):
        assert SpacetimeMap(PEArray((2, 2)), Systolic2D()).spatial_interval == 1
        assert SpacetimeMap(PEArray((4,)), Multicast1D()).spatial_interval == 0

    def test_example_maps_match_equation6(self):
        spacetime = SpacetimeMap(PEArray((2, 2)), Systolic2D())
        maps = spacetime.example_maps(origin=(0, 0), time=0)
        assert any("PE[0, 1]" in text for text in maps)
        assert any("PE[1, 0]" in text for text in maps)

    @pytest.mark.parametrize("name, fed, later", [
        ("1d-systolic", [(0, 2)], 6),
        ("2d-systolic", [(0, 2), (1, 1)], 6),
        ("mesh", [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2)], 6),
        ("multicast", [(0, 0), (0, 2)], 5),
        ("2d-multicast", [(0, 0), (0, 2), (1, 1)], 5),
        ("reduction-tree", [(0, 0), (0, 2)], 5),
        ("none", [], None),
    ])
    def test_example_maps_use_both_fixed_intervals(self, name, fed, later):
        # From PE[0, 1] at T[5] on a 2x3 array: the registers keep data one
        # stamp, to T[6]; links reach the PEs the origin feeds at T[6] when
        # they store and forward, and at T[5] when they are wires.
        from repro.arch.interconnect import make_interconnect

        spacetime = SpacetimeMap(PEArray((2, 3)), make_interconnect(name))
        origin = "([PE[0, 1] | T[5]]) -> "
        assert spacetime.example_maps(origin=(0, 1), time=5) == [
            origin + "([PE[0, 1] | T[6]])",
            *(origin + f"([PE{list(pe)} | T[{later}]])" for pe in fed),
        ]

    def test_assignment_string_matches_paper_form(self):
        op = gemm(2, 2, 4)
        dataflow = Dataflow.from_exprs("(IJ-P | J,IJK-T)", op, ["i", "j"], ["i + j + k"])
        assignment = assignments_for(op, dataflow, "Y")[0]
        text = str(assignment)
        assert "Y[" in text and "PE[" in text and "T[" in text

    def test_output_is_detected_stationary(self):
        op = gemm(2, 2, 4)
        dataflow = Dataflow.from_exprs("(IJ-P | J,IJK-T)", op, ["i", "j"], ["i + j + k"])
        output = assignments_for(op, dataflow, "Y")[0]
        input_a = assignments_for(op, dataflow, "A")[0]
        assert output.is_pe_stationary()
        assert not input_a.is_pe_stationary()
