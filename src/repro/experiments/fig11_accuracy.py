"""Figure 11: latency and PE-utilisation estimation accuracy.

The paper compares TENET's and MAESTRO's estimates against the latencies
published for Eyeriss (row-stationary dataflow, AlexNet CONV1-5) and MAERI
(reduction-tree dataflow, VGG CONV1-1..5-1).  Those chips cannot be
re-measured here, so the reference simulator (:mod:`repro.sim`) provides the
ground truth: it executes the same dataflow explicitly with per-PE register
files, NoC forwarding and finite scratchpad bandwidth.

The claim to reproduce is the *ordering* of errors: the relation-centric
analytical model tracks the executed behaviour closely (because it walks
every time-stamp and models the packed PE assignment), while the polynomial
data-centric estimate misses the affine packing and reports larger errors.
"""

from __future__ import annotations

from repro.dataflows.conv2d import oyox_p_shidiannao, ryoy_p_eyeriss
from repro.experiments.common import (
    ExperimentResult,
    average,
    make_arch,
    make_engine,
    scaled_layer_op,
)
from repro.maestro.directives import DataCentricMapping, SpatialMap, TemporalMap
from repro.maestro.model import MaestroModel
from repro.sim.engine import simulate
from repro.workloads import alexnet, vgg16
from repro.workloads.dnn import ConvLayer


def _error_pct(estimate: float, golden: float) -> float:
    if golden == 0:
        return 0.0
    return abs(estimate - golden) / golden * 100.0


def _eyeriss_dataflow(layer: ConvLayer, rows: int = 12, cols: int = 14):
    return ryoy_p_eyeriss(rows=rows, cols=cols, filter_rows=layer.filter_y)


def _maestro_mapping_eyeriss() -> DataCentricMapping:
    """Row-stationary approximation without the channel packing (c fixed to one fold)."""
    return DataCentricMapping(
        "row-stationary (data-centric)",
        [TemporalMap("k"), TemporalMap("c"), SpatialMap("oy"), SpatialMap("ry"),
         TemporalMap("rx"), TemporalMap("ox")],
    )


def _maestro_mapping_maeri() -> DataCentricMapping:
    return DataCentricMapping(
        "reduction-tree (data-centric)",
        [SpatialMap("oy"), SpatialMap("ox"), TemporalMap("k"), TemporalMap("c"),
         TemporalMap("ry"), TemporalMap("rx")],
    )


def run(max_instances: int = 400_000, bandwidth_bits: float = 256.0) -> ExperimentResult:
    result = ExperimentResult(
        name="fig11-estimation-accuracy",
        description="Latency and PE-utilisation estimation error of TENET and the "
                    "data-centric baseline against the reference simulator (Figure 11).",
    )

    studies = [
        ("Eyeriss/AlexNet", alexnet(), "eyeriss"),
        ("MAERI/VGG16", vgg16(), "maeri"),
    ]
    tenet_latency_errors: list[float] = []
    baseline_latency_errors: list[float] = []
    tenet_util_errors: list[float] = []
    baseline_util_errors: list[float] = []

    for study_name, workload, style in studies:
        for layer in workload:
            op, factor, scaled = scaled_layer_op(layer, max_instances)
            if style == "eyeriss":
                pe_dims = (12, 14)
                dataflow = _eyeriss_dataflow(scaled)
                arch = make_arch(pe_dims=pe_dims, interconnect="mesh",
                                 bandwidth_bits=bandwidth_bits)
                mapping = _maestro_mapping_eyeriss()
            else:
                pe_dims = (8, 8)
                dataflow = oyox_p_shidiannao(rows=pe_dims[0], cols=pe_dims[1])
                arch = make_arch(pe_dims=pe_dims, interconnect="multicast",
                                 reach=pe_dims[1] - 1, bandwidth_bits=bandwidth_bits)
                mapping = _maestro_mapping_maeri()

            golden = simulate(op, dataflow, arch, max_instances=max_instances)
            tenet = make_engine(op, arch, max_instances=max_instances).evaluate(dataflow)
            baseline = MaestroModel(
                num_pes=pe_dims[0] * pe_dims[1], bandwidth_bits_per_cycle=bandwidth_bits
            ).analyze(op, mapping)

            tenet_latency_error = _error_pct(tenet.latency_cycles, golden.total_cycles)
            baseline_latency_error = _error_pct(baseline.latency_cycles, golden.total_cycles)
            tenet_util_error = _error_pct(
                tenet.average_pe_utilization, golden.average_pe_utilization
            )
            baseline_util_error = _error_pct(
                baseline.average_pe_utilization, golden.average_pe_utilization
            )
            tenet_latency_errors.append(tenet_latency_error)
            baseline_latency_errors.append(baseline_latency_error)
            tenet_util_errors.append(tenet_util_error)
            baseline_util_errors.append(baseline_util_error)

            result.add_row(
                study=study_name,
                layer=layer.name,
                scale_factor=round(factor, 1),
                golden_latency=golden.total_cycles,
                tenet_latency=tenet.latency_cycles,
                baseline_latency=baseline.latency_cycles,
                tenet_latency_error_pct=tenet_latency_error,
                baseline_latency_error_pct=baseline_latency_error,
                golden_utilization=golden.average_pe_utilization,
                tenet_utilization=tenet.average_pe_utilization,
                baseline_utilization=baseline.average_pe_utilization,
                tenet_util_error_pct=tenet_util_error,
                baseline_util_error_pct=baseline_util_error,
            )

    result.headline = {
        "tenet_latency_accuracy_pct": round(100 - average(tenet_latency_errors), 1),
        "baseline_latency_accuracy_pct": round(100 - average(baseline_latency_errors), 1),
        "tenet_util_error_pct": round(average(tenet_util_errors), 1),
        "baseline_util_error_pct": round(average(baseline_util_errors), 1),
        "paper_reported": "Eyeriss: 71.9% -> 89.6% latency accuracy; MAERI: 92.3% -> 96.3%",
    }
    return result
