"""Figure 12: reuse-factor comparison on four DNNs.

For each network the paper picks a representative dataflow and compares the
per-tensor ReuseFactor computed by TENET with MAESTRO's estimate.  The
behaviours to reproduce: the data-centric polynomial reports no reuse for the
output tensor in every case, and it overestimates input reuse whenever the
subscripts couple loop dimensions (the ``ox + rx`` halo) or the dataflow packs
several dimensions onto one PE axis; the depthwise and pointwise MobileNet
layers show the characteristic drop in input reuse.
"""

from __future__ import annotations

from repro.dataflows.conv2d import oyox_p_shidiannao, ryoy_p_eyeriss
from repro.experiments.common import ExperimentResult, make_arch, make_engine, scaled_layer_op
from repro.maestro.directives import DataCentricMapping, SpatialMap, TemporalMap
from repro.maestro.model import MaestroModel
from repro.workloads import alexnet, googlenet, mobilenet, vgg16
from repro.workloads.dnn import ConvLayer


def _configuration(network: str, layer: ConvLayer):
    """Dataflow, architecture and data-centric mapping used for one network."""
    if network == "AlexNet":
        dataflow = ryoy_p_eyeriss(rows=12, cols=14, filter_rows=layer.filter_y)
        arch = make_arch(pe_dims=(12, 14), interconnect="mesh")
        mapping = DataCentricMapping(
            "(RYOY-P | OY,OX-T)",
            [TemporalMap("k"), TemporalMap("c"), SpatialMap("oy"), SpatialMap("ry"),
             TemporalMap("rx"), TemporalMap("ox")],
        )
    elif network == "VGG16":
        dataflow = oyox_p_shidiannao()
        arch = make_arch(pe_dims=(8, 8), interconnect="mesh")
        mapping = DataCentricMapping(
            "(OYOX-P | OY,OX-T)",
            [SpatialMap("oy"), SpatialMap("ox"), TemporalMap("k"), TemporalMap("c"),
             TemporalMap("ry"), TemporalMap("rx")],
        )
    else:  # GoogLeNet and MobileNet use a channel-parallel, accumulation-inner dataflow
        dataflow = _kc_accumulation_inner()
        arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic")
        if layer.depthwise:
            mapping = DataCentricMapping(
                "(C-P | OY,OX-T)",
                [SpatialMap("c"), TemporalMap("ry"), TemporalMap("rx"),
                 TemporalMap("oy"), TemporalMap("ox")],
            )
        else:
            mapping = DataCentricMapping(
                "(KC-P | OY,OX-T)",
                [SpatialMap("k"), SpatialMap("c"), TemporalMap("ry"), TemporalMap("rx"),
                 TemporalMap("oy"), TemporalMap("ox")],
            )
    return dataflow, arch, mapping


def _kc_accumulation_inner(rows: int = 8, cols: int = 8):
    """``(KC-P | OY,OX,RY,RX-T)``: channel-parallel with the filter window innermost.

    Keeping the reduction window (ry, rx) in the innermost time-stamp axes makes
    the output accumulate in the PE registers across consecutive time-stamps,
    which is exactly the output reuse the data-centric polynomial cannot report.
    """
    from repro.core.dataflow import Dataflow
    from repro.isl.expr import var
    from repro.isl.space import Space

    k, c, ox, oy, rx, ry = (var(d) for d in ["k", "c", "ox", "oy", "rx", "ry"])
    return Dataflow.from_exprs(
        "(KC-P | OY,OX,RY,RX-T)",
        Space("S", ["k", "c", "ox", "oy", "rx", "ry"]),
        [k % rows, c % cols],
        [k // rows, c // cols, oy, ox, ry, rx],
    )


def _depthwise_fallback(layer: ConvLayer):
    """Depthwise layers have no K loop; use a channel-parallel dataflow instead."""
    from repro.core.dataflow import Dataflow
    from repro.isl.expr import var

    op = layer.to_op()
    c, ox, oy, rx, ry = (var(d) for d in ["c", "ox", "oy", "rx", "ry"])
    dataflow = Dataflow.from_exprs(
        "(C-P | OY,OX-T)", op.domain.space,
        [c % 8, oy % 8],
        [ry, rx, c // 8, oy // 8, ox],
    )
    return dataflow


def run(max_instances: int = 600_000, layers_per_network: int | None = None) -> ExperimentResult:
    result = ExperimentResult(
        name="fig12-reuse-factors",
        description="Per-tensor reuse factors: TENET relation counting vs the data-centric "
                    "polynomial (Figure 12).",
    )
    networks = [alexnet(), vgg16(), googlenet(), mobilenet()]
    output_zero_reuse = 0
    output_rows = 0

    for workload in networks:
        layers = list(workload)[:layers_per_network] if layers_per_network else list(workload)
        for layer in layers:
            op, factor, scaled = scaled_layer_op(layer, max_instances)
            dataflow, arch, mapping = _configuration(workload.name, scaled)
            if isinstance(scaled, ConvLayer) and scaled.depthwise:
                dataflow = _depthwise_fallback(scaled)
                op = scaled.to_op()
            report = make_engine(op, arch, max_instances=max_instances).evaluate(dataflow)
            baseline = MaestroModel(num_pes=arch.num_pes).analyze(op, mapping)

            for tensor in report.volumes:
                is_output = tensor in op.output_tensors
                tenet_reuse = report.reuse_factor(tensor)
                maestro_reuse = baseline.reuse_factor(tensor) if tensor in baseline.tensors else None
                if is_output and maestro_reuse is not None:
                    output_rows += 1
                    if maestro_reuse <= 1.0:
                        output_zero_reuse += 1
                result.add_row(
                    network=workload.name,
                    layer=layer.name,
                    scale_factor=round(factor, 1),
                    tensor=tensor,
                    role="output" if is_output else ("filter" if tensor == "B" else "input"),
                    tenet_reuse_factor=tenet_reuse,
                    maestro_reuse_factor=maestro_reuse,
                )

    result.headline = {
        "output_tensors_with_no_baseline_reuse": f"{output_zero_reuse}/{output_rows}",
        "paper_observation": "MAESTRO reports no reuse for the output tensor in all cases "
                             "and overestimates input/filter reuse for packed dataflows",
    }
    return result
