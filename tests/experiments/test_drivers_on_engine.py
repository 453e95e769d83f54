"""The figure drivers evaluate their dataflows on the engine.

fig6, fig9, fig10, fig11 (its TENET side) and fig12 call
``make_engine(op, arch).evaluate(dataflow)`` on the shared relation cache.
Over each driver's own cases, at reduced op sizes, the engine's reports equal
the analyzer's on every field but the wall-clock ``analysis_seconds``.
"""

import pytest

from repro.core.analyzer import TenetAnalyzer, analyze
from repro.dataflows.catalog import dataflows_for, get_entry
from repro.dataflows.conv2d import oyox_p_shidiannao
from repro.experiments import (
    fig6_latency_bandwidth,
    fig9_metrics,
    fig10_bandwidth,
    fig11_accuracy,
    fig12_reuse,
)
from repro.experiments.common import make_arch, make_engine, scaled_layer_op
from repro.tensor.kernels import conv2d, gemm, jacobi2d, mmc, mttkrp
from repro.workloads import alexnet, googlenet, mobilenet, vgg16
from repro.workloads.dnn import ConvLayer

#: The drivers' kernels at sizes the analyzer runs in milliseconds.
SMALL_OPS = {
    "gemm": lambda: gemm(16, 16, 16),
    "conv2d": lambda: conv2d(4, 4, 14, 14, 3, 3),
    "mttkrp": lambda: mttkrp(8, 8, 4, 4),
    "mmc": lambda: mmc(8, 8, 4, 4),
    "jacobi2d": lambda: jacobi2d(18, 18),
}

#: Instance budget the DNN layers are scaled to.
LAYER_INSTANCES = 20_000


def report_dict(report):
    data = report.as_dict()
    data.pop("analysis_seconds")
    data["notes"] = list(report.notes)
    return data


def assert_engine_matches_analyzer(op, dataflow, arch, max_instances=4_000_000):
    engine = make_engine(op, arch, max_instances=max_instances)
    assert report_dict(engine.evaluate(dataflow)) == report_dict(
        analyze(op, dataflow, arch, max_instances=max_instances)
    )


def test_fig6_cases():
    cases = fig6_latency_bandwidth.GEMM_CASES + fig6_latency_bandwidth.CONV_CASES
    assert ("gemm", "(K-P | I,J-T)", dict(pe_dims=(64,), interconnect="multicast", reach=63),
            False) in cases
    for kernel, name, arch_kwargs, _ in cases:
        arch = make_arch(word_bits=16, **arch_kwargs)
        assert_engine_matches_analyzer(SMALL_OPS[kernel](), get_entry(kernel, name).build(), arch)


def test_fig9_catalog_entries():
    one_d = 0
    for kernel, make_op in SMALL_OPS.items():
        op = make_op()
        for entry in dataflows_for(kernel):
            two_d = len(entry.preferred_pe_dims) == 2
            one_d += not two_d
            arch = make_arch(
                pe_dims=entry.preferred_pe_dims,
                interconnect="2d-systolic" if two_d else "1d-systolic",
            )
            assert_engine_matches_analyzer(op, entry.build(), arch)
    assert one_d > 0


def test_fig10_cases_on_every_topology():
    assert (12, 14) in {pe_dims for _, _, pe_dims in fig10_bandwidth._CASES}
    for kernel, name, pe_dims in fig10_bandwidth._CASES:
        op = SMALL_OPS[kernel]()
        dataflow = get_entry(kernel, name).build(rows=pe_dims[0], cols=pe_dims[1])
        for topology in fig10_bandwidth._TOPOLOGIES:
            arch = make_arch(pe_dims=pe_dims, interconnect=topology)
            assert_engine_matches_analyzer(op, dataflow, arch)


def test_fig11_configurations():
    # Eyeriss: row stationary on a 12x14 mesh; MAERI: 8x8 multicast.
    for layer in list(alexnet())[:2]:
        op, _, scaled = scaled_layer_op(layer, LAYER_INSTANCES)
        arch = make_arch(pe_dims=(12, 14), interconnect="mesh", bandwidth_bits=256.0)
        assert_engine_matches_analyzer(
            op, fig11_accuracy._eyeriss_dataflow(scaled), arch, LAYER_INSTANCES
        )
    for layer in list(vgg16())[:2]:
        op, _, _ = scaled_layer_op(layer, LAYER_INSTANCES)
        arch = make_arch(
            pe_dims=(8, 8), interconnect="multicast", reach=7, bandwidth_bits=256.0
        )
        assert_engine_matches_analyzer(
            op, oyox_p_shidiannao(rows=8, cols=8), arch, LAYER_INSTANCES
        )


def test_fig12_configurations():
    for workload in (alexnet(), vgg16(), googlenet(), mobilenet()):
        for layer in list(workload)[:2]:
            op, _, scaled = scaled_layer_op(layer, LAYER_INSTANCES)
            dataflow, arch, _ = fig12_reuse._configuration(workload.name, scaled)
            if isinstance(scaled, ConvLayer) and scaled.depthwise:
                dataflow = fig12_reuse._depthwise_fallback(scaled)
                op = scaled.to_op()
            assert_engine_matches_analyzer(op, dataflow, arch, LAYER_INSTANCES)


def test_drivers_never_call_the_analyzer(monkeypatch):
    def refuse(self):
        raise AssertionError("a figure driver called TenetAnalyzer.analyze")

    monkeypatch.setattr(TenetAnalyzer, "analyze", refuse)
    ops = {kernel: make_op() for kernel, make_op in SMALL_OPS.items()}
    monkeypatch.setattr(fig9_metrics, "default_operations", lambda scale=1.0: ops)
    monkeypatch.setattr(fig10_bandwidth, "default_operations", lambda: ops)
    fig6_latency_bandwidth.run(bandwidths=(64.0,), gemm_size=8, conv_sizes=(4, 4, 7, 7, 3, 3))
    fig9_metrics.run()
    fig10_bandwidth.run()
    fig11_accuracy.run(max_instances=2_000)
    fig12_reuse.run(max_instances=LAYER_INSTANCES, layers_per_network=1)
    with pytest.raises(AssertionError, match="called TenetAnalyzer"):
        analyze(ops["gemm"], get_entry("gemm", "(IJ-P | J,IJK-T)").build(), make_arch())
