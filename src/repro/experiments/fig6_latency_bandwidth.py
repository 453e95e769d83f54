"""Figure 6: latency of TENET-only vs data-centric dataflows across bandwidths.

For each kernel the TENET-only dataflows (which need affine transformations)
are compared against the best dataflows expressible in the data-centric
notation, sweeping the scratchpad bandwidth.  At high bandwidth everything is
compute bound and the dataflows converge; as the bandwidth shrinks, the
skewed dataflows' better reuse (smaller UniqueVolume) keeps them compute bound
longer, which is where the paper's 37.4% (CONV) and 51.4% (GEMM) average
latency reductions come from.

The volume metrics are bandwidth independent, so each dataflow is analysed
once and the latency is re-derived per bandwidth point.
"""

from __future__ import annotations

from typing import Sequence

from repro.arch.memory import MemoryHierarchy
from repro.core.latency import compute_latency
from repro.dataflows.catalog import get_entry
from repro.experiments.common import (
    ExperimentResult,
    average,
    make_arch,
    make_engine,
    percent_reduction,
)
from repro.tensor.kernels import conv2d, gemm

DEFAULT_BANDWIDTHS = (64.0, 80.0, 96.0, 112.0, 128.0, 144.0, 160.0)

#: (catalog kernel, dataflow name, architecture kwargs, is TENET-only)
GEMM_CASES = [
    ("gemm", "(IJ-P | J,IJK-T)", dict(pe_dims=(8, 8), interconnect="2d-systolic"), True),
    ("gemm", "(KJ-P | K,IJK-T)", dict(pe_dims=(8, 8), interconnect="2d-systolic"), True),
    # The paper configures the data-centric baseline with a mesh, "since MAESTRO
    # models a hierarchical PE array with the assumption that each PE can
    # communicate with adjacent PEs" (Section VI-A).
    ("gemm", "(IJ-P | K-T)", dict(pe_dims=(8, 8), interconnect="mesh"), False),
    ("gemm", "(K-P | I,J-T)", dict(pe_dims=(64,), interconnect="multicast", reach=63), False),
    ("gemm", "(J-P | I,K-T)", dict(pe_dims=(64,), interconnect="multicast", reach=63), False),
]

CONV_CASES = [
    ("conv2d", "(KC-P | OY,KCOX-T)", dict(pe_dims=(8, 8), interconnect="2d-systolic"), True),
    ("conv2d", "(KOX-P | OY,KOXC-T)", dict(pe_dims=(8, 8), interconnect="2d-systolic"), True),
    ("conv2d", "(OYOX-P | OY,OX-T)", dict(pe_dims=(8, 8), interconnect="mesh"), False),
    ("conv2d", "(KC-P | OY,OX-T)", dict(pe_dims=(8, 8), interconnect="2d-systolic"), False),
]


def _sweep(op, cases, bandwidths, word_bits: int, max_instances: int, rows, kernel_label: str):
    reports = []
    for kernel, name, arch_kwargs, tenet_only in cases:
        entry = get_entry(kernel, name)
        dataflow = entry.build()
        arch = make_arch(word_bits=word_bits, **arch_kwargs)
        report = make_engine(op, arch, max_instances=max_instances).evaluate(dataflow)
        reports.append((name, tenet_only, report))

    reductions = []
    for bandwidth in bandwidths:
        memory = MemoryHierarchy.default(
            scratchpad_bandwidth_bits=bandwidth, word_bits=word_bits
        )
        latencies = {}
        for name, tenet_only, report in reports:
            latency = compute_latency(
                report.utilization,
                report.volumes,
                [t for t in report.volumes if t != "Y"],
                ["Y"],
                memory,
            ).latency
            latencies[name] = latency
            rows.append(dict(
                kernel=kernel_label,
                dataflow=name,
                notation="relation-only" if tenet_only else "data-centric",
                bandwidth_bits=bandwidth,
                latency_cycles=latency,
            ))
        best_tenet = min(lat for (name, tenet_only, _), lat in
                         zip(reports, latencies.values()) if tenet_only)
        best_data = min(lat for (name, tenet_only, _), lat in
                        zip(reports, latencies.values()) if not tenet_only)
        reductions.append(percent_reduction(best_data, min(best_tenet, best_data)))
    return average(reductions)


def run(
    bandwidths: Sequence[float] = DEFAULT_BANDWIDTHS,
    gemm_size: int = 64,
    conv_sizes: tuple[int, int, int, int, int, int] = (32, 32, 14, 14, 3, 3),
    word_bits: int = 16,
    max_instances: int = 4_000_000,
) -> ExperimentResult:
    result = ExperimentResult(
        name="fig6-latency-vs-bandwidth",
        description="Latency of TENET-only vs data-centric-expressible dataflows under a "
                    "scratchpad bandwidth sweep (Figure 6).",
    )

    gemm_op = gemm(gemm_size, gemm_size, gemm_size)
    gemm_reduction = _sweep(
        gemm_op, GEMM_CASES, bandwidths, word_bits, max_instances, result.rows, "GEMM"
    )

    conv_op = conv2d(*conv_sizes)
    conv_reduction = _sweep(
        conv_op, CONV_CASES, bandwidths, word_bits, max_instances, result.rows, "2D-CONV"
    )

    result.headline = {
        "gemm_avg_latency_reduction_pct": round(gemm_reduction, 1),
        "conv_avg_latency_reduction_pct": round(conv_reduction, 1),
        "paper_reported": "GEMM 51.4%, CONV 37.4% (average over the sweep)",
    }
    return result
