"""Figure 9: critical metrics for every Table III dataflow.

For each kernel every catalog dataflow is analysed under a systolic
interconnect (as in the paper) and the figure's five series are reported:
normalised temporal and spatial reuse of the input and output tensors, maximum
and average PE utilisation, and latency.
"""

from __future__ import annotations

from repro.dataflows.catalog import dataflows_for
from repro.experiments.common import ExperimentResult, make_arch, make_engine
from repro.tensor.kernels import conv2d, gemm, jacobi2d, mmc, mttkrp


def default_operations(scale: float = 1.0):
    """The kernel instances evaluated by the figure (modest sizes by default)."""
    factor = max(1, int(round(scale)))
    return {
        "gemm": gemm(64 * factor, 64, 64),
        "conv2d": conv2d(16 * factor, 16, 14, 14, 3, 3),
        "mttkrp": mttkrp(32 * factor, 32, 16, 16),
        "mmc": mmc(32 * factor, 32, 16, 16),
        "jacobi2d": jacobi2d(66, 66),
    }


def run(scale: float = 1.0, max_instances: int = 4_000_000) -> ExperimentResult:
    result = ExperimentResult(
        name="fig9-critical-metrics",
        description="Normalised temporal/spatial reuse, PE utilisation and latency for "
                    "every Table III dataflow under a systolic interconnect (Figure 9).",
    )
    operations = default_operations(scale)
    for kernel, op in operations.items():
        instances = op.num_instances()
        for entry in dataflows_for(kernel):
            dataflow = entry.build()
            interconnect = "2d-systolic" if len(entry.preferred_pe_dims) == 2 else "1d-systolic"
            arch = make_arch(pe_dims=entry.preferred_pe_dims, interconnect=interconnect)
            report = make_engine(op, arch, max_instances=max_instances).evaluate(dataflow)
            row = dict(
                kernel=kernel,
                dataflow=entry.name,
                latency_cycles=report.latency_cycles,
                avg_pe_utilization=report.average_pe_utilization,
                max_pe_utilization=report.max_pe_utilization,
            )
            for tensor, volume in report.volumes.items():
                row[f"temporal_reuse_{tensor}"] = volume.temporal_reuse / instances
                row[f"spatial_reuse_{tensor}"] = volume.spatial_reuse / instances
                row[f"reuse_factor_{tensor}"] = volume.reuse_factor
            result.rows.append(row)
    best_gemm = min(
        (row for row in result.rows if row["kernel"] == "gemm"),
        key=lambda row: row["latency_cycles"],
    )
    result.headline = {
        "best_gemm_dataflow": best_gemm["dataflow"],
        "observation": "2-D space-stamp GEMM dataflows outperform 1-D ones; high reuse "
                       "plus high utilisation is required for low latency (Section VI-C)",
    }
    return result
