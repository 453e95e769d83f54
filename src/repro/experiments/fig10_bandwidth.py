"""Figure 10: interconnect and scratchpad bandwidth per topology.

Selected dataflows of every kernel are analysed under three interconnect
topologies (2D-systolic, mesh, 1D-systolic) and the per-tensor IBW and SBW
requirements are reported, normalised per 1000 cycles of compute delay (the
paper normalises to the computation latency).  The observations to reproduce:
topologies mostly agree, except that dataflows with diagonal input reuse (the
row-stationary CONV dataflow, Jacobi-2D) gain interconnect reuse — hence lower
SBW — on a mesh.
"""

from __future__ import annotations

from repro.dataflows.catalog import get_entry
from repro.experiments.common import ExperimentResult, make_arch, make_engine
from repro.tensor.kernels import conv2d, gemm, jacobi2d, mmc, mttkrp

_TOPOLOGIES = ("2d-systolic", "mesh", "1d-systolic")

#: (kernel, dataflow name, PE dims)
_CASES = [
    ("conv2d", "(RYOY-P | OYOX-T)", (12, 14)),
    ("conv2d", "(OXOY-P | OX,C-T)", (8, 8)),
    ("conv2d", "(OYOX-P | OY,OX-T)", (8, 8)),
    ("conv2d", "(OXOY-P | C,RX-T)", (8, 8)),
    ("conv2d", "(KC-P | OY,OX-T)", (8, 8)),
    ("gemm", "(IJ-P | J,IJK-T)", (8, 8)),
    ("gemm", "(KJ-P | K,IJK-T)", (8, 8)),
    ("gemm", "(JK-P | K,IJK-T)", (8, 8)),
    ("mttkrp", "(IJ-P | J,IJL-T)", (8, 8)),
    ("mttkrp", "(KJ-P | J,KJL-T)", (8, 8)),
    ("mttkrp", "(KL-P | L,KLJ-T)", (8, 8)),
    ("jacobi2d", "(IJ-P | I,J-T)", (8, 8)),
]


def default_operations():
    return {
        "gemm": gemm(64, 64, 64),
        "conv2d": conv2d(16, 16, 14, 14, 3, 3),
        "mttkrp": mttkrp(32, 32, 16, 16),
        "mmc": mmc(32, 32, 16, 16),
        "jacobi2d": jacobi2d(66, 66),
    }


def run(max_instances: int = 4_000_000) -> ExperimentResult:
    result = ExperimentResult(
        name="fig10-bandwidth-by-topology",
        description="Per-tensor interconnect (IBW) and scratchpad (SBW) bandwidth for "
                    "selected dataflows under three interconnect topologies (Figure 10).",
    )
    operations = default_operations()
    mesh_gain_cases = []
    for kernel, dataflow_name, pe_dims in _CASES:
        op = operations[kernel]
        entry = get_entry(kernel, dataflow_name)
        dataflow = entry.build(rows=pe_dims[0], cols=pe_dims[1]) if len(pe_dims) == 2 else entry.build()
        sbw_by_topology = {}
        for topology in _TOPOLOGIES:
            arch = make_arch(pe_dims=pe_dims, interconnect=topology)
            report = make_engine(op, arch, max_instances=max_instances).evaluate(dataflow)
            row = dict(
                kernel=kernel,
                dataflow=dataflow_name,
                topology=topology,
                total_ibw_bits=report.interconnect_bandwidth_bits(),
                total_sbw_bits=report.scratchpad_bandwidth_bits(),
            )
            for tensor, bandwidth in report.bandwidth.per_tensor.items():
                row[f"ibw_{tensor}"] = bandwidth.interconnect_bits_per_cycle(report.word_bits)
                row[f"sbw_{tensor}"] = bandwidth.scratchpad_bits_per_cycle(report.word_bits)
            result.rows.append(row)
            sbw_by_topology[topology] = report.scratchpad_bandwidth_bits()
        if sbw_by_topology["mesh"] < sbw_by_topology["2d-systolic"] - 1e-9:
            mesh_gain_cases.append(f"{kernel} {dataflow_name}")

    result.headline = {
        "dataflows_where_mesh_lowers_sbw": ", ".join(mesh_gain_cases) or "none",
        "paper_observation": "diagonal-reuse dataflows (row-stationary CONV, Jacobi-2D) "
                             "benefit from the mesh topology; the others are insensitive",
    }
    return result
