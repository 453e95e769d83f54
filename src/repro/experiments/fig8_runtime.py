"""Figure 8: modeling runtime of TENET vs the polynomial baseline.

One dataflow is modeled for 2D-CONV and GEMM on 4x4, 8x8 and 16x16 PE arrays
under three interconnects.  The paper's observations to reproduce: the
polynomial model is roughly an order of magnitude faster (10^-2 s vs 10^-1 s
in the paper), TENET's runtime grows with interconnect complexity, and it is
comparatively insensitive to the PE-array size.

Beyond the paper, the driver also times the evaluation engine's warm path —
relations already materialised in the shared cache, as during a design-space
sweep — to quantify how much of the single-candidate cost is amortisable.
"""

from __future__ import annotations

import time

from repro.core.analyzer import analyze
from repro.dataflows.catalog import get_entry
from repro.experiments.common import ExperimentResult, make_arch, make_session
from repro.maestro.directives import DataCentricMapping, SpatialMap, TemporalMap
from repro.maestro.model import MaestroModel
from repro.tensor.kernels import conv2d, gemm

_INTERCONNECTS = ("1d-systolic", "2d-systolic", "mesh")
_PE_SIZES = ((4, 4), (8, 8), (16, 16))


def run(
    gemm_size: int = 32,
    conv_sizes: tuple[int, int, int, int, int, int] = (16, 16, 14, 14, 3, 3),
    repeats: int = 1,
    backend: str = "fused",
) -> ExperimentResult:
    result = ExperimentResult(
        name="fig8-modeling-runtime",
        description="Time to model a single dataflow: TENET relation counting vs the "
                    "polynomial data-centric baseline (Figure 8).",
    )
    kernels = {
        "GEMM": (gemm(gemm_size, gemm_size, gemm_size), ("gemm", "(IJ-P | J,IJK-T)")),
        "2D-CONV": (conv2d(*conv_sizes), ("conv2d", "(KC-P | OY,OX-T)")),
    }
    maestro_mappings = {
        "GEMM": DataCentricMapping("(K-P | I,J-T)", [SpatialMap("k"), TemporalMap("i"),
                                                     TemporalMap("j")]),
        "2D-CONV": DataCentricMapping("(K-P | OX,OY-T)", [SpatialMap("k"), TemporalMap("c"),
                                                          TemporalMap("rx"), TemporalMap("ry"),
                                                          TemporalMap("ox"), TemporalMap("oy")]),
    }

    tenet_times = []
    warm_times = []
    compiled_times = []
    maestro_times = []
    for kernel_label, (op, (catalog_kernel, dataflow_name)) in kernels.items():
        for pe_dims in _PE_SIZES:
            for interconnect in _INTERCONNECTS:
                dataflow = get_entry(catalog_kernel, dataflow_name).build(
                    rows=pe_dims[0], cols=pe_dims[1]
                )
                arch = make_arch(pe_dims=pe_dims, interconnect=interconnect)
                best = float("inf")
                for _ in range(repeats):
                    started = time.perf_counter()
                    analyze(op, dataflow, arch)
                    best = min(best, time.perf_counter() - started)
                tenet_times.append(best)
                result.add_row(
                    kernel=kernel_label, model="TENET", pe_array=f"{pe_dims[0]}x{pe_dims[1]}",
                    interconnect=interconnect, seconds=best,
                )

                # Warm sweep path: a sweep session whose engine has the
                # relations cached, report memo disabled so the measurement
                # covers the real per-candidate evaluation; once on the
                # interpreted backend, once on the compiled one.
                session = make_session(op, arch, memoize=False, backend="interp")
                session.evaluate(dataflow)
                best_warm = float("inf")
                for _ in range(max(repeats, 2)):
                    started = time.perf_counter()
                    session.evaluate(dataflow)
                    best_warm = min(best_warm, time.perf_counter() - started)
                warm_times.append(best_warm)
                result.add_row(
                    kernel=kernel_label, model="TENET-cached",
                    pe_array=f"{pe_dims[0]}x{pe_dims[1]}",
                    interconnect=interconnect, seconds=best_warm,
                )

                compiled = make_session(op, arch, memoize=False, backend=backend)
                compiled.evaluate(dataflow)
                best_compiled = float("inf")
                for _ in range(max(repeats, 2)):
                    started = time.perf_counter()
                    compiled.evaluate(dataflow)
                    best_compiled = min(best_compiled, time.perf_counter() - started)
                compiled_times.append(best_compiled)
                result.add_row(
                    kernel=kernel_label, model=f"TENET-{backend}",
                    pe_array=f"{pe_dims[0]}x{pe_dims[1]}",
                    interconnect=interconnect, seconds=best_compiled,
                )

            baseline_model = MaestroModel(num_pes=pe_dims[0] * pe_dims[1])
            best = float("inf")
            for _ in range(max(repeats, 3)):
                started = time.perf_counter()
                baseline_model.analyze(op, maestro_mappings[kernel_label])
                best = min(best, time.perf_counter() - started)
            maestro_times.append(best)
            result.add_row(
                kernel=kernel_label, model="MAESTRO-style", pe_array=f"{pe_dims[0]}x{pe_dims[1]}",
                interconnect="n/a", seconds=best,
            )

    avg_tenet = sum(tenet_times) / len(tenet_times)
    avg_warm = sum(warm_times) / len(warm_times)
    avg_compiled = sum(compiled_times) / len(compiled_times)
    avg_maestro = sum(maestro_times) / len(maestro_times)
    result.headline = {
        "avg_tenet_seconds": round(avg_tenet, 4),
        "avg_tenet_cached_seconds": round(avg_warm, 4),
        "cached_speedup": round(avg_tenet / avg_warm, 2) if avg_warm else float("inf"),
        "avg_tenet_compiled_seconds": round(avg_compiled, 4),
        "compiled_backend": backend,
        "compiled_speedup": round(avg_tenet / avg_compiled, 2) if avg_compiled else float("inf"),
        "avg_baseline_seconds": round(avg_maestro, 6),
        "slowdown_factor": round(avg_tenet / avg_maestro, 1) if avg_maestro else float("inf"),
        "paper_reported": "TENET ~1e-1 s, MAESTRO ~1e-2 s per dataflow",
    }
    return result
