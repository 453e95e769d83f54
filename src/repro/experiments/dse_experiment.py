"""Section VI-B: pruned design-space exploration.

The paper prunes the 2D-CONV space to ``12 * 12 * 180 = 25 920`` dataflows and
explores it in under an hour.  This driver reports the analytic count and runs
the concrete pruned generator (a structurally distinct subset) through the
shared sweep pipeline on a scaled CONV layer, reporting the best dataflows
found and the exploration throughput, from which the time to sweep the
paper-sized space is extrapolated.

The sweep is a plain :class:`repro.sweep.SweepSession` run: relations are
materialised once per operation (shared cache), candidates stream through the
engine in batches (with optional early termination), and
``shard``/``checkpoint`` make the driver a building block for multi-machine
runs — ``shard=(0, 2)`` on one machine and ``shard=(1, 2)`` on another sweep
the paper space with no coordination.
"""

from __future__ import annotations

from repro.dse.pruning import paper_pruned_count, pruned_candidates
from repro.experiments.common import ExperimentResult, make_arch, make_session
from repro.tensor.kernels import conv2d


def run(
    conv_sizes: tuple[int, int, int, int, int, int] = (16, 16, 7, 7, 3, 3),
    max_candidates: int = 40,
    objective: str = "latency",
    early_termination: bool = False,
    backend: str = "fused",
    shard: tuple[int, int] | None = None,
    checkpoint: str | None = None,
    resume: bool = False,
    top_k: int | None = None,
) -> ExperimentResult:
    result = ExperimentResult(
        name="dse-pruned-exploration",
        description="Pruned dataflow design-space exploration for 2D-CONV (Section VI-B).",
    )
    op = conv2d(*conv_sizes)
    arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic")
    session = make_session(
        op,
        arch,
        objective=objective,
        backend=backend,
        session_kwargs=dict(
            early_termination=early_termination, checkpoint=checkpoint,
            resume=resume, top_k=top_k,
        ),
    )
    candidates = pruned_candidates(
        op, pe_dims=(8, 8), allow_packing=True, max_candidates=max_candidates
    )
    exploration = session.run(candidates, shard=shard)

    for rank, entry in enumerate(exploration.ranking[:10], start=1):
        result.add_row(
            rank=rank,
            dataflow=entry.name,
            latency_cycles=entry.data["latency_cycles"],
            avg_pe_utilization=entry.data["average_pe_utilization"],
            sbw_bits_per_cycle=entry.data["sbw_bits_per_cycle"],
        )

    # Projection basis: wall-clock per *evaluated* candidate (as the paper
    # reports), not per processed candidate — pruned candidates are cheap, so
    # the processed-based throughput would understate the full-space time.
    # ``evaluated_count`` (not len(evaluated)) also covers bounded top_k runs.
    evaluated_count = max(1, exploration.evaluated_count)
    seconds_per_candidate = exploration.seconds / evaluated_count
    projected_hours = seconds_per_candidate * paper_pruned_count() / 3600.0
    engine = session.engine
    stats = engine.stats
    cache_stats = engine.cache_stats()
    result.headline = {
        "candidates_evaluated": exploration.num_candidates,
        "invalid_candidates": len(exploration.failures),
        "pruned_candidates": len(exploration.pruned),
        "exploration_seconds": round(exploration.seconds, 1),
        "candidates_per_second": round(exploration.throughput, 1),
        "backend": backend,
        "shard": f"{shard[0]}/{shard[1]}" if shard else "none",
        "engine_fast_path_tensors": stats["fast_path"],
        "relation_cache_hits": cache_stats["hits"],
        "relation_cache_misses": cache_stats["misses"],
        "paper_pruned_space": paper_pruned_count(),
        "projected_hours_for_paper_space": round(projected_hours, 2),
        "paper_reported": "25 920 dataflows explored in under one hour",
    }
    return result
