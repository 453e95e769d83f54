"""Acceptance benchmarks for the shared evaluation engine and its backends.

Four claims are checked on GEMM and conv sweeps:

* a 100-candidate sweep through :class:`EvaluationEngine` (interp backend,
  relation cache on) is at least 2x faster than 100 independent
  ``TenetAnalyzer`` runs;
* the fused backend (compiled, batch-stacked stamp matmuls, stamp-grid
  volume kernel) is at least 4x faster than the interp backend on the same
  sweep;
* it is at least 4x faster on the 320-candidate conv-explore layer too;
* both backends produce bit-identical performance reports, including
  dataflows with nested ``mod``/``floordiv`` terms that exercise the compiled
  backend's interpreter fallback, and wide temporal intervals, which the
  interp backend hands to the reference kernel and the grid kernel takes.

Timings land in the ``--bench-json`` trajectory (see the root conftest).
"""

import itertools
import time

from repro.core.analyzer import TenetAnalyzer
from repro.core.engine import EvaluationEngine, RelationCache, dataflow_signature
from repro.core.dataflow import Dataflow
from repro.dse.pruning import pruned_candidates
from repro.experiments.common import make_arch
from repro.isl.expr import var
from repro.tensor.kernels import conv2d, gemm

GEMM_SIZE = 48
PE_DIMS = (8, 8)
NUM_CANDIDATES = 100
#: The conv-explore layer: GoogLeNet incpt-3a scaled to 110,592 instances
#: (K C OY OX R S), swept over every pruned candidate the CLI would explore.
CONV_SIZES = (16, 12, 8, 8, 3, 3)
CONV_CANDIDATES = 320


def sweep_candidates(op, count=NUM_CANDIDATES, pe_dims=PE_DIMS):
    """Structurally distinct GEMM dataflows: space-axis pairs x time orders x skews."""
    rows, cols = pe_dims
    dims = list(op.loop_dims)
    candidates = []
    seen = set()
    for first, second in itertools.permutations(dims, 2):
        remaining = [dim for dim in dims if dim not in (first, second)]
        space = [var(first) % rows, var(second) % cols]
        base = [var(remaining[0]), var(first) // rows, var(second) // cols]
        for order in itertools.permutations(range(len(base))):
            for skew in range(4):
                time_exprs = [base[index] for index in order]
                inner = time_exprs[-1]
                if skew & 1:
                    inner = inner + space[0]
                if skew & 2:
                    inner = inner + space[1]
                time_exprs = time_exprs[:-1] + [inner]
                name = f"({first}{second}-P | {''.join(map(str, order))}s{skew}-T)"
                candidate = Dataflow.from_exprs(name, op.domain.space, space, time_exprs)
                signature = dataflow_signature(candidate)
                if signature in seen:
                    continue
                seen.add(signature)
                candidates.append(candidate)
                if len(candidates) == count:
                    return candidates
    raise AssertionError(f"only generated {len(candidates)} distinct candidates")


def nested_quasi_candidates(op, count=6, pe_dims=PE_DIMS):
    """Dataflows whose time stamps contain *nested* quasi terms.

    ``(fl(first/rows) + second) mod M`` wraps a floordiv inside a mod, which
    the stamp compiler cannot lower to derived columns — these candidates
    exercise the compiled backend's ``evaluate_vec`` interpreter fallback.
    """
    rows, cols = pe_dims
    dims = list(op.loop_dims)
    candidates = []
    for modulus, (first, second) in zip(
        itertools.cycle((5, 7, 11)), itertools.permutations(dims, 2)
    ):
        remaining = [dim for dim in dims if dim not in (first, second)]
        space = [var(first) % rows, var(second) % cols]
        folded = (var(first) // rows + var(second)) % modulus
        time_exprs = [var(remaining[0]), var(first) // rows, var(second) // cols, folded]
        name = f"({first}{second}-P | nested%{modulus}-T)"
        candidates.append(Dataflow.from_exprs(name, op.domain.space, space, time_exprs))
        if len(candidates) == count:
            break
    return candidates


def comparable(report):
    data = report.as_dict()
    data.pop("analysis_seconds")
    data["notes"] = list(report.notes)
    return data


def reset_memos(engine):
    """Clear the cross-round report memo so repeated timings stay honest."""
    engine._memo.clear()


def timed_sweep(op, arch, candidates, backend, repeats=2, **engine_kwargs):
    """Best-of-``repeats`` steady-state sweep time (relation cache warm).

    A production sweep evaluates thousands of candidates against one warm
    cache, so one-time costs (relation materialisation, layout compilation)
    are amortised: warm the engine, then time full sweeps with the report
    memo cleared in between and keep the fastest run, exactly like the fig8
    runtime driver does.
    """
    engine = EvaluationEngine(
        op, arch, cache=RelationCache(), backend=backend, **engine_kwargs
    )
    engine.evaluate(candidates[0])  # warm the relation cache
    seconds = float("inf")
    for _ in range(max(1, repeats)):
        reset_memos(engine)
        started = time.perf_counter()
        batch = engine.evaluate_batch(candidates)
        seconds = min(seconds, time.perf_counter() - started)
    return batch, seconds, engine


def interleaved_sweeps(op, arch, candidates, backends, rounds=4):
    """Steady-state sweep times for several backends, interleaved per round.

    Interleaving makes the comparison robust to systemic noise (CPU
    contention, frequency scaling): a slow phase of the machine inflates
    every backend's round equally, and the per-backend minimum over rounds
    discards it.
    """
    engines = {}
    for backend in backends:
        engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
        engine.evaluate(candidates[0])  # warm relation cache and layouts
        engines[backend] = engine
    batches = {}
    seconds = {backend: float("inf") for backend in backends}
    for _ in range(rounds):
        for backend, engine in engines.items():
            reset_memos(engine)
            started = time.perf_counter()
            batches[backend] = engine.evaluate_batch(candidates)
            seconds[backend] = min(seconds[backend], time.perf_counter() - started)
    return batches, seconds, engines


def test_bench_engine_sweep(benchmark, bench_record):
    op = gemm(GEMM_SIZE, GEMM_SIZE, GEMM_SIZE)
    arch = make_arch(pe_dims=PE_DIMS, interconnect="2d-systolic")
    candidates = sweep_candidates(op)
    assert len(candidates) == NUM_CANDIDATES

    started = time.perf_counter()
    baseline = [TenetAnalyzer(op, candidate, arch).analyze() for candidate in candidates]
    baseline_seconds = time.perf_counter() - started

    def sweep():
        return interleaved_sweeps(op, arch, candidates, ("interp", "fused"))

    def ratios(seconds):
        return (
            baseline_seconds / seconds["interp"],
            seconds["interp"] / seconds["fused"],
        )

    batches, seconds, engines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    engine_speedup, fused_speedup = ratios(seconds)
    # The fused backend must clear 4x over interp: the product of the two
    # 2x bars it used to meet through an intermediate compiled backend.  A
    # single re-measure guards the ratio against one-off machine hiccups.
    if fused_speedup < 4.0:
        batches, seconds, engines = sweep()
        engine_speedup, fused_speedup = ratios(seconds)

    fused_cps = NUM_CANDIDATES / seconds["fused"]
    print()
    print(f"independent analyzer runs : {baseline_seconds:.2f} s")
    print(f"interp engine sweep       : {seconds['interp']:.2f} s ({engine_speedup:.2f}x)")
    print(f"fused backend sweep       : {seconds['fused']:.2f} s "
          f"({fused_speedup:.2f}x vs interp, {fused_cps:.0f} cand/s)")
    print(f"fused stats               : {engines['fused'].stats}")
    bench_record(
        "engine_sweep_gemm48x100",
        analyzer_seconds=round(baseline_seconds, 3),
        interp_seconds=round(seconds["interp"], 3),
        fused_seconds=round(seconds["fused"], 3),
        engine_speedup=round(engine_speedup, 2),
        fused_speedup_vs_interp=round(fused_speedup, 2),
        fused_candidates_per_sec=round(fused_cps, 1),
    )

    # Bit-identical reports across the analyzer and both backends.
    for batch in batches.values():
        reports = batch.reports
        assert len(reports) == NUM_CANDIDATES
        for reference, candidate in zip(baseline, reports):
            assert comparable(reference) == comparable(candidate)

    assert engines["interp"].stats["fast_path"] > 0
    assert engines["fused"].stats["fused_path"] > 0

    assert engine_speedup >= 2.0, (
        f"engine sweep only {engine_speedup:.2f}x faster than independent runs"
    )
    assert fused_speedup >= 4.0, (
        f"fused backend only {fused_speedup:.2f}x faster than the interp backend"
    )


def test_bench_conv_sweep(benchmark, bench_record):
    """Fused against interp on the conv-explore layer, 2 interleaved rounds.

    Conv boundaries leave ragged (PE, element) groups and empty stamps,
    which the stamp grid covers without padding; the fused backend must
    clear 4x over interp here as on the gemm sweep.
    """
    op = conv2d(*CONV_SIZES)
    arch = make_arch(pe_dims=PE_DIMS, interconnect="2d-systolic")
    candidates = list(pruned_candidates(
        op, pe_dims=PE_DIMS, allow_packing=True, max_candidates=CONV_CANDIDATES
    ))
    assert len(candidates) == CONV_CANDIDATES

    def sweep():
        return interleaved_sweeps(op, arch, candidates, ("interp", "fused"), rounds=2)

    batches, seconds, engines = benchmark.pedantic(sweep, rounds=1, iterations=1)
    fused_speedup = seconds["interp"] / seconds["fused"]
    # A single re-measure guards the ratio against one-off machine hiccups.
    if fused_speedup < 4.0:
        batches, seconds, engines = sweep()
        fused_speedup = seconds["interp"] / seconds["fused"]

    fused_cps = CONV_CANDIDATES / seconds["fused"]
    print()
    print(f"interp engine sweep : {seconds['interp']:.2f} s")
    print(f"fused backend sweep : {seconds['fused']:.2f} s "
          f"({fused_speedup:.2f}x vs interp, {fused_cps:.0f} cand/s)")
    print(f"fused stats         : {engines['fused'].stats}")
    bench_record(
        "engine_sweep_conv2d_incpt3a",
        candidates=CONV_CANDIDATES,
        interp_seconds=round(seconds["interp"], 3),
        fused_seconds=round(seconds["fused"], 3),
        fused_speedup_vs_interp=round(fused_speedup, 2),
        fused_candidates_per_sec=round(fused_cps, 1),
    )

    reference = batches["interp"].reports
    assert len(reference) == len(batches["fused"].reports) == CONV_CANDIDATES
    for a, b in zip(reference, batches["fused"].reports):
        assert comparable(a) == comparable(b)
    stats = engines["fused"].stats
    assert stats["fused_path"] == stats["fast_path"] and stats["reference_path"] == 0
    assert fused_speedup >= 4.0, (
        f"fused backend only {fused_speedup:.2f}x faster than interp on conv"
    )


def test_bench_backend_fallback_and_wide_interval():
    op = gemm(24, 24, 24)
    arch = make_arch(pe_dims=(4, 4), interconnect="2d-systolic")

    # Nested mod/floordiv time stamps: the stamp compiler falls back to the
    # interpreter for those expressions; reports stay bit-identical.
    nested = nested_quasi_candidates(op, pe_dims=(4, 4))
    interp_batch, _, _ = timed_sweep(op, arch, nested, "interp")
    fused_batch, _, fused_engine = timed_sweep(op, arch, nested, "fused")
    assert fused_engine.stats["stamp_fallback_exprs"] > 0
    for reference, candidate in zip(interp_batch.reports, fused_batch.reports):
        assert comparable(reference) == comparable(candidate)

    # Temporal intervals beyond the sort kernels' adjacency window: interp
    # chains to the reference kernel, the fused grid kernel takes them, and
    # both still agree bit for bit.
    wide = sweep_candidates(op, count=30, pe_dims=(4, 4))
    interp_batch, _, interp_engine = timed_sweep(
        op, arch, wide, "interp", temporal_interval=12
    )
    fused_batch, _, fused_engine = timed_sweep(
        op, arch, wide, "fused", temporal_interval=12
    )
    assert interp_engine.stats["reference_path"] > 0
    assert fused_engine.stats["fused_path"] > 0
    assert fused_engine.stats["reference_path"] == 0
    assert len(fused_batch.reports) == len(wide)
    for reference, candidate in zip(interp_batch.reports, fused_batch.reports):
        assert comparable(reference) == comparable(candidate)


def test_bench_sbw_objective_prunes(bench_record):
    """``sbw`` early termination prunes candidates, best rank unchanged.

    The footprint bound divides by the candidate's compute delay, so pruning
    kicks in once a long-delay, low-bandwidth candidate is known: every
    highly-parallel candidate whose footprint floor already exceeds that
    bandwidth is skipped before its volume counting.
    """
    op = gemm(32, 32, 32)
    arch = make_arch(pe_dims=PE_DIMS, interconnect="2d-systolic")
    i, j, k = (var(dim) for dim in op.loop_dims)
    serial = Dataflow.from_exprs(
        "serial-low-sbw", op.domain.space, [i % PE_DIMS[0], j % PE_DIMS[1]], [i, j, k]
    )
    candidates = [serial] + sweep_candidates(op, count=60)
    cache = RelationCache()
    full_engine = EvaluationEngine(op, arch, cache=cache, memoize=False)
    full = full_engine.evaluate_batch(candidates, objective="sbw")
    pruned_engine = EvaluationEngine(op, arch, cache=cache, memoize=False)
    pruned = pruned_engine.evaluate_batch(
        candidates, objective="sbw", early_termination=True
    )
    score = lambda r: (r.scratchpad_bandwidth_bits(), r.dataflow)
    best_full = min(full.reports, key=score)
    best_pruned = min(pruned.reports, key=score)
    assert comparable(best_full) == comparable(best_pruned)
    assert len(pruned.pruned) > 0
    assert len(pruned.reports) + len(pruned.pruned) == len(candidates)
    print(f"\nsbw sweep: {len(pruned.pruned)} of {len(candidates)} candidates pruned")
    bench_record(
        "sbw_objective_pruning_gemm32",
        candidates=len(candidates),
        pruned=len(pruned.pruned),
    )
