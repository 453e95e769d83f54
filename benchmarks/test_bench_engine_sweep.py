"""Acceptance benchmarks for the shared evaluation engine and its backends.

Four claims are checked on GEMM and conv sweeps:

* a 100-candidate sweep through :class:`EvaluationEngine` (interp backend,
  relation cache on) is at least 2x faster than 100 independent
  ``TenetAnalyzer`` runs;
* the fused backend (per-axis stamps, stamp-grid volume kernel) is at least
  4x faster than the interp backend on the same sweep;
* it is at least 4x faster on the 320-candidate conv-explore layer too;
* both backends produce bit-identical performance reports, including
  dataflows with nested ``mod``/``floordiv`` terms, whose stamps the fused
  backend hands to the interpreter, and wide temporal intervals, which the
  interp backend hands to the reference kernel and the grid kernel takes.

Each speed ratio is taken between medians of interleaved rounds
(:func:`benchmarks.conftest.interleaved_medians`).
"""

import itertools

from benchmarks.conftest import interleaved_medians
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
#: Interleaved rounds behind each speed ratio's medians.
ROUNDS = 3
BACKENDS = ("interp", "fused")


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

    ``(fl(first/rows) + second) mod M`` wraps a floordiv inside a mod over
    two loop variables, which does not split per axis — these candidates
    exercise the fused backend's interpreter fallback
    (``stamp_fallback_exprs``).
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


def warm_engine(op, arch, candidates, backend):
    """An engine on its own relation cache, warmed on the first candidate, so
    the timed rounds measure steady-state sweeps, as a production sweep of
    thousands of candidates against one warm cache does."""
    engine = EvaluationEngine(op, arch, cache=RelationCache(), backend=backend)
    engine.evaluate(candidates[0])
    return engine


def resweep(engine, candidates, batches, key):
    """An :func:`interleaved_medians` side: one full sweep on ``engine``.

    The report memo and the counters are cleared first (the counters in
    place: the backend shares the dict), so every round evaluates every
    candidate and the counters describe one sweep.  The batch lands in
    ``batches[key]``.
    """

    def run():
        engine._memo.clear()
        engine.stats.update(dict.fromkeys(engine.stats, 0))
        batches[key] = engine.evaluate_batch(candidates)

    return run


def untimed_sweep(op, arch, candidates, backend, **engine_kwargs):
    """One sweep on a fresh engine; returns ``(batch, engine)``."""
    engine = EvaluationEngine(
        op, arch, cache=RelationCache(), backend=backend, **engine_kwargs
    )
    return engine.evaluate_batch(candidates), engine


def test_bench_engine_sweep():
    op = gemm(GEMM_SIZE, GEMM_SIZE, GEMM_SIZE)
    arch = make_arch(pe_dims=PE_DIMS, interconnect="2d-systolic")
    candidates = sweep_candidates(op)
    assert len(candidates) == NUM_CANDIDATES

    engines = {backend: warm_engine(op, arch, candidates, backend) for backend in BACKENDS}
    batches = {}

    def analyzer():
        batches["analyzer"] = [
            TenetAnalyzer(op, candidate, arch).analyze() for candidate in candidates
        ]

    print()
    seconds = interleaved_medians(
        {
            "analyzer": analyzer,
            **{b: resweep(engines[b], candidates, batches, b) for b in BACKENDS},
        },
        ROUNDS,
    )
    engine_speedup = seconds["analyzer"] / seconds["interp"]
    fused_speedup = seconds["interp"] / seconds["fused"]
    print(f"interp engine over analyzer runs : {engine_speedup:.2f}x")
    print(f"fused over interp                : {fused_speedup:.2f}x "
          f"({NUM_CANDIDATES / seconds['fused']:.0f} cand/s)")
    print(f"fused stats                      : {engines['fused'].stats}")

    # Bit-identical reports across the analyzer and both backends.
    for backend in BACKENDS:
        reports = batches[backend].reports
        assert len(reports) == NUM_CANDIDATES
        for reference, candidate in zip(batches["analyzer"], reports):
            assert comparable(reference) == comparable(candidate)

    # One sweep's kernel paths: every per-tensor evaluation (3 tensors x 100
    # candidates) takes the grid kernel on fused, and none reaches the
    # reference kernel on either backend.
    fused = engines["fused"].stats
    assert fused["fused_path"] == fused["fast_path"] == 3 * NUM_CANDIDATES
    assert fused["reference_path"] == 0
    assert engines["interp"].stats["reference_path"] == 0

    assert engine_speedup >= 2.0, (
        f"engine sweep only {engine_speedup:.2f}x faster than independent runs "
        f"(medians of {ROUNDS} interleaved rounds)"
    )
    # The fused backend must clear 4x over interp: the product of the two
    # 2x bars it used to meet through an intermediate compiled backend.
    assert fused_speedup >= 4.0, (
        f"fused backend only {fused_speedup:.2f}x faster than the interp backend "
        f"(medians of {ROUNDS} interleaved rounds)"
    )


def test_bench_conv_sweep():
    """Fused against interp on the conv-explore layer.

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

    engines = {backend: warm_engine(op, arch, candidates, backend) for backend in BACKENDS}
    batches = {}
    print()
    seconds = interleaved_medians(
        {b: resweep(engines[b], candidates, batches, b) for b in BACKENDS}, ROUNDS
    )
    fused_speedup = seconds["interp"] / seconds["fused"]
    print(f"fused over interp : {fused_speedup:.2f}x "
          f"({CONV_CANDIDATES / seconds['fused']:.0f} cand/s)")
    print(f"fused stats       : {engines['fused'].stats}")

    reference = batches["interp"].reports
    assert len(reference) == len(batches["fused"].reports) == CONV_CANDIDATES
    for a, b in zip(reference, batches["fused"].reports):
        assert comparable(a) == comparable(b)
    stats = engines["fused"].stats
    assert stats["fused_path"] == stats["fast_path"] and stats["reference_path"] == 0
    assert fused_speedup >= 4.0, (
        f"fused backend only {fused_speedup:.2f}x faster than interp on conv "
        f"(medians of {ROUNDS} interleaved rounds)"
    )


def test_bench_backend_fallback_and_wide_interval():
    op = gemm(24, 24, 24)
    arch = make_arch(pe_dims=(4, 4), interconnect="2d-systolic")

    # Nested mod/floordiv time stamps: the stamp compiler falls back to the
    # interpreter for those expressions; reports stay bit-identical.
    nested = nested_quasi_candidates(op, pe_dims=(4, 4))
    interp_batch, _ = untimed_sweep(op, arch, nested, "interp")
    fused_batch, fused_engine = untimed_sweep(op, arch, nested, "fused")
    assert fused_engine.stats["stamp_fallback_exprs"] > 0
    for reference, candidate in zip(interp_batch.reports, fused_batch.reports):
        assert comparable(reference) == comparable(candidate)

    # Temporal intervals beyond the sort kernels' adjacency window: interp
    # chains to the reference kernel, the fused grid kernel takes them, and
    # both still agree bit for bit.
    wide = sweep_candidates(op, count=30, pe_dims=(4, 4))
    interp_batch, interp_engine = untimed_sweep(
        op, arch, wide, "interp", temporal_interval=12
    )
    fused_batch, fused_engine = untimed_sweep(
        op, arch, wide, "fused", temporal_interval=12
    )
    assert interp_engine.stats["reference_path"] > 0
    assert fused_engine.stats["fused_path"] > 0
    assert fused_engine.stats["reference_path"] == 0
    assert len(fused_batch.reports) == len(wide)
    for reference, candidate in zip(interp_batch.reports, fused_batch.reports):
        assert comparable(reference) == comparable(candidate)


def test_bench_sbw_objective_prunes():
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

    def score(report):
        return report.scratchpad_bandwidth_bits(), report.dataflow

    best_full = min(full.reports, key=score)
    best_pruned = min(pruned.reports, key=score)
    assert comparable(best_full) == comparable(best_pruned)
    # Pruning is deterministic: the same 49 of the 61 candidates every run.
    assert len(pruned.pruned) == 49
    assert len(pruned.reports) + len(pruned.pruned) == len(candidates)
    print(f"\nsbw sweep: {len(pruned.pruned)} of {len(candidates)} candidates pruned")
