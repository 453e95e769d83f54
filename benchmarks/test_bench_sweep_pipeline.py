"""Acceptance benchmarks for the streaming sweep pipeline (`repro.sweep`).

Three claims are checked on the 100-candidate GEMM sweep family:

* **Shard identity** — ``shard=(0, n) … (n-1, n)`` together evaluate every
  candidate exactly once and their merged checkpoint ranking is bit-identical
  to the unsharded sweep's.
* **Resume identity** — a sweep killed mid-stream and resumed from its
  checkpoint produces a final ranking bit-identical to an uninterrupted run.
* **Throughput** — the streaming session's end-to-end candidates/sec lands in
  the ``--bench-json`` trajectory so the perf history covers the pipeline,
  and the streaming overhead over a raw ``evaluate_batch`` call stays small.
"""

import statistics
import time

from benchmarks.test_bench_engine_sweep import GEMM_SIZE, sweep_candidates
from repro.core.engine import EvaluationEngine, RelationCache, dataflow_signature
from repro.experiments.common import make_arch
from repro.sweep import SweepSession, load_ranking, render_ranking
from repro.tensor.kernels import gemm

NUM_CANDIDATES = 100
#: Alternating raw/session rounds behind the streaming-overhead medians.
OVERHEAD_ROUNDS = 5


def fresh_session(op, arch, checkpoint=None, resume=False, batch_size=25):
    engine = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
    return SweepSession(
        engine,
        objective="latency",
        batch_size=batch_size,
        checkpoint=checkpoint,
        resume=resume,
    )


def test_bench_sweep_pipeline_shard_resume_identity(tmp_path, bench_record):
    op = gemm(GEMM_SIZE, GEMM_SIZE, GEMM_SIZE)
    arch = make_arch(pe_dims=(8, 8))
    candidates = sweep_candidates(op, NUM_CANDIDATES)

    full_path = tmp_path / "full.jsonl"
    started = time.perf_counter()
    full = fresh_session(op, arch, checkpoint=str(full_path)).run(candidates)
    sweep_seconds = time.perf_counter() - started
    assert len(full.evaluated) == NUM_CANDIDATES

    # -- shard identity: partition exactly once, merge bit-identically -------
    shard_paths = []
    shard_signatures: list[str] = []
    for index in range(2):
        path = tmp_path / f"shard{index}.jsonl"
        shard_paths.append(path)
        result = fresh_session(op, arch, checkpoint=str(path)).run(
            candidates, shard=(index, 2)
        )
        shard_signatures.extend(e.signature for e in result.ranking)
    assert sorted(shard_signatures) == sorted(dataflow_signature(c) for c in candidates)
    merged = load_ranking(shard_paths)
    reference = load_ranking(full_path)
    assert [(e.signature, e.score, e.data) for e in merged] == [
        (e.signature, e.score, e.data) for e in reference
    ]
    assert render_ranking(merged) == render_ranking(reference)

    # -- resume identity: kill after 40 candidates, resume, compare ----------
    resumed_path = tmp_path / "resumed.jsonl"
    fresh_session(op, arch, checkpoint=str(resumed_path)).run(candidates[:40])
    resumed = fresh_session(op, arch, checkpoint=str(resumed_path), resume=True).run(
        candidates
    )
    assert resumed.skipped == 40
    assert [(e.signature, e.score, e.data) for e in resumed.ranking] == [
        (e.signature, e.score, e.data) for e in full.ranking
    ]

    # -- throughput trajectory ------------------------------------------------
    bench_record(
        "sweep_pipeline_gemm48",
        candidates=NUM_CANDIDATES,
        sweep_seconds=round(sweep_seconds, 4),
        candidates_per_second=round(full.throughput, 2),
        batches=full.batches,
    )


def test_bench_sweep_streaming_overhead(bench_record):
    # The session's streaming loop (signatures, sinks, ranking) must not cost
    # a meaningful fraction of the raw engine batch it drives.  Raw batches
    # and session runs alternate over OVERHEAD_ROUNDS rounds, each side
    # leading every other round, and the ratio is taken between the medians,
    # so a burst of load from another process lands on both sides.
    op = gemm(GEMM_SIZE, GEMM_SIZE, GEMM_SIZE)
    arch = make_arch(pe_dims=(8, 8))
    candidates = sweep_candidates(op, NUM_CANDIDATES)

    engine = EvaluationEngine(op, arch, cache=RelationCache(), memoize=False)
    engine.evaluate(candidates[0])  # warm the relations
    session = SweepSession(
        EvaluationEngine(op, arch, cache=RelationCache(), memoize=False),
        objective="latency",
        batch_size=25,
    )
    session.evaluate(candidates[0])

    seconds: dict[str, list[float]] = {"raw": [], "session": []}
    evaluated = []
    for round_index in range(OVERHEAD_ROUNDS):
        for side in ("raw", "session") if round_index % 2 == 0 else ("session", "raw"):
            started = time.perf_counter()
            if side == "raw":
                engine.evaluate_batch(candidates)
            else:
                evaluated.append(len(session.run(candidates).evaluated))
            seconds[side].append(time.perf_counter() - started)
    raw_seconds = statistics.median(seconds["raw"])
    session_seconds = statistics.median(seconds["session"])

    overhead = session_seconds / raw_seconds if raw_seconds else float("inf")
    bench_record(
        "sweep_streaming_overhead_gemm48",
        raw_batch_seconds=round(raw_seconds, 4),
        session_seconds=round(session_seconds, 4),
        overhead_ratio=round(overhead, 3),
        candidates_per_second=round(NUM_CANDIDATES / session_seconds, 2),
        rounds=OVERHEAD_ROUNDS,
    )
    assert evaluated == [NUM_CANDIDATES] * OVERHEAD_ROUNDS
    assert overhead < 1.5, (
        f"streaming session is {overhead:.2f}x the raw batch on the same engine "
        f"(medians of {OVERHEAD_ROUNDS} alternating rounds)"
    )
