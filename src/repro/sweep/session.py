"""The streaming sweep session every sweep caller shares.

:class:`SweepSession` owns the one sweep loop in the codebase: it pulls
candidates lazily from any iterable of dataflows (so giant generators are
never materialised), deduplicates them structurally, drops candidates owned
by other shards, skips candidates a resumed checkpoint already holds, and
drives :meth:`repro.core.engine.EvaluationEngine.evaluate_batch` in bounded
batches with the running best score threaded through — batch boundaries
therefore never change an early-termination decision, and a resumed sweep
makes exactly the pruning decisions the uninterrupted sweep would have made.

Every outcome streams to the attached :class:`repro.sweep.sinks.ResultSink`\\ s
in candidate order before the next batch starts, so checkpoints are durable
mid-sweep.  The final :class:`SweepResult` merges live reports with
checkpoint-restored entries into one deterministic ranking.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

from repro.core.dataflow import Dataflow
from repro.core.engine import (
    OBJECTIVES,
    EvaluationEngine,
    arch_signature,
    dataflow_signature,
    op_signature,
)
from repro.core.metrics import PerformanceReport
from repro.errors import ExplorationError
from repro.sweep.sinks import (
    JsonlCheckpointSink,
    RankEntry,
    ResultSink,
    TopKSink,
    report_record,
)
from repro.sweep.source import signature_shard_index, validate_shard

Objective = Callable[[PerformanceReport], float]


def _short_hash(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=8).hexdigest()


def resolve_objective(
    objective: str | Objective,
) -> tuple[str, Objective, str | None]:
    """Resolve an objective into ``(name, score_fn, registry_key)``.

    ``registry_key`` is the :data:`~repro.core.engine.OBJECTIVES` name for
    named objectives (usable for early termination and checkpoints) and
    ``None`` for callables.  Unknown names raise eagerly.
    """
    if callable(objective):
        return getattr(objective, "__name__", "custom"), objective, None
    if objective not in OBJECTIVES:
        raise ExplorationError(
            f"unknown objective {objective!r}; available: {sorted(OBJECTIVES)}"
        )
    return objective, OBJECTIVES[objective], objective


@dataclass
class SweepResult:
    """Outcome of one sweep (the former ``ExplorationResult``, extended)."""

    objective: str
    #: Fully evaluated reports.  Empty when the sweep ran with ``top_k`` — a
    #: bounded sweep deliberately retains only the ``ranking`` entries (the
    #: JSONL checkpoint is the full record); ``evaluated_count`` always holds
    #: the true number of evaluations.
    evaluated: list[PerformanceReport] = field(default_factory=list)
    evaluated_count: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)
    #: Candidates skipped by early termination: (name, lower bound on score).
    pruned: list[tuple[str, float]] = field(default_factory=list)
    #: Structurally identical candidates skipped before evaluation.
    duplicates: int = 0
    #: Candidates restored from a resumed checkpoint instead of re-evaluated.
    skipped: int = 0
    #: Candidates owned by other shards of a ``--shard i/n`` partition.
    sharded_out: int = 0
    shard: tuple[int, int] | None = None
    #: Ranking bound of a ``top_k`` sweep (``None`` = unbounded).
    top_k: int | None = None
    batches: int = 0
    seconds: float = 0.0
    #: Live + checkpoint-restored candidates, sorted by (score, name, signature).
    #: Truncated to the ``top_k`` best when the sweep is bounded.
    ranking: list[RankEntry] = field(default_factory=list)

    @property
    def best(self) -> PerformanceReport:
        if not self.ranking:
            raise ExplorationError("no candidate dataflow could be evaluated")
        top = self.ranking[0]
        if top.report is None:
            raise ExplorationError(
                f"best candidate {top.name!r} was restored from a checkpoint; its "
                "metrics are in result.ranking[0].data"
            )
        return top.report

    @property
    def num_candidates(self) -> int:
        return (
            self.evaluated_count
            + len(self.failures)
            + len(self.pruned)
            + self.duplicates
            + self.skipped
        )

    @property
    def throughput(self) -> float:
        """Processed candidates per second (excluding resume skips)."""
        processed = self.evaluated_count + len(self.failures) + len(self.pruned)
        return processed / self.seconds if self.seconds > 0 else 0.0

    def top(self, count: int = 5) -> list[PerformanceReport]:
        entries = self.ranking[:count]
        if any(entry.report is None for entry in entries):
            raise ExplorationError(
                "top() needs live reports, but this sweep restored candidates "
                "from a checkpoint; rank with result.ranking (entry.data holds "
                "each restored candidate's metrics)"
            )
        return [entry.report for entry in entries]

    def summary(self, count: int = 5) -> str:
        extras = ""
        if self.skipped:
            extras += f", {self.skipped} resumed"
        if self.shard is not None:
            extras += (
                f"; shard {self.shard[0]}/{self.shard[1]} "
                f"({self.sharded_out} owned by other shards)"
            )
        lines = [
            f"explored {self.num_candidates} candidates in {self.seconds:.1f}s "
            f"({len(self.failures)} invalid, {len(self.pruned)} pruned, "
            f"{self.duplicates} duplicate{extras}), objective = {self.objective}",
        ]
        for rank, entry in enumerate(self.ranking[:count], start=1):
            lines.append(
                f"  {rank}. {entry.name:30s} latency={entry.data['latency_cycles']:.0f} "
                f"util={entry.data['average_pe_utilization']:.2f} "
                f"sbw={entry.data['sbw_bits_per_cycle']:.1f} bit/cycle"
            )
        return "\n".join(lines)


class SweepSession:
    """Drive one engine through a streaming, shard-aware, resumable sweep."""

    def __init__(
        self,
        engine: EvaluationEngine,
        *,
        objective: str | Objective = "latency",
        batch_size: int = 64,
        early_termination: bool = False,
        sinks: Sequence[ResultSink] | None = None,
        checkpoint: str | None = None,
        resume: bool = False,
        checkpoint_fsync: int | None = None,
        fault_injector=None,
        top_k: int | None = None,
    ):
        self.engine = engine
        self.objective_name, self.score, self.objective_key = resolve_objective(
            objective
        )
        self.batch_size = max(1, int(batch_size))
        self.early_termination = bool(early_termination)
        self.sinks: list[ResultSink] = list(sinks or [])
        #: Bounded-memory ranking: keep only the ``top_k`` best entries in
        #: memory instead of every report.  The JSONL checkpoint (when
        #: attached) remains the full per-candidate record.
        self.top_k = int(top_k) if top_k is not None else None
        if self.top_k is not None and self.top_k < 1:
            raise ExplorationError(f"top_k must be positive, got {top_k}")
        self.top_sink: TopKSink | None = None
        if self.top_k is not None:
            self.top_sink = TopKSink(self.top_k)
            self.sinks.append(self.top_sink)
        self.checkpoint_sink: JsonlCheckpointSink | None = None
        if checkpoint is not None:
            if self.objective_key is None:
                # A callable objective cannot be identity-checked across
                # processes, so resumed scores could silently mix objectives.
                raise ExplorationError(
                    "checkpointing needs a named objective (one of "
                    f"{sorted(OBJECTIVES)}); a callable objective cannot be "
                    "validated against the checkpoint on resume"
                )
            # ``checkpoint_fsync`` bounds what an OS crash can lose;
            # ``fault_injector`` lets chaos tests tear the write at byte k.
            self.checkpoint_sink = JsonlCheckpointSink(
                checkpoint,
                resume=resume,
                fsync_every=checkpoint_fsync,
                fault_injector=fault_injector,
            )
            self.sinks.append(self.checkpoint_sink)
        elif resume:
            raise ExplorationError(
                "resume=True needs a checkpoint path: without one there is "
                "nothing to resume from and the whole space would be re-swept"
            )

    # -- identity ----------------------------------------------------------------

    def meta(self, shard: tuple[int, int] | None = None) -> dict:
        """The sweep's structural identity (checkpoint header, server keys)."""
        return {
            "op": _short_hash(op_signature(self.engine.op)),
            "arch": _short_hash(arch_signature(self.engine.arch)),
            "objective": self.objective_name,
            # Pruned records only exist under early termination; a resume in
            # the other mode would silently skip (or re-score) them, so the
            # mode is part of the checkpoint identity.
            "early_termination": self.early_termination,
            # Informational: reports are backend-invariant, so a checkpoint
            # resumes on any backend (sinks compare fixed keys only).
            "backend": self.engine.backend_name,
            "shard": list(shard) if shard is not None else None,
        }

    # -- single-candidate convenience ---------------------------------------------

    def evaluate(self, dataflow: Dataflow) -> PerformanceReport:
        """Evaluate one candidate on the session's warm engine."""
        return self.engine.evaluate(dataflow)

    # -- the sweep loop -----------------------------------------------------------

    def run(
        self,
        candidates: Iterable[Dataflow],
        *,
        shard: tuple[int, int] | None = None,
    ) -> SweepResult:
        """Stream every candidate through the engine and rank the survivors.

        Only repro modelling errors (``ModelError``/``DataflowError``/
        ``SpaceError``) mark a candidate as invalid; genuine bugs — a
        ``TypeError`` in a custom objective, ``KeyboardInterrupt`` —
        propagate to the caller.

        ``candidates`` is iterated once.  Structural duplicates (same
        :func:`~repro.core.engine.dataflow_signature`) are skipped and counted
        in ``duplicates``.  ``shard=(i, n)`` keeps only the candidates whose
        signature hashes into shard ``i`` of ``n``
        (:func:`repro.sweep.source.signature_shard_index`); the ``n`` shards
        partition the deduplicated stream exactly.  With a ``checkpoint`` sink
        in ``resume`` mode, signatures already on disk are skipped and their
        recorded scores still seed early termination, so the resumed sweep
        replays the interrupted sweep's decisions.
        """
        started = time.perf_counter()
        if shard is not None:
            shard = validate_shard(shard)
        result = SweepResult(objective=self.objective_name, shard=shard)

        opened: list[ResultSink] = []
        try:
            for sink in self.sinks:
                sink.open(self.meta(shard))
                opened.append(sink)
            restored: list[RankEntry] = []
            completed: dict[str, dict] = {}
            if self.checkpoint_sink is not None:
                completed = self.checkpoint_sink.completed
                restored = self.checkpoint_sink.restored_entries()

            best_score: float | None = None
            if self.early_termination and self.objective_key is not None and restored:
                best_score = min(entry.score for entry in restored)

            live: list[RankEntry] = []

            def flush(batch: list[Dataflow]) -> None:
                nonlocal best_score
                if not batch:
                    return
                batch_result = self.engine.evaluate_batch(
                    batch,
                    objective=self.objective_key if self.early_termination else None,
                    early_termination=self.early_termination,
                    best_score=best_score,
                )
                for outcome in batch_result.outcomes:
                    score: float | None = None
                    if outcome.report is not None:
                        score = float(self.score(outcome.report))
                        result.evaluated_count += 1
                        if self.top_sink is None:
                            result.evaluated.append(outcome.report)
                            live.append(
                                RankEntry(
                                    signature=outcome.signature,
                                    name=outcome.name,
                                    score=score,
                                    data=report_record(outcome.report),
                                    report=outcome.report,
                                )
                            )
                        if best_score is None or score < best_score:
                            best_score = score
                    elif outcome.pruned:
                        result.pruned.append((outcome.name, outcome.bound))
                    elif outcome.error is not None:
                        result.failures.append((outcome.name, outcome.error))
                    for sink in self.sinks:
                        sink.emit(outcome, score)
                result.batches += 1

            pending: list[Dataflow] = []
            seen: set[str] = set()
            for dataflow in candidates:
                signature = dataflow_signature(dataflow)
                if signature in seen:
                    result.duplicates += 1
                    continue
                seen.add(signature)
                if (
                    shard is not None
                    and signature_shard_index(signature, shard[1]) != shard[0]
                ):
                    result.sharded_out += 1
                    continue
                if signature in completed:
                    result.skipped += 1
                    continue
                pending.append(dataflow)
                if len(pending) >= self.batch_size:
                    flush(pending)
                    pending = []
            flush(pending)
        finally:
            for sink in opened:
                sink.close()

        merged: dict[str, RankEntry] = {entry.signature: entry for entry in restored}
        for entry in (self.top_sink.top() if self.top_sink is not None else live):
            merged.setdefault(entry.signature, entry)
        result.ranking = sorted(merged.values(), key=lambda entry: entry.sort_key)
        if self.top_sink is not None:
            result.top_k = self.top_k
            del result.ranking[self.top_k:]
        result.evaluated.sort(key=lambda report: (self.score(report), report.dataflow))
        result.seconds = time.perf_counter() - started
        return result
