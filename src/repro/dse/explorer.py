"""Objective-driven exploration of candidate dataflows.

The explorer is a thin facade over :class:`repro.sweep.SweepSession`: it owns
an :class:`repro.core.engine.EvaluationEngine` for one (operation,
architecture) pair and hands every sweep — deduplication, streaming batches,
sharding, checkpoint/resume, ranking — to the shared session.  Ranking is
deterministic: ties on the objective are broken by dataflow name (and, in the
merged ranking, by structural signature), so equal-score candidates order
stably across runs and shards.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.arch.spec import ArchSpec
from repro.core.dataflow import Dataflow
from repro.core.engine import EvaluationEngine, RelationCache
from repro.core.metrics import PerformanceReport
from repro.sweep.session import SweepResult, SweepSession, resolve_objective
from repro.tensor.operation import TensorOp

Objective = Callable[[PerformanceReport], float]

#: The exploration result *is* the sweep result; the old name stays exported.
ExplorationResult = SweepResult


class DesignSpaceExplorer:
    """Evaluate candidate dataflows with the evaluation engine and rank them."""

    def __init__(
        self,
        op: TensorOp,
        arch: ArchSpec,
        objective: str | Objective = "latency",
        *,
        max_instances: int = 4_000_000,
        cache: RelationCache | None = None,
        backend: str = "fused",
    ):
        self.op = op
        self.arch = arch
        self.max_instances = max_instances
        self.engine = EvaluationEngine(
            op,
            arch,
            max_instances=max_instances,
            cache=cache,
            backend=backend,
        )
        # Unknown objective names raise here, not at sweep time.
        self.objective_name, self.objective, _ = resolve_objective(objective)
        self._objective = objective

    def session(
        self,
        *,
        early_termination: bool = False,
        checkpoint: str | None = None,
        resume: bool = False,
        checkpoint_fsync: int | None = None,
        top_k: int | None = None,
    ) -> SweepSession:
        """A sweep session on this explorer's warm engine."""
        return SweepSession(
            self.engine,
            objective=self._objective,
            early_termination=early_termination,
            checkpoint=checkpoint,
            resume=resume,
            checkpoint_fsync=checkpoint_fsync,
            top_k=top_k,
        )

    def explore(
        self,
        candidates: Iterable[Dataflow],
        *,
        early_termination: bool = False,
        shard: tuple[int, int] | None = None,
        checkpoint: str | None = None,
        resume: bool = False,
        checkpoint_fsync: int | None = None,
        top_k: int | None = None,
    ) -> ExplorationResult:
        """Sweep every candidate and return them ranked by the objective.

        ``candidates`` is any iterable of dataflows, iterated once; structural
        duplicates are skipped.

        Only repro modelling errors (``ModelError``/``DataflowError``/
        ``SpaceError``) mark a candidate as invalid; genuine bugs — a
        ``TypeError`` in a custom objective, ``KeyboardInterrupt`` —
        propagate to the caller.

        ``early_termination`` prunes candidates whose partial lower bound
        already exceeds the best score.  Only the *best* candidate is
        guaranteed unchanged: lower ranks may be pruned, so request a full
        sweep when the whole top-k matters.  It requires a named objective
        with a registered lower bound (``latency``/``edp`` bound from the
        compute delay; ``sbw``/``unique_volume`` from the cached per-tensor
        footprints, upgraded to distinct-group counts on link-free
        interconnects) and is silently a no-op otherwise (in particular for
        callable objectives).

        ``shard=(i, n)`` sweeps only the deterministic ``i``-th of ``n``
        signature-hash partitions; ``checkpoint``/``resume`` persist and
        restore per-candidate results (see :mod:`repro.sweep`).

        ``top_k`` bounds the in-memory ranking to the best ``k`` entries
        (``result.evaluated`` stays empty; attach a checkpoint for the full
        record).
        """
        session = self.session(
            early_termination=early_termination, checkpoint=checkpoint,
            resume=resume, checkpoint_fsync=checkpoint_fsync, top_k=top_k,
        )
        return session.run(candidates, shard=shard)
