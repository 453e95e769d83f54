"""Backend contract for the evaluation engine.

A backend decides *how* the per-candidate hot path of a sweep is computed:

* how the dataflow's space/time stamps are evaluated over the cached
  relations (interpreted expression trees, or per-axis vectors summed by
  broadcasting over a box domain), and
* which exact membership kernel counts the Table II volumes.

Every backend is *exact*: reports are bit-identical across backends, so the
choice is purely a performance decision.  Backends that cannot handle a case
return ``None`` for a tensor from :meth:`EngineBackend.volume_metrics_many`
and the engine falls back to its reference kernel,
:func:`repro.core.volumes.compute_volume_metrics`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.arch.pe_array import PEArray
from repro.core.dataflow import Dataflow
from repro.core.utilization import UtilizationMetrics
from repro.core.volumes import VolumeMetrics

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (engine imports us)
    from repro.core.engine import EvaluationEngine, OpRelations


@dataclass
class Stamps:
    """One candidate's stamps: every instance's linear PE index and dense
    time rank.  A backend may return an object that builds either column
    only when it is read."""

    pe_lin: np.ndarray
    t_rank: np.ndarray


class EngineBackend:
    """Stamp evaluation and volume kernels for one :class:`EvaluationEngine`.

    A backend copies the few engine values its kernels read instead of
    keeping the engine itself: an engine owns its backend, so a reference
    back would form a cycle that keeps the engine and every memo in it
    allocated after ``close()`` until the cyclic GC runs.  ``stats`` is the
    engine's counter dict, shared so kernel-path counts land in it.
    """

    name = "base"

    def __init__(self, engine: "EvaluationEngine"):
        self.materializer = engine.materializer
        self.loop_dims = engine.op.loop_dims
        self.predecessor_table = engine._predecessor_table
        self.num_pes = engine.arch.pe_array.size
        self.spatial_interval = engine._spacetime.spatial_interval
        self.stats = engine.stats

    # -- stamp evaluation -------------------------------------------------------

    def stamps(
        self,
        relations: "OpRelations",
        dataflow: Dataflow,
        pe_array: PEArray,
    ) -> Stamps:
        """Evaluate one candidate's stamps over cached relations."""
        raise NotImplementedError

    # -- utilization -------------------------------------------------------------

    def utilization(
        self, stamps: Stamps, num_pes: int
    ) -> tuple[UtilizationMetrics | None, object | None]:
        """``(metrics, grid)`` over cached relations.

        ``metrics`` is ``None`` to use the reference
        :func:`repro.core.utilization.compute_utilization`.  ``grid`` is
        backend-specific per-candidate data the engine hands back to
        :meth:`volume_metrics_many`; the default dense-histogram kernel
        builds none.
        """
        from repro.core.engine import _utilization_dense

        return _utilization_dense(stamps.pe_lin, stamps.t_rank, num_pes), None

    # -- volume kernels ---------------------------------------------------------

    def volume_metrics(
        self,
        tensor: str,
        dataflow: Dataflow,
        pe_lin: np.ndarray,
        t_rank: np.ndarray,
        relations: "OpRelations",
        *,
        assume_unique: bool,
    ) -> VolumeMetrics | None:
        """Exact Table II metrics by the group-major sort/adjacency kernel,
        or ``None`` (its key layout would overflow int64) to use the
        reference kernel."""
        from repro.core.engine import _grouped_volume_metrics

        return _grouped_volume_metrics(
            tensor,
            pe_lin,
            t_rank,
            relations.tensors[tensor],
            self.predecessor_table,
            self.num_pes,
            spatial_interval=self.spatial_interval,
            assume_unique=assume_unique,
        )

    def volume_metrics_many(
        self,
        tensors: Sequence[str],
        dataflow: Dataflow,
        stamps: Stamps,
        relations: "OpRelations",
        *,
        assume_unique: bool,
        grid: object | None = None,
    ) -> dict[str, VolumeMetrics | None]:
        """Volume metrics for several tensors of one candidate.

        ``grid`` is what :meth:`utilization` returned for the candidate.  The
        default evaluates tensors one by one; the fused backend overrides it
        to count every tensor on the candidate's one stamp grid.
        """
        return {
            tensor: self.volume_metrics(
                tensor,
                dataflow,
                stamps.pe_lin,
                stamps.t_rank,
                relations,
                assume_unique=assume_unique,
            )
            for tensor in tensors
        }


class InterpBackend(EngineBackend):
    """The PR 1 hot path: interpreted stamp expressions, group-major kernel.

    Stamps go through :meth:`RelationMaterializer.stamps` (one
    ``AffExpr.evaluate_vec`` tree walk per expression per candidate) and
    volumes through the group-major sort/adjacency kernel.  This backend is
    the reference the fused backend is checked and benchmarked against.
    """

    name = "interp"

    def stamps(self, relations, dataflow, pe_array):
        return Stamps(*self.materializer.stamps(relations, dataflow, pe_array))
