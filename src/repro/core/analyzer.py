"""The TENET analyzer: from (operation, dataflow, architecture) to metrics.

The analyzer materialises the relations of Section IV for a bounded loop nest
and computes every Section V metric:

1. stream the iteration domain and evaluate the space-stamp and time-stamp
   expressions (the dataflow relation Theta);
2. rank the distinct time-stamps in lexicographic order — this linearises the
   execution sequence exactly as the lexicographic comparison of Definition 1;
3. derive PE-utilization statistics and the compute delay (Equation 8);
4. for every tensor, enumerate the data assignment relation (Definition 2) and
   count the Table II volumes against the spacetime map induced by the
   interconnection relation (Definitions 3 and 4);
5. combine volumes into latency (Equation 7), bandwidth (Equations 9 and 10)
   and energy.

The role ISL/Barvinok play in the paper — representing relations and counting
them — is carried by :mod:`repro.isl` plus the vectorised counting here.

Relation materialisation lives in :class:`repro.core.engine.RelationMaterializer`
so that design-space sweeps can cache the dataflow-independent arrays; this
class remains the single-candidate entry point and streams the domain without
retaining it.  For sweeps over many candidate dataflows use
:class:`repro.core.engine.EvaluationEngine`, which shares the materialised
relations across candidates and batches their stamp evaluation.  Both run the
same prologue (:func:`~repro.core.engine.bind_checked`), reference volume
kernel (:func:`~repro.core.engine.reference_volume_metrics`) and epilogue
(:func:`~repro.core.engine.assemble_report`), so their reports agree.

Every evaluation checks the dataflow on the way: past the instance cap it
raises ``ModelError``; a space stamp of the wrong rank
(:meth:`~repro.core.dataflow.Dataflow.check_pe_rank`) or an instance off the
PE array raises ``DataflowError``; a stamp that runs several instances is
allowed, costs the extra compute cycles, and gets a report note
(``utilization.is_injective`` is False).
"""

from __future__ import annotations

import time

from repro.arch.spec import ArchSpec
from repro.core.dataflow import Dataflow
from repro.core.engine import (
    RelationMaterializer,
    assemble_report,
    bind_checked,
    reference_volume_metrics,
)
from repro.core.metrics import PerformanceReport
from repro.core.spacetime import SpacetimeMap
from repro.core.utilization import compute_utilization
from repro.tensor.operation import TensorOp


class TenetAnalyzer:
    """Analyse one dataflow for one tensor operation on one architecture."""

    def __init__(
        self,
        op: TensorOp,
        dataflow: Dataflow,
        arch: ArchSpec,
        *,
        max_instances: int = 32_000_000,
        chunk_size: int = 1 << 20,
    ):
        self.op = op
        self.dataflow = dataflow
        self.arch = arch
        self.max_instances = int(max_instances)
        self.chunk_size = int(chunk_size)
        self.spacetime = SpacetimeMap(arch.pe_array, arch.interconnect)
        self.materializer = RelationMaterializer(op, chunk_size=self.chunk_size)

    # -- public API -------------------------------------------------------------

    def analyze(self) -> PerformanceReport:
        """Run the full analysis and return a :class:`PerformanceReport`."""
        started = time.perf_counter()
        dataflow = bind_checked(self.op, self.dataflow, self.arch, self.max_instances)
        pe_lin, t_rank, element_keys, element_extents = self.materializer.materialize(
            dataflow, self.arch.pe_array, self.max_instances
        )
        utilization = compute_utilization(pe_lin, t_rank, self.arch.pe_array.size)
        volumes = {
            tensor: reference_volume_metrics(
                tensor, pe_lin, t_rank, per_reference, element_extents[tensor],
                self.spacetime, chunk_size=self.chunk_size,
            )
            for tensor, per_reference in element_keys.items()
        }
        return assemble_report(
            self.op, self.arch, dataflow.name, utilization, volumes, [], started
        )


def analyze(op: TensorOp, dataflow: Dataflow, arch: ArchSpec, **kwargs) -> PerformanceReport:
    """Convenience wrapper: ``TenetAnalyzer(op, dataflow, arch, **kwargs).analyze()``."""
    return TenetAnalyzer(op, dataflow, arch, **kwargs).analyze()
