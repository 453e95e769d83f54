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
retaining it, exactly as before the refactor.  For sweeps over many candidate
dataflows use :class:`repro.core.engine.EvaluationEngine`, which shares the
materialised relations across candidates and batches their stamp evaluation.
"""

from __future__ import annotations

import time

import numpy as np

from repro.arch.spec import ArchSpec
from repro.core.bandwidth import compute_bandwidth
from repro.core.dataflow import Dataflow
from repro.core.energy_model import compute_energy
from repro.core.engine import RelationMaterializer
from repro.core.latency import compute_latency
from repro.core.metrics import PerformanceReport
from repro.core.spacetime import SpacetimeMap
from repro.core.utilization import compute_utilization
from repro.core.volumes import VolumeMetrics, compute_volume_metrics
from repro.errors import DataflowError, ModelError
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
        validate: bool = False,
        temporal_interval: int = 1,
    ):
        self.op = op
        self.dataflow = dataflow.bind(op)
        self.arch = arch
        self.max_instances = int(max_instances)
        self.chunk_size = int(chunk_size)
        self.should_validate = validate
        self.temporal_interval = int(temporal_interval)
        self.spacetime = SpacetimeMap(
            arch.pe_array, arch.interconnect, temporal_interval=self.temporal_interval
        )
        self.materializer = RelationMaterializer(op, chunk_size=self.chunk_size)

    # -- public API -------------------------------------------------------------

    def analyze(self) -> PerformanceReport:
        """Run the full analysis and return a :class:`PerformanceReport`."""
        started = time.perf_counter()
        notes: list[str] = []

        box = self.op.domain.box_size()
        if box > self.max_instances:
            raise ModelError(
                f"iteration domain has up to {box} instances, above the analyzer cap of "
                f"{self.max_instances}; scale the workload (repro.workloads.scaling) or "
                "raise max_instances"
            )

        self.dataflow.check_pe_rank(self.op, self.arch.pe_array)
        if self.should_validate:
            validation = self.dataflow.validate(self.op, self.arch.pe_array, self.chunk_size)
            if not validation.is_valid:
                raise DataflowError(
                    f"dataflow {self.dataflow.name!r} is invalid for {self.op.name}: "
                    + "; ".join(validation.messages)
                )
            notes.extend(validation.messages)

        pe_lin, t_rank, element_keys, element_extents = self._materialize_relations()
        num_pes = self.arch.pe_array.size

        utilization = compute_utilization(pe_lin, t_rank, num_pes)
        if not utilization.is_injective:
            notes.append(
                "dataflow is not injective: some spacetime stamps execute more than one "
                "instance (the compute delay accounts for the extra cycles)"
            )

        predecessor_table = self.spacetime.predecessor_table()

        volumes: dict[str, VolumeMetrics] = {}
        for tensor, per_reference in element_keys.items():
            references = len(per_reference)
            if references == 1:
                tensor_pe, tensor_rank = pe_lin, t_rank
                tensor_elements = per_reference[0]
            else:
                tensor_pe = np.tile(pe_lin, references)
                tensor_rank = np.tile(t_rank, references)
                tensor_elements = np.concatenate(per_reference)
            volumes[tensor] = compute_volume_metrics(
                tensor,
                tensor_pe,
                tensor_rank,
                tensor_elements,
                predecessor_table,
                num_pes,
                spatial_interval=self.spacetime.spatial_interval,
                temporal_interval=self.temporal_interval,
                chunk_size=self.chunk_size,
                element_extent=element_extents[tensor],
            )

        latency = compute_latency(
            utilization,
            volumes,
            self.op.input_tensors,
            self.op.output_tensors,
            self.arch.memory,
        )
        bandwidth = compute_bandwidth(volumes, utilization.compute_delay_cycles)
        energy = compute_energy(
            utilization.num_instances,
            volumes,
            self.arch.energy,
            noc_hop_distance=self.arch.interconnect.hop_distance,
        )

        elapsed = time.perf_counter() - started
        return PerformanceReport(
            operation=self.op.name,
            dataflow=self.dataflow.name,
            architecture=self.arch.name,
            volumes=volumes,
            utilization=utilization,
            latency=latency,
            bandwidth=bandwidth,
            energy=energy,
            word_bits=self.arch.memory.word_bits,
            peak_macs_per_cycle=self.arch.peak_macs_per_cycle,
            analysis_seconds=elapsed,
            notes=notes,
        )

    # -- relation materialisation ---------------------------------------------------

    def _materialize_relations(self):
        """Evaluate dataflow and access relations over the whole iteration domain."""
        return self.materializer.materialize(
            self.dataflow, self.arch.pe_array, self.max_instances
        )


def analyze(op: TensorOp, dataflow: Dataflow, arch: ArchSpec, **kwargs) -> PerformanceReport:
    """Convenience wrapper: ``TenetAnalyzer(op, dataflow, arch, **kwargs).analyze()``."""
    return TenetAnalyzer(op, dataflow, arch, **kwargs).analyze()
