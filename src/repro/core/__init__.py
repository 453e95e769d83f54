"""The relation-centric notation and performance model (Sections IV and V).

Public entry points:

* :class:`~repro.core.dataflow.Dataflow` — Definition 1: the space-stamp and
  time-stamp maps assigning loop instances to PEs and execution order.
* :class:`~repro.core.assignment.DataAssignment` — Definition 2: the relation
  from spacetime stamps to tensor elements.
* :class:`~repro.core.spacetime.SpacetimeMap` — Definition 4: adjacency of
  spacetime stamps induced by the interconnect.
* :class:`~repro.core.analyzer.TenetAnalyzer` — computes every performance
  metric of Section V (volumes, reuse, latency, bandwidth, utilisation,
  energy) and returns a :class:`~repro.core.metrics.PerformanceReport`.
"""

from repro.core.dataflow import Dataflow
from repro.core.assignment import DataAssignment
from repro.core.spacetime import SpacetimeMap
from repro.core.volumes import VolumeMetrics
from repro.core.utilization import UtilizationMetrics
from repro.core.latency import LatencyBreakdown
from repro.core.bandwidth import BandwidthReport
from repro.core.energy_model import EnergyBreakdown
from repro.core.metrics import PerformanceReport
from repro.core.analyzer import TenetAnalyzer, analyze
from repro.core.backends import BACKEND_NAMES
from repro.core.engine import (
    BatchResult,
    CandidateOutcome,
    EvaluationEngine,
    RelationCache,
    RelationMaterializer,
    dataflow_signature,
)
from repro.core.notation import dataflow_shorthand, parse_shorthand_name

__all__ = [
    "Dataflow",
    "DataAssignment",
    "SpacetimeMap",
    "VolumeMetrics",
    "UtilizationMetrics",
    "LatencyBreakdown",
    "BandwidthReport",
    "EnergyBreakdown",
    "PerformanceReport",
    "TenetAnalyzer",
    "analyze",
    "BACKEND_NAMES",
    "EvaluationEngine",
    "RelationCache",
    "RelationMaterializer",
    "BatchResult",
    "CandidateOutcome",
    "dataflow_signature",
    "dataflow_shorthand",
    "parse_shorthand_name",
]
