"""Streaming, shard-aware design-space sweeps.

The package factors the sweep loop that used to be re-implemented by every
caller (explorer, experiment drivers, CLI) into shared pieces, one path per
job:

* :mod:`repro.sweep.session` — :class:`SweepSession`: the one sweep loop.  It
  takes any iterable of dataflows, skips structural duplicates, keeps the
  candidates of its ``shard=(i, n)``, drives
  :meth:`repro.core.engine.EvaluationEngine.evaluate_batch` in bounded
  streaming batches with the running best score threaded through, and emits
  every outcome to pluggable sinks.
* :mod:`repro.sweep.source` — the stable signature hash behind ``shard``
  (N machines partition one space with no coordination) and the ``i/n``
  selector parser.
* :mod:`repro.sweep.sinks` — :class:`TopKSink` and
  :class:`JsonlCheckpointSink` (durable checkpoints, resume), and
  :func:`load_ranking` (shard merge); resume and merge read checkpoints
  through one parser.
* :mod:`repro.sweep.server` — :class:`SweepServer`: one warm engine +
  relation cache per operation; each :class:`SweepRequest` is serviced on
  one of ``max_workers`` threads.
* :mod:`repro.sweep.net` — :class:`SweepService`: the ``tenet serve`` line
  protocol over TCP *and* stdio (one shared connection handler), with
  round-robin multi-tenant fairness (as many sweeps in flight as the server
  has workers), backpressure, and graceful drain.
* :mod:`repro.sweep.client` — :class:`SweepClient`: a small blocking client
  for the networked service (round trips, pipelining, backoff/deadline
  retries, pipeline recovery after a drop).
* :mod:`repro.sweep.fleet` — :class:`FleetCoordinator`: the ``tenet fleet``
  orchestrator — N serve replicas, M shard leases with per-lease JSONL
  checkpoints, work stealing that resumes a revoked lease from its last
  durable record, and a bit-identical final merge.
* :mod:`repro.sweep.faults` — :class:`FaultPlan`/:class:`FaultInjector`:
  seeded, deterministic fault injection (connection drops, delays, torn
  lines, server kills, engine-build failures, checkpoint truncation) at hook
  points threaded through every layer above, so recovery is provable.
"""

from repro.sweep.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    InjectedDisconnect,
    InjectedFault,
)
from repro.sweep.fleet import (
    FleetCoordinator,
    FleetError,
    FleetResult,
    launch_replica,
    parse_attach,
)
from repro.sweep.source import parse_shard, signature_shard_index, validate_shard
from repro.sweep.sinks import (
    JsonlCheckpointSink,
    RankEntry,
    ResultSink,
    TopKSink,
    clone_checkpoint,
    load_ranking,
    render_ranking,
    report_record,
)
from repro.sweep.session import SweepResult, SweepSession
from repro.sweep.server import EngineQuarantinedError, SweepRequest, SweepServer
from repro.sweep.net import (
    RequestTimeout,
    SweepService,
    format_announce,
    iter_lines,
    parse_announce,
    parse_listen,
    run_tcp_server,
    serve_lines,
)
from repro.sweep.client import PipelineBrokenError, SweepClient

__all__ = [
    "FaultPlan",
    "FaultSpec",
    "FaultInjector",
    "InjectedFault",
    "InjectedDisconnect",
    "PipelineBrokenError",
    "EngineQuarantinedError",
    "RequestTimeout",
    "signature_shard_index",
    "parse_shard",
    "validate_shard",
    "ResultSink",
    "TopKSink",
    "JsonlCheckpointSink",
    "RankEntry",
    "clone_checkpoint",
    "load_ranking",
    "render_ranking",
    "report_record",
    "FleetCoordinator",
    "FleetError",
    "FleetResult",
    "launch_replica",
    "parse_attach",
    "SweepSession",
    "SweepResult",
    "SweepRequest",
    "SweepServer",
    "SweepService",
    "SweepClient",
    "serve_lines",
    "run_tcp_server",
    "iter_lines",
    "parse_listen",
    "format_announce",
    "parse_announce",
]
