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

import importlib
from typing import Any

#: Each public name and the submodule that defines it.  A name is imported
#: on first use (PEP 562), so ``import repro.sweep.session`` or
#: ``repro.sweep.faults`` loads neither the TCP service, the client, the
#: fleet nor ``asyncio``.
_EXPORTS = {
    "FaultPlan": "faults",
    "FaultSpec": "faults",
    "FaultInjector": "faults",
    "InjectedFault": "faults",
    "InjectedDisconnect": "faults",
    "PipelineBrokenError": "client",
    "SweepClient": "client",
    "EngineQuarantinedError": "server",
    "SweepRequest": "server",
    "SweepServer": "server",
    "RequestTimeout": "net",
    "SweepService": "net",
    "serve_lines": "net",
    "run_tcp_server": "net",
    "iter_lines": "net",
    "parse_listen": "net",
    "format_announce": "net",
    "parse_announce": "net",
    "signature_shard_index": "source",
    "parse_shard": "source",
    "validate_shard": "source",
    "ResultSink": "sinks",
    "TopKSink": "sinks",
    "JsonlCheckpointSink": "sinks",
    "RankEntry": "sinks",
    "clone_checkpoint": "sinks",
    "load_ranking": "sinks",
    "render_ranking": "sinks",
    "report_record": "sinks",
    "FleetCoordinator": "fleet",
    "FleetError": "fleet",
    "FleetResult": "fleet",
    "launch_replica": "fleet",
    "parse_attach": "fleet",
    "SweepSession": "session",
    "SweepResult": "session",
}

__all__ = list(_EXPORTS)


def __getattr__(name: str) -> Any:
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value
