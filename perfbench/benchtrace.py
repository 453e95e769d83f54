"""Benchmark-side instruments: spans, counters, percentiles, child processes.

The program under test is never edited.  :func:`install` wraps the public
entry points of each layer with spans and reads the counters the program
already keeps (``engine.stats``, ``engine.stage_seconds``,
``RelationCache.stats()``, ``SweepResult``, ``FleetResult``); the function it
returns restores the originals and adds the relation-cache deltas, so one
process can alternate traced and untraced repetitions.

Layers and the calls wrapped for them:

=====================  ==================================================
``repro.dse``          ``pruned_candidates`` (each ``next()`` is a span)
``repro.isl``          ``RelationMaterializer.relations`` (+ cache stats)
``repro.core.engine``  ``EvaluationEngine.evaluate_batch`` (+ stats deltas)
``repro.sweep.session``  ``SweepSession.run``
``repro.sweep.sinks``  ``JsonlCheckpointSink.emit``, ``TopKSink.emit``
``repro.sweep.client`` ``SweepClient.request`` (fleet lease dispatch)
``repro.sweep.fleet``  ``launch_replica``, ``FleetCoordinator.run``
=====================  ==================================================

Child processes (``tenet serve`` replicas, ``tenet explore``, ``tenet
fleet``) are traced by starting them through ``traced_cli.py``, which installs
the same wrappers and writes its spans to ``$PERFBENCH_TRACE_DIR`` at exit.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import math
import os
import signal
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
TRACED_ENTRY = Path(__file__).resolve().parent / "traced_cli.py"
TRACE_DIR_ENV = "PERFBENCH_TRACE_DIR"


# -- statistics ------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (0..100) by linear interpolation between ranks.

    Same definition as numpy's default ``"linear"`` method; raises on an
    empty sample because a percentile of nothing is a bug in the caller.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    ordered = sorted(values)
    position = (len(ordered) - 1) * q / 100.0
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    fraction = position - lower
    return ordered[lower] + (ordered[upper] - ordered[lower]) * fraction


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def tail_quantile(n: int) -> float:
    """The highest percentile, up to 95, with at least ten of ``n`` samples
    beyond it: 95 from 200 samples on, the median for 20 or fewer."""
    return min(95.0, max(50.0, 100.0 * (n - 10) / n))


def latency_summary(values: Sequence[float]) -> dict:
    """p50 and the tail percentile (:func:`tail_quantile`) of a sample, with
    its size (a percentile means little without the count behind it)."""
    q = tail_quantile(len(values))
    return {
        "p50": percentile(values, 50.0),
        "tail": percentile(values, q),
        "tail_q": q,
        "n": len(values),
    }


def failed_ratio(failed: int, attempted: int) -> float:
    """Failed or wrong operations over operations attempted."""
    if attempted < 1:
        raise ValueError("failed_ratio needs at least one attempted operation")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed={failed} outside 0..attempted={attempted}")
    return failed / attempted


# -- spans -----------------------------------------------------------------------


class Tracer:
    """Spans and counters kept in memory and written out once at the end.

    A span is ``(id, parent id, name, start, end)``; the parent is the span
    open on the same thread when it started (0 for none), so self time can be
    derived afterwards with :func:`self_times`.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.samples: dict[str, list[float]] = defaultdict(list)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        with self._lock:
            span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((span_id, parent, name, start, end))

    def count(self, name: str, value: float = 1) -> None:
        with self._lock:
            self.counters[name] += value

    def sample(self, name: str, value: float) -> None:
        with self._lock:
            self.samples[name].append(value)

    def to_dict(self) -> dict:
        return {
            "spans": list(self.spans),
            "counters": dict(self.counters),
            "samples": {name: list(values) for name, values in self.samples.items()},
        }

    def dump(self, directory: str | Path) -> Path:
        path = Path(directory) / f"trace-{os.getpid()}.json"
        path.write_text(json.dumps(self.to_dict()), encoding="utf-8")
        return path


def span_totals(spans: Iterable[Sequence]) -> dict[str, float]:
    """Summed duration per span name."""
    totals: dict[str, float] = defaultdict(float)
    for _, _, name, start, end in spans:
        totals[name] += end - start
    return dict(totals)


def self_times(spans: Iterable[Sequence]) -> dict[str, float]:
    """Summed self time per span name: each span's duration minus the part
    its direct children cover (children lie inside their parent)."""
    spans = list(spans)
    child_time: dict[int, float] = defaultdict(float)
    for _, parent, _, start, end in spans:
        if parent:
            child_time[parent] += end - start
    totals: dict[str, float] = defaultdict(float)
    for span_id, _, name, start, end in spans:
        totals[name] += (end - start) - child_time[span_id]
    return dict(totals)


# -- child processes -------------------------------------------------------------


def child_env(trace_dir: str | Path | None = None) -> dict[str, str]:
    """Environment for a ``tenet`` child: the checkout's sources on the path,
    no inherited fault plan, and the trace directory when traced."""
    env = dict(os.environ)
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + existing if existing else "")
    env.pop("TENET_FAULTS", None)
    env.pop(TRACE_DIR_ENV, None)
    if trace_dir is not None:
        env[TRACE_DIR_ENV] = str(trace_dir)
    return env


def cli_command(args: Sequence[str], traced: bool) -> list[str]:
    """``tenet ARGS`` as a command line; traced children start through the
    benchmark's entry point, which wraps the layers and then runs the CLI."""
    if traced:
        return [sys.executable, str(TRACED_ENTRY), *args]
    return [sys.executable, "-m", "repro.cli", *args]


def start_server(
    args: Sequence[str] = (), trace_dir: str | Path | None = None
) -> tuple[subprocess.Popen, str, int, float]:
    """Start ``tenet serve --listen 127.0.0.1:0 ARGS`` and wait for its announce:
    ``(process, host, port, seconds from spawn to announce)``.

    Untraced, this is the program's own ``launch_replica``; traced, the
    benchmark's copy of it that starts the child through ``traced_cli.py``.
    """
    from repro.sweep.fleet import launch_replica

    if trace_dir is not None:
        return spawn_traced_server(args, trace_dir)
    started = time.perf_counter()
    process, host, port = launch_replica(args=list(args))
    return process, host, port, time.perf_counter() - started


def spawn_traced_server(
    args: Sequence[str],
    trace_dir: str | Path,
    *,
    announce_timeout: float = 120.0,
) -> tuple[subprocess.Popen, str, int, float]:
    """``repro.sweep.fleet.launch_replica`` through ``traced_cli.py``.

    Returns ``(process, host, port, seconds from spawn to announce)``.  The
    stderr pump keeps draining after the announce so the child never blocks
    on a full pipe.
    """
    from repro.sweep.net import parse_announce

    command = cli_command(["serve", "--listen", "127.0.0.1:0", *args], traced=True)
    started = time.perf_counter()
    process = subprocess.Popen(
        command,
        env=child_env(trace_dir),
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    address: dict[str, tuple[str, int]] = {}
    announced = threading.Event()

    def pump() -> None:
        for line in process.stderr:
            if "bound" not in address:
                parsed = parse_announce(line)
                if parsed is not None:
                    address["bound"] = parsed
                    announced.set()
        announced.set()

    threading.Thread(target=pump, daemon=True).start()
    if not announced.wait(announce_timeout) or "bound" not in address:
        stop_process(process)
        raise RuntimeError(f"server never announced its address: {command}")
    seconds = time.perf_counter() - started
    host, port = address["bound"]
    return process, host, port, seconds


def reap(process: subprocess.Popen, timeout: float) -> float:
    """Wait for a child and return its peak resident set in MiB.

    ``os.wait4`` reports the child's own peak merged with every descendant
    it reaped (a fleet's replicas), where ``RUSAGE_CHILDREN`` would mix all
    children of this process together.
    """
    # Signals go through os.kill, never Popen.kill/send_signal: those poll,
    # which could reap the child before wait4 sees its usage.
    timer = threading.Timer(timeout, _kill, args=(process.pid,))
    timer.start()
    try:
        _, status, usage = os.wait4(process.pid, 0)
    finally:
        timer.cancel()
    process.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024.0


def _kill(pid: int, signum: int = signal.SIGKILL) -> None:
    try:
        os.kill(pid, signum)
    except ProcessLookupError:
        pass


def stop_process(process: subprocess.Popen, timeout: float = 60.0) -> float:
    """SIGTERM (a server drains; SIGKILL after ``timeout``), reap the child
    and return its peak resident set in MiB (``process.returncode`` is set)."""
    _kill(process.pid, signal.SIGTERM)
    return reap(process, timeout)


def self_peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# -- layer wrappers --------------------------------------------------------------


def traced_candidates(tracer: Tracer, iterator: Iterator) -> Iterator:
    """Yield from a candidate generator, timing each ``next()`` as a
    ``dse.generate`` span (the span never stays open across a yield)."""
    while True:
        with tracer.span("dse.generate"):
            try:
                item = next(iterator)
            except StopIteration:
                return
        tracer.count("dse.candidates")
        yield item


def _patch(patches: list, owner: object, name: str, make: Callable) -> None:
    original = getattr(owner, name)
    patches.append((owner, name, original))
    setattr(owner, name, make(original))


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every layer's public entry points; returns the undo function."""
    import repro.cli
    import repro.dse.pruning
    import repro.sweep.fleet
    from repro.core.engine import EvaluationEngine, RelationCache, RelationMaterializer
    from repro.sweep.client import SweepClient
    from repro.sweep.fleet import FleetCoordinator
    from repro.sweep.session import SweepSession
    from repro.sweep.sinks import JsonlCheckpointSink, TopKSink

    patches: list = []
    # Relation caches seen by a traced batch, with their counters at first
    # sight.  Server threads share one cache and overlap, so lookups are
    # counted once, as the cache's own totals at undo minus these.
    caches: dict[int, tuple[RelationCache, dict]] = {}

    def engine_batch(original):
        def evaluate_batch(self, *args, **kwargs):
            if self.cache is not None and id(self.cache) not in caches:
                caches[id(self.cache)] = (self.cache, self.cache.stats())
            stats = dict(self.stats)
            stages = dict(self.stage_seconds)
            with tracer.span("engine.batch"):
                result = original(self, *args, **kwargs)
            for key, value in self.stats.items():
                if value != stats.get(key, 0):
                    tracer.count(f"engine.stat.{key}", value - stats.get(key, 0))
            for key, value in self.stage_seconds.items():
                if value != stages.get(key, 0.0):
                    tracer.count(f"engine.stage.{key}", value - stages.get(key, 0.0))
            return result

        return evaluate_batch

    def relations(original):
        def wrapped(self, *args, **kwargs):
            with tracer.span("isl.relations"):
                return original(self, *args, **kwargs)

        return wrapped

    def session_run(original):
        def run(self, *args, **kwargs):
            with tracer.span("session.run"):
                result = original(self, *args, **kwargs)
            tracer.count("session.runs")
            tracer.count("session.duplicates", result.duplicates)
            return result

        return run

    def sink_emit(original):
        def emit(self, *args, **kwargs):
            with tracer.span("sinks.emit"):
                return original(self, *args, **kwargs)

        return emit

    def generator(original):
        def pruned_candidates(*args, **kwargs):
            return traced_candidates(tracer, original(*args, **kwargs))

        return pruned_candidates

    def client_request(original):
        def request(self, payload):
            started = time.perf_counter()
            with tracer.span("client.request"):
                record = original(self, payload)
            if "shard" in payload:
                tracer.sample("fleet.lease_s", time.perf_counter() - started)
                tracer.sample("fleet.lease_server_s", float(record.get("seconds", 0.0)))
            return record

        return request

    def launch(_original):
        def launch_replica(
            *,
            checkpoint_root=None,
            args=(),
            fault_plan=None,
            stderr_sink=None,
            announce_timeout=120.0,
        ):
            if fault_plan is not None or stderr_sink is not None:
                raise NotImplementedError(
                    "traced replicas support neither fault_plan nor stderr_sink"
                )
            command = list(args)
            if checkpoint_root is not None:
                command = ["--checkpoint-root", str(checkpoint_root), *command]
            with tracer.span("fleet.spawn"):
                process, host, port, _ = spawn_traced_server(
                    command, os.environ[TRACE_DIR_ENV], announce_timeout=announce_timeout
                )
            return process, host, port

        return launch_replica

    def fleet_run(original):
        def run(self):
            with tracer.span("fleet.run"):
                result = original(self)
            tracer.count("fleet.runs")
            tracer.count("fleet.leases", len(result.leases))
            tracer.count("fleet.steals", result.steals)
            tracer.count("fleet.evictions", result.evictions)
            tracer.count("fleet.replicas", len(result.replicas))
            tracer.count("fleet.seconds", result.seconds)
            return result

        return run

    _patch(patches, EvaluationEngine, "evaluate_batch", engine_batch)
    _patch(patches, RelationMaterializer, "relations", relations)
    _patch(patches, SweepSession, "run", session_run)
    _patch(patches, JsonlCheckpointSink, "emit", sink_emit)
    _patch(patches, TopKSink, "emit", sink_emit)
    # The CLI binds its own name for the generator at import time.
    _patch(patches, repro.dse.pruning, "pruned_candidates", generator)
    _patch(patches, repro.cli, "pruned_candidates", generator)
    _patch(patches, SweepClient, "request", client_request)
    _patch(patches, repro.sweep.fleet, "launch_replica", launch)
    _patch(patches, FleetCoordinator, "run", fleet_run)

    def uninstall() -> None:
        while patches:
            owner, name, original = patches.pop()
            setattr(owner, name, original)
        for cache, first in caches.values():
            now = cache.stats()
            tracer.count("cache.hits", now["hits"] - first["hits"])
            tracer.count("cache.misses", now["misses"] - first["misses"])
        caches.clear()

    return uninstall


# -- trace analysis --------------------------------------------------------------

ENGINE_STAGES = ("stamps", "utilization", "volumes", "rank")
KERNEL_PATHS = (
    "fused_path",
    "compiled_path",
    "bitset_path",
    "reference_path",
    "spacetime_hits",
    "stamp_fallback_exprs",
)


def layer_totals(traces: Iterable[dict]) -> dict[str, float]:
    """Per-layer totals over a set of trace dicts (one per traced process).

    Span times are analysed per process (span ids are per process), then
    summed.  ``engine.unattributed_s`` is the batch span's self time (its
    duration minus the relation materialisation spans under it) minus the
    engine's own stage timers: it covers ``_prepare_batch_stamps`` and the
    per-candidate bookkeeping no stage timer sees.
    """
    out: dict[str, float] = defaultdict(float)
    imports: list[float] = []
    for trace in traces:
        spans = trace["spans"]
        counters = trace["counters"]
        totals = span_totals(spans)
        selfs = self_times(spans)
        if "cli.import_s" in counters:
            imports.append(counters["cli.import_s"])
        out["dse.generate_s"] += totals.get("dse.generate", 0.0)
        out["dse.candidates"] += counters.get("dse.candidates", 0)
        out["engine.materialise_s"] += totals.get("isl.relations", 0.0)
        out["cache.hits"] += counters.get("cache.hits", 0)
        out["cache.misses"] += counters.get("cache.misses", 0)
        out["engine.batch_s"] += totals.get("engine.batch", 0.0)
        staged = 0.0
        for stage in ENGINE_STAGES:
            seconds = counters.get(f"engine.stage.{stage}", 0.0)
            out[f"engine.{stage}_s"] += seconds
            staged += seconds
        out["engine.unattributed_s"] += selfs.get("engine.batch", 0.0) - staged
        for key in ("evaluated", "memo_hits", "failures"):
            out[f"engine.{key}"] += counters.get(f"engine.stat.{key}", 0)
        for key in KERNEL_PATHS:
            out[f"backends.{key}"] += counters.get(f"engine.stat.{key}", 0)
        out["backends.per_tensor_evals"] += counters.get(
            "engine.stat.fast_path", 0
        ) + counters.get("engine.stat.reference_path", 0)
        out["session.run_s"] += totals.get("session.run", 0.0)
        out["session.overhead_s"] += selfs.get("session.run", 0.0)
        out["session.duplicates"] += counters.get("session.duplicates", 0)
        out["sinks.emit_s"] += totals.get("sinks.emit", 0.0)
        out["fleet.spawn_s"] += totals.get("fleet.spawn", 0.0)
        for key in ("leases", "steals", "evictions", "replicas", "seconds", "runs"):
            out[f"fleet.{key}"] += counters.get(f"fleet.{key}", 0)
        out["fleet.lease_server_s"] += sum(trace["samples"].get("fleet.lease_server_s", []))
    out["cli.import_s"] = sum(imports) / len(imports) if imports else 0.0
    return dict(out)


def lease_seconds(traces: Iterable[dict]) -> list[float]:
    """Coordinator-side wall time of every fleet lease dispatch."""
    return [value for trace in traces for value in trace["samples"].get("fleet.lease_s", [])]


def read_traces(directory: str | Path) -> list[dict]:
    return [
        json.loads(path.read_text(encoding="utf-8"))
        for path in sorted(Path(directory).glob("trace-*.json"))
    ]
