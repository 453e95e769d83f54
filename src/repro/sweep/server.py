"""Warm-engine sweep serving.

:class:`SweepServer` keeps one warm :class:`~repro.core.engine.EvaluationEngine`
— materialised relations, element-id grids, report memo — per
``(operation, architecture, backend)`` and services queued sweep requests
concurrently: requests for *different* operations sweep in parallel on a
thread pool, while requests for the *same* warm engine serialise on a
per-engine lock so they share its caches instead of racing them.  Every
sweep enters through :meth:`SweepServer.submit` as a :class:`SweepRequest`,
whose :meth:`~SweepRequest.from_dict` type-checks each field before the
request can reserve an engine; ``max_workers`` sweeps run at once.

``tenet serve`` wraps this in a line protocol: one JSON request per input
line, one JSON result per output line, in request order::

    {"kernel": "gemm", "sizes": [32, 32, 32], "objective": "latency"}
    {"kernel": "gemm", "sizes": [32, 32, 32], "objective": "energy"}

The second request reuses the first one's engine: the relations are cache
hits and memoised reports are re-ranked without re-evaluation.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict
from pathlib import Path
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from repro.arch.spec import ArchSpec
from repro.core.dataflow import Dataflow
from repro.core.engine import (
    OBJECTIVES,
    EvaluationEngine,
    RelationCache,
    arch_signature,
    op_signature,
)
from repro.errors import ExplorationError
from repro.sweep import faults as fault_hooks
from repro.sweep.faults import FaultInjector
from repro.sweep.session import SweepResult, SweepSession
from repro.sweep.source import validate_shard
from repro.tensor.operation import TensorOp


def _is_int(value: Any) -> bool:
    # JSON true/false arrive as bool, a subclass of int; neither is a count.
    return isinstance(value, int) and not isinstance(value, bool)


def _is_int_list(value: Any, length: int | None = None) -> bool:
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and (length is None or len(value) == length)
        and all(_is_int(item) for item in value)
    )


#: Request field -> (what it must be, check).  Every field a client can send
#: is type-checked up front, so a malformed request is rejected before it
#: reserves an engine instead of failing (or being silently coerced) mid-sweep.
_FIELD_RULES: dict[str, tuple[str, Callable[[Any], bool]]] = {
    "kernel": ("a string", lambda v: isinstance(v, str)),
    "sizes": ("a non-empty list of integers", _is_int_list),
    "objective": (
        f"one of {sorted(OBJECTIVES)}",
        lambda v: isinstance(v, str) and v in OBJECTIVES,
    ),
    "pe": (
        "a list of two positive integers",
        lambda v: _is_int_list(v, 2) and min(v) > 0,
    ),
    "interconnect": ("a string", lambda v: isinstance(v, str)),
    "bandwidth": (
        "a positive number",
        lambda v: isinstance(v, (int, float))
        and not isinstance(v, bool)
        and math.isfinite(v)
        and v > 0,
    ),
    "max_candidates": (
        "a non-negative integer or null",
        lambda v: v is None or (_is_int(v) and v >= 0),
    ),
    "allow_packing": ("true or false", lambda v: isinstance(v, bool)),
    "early_termination": ("true or false", lambda v: isinstance(v, bool)),
    "shard": (
        "null or a list of two integers [index, count]",
        lambda v: v is None or _is_int_list(v, 2),
    ),
    "top": ("a non-negative integer", lambda v: _is_int(v) and v >= 0),
    "checkpoint": (
        "null or a relative path string",
        lambda v: v is None or isinstance(v, str),
    ),
    "resume": ("true or false", lambda v: isinstance(v, bool)),
}


@dataclass
class SweepRequest:
    """One queued sweep over the pruned candidate space of a kernel."""

    kernel: str
    sizes: tuple[int, ...]
    objective: str = "latency"
    pe: tuple[int, int] = (8, 8)
    interconnect: str = "2d-systolic"
    bandwidth: float = 128.0
    max_candidates: int | None = 64
    allow_packing: bool = True
    early_termination: bool = False
    shard: tuple[int, int] | None = None
    top: int = 5
    #: Server-side JSONL checkpoint, named *relative to* the server's
    #: ``checkpoint_root`` (requests cannot write outside it).  With
    #: ``resume=True`` recorded signatures are skipped — the fleet
    #: coordinator's lease re-issue path.  Resume of a missing or empty
    #: checkpoint is simply a fresh sweep, so re-issued leases always send
    #: ``resume=True``.
    checkpoint: str | None = None
    resume: bool = False

    @classmethod
    def from_dict(cls, data: dict) -> "SweepRequest":
        """A request from its JSON form; a missing, unknown or mistyped field
        raises :class:`ExplorationError` naming it."""
        known ={f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ExplorationError(
                f"unknown sweep request fields {sorted(unknown)}; known: {sorted(known)}"
            )
        if "kernel" not in data or "sizes" not in data:
            raise ExplorationError("sweep request needs at least 'kernel' and 'sizes'")
        for name, (expected, valid) in _FIELD_RULES.items():
            if name in data and not valid(data[name]):
                raise ExplorationError(
                    f"sweep request field {name!r} must be {expected}, "
                    f"got {data[name]!r}"
                )
        request = cls(**data)
        request.sizes = tuple(request.sizes)
        request.pe = tuple(request.pe)
        if request.shard is not None:
            request.shard = validate_shard(tuple(request.shard))
        return request

    def build(self) -> tuple[TensorOp, ArchSpec, Iterator[Dataflow]]:
        """The request's operation, architecture and (lazy) candidate stream."""
        from repro.dse.pruning import pruned_candidates
        from repro.experiments.common import make_arch
        from repro.tensor.kernels import make_kernel

        op = make_kernel(self.kernel, list(self.sizes))
        arch = make_arch(
            pe_dims=self.pe,
            interconnect=self.interconnect,
            bandwidth_bits=self.bandwidth,
        )
        candidates = pruned_candidates(
            op,
            pe_dims=self.pe,
            allow_packing=self.allow_packing,
            max_candidates=self.max_candidates,
        )
        return op, arch, candidates


class EngineQuarantinedError(ExplorationError):
    """Engine construction for this key recently failed; retry after cooldown.

    A bad request spec (e.g. its architecture) would otherwise retry-storm
    engine construction — the most expensive operation the server performs —
    on every resubmission.  Carries ``code`` so the networked service can
    reply with a structured ``"code": "quarantined"`` record.
    """

    code = "quarantined"


@dataclass
class _WarmEngine:
    engine: EvaluationEngine
    lock: threading.Lock = field(default_factory=threading.Lock)
    #: Requests assigned to this engine, counted at submission time (decides
    #: the deterministic ``engine_reused`` flag) and at execution time.
    requests_queued: int = 0
    requests_served: int = 0


class SweepServer:
    """Service sweep requests on warm, shared evaluation engines."""

    def __init__(
        self,
        *,
        backend: str = "auto",
        batch_size: int = 64,
        max_workers: int = 2,
        max_instances: int = 4_000_000,
        max_engines: int = 8,
        cache: RelationCache | None = None,
        quarantine_cooldown: float = 30.0,
        fault_injector: FaultInjector | None = None,
        checkpoint_root: str | Path | None = None,
    ):
        self.backend = backend
        self.batch_size = int(batch_size)
        self.max_instances = int(max_instances)
        #: Warm engines kept resident; least-recently-used idle engines are
        #: evicted past this, bounding a long-lived server's report memos.
        self.max_engines = max(1, int(max_engines))
        #: Directory request-scoped checkpoints resolve under; ``None``
        #: (the default) refuses checkpointed requests entirely, so a server
        #: never writes files unless an operator opted in.
        self.checkpoint_root = (
            str(Path(checkpoint_root)) if checkpoint_root is not None else None
        )
        #: One relation cache for the whole server: engines of different
        #: architectures over the same operation share its relations.
        self.cache = cache if cache is not None else RelationCache(max_entries=8)
        self._engines: "OrderedDict[tuple[str, str, str], _WarmEngine]" = OrderedDict()
        self._registry_lock = threading.Lock()
        self._faults = fault_injector
        #: Seconds an engine key stays quarantined after a build failure.
        self.quarantine_cooldown = float(quarantine_cooldown)
        #: key -> (monotonic expiry, reason) for keys whose engine failed to
        #: build; requests for them fail fast until the cooldown passes.
        self._quarantine: dict[tuple[str, str, str], tuple[float, str]] = {}
        self._engine_build_failures = 0
        #: Submission-order counters behind the ``engine_reused`` rate the
        #: networked service surfaces via ``{"cmd": "stats"}``.
        self._requests_submitted = 0
        self._requests_reused = 0
        #: Sweeps that run at once; ``tenet serve`` admits exactly this many.
        self.max_workers = max(1, int(max_workers))
        self._pool = ThreadPoolExecutor(
            max_workers=self.max_workers, thread_name_prefix="sweep"
        )
        self._closed = False

    # -- engine registry ----------------------------------------------------------

    def _reserve_engine(self, op: TensorOp, arch: ArchSpec) -> tuple[_WarmEngine, bool]:
        """Look up (or create) the warm engine for ``(op, arch)`` and reserve
        one request slot on it, atomically.

        Returns ``(engine, was_warm)``.  Reservation (``requests_queued``)
        happens under the same lock hold as the lookup, so an engine with a
        request on the way can never be evicted in between.  The registry is
        LRU-bounded at ``max_engines``: past the cap, the least recently used
        *idle* engine is closed and dropped (an engine mid-sweep, or with
        reserved requests, is never evicted).
        """
        key = (op_signature(op), arch_signature(arch), self.backend)
        evicted: list[_WarmEngine] = []
        with self._registry_lock:
            quarantined = self._quarantine.get(key)
            if quarantined is not None:
                until, reason = quarantined
                remaining = until - time.monotonic()
                if remaining > 0:
                    # Fail fast: do not rebuild a known-bad engine until the
                    # cooldown passes (a retry storm must not reconstruct it).
                    raise EngineQuarantinedError(
                        "engine for this (op, arch, backend) is "
                        f"quarantined for another {remaining:.1f}s after a "
                        f"build failure: {reason}"
                    )
                del self._quarantine[key]
            warm = self._engines.get(key)
            if warm is not None:
                self._engines.move_to_end(key)
            else:
                try:
                    fault_hooks.apply("engine.build", self._faults)
                    warm = _WarmEngine(
                        engine=EvaluationEngine(
                            op,
                            arch,
                            backend=self.backend,
                            cache=self.cache,
                            max_instances=self.max_instances,
                        )
                    )
                except Exception as error:
                    self._engine_build_failures += 1
                    self._quarantine[key] = (
                        time.monotonic() + self.quarantine_cooldown,
                        f"{type(error).__name__}: {error}",
                    )
                    raise
                self._engines[key] = warm
                for old_key in list(self._engines):
                    if len(self._engines) <= self.max_engines:
                        break
                    candidate = self._engines[old_key]
                    idle = (
                        candidate is not warm
                        and candidate.requests_queued == candidate.requests_served
                        and not candidate.lock.locked()
                    )
                    if idle:
                        evicted.append(self._engines.pop(old_key))
            reused = warm.requests_queued > 0
            warm.requests_queued += 1
            self._requests_submitted += 1
            if reused:
                self._requests_reused += 1
        for old in evicted:
            old.engine.close()
        return warm, reused

    @property
    def num_engines(self) -> int:
        return len(self._engines)

    def stats(self) -> dict:
        with self._registry_lock:
            engines = list(self._engines.values())
            submitted = self._requests_submitted
            reused = self._requests_reused
            build_failures = self._engine_build_failures
            now = time.monotonic()
            quarantined = sum(1 for until, _ in self._quarantine.values() if until > now)
        return {
            "engines": len(engines),
            "engine_build_failures": build_failures,
            "quarantined_engines": quarantined,
            "requests_served": sum(w.requests_served for w in engines),
            "requests_submitted": submitted,
            "requests_reused": reused,
            "engine_reused_rate": round(reused / submitted, 4) if submitted else 0.0,
            "relation_cache": self.cache.stats(),
        }

    # -- request servicing --------------------------------------------------------

    def submit(self, request: SweepRequest) -> "Future[tuple[SweepResult, bool]]":
        """Queue a :class:`SweepRequest`; resolves to (result, engine_was_warm).

        The ``engine_was_warm`` flag is decided here, in submission order, so
        the N-th request for one (op, arch, backend) reports reuse regardless
        of which worker thread its sweep lands on.
        """
        if self._closed:
            raise ExplorationError("sweep server is shut down")
        op, arch, candidates = request.build()
        warm, reused = self._reserve_engine(op, arch)
        return self._pool.submit(self._run_request, warm, request, candidates, reused)

    def _resolve_checkpoint(self, checkpoint: str) -> str:
        """Validate a request's checkpoint name against the server root.

        Requests name checkpoints relative to ``checkpoint_root``; a server
        without a root refuses them, and a name that escapes the root (``..``,
        absolute paths, symlinked parents) is rejected before anything is
        opened.
        """
        if self.checkpoint_root is None:
            raise ExplorationError(
                "this server has no checkpoint root; start it with "
                "--checkpoint-root DIR to accept checkpointed sweep requests"
            )
        root = Path(self.checkpoint_root).resolve()
        path = (root / checkpoint).resolve()
        if path == root or root not in path.parents:
            raise ExplorationError(
                f"checkpoint {checkpoint!r} escapes the server checkpoint "
                f"root {self.checkpoint_root!r}; use a relative path inside it"
            )
        return str(path)

    def _run_request(
        self,
        warm: _WarmEngine,
        request: SweepRequest,
        candidates: Iterator[Dataflow],
        reused: bool,
    ) -> tuple[SweepResult, bool]:
        """One sweep on a reserved warm engine (serialised per engine)."""
        checkpoint_path = (
            self._resolve_checkpoint(request.checkpoint)
            if request.checkpoint is not None
            else None
        )
        with warm.lock:
            # Chaos hook: a ``kill`` here crashes the process mid-batch (the
            # chaos smoke's seeded server crash); a ``delay`` simulates a
            # hung request for the service watchdog.
            fault_hooks.apply("server.request", self._faults)
            warm.requests_served += 1
            session = SweepSession(
                warm.engine,
                objective=request.objective,
                batch_size=self.batch_size,
                early_termination=request.early_termination,
                checkpoint=checkpoint_path,
                resume=request.resume,
                fault_injector=self._faults,
            )
            return session.run(candidates, shard=request.shard), reused

    # -- lifecycle ----------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        self._closed = True
        self._pool.shutdown(wait=wait)
        with self._registry_lock:
            engines = list(self._engines.values())
        for warm in engines:
            warm.engine.close()

    def __enter__(self) -> "SweepServer":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def result_record(request: SweepRequest, result: SweepResult, reused: bool) -> dict:
    """The JSON line ``tenet serve`` emits for one serviced request."""
    return {
        "kernel": request.kernel,
        "objective": result.objective,
        "candidates": result.num_candidates,
        "evaluated": result.evaluated_count,
        "invalid": len(result.failures),
        "pruned": len(result.pruned),
        # Candidates restored from a resumed request-scoped checkpoint (the
        # fleet coordinator asserts a stolen lease really resumed).
        "skipped": result.skipped,
        "shard": list(result.shard) if result.shard else None,
        "seconds": round(result.seconds, 4),
        "candidates_per_second": round(result.throughput, 2),
        "engine_reused": reused,
        "top": [
            {
                "name": entry.name,
                "score": entry.score,
                "latency_cycles": entry.data["latency_cycles"],
                "sbw_bits_per_cycle": entry.data["sbw_bits_per_cycle"],
            }
            for entry in result.ranking[: request.top]
        ],
    }


# The ``tenet serve`` loops — stdio and TCP — live in :mod:`repro.sweep.net`;
# both transports run the same connection handler over this server.
