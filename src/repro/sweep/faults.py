"""Deterministic fault injection for the sweep fabric.

Resilience cannot be trusted without a way to *cause* the failures it claims
to survive.  This module provides a seeded fault schedule — a
:class:`FaultPlan` of :class:`FaultSpec` entries — and a :class:`FaultInjector`
that fires those faults at hook points threaded through the sweep stack:

========================  ===========================================================
site                      where it fires
========================  ===========================================================
``net.read``              :meth:`repro.sweep.net.SocketChannel.read_line`
``net.write``             :meth:`repro.sweep.net.SocketChannel.write_line`
``client.send``           :meth:`repro.sweep.client.SweepClient._send_line`
``client.recv``           :meth:`repro.sweep.client.SweepClient._read_record`
``sink.write``            :meth:`repro.sweep.sinks.JsonlCheckpointSink._write`
``engine.build``          engine construction in
                          :meth:`repro.sweep.server.SweepServer._reserve_engine`
``server.request``        the worker thread serving one sweep request
                          (:meth:`repro.sweep.server.SweepServer._serve`)
========================  ===========================================================

Each spec names a site, a fault ``kind``, and the 1-based event count ``at``
at which it fires — the injector counts events per site, so the *N*-th read,
write, or engine build faults, every time.  :meth:`FaultPlan.seeded` samples
the ``at`` (and, for truncation, the byte offset) values from
``random.Random(seed)``: the same seed always produces the same schedule, so
every injected failure is reproducible bit for bit.

Fault kinds:

``drop``      raise :class:`InjectedDisconnect` (a ``ConnectionError``) — the
              connection is gone, exactly as a peer crash looks to the socket
              layer.
``delay``     sleep ``arg`` seconds before the operation (``time.sleep`` at
              sync sites, ``asyncio.sleep`` at async sites) — a hung request.
``torn``      returned to the call site, which writes only the first ``arg``
              bytes of the line and then drops the connection.
``error``     raise :class:`InjectedFault` — a generic failure (used for
              engine-build exceptions).
``kill``      ``os._exit(KILL_EXIT_CODE)`` — the process dies instantly, no
              atexit handlers, no flushes: a crash.  **Only use in dedicated
              subprocesses** (the chaos smoke's server), never in-process in
              a test runner.
``truncate``  returned to the call site, which persists only the first
              ``arg`` bytes of the record being written and then raises — a
              checkpoint torn at byte *k* by a mid-write crash.

Injectors are passed explicitly (``SweepClient(fault_injector=...)``) or
installed process-globally with :func:`install` / the ``TENET_FAULTS``
environment variable (a JSON plan, read by ``tenet`` subcommands), which is
how the chaos smoke arms a real ``tenet serve`` subprocess.
"""

from __future__ import annotations

import json
import os
import random
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable, Sequence

from repro.errors import ExplorationError

#: Exit status of a ``kill`` fault, distinguishable from ordinary crashes.
KILL_EXIT_CODE = 42

#: Environment variable holding a JSON fault plan for subprocesses.
FAULTS_ENV = "TENET_FAULTS"

KNOWN_SITES = (
    "net.read",
    "net.write",
    "client.send",
    "client.recv",
    "sink.write",
    "engine.build",
    "server.request",
)

KNOWN_KINDS = ("drop", "delay", "torn", "error", "kill", "truncate")

#: Kinds the injector resolves itself; ``torn``/``truncate`` are returned to
#: the call site because only it knows how to mangle the bytes in flight.
_CALLER_KINDS = ("torn", "truncate")


class InjectedFault(Exception):
    """A failure raised on purpose by a :class:`FaultInjector`."""


class InjectedDisconnect(InjectedFault, ConnectionError):
    """An injected connection loss.

    Subclasses :class:`ConnectionError` so every existing reconnect/cleanup
    path treats it exactly like a real dead socket.
    """


@dataclass(frozen=True)
class FaultSpec:
    """One scheduled fault: fire ``kind`` at the ``at``-th event of ``site``."""

    site: str
    kind: str
    #: 1-based event count at the site; the spec fires once, on that event.
    at: int
    #: Kind parameter: seconds for ``delay``, byte offset for ``torn``/``truncate``.
    arg: float | int | None = None

    def __post_init__(self) -> None:
        if self.site not in KNOWN_SITES:
            raise ExplorationError(
                f"unknown fault site {self.site!r}; known: {list(KNOWN_SITES)}"
            )
        if self.kind not in KNOWN_KINDS:
            raise ExplorationError(
                f"unknown fault kind {self.kind!r}; known: {list(KNOWN_KINDS)}"
            )
        if self.at < 1:
            raise ExplorationError(f"fault 'at' is a 1-based event count, got {self.at}")

    def to_dict(self) -> dict:
        data: dict[str, Any] = {"site": self.site, "kind": self.kind, "at": self.at}
        if self.arg is not None:
            data["arg"] = self.arg
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSpec":
        unknown = set(data) - {"site", "kind", "at", "arg"}
        if unknown:
            raise ExplorationError(f"unknown fault spec fields {sorted(unknown)}")
        return cls(
            site=data["site"], kind=data["kind"], at=int(data["at"]),
            arg=data.get("arg"),
        )


@dataclass
class FaultPlan:
    """A reproducible fault schedule (JSON round-trippable)."""

    specs: list[FaultSpec] = field(default_factory=list)
    seed: int | None = None

    @classmethod
    def seeded(cls, seed: int, events: Sequence[dict]) -> "FaultPlan":
        """Sample a concrete schedule from ``seed``.

        Each event dict names a ``site`` and ``kind`` and bounds the draw:
        ``within`` (the fault fires on a uniformly drawn event in
        ``[1, within]``, default 1 = deterministic first event) and, for
        ``torn``/``truncate``, ``arg_max`` (byte offset drawn from
        ``[0, arg_max]``) or a fixed ``arg``.  Draws come from one
        ``random.Random(seed)`` stream in event order, so the same seed and
        event list always produce the same plan.
        """
        rng = random.Random(seed)
        specs = []
        for event in events:
            at = rng.randint(1, int(event.get("within", 1)))
            arg = event.get("arg")
            if arg is None and "arg_max" in event:
                arg = rng.randint(0, int(event["arg_max"]))
            specs.append(FaultSpec(site=event["site"], kind=event["kind"], at=at, arg=arg))
        return cls(specs=specs, seed=seed)

    def to_json(self) -> str:
        return json.dumps(
            {"seed": self.seed, "specs": [spec.to_dict() for spec in self.specs]}
        )

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        data = json.loads(text)
        if not isinstance(data, dict) or "specs" not in data:
            raise ExplorationError(
                "a fault plan is a JSON object with a 'specs' list "
                '(e.g. {"specs": [{"site": "net.write", "kind": "drop", "at": 2}]})'
            )
        return cls(
            specs=[FaultSpec.from_dict(spec) for spec in data["specs"]],
            seed=data.get("seed"),
        )


class FaultInjector:
    """Fire a :class:`FaultPlan`'s faults at their scheduled events.

    Thread-safe: hook sites are hit concurrently (server worker threads, the
    asyncio loop, client threads).  Each spec fires exactly once; the
    :attr:`fired` log records ``(site, kind, at)`` in firing order so tests
    can assert the schedule that actually ran.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._counts: dict[str, int] = {}
        self._consumed: set[int] = set()
        #: (site, kind, at) tuples in the order faults actually fired.
        self.fired: list[tuple[str, str, int]] = []

    def count(self, site: str) -> int:
        """Events seen at ``site`` so far."""
        with self._lock:
            return self._counts.get(site, 0)

    def fire(self, site: str) -> list[FaultSpec]:
        """Count one event at ``site``; return the specs scheduled for it."""
        with self._lock:
            count = self._counts.get(site, 0) + 1
            self._counts[site] = count
            due = []
            for index, spec in enumerate(self.plan.specs):
                if index in self._consumed:
                    continue
                if spec.site == site and spec.at == count:
                    self._consumed.add(index)
                    self.fired.append((spec.site, spec.kind, spec.at))
                    due.append(spec)
            return due

    def _resolve(
        self, specs: Iterable[FaultSpec], sleep: Callable[[float], None]
    ) -> FaultSpec | None:
        passthrough = None
        for spec in specs:
            if spec.kind == "delay":
                sleep(float(spec.arg or 0.0))
            elif spec.kind == "drop":
                raise InjectedDisconnect(
                    f"injected connection drop at {spec.site} event {spec.at}"
                )
            elif spec.kind == "error":
                raise InjectedFault(
                    f"injected failure at {spec.site} event {spec.at}"
                )
            elif spec.kind == "kill":
                os._exit(KILL_EXIT_CODE)
            elif spec.kind in _CALLER_KINDS:
                passthrough = spec
        return passthrough

    def apply(self, site: str) -> FaultSpec | None:
        """Count one event; raise/sleep as scheduled.

        Returns a ``torn``/``truncate`` spec for the call site to apply, or
        ``None``.
        """
        return self._resolve(self.fire(site), time.sleep)

    async def apply_async(self, site: str) -> FaultSpec | None:
        """:meth:`apply` for asyncio sites (delays do not block the loop)."""
        # Only the event loop's sites get here; a process without one never
        # imports asyncio.
        import asyncio

        specs = self.fire(site)
        for spec in specs:
            if spec.kind == "delay":
                await asyncio.sleep(float(spec.arg or 0.0))
        return self._resolve(
            [spec for spec in specs if spec.kind != "delay"], time.sleep
        )


# -- process-global injector ---------------------------------------------------------

_active: FaultInjector | None = None


def install(injector: FaultInjector | None) -> None:
    """Install (or with ``None`` clear) the process-global injector."""
    global _active
    _active = injector


def active() -> FaultInjector | None:
    return _active


def install_from_env(environ: dict | None = None) -> FaultInjector | None:
    """Arm the global injector from the ``TENET_FAULTS`` environment variable.

    The value is either a JSON fault plan or the path of a file holding one;
    unset (or already armed) is a no-op.  This is how the chaos smoke injects
    faults into a real ``tenet`` subprocess without new CLI surface.
    """
    env = environ if environ is not None else os.environ
    text = env.get(FAULTS_ENV)
    if not text:
        return _active
    stripped = text.strip()
    if not stripped.startswith("{"):
        stripped = Path(stripped).read_text(encoding="utf-8")
    injector = FaultInjector(FaultPlan.from_json(stripped))
    install(injector)
    return injector


def apply(site: str, injector: FaultInjector | None = None) -> FaultSpec | None:
    """Hook-site helper: apply the explicit or global injector, if any."""
    chosen = injector if injector is not None else _active
    if chosen is None:
        return None
    return chosen.apply(site)


async def apply_async(site: str, injector: FaultInjector | None = None) -> FaultSpec | None:
    chosen = injector if injector is not None else _active
    if chosen is None:
        return None
    return await chosen.apply_async(site)
