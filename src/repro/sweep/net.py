"""Networked sweep serving: the TCP/asyncio transport for :class:`SweepServer`.

:class:`SweepService` multiplexes many concurrent client connections onto one
warm-engine :class:`~repro.sweep.server.SweepServer`.  Every transport — TCP
sockets (``tenet serve --listen HOST:PORT``), stdio (``tenet serve``), and the
in-memory channels the tests use — runs the *same* connection handler, so the
line protocol cannot drift between modes: one JSON request per line in, one
JSON result per line out, per-connection responses in request order.

Multi-tenant fairness
    Each connection owns a bounded request queue; a single dispatcher drains
    the queues **round-robin**, so a client pipelining hundreds of requests
    cannot starve a concurrent single-request client — after each admitted
    request the pipeliner goes to the back of the rotation.  The dispatcher
    admits as many sweeps at once as the server has workers
    (``SweepServer.max_workers``, ``tenet serve --workers``), and a
    per-connection ``queue_depth`` limit turns excess pipelining into an
    immediate structured overload reply (``"code": "overloaded"``) instead of
    unbounded buffering.

Pipelining
    Requests may carry an ``"id"`` field; it is echoed in the matching
    response (responses stay in per-connection request order), so clients can
    keep many requests in flight over one connection.

Control requests
    ``{"cmd": "stats"}`` returns a service snapshot: warm-engine registry
    stats, request counters, the ``engine_reused`` rate, per-connection queue
    depths, and the in-flight count.

Watchdog
    ``request_timeout`` (``tenet serve --request-timeout``) bounds every
    request end to end; tripping it replies ``"code": "timeout"`` instead of
    hanging the connection.  Faults from :mod:`repro.sweep.faults` can be
    injected into the channel read/write paths and the request path to prove
    these behaviours deterministically.

Graceful drain
    ``SIGTERM``/``SIGINT`` (or :meth:`SweepService.request_drain`) stops
    accepting new connections, answers every request already accepted, replies
    ``"code": "draining"`` to requests arriving afterwards, then exits cleanly
    once every accepted response has been written.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import itertools
import json
import re
import signal
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator, TextIO

from repro.errors import ExplorationError
from repro.sweep import faults as fault_hooks
from repro.sweep.faults import FaultInjector, InjectedDisconnect
from repro.sweep.server import SweepRequest, SweepServer, result_record

#: Longest accepted request line (a sweep request is a few hundred bytes).
LINE_LIMIT = 1 << 20


class RequestTimeout(ExplorationError):
    """A request exceeded the server's per-request watchdog.

    The reply carries ``"code": "timeout"``; the sweep may still be running
    on its worker thread, but the connection is unblocked instead of hanging.
    """

    code = "timeout"


def parse_listen(spec: str) -> tuple[str, int]:
    """Parse a ``HOST:PORT`` listen spec (``:PORT`` binds 127.0.0.1)."""
    host, sep, port_text = spec.rpartition(":")
    if not sep or not port_text:
        raise ExplorationError(
            f"--listen expects HOST:PORT (port 0 picks an ephemeral port), got {spec!r}"
        )
    try:
        port = int(port_text)
    except ValueError as error:
        raise ExplorationError(f"--listen port must be an integer, got {port_text!r}") from error
    if not 0 <= port <= 65535:
        raise ExplorationError(f"--listen port must be in [0, 65535], got {port}")
    return host or "127.0.0.1", port


#: The stderr line a listening server prints once bound; clients, smoke
#: scripts and the fleet coordinator all discover ephemeral (port 0) binds by
#: parsing it, so the format lives here — one definition, one regex.
_ANNOUNCE_PATTERN = re.compile(r"listening on ([\d.]+):(\d+)")


def format_announce(host: str, port: int) -> str:
    """The announce line ``tenet serve --listen`` prints for a bound address."""
    return f"tenet serve: listening on {host}:{port}"


def parse_announce(line: str) -> tuple[str, int] | None:
    """Extract ``(host, port)`` from an announce line; ``None`` when absent."""
    match = _ANNOUNCE_PATTERN.search(line)
    if match is None:
        return None
    return match.group(1), int(match.group(2))


def iter_lines(stream: TextIO) -> Iterator[str]:
    """Yield lines from ``stream`` as they arrive, including a final
    unterminated line.

    ``readline()`` (not file iteration) so a pipe producer sees responses per
    line, and — mirroring the checkpoint reader's torn-line tolerance — a
    final line with no trailing newline is still served rather than silently
    dropped at EOF.
    """
    while True:
        line = stream.readline()
        if line == "":
            return
        yield line


def error_record(
    kernel: str | None,
    error: BaseException,
    *,
    code: str | None = None,
    request_id: Any = None,
) -> dict:
    """The one-line error reply for a failed, rejected, or malformed request."""
    record: dict[str, Any] = {}
    if request_id is not None:
        record["id"] = request_id
    record["kernel"] = kernel
    record["error"] = f"{type(error).__name__}: {error}"
    if code is not None:
        record["code"] = code
    return record


# -- line channels ------------------------------------------------------------------


class SocketChannel:
    """A connected TCP stream as a line channel."""

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        *,
        fault_injector: FaultInjector | None = None,
    ):
        self.reader = reader
        self.writer = writer
        self._faults = fault_injector
        peer = writer.get_extra_info("peername")
        self.name = f"{peer[0]}:{peer[1]}" if isinstance(peer, tuple) else "tcp"

    async def read_line(self) -> str | None:
        try:
            await fault_hooks.apply_async("net.read", self._faults)
            data = await self.reader.readline()
        except (ConnectionError, ValueError, asyncio.IncompleteReadError):
            # ValueError = line longer than LINE_LIMIT; the stream cannot be
            # resynchronised, so the connection ends.  Injected drops land
            # here too (InjectedDisconnect is a ConnectionError).
            return None
        if not data:
            return None
        return data.decode("utf-8", errors="replace")

    async def write_line(self, line: str) -> None:
        payload = line.encode("utf-8") + b"\n"
        spec = await fault_hooks.apply_async("net.write", self._faults)
        if spec is not None and spec.kind == "torn":
            # Write only the first ``arg`` bytes of the line, then drop the
            # connection: the peer sees a torn response line followed by EOF.
            self.writer.write(payload[: int(spec.arg or 0)])
            with contextlib.suppress(Exception):
                await self.writer.drain()
            transport = self.writer.transport
            if transport is not None:
                transport.abort()
            raise InjectedDisconnect(f"injected torn write after {int(spec.arg or 0)} byte(s)")
        self.writer.write(payload)
        await self.writer.drain()

    async def close(self) -> None:
        with contextlib.suppress(Exception):
            self.writer.close()
            await self.writer.wait_closed()


class IterableChannel:
    """Lines from a (possibly blocking) iterator; replies through a callable.

    Backs stdio mode and the ``serve_lines`` tests: the iterator is consumed
    on a worker thread so a producer that blocks between lines never stalls
    the event loop, and responses stream out as soon as they are ready.
    """

    def __init__(
        self,
        lines: Iterable[str],
        emit: Callable[[str], None],
        *,
        name: str = "stdio",
    ):
        self._lines = iter(lines)
        self._emit = emit
        self.name = name

    def _next_line(self) -> str | None:
        try:
            return next(self._lines)
        except StopIteration:
            return None

    async def read_line(self) -> str | None:
        loop = asyncio.get_running_loop()
        return await loop.run_in_executor(None, self._next_line)

    async def write_line(self, line: str) -> None:
        self._emit(line)

    async def close(self) -> None:
        return None


# -- the service --------------------------------------------------------------------

#: Sentinel closing a connection's response queue.
_CLOSE = object()


@dataclass
class _QueuedItem:
    request: SweepRequest
    request_id: Any
    future: "asyncio.Future[dict]"


@dataclass
class _Connection:
    id: int
    channel: Any
    #: Requests accepted but not yet dispatched (drained round-robin).
    queue: deque = field(default_factory=deque)
    #: Response futures in request order, closed by ``_CLOSE``.
    responses: "asyncio.Queue[Any]" = field(default_factory=asyncio.Queue)
    #: Accepted responses not yet written back (gates graceful drain).
    unwritten: int = 0
    #: Set by the writer whenever the backlog shrinks (or the peer dies);
    #: the reader waits on it when the connection is over its write backlog.
    write_progress: "asyncio.Event" = field(default_factory=asyncio.Event)
    served: int = 0
    in_rr: bool = False
    dead: bool = False


class SweepService:
    """Serve the sweep line protocol over any transport, fairly.

    One instance owns (or wraps) a :class:`SweepServer` and schedules every
    connection's requests through a single round-robin dispatcher.  Use
    :meth:`serve_tcp` for the network transport, :meth:`handle_channel` to
    drive one explicit channel (stdio), and :meth:`request_drain` to finish
    in-flight work and stop.
    """

    def __init__(
        self,
        server: SweepServer | None = None,
        *,
        backend: str = "auto",
        batch_size: int = 64,
        max_workers: int = 2,
        queue_depth: int = 64,
        request_timeout: float | None = None,
        fault_injector: FaultInjector | None = None,
        checkpoint_root: str | None = None,
    ):
        self._faults = fault_injector
        if server is None:
            server = SweepServer(
                backend=backend,
                batch_size=batch_size,
                max_workers=max_workers,
                fault_injector=fault_injector,
                checkpoint_root=checkpoint_root,
            )
            self._owns_server = True
        else:
            self._owns_server = False
        self.server = server
        #: Per-request watchdog: a sweep running longer than this gets a
        #: structured ``"code": "timeout"`` reply instead of hanging its
        #: connection (the worker thread finishes in the background).
        self.request_timeout = float(request_timeout) if request_timeout is not None else None
        #: Accepted-but-undispatched requests per connection before overload.
        self.queue_depth = max(1, int(queue_depth))
        #: Unwritten responses per connection before the reader stops reading
        #: (TCP backpressure): without it, a client that floods requests and
        #: never reads replies would grow the response queue without bound.
        self.write_backlog = self.queue_depth + self.server.max_workers + 64
        self.requests_received = 0
        self.requests_rejected = 0
        self.requests_failed = 0
        self.responses_sent = 0
        #: Requests that tripped the per-request watchdog.
        self.requests_timed_out = 0
        #: Requests arriving with ``"retry": true`` — client reconnect
        #: retries and pipeline recoveries, counted for observability.
        self.retries_served = 0
        self._connections: dict[int, _Connection] = {}
        self._conn_ids = itertools.count(1)
        self._rr: deque[_Connection] = deque()
        self._inflight = 0
        self._draining = False
        self._tcp_server: asyncio.base_events.Server | None = None
        self._handler_tasks: set[asyncio.Task] = set()
        self._execute_tasks: set[asyncio.Task] = set()
        # Created lazily in the serving loop so the service object can be
        # built on any thread (the primitives bind to the running loop).
        self._dispatcher: asyncio.Task | None = None
        self._work: asyncio.Event | None = None
        self._slots: asyncio.Semaphore | None = None
        self._drained: asyncio.Event | None = None

    # -- lifecycle ----------------------------------------------------------------

    async def _ensure_started(self) -> None:
        if self._dispatcher is not None and not self._dispatcher.done():
            return
        self._work = asyncio.Event()
        # One admitted sweep per server worker: more would wait in the pool's
        # queue, fewer would leave pool threads idle.
        self._slots = asyncio.Semaphore(self.server.max_workers)
        self._drained = asyncio.Event()
        self._dispatcher = asyncio.create_task(self._dispatch_loop(), name="sweep-dispatch")

    def request_drain(self) -> None:
        """Begin a graceful drain: refuse new work, finish accepted work.

        Safe to call from a signal handler on the event-loop thread.  The
        serving loops exit once every accepted request has been answered.
        """
        self._draining = True
        if self._tcp_server is not None:
            self._tcp_server.close()
        self._maybe_drained()

    @property
    def draining(self) -> bool:
        return self._draining

    def _maybe_drained(self) -> None:
        if not self._draining or self._drained is None:
            return
        if self._inflight:
            return
        for conn in self._connections.values():
            if conn.queue or conn.unwritten:
                return
        self._drained.set()

    async def aclose(self) -> None:
        """Tear the service down (cancel the dispatcher, close an owned server)."""
        dispatcher, self._dispatcher = self._dispatcher, None
        if dispatcher is not None:
            dispatcher.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await dispatcher
        for conn in self._connections.values():
            while conn.queue:
                item = conn.queue.popleft()
                if not item.future.done():
                    item.future.set_result(
                        error_record(
                            item.request.kernel,
                            ExplorationError("sweep service shut down before dispatch"),
                            code="draining",
                            request_id=item.request_id,
                        )
                    )
        if self._execute_tasks:
            await asyncio.gather(*self._execute_tasks, return_exceptions=True)
        if self._owns_server:
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(None, self.server.shutdown)

    # -- stats --------------------------------------------------------------------

    def stats_record(self, request_id: Any = None) -> dict:
        """The ``{"cmd": "stats"}`` reply: registry + fairness counters."""
        server_stats = self.server.stats()
        record: dict[str, Any] = {}
        if request_id is not None:
            record["id"] = request_id
        record.update(
            {
                "cmd": "stats",
                "engines": server_stats["engines"],
                "requests": {
                    "received": self.requests_received,
                    "submitted": server_stats["requests_submitted"],
                    "served": server_stats["requests_served"],
                    "rejected": self.requests_rejected,
                    "failed": self.requests_failed,
                },
                "engine_reused_rate": server_stats["engine_reused_rate"],
                "in_flight": self._inflight,
                "connections": len(self._connections),
                "queue_depths": {
                    f"conn-{conn.id}": len(conn.queue)
                    for conn in self._connections.values()
                },
                "draining": self._draining,
                # Failure counters: how much resilience machinery has fired.
                "faults": {
                    "request_timeouts": self.requests_timed_out,
                    "retries_served": self.retries_served,
                    "engine_build_failures": server_stats["engine_build_failures"],
                    "quarantined_engines": server_stats["quarantined_engines"],
                },
                "relation_cache": server_stats["relation_cache"],
            }
        )
        return record

    # -- per-connection handling --------------------------------------------------

    async def handle_channel(self, channel: Any) -> int:
        """Run the full line protocol over one channel; returns lines served."""
        await self._ensure_started()
        conn = _Connection(id=next(self._conn_ids), channel=channel)
        self._connections[conn.id] = conn
        writer_task = asyncio.create_task(self._write_responses(conn))
        try:
            while True:
                line = await channel.read_line()
                if line is None:
                    break
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                self._handle_line(conn, stripped)
                # Backpressure: a peer that does not read its responses
                # eventually blocks here instead of growing the backlog.
                while conn.unwritten > self.write_backlog and not conn.dead:
                    conn.write_progress.clear()
                    await conn.write_progress.wait()
        finally:
            conn.responses.put_nowait(_CLOSE)
            try:
                await writer_task
            finally:
                self._connections.pop(conn.id, None)
                self._maybe_drained()
                await channel.close()
        return conn.served

    def _handle_line(self, conn: _Connection, line: str) -> None:
        loop = asyncio.get_running_loop()
        future: "asyncio.Future[dict]" = loop.create_future()
        conn.responses.put_nowait(future)
        conn.unwritten += 1
        self.requests_received += 1
        try:
            data = json.loads(line)
            if not isinstance(data, dict):
                raise ExplorationError(f"request must be a JSON object, got {type(data).__name__}")
        except Exception as error:  # noqa: BLE001 - protocol line
            future.set_result(error_record(None, error, request_id=None))
            self.requests_rejected += 1
            return
        request_id = data.pop("id", None)
        # Protocol-level (not request-schema) field: clients tag reconnect
        # retries and pipeline resubmissions so operators can see them.
        if data.pop("retry", False):
            self.retries_served += 1
        cmd = data.pop("cmd", None)
        if cmd is not None:
            if cmd == "stats":
                future.set_result(self.stats_record(request_id))
            else:
                future.set_result(
                    error_record(
                        None,
                        ExplorationError(f"unknown control command {cmd!r}; known: ['stats']"),
                        code="bad-request",
                        request_id=request_id,
                    )
                )
                self.requests_rejected += 1
            return
        try:
            request = SweepRequest.from_dict(data)
        except Exception as error:  # noqa: BLE001 - protocol line
            future.set_result(error_record(data.get("kernel"), error, request_id=request_id))
            self.requests_rejected += 1
            return
        if self._draining:
            future.set_result(
                error_record(
                    request.kernel,
                    ExplorationError("server is draining; no new requests accepted"),
                    code="draining",
                    request_id=request_id,
                )
            )
            self.requests_rejected += 1
            return
        if len(conn.queue) >= self.queue_depth:
            future.set_result(
                error_record(
                    request.kernel,
                    ExplorationError(
                        f"connection queue is full ({len(conn.queue)} requests "
                        "queued); apply backpressure and retry"
                    ),
                    code="overloaded",
                    request_id=request_id,
                )
            )
            self.requests_rejected += 1
            return
        conn.queue.append(_QueuedItem(request=request, request_id=request_id, future=future))
        if not conn.in_rr:
            conn.in_rr = True
            self._rr.append(conn)
        assert self._work is not None
        self._work.set()

    async def _write_responses(self, conn: _Connection) -> None:
        while True:
            head = await conn.responses.get()
            if head is _CLOSE:
                break
            record = await head
            if not conn.dead:
                try:
                    await conn.channel.write_line(json.dumps(record))
                    conn.served += 1
                    self.responses_sent += 1
                except (ConnectionError, OSError):
                    # The peer went away: stop writing, discard its queued
                    # requests so the dispatcher never runs them, and keep
                    # consuming futures so accounting still settles.
                    conn.dead = True
                    conn.write_progress.set()
                    while conn.queue:
                        item = conn.queue.popleft()
                        if not item.future.done():
                            item.future.set_result(
                                error_record(
                                    item.request.kernel,
                                    ExplorationError("connection closed before dispatch"),
                                    request_id=item.request_id,
                                )
                            )
            conn.unwritten -= 1
            conn.write_progress.set()
            self._maybe_drained()

    # -- dispatch -----------------------------------------------------------------

    def _next_item(self) -> tuple[_Connection, _QueuedItem] | None:
        while self._rr:
            conn = self._rr.popleft()
            if not conn.queue:
                conn.in_rr = False
                continue
            item = conn.queue.popleft()
            if conn.queue:
                self._rr.append(conn)
            else:
                conn.in_rr = False
            return conn, item
        return None

    async def _dispatch_loop(self) -> None:
        assert self._work is not None and self._slots is not None
        while True:
            await self._slots.acquire()
            picked = None
            while picked is None:
                await self._work.wait()
                picked = self._next_item()
                if picked is None:
                    self._work.clear()
            _, item = picked
            self._inflight += 1
            task = asyncio.create_task(self._execute(item))
            self._execute_tasks.add(task)
            task.add_done_callback(self._execute_tasks.discard)

    async def _execute(self, item: _QueuedItem) -> None:
        try:
            record = await self._run_request(item.request)
        except Exception as error:  # noqa: BLE001 - becomes the error reply line
            # Structured failures (RequestTimeout, EngineQuarantinedError)
            # carry a reply code so clients can react without string-matching.
            record = error_record(
                item.request.kernel,
                error,
                code=getattr(error, "code", None),
                request_id=item.request_id,
            )
            self.requests_failed += 1
        else:
            if item.request_id is not None:
                record = {"id": item.request_id, **record}
        if not item.future.done():
            item.future.set_result(record)
        self._inflight -= 1
        assert self._slots is not None
        self._slots.release()
        self._maybe_drained()

    async def _run_request(self, request: SweepRequest) -> dict:
        """Run one sweep on the warm-engine server (the transport-free seam).

        ``submit`` runs on a worker thread: it builds the operation and may
        construct (or LRU-evict and close) an engine, which must not stall
        the event loop for every other connection.

        With ``request_timeout`` set, the whole request — build, engine
        reservation, sweep — runs under a watchdog; tripping it raises
        :class:`RequestTimeout` (reply ``"code": "timeout"``).  The worker
        thread cannot be killed, so the sweep may still finish server-side;
        what the watchdog guarantees is that a hung request never wedges its
        connection (or its round-robin slot) forever.
        """
        loop = asyncio.get_running_loop()

        async def run() -> dict:
            future = await loop.run_in_executor(None, self.server.submit, request)
            result, reused = await asyncio.wrap_future(future)
            return result_record(request, result, reused)

        if self.request_timeout is None:
            return await run()
        try:
            return await asyncio.wait_for(run(), timeout=self.request_timeout)
        except asyncio.TimeoutError as error:
            self.requests_timed_out += 1
            raise RequestTimeout(
                "request exceeded the server watchdog "
                f"(--request-timeout={self.request_timeout}s); the sweep may "
                "still be running server-side"
            ) from error

    # -- transports ---------------------------------------------------------------

    async def _on_tcp_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        channel = SocketChannel(reader, writer, fault_injector=self._faults)
        try:
            await self.handle_channel(channel)
        except Exception:  # noqa: BLE001 - one connection must not kill the server
            await channel.close()
        finally:
            if task is not None:
                self._handler_tasks.discard(task)

    async def serve_tcp(
        self,
        host: str,
        port: int,
        *,
        announce: Callable[[str, int], None] | None = None,
    ) -> int:
        """Accept connections until a drain is requested; returns lines served."""
        await self._ensure_started()
        server = await asyncio.start_server(self._on_tcp_connection, host, port, limit=LINE_LIMIT)
        self._tcp_server = server
        bound = server.sockets[0].getsockname()
        if announce is not None:
            announce(bound[0], bound[1])
        if self._draining:
            # A drain was requested before the listener existed (e.g. SIGTERM
            # during startup): close it now and re-evaluate, or the unset
            # drained event below would be awaited forever.
            self.request_drain()
        try:
            assert self._drained is not None
            await self._drained.wait()
        finally:
            server.close()
            for conn in list(self._connections.values()):
                await conn.channel.close()
            with contextlib.suppress(Exception):
                await server.wait_closed()
            if self._handler_tasks:
                await asyncio.gather(*self._handler_tasks, return_exceptions=True)
            self._tcp_server = None
        return self.responses_sent


# -- entry points -------------------------------------------------------------------


def serve_lines(
    lines: Iterable[str],
    *,
    backend: str = "auto",
    batch_size: int = 64,
    max_workers: int = 2,
    queue_depth: int = 64,
    request_timeout: float | None = None,
    checkpoint_root: str | None = None,
    emit: Callable[[str], None] | None = None,
) -> int:
    """The stdio ``tenet serve`` loop: JSON requests in, JSON results out.

    Delegates to the same connection handler as the TCP transport, so stdio
    responses are identical to network responses for the same request lines
    (modulo the per-run timing fields).  Returns the number of response lines
    emitted — exactly one per request, errors included.
    """
    if emit is None:
        emit = functools.partial(print, flush=True)

    async def _run() -> int:
        service = SweepService(
            backend=backend,
            batch_size=batch_size,
            max_workers=max_workers,
            queue_depth=queue_depth,
            request_timeout=request_timeout,
            checkpoint_root=checkpoint_root,
        )
        channel = IterableChannel(lines, emit)
        try:
            return await service.handle_channel(channel)
        finally:
            await service.aclose()

    return asyncio.run(_run())


def run_tcp_server(
    host: str,
    port: int,
    *,
    backend: str = "auto",
    batch_size: int = 64,
    max_workers: int = 2,
    queue_depth: int = 64,
    request_timeout: float | None = None,
    checkpoint_root: str | None = None,
    announce: Callable[[str, int], None] | None = None,
) -> int:
    """Run ``tenet serve --listen``: serve TCP until SIGTERM/SIGINT, drain, exit.

    Returns the number of response lines served over the server's lifetime.
    """

    async def _main() -> int:
        service = SweepService(
            backend=backend,
            batch_size=batch_size,
            max_workers=max_workers,
            queue_depth=queue_depth,
            request_timeout=request_timeout,
            checkpoint_root=checkpoint_root,
        )
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            with contextlib.suppress(NotImplementedError, RuntimeError):
                loop.add_signal_handler(signum, service.request_drain)
        try:
            return await service.serve_tcp(host, port, announce=announce)
        finally:
            for signum in (signal.SIGTERM, signal.SIGINT):
                with contextlib.suppress(NotImplementedError, RuntimeError, ValueError):
                    loop.remove_signal_handler(signum)
            await service.aclose()

    return asyncio.run(_main())
