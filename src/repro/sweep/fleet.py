"""Fleet orchestration: one sweep driven across N serve replicas.

:class:`FleetCoordinator` turns the coordination-free ``--shard i/n``
partitioning (:mod:`repro.sweep.source`) into an orchestrated fleet sweep: it
spawns (or attaches to) N ``tenet serve --listen`` replicas, partitions the
candidate space into M *shard leases*, dispatches each lease to a replica via
the blocking :class:`~repro.sweep.client.SweepClient`, and merges the
per-lease JSONL checkpoints into the final ranking with the same
:func:`~repro.sweep.sinks.load_ranking` merge ``tenet sweep-merge`` uses —
bit-identical to an unsharded single-node sweep, whatever failed along the
way.

Lease semantics
    A lease is the exclusive right to sweep shard ``i`` of ``M`` into a named
    checkpoint under the shared checkpoint directory.  Exactly one replica
    holds a lease at a time (one worker thread per replica, one in-flight
    lease per worker).  A lease completes when its replica's reply arrives
    without an error; it is *revoked* when the reply is an error, the
    connection dies, or the per-lease timeout expires.

Work stealing
    A revoked lease is re-issued to the next free replica under a new
    checkpoint *generation*: the coordinator clones the revoked generation's
    complete lines (:func:`~repro.sweep.sinks.clone_checkpoint`) into
    ``lease-0003.g1.jsonl`` and the re-issued request resumes *that* file —
    the original writer may be slow rather than dead, so the clone guarantees
    the resumed file has exactly one writer.  Resume skips every recorded
    signature, so only unrecorded candidates are re-evaluated, and every
    generation file joins the final merge (records are deterministic and the
    merge dedupes by signature, so duplicate records across generations are
    harmless).

Replica health
    A monitor thread polls each replica's ``{"cmd": "stats"}`` endpoint as a
    heartbeat (answered inline by the service, never queued behind sweeps)
    and watches spawned replica processes.  A dead process, or
    ``max_consecutive_failures`` failed heartbeats or leases, evicts the
    replica; eviction aborts its in-flight lease client so the lease is
    stolen immediately instead of waiting out the lease timeout.  When every
    replica is evicted with leases outstanding the fleet fails with
    :class:`FleetError` — the checkpoints on disk make the whole fleet run
    resumable by a later one.

Start-up and teardown
    Every spawned replica launches on its own thread at once, and each
    replica's worker starts taking leases as soon as that replica announces
    its address (attached replicas start at once), so the first replica
    sweeps while the others still import.  A launch still in flight counts
    as a live replica.  A replica that fails to launch fails the run, as
    does any exception a worker, launch or monitor thread raises; either
    way the coordinator waits for the launches in flight, then sends
    SIGTERM to every spawned replica before waiting for any of them, so no
    replica outlives :meth:`FleetCoordinator.run`.

``tenet fleet --replicas N --shards M`` wraps this in a CLI; ``--attach
host:port,...`` drives externally managed replicas instead (they must share
the coordinator's checkpoint directory via ``--checkpoint-root``).
"""

from __future__ import annotations

import math
import os
import subprocess
import sys
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.errors import ExplorationError
from repro.sweep.client import SweepClient
from repro.sweep.faults import FAULTS_ENV, FaultPlan
from repro.sweep.net import parse_announce, parse_listen
from repro.sweep.server import SweepRequest
from repro.sweep.sinks import RankEntry, clone_checkpoint, load_ranking

#: Request fields the coordinator owns; a base request carrying one of these
#: would silently fight the lease machinery, so they are refused up front.
RESERVED_FIELDS = ("shard", "checkpoint", "resume", "id", "cmd", "retry")


class FleetError(ExplorationError):
    """The fleet could not finish its leases (e.g. every replica evicted)."""


@dataclass
class Lease:
    """One shard's sweep: its checkpoint generations and dispatch state."""

    index: int
    shards: int
    #: Checkpoint file of the *current* generation (under the fleet dir).
    checkpoint: Path
    generation: int = 0
    #: Dispatch attempts across all replicas (1 on a clean first run).
    attempts: int = 0
    state: str = "pending"  # pending | running | done
    #: Name of the replica currently (or last) holding the lease.
    replica: str | None = None
    #: Every generation file ever written for this lease; all of them join
    #: the final merge (signature dedupe makes overlaps harmless).
    files: list[Path] = field(default_factory=list)
    #: The reply record of the completing dispatch.
    record: dict | None = None

    @property
    def id(self) -> str:
        """Request id of the current generation's dispatch."""
        return f"lease-{self.index:04d}-g{self.generation}"


@dataclass
class ReplicaInfo:
    """One replica's address, process handle (when spawned), and health."""

    name: str
    host: str
    port: int
    #: Set for replicas the coordinator spawned; ``None`` for attached ones.
    process: subprocess.Popen | None = None
    evicted: bool = False
    evicted_reason: str | None = None
    consecutive_failures: int = 0
    heartbeat_failures: int = 0
    last_heartbeat: float | None = None
    leases_completed: int = 0
    leases_failed: int = 0
    #: The in-flight lease client, abortable by the monitor on eviction.
    active_client: Any = None


def launch_replica(
    *,
    checkpoint_root: str | Path | None = None,
    args: Sequence[str] = (),
    fault_plan: FaultPlan | None = None,
    stderr_sink: Callable[[str], None] | None = None,
    announce_timeout: float = 120.0,
) -> tuple[subprocess.Popen, str, int]:
    """Spawn a real ``tenet serve --listen 127.0.0.1:0`` replica subprocess.

    Waits for the ephemeral bind to be announced on stderr and returns
    ``(process, host, port)``.  ``fault_plan`` arms the replica's fault
    injector via the :data:`~repro.sweep.faults.FAULTS_ENV` environment
    variable (any plan inherited from this process's environment is dropped
    either way, so replicas never pick up faults by accident);
    ``stderr_sink`` receives every stderr line as it arrives.  A replica that
    exits, or stays silent past ``announce_timeout``, raises
    :class:`FleetError` naming its exit code and its last stderr line.
    """
    env = dict(os.environ)
    src_root = str(Path(__file__).resolve().parents[2])
    existing = env.get("PYTHONPATH")
    env["PYTHONPATH"] = src_root + (os.pathsep + existing if existing else "")
    env.pop(FAULTS_ENV, None)
    if fault_plan is not None:
        env[FAULTS_ENV] = fault_plan.to_json()
    command = [sys.executable, "-m", "repro.cli", "serve", "--listen", "127.0.0.1:0"]
    if checkpoint_root is not None:
        command += ["--checkpoint-root", str(checkpoint_root)]
    command += list(args)
    process = subprocess.Popen(
        command,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        text=True,
    )
    address: dict[str, tuple[str, int]] = {}
    last_line = [""]
    announced = threading.Event()

    def pump() -> None:
        assert process.stderr is not None
        # Closed at EOF, when the replica exits: nothing else reads the pipe.
        with process.stderr:
            for line in process.stderr:
                if stderr_sink is not None:
                    stderr_sink(line)
                if line.strip():
                    last_line[0] = line.strip()
                if "bound" not in address:
                    parsed = parse_announce(line)
                    if parsed is not None:
                        address["bound"] = parsed
                        announced.set()
        announced.set()

    threading.Thread(target=pump, daemon=True).start()
    if not announced.wait(announce_timeout) or "bound" not in address:
        # The pump also sets the event at EOF: the replica is exiting, and a
        # SIGKILL cannot change an exit code the process has already set.
        exited = announced.is_set()
        process.kill()
        code = process.wait(30)
        why = f"exited with code {code}" if exited else f"silent for {announce_timeout:g} s"
        said = f": {last_line[0]}" if last_line[0] else ""
        raise FleetError(f"replica never announced its listen address ({why}){said}")
    host, port = address["bound"]
    return process, host, port


def stop_replica(*processes: subprocess.Popen) -> None:
    """SIGTERM (graceful drain) every live replica, then wait for each.

    Every signal goes out before the first wait, so the replicas drain side
    by side; one still running 60 s after its SIGTERM gets SIGKILL.
    """
    live = [process for process in processes if process.poll() is None]
    for process in live:
        process.terminate()
    deadline = time.monotonic() + 60
    for process in live:
        try:
            process.wait(max(0.0, deadline - time.monotonic()))
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait(30)


def parse_attach(text: str) -> list[tuple[str, int]]:
    """Parse ``--attach host:port,host:port`` into address tuples."""
    addresses = [parse_listen(part.strip()) for part in text.split(",") if part.strip()]
    if not addresses:
        raise ExplorationError(
            f"--attach expects a comma-separated list of HOST:PORT, got {text!r}"
        )
    return addresses


@dataclass
class FleetResult:
    """Outcome of one fleet sweep: merged ranking plus orchestration counters."""

    leases: list[Lease]
    replicas: list[ReplicaInfo]
    #: Lease revocations that were re-issued to another generation.
    steals: int
    #: Replicas evicted for failures or death.
    evictions: int
    seconds: float
    #: The merged ranking across every lease generation file — bit-identical
    #: to the unsharded single-node sweep of the same request.
    ranking: list[RankEntry] = field(default_factory=list)

    @property
    def processed(self) -> int:
        """Candidates processed across all completing leases (resume skips
        counted once, by the generation that recorded them)."""
        total = 0
        for lease in self.leases:
            if lease.record is not None:
                total += lease.record.get("candidates", 0)
        return total

    @property
    def throughput(self) -> float:
        return self.processed / self.seconds if self.seconds > 0 else 0.0

    def summary(self, count: int = 5) -> str:
        live = sum(1 for replica in self.replicas if not replica.evicted)
        lines = [
            f"fleet swept {len(self.leases)} lease(s) on {live}/"
            f"{len(self.replicas)} replica(s) in {self.seconds:.1f}s "
            f"({self.processed} candidates, {self.steals} steal(s), "
            f"{self.evictions} eviction(s))",
        ]
        for rank, entry in enumerate(self.ranking[:count], start=1):
            lines.append(
                f"  {rank}. {entry.name:30s} score={entry.score:.1f} "
                f"latency={entry.data['latency_cycles']:.0f}"
            )
        return "\n".join(lines)


class FleetCoordinator:
    """Drive one sweep request across N replicas as M checkpointed leases."""

    def __init__(
        self,
        request: dict,
        *,
        shards: int,
        checkpoint_dir: str | Path,
        replicas: int = 0,
        attach: Sequence[tuple[str, int]] = (),
        replica_args: Sequence[str] = (),
        lease_timeout: float = 600.0,
        heartbeat_interval: float | None = 2.0,
        heartbeat_timeout: float = 10.0,
        max_consecutive_failures: int = 2,
        client_factory: Callable[[str, int, float], Any] | None = None,
    ):
        if shards < 1:
            raise FleetError(f"a fleet needs at least one shard, got {shards}")
        if replicas < 0:
            raise FleetError(f"--replicas must be non-negative, got {replicas}")
        if replicas + len(attach) < 1:
            raise FleetError(
                "a fleet needs at least one replica: spawn some (replicas=N) "
                "or attach running ones (attach=[(host, port), ...])"
            )
        periods = {"lease timeout": lease_timeout, "heartbeat timeout": heartbeat_timeout}
        if heartbeat_interval is not None and heartbeat_interval > 0:
            periods["heartbeat interval"] = heartbeat_interval
        for name, seconds in periods.items():
            # Checked before any spawn: in a fleet thread, a socket or a wait
            # raises on a negative, infinite or NaN period, and a zero one
            # fails every request.  NaN fails the chained comparison too.
            if not 0 < seconds < math.inf:
                raise FleetError(
                    f"the {name} must be a positive, finite number of seconds, "
                    f"got {seconds}"
                )
        for reserved in RESERVED_FIELDS:
            if reserved in request:
                raise FleetError(
                    f"the coordinator owns the {reserved!r} request field; "
                    "remove it from the base request"
                )
        # Fail fast on a malformed base request (unknown fields, sizes that
        # do not fit the kernel): every replica rejecting it
        # max_consecutive_failures times would end in the same error, slowly.
        SweepRequest.from_dict(dict(request)).build()
        self.request = dict(request)
        self.shards = int(shards)
        self.checkpoint_dir = Path(checkpoint_dir)
        self.replicas = int(replicas)
        self.attach = list(attach)
        self.replica_args = list(replica_args)
        self.lease_timeout = float(lease_timeout)
        self.heartbeat_interval = (
            float(heartbeat_interval)
            if heartbeat_interval is not None and heartbeat_interval > 0
            else None
        )
        self.heartbeat_timeout = float(heartbeat_timeout)
        self.max_consecutive_failures = max(1, int(max_consecutive_failures))
        self._client_factory = client_factory
        self.leases = [
            Lease(
                index=index,
                shards=self.shards,
                checkpoint=self._generation_path(index, 0),
            )
            for index in range(self.shards)
        ]
        for lease in self.leases:
            lease.files.append(lease.checkpoint)
        self.steals = 0
        self.evictions = 0
        #: One fixed slot per replica (spawned, then attached); a spawned
        #: replica's slot stays ``None`` until it announces.
        self._replicas: list[ReplicaInfo | None] = []
        #: Spawned replicas whose launch has not returned yet.
        self._launching = 0
        self._queue: deque[Lease] = deque(self.leases)
        self._cond = threading.Condition()
        self._completed = 0
        self._done = False
        #: The run's first fatal error, raised by :meth:`run` after teardown.
        self._fatal: BaseException | None = None

    # -- plumbing -----------------------------------------------------------------

    def _generation_path(self, index: int, generation: int) -> Path:
        return self.checkpoint_dir / f"lease-{index:04d}.g{generation}.jsonl"

    def _make_client(self, host: str, port: int, timeout: float) -> Any:
        if self._client_factory is not None:
            return self._client_factory(host, port, timeout)
        # reconnect_retries=0: the fleet layer owns retry policy (a failed
        # dispatch is a steal), so the client must not second-guess it.
        return SweepClient(host, port, timeout=timeout, reconnect_retries=0)

    def _lease_payload(self, lease: Lease) -> dict:
        return {
            **self.request,
            "shard": [lease.index, lease.shards],
            # Checkpoints are named relative to the replicas' shared
            # --checkpoint-root, which must be this coordinator's
            # checkpoint_dir (same filesystem).
            "checkpoint": lease.checkpoint.name,
            # Always resume: a fresh file is a fresh sweep, a stolen or
            # coordinator-restarted lease skips what is already recorded.
            "resume": True,
            "id": lease.id,
        }

    # -- lease lifecycle ----------------------------------------------------------

    def _dispatch(self, lease: Lease, replica: ReplicaInfo) -> tuple[dict | None, str]:
        """One lease attempt on one replica: ``(record, "")`` or ``(None, why)``."""
        client = self._make_client(replica.host, replica.port, self.lease_timeout)
        replica.active_client = client
        try:
            record = client.request(self._lease_payload(lease))
        except ExplorationError as error:
            return None, str(error)
        finally:
            replica.active_client = None
            try:
                client.close()
            except Exception:  # noqa: BLE001 - a dead socket must not mask the verdict
                pass
        if "error" in record:
            return None, f"replica rejected the lease: {record['error']}"
        return record, ""

    def _steal_locked(self, lease: Lease, reason: str) -> None:
        """Revoke a failed lease and re-issue it under a new generation.

        Called with the condition held.  The old generation's complete lines
        are cloned into the new file, so the re-issued replica resumes from
        everything the failed one durably recorded — even if the failed one
        is slow rather than dead and still writing to the old file.
        """
        old_path = lease.checkpoint
        lease.generation += 1
        new_path = self._generation_path(lease.index, lease.generation)
        clone_checkpoint(old_path, new_path)
        lease.checkpoint = new_path
        lease.files.append(new_path)
        lease.state = "pending"
        lease.replica = None
        self.steals += 1
        self._queue.append(lease)

    def _evict_locked(self, replica: ReplicaInfo, reason: str) -> None:
        """Remove a replica from the rotation (condition held)."""
        if replica.evicted:
            return
        replica.evicted = True
        replica.evicted_reason = reason
        self.evictions += 1
        client = replica.active_client
        if client is not None:
            # Unblock the worker's in-flight request immediately; it will
            # surface a ConnectionError and steal its lease.
            try:
                client.abort()
            except Exception:  # noqa: BLE001 - eviction must never fail
                pass
        registered = [r for r in self._replicas if r is not None]
        # A launch still in flight is a replica yet to come, not a lost one.
        if (
            not self._launching
            and all(r.evicted for r in registered)
            and self._completed < len(self.leases)
        ):
            remaining = len(self.leases) - self._completed
            self._fail_locked(
                FleetError(
                    f"all {len(registered)} replica(s) evicted with "
                    f"{remaining} lease(s) unfinished (last eviction: {reason}); "
                    "the lease checkpoints on disk are resumable by a new fleet"
                )
            )

    def _fail_locked(self, error: BaseException) -> None:
        """Record the run's first fatal error and wake everyone (condition held)."""
        if self._fatal is None:
            self._fatal = error
        self._cond.notify_all()

    def _guarded(self, body: Callable[..., None], *args: Any) -> None:
        """Thread target: whatever ``body`` raises fails the run, and
        :meth:`run` re-raises it after the teardown."""
        try:
            body(*args)
        except BaseException as error:  # noqa: BLE001 - re-raised by run()
            with self._cond:
                self._fail_locked(error)

    def _replica_thread(self, slot: int) -> None:
        """Launch a spawned replica into its slot, then run its worker."""
        replica = self._replicas[slot]
        if replica is None:
            try:
                # Looked up on the module at call time: tests and traced
                # benchmark runs patch ``repro.sweep.fleet.launch_replica``.
                process, host, port = launch_replica(
                    checkpoint_root=self.checkpoint_dir, args=self.replica_args
                )
            except BaseException as error:  # noqa: BLE001 - re-raised by run()
                with self._cond:
                    self._launching -= 1
                    self._fail_locked(error)
                return
            replica = ReplicaInfo(
                name=f"replica-{slot}", host=host, port=port, process=process
            )
            with self._cond:
                self._launching -= 1
                self._replicas[slot] = replica
                self._cond.notify_all()
        self._worker(replica)

    def _worker(self, replica: ReplicaInfo) -> None:
        """One replica's dispatch loop: lease, sweep, complete-or-steal."""
        while True:
            with self._cond:
                lease = None
                while lease is None:
                    if self._done or self._fatal is not None or replica.evicted:
                        return
                    if self._queue:
                        lease = self._queue.popleft()
                    else:
                        self._cond.wait(0.25)
                lease.state = "running"
                lease.replica = replica.name
                lease.attempts += 1
            record, failure = self._dispatch(lease, replica)
            with self._cond:
                if record is not None:
                    lease.state = "done"
                    lease.record = record
                    replica.consecutive_failures = 0
                    replica.leases_completed += 1
                    self._completed += 1
                    if self._completed == len(self.leases):
                        self._done = True
                else:
                    replica.consecutive_failures += 1
                    replica.leases_failed += 1
                    self._steal_locked(lease, failure)
                    if replica.consecutive_failures >= self.max_consecutive_failures:
                        self._evict_locked(
                            replica,
                            f"{replica.consecutive_failures} consecutive lease "
                            f"failure(s), last: {failure}",
                        )
                self._cond.notify_all()

    def _monitor(self, stop: threading.Event) -> None:
        """Health loop: process liveness + stats-poll heartbeats."""
        assert self.heartbeat_interval is not None
        while not stop.wait(self.heartbeat_interval):
            with self._cond:
                replicas = [r for r in self._replicas if r is not None]
            for replica in replicas:
                if replica.evicted or stop.is_set():
                    continue
                if replica.process is not None and replica.process.poll() is not None:
                    with self._cond:
                        self._evict_locked(
                            replica,
                            f"process exited with code {replica.process.returncode}",
                        )
                        self._cond.notify_all()
                    continue
                try:
                    client = self._make_client(
                        replica.host, replica.port, self.heartbeat_timeout
                    )
                    try:
                        client.request({"cmd": "stats"})
                    finally:
                        client.close()
                except ExplorationError:
                    replica.heartbeat_failures += 1
                    if replica.heartbeat_failures >= self.max_consecutive_failures:
                        with self._cond:
                            self._evict_locked(
                                replica,
                                f"{replica.heartbeat_failures} consecutive "
                                "heartbeat failure(s)",
                            )
                            self._cond.notify_all()
                else:
                    replica.heartbeat_failures = 0
                    replica.last_heartbeat = time.monotonic()

    # -- the run ------------------------------------------------------------------

    def run(self) -> FleetResult:
        """Spawn/attach replicas, drive every lease to completion, merge.

        Spawned replicas launch at once, and each one takes leases from its
        own announce (attached ones from the start).  Raises
        :class:`FleetError` when a replica fails to launch or every replica
        is evicted with leases outstanding, and re-raises whatever else a
        fleet thread raised; everything durably recorded stays on disk, so
        re-running the same fleet resumes instead of restarting.  No spawned
        replica outlives the call.
        """
        started = time.perf_counter()
        self.checkpoint_dir.mkdir(parents=True, exist_ok=True)
        self._replicas = [None] * self.replicas
        self._replicas += [
            ReplicaInfo(name=f"attached-{number}", host=host, port=int(port))
            for number, (host, port) in enumerate(self.attach)
        ]
        self._launching = self.replicas
        stop_monitor = threading.Event()
        threads = [
            threading.Thread(
                target=self._guarded,
                args=(self._replica_thread, slot),
                name="fleet-" + (replica.name if replica else f"replica-{slot}"),
            )
            for slot, replica in enumerate(self._replicas)
        ]
        if self.heartbeat_interval is not None:
            threads.append(
                threading.Thread(
                    target=self._guarded,
                    args=(self._monitor, stop_monitor),
                    name="fleet-monitor",
                )
            )
        for thread in threads:
            thread.start()
        try:
            with self._cond:
                while not self._done and self._fatal is None:
                    self._cond.wait(0.5)
        finally:
            with self._cond:
                # Wake every thread so they observe done/fatal and exit.
                if not self._done:
                    self._fail_locked(FleetError("fleet interrupted"))
                self._cond.notify_all()
                registered = [r for r in self._replicas if r is not None]
            stop_monitor.set()
            for replica in registered:
                client = replica.active_client
                if client is not None:
                    try:
                        client.abort()
                    except Exception:  # noqa: BLE001 - teardown
                        pass
            with self._cond:
                # A launch in flight ends at its announce, its exit or its own
                # announce timeout; a replica it started is stopped below.
                while self._launching:
                    self._cond.wait()
                spawned = [
                    r.process for r in self._replicas if r is not None and r.process is not None
                ]
            for thread in threads:
                thread.join(60)
            stop_replica(*spawned)
        if self._fatal is not None:
            raise self._fatal
        merge_files = [
            path
            for lease in self.leases
            for path in lease.files
            if path.exists() and path.stat().st_size > 0
        ]
        ranking = load_ranking(merge_files) if merge_files else []
        return FleetResult(
            leases=self.leases,
            replicas=[r for r in self._replicas if r is not None],
            steals=self.steals,
            evictions=self.evictions,
            seconds=time.perf_counter() - started,
            ranking=ranking,
        )
