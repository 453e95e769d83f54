"""Fleet coordinator tests: leases, stealing, eviction, bit-identical merges.

The coordinator logic is driven deterministically through scripted fake
replica clients (``client_factory``); the bit-identity suite then swaps in
real in-process :class:`SweepServer` replicas with seeded fault injection so
every single-replica-failure timing the fault plan can draw is proven to
merge bit-identically to the unsharded single-node run.
"""

import json
import math
import socket
import subprocess
import sys
import threading
import time

import pytest

from repro.errors import ExplorationError
from repro.sweep import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    FleetCoordinator,
    FleetError,
    SweepClient,
    SweepRequest,
    SweepServer,
    clone_checkpoint,
    format_announce,
    load_ranking,
    parse_announce,
    parse_attach,
    render_ranking,
)
from repro.sweep.fleet import launch_replica, stop_replica
from repro.sweep.server import result_record

REQUEST = {"kernel": "conv2d", "sizes": [8, 8, 5, 5, 3, 3], "max_candidates": 12}


# -- announce line / attach parsing ----------------------------------------------------


def test_announce_round_trip():
    line = format_announce("127.0.0.1", 7077)
    assert parse_announce(line) == ("127.0.0.1", 7077)
    # Embedded in surrounding log text, as the stderr pump sees it.
    assert parse_announce(f"...{line}\n") == ("127.0.0.1", 7077)


def test_parse_announce_rejects_garbage():
    assert parse_announce("tenet serve: backend=fused") is None
    assert parse_announce("") is None


def test_parse_attach():
    assert parse_attach("127.0.0.1:7077") == [("127.0.0.1", 7077)]
    assert parse_attach("10.0.0.1:1, :2 ,127.0.0.1:3") == [
        ("10.0.0.1", 1),
        ("127.0.0.1", 2),
        ("127.0.0.1", 3),
    ]
    with pytest.raises(ExplorationError):
        parse_attach(" , ")


# -- checkpoint cloning ----------------------------------------------------------------


HEADER = json.dumps({"kind": "meta", "version": 1, "op": "x"})
# Pruned rather than "ok": the coordinator's final merge parses every lease
# generation file, and pruned records need no score/report payload.
RECORD = json.dumps(
    {"kind": "result", "signature": "s1", "name": "a", "status": "pruned", "bound": 1.0}
)


def test_clone_checkpoint_trims_torn_tail(tmp_path):
    source = tmp_path / "src.jsonl"
    source.write_text(HEADER + "\n" + RECORD + "\n" + '{"kind": "result", "sig')
    dest = tmp_path / "dest.jsonl"
    assert clone_checkpoint(source, dest) == 1
    # Complete lines only: the torn fragment of the dying writer is dropped.
    assert dest.read_text() == HEADER + "\n" + RECORD + "\n"


def test_clone_checkpoint_missing_source(tmp_path):
    dest = tmp_path / "dest.jsonl"
    assert clone_checkpoint(tmp_path / "nope.jsonl", dest) == 0
    # A lease that died before its header clones nothing: resuming the absent
    # file is simply a fresh sweep.
    assert not dest.exists()


def test_clone_checkpoint_header_only(tmp_path):
    source = tmp_path / "src.jsonl"
    source.write_text(HEADER + "\n")
    dest = tmp_path / "dest.jsonl"
    assert clone_checkpoint(source, dest) == 0
    assert dest.read_text() == HEADER + "\n"


# -- client abort ----------------------------------------------------------------------


def test_abort_unblocks_blocking_request():
    listener = socket.socket()
    listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
    listener.bind(("127.0.0.1", 0))
    listener.listen(1)
    port = listener.getsockname()[1]
    accepted = []
    threading.Thread(
        target=lambda: accepted.append(listener.accept()), daemon=True
    ).start()
    client = SweepClient("127.0.0.1", port, timeout=60.0, reconnect_retries=0)
    errors = []
    started = threading.Event()

    def blocked():
        started.set()
        try:
            client.request({"cmd": "stats"})
        except ExplorationError as error:
            errors.append(error)

    thread = threading.Thread(target=blocked)
    thread.start()
    assert started.wait(10)
    time.sleep(0.2)  # let the request reach its blocking read
    begun = time.monotonic()
    client.abort()
    thread.join(10)
    assert not thread.is_alive(), "abort() did not unblock the request"
    assert time.monotonic() - begun < 10
    assert errors, "aborted request should surface an ExplorationError"
    client.close()
    listener.close()


# -- server-side checkpoints -----------------------------------------------------------


def test_request_checkpoint_field_validation():
    request = SweepRequest.from_dict({**REQUEST, "checkpoint": "a.jsonl", "resume": True})
    assert request.checkpoint == "a.jsonl"
    assert request.resume is True
    with pytest.raises(ExplorationError, match="checkpoint"):
        SweepRequest.from_dict({**REQUEST, "checkpoint": 5})


def test_server_without_root_refuses_checkpointed_requests():
    with SweepServer() as server:
        request = SweepRequest.from_dict({**REQUEST, "checkpoint": "a.jsonl"})
        with pytest.raises(ExplorationError, match="checkpoint root"):
            server.submit(request).result()


@pytest.mark.parametrize("name", ["../evil.jsonl", "/tmp/evil.jsonl", "a/../../b.jsonl"])
def test_server_confines_checkpoints_to_root(tmp_path, name):
    with SweepServer(checkpoint_root=tmp_path) as server:
        request = SweepRequest.from_dict({**REQUEST, "checkpoint": name})
        with pytest.raises(ExplorationError, match="escapes"):
            server.submit(request).result()


def test_server_checkpoint_write_and_resume(tmp_path):
    with SweepServer(checkpoint_root=tmp_path) as server:
        request = SweepRequest.from_dict({**REQUEST, "checkpoint": "lease.jsonl"})
        first, reused = server.submit(request).result()
        assert (tmp_path / "lease.jsonl").exists()
        assert first.skipped == 0 and first.evaluated_count > 0
        # Re-issued lease: everything recorded is skipped, nothing re-evaluated.
        resumed_request = SweepRequest.from_dict(
            {**REQUEST, "checkpoint": "lease.jsonl", "resume": True}
        )
        resumed, _ = server.submit(resumed_request).result()
        assert resumed.evaluated_count == 0
        assert resumed.skipped == first.num_candidates
        # The wire record carries the resume evidence the coordinator asserts.
        record = result_record(resumed_request, resumed, reused)
        assert record["skipped"] == first.num_candidates
        # Rankings agree: restored-from-checkpoint vs freshly evaluated.
        assert render_ranking(resumed.ranking) == render_ranking(first.ranking)


# -- coordinator with scripted fake replicas -------------------------------------------


class FakeReplicaClient:
    """One scripted client connection; behavior is per-replica-host."""

    def __init__(self, behavior, host, port, timeout):
        self._behavior = behavior
        self.host, self.port, self.timeout = host, port, timeout

    def request(self, payload):
        return self._behavior(self.host, dict(payload), self.timeout)

    def close(self):
        pass

    def abort(self):
        pass


def make_factory(behavior):
    return lambda host, port, timeout: FakeReplicaClient(behavior, host, port, timeout)


def ok_record(payload):
    return {"id": payload.get("id"), "candidates": 2, "skipped": 0, "top": []}


def test_coordinator_validates_inputs(tmp_path):
    with pytest.raises(FleetError, match="replica"):
        FleetCoordinator(dict(REQUEST), shards=2, checkpoint_dir=tmp_path)
    with pytest.raises(FleetError, match="shard"):
        FleetCoordinator(
            dict(REQUEST), shards=0, checkpoint_dir=tmp_path, attach=[("h", 1)]
        )
    with pytest.raises(FleetError, match="reserved|owns"):
        FleetCoordinator(
            {**REQUEST, "shard": [0, 2]},
            shards=2,
            checkpoint_dir=tmp_path,
            attach=[("h", 1)],
        )
    # A malformed base request fails fast at construction, not N times on wire.
    with pytest.raises(ExplorationError, match="unknown"):
        FleetCoordinator(
            {**REQUEST, "bogus": 1},
            shards=2,
            checkpoint_dir=tmp_path,
            attach=[("h", 1)],
        )


@pytest.mark.parametrize(
    "options",
    [
        {"lease_timeout": 0},
        {"lease_timeout": -1},
        {"lease_timeout": math.inf},
        {"lease_timeout": math.nan},
        {"heartbeat_timeout": 0},
        {"heartbeat_interval": math.inf},
    ],
)
def test_coordinator_refuses_unusable_timeouts(tmp_path, options):
    # Each of these used to reach a socket or a wait in a fleet thread; a
    # non-positive heartbeat interval still just disables the monitor.
    with pytest.raises(FleetError, match="positive, finite number of seconds"):
        FleetCoordinator(
            dict(REQUEST), shards=2, checkpoint_dir=tmp_path, attach=[("h", 1)], **options
        )


def test_coordinator_dispatches_every_lease(tmp_path):
    seen = []
    lock = threading.Lock()

    def behavior(host, payload, timeout):
        with lock:
            seen.append((host, payload, timeout))
        return ok_record(payload)

    coordinator = FleetCoordinator(
        dict(REQUEST),
        shards=4,
        checkpoint_dir=tmp_path,
        attach=[("a", 1), ("b", 2)],
        lease_timeout=123.0,
        heartbeat_interval=0,
        client_factory=make_factory(behavior),
    )
    result = coordinator.run()
    assert result.steals == 0 and result.evictions == 0
    assert all(lease.state == "done" for lease in result.leases)
    assert result.processed == 2 * 4
    payloads = sorted((p for _, p, _ in seen), key=lambda p: p["id"])
    assert [p["shard"] for p in payloads] == [[i, 4] for i in range(4)]
    assert [p["checkpoint"] for p in payloads] == [
        f"lease-{i:04d}.g0.jsonl" for i in range(4)
    ]
    assert [p["id"] for p in payloads] == [f"lease-{i:04d}-g0" for i in range(4)]
    assert all(p["resume"] is True for p in payloads)
    assert all(p["kernel"] == REQUEST["kernel"] for p in payloads)
    assert all(t == 123.0 for _, _, t in seen)


def test_steal_reissues_next_generation_with_clone(tmp_path):
    # Pre-write lease 0's g0 checkpoint so the steal has something to clone.
    g0 = tmp_path / "lease-0000.g0.jsonl"
    g0.write_text(HEADER + "\n" + RECORD + "\n")
    calls = []
    lock = threading.Lock()

    def behavior(host, payload, timeout):
        with lock:
            calls.append(payload)
            if len(calls) == 1:
                raise ExplorationError("injected lease failure")
        return ok_record(payload)

    coordinator = FleetCoordinator(
        dict(REQUEST),
        shards=2,
        checkpoint_dir=tmp_path,
        attach=[("a", 1)],
        heartbeat_interval=0,
        max_consecutive_failures=5,
        client_factory=make_factory(behavior),
    )
    result = coordinator.run()
    assert result.steals == 1 and result.evictions == 0
    lease = result.leases[0]
    assert lease.state == "done"
    assert lease.generation == 1
    assert [path.name for path in lease.files] == [
        "lease-0000.g0.jsonl",
        "lease-0000.g1.jsonl",
    ]
    # The clone carried g0's durable records into the new generation.
    assert (tmp_path / "lease-0000.g1.jsonl").read_text() == g0.read_text()
    retry = [p for p in calls if p["id"] == "lease-0000-g1"]
    assert retry and retry[0]["checkpoint"] == "lease-0000.g1.jsonl"
    assert retry[0]["resume"] is True


def test_replica_evicted_after_consecutive_failures(tmp_path):
    # The good replica parks until the bad one has failed twice: otherwise
    # the good worker can drain every lease before the bad worker pulls its
    # second, leaving consecutive_failures at 1 and nothing evicted.
    bad_failures = []
    bad_done = threading.Event()

    def behavior(host, payload, timeout):
        if host == "bad":
            bad_failures.append(payload["id"])
            if len(bad_failures) >= 2:
                bad_done.set()
            raise ExplorationError("injected: replica down")
        assert bad_done.wait(10.0), "bad replica never reached two failures"
        return ok_record(payload)

    coordinator = FleetCoordinator(
        dict(REQUEST),
        shards=3,
        checkpoint_dir=tmp_path,
        attach=[("bad", 1), ("good", 2)],
        heartbeat_interval=0,
        max_consecutive_failures=2,
        client_factory=make_factory(behavior),
    )
    result = coordinator.run()
    assert all(lease.state == "done" for lease in result.leases)
    assert result.evictions == 1
    bad = [r for r in result.replicas if r.name == "attached-0"][0]
    assert bad.evicted and "consecutive" in bad.evicted_reason
    assert bad.consecutive_failures == 2
    assert result.steals >= 2
    good = [r for r in result.replicas if r.name == "attached-1"][0]
    assert good.leases_completed == 3


def test_all_replicas_evicted_raises_fleet_error(tmp_path):
    def behavior(host, payload, timeout):
        raise ExplorationError("injected: everything is down")

    coordinator = FleetCoordinator(
        dict(REQUEST),
        shards=2,
        checkpoint_dir=tmp_path,
        attach=[("a", 1), ("b", 2)],
        heartbeat_interval=0,
        max_consecutive_failures=1,
        client_factory=make_factory(behavior),
    )
    with pytest.raises(FleetError, match="evicted"):
        coordinator.run()


def test_monitor_evicts_dead_replica_and_aborts_its_lease(tmp_path):
    """Heartbeat eviction must abort the in-flight lease, not wait it out."""
    release = threading.Event()

    class BlockingLeaseClient:
        def __init__(self):
            self.aborted = False

        def request(self, payload):
            if payload.get("cmd") == "stats":
                raise ExplorationError("injected: heartbeat refused")
            if not release.wait(30):
                raise AssertionError("lease was never aborted")
            raise ExplorationError("injected: connection aborted")

        def close(self):
            pass

        def abort(self):
            self.aborted = True
            release.set()

    blocking = BlockingLeaseClient()

    def factory(host, port, timeout):
        if host == "dead":
            return blocking
        return FakeReplicaClient(
            lambda h, p, t: ok_record(p)
            if p.get("cmd") != "stats"
            else {"engines": 1},
            host,
            port,
            timeout,
        )

    coordinator = FleetCoordinator(
        dict(REQUEST),
        shards=2,
        checkpoint_dir=tmp_path,
        attach=[("dead", 1), ("live", 2)],
        heartbeat_interval=0.05,
        heartbeat_timeout=1.0,
        max_consecutive_failures=2,
        client_factory=factory,
    )
    result = coordinator.run()
    assert blocking.aborted, "eviction never aborted the in-flight lease"
    assert result.evictions >= 1
    assert result.steals >= 1
    assert all(lease.state == "done" for lease in result.leases)
    dead = [r for r in result.replicas if r.name == "attached-0"][0]
    assert dead.evicted and "heartbeat" in dead.evicted_reason


# -- bit-identity under every failure timing -------------------------------------------


class LocalServerClient:
    """Drive an in-process :class:`SweepServer` through the client interface.

    Converts every failure (including injected ones) into the
    :class:`ExplorationError` a networked client would surface, so the
    coordinator exercises its real revoke/steal path without sockets.
    """

    def __init__(self, server):
        self._server = server

    def request(self, payload):
        data = dict(payload)
        data.pop("id", None)
        if data.get("cmd") == "stats":
            return self._server.stats()
        request = SweepRequest.from_dict(data)
        try:
            result, reused = self._server.submit(request).result()
        except ExplorationError:
            raise
        except Exception as error:
            raise ExplorationError(f"replica died: {error}") from error
        return result_record(request, result, reused)

    def close(self):
        pass

    def abort(self):
        pass


def fleet_reference(tmp_path):
    ref_dir = tmp_path / "reference"
    ref_dir.mkdir()
    with SweepServer(checkpoint_root=ref_dir) as server:
        request = SweepRequest.from_dict({**REQUEST, "checkpoint": "ref.jsonl"})
        server.submit(request).result()
    return render_ranking(load_ranking(ref_dir / "ref.jsonl"))


@pytest.mark.slow
def test_merge_bit_identical_under_every_failure_timing(tmp_path):
    """Kill replica A at *every* record the fault plan can draw; always merge
    bit-identical to the unsharded single-node run.

    ``sink.write``/``error`` (not ``kill``) — the replicas are in-process, an
    ``os._exit`` would take the test runner down with them.  The injector
    counts events per replica across leases, so the sweep over ``at`` covers
    failures early in a lease, late in a lease, and on replica A's later
    leases — plus one timing past the end where the fault never fires.
    """
    reference = fleet_reference(tmp_path)
    # The pruned generator yields structurally distinct candidates only.
    total = sum(1 for _ in SweepRequest.from_dict(dict(REQUEST)).build()[2])
    shards = 3
    for at in range(1, total + 2):
        workdir = tmp_path / f"at-{at}"
        workdir.mkdir()
        plan = FaultPlan(specs=[FaultSpec("sink.write", "error", at=at)])
        with SweepServer(
            checkpoint_root=workdir, fault_injector=FaultInjector(plan)
        ) as flaky, SweepServer(checkpoint_root=workdir) as healthy:
            clients = {"flaky": LocalServerClient(flaky), "healthy": LocalServerClient(healthy)}
            coordinator = FleetCoordinator(
                dict(REQUEST),
                shards=shards,
                checkpoint_dir=workdir,
                attach=[("flaky", 1), ("healthy", 2)],
                heartbeat_interval=0,
                max_consecutive_failures=10,
                client_factory=lambda host, port, timeout: clients[host],
            )
            result = coordinator.run()
        assert all(lease.state == "done" for lease in result.leases)
        merged = render_ranking(result.ranking)
        assert merged == reference, (
            f"fault at sink.write #{at}: merged ranking diverged "
            f"({result.steals} steal(s))"
        )


def test_fleet_ranking_merges_all_generations(tmp_path):
    """A clean two-replica fleet over real servers merges bit-identically."""
    reference = fleet_reference(tmp_path)
    workdir = tmp_path / "fleet"
    workdir.mkdir()
    with SweepServer(checkpoint_root=workdir) as a, SweepServer(
        checkpoint_root=workdir
    ) as b:
        clients = {"a": LocalServerClient(a), "b": LocalServerClient(b)}
        coordinator = FleetCoordinator(
            dict(REQUEST),
            shards=3,
            checkpoint_dir=workdir,
            attach=[("a", 1), ("b", 2)],
            heartbeat_interval=0,
            client_factory=lambda host, port, timeout: clients[host],
        )
        result = coordinator.run()
    assert result.steals == 0
    assert render_ranking(result.ranking) == reference
    assert result.processed == sum(
        lease.record["candidates"] for lease in result.leases
    )


# -- start-up and teardown with fake spawned replicas ----------------------------------


class FakeProcess:
    """The part of ``subprocess.Popen`` the coordinator uses on a replica."""

    def __init__(self):
        self.returncode = None
        self.calls = []

    def poll(self):
        return self.returncode

    def terminate(self):
        self.calls.append("terminate")
        self.returncode = -15

    def wait(self, timeout=None):
        self.calls.append("wait")
        return self.returncode


class FakeLaunches:
    """``launch_replica`` stand-in: in-process replicas behind fake processes.

    The coordinator launches each spawned replica on its own
    ``fleet-replica-N`` thread, so a launch reads its replica's name from the
    thread name (or, called from any other thread, numbers replicas in call
    order) and uses it as the host.  ``before_announce[name]`` runs
    before that launch returns, to hold it back or make it fail;
    ``lease_errors[name]`` is raised by that replica's lease requests.
    ``log`` records announces and answered leases in order, and
    :meth:`event` waits on them, so no test depends on timing.
    """

    def __init__(self, workdir):
        self.workdir = workdir
        self.before_announce = {}
        self.lease_errors = {}
        self.servers = {}
        self.processes = {}
        self.log = []
        self._events = {}
        self._lock = threading.Lock()

    def event(self, kind, name):
        """Set once ``(kind, name)`` is logged: ``"announce"`` or ``"lease"``."""
        with self._lock:
            return self._events.setdefault((kind, name), threading.Event())

    def record(self, kind, name):
        self.log.append((kind, name))
        self.event(kind, name).set()

    def __call__(self, *, checkpoint_root=None, args=()):
        name = threading.current_thread().name.removeprefix("fleet-")
        if not name.startswith("replica-"):
            name = f"replica-{len(self.processes)}"
        hook = self.before_announce.get(name)
        if hook is not None:
            hook()
        self.servers[name] = SweepServer(checkpoint_root=checkpoint_root)
        self.processes[name] = FakeProcess()
        self.record("announce", name)
        return self.processes[name], name, 0

    def attach(self, name):
        """Start an attached replica whose host is ``name``."""
        self.servers[name] = SweepServer(checkpoint_root=self.workdir)
        return name, 0

    def client(self, host, port, timeout):
        return LoggedClient(self, host)

    def fleet(self, *, replicas, attach=(), shards=4, **options):
        return FleetCoordinator(
            dict(REQUEST),
            shards=shards,
            checkpoint_dir=self.workdir,
            replicas=replicas,
            attach=[self.attach(name) for name in attach],
            heartbeat_interval=0,
            client_factory=self.client,
            **options,
        )


class LoggedClient(LocalServerClient):
    """A fake replica's client: raises its scripted lease error, or logs the
    answered lease."""

    def __init__(self, launches, name):
        super().__init__(launches.servers[name])
        self._launches = launches
        self._name = name

    def request(self, payload):
        if payload.get("cmd") == "stats":
            return super().request(payload)
        error = self._launches.lease_errors.get(self._name)
        if error is not None:
            raise error
        record = super().request(payload)
        self._launches.record("lease", self._name)
        return record


@pytest.fixture
def launches(tmp_path, monkeypatch):
    workdir = tmp_path / "fleet"
    workdir.mkdir()
    fake = FakeLaunches(workdir)
    monkeypatch.setattr("repro.sweep.fleet.launch_replica", fake)
    yield fake
    for server in fake.servers.values():
        server.shutdown()


def fleet_threads():
    return [thread.name for thread in threading.enumerate() if thread.name.startswith("fleet-")]


#: How long a held launch waits for its cue before it gives up; only a
#: coordinator that never gives the cue (one that starts no worker before
#: every replica is up) ever waits this long.
CUE_SECONDS = 10


def test_first_replica_sweeps_while_the_next_launches(launches, tmp_path):
    first_lease = launches.event("lease", "replica-0")
    launches.before_announce["replica-1"] = lambda: first_lease.wait(CUE_SECONDS)
    result = launches.fleet(replicas=2).run()
    log = launches.log
    assert log.index(("lease", "replica-0")) < log.index(("announce", "replica-1"))
    assert all(lease.state == "done" for lease in result.leases)
    assert render_ranking(result.ranking) == fleet_reference(tmp_path)


def test_attached_replicas_sweep_while_spawned_ones_launch(launches, tmp_path):
    first_lease = launches.event("lease", "attached-0")
    launches.before_announce["replica-0"] = lambda: first_lease.wait(CUE_SECONDS)
    result = launches.fleet(replicas=1, attach=["attached-0"]).run()
    log = launches.log
    assert log.index(("lease", "attached-0")) < log.index(("announce", "replica-0"))
    assert render_ranking(result.ranking) == fleet_reference(tmp_path)


def test_result_lists_replicas_in_slot_order(launches):
    # Announces run backwards: replica-2, then replica-1, then replica-0.
    launches.before_announce["replica-0"] = lambda: launches.event(
        "announce", "replica-1"
    ).wait(CUE_SECONDS)
    launches.before_announce["replica-1"] = lambda: launches.event(
        "announce", "replica-2"
    ).wait(CUE_SECONDS)
    result = launches.fleet(replicas=3, attach=["attached-0"]).run()
    announced = [name for kind, name in launches.log if kind == "announce"]
    assert announced == ["replica-2", "replica-1", "replica-0"]
    names = ["replica-0", "replica-1", "replica-2", "attached-0"]
    assert [replica.name for replica in result.replicas] == names
    # Each slot holds its own launch (the fake's host is the replica's name).
    assert [replica.host for replica in result.replicas] == names


def test_launch_in_flight_counts_as_live(launches, tmp_path, monkeypatch):
    launches.lease_errors["replica-0"] = ExplorationError("injected: replica down")
    coordinator = launches.fleet(replicas=2, max_consecutive_failures=1)
    evicted = threading.Event()
    evict = coordinator._evict_locked

    def evict_and_signal(replica, reason):
        evict(replica, reason)
        evicted.set()

    monkeypatch.setattr(coordinator, "_evict_locked", evict_and_signal)
    cued = []
    launches.before_announce["replica-1"] = lambda: cued.append(evicted.wait(CUE_SECONDS))
    # replica-0 is evicted while replica-1 is still launching: not "all
    # replicas evicted", since replica-1 is on its way.
    result = coordinator.run()
    assert cued == [True]
    assert result.evictions == 1 and result.steals >= 1
    assert [replica.evicted for replica in result.replicas] == [True, False]
    assert all(lease.replica == "replica-1" for lease in result.leases)
    assert render_ranking(result.ranking) == fleet_reference(tmp_path)


def test_many_replicas_launch_at_once_without_losing_one(launches, tmp_path):
    # More replicas than cores and a tiny switch interval, so slot
    # registration, lease hand-off and teardown interleave as much as they
    # can; a lost update would leave a slot empty, a lease undone, a
    # replica unstopped or the run waiting forever.
    names = [f"replica-{n}" for n in range(8)] + ["attached-0", "attached-1"]
    coordinator = launches.fleet(replicas=8, attach=names[8:], shards=16)
    outcome = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        watchdog = threading.Thread(
            target=lambda: outcome.append(coordinator.run()), daemon=True
        )
        watchdog.start()
        watchdog.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not watchdog.is_alive(), "run() hung"
    (result,) = outcome
    assert [replica.name for replica in result.replicas] == names
    assert [replica.host for replica in result.replicas] == names
    assert sum(replica.leases_completed for replica in result.replicas) == 16
    assert sorted(launches.processes) == sorted(names[:8])
    assert all(p.calls == ["terminate", "wait"] for p in launches.processes.values())
    assert fleet_threads() == []
    assert render_ranking(result.ranking) == fleet_reference(tmp_path)


def test_failed_launch_fails_the_run_and_stops_every_replica(launches):
    first_lease = launches.event("lease", "replica-0")

    def fail_after_first_lease():
        first_lease.wait(CUE_SECONDS)
        raise FleetError("injected: replica-1 never announced")

    launches.before_announce["replica-1"] = fail_after_first_lease
    with pytest.raises(FleetError, match="injected: replica-1"):
        launches.fleet(replicas=2).run()
    assert list(launches.processes) == ["replica-0"]
    assert launches.processes["replica-0"].calls == ["terminate", "wait"]
    assert fleet_threads() == []
    # What replica-0 swept stays on disk for a resuming fleet.
    assert any(path.stat().st_size for path in launches.workdir.glob("lease-*.jsonl"))


def test_crashed_worker_fails_the_run_instead_of_hanging(launches):
    # A client error that is not an ExplorationError (a socket refusing a
    # timeout raises ValueError) used to kill the worker thread and leave
    # run() waiting for its lease forever.
    crash = ValueError("injected: Timeout value out of range")
    launches.lease_errors["replica-0"] = crash
    coordinator = launches.fleet(replicas=1)
    outcome = []

    def drive():
        try:
            coordinator.run()
        except BaseException as error:  # noqa: BLE001 - inspected below
            outcome.append(error)

    watchdog = threading.Thread(target=drive, daemon=True)
    watchdog.start()
    watchdog.join(60)
    assert not watchdog.is_alive(), "run() hung on a crashed worker"
    # Re-raised as it was, not swallowed or converted.
    assert outcome == [crash]
    assert launches.processes["replica-0"].calls == ["terminate", "wait"]
    assert fleet_threads() == []


# -- real subprocess replica -----------------------------------------------------------


def test_replica_that_dies_before_announcing_reports_why():
    # The replica's own argparse error and exit code, not just "never announced".
    with pytest.raises(
        FleetError,
        match=r"\(exited with code 2\): tenet: error: unrecognized arguments: --bogus$",
    ):
        launch_replica(args=["--bogus"])


@pytest.mark.parametrize("inherited, expected", [(None, "1"), ("3", "3")])
def test_replica_runs_without_a_blas_thread_pool(monkeypatch, inherited, expected):
    # One BLAS thread unless the caller's environment chose a count.
    if inherited is None:
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    else:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", inherited)
    environments = []
    popen = subprocess.Popen

    def spawn(command, **kwargs):
        environments.append(kwargs["env"])
        return popen(command, **kwargs)

    monkeypatch.setattr(subprocess, "Popen", spawn)
    with pytest.raises(FleetError, match="exited with code 2"):
        launch_replica(args=["--bogus"])
    (environment,) = environments
    assert environment["OPENBLAS_NUM_THREADS"] == expected


@pytest.mark.slow
def test_launch_replica_round_trip(tmp_path):
    process, host, port = launch_replica(checkpoint_root=tmp_path)
    try:
        with SweepClient(host, port, timeout=60.0) as client:
            stats = client.request({"cmd": "stats"})
        assert "engines" in stats
    finally:
        stop_replica(process)
    assert process.returncode == 0
