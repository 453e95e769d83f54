"""Fleet orchestration benchmark: candidates/sec scaling 1 -> 3 replicas.

CI runners have one or two CPUs, fewer than three replicas plus their
coordinator need, so genuine compute parallelism across replica processes is
not reliably measurable there.  What the fleet *does* buy on any
machine is dispatch overlap: N leases in flight at once instead of one after
another.  The gated measurement therefore arms every replica with a seeded
``server.request``/``delay`` fault (0.5 s per lease — an I/O-bound or
remote-accelerator stand-in whose sleeps overlap across processes even on
one core), pre-warms each replica's engine with an untimed warmup sweep
(consuming delay event #1, so the timed windows hold leases only), and gates

    ``fleet_speedup`` = (candidates/sec, 3 replicas) / (candidates/sec, 1)

on medians of interleaved lease windows.  With 6 leases of ~0.5 s each: a
single replica serialises all six (>= 3 s), three replicas overlap them
two-deep (>= 1 s) — the ratio approaches 3 and must exceed 1.8.  The
*undelayed* runs are printed as ungated context: on a one- or two-CPU
machine they mostly measure fleet dispatch overhead; with a core per replica
they show real scaling.
"""

import contextlib
import functools

from benchmarks.conftest import interleaved_medians
from repro.sweep import FaultPlan, FaultSpec, FleetCoordinator, SweepClient
from repro.sweep.fleet import launch_replica, stop_replica

REQUEST = {"kernel": "gemm", "sizes": [48, 48, 48], "max_candidates": 48, "top": 64}
SHARDS = 6
DELAY_SECONDS = 0.5
#: Interleaved lease windows behind each side's median.
ROUNDS = 3


@contextlib.contextmanager
def warm_replicas(workdir, replica_count, delay):
    """Spawn replicas on ``workdir``, warm each up untimed, yield their addresses.

    Replica spawn and engine warmup never pollute the scaling measurement;
    the replicas serve every timed round and stop on exit.
    """
    plan = None
    if delay:
        # Delay events 2..ROUNDS*SHARDS+1 on every replica: event 1 is the
        # warmup sweep, and no replica can serve more than SHARDS leases a
        # round, so every timed lease is delayed and no warmup is.
        plan = FaultPlan(
            specs=[
                FaultSpec("server.request", "delay", at=at, arg=delay)
                for at in range(2, ROUNDS * SHARDS + 2)
            ]
        )
    replicas = []
    try:
        for _ in range(replica_count):
            replicas.append(launch_replica(checkpoint_root=str(workdir), fault_plan=plan))
        for _, host, port in replicas:
            with SweepClient(host, port, timeout=300.0) as client:
                record = client.request(dict(REQUEST))
                assert "error" not in record, record
        yield [(host, port) for _, host, port in replicas]
    finally:
        for process, _, _ in replicas:
            stop_replica(process)


def lease_window(workdir, attach, processed):
    """One timed side: sweep every lease on the attached warm replicas."""
    # Leases always resume, so last round's lease files would skip the work.
    for stale in workdir.glob("lease-*.jsonl"):
        stale.unlink()
    result = FleetCoordinator(
        dict(REQUEST),
        shards=SHARDS,
        checkpoint_dir=workdir,
        attach=attach,
        lease_timeout=600.0,
        heartbeat_interval=0,
    ).run()
    assert result.steals == 0 and result.evictions == 0, "benchmark fleet faulted"
    assert all(lease.state == "done" for lease in result.leases)
    assert result.ranking, "fleet produced an empty merged ranking"
    processed.append(result.processed)


def fleet_speedup(tmp_path, delay):
    """3-vs-1-replica candidates/sec ratio on medians of interleaved rounds."""
    processed = {"single": [], "fleet": []}
    with contextlib.ExitStack() as stack:
        sides = {}
        for label, count in (("single", 1), ("fleet", 3)):
            workdir = tmp_path / f"{label}-delay{delay}"
            workdir.mkdir()
            attach = stack.enter_context(warm_replicas(workdir, count, delay))
            sides[label] = functools.partial(lease_window, workdir, attach, processed[label])
        seconds = interleaved_medians(sides, ROUNDS)
    # Both sides sweep the same candidates every round, so the ratio of
    # candidates/sec is the ratio of the median lease windows.
    assert processed["fleet"] == processed["single"] == [processed["single"][0]] * ROUNDS, (
        f"replica counts swept different spaces: {processed}"
    )
    return seconds["single"] / seconds["fleet"]


def test_bench_fleet_scaling(tmp_path):
    print()
    delayed = fleet_speedup(tmp_path, DELAY_SECONDS)
    real = fleet_speedup(tmp_path, 0.0)
    print(f"fleet_speedup (delay-injected): {delayed:.2f}, real (undelayed): {real:.2f}")
    # 6 half-second leases: serial >= 3 s, 3-way overlapped >= 1 s.  Anything
    # under 1.8x means leases stopped overlapping — a coordinator regression.
    assert delayed > 1.8, (
        f"fleet dispatch overlap collapsed: 3-replica speedup {delayed:.2f} "
        f"(medians of {ROUNDS} interleaved rounds)"
    )
