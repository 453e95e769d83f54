"""Fleet orchestration benchmark: candidates/sec scaling 1 -> 3 replicas.

CI runners have one or two CPUs, fewer than three replicas plus their
coordinator need, so genuine compute parallelism across replica processes is
not reliably measurable there.  What the fleet *does* buy on any
machine is dispatch overlap: N leases in flight at once instead of one after
another.  The gated measurement therefore arms every replica with a seeded
``server.request``/``delay`` fault (0.5 s per lease — an I/O-bound or
remote-accelerator stand-in whose sleeps overlap across processes even on
one core), pre-warms each replica's engine with an untimed warmup sweep
(consuming delay event #1, so the timed window holds leases only), and gates

    ``fleet_speedup`` = (candidates/sec, 3 replicas) / (candidates/sec, 1)

With 6 leases of ~0.5 s each: a single replica serialises all six (>= 3 s),
three replicas overlap them two-deep (>= 1 s) — the ratio approaches 3 and
must exceed 1.8 (``check_bench_regression.py`` gates it at 1.4 with noise
headroom).  The *undelayed* runs are also recorded (``real_*`` fields) as
informational context: on a one- or two-CPU runner they mostly measure fleet
dispatch overhead; with a core per replica they show real scaling.
"""

import time

from repro.sweep import FaultPlan, FaultSpec, FleetCoordinator, SweepClient
from repro.sweep.fleet import launch_replica, stop_replica

REQUEST = {"kernel": "gemm", "sizes": [48, 48, 48], "max_candidates": 48, "top": 64}
SHARDS = 6
DELAY_SECONDS = 0.5


def run_fleet(workdir, replica_count, delay):
    """One timed fleet run: spawn, warm up untimed, sweep all leases, tear down.

    Returns ``(processed_candidates, seconds)`` for the lease window only —
    replica spawn and engine warmup never pollute the scaling measurement.
    """
    plan = None
    if delay:
        # Delay events 2..SHARDS+1 on every replica: event 1 is the warmup
        # sweep, and no replica can serve more than SHARDS leases, so every
        # timed lease is delayed and no warmup is.
        plan = FaultPlan(
            specs=[
                FaultSpec("server.request", "delay", at=at, arg=delay)
                for at in range(2, SHARDS + 2)
            ]
        )
    replicas = []
    try:
        for _ in range(replica_count):
            process, host, port = launch_replica(
                checkpoint_root=str(workdir), fault_plan=plan
            )
            replicas.append((process, host, port))
        for _, host, port in replicas:
            with SweepClient(host, port, timeout=300.0) as client:
                record = client.request(dict(REQUEST))
                assert "error" not in record, record
        coordinator = FleetCoordinator(
            dict(REQUEST),
            shards=SHARDS,
            checkpoint_dir=workdir,
            attach=[(host, port) for _, host, port in replicas],
            lease_timeout=600.0,
            heartbeat_interval=0,
        )
        started = time.perf_counter()
        result = coordinator.run()
        seconds = time.perf_counter() - started
    finally:
        for process, _, _ in replicas:
            stop_replica(process)
    assert result.steals == 0 and result.evictions == 0, "benchmark fleet faulted"
    assert all(lease.state == "done" for lease in result.leases)
    assert result.ranking, "fleet produced an empty merged ranking"
    return result.processed, seconds


def test_bench_fleet_scaling(tmp_path, bench_record):
    runs = {}
    for label, count, delay in [
        ("single", 1, DELAY_SECONDS),
        ("fleet", 3, DELAY_SECONDS),
        ("real_single", 1, 0.0),
        ("real_fleet", 3, 0.0),
    ]:
        workdir = tmp_path / label
        workdir.mkdir()
        processed, seconds = run_fleet(workdir, count, delay)
        runs[label] = (processed, seconds)
        print(f"{label}: {processed} candidates in {seconds:.2f}s "
              f"({processed / seconds:.2f}/s)")

    assert runs["single"][0] == runs["fleet"][0], "replica counts swept different spaces"
    cps = {label: processed / seconds for label, (processed, seconds) in runs.items()}
    fleet_speedup = cps["fleet"] / cps["single"]
    real_speedup = cps["real_fleet"] / cps["real_single"]
    print(f"fleet_speedup (delay-injected): {fleet_speedup:.2f}, "
          f"real (undelayed): {real_speedup:.2f}")

    bench_record(
        "fleet_gemm48",
        candidates=runs["fleet"][0],
        shards=SHARDS,
        replicas=3,
        injected_delay_s=DELAY_SECONDS,
        single_candidates_per_sec=round(cps["single"], 2),
        fleet_candidates_per_sec=round(cps["fleet"], 2),
        fleet_speedup=round(fleet_speedup, 3),
        real_single_candidates_per_sec=round(cps["real_single"], 2),
        real_fleet_candidates_per_sec=round(cps["real_fleet"], 2),
        real_fleet_speedup=round(real_speedup, 3),
    )
    # 6 half-second leases: serial >= 3 s, 3-way overlapped >= 1 s.  Anything
    # under 1.8x means leases stopped overlapping — a coordinator regression.
    assert fleet_speedup > 1.8, (
        f"fleet dispatch overlap collapsed: 3-replica speedup {fleet_speedup:.2f}"
    )
