#!/usr/bin/env python
"""Seeded fleet smoke: kill a replica mid-lease, steal it, merge bit-identical.

The CI ``fleet-smoke`` job.  Everything is driven by one ``--seed``:

1. reference: one in-process :class:`repro.sweep.SweepServer` sweeps the whole
   request unsharded through a server-side checkpoint — the exact codepath a
   fleet replica runs, minus the network;
2. a 3-replica fleet is started; replica 0 is armed (via ``TENET_FAULTS``)
   with a seeded ``sink.write``/``kill`` fault, so it ``os._exit(42)``'s
   mid-lease after durably recording at least one result;
3. the coordinator must detect the death (heartbeats — the replicas are
   *attached*, so there is no process handle to poll), evict replica 0, and
   steal its lease: the re-issued generation resumes from the cloned
   checkpoint, re-evaluating only what was never recorded (``skipped >= 1``
   in the stolen lease's reply proves the resume);
4. the merged fleet ranking must be **bit-identical** to the reference.

The kill event is drawn from ``[2, min shard size]``, so whichever lease
replica 0 picks up first, the crash always lands mid-lease with at least one
record already durable — every draw exercises steal-and-resume, not the
trivial rerun-from-scratch path.

Run locally with ``python scripts/fleet_smoke.py`` from the repo root
(``src/`` is put on ``sys.path`` automatically).
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from pathlib import Path

from _smoke_util import start_server, stop_server

from repro.core.engine import dataflow_signature  # noqa: E402
from repro.sweep import (  # noqa: E402
    FaultPlan,
    FaultSpec,
    FleetCoordinator,
    SweepRequest,
    SweepServer,
    load_ranking,
    render_ranking,
    signature_shard_index,
)
from repro.sweep.faults import KILL_EXIT_CODE  # noqa: E402

REPLICAS = 3
SHARDS = 6
# conv2d rather than gemm: its pruned space keeps 48 structurally distinct
# candidates (gemm dedupes to ~12), so all six shards stay populated.
REQUEST = {
    "kernel": "conv2d",
    "sizes": [8, 8, 5, 5, 3, 3],
    "max_candidates": 48,
    "top": 64,
}


def shard_sizes() -> list[int]:
    """Candidate count per shard, computed like the replicas will.

    The pruned generator yields structurally distinct candidates and a
    candidate's shard depends only on its signature, so enumerating the space
    in-process predicts exactly how many checkpoint records each lease writes.
    """
    _, _, candidates = SweepRequest.from_dict(dict(REQUEST)).build()
    sizes = [0] * SHARDS
    for dataflow in candidates:
        sizes[signature_shard_index(dataflow_signature(dataflow), SHARDS)] += 1
    return sizes


def reference_ranking(workdir: Path) -> str:
    """Unsharded single-node sweep through the server checkpoint codepath."""
    with SweepServer(checkpoint_root=str(workdir)) as server:
        request = SweepRequest.from_dict({**REQUEST, "checkpoint": "reference.jsonl"})
        server.submit(request).result()
    return render_ranking(load_ranking(workdir / "reference.jsonl"))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, default=1234, help="fault schedule seed")
    args = parser.parse_args()

    sizes = shard_sizes()
    min_shard = min(sizes)
    assert min_shard >= 2, (
        f"shard sizes {sizes}: every shard needs >= 2 candidates so a kill "
        "always lands mid-lease with one record durable; grow max_candidates"
    )
    kill_at = random.Random(args.seed).randint(2, min_shard)
    print(
        f"fault plan (seed={args.seed}): kill replica 0 at checkpoint "
        f"record #{kill_at} (shard sizes {sizes})"
    )
    plan = FaultPlan(specs=[FaultSpec("sink.write", "kill", at=kill_at)], seed=args.seed)

    with tempfile.TemporaryDirectory(prefix="fleet-smoke-") as tmp:
        workdir = Path(tmp)
        reference = reference_ranking(workdir)
        print("reference ok: unsharded single-node ranking recorded")

        replicas = []
        try:
            for number in range(REPLICAS):
                process, host, port, _ = start_server(
                    fault_plan=plan if number == 0 else None,
                    checkpoint_root=str(workdir),
                )
                replicas.append((process, host, port))
            coordinator = FleetCoordinator(
                dict(REQUEST),
                shards=SHARDS,
                checkpoint_dir=workdir,
                attach=[(host, port) for _, host, port in replicas],
                lease_timeout=300.0,
                heartbeat_interval=0.5,
                heartbeat_timeout=10.0,
                max_consecutive_failures=2,
            )
            result = coordinator.run()

            doomed = replicas[0][0]
            assert doomed.wait(60) == KILL_EXIT_CODE, (
                f"replica 0 exited {doomed.returncode}, expected the injected kill"
            )
            print(f"kill ok: replica 0 died with exit code {KILL_EXIT_CODE}")

            assert result.steals >= 1, "the dead replica's lease was never stolen"
            assert result.evictions >= 1, "the dead replica was never evicted"
            stolen = [lease for lease in result.leases if lease.generation > 0]
            assert stolen, [lease.id for lease in result.leases]
            resumed = [
                lease
                for lease in stolen
                if lease.record is not None and lease.record.get("skipped", 0) >= 1
            ]
            assert resumed, (
                "no stolen lease resumed from its checkpoint clone: "
                + str([(lease.id, lease.record) for lease in stolen])
            )
            print(
                f"steal ok: {result.steals} steal(s), {result.evictions} "
                f"eviction(s); lease {resumed[0].id} skipped "
                f"{resumed[0].record['skipped']} recorded candidate(s)"
            )

            merged = render_ranking(result.ranking)
            assert merged == reference, (
                "fleet ranking differs from the single-node reference:\n"
                f"reference:\n{reference}\nfleet:\n{merged}"
            )
            print(
                f"merge ok: {len(result.leases)} lease(s) merged bit-identical "
                "to the single-node run"
            )
        finally:
            for process, _, _ in replicas:
                stop_server(process)
    print("fleet smoke passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
