#!/usr/bin/env python
"""End-to-end smoke of the networked sweep service (the CI `service-smoke` job).

Starts ``tenet serve --listen 127.0.0.1:0`` as a real subprocess, then:

1. opens three concurrent clients — one pipelining ``PIPELINE_DEPTH``
   requests, two sending a single request each — and asserts round-robin
   fairness: both single requests complete before the pipeliner's tail;
2. asserts ``engine_reused`` on repeat kernels and a positive reuse rate in
   the ``{"cmd": "stats"}`` reply;
3. sends SIGTERM with pipelined requests still in flight and asserts a clean
   drain: every accepted request answered, exit code 0.

Run locally with ``python scripts/service_smoke.py`` from the repo root
(``src/`` is put on ``sys.path`` automatically).
"""

from __future__ import annotations

import signal
import sys
import threading
import time

from _smoke_util import start_server

from repro.sweep import SweepClient  # noqa: E402 - sys.path set by _smoke_util

PIPELINE_DEPTH = 8
REQUEST = {"kernel": "gemm", "sizes": [16, 16, 16], "max_candidates": 6}


def main() -> int:
    process, host, port, stderr_lines = start_server(args=["--workers", "1"])
    try:
        done_at: dict[str, float] = {}
        errors: list[BaseException] = []
        pipeline_queued = threading.Event()

        def pipeliner() -> None:
            try:
                with SweepClient(host, port, timeout=300.0) as client:
                    for index in range(PIPELINE_DEPTH):
                        client.submit({**REQUEST, "id": f"pipe-{index}"})
                    pipeline_queued.set()
                    for record in client.drain():
                        assert "error" not in record, record
                        done_at[record["id"]] = time.monotonic()
            except BaseException as error:  # noqa: BLE001 - re-raised below
                pipeline_queued.set()
                errors.append(error)

        def single(name: str) -> None:
            try:
                assert pipeline_queued.wait(60)
                with SweepClient(host, port, timeout=300.0) as client:
                    record = client.sweep(**REQUEST)
                    done_at[name] = time.monotonic()
                    assert record["engine_reused"] is True, (
                        f"{name} expected a warm engine: {record}"
                    )
            except BaseException as error:  # noqa: BLE001 - re-raised below
                errors.append(error)

        threads = [threading.Thread(target=pipeliner)] + [
            threading.Thread(target=single, args=(f"single-{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(600)
            assert not thread.is_alive(), "smoke client thread hung"
        if errors:
            raise errors[0]

        tail = done_at[f"pipe-{PIPELINE_DEPTH - 1}"]
        for name in ("single-0", "single-1"):
            assert done_at[name] < tail, (
                f"fairness violated: {name} finished at {done_at[name]:.3f}, "
                f"after the pipeliner tail at {tail:.3f}: {done_at}"
            )
        print("fairness ok: singles completed before the pipeliner tail")

        with SweepClient(host, port, timeout=60.0) as client:
            stats = client.stats()
        assert stats["engines"] >= 1, stats
        assert stats["engine_reused_rate"] > 0.5, stats
        assert stats["requests"]["served"] == PIPELINE_DEPTH + 2, stats
        print(
            f"stats ok: {stats['engines']} engine(s), "
            f"reuse rate {stats['engine_reused_rate']}"
        )

        # SIGTERM with requests in flight: both must still be answered.  Wait
        # until the server has actually accepted them (one executing, one
        # queued) before signalling, so the assertion exercises the drain
        # path rather than the refuse-new path.
        drain_client = SweepClient(host, port, timeout=300.0)
        drain_client.submit({**REQUEST, "id": "drain-0"})
        drain_client.submit({**REQUEST, "id": "drain-1"})
        with SweepClient(host, port, timeout=60.0) as monitor:
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                snapshot = monitor.stats()
                if snapshot["in_flight"] + sum(snapshot["queue_depths"].values()) >= 2:
                    break
                time.sleep(0.02)
            else:
                raise AssertionError("drain requests never reached the server")
        process.send_signal(signal.SIGTERM)
        drained = drain_client.drain()
        drain_client.close()
        assert [record["id"] for record in drained] == ["drain-0", "drain-1"], drained
        assert all("error" not in record for record in drained), drained
        print("drain ok: in-flight requests answered after SIGTERM")

        returncode = process.wait(120)
        assert returncode == 0, f"server exited {returncode}; stderr: {''.join(stderr_lines)}"
        assert any("served" in line for line in stderr_lines), stderr_lines
        print(f"clean exit ok: {''.join(stderr_lines).strip().splitlines()[-1]}")
        return 0
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(30)


if __name__ == "__main__":
    sys.exit(main())
