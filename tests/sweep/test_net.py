"""Tests for the networked sweep service: TCP transport, fairness, client."""

import asyncio
import io
import json
import socket
import threading
import time

import pytest

from repro.errors import ExplorationError
from repro.sweep import SweepClient, SweepService, iter_lines, parse_listen, serve_lines


def request_line(**overrides):
    data = {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 4}
    data.update(overrides)
    return json.dumps(data)


def wait_until(predicate, timeout=20.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.02)
    raise AssertionError(f"timed out waiting for {message}")


def free_port():
    with socket.socket() as sock:
        sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class ServiceHarness:
    """Run a :class:`SweepService` TCP loop on a background thread."""

    def __init__(self, run_request=None, **service_kwargs):
        self.service = SweepService(**service_kwargs)
        if run_request is not None:
            self.service._run_request = run_request
        self.host = None
        self.port = None
        self.loop = None
        self.served = None
        self.error = None
        self._ready = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._requested_port = 0

    def _announce(self, host, port):
        self.host, self.port = host, port
        self._ready.set()

    def _run(self):
        async def main():
            self.loop = asyncio.get_running_loop()
            try:
                self.served = await self.service.serve_tcp(
                    "127.0.0.1", self._requested_port, announce=self._announce
                )
            finally:
                await self.service.aclose()

        try:
            asyncio.run(main())
        except BaseException as error:  # noqa: BLE001 - surfaced to the test
            self.error = error
        finally:
            self._ready.set()

    def start(self, port=0):
        self._requested_port = port
        self._thread.start()
        assert self._ready.wait(30), "service never announced its address"
        if self.error is not None:
            raise self.error
        return self

    def call(self, fn, *args):
        self.loop.call_soon_threadsafe(fn, *args)

    def stop(self, timeout=30.0):
        if self._thread.is_alive() and self.loop is not None:
            self.loop.call_soon_threadsafe(self.service.request_drain)
        self._thread.join(timeout)
        assert not self._thread.is_alive(), "service thread did not drain"
        if self.error is not None:
            raise self.error

    def client(self, **kwargs):
        return SweepClient(self.host, self.port, **kwargs)


@pytest.fixture
def harness():
    started = []

    def factory(**kwargs):
        instance = ServiceHarness(**kwargs).start()
        started.append(instance)
        return instance

    yield factory
    for instance in started:
        instance.stop()


def gated_run_request(gate, started, block_first=1):
    """A fake ``_run_request``: records dispatch order, gates early calls.

    The ``top`` field of each request doubles as its marker in ``started``.
    The first ``block_first`` dispatches wait on ``gate`` (set it via
    ``harness.call(gate.set)``), so tests can deterministically pile requests
    up behind an in-flight one.
    """

    async def run(request):
        started.append(request.top)
        if len(started) <= block_first:
            await asyncio.wait_for(gate.wait(), timeout=30)
        return {"kernel": request.kernel, "top": request.top}

    return run


class TestParseListen:
    def test_host_port(self):
        assert parse_listen("0.0.0.0:7077") == ("0.0.0.0", 7077)

    def test_defaults_host_to_loopback(self):
        assert parse_listen(":0") == ("127.0.0.1", 0)

    def test_rejects_garbage(self):
        for bad in ("7077", "host:", "host:notaport", "host:70777"):
            with pytest.raises(ExplorationError):
                parse_listen(bad)


class TestSweepClientRoundTrips:
    def test_connect_sweep_close_and_warm_reuse(self, harness):
        service = harness(max_workers=2)
        with service.client() as client:
            first = client.sweep("gemm", [12, 12, 12], max_candidates=4)
            assert first["engine_reused"] is False
            assert first["top"] and first["evaluated"]
            second = client.sweep(
                "gemm", [12, 12, 12], max_candidates=4, objective="energy"
            )
            assert second["engine_reused"] is True
            assert second["objective"] == "energy"
        assert not client.connected

    def test_stats_control_request(self, harness):
        service = harness(max_workers=2)
        with service.client() as client:
            client.sweep("gemm", [12, 12, 12], max_candidates=4)
            client.sweep("gemm", [12, 12, 12], max_candidates=4, objective="edp")
            stats = client.stats()
        assert stats["cmd"] == "stats"
        assert stats["engines"] == 1
        assert stats["requests"]["served"] == 2
        assert stats["engine_reused_rate"] == 0.5
        assert stats["connections"] >= 1
        assert stats["draining"] is False
        assert isinstance(stats["queue_depths"], dict)

    def test_sweep_error_record_raises_with_record(self, harness):
        service = harness(max_workers=2)
        with service.client() as client:
            with pytest.raises(ExplorationError, match="rejected") as excinfo:
                client.sweep("bogus-kernel", [4])
            assert "error" in excinfo.value.record
            # The connection stays usable after a server-side error reply.
            assert client.sweep("gemm", [12, 12, 12], max_candidates=4)["top"]

    def test_reconnect_retry_after_server_restart(self):
        port = free_port()
        first = ServiceHarness(max_workers=2).start(port=port)
        client = SweepClient("127.0.0.1", port, timeout=30.0)
        try:
            assert client.sweep("gemm", [12, 12, 12], max_candidates=4)["top"]
            first.stop()
            second = ServiceHarness(max_workers=2).start(port=port)
            try:
                # The old socket is dead; request() reconnects and retries.
                record = client.sweep("gemm", [12, 12, 12], max_candidates=4)
                assert record["engine_reused"] is False
            finally:
                client.close()
                second.stop()
        finally:
            client.close()

    def test_unreachable_server_raises_exploration_error(self):
        client = SweepClient("127.0.0.1", free_port(), timeout=2.0)
        with pytest.raises(ExplorationError, match="unreachable"):
            client.request({"cmd": "stats"})


class TestPipelining:
    def test_pipelined_request_ids_echoed_in_order(self, harness):
        service = harness(max_workers=2)
        with service.client() as client:
            ids = [
                client.submit(
                    {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 4}
                )
                for _ in range(4)
            ]
            assert client.pending == 4
            records = client.drain()
        assert [record["id"] for record in records] == ids
        assert [record["engine_reused"] for record in records] == [
            False,
            True,
            True,
            True,
        ]

    def test_blocking_request_refused_while_pipelining(self, harness):
        service = harness(max_workers=2)
        with service.client() as client:
            client.submit(
                {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 4}
            )
            with pytest.raises(ExplorationError, match="outstanding"):
                client.stats()
            client.drain()


class TestFairness:
    def test_round_robin_interleaves_a_single_request_past_a_pipeliner(self, harness):
        started = []
        gate = asyncio.Event()
        service = harness(
            run_request=gated_run_request(gate, started),
            max_workers=1,
            queue_depth=64,
        )
        pipeliner = service.client()
        single = service.client()
        monitor = service.client()
        try:
            for index in range(4):
                pipeliner.submit(
                    {
                        "kernel": "gemm",
                        "sizes": [8, 8, 8],
                        "top": 10 + index,
                        "id": f"a{index}",
                    }
                )
            # The head request is in flight (gated); the rest are queued.
            wait_until(
                lambda: monitor.stats()["in_flight"] == 1
                and sum(monitor.stats()["queue_depths"].values()) == 3,
                message="pipeliner head in flight with 3 queued",
            )
            single.submit(
                {"kernel": "gemm", "sizes": [8, 8, 8], "top": 20, "id": "b0"}
            )
            wait_until(
                lambda: sum(monitor.stats()["queue_depths"].values()) == 4,
                message="single request queued",
            )
            service.call(gate.set)
            single_records = single.drain()
            pipeliner_records = pipeliner.drain()
        finally:
            for client in (pipeliner, single, monitor):
                client.close()
        # Round-robin: after the in-flight head and one more pipeliner
        # request, the single client's request runs — it cannot be starved
        # behind the pipeliner's tail.
        assert started == [10, 11, 20, 12, 13]
        assert [record["id"] for record in pipeliner_records] == ["a0", "a1", "a2", "a3"]
        assert single_records[0]["id"] == "b0"

    def test_dispatcher_admits_the_server_worker_count(self, harness):
        # A server passed in sets the in-flight cap: one worker, one sweep
        # at a time, whatever the service's own ``max_workers`` default.
        from repro.sweep import SweepServer

        started = []
        gate = asyncio.Event()

        def admitted(stats):
            return stats["in_flight"] + sum(stats["queue_depths"].values())

        with SweepServer(max_workers=1) as server:
            service = harness(
                run_request=gated_run_request(gate, started, block_first=3),
                server=server,
            )
            client = service.client()
            monitor = service.client()
            try:
                for index in range(3):
                    client.submit(
                        {"kernel": "gemm", "sizes": [8, 8, 8], "top": index, "id": f"w{index}"}
                    )
                wait_until(
                    lambda: admitted(monitor.stats()) == 3, message="three requests accepted"
                )
                assert monitor.stats()["in_flight"] == 1
                assert started == [0]
                service.call(gate.set)
                records = client.drain()
            finally:
                client.close()
                monitor.close()
        assert [record["id"] for record in records] == ["w0", "w1", "w2"]
        assert started == [0, 1, 2]

    def test_queue_depth_limit_returns_structured_overload(self, harness):
        started = []
        gate = asyncio.Event()
        service = harness(
            run_request=gated_run_request(gate, started),
            max_workers=1,
            queue_depth=2,
        )
        client = service.client()
        monitor = service.client()
        try:
            client.submit({"kernel": "gemm", "sizes": [8, 8, 8], "top": 1, "id": "q1"})
            wait_until(
                lambda: monitor.stats()["in_flight"] == 1,
                message="head request in flight",
            )
            for index in range(2, 6):
                client.submit(
                    {"kernel": "gemm", "sizes": [8, 8, 8], "top": index, "id": f"q{index}"}
                )
            wait_until(
                lambda: monitor.stats()["requests"]["rejected"] == 2,
                message="two overload rejections",
            )
            service.call(gate.set)
            records = client.drain()
        finally:
            client.close()
            monitor.close()
        assert [record["id"] for record in records] == [f"q{i}" for i in range(1, 6)]
        assert [record.get("code") for record in records] == [
            None,
            None,
            None,
            "overloaded",
            "overloaded",
        ]
        assert all("error" in record for record in records if record.get("code"))
        # Only the admitted requests ever reached the engine scheduler.
        assert sorted(started) == [1, 2, 3]


class TestProtocolRobustness:
    def test_malformed_json_gets_error_reply_and_connection_survives(self, harness):
        service = harness(max_workers=2)
        with socket.create_connection((service.host, service.port), timeout=30) as sock:
            sock.settimeout(30)
            reader = sock.makefile("rb")
            sock.sendall(b"this is not json\n")
            error_reply = json.loads(reader.readline())
            assert "error" in error_reply and "JSONDecodeError" in error_reply["error"]
            sock.sendall((request_line() + "\n").encode("utf-8"))
            record = json.loads(reader.readline())
            assert record["top"] and record["kernel"] == "gemm"

    def test_unknown_control_command_rejected(self, harness):
        service = harness(max_workers=2)
        with service.client() as client:
            reply = client.request({"cmd": "reboot", "id": 7})
            assert reply["code"] == "bad-request"
            assert reply["id"] == 7

    def test_blank_and_comment_lines_ignored(self, harness):
        service = harness(max_workers=2)
        with socket.create_connection((service.host, service.port), timeout=30) as sock:
            sock.settimeout(30)
            reader = sock.makefile("rb")
            sock.sendall(b"\n# warmup comment\n" + (request_line() + "\n").encode())
            record = json.loads(reader.readline())
            assert record["kernel"] == "gemm"


class TestGracefulDrain:
    def test_drain_answers_accepted_work_and_refuses_new(self, harness):
        started = []
        gate = asyncio.Event()
        service = harness(
            run_request=gated_run_request(gate, started),
            max_workers=1,
        )
        client = service.client()
        monitor = service.client()
        try:
            for index in range(3):
                client.submit(
                    {"kernel": "gemm", "sizes": [8, 8, 8], "top": index, "id": f"d{index}"}
                )
            wait_until(
                lambda: monitor.stats()["in_flight"] == 1,
                message="head request in flight",
            )
            service.call(service.service.request_drain)
            wait_until(
                lambda: monitor.stats()["draining"] is True, message="draining flag"
            )
            # New requests on an existing connection get a structured refusal.
            client.submit(
                {"kernel": "gemm", "sizes": [8, 8, 8], "top": 99, "id": "late"}
            )
            # New connections are refused outright.
            with pytest.raises(OSError):
                socket.create_connection((service.host, service.port), timeout=2)
            service.call(gate.set)
            records = client.drain()
        finally:
            client.close()
            monitor.close()
        assert [record["id"] for record in records] == ["d0", "d1", "d2", "late"]
        assert [record.get("code") for record in records] == [
            None,
            None,
            None,
            "draining",
        ]
        # Everything accepted before the drain was answered, nothing dropped.
        assert sorted(started) == [0, 1, 2]
        service.stop()
        assert service.served >= 4


class TestBackpressureAndTimeouts:
    def test_reader_pauses_when_peer_stops_reading_responses(self):
        # A client that floods requests and never reads replies must not grow
        # the response backlog without bound: past ``write_backlog`` unwritten
        # responses the reader stops consuming lines until writes progress.
        class BlockedWriteChannel:
            def __init__(self, lines):
                self._lines = iter(lines)
                self.read_count = 0
                self.release = asyncio.Event()
                self.written = []

            async def read_line(self):
                try:
                    line = next(self._lines)
                except StopIteration:
                    return None
                self.read_count += 1
                return line

            async def write_line(self, line):
                await self.release.wait()
                self.written.append(line)

            async def close(self):
                return None

        flood = ["not json"] * 200

        async def scenario():
            service = SweepService(max_workers=1, queue_depth=1)
            service.write_backlog = 8
            channel = BlockedWriteChannel(flood)
            try:
                handler = asyncio.create_task(service.handle_channel(channel))
                await asyncio.sleep(0.2)
                paused_at = channel.read_count
                # reader stalled at the backlog limit, not the full flood
                assert paused_at < len(flood)
                assert paused_at <= service.write_backlog + 2
                await asyncio.sleep(0.05)
                assert channel.read_count == paused_at, "reader kept consuming"
                channel.release.set()
                served = await asyncio.wait_for(handler, timeout=30)
                assert served == len(flood)
                assert len(channel.written) == len(flood)
            finally:
                await service.aclose()

        asyncio.run(scenario())

    def test_client_timeout_raises_without_resend(self, harness):
        started = []
        gate = asyncio.Event()
        service = harness(
            run_request=gated_run_request(gate, started), max_workers=1
        )
        client = service.client(timeout=0.5)
        try:
            with pytest.raises(ExplorationError, match="did not answer"):
                client.request({"kernel": "gemm", "sizes": [8, 8, 8], "top": 1})
            # One dispatch only: the timed-out request was not resent.
            assert started == [1]
        finally:
            service.call(gate.set)
            client.close()


class TestDrainBeforeStart:
    def test_sigterm_before_listener_starts_still_exits(self):
        service = ServiceHarness(max_workers=1)
        # Simulate SIGTERM landing before serve_tcp created the listener.
        service.service.request_drain()
        service.start()
        service._thread.join(20)
        assert not service._thread.is_alive(), "pre-start drain was lost"
        assert service.error is None


class TestStdioTcpParity:
    #: Per-run wall-clock fields; everything else must match byte for byte.
    VOLATILE = ("seconds", "candidates_per_second")

    def normalised(self, record):
        return {key: value for key, value in record.items() if key not in self.VOLATILE}

    def test_tcp_records_match_stdio_records(self):
        lines = [
            request_line(),
            request_line(objective="energy"),
            json.dumps({"kernel": "bogus", "sizes": [4]}),
        ]
        stdio_out = []
        served = serve_lines(lines, emit=stdio_out.append)
        assert served == 3
        tcp_harness = ServiceHarness(max_workers=2).start()
        try:
            with tcp_harness.client() as client:
                client.send_lines(lines)
                tcp_records = client.read_records(3)
        finally:
            tcp_harness.stop()
        stdio_records = [json.loads(line) for line in stdio_out]
        assert [list(record) for record in stdio_records] == [
            list(record) for record in tcp_records
        ]
        assert [
            json.dumps(self.normalised(record)) for record in stdio_records
        ] == [json.dumps(self.normalised(record)) for record in tcp_records]
        assert [record.get("engine_reused") for record in tcp_records] == [
            False,
            True,
            None,
        ]


class TestUnterminatedFinalLine:
    def test_iter_lines_yields_final_unterminated_line(self):
        stream = io.StringIO("first\nsecond")
        assert list(iter_lines(stream)) == ["first\n", "second"]

    def test_serve_lines_services_final_unterminated_request(self):
        # A pipe producer that exits without a trailing newline must still get
        # its last request serviced (mirrors the checkpoint torn-line
        # tolerance, except a complete JSON line is served, not dropped).
        stream = io.StringIO(request_line() + "\n" + request_line(objective="energy"))
        out = []
        served = serve_lines(iter_lines(stream), emit=out.append)
        assert served == 2
        records = [json.loads(line) for line in out]
        assert [record["objective"] for record in records] == ["latency", "energy"]
        assert records[1]["engine_reused"] is True

    def test_cli_requests_file_without_trailing_newline(self, capsys, tmp_path):
        from repro.cli import main

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            request_line() + "\n" + request_line(objective="energy"),
            encoding="utf-8",
        )
        assert main(["serve", "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(records) == 2
        assert "served 2" in captured.err
