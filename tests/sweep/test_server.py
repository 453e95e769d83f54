"""Tests for the warm-engine sweep server and the ``tenet serve`` protocol."""

import json
import time

import pytest

from repro.errors import ExplorationError
from repro.sweep import SweepRequest, SweepServer, serve_lines


def request_line(**overrides):
    data = {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 4}
    data.update(overrides)
    return json.dumps(data)


class TestSweepRequest:
    def test_from_dict_roundtrip(self):
        request = SweepRequest.from_dict(
            {"kernel": "gemm", "sizes": [12, 12, 12], "objective": "energy"}
        )
        assert request.sizes == (12, 12, 12)
        assert request.objective == "energy"

    def test_unknown_fields_rejected(self):
        with pytest.raises(ExplorationError, match="unknown sweep request fields"):
            SweepRequest.from_dict({"kernel": "gemm", "sizes": [8, 8, 8], "bogus": 1})

    def test_missing_kernel_rejected(self):
        with pytest.raises(ExplorationError, match="kernel"):
            SweepRequest.from_dict({"sizes": [8, 8, 8]})

    def test_shard_validated(self):
        with pytest.raises(ExplorationError):
            SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [8, 8, 8], "shard": [2, 2]}
            )

    MISTYPED = [
        ("max_candidates", "5"),
        ("max_candidates", -1),
        ("max_candidates", True),
        ("top", "x"),
        ("top", -1),
        ("pe", [8]),
        ("pe", [0, 8]),
        ("pe", [8, 8.5]),
        ("bandwidth", "fast"),
        ("bandwidth", 0),
        ("bandwidth", True),
        ("interconnect", 5),
        ("kernel", 5),
        ("objective", "beauty"),
        ("early_termination", "no"),
        ("allow_packing", "false"),
        ("resume", 1),
        ("sizes", [8.7, 8, 8]),
        ("sizes", [True, 8, 8]),
        ("sizes", []),
        ("shard", [0.5, 2]),
    ]

    @pytest.mark.parametrize(
        "field, value", MISTYPED, ids=[f"{f}={v!r}" for f, v in MISTYPED]
    )
    def test_mistyped_field_rejected_by_name(self, field, value):
        # Each of these used to be coerced (truncated sizes, "no" read as
        # true) or to fail as an untyped Python error mid-sweep.
        data = {"kernel": "gemm", "sizes": [8, 8, 8], field: value}
        with pytest.raises(ExplorationError, match=f"field '{field}'"):
            SweepRequest.from_dict(data)

    def test_well_typed_fields_accepted(self):
        # Float and integer bandwidths, a null candidate cap and a zero
        # ``top`` are all valid; the fleet adds shard, checkpoint and resume.
        request = SweepRequest.from_dict({
            "kernel": "conv2d", "sizes": [8, 8, 6, 6, 3, 3], "objective": "edp",
            "pe": [4, 8], "interconnect": "mesh", "bandwidth": 64.0,
            "max_candidates": None, "allow_packing": False,
            "early_termination": True, "top": 0, "shard": [1, 2],
            "checkpoint": "lease-0001.g0.jsonl", "resume": True,
        })
        assert request.sizes == (8, 8, 6, 6, 3, 3) and request.pe == (4, 8)
        assert request.shard == (1, 2)
        assert SweepRequest.from_dict(
            {"kernel": "gemm", "sizes": [8, 8, 8], "bandwidth": 128}
        ).bandwidth == 128

    def test_mistyped_request_is_rejected_before_it_runs(self):
        # The reply names the field and counts as rejected, not failed: no
        # engine is reserved and no sweep runs.
        out = []
        serve_lines(
            [request_line(top="x"), '{"cmd": "stats"}'], emit=out.append
        )
        reply, stats = (json.loads(line) for line in out)
        assert reply["error"].startswith("ExplorationError: sweep request field 'top'")
        assert stats["requests"]["rejected"] == 1
        assert stats["requests"]["failed"] == 0
        assert stats["requests"]["submitted"] == 0


class TestSweepServer:
    def test_same_op_reuses_warm_engine(self):
        with SweepServer() as server:
            first = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 4}
            )
            second = SweepRequest.from_dict(
                {
                    "kernel": "gemm",
                    "sizes": [12, 12, 12],
                    "max_candidates": 4,
                    "objective": "energy",
                }
            )
            result_a, reused_a = server.submit(first).result()
            result_b, reused_b = server.submit(second).result()
            assert not reused_a and reused_b
            assert server.num_engines == 1
            assert result_a.evaluated and result_b.evaluated
            # The second sweep re-ranks memoised reports: no new evaluations.
            stats = server.stats()
            assert stats["requests_served"] == 2

    def test_memo_serves_repeated_requests(self):
        with SweepServer() as server:
            request = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 6}
            )
            server.submit(request).result()
            engine = next(iter(server._engines.values())).engine
            evaluated_before = engine.stats["evaluated"]
            server.submit(request).result()
            assert engine.stats["evaluated"] == evaluated_before
            assert engine.stats["memo_hits"] >= evaluated_before

    def test_different_ops_get_their_own_engines(self):
        with SweepServer() as server:
            a = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 3}
            )
            b = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [8, 8, 16], "max_candidates": 3}
            )
            futures = [server.submit(a), server.submit(b)]
            for future in futures:
                result, _ = future.result()
                assert result.evaluated
            assert server.num_engines == 2

    def test_engine_registry_is_lru_bounded(self):
        with SweepServer(max_engines=2) as server:
            sizes = ([8, 8, 8], [8, 8, 12], [8, 8, 16])
            for s in sizes:
                request = SweepRequest.from_dict(
                    {"kernel": "gemm", "sizes": s, "max_candidates": 2}
                )
                server.submit(request).result()
            assert server.num_engines == 2
            # The most recent op is still warm.
            request = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [8, 8, 16], "max_candidates": 2}
            )
            _, reused = server.submit(request).result()
            assert reused

    @pytest.mark.parametrize("backend", ["interp", "fused", "auto"])
    def test_evicted_engine_is_freed_without_the_cyclic_gc(self, backend):
        # Eviction bounds a long-lived server's memory only if the closed
        # engine is really released, not parked until the cyclic GC runs.
        import gc
        import weakref

        gc.collect()
        gc.disable()
        try:
            with SweepServer(max_engines=1, backend=backend) as server:
                for sizes in ([8, 8, 8], [8, 8, 12]):
                    request = SweepRequest.from_dict(
                        {"kernel": "gemm", "sizes": sizes, "max_candidates": 2}
                    )
                    server.submit(request).result()
                    if sizes == [8, 8, 8]:
                        (warm,) = server._engines.values()
                        first = weakref.ref(warm.engine)
                        del warm
                assert server.num_engines == 1
                assert first() is None
        finally:
            gc.enable()

    def test_stats_track_engine_reuse_rate(self):
        with SweepServer() as server:
            request = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 4}
            )
            for _ in range(2):
                server.submit(request).result()
            stats = server.stats()
            assert stats["requests_submitted"] == 2
            assert stats["requests_reused"] == 1
            assert stats["engine_reused_rate"] == 0.5

    def test_submit_after_shutdown_rejected(self):
        server = SweepServer()
        server.shutdown()
        with pytest.raises(ExplorationError, match="shut down"):
            server.submit(
                SweepRequest.from_dict({"kernel": "gemm", "sizes": [8, 8, 8]})
            )

    def test_sharded_request_matches_direct_shard(self):
        with SweepServer() as server:
            full = SweepRequest.from_dict(
                {"kernel": "gemm", "sizes": [12, 12, 12], "max_candidates": 8}
            )
            result_full, _ = server.submit(full).result()
            halves = []
            for index in range(2):
                request = SweepRequest.from_dict(
                    {
                        "kernel": "gemm",
                        "sizes": [12, 12, 12],
                        "max_candidates": 8,
                        "shard": [index, 2],
                    }
                )
                result, _ = server.submit(request).result()
                halves.append(result)
            merged = sorted(
                (entry for result in halves for entry in result.ranking),
                key=lambda entry: entry.sort_key,
            )
            assert [(e.signature, e.score) for e in merged] == [
                (e.signature, e.score) for e in result_full.ranking
            ]


class TestServeLines:
    def test_serves_json_lines_in_order(self):
        out = []
        served = serve_lines(
            [request_line(), "", "# comment", request_line(objective="energy")],
            emit=out.append,
        )
        assert served == 2
        records = [json.loads(line) for line in out]
        assert [record["objective"] for record in records] == ["latency", "energy"]
        assert records[1]["engine_reused"] is True
        assert all(record["top"] for record in records)

    def test_streams_results_before_input_ends(self):
        # A long-lived producer must see results without closing its end:
        # once the head request finishes, its line is emitted even though
        # more input is still being read.
        out = []

        def producer():
            yield request_line()
            # Wait for the first request's result to drain before yielding
            # the next line, as a slow producer would.
            deadline = time.time() + 30
            while not out and time.time() < deadline:
                time.sleep(0.01)
            assert out, "no result emitted while the input stream was still open"
            yield request_line(objective="energy")

        served = serve_lines(producer(), emit=out.append)
        assert served == 2

    def test_failing_request_still_gets_one_output_line(self):
        # The 1:1 request/response protocol survives a bad request between
        # two good ones: the failure becomes an error record, not a dropped
        # line or a dead server.
        out = []
        served = serve_lines(
            [
                request_line(),
                json.dumps({"kernel": "bogus", "sizes": [4]}),
                "not even json",
                request_line(objective="energy"),
            ],
            emit=out.append,
        )
        assert served == 4
        records = [json.loads(line) for line in out]
        assert "top" in records[0] and "top" in records[3]
        assert "error" in records[1] and "error" in records[2]
        assert records[3]["engine_reused"] is True

    def test_result_record_fields(self):
        out = []
        serve_lines([request_line(top=2)], emit=out.append)
        record = json.loads(out[0])
        assert set(record) >= {
            "kernel",
            "objective",
            "evaluated",
            "seconds",
            "candidates_per_second",
            "top",
        }
        assert len(record["top"]) == 2
        assert {"name", "score", "latency_cycles"} <= set(record["top"][0])
