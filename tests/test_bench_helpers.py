"""Tests for the benchmark lane's shared helpers in ``benchmarks/conftest.py``.

``interleaved_medians`` times every speed gate of the slow lane, so its round
order and its medians are checked here against a fake clock; the collection
hook is what keeps the default CI lane (``-m "not slow"``) fast.  The
conftest is loaded by path, so this file runs on its own under plain
``pytest`` too.
"""

import importlib.util
import pathlib

import pytest

BENCH_DIR = pathlib.Path(__file__).parent.parent / "benchmarks"


def load_bench_conftest():
    spec = importlib.util.spec_from_file_location("bench_conftest", BENCH_DIR / "conftest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench = load_bench_conftest()


class FakeClock:
    """A ``perf_counter`` stand-in that only moves when a side runs."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def side(self, durations, calls=None, name=None):
        """A side that takes ``durations[i]`` seconds on its i-th run."""
        runs = iter(durations)

        def run():
            if calls is not None:
                calls.append(name)
            self.now += next(runs)

        return run


@pytest.fixture
def clock(monkeypatch):
    fake = FakeClock()
    monkeypatch.setattr(bench.time, "perf_counter", fake)
    return fake


class TestInterleavedMedians:
    def test_each_side_runs_once_per_round(self, clock):
        calls = []
        sides = {name: clock.side([1.0] * 4, calls, name) for name in ("a", "b", "c")}
        bench.interleaved_medians(sides, rounds=4)
        assert sorted(calls) == ["a"] * 4 + ["b"] * 4 + ["c"] * 4

    def test_order_reverses_every_other_round(self, clock):
        calls = []
        sides = {name: clock.side([1.0] * 3, calls, name) for name in ("a", "b", "c")}
        bench.interleaved_medians(sides, rounds=3)
        assert calls == ["a", "b", "c", "c", "b", "a", "a", "b", "c"]

    def test_returns_each_sides_median(self, clock):
        sides = {
            "slow": clock.side([3.0, 5.0, 4.0]),
            "fast": clock.side([0.5, 0.25, 1.0]),
        }
        medians = bench.interleaved_medians(sides, rounds=3)
        assert medians == {"slow": 4.0, "fast": 0.5}

    def test_one_slow_round_does_not_move_the_median(self, clock):
        # A burst of load from another process lands on one round only.
        sides = {
            "interp": clock.side([2.0, 2.0, 2.0, 2.0, 2.0]),
            "fused": clock.side([0.25, 0.25, 9.0, 0.25, 0.25]),
        }
        medians = bench.interleaved_medians(sides, rounds=5)
        assert medians["interp"] / medians["fused"] == 8.0

    def test_prints_median_with_spread_and_rounds(self, clock, capsys):
        bench.interleaved_medians({"session": clock.side([1.0, 3.0, 2.0])}, rounds=3)
        out = capsys.readouterr().out
        assert "session: median 2.000 s (min 1.000, max 3.000, 3 rounds)" in out

    def test_single_round_reports_that_round(self, clock):
        sides = {"a": clock.side([1.5]), "b": clock.side([0.75])}
        assert bench.interleaved_medians(sides, rounds=1) == {"a": 1.5, "b": 0.75}

    def test_a_failing_side_fails_the_measurement(self, clock):
        def broken():
            raise RuntimeError("sweep failed")

        with pytest.raises(RuntimeError, match="sweep failed"):
            bench.interleaved_medians({"ok": clock.side([1.0]), "broken": broken}, rounds=1)


class FakeItem:
    def __init__(self, path):
        self.fspath = path
        self.markers = []

    def add_marker(self, marker):
        self.markers.append(marker.name)


class TestSlowMarker:
    def test_benchmark_items_are_marked_slow(self):
        items = [
            FakeItem(BENCH_DIR / "test_bench_fig8_runtime.py"),
            FakeItem(BENCH_DIR / "nested" / "test_bench_nested.py"),
        ]
        bench.pytest_collection_modifyitems(items)
        assert [item.markers for item in items] == [["slow"], ["slow"]]

    def test_items_outside_benchmarks_stay_unmarked(self):
        items = [
            FakeItem(pathlib.Path(__file__)),
            FakeItem(BENCH_DIR.parent / "benchmarks_extra" / "test_other.py"),
        ]
        bench.pytest_collection_modifyitems(items)
        assert [item.markers for item in items] == [[], []]
