"""Tests for the benchmark trajectory plumbing.

Two pieces keep the committed ``BENCH_engine.json`` honest across PRs: the
root conftest merges fresh records into the existing trajectory instead of
overwriting it, and ``benchmarks/check_bench_regression.py`` gates CI on the
recorded candidates/sec.  Both are plain modules loaded by path here.
"""

import importlib.util
import json
import pathlib

REPO_ROOT = pathlib.Path(__file__).parent.parent


def load_module(relative: str, name: str):
    spec = importlib.util.spec_from_file_location(name, REPO_ROOT / relative)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestMergeBenchRecords:
    def test_new_records_replace_same_name_and_keep_others(self):
        conftest = load_module("conftest.py", "repro_root_conftest")
        existing = {
            "created": "2026-01-01T00:00:00",
            "records": [
                {"benchmark": "engine_sweep_gemm48x100", "fused_speedup": 1.0},
                {"benchmark": "sweep_pipeline", "candidates_per_sec": 42.0},
            ],
        }
        fresh = [{"benchmark": "engine_sweep_gemm48x100", "fused_speedup": 2.4}]
        merged = conftest.merge_bench_records(existing, fresh)
        by_name = {r["benchmark"]: r for r in merged["records"]}
        assert by_name["engine_sweep_gemm48x100"]["fused_speedup"] == 2.4
        assert by_name["sweep_pipeline"]["candidates_per_sec"] == 42.0
        assert merged["created"] != existing["created"]

    def test_bench_json_is_opt_in(self, tmp_path, monkeypatch):
        # Without --bench-json a session that collected records writes no
        # file, so test runs never rewrite the committed BENCH_engine.json.
        conftest = load_module("conftest.py", "repro_root_conftest2")
        options = {}

        class Parser:
            def addoption(self, name, **kwargs):
                options[name] = kwargs

        conftest.pytest_addoption(Parser())
        assert options["--bench-json"]["default"] is None

        record = {"benchmark": "engine_sweep_gemm48x100", "fused_speedup": 2.4}

        class Config:
            def __init__(self, target):
                self.stash = {conftest.BENCH_RECORDS_KEY: [record]}
                self.target = target

            def getoption(self, name):
                assert name == "--bench-json"
                return self.target

        class Session:
            def __init__(self, target):
                self.config = Config(target)

        monkeypatch.chdir(tmp_path)
        conftest.pytest_sessionfinish(Session(None), 0)
        assert list(tmp_path.iterdir()) == []
        target = tmp_path / "bench.json"
        conftest.pytest_sessionfinish(Session(str(target)), 0)
        assert json.loads(target.read_text())["records"] == [record]


class TestRegressionChecker:
    def write(self, path, cps, speedup=None):
        record = {
            "benchmark": "engine_sweep_gemm48x100",
            "fused_candidates_per_sec": cps,
        }
        if speedup is not None:
            record["fused_speedup_vs_interp"] = speedup
        path.write_text(json.dumps({"records": [record]}))
        return str(path)

    def test_within_tolerance_passes(self, tmp_path):
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker")
        baseline = self.write(tmp_path / "base.json", 100.0, speedup=2.3)
        current = self.write(tmp_path / "cur.json", 85.0, speedup=2.2)
        assert checker.main(["--baseline", baseline, "--current", current]) == 0

    def test_regression_of_both_metrics_fails(self, tmp_path):
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker2")
        baseline = self.write(tmp_path / "base.json", 100.0, speedup=2.3)
        current = self.write(tmp_path / "cur.json", 70.0, speedup=1.5)
        assert checker.main(["--baseline", baseline, "--current", current]) == 1

    def test_slow_machine_with_healthy_ratio_passes(self, tmp_path):
        # A slower CI runner shows low absolute throughput but the
        # fused-vs-interp ratio (same-machine measurement) stays intact.
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker2b")
        baseline = self.write(tmp_path / "base.json", 100.0, speedup=2.3)
        current = self.write(tmp_path / "cur.json", 55.0, speedup=2.35)
        assert checker.main(["--baseline", baseline, "--current", current]) == 0

    def test_fast_machine_cannot_mask_ratio_regression(self, tmp_path):
        # A faster runner keeps absolute throughput above the floor, but the
        # same-run fused-vs-interp ratio still exposes the code regression.
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker2d")
        baseline = self.write(tmp_path / "base.json", 100.0, speedup=2.3)
        current = self.write(tmp_path / "cur.json", 110.0, speedup=1.1)
        assert checker.main(["--baseline", baseline, "--current", current]) == 1

    def test_absolute_regression_without_ratio_fails(self, tmp_path):
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker2c")
        baseline = self.write(tmp_path / "base.json", 100.0)
        current = self.write(tmp_path / "cur.json", 70.0)
        assert checker.main(["--baseline", baseline, "--current", current]) == 1

    def test_missing_baseline_record_is_not_a_failure(self, tmp_path):
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker3")
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"records": []}))
        current = self.write(tmp_path / "cur.json", 50.0)
        assert checker.main(["--baseline", str(baseline), "--current", current]) == 0

    def test_missing_current_record_errors(self, tmp_path):
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker4")
        baseline = self.write(tmp_path / "base.json", 100.0)
        current = tmp_path / "cur.json"
        current.write_text(json.dumps({"records": []}))
        assert checker.main(["--baseline", baseline, "--current", str(current)]) == 2

    def test_renamed_record_does_not_misfire(self, tmp_path):
        # The fresh run measured a *renamed* benchmark: the gated name is
        # absent from the current file but other records exist.  Only
        # benchmarks present in both files are compared, so this is a
        # nothing-to-gate pass, not an exit-2 misfire.
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker5")
        baseline = self.write(tmp_path / "base.json", 100.0, speedup=2.3)
        current = tmp_path / "cur.json"
        current.write_text(json.dumps({"records": [
            {"benchmark": "engine_sweep_gemm64x100",
             "fused_candidates_per_sec": 80.0},
        ]}))
        assert checker.main(["--baseline", baseline, "--current", str(current)]) == 0

    def test_added_record_does_not_affect_the_gate(self, tmp_path):
        # A brand-new record rides along in the fresh file; the gate still
        # compares only the shared benchmark.
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker6")
        baseline = self.write(tmp_path / "base.json", 100.0, speedup=2.3)
        current = tmp_path / "cur.json"
        current.write_text(json.dumps({"records": [
            {"benchmark": "engine_sweep_gemm48x100",
             "fused_candidates_per_sec": 97.0, "fused_speedup_vs_interp": 2.28},
            {"benchmark": "new_sweep_record", "candidates_per_sec": 1.0},
        ]}))
        assert checker.main(["--baseline", baseline, "--current", str(current)]) == 0
        regressed = tmp_path / "bad.json"
        regressed.write_text(json.dumps({"records": [
            {"benchmark": "engine_sweep_gemm48x100",
             "fused_candidates_per_sec": 60.0, "fused_speedup_vs_interp": 1.2},
            {"benchmark": "new_sweep_record", "candidates_per_sec": 999.0},
        ]}))
        assert checker.main(["--baseline", baseline, "--current", str(regressed)]) == 1

    def test_missing_field_on_either_side_is_skipped(self, tmp_path):
        checker = load_module("benchmarks/check_bench_regression.py", "bench_checker7")
        baseline = tmp_path / "base.json"
        baseline.write_text(json.dumps({"records": [
            {"benchmark": "engine_sweep_gemm48x100", "fused_speedup_vs_interp": 2.3},
        ]}))
        current = self.write(tmp_path / "cur.json", 50.0, speedup=2.2)
        assert checker.main(["--baseline", str(baseline), "--current", current]) == 0
