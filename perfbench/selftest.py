"""Self-tests of the benchmark's own arithmetic and checks::

    python3 perfbench/selftest.py

Covers percentiles with their sample count and tail rule, self time from nested spans,
a non-negative ``engine.unattributed_s`` on a real traced sweep,
``failed_ratio``, the corrupted-reference path (every workload must fail), and
the reduced-size smoke mode of every workload (every output must pass).
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import threading
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import benchtrace  # noqa: E402
from benchtrace import (  # noqa: E402
    failed_ratio,
    latency_summary,
    percentile,
    self_times,
    tail_quantile,
)


def run_benchmark(*args: str) -> dict:
    process = subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=300,
    )
    return json.loads(process.stdout.strip().splitlines()[-1])


class PercentileTest(unittest.TestCase):
    def test_known_values(self):
        self.assertEqual(percentile([4.0, 1.0, 3.0, 2.0], 50), 2.5)
        self.assertAlmostEqual(percentile([1.0, 2.0, 3.0, 4.0], 95), 3.85)
        self.assertEqual(percentile([7.0], 95), 7.0)

    def test_matches_numpy_linear(self):
        import numpy

        rng = random.Random(7)
        for size in (2, 5, 20, 101):
            values = [rng.random() for _ in range(size)]
            for q in (0, 25, 50, 95, 100):
                self.assertAlmostEqual(percentile(values, q), float(numpy.percentile(values, q)))

    def test_summary_carries_sample_count(self):
        summary = latency_summary([float(v) for v in range(1, 401)])
        self.assertEqual(summary["n"], 400)
        self.assertEqual(summary["p50"], 200.5)
        self.assertEqual(summary["tail_q"], 95.0)
        self.assertAlmostEqual(summary["tail"], 380.05)

    def test_tail_keeps_ten_samples_beyond_it(self):
        self.assertEqual(tail_quantile(200), 95.0)
        self.assertEqual(tail_quantile(100), 90.0)
        self.assertEqual(tail_quantile(20), 50.0)
        self.assertEqual(tail_quantile(3), 50.0)
        summary = latency_summary([3.0, 1.0, 2.0])
        self.assertEqual(summary["tail"], summary["p50"])

    def test_empty_sample_is_an_error(self):
        with self.assertRaises(ValueError):
            percentile([], 50)


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            (1, 0, "session.run", 0.0, 10.0),
            (2, 1, "engine.batch", 1.0, 3.0),
            (3, 1, "engine.batch", 4.0, 8.0),
            (4, 3, "isl.relations", 5.0, 6.0),
        ]
        selfs = self_times(spans)
        self.assertEqual(selfs["session.run"], 4.0)
        self.assertEqual(selfs["engine.batch"], 5.0)
        self.assertEqual(selfs["isl.relations"], 1.0)
        self.assertEqual(benchtrace.span_totals(spans)["engine.batch"], 6.0)

    def test_tracer_parents_are_per_thread(self):
        tracer = benchtrace.Tracer()

        def other_thread() -> None:
            with tracer.span("other"):
                pass

        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            worker = threading.Thread(target=other_thread)
            worker.start()
            worker.join(10)
        self.assertFalse(worker.is_alive())
        by_name = {name: (span_id, parent) for span_id, parent, name, _, _ in tracer.spans}
        self.assertEqual(by_name["inner"][1], by_name["outer"][0])
        self.assertEqual(by_name["other"][1], 0)
        self.assertGreaterEqual(self_times(tracer.spans)["outer"], 0.0)


class UnattributedTest(unittest.TestCase):
    def test_unattributed_is_non_negative_on_a_traced_sweep(self):
        import inputs
        from repro.dse.explorer import DesignSpaceExplorer
        from repro.experiments.common import make_arch
        from repro.tensor.kernels import gemm

        op = gemm(*inputs.GEMM_SIZES)
        specs = inputs.gemm_specs()[:16]
        tracer = benchtrace.Tracer()
        uninstall = benchtrace.install(tracer)
        try:
            explorer = DesignSpaceExplorer(op, make_arch(pe_dims=inputs.PE_DIMS))
            explorer.explore(
                benchtrace.traced_candidates(
                    tracer, (inputs.gemm_candidate(op, spec) for spec in specs)
                )
            )
        finally:
            uninstall()
        totals = benchtrace.layer_totals([tracer.to_dict()])
        batches = {span[0] for span in tracer.spans if span[2] == "engine.batch"}
        materialise = sum(
            end - start
            for _, parent, name, start, end in tracer.spans
            if name == "isl.relations" and parent in batches
        )
        staged = sum(totals[f"engine.{stage}_s"] for stage in benchtrace.ENGINE_STAGES)
        self.assertGreater(totals["engine.batch_s"], 0.0)
        self.assertGreaterEqual(totals["engine.unattributed_s"], 0.0)
        self.assertAlmostEqual(
            totals["engine.unattributed_s"],
            totals["engine.batch_s"] - materialise - staged,
        )
        self.assertEqual(totals["dse.candidates"], 16)
        self.assertEqual(totals["engine.evaluated"], 16)
        # Uninstalled: the program's functions are its own again.
        self.assertNotIn("benchtrace", type(explorer.engine).evaluate_batch.__module__)


class FailedRatioTest(unittest.TestCase):
    def test_ratio(self):
        self.assertEqual(failed_ratio(0, 10), 0.0)
        self.assertEqual(failed_ratio(3, 12), 0.25)
        with self.assertRaises(ValueError):
            failed_ratio(0, 0)
        with self.assertRaises(ValueError):
            failed_ratio(5, 4)

    def test_corrupted_reference_fails_every_workload(self):
        for workload in ("gemm-sweep", "conv-explore", "serve-mix", "fleet-conv"):
            result = run_benchmark("--workload", workload, "--smoke", "--corrupt-expected")
            self.assertFalse(result["correct"], workload)
            self.assertGreater(result["failed"], 0, workload)
            if workload == "gemm-sweep":
                # Every gemm-sweep check reads the reference; serve-mix and
                # fleet-conv also check process exit codes, which still pass.
                self.assertEqual(result["failed"], result["attempted"])


class SmokeTest(unittest.TestCase):
    def test_every_workload_once(self):
        for trace in ("0", "1"):
            result = run_benchmark("--workload", "all", "--smoke", "--trace", trace)
            self.assertTrue(result["correct"], result)
            self.assertEqual(result["failed"], 0)


if __name__ == "__main__":
    unittest.main()
