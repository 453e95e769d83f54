"""The repository benchmark: four workloads, end-to-end metrics, traced layers.

Run one workload (what ``BENCHMARK.json`` names)::

    python3 perfbench/run.py --workload gemm-sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no instrument installed;
``--trace 1`` alternates untraced and traced repetitions and reports the
per-layer metrics of the traced ones, plus ``trace.overhead_s`` (traced minus
untraced wall time).  ``--workload all`` runs every workload in turn and
``--smoke`` shrinks each to one reduced repetition.  Every output is checked
against ``expected.json`` (reference-backend results); a wrong result, an
error reply or a refusal counts as failed.  The last stdout line is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.

Per-layer values are per repetition: one three-interconnect sweep, one CLI
run, one fleet run, or one 10-request serve block.  Self-tests of the
benchmark's arithmetic: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import queue
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import benchtrace
import inputs
from benchtrace import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gemm-sweep", "conv-explore", "serve-mix", "fleet-conv")
#: Ceiling for one child command; the whole run must end within 180 s.
CHILD_TIMEOUT = 150.0


class Run:
    """One benchmark run: settings, scratch space, and the correctness tally."""

    def __init__(self, args: argparse.Namespace, workload: str, expected: dict):
        self.workload = workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.smoke = args.smoke
        self.expected = expected
        self.workdir = ROOT / ".perfbench_work" / f"{workload}-{os.getpid()}"
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.notes: list[str] = []
        self._names = 0

    def scratch(self, name: str) -> Path:
        """A fresh path under the run's work directory."""
        self._names += 1
        return self.workdir / f"{self._names:04d}-{name}"

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def rep_traced(self, done: int) -> bool:
        """Trace runs alternate untraced (even) and traced (odd) repetitions."""
        return self.trace and done % 2 == 1

    def more(self, done: int) -> bool:
        """Repeat until ``seconds`` have passed, but at least three times
        untraced (a median of fewer is a mean) or once each way traced; a
        third untraced repetition is skipped past 1.5 x ``seconds``, which
        bounds a run on a slow machine."""
        if self.smoke:
            return done < (2 if self.trace else 1)
        elapsed = time.perf_counter() - self.started
        if done < 2 or (done < 3 and not self.trace and elapsed < 1.5 * self.seconds):
            return True
        return elapsed < self.seconds

    def close(self) -> None:
        shutil.rmtree(self.workdir, ignore_errors=True)


# -- correctness -----------------------------------------------------------------


def checkpoint_scores(paths) -> tuple[dict[str, float], int]:
    """``{signature key: score}`` of every result record, plus the number of
    records that are not successful evaluations or disagree across files."""
    scores: dict[str, float] = {}
    bad = 0
    for path in paths:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            record = json.loads(line)
            if record.get("kind") != "result":
                continue
            if record.get("status") != "ok":
                bad += 1
                continue
            key = inputs.signature_key(record["signature"])
            if scores.setdefault(key, record["score"]) != record["score"]:
                bad += 1
    return scores, bad


def scores_match(paths, expected: dict[str, float], count: int) -> bool:
    """Exactly ``count`` candidates, each with its reference score."""
    scores, bad = checkpoint_scores(paths)
    return (
        not bad
        and len(scores) == count
        and all(expected.get(key) == score for key, score in scores.items())
    )


def load_expected(corrupt: bool) -> dict:
    expected = json.loads((HERE / "expected.json").read_text(encoding="utf-8"))
    if corrupt:
        # Shift every reference score: every checked output must then fail.
        for table in [*expected["gemm-sweep"].values(), expected["conv"]]:
            for key in table:
                table[key] += 1.0
        for tops in expected["serve-mix"].values():
            for entry in tops:
                entry["score"] += 1.0
    return expected


# -- shared helpers --------------------------------------------------------------


def run_cli(run: Run, args, trace_dir: Path | None = None) -> tuple[float, int, float]:
    """Run ``tenet ARGS`` to completion: ``(wall seconds, exit code, peak
    resident MiB of the child and its reaped descendants)``."""
    command = benchtrace.cli_command([str(arg) for arg in args], traced=trace_dir is not None)
    output = run.scratch("output.txt")
    with open(output, "w", encoding="utf-8") as sink:
        started = time.perf_counter()
        process = subprocess.Popen(
            command, cwd=run.workdir, env=benchtrace.child_env(trace_dir), stdout=sink, stderr=sink
        )
        peak = benchtrace.reap(process, CHILD_TIMEOUT)
        seconds = time.perf_counter() - started
    if process.returncode != 0:
        tail = output.read_text(encoding="utf-8")[-400:]
        run.notes.append(f"`tenet {args[0]}` exited {process.returncode}: {tail}")
    return seconds, process.returncode, peak


def layer_metrics(traces: list[dict], reps: int) -> dict[str, float]:
    """Per-repetition layer metrics from the traced processes' dumps."""
    totals = benchtrace.layer_totals(traces)
    reps = max(1, reps)
    out = {
        name: value / reps
        for name, value in totals.items()
        if name != "cli.import_s" and not name.startswith("fleet.")
    }
    out["cli.import_s"] = totals["cli.import_s"]
    base = totals["backends.per_tensor_evals"]
    out["backends.fused_share"] = totals["backends.fused_path"] / base if base else 0.0
    run_s = totals["session.run_s"]
    out["dse.generate_share"] = totals["dse.generate_s"] / run_s if run_s else 0.0
    for key in ("spawn_s", "leases", "steals", "evictions"):
        out[f"fleet.{key}"] = totals[f"fleet.{key}"] / reps
    leases = benchtrace.lease_seconds(traces)
    out["fleet.lease_p50_s"] = median(leases) if leases else 0.0
    runs = totals["fleet.runs"]
    # Replica-seconds on offer: replicas per fleet run x summed fleet walls.
    capacity = totals["fleet.replicas"] / runs * totals["fleet.seconds"] if runs else 0.0
    out["fleet.busy_share"] = totals["fleet.lease_server_s"] / capacity if capacity else 0.0
    return out


def request_metrics(run: Run, latencies: list[float], busy_seconds: float, what: str) -> dict:
    """Request latency percentiles (with their sample count, in the notes)
    and requests completed per second of request time.

    ``req_p95_ms`` is the p95 only when at least ten requests lie beyond it;
    a smaller sample reports the highest percentile that has ten, down to
    the median (see :func:`benchtrace.tail_quantile`).
    """
    summary = benchtrace.latency_summary(latencies)
    run.notes.append(
        f"request latency over n={summary['n']} {what}; req_p95_ms is p{summary['tail_q']:.0f}"
    )
    return {
        "req_p50_ms": 1000 * summary["p50"],
        "req_p95_ms": 1000 * summary["tail"],
        "req_per_s": summary["n"] / busy_seconds,
    }


def overhead(traced: list[float], untraced: list[float]) -> float:
    return median(traced) - median(untraced)


# -- gemm-sweep ------------------------------------------------------------------


def gemm_sweep(run: Run) -> tuple[dict, dict]:
    from repro.core.engine import RelationCache
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.experiments.common import make_arch
    from repro.tensor.kernels import gemm

    op = gemm(*inputs.GEMM_SIZES)
    specs = inputs.gemm_specs()
    order = inputs.gemm_order(run.seed)
    if run.smoke:
        order = order[:12]
    archs = {ic: make_arch(pe_dims=inputs.PE_DIMS, interconnect=ic) for ic in inputs.INTERCONNECTS}
    cache = RelationCache()
    # Warm process: relations materialised and lazy imports done untimed.
    for arch in archs.values():
        DesignSpaceExplorer(op, arch, cache=cache).engine.evaluate(
            inputs.gemm_candidate(op, specs[order[0]])
        )

    def candidates():
        for index in order:
            yield inputs.gemm_candidate(op, specs[index])

    setups, walls, rates, latencies, traced_walls = [], [], [], [], []
    tracer = benchtrace.Tracer()
    done = 0
    while run.more(done):
        traced = run.rep_traced(done)
        uninstall = benchtrace.install(tracer) if traced else None
        setup = sweep = 0.0
        outputs = []
        try:
            for interconnect, arch in archs.items():
                path = run.scratch("gemm.jsonl")
                started = time.perf_counter()
                explorer = DesignSpaceExplorer(op, arch, cache=cache)
                explorer.engine.evaluate(inputs.gemm_candidate(op, specs[order[0]]))
                ready = time.perf_counter()
                source = (
                    benchtrace.traced_candidates(tracer, candidates()) if traced else candidates()
                )
                explorer.explore(source, checkpoint=str(path), top_k=5)
                finished = time.perf_counter()
                explorer.engine.close()
                setup += ready - started
                sweep += finished - ready
                if not traced:
                    latencies.append(finished - started)
                outputs.append((interconnect, path))
        finally:
            if uninstall is not None:
                uninstall()
        for interconnect, path in outputs:
            run.record(
                scores_match([path], run.expected["gemm-sweep"][interconnect], len(order)),
                f"gemm-sweep {interconnect} scores",
            )
            path.unlink()
        if traced:
            traced_walls.append(setup + sweep)
        else:
            setups.append(setup)
            walls.append(setup + sweep)
            rates.append(len(order) * len(archs) / sweep)
        done += 1

    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "sweep_cps": median(rates),
        **request_metrics(run, latencies, sum(walls), f"explore calls of {len(order)} candidates"),
        "peak_rss_mb": benchtrace.self_peak_rss_mb(),
    }
    layers = {}
    if run.trace:
        layers = layer_metrics([tracer.to_dict()], len(traced_walls))
        layers["trace.overhead_s"] = overhead(traced_walls, walls)
    return end_to_end, layers


# -- conv-explore ----------------------------------------------------------------


def conv_explore(run: Run) -> tuple[dict, dict]:
    count = 16 if run.smoke else inputs.CONV_CANDIDATES
    expected = run.expected["conv"]
    setups, walls, rates, peaks, traced_walls = [], [], [], [], []
    traces: list[dict] = []
    kernel_split = None
    done = 0
    while run.more(done):
        traced = run.rep_traced(done)
        for _ in range(0 if traced else 1 if run.smoke else 2):
            # Set-up: cold start to the first result (import, engine build,
            # relation materialisation, one evaluation).
            probe = run.scratch("probe.jsonl")
            seconds, code, _ = run_cli(
                run, ["explore", *inputs.CONV_ARGS, "--max-candidates", 1, "--checkpoint", probe]
            )
            run.record(code == 0 and scores_match([probe], expected, 1), "conv-explore probe")
            setups.append(seconds)
        checkpoint = run.scratch("conv.jsonl")
        profile = run.scratch("profile.json")
        trace_dir = run.scratch("trace") if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        seconds, code, peak = run_cli(
            run,
            ["explore", *inputs.CONV_ARGS, "--max-candidates", count,
             "--checkpoint", checkpoint, "--profile-json", profile],
            trace_dir,
        )
        run.record(code == 0 and scores_match([checkpoint], expected, count), "conv-explore scores")
        if traced:
            traces += benchtrace.read_traces(trace_dir)
            traced_walls.append(seconds)
        else:
            walls.append(seconds)
            peaks.append(peak)
            if code == 0:
                report = json.loads(profile.read_text(encoding="utf-8"))
                rates.append(report["sweep"]["candidates"] / report["sweep"]["seconds"])
                stats = report["stats"]
                kernel_split = (stats.get("fused_path", 0), stats.get("compiled_path", 0))
        done += 1

    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "sweep_cps": median(rates),
        **request_metrics(run, walls, sum(walls), "tenet explore runs"),
        "peak_rss_mb": median(peaks),
    }
    run.notes.append(f"set-up over n={len(setups)} probes")
    if kernel_split:
        fused, compiled = kernel_split
        run.notes.append(
            f"per-tensor kernels: fused {fused}, compiled {compiled} "
            f"(compiled share {compiled / max(1, fused + compiled):.3f})"
        )
    layers = {}
    if run.trace:
        layers = layer_metrics(traces, len(traced_walls))
        layers["trace.overhead_s"] = overhead(traced_walls, walls)
    return end_to_end, layers


# -- serve-mix -------------------------------------------------------------------


def serve_block(clients, block) -> tuple[float, list]:
    """Drive one block over the connections as a closed loop: each connection
    sends its next request only after its previous reply arrived."""
    from repro.errors import ExplorationError

    work: queue.Queue = queue.Queue()
    for index, item in enumerate(block):
        work.put((index, item))
    results: list = [None] * len(block)

    def drive(client) -> None:
        while True:
            try:
                index, (_, payload) = work.get_nowait()
            except queue.Empty:
                return
            started = time.perf_counter()
            try:
                record = client.request(payload)
            except (ExplorationError, OSError, ValueError) as error:
                record = {"error": f"{type(error).__name__}: {error}"}
            results[index] = (time.perf_counter() - started, record)

    threads = [threading.Thread(target=drive, args=(client,)) for client in clients]
    started = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(CHILD_TIMEOUT)
    return time.perf_counter() - started, results


def serve_mix(run: Run) -> tuple[dict, dict]:
    from repro.sweep.client import SweepClient

    expected = run.expected["serve-mix"]
    blocks = inputs.serve_blocks(run.seed)
    phases = (False, True) if run.trace else (False,)
    setups, block_walls, traced_walls, peaks = [], [], [], []
    by_label: dict[str, list[float]] = {"hot": [], "warm": [], "cold": []}
    candidates = server_seconds = 0.0
    traced_rtts, traced_server_ms, traced_net_ms = [], [], []
    stats_by_phase = {}
    traces: list[dict] = []
    for number, traced in enumerate(phases):
        phase_end = run.started + run.seconds * (number + 1) / len(phases)
        trace_dir = None
        if traced:
            trace_dir = run.scratch("trace")
            trace_dir.mkdir()
        elif not run.smoke:
            # Set-up is measured several times: spawn until announce.
            for _ in range(4):
                process, _, _, seconds = benchtrace.start_server()
                setups.append(seconds)
                benchtrace.stop_process(process)
                run.record(process.returncode == 0, "serve-mix set-up probe exit")
        process, host, port, seconds = benchtrace.start_server(trace_dir=trace_dir)
        if not traced:
            setups.append(seconds)
        clients = [
            SweepClient(host, port, timeout=CHILD_TIMEOUT, reconnect_retries=0)
            for _ in range(2)
        ]
        try:
            done = 0
            # Whole request cycles only, so every seed sends the same mix.
            while done < 1 or not run.smoke and (
                time.perf_counter() < phase_end or done % inputs.SERVE_CYCLE
            ):
                block = next(blocks)
                wall, results = serve_block(clients, block)
                (traced_walls if traced else block_walls).append(wall)
                for (label, payload), result in zip(block, results):
                    rtt, record = result if result is not None else (0.0, {"error": "no reply"})
                    top = expected[inputs.payload_key(payload)]
                    ok = "error" not in record and record.get("top") == top
                    run.record(ok, f"serve-mix {label} {payload['kernel']}: "
                                   f"{record.get('error', 'top-k differs')}")
                    if "error" in record:
                        continue
                    if traced:
                        traced_rtts.append(rtt)
                        traced_server_ms.append(1000 * record["seconds"])
                        traced_net_ms.append(1000 * (rtt - record["seconds"]))
                    else:
                        by_label[label].append(rtt)
                        candidates += record["candidates"]
                        server_seconds += record["seconds"]
                done += 1
            stats_by_phase[traced] = clients[0].stats()
        finally:
            for client in clients:
                client.close()
            peak = benchtrace.stop_process(process)
            run.record(process.returncode == 0, "serve-mix server exit")
        if traced:
            traces = benchtrace.read_traces(trace_dir)
        else:
            peaks.append(peak)

    rtts = [rtt for values in by_label.values() for rtt in values]
    end_to_end = {
        "setup_s": median(setups),
        # Every run sends whole cycles of one fixed mix, so the mean block is
        # that mix's cost; a median would fall between two cold builds.
        "wall_s": sum(block_walls) / len(block_walls),
        "sweep_cps": candidates / server_seconds,
        **request_metrics(run, rtts, sum(block_walls), "round trips on 2 connections"),
        "peak_rss_mb": median(peaks),
    }
    stats = stats_by_phase[False]
    run.notes.append(
        f"{len(block_walls)} blocks; "
        + ", ".join(
            f"{label} {len(values) / len(rtts):.3f} (p50 {1000 * median(values):.1f} ms)"
            for label, values in by_label.items()
        )
    )
    run.notes.append(
        f"server: engine_reused_rate {stats['engine_reused_rate']}, relation-cache misses "
        f"{stats['relation_cache']['misses']} / {stats['requests']['submitted']} requests, "
        f"failed {stats['requests']['failed']}"
    )
    layers = {}
    if run.trace:
        stats = stats_by_phase[True]
        cold = stats["relation_cache"]["misses"] / stats["requests"]["submitted"]
        layers = layer_metrics(traces, len(traced_walls))
        layers.update(
            {
                "client.requests": len(traced_rtts),
                "client.rtt_p50_ms": 1000 * median(traced_rtts),
                "server.sweep_p50_ms": median(traced_server_ms),
                "net.overhead_p50_ms": median(traced_net_ms),
                "server.engine_reused_rate": stats["engine_reused_rate"],
                "server.cold_share": cold,
                "server.warm_share": 1.0 - stats["engine_reused_rate"] - cold,
                "server.requests_failed": stats["requests"]["failed"],
                "trace.overhead_s": overhead(traced_walls, block_walls),
            }
        )
    return end_to_end, layers


# -- fleet-conv ------------------------------------------------------------------


def fleet_conv(run: Run) -> tuple[dict, dict]:
    count = 16 if run.smoke else inputs.CONV_CANDIDATES
    expected = run.expected["conv"]
    setups, walls, peaks, traced_walls = [], [], [], []
    traces: list[dict] = []
    done = 0
    while run.more(done):
        traced = run.rep_traced(done)
        if not traced:
            # Set-up: spawn-until-announce of the two replicas, one after the
            # other as the coordinator starts them.
            root = run.scratch("probe-root")
            root.mkdir()
            setup = 0.0
            for _ in range(2):
                process, _, _, seconds = benchtrace.start_server(
                    ["--checkpoint-root", str(root)]
                )
                setup += seconds
                benchtrace.stop_process(process)
                run.record(process.returncode == 0, "fleet-conv set-up probe exit")
            setups.append(setup)
        directory = run.scratch("fleet")
        trace_dir = run.scratch("trace") if traced else None
        if trace_dir is not None:
            trace_dir.mkdir()
        seconds, code, peak = run_cli(
            run,
            ["fleet", *inputs.CONV_ARGS, "--max-candidates", count, "--replicas", 2,
             "--checkpoint-dir", directory],
            trace_dir,
        )
        leases = sorted(directory.glob("lease-*.jsonl"))
        run.record(code == 0 and scores_match(leases, expected, count), "fleet-conv merged scores")
        if traced:
            traces += benchtrace.read_traces(trace_dir)
            traced_walls.append(seconds)
        else:
            walls.append(seconds)
            peaks.append(peak)
        done += 1

    end_to_end = {
        "setup_s": median(setups),
        "wall_s": median(walls),
        "sweep_cps": count / (median(walls) - median(setups)),
        **request_metrics(run, walls, sum(walls), "tenet fleet runs"),
        "peak_rss_mb": median(peaks),
    }
    run.notes.append(f"set-up over n={len(setups)} probes")
    layers = {}
    if run.trace:
        layers = layer_metrics(traces, len(traced_walls))
        layers["trace.overhead_s"] = overhead(traced_walls, walls)
    return end_to_end, layers


RUNNERS = {
    "gemm-sweep": gemm_sweep,
    "conv-explore": conv_explore,
    "serve-mix": serve_mix,
    "fleet-conv": fleet_conv,
}


# -- reporting -------------------------------------------------------------------


def machine_fingerprint() -> dict:
    import numpy

    model = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def report(run: Run, end_to_end: dict, layers: dict, spec: dict) -> dict:
    """Print the human table and return the result object."""
    wanted = spec["per_layer"] if run.trace else spec["end_to_end"]
    values = dict(end_to_end)
    if run.trace:
        values = {"bench.failed_ratio": benchtrace.failed_ratio(run.failed, run.attempted), **layers}
    metrics = {}
    print(f"== {run.workload} (seed {run.seed}, {'traced' if run.trace else 'untraced'}"
          f"{', smoke' if run.smoke else ''})")
    for metric in wanted:
        # Layers a workload does not exercise read 0; end-to-end metrics
        # must all be measured.
        value = values.get(metric["name"], 0.0) if run.trace else values[metric["name"]]
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:28s} {value:14.6f} {metric['unit']}")
    print(f"  {'failed_ratio':28s} {benchtrace.failed_ratio(run.failed, run.attempted):14.6f} "
          f"({run.failed} of {run.attempted} operations)")
    for note in run.notes:
        print(f"  {note}")
    for problem in run.problems[:10]:
        print(f"  FAILED: {problem}")
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="one reduced-size repetition per workload")
    parser.add_argument("--corrupt-expected", action="store_true",
                        help="shift every reference score: every output check fails, so "
                             "failed_ratio becomes non-zero")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "cli.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}; "
              "run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    meta = json.loads((HERE / "meta.json").read_text(encoding="utf-8"))
    machine = machine_fingerprint()
    if machine != meta["machine"]["fingerprint"]:
        print(f"perfbench: machine {machine} differs from the recorded class "
              f"{meta['machine']['fingerprint']}; compare numbers only within one class",
              file=sys.stderr)
    if args.workload == "all":
        return run_all(argv if argv is not None else sys.argv[1:])
    run = Run(args, args.workload, load_expected(args.corrupt_expected))
    try:
        end_to_end, layers = RUNNERS[args.workload](run)
    finally:
        run.close()
    print(json.dumps(report(run, end_to_end, layers, spec)))
    return 0


def run_all(argv: list[str]) -> int:
    """Every workload in its own benchmark process (a child's peak memory
    would otherwise include this process's), combined into one result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        command = [sys.executable, str(Path(__file__).resolve()), *argv, "--workload", workload]
        process = subprocess.run(command, stdout=subprocess.PIPE, text=True)
        lines = process.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if process.returncode != 0 or not lines:
            print(f"perfbench: {workload} exited with {process.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
