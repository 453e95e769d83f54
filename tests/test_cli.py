"""Tests for the command-line interface."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro.cli
from repro.cli import EXPERIMENTS, build_parser, main


class TestParser:
    def test_catalog_command(self, capsys):
        assert main(["catalog"]) == 0
        output = capsys.readouterr().out
        assert "(IJ-P | J,IJK-T)" in output

    def test_experiment_list(self, capsys):
        assert main(["experiment", "--list"]) == 0
        output = capsys.readouterr().out
        assert "fig6" in output and "fig12" in output

    def test_experiment_unknown_name(self, capsys):
        assert main(["experiment", "not-an-experiment"]) == 1

    def test_run_fast_experiment(self, capsys):
        assert main(["experiment", "fig1"]) == 0
        output = capsys.readouterr().out
        assert "fig1-reuse-example" in output

    def test_analyze_command(self, capsys):
        code = main([
            "analyze", "--kernel", "gemm", "--sizes", "16", "16", "16",
            "--dataflow", "(IJ-P | J,IJK-T)", "--pe", "8", "8",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "latency" in output and "PE utilization" in output

    def test_explore_command(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "6", "--objective", "latency", "--top", "3",
            "--early-termination",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "objective = latency" in output
        assert "engine:" in output

    def test_explore_fused_backend_with_profile(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "6", "--backend", "fused", "--top", "3",
            "--profile",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "objective = latency" in output
        assert "backend=fused" in output
        assert "profile (per-stage wall clock" in output
        # The profile header labels the resolved backend.
        assert "(per-stage wall clock; backend=fused):" in output
        for stage in ("stamps", "volumes"):
            assert stage in output

    @pytest.mark.parametrize("backend", ["fused"])
    def test_explore_ranking_matches_interp(self, capsys, backend):
        def ranked_lines(name):
            assert main([
                "explore", "--kernel", "conv2d", "--sizes", "4", "4", "6", "6", "3", "3",
                "--pe", "4", "4", "--max-candidates", "10", "--objective", "sbw",
                "--top", "6", "--backend", name,
            ]) == 0
            output = capsys.readouterr().out
            return [line for line in output.splitlines() if line.startswith("  ")]

        reference = ranked_lines("interp")
        assert len(reference) == 6
        assert ranked_lines(backend) == reference

    @pytest.mark.parametrize("backend", ["affine", "bitset", "auto"])
    def test_explore_retired_backend_is_rejected(self, capsys, backend):
        with pytest.raises(SystemExit) as exit_info:
            main([
                "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
                "--backend", backend,
            ])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert f"invalid choice: '{backend}'" in err
        for name in ("interp", "fused"):
            assert name in err

    def test_explore_profile_json_contract(self, tmp_path):
        # The fields the repository benchmark reads from --profile-json.
        import json

        from repro.dse.pruning import pruned_candidates
        from repro.tensor.kernels import gemm

        path = tmp_path / "profile.json"
        assert main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "6", "--profile-json", str(path),
        ]) == 0
        payload = json.loads(path.read_text(encoding="utf-8"))
        assert set(payload["stages"]) >= {
            "materialise", "stamps", "utilization", "volumes", "rank"
        }
        assert set(payload["stats"]) >= {
            "fused_path", "fast_path", "reference_path"
        }
        sweep_size = len(list(pruned_candidates(
            gemm(12, 12, 12), pe_dims=(8, 8), allow_packing=True, max_candidates=6
        )))
        assert payload["sweep"]["candidates"] == sweep_size
        assert payload["sweep"]["seconds"] > 0
        assert payload["backend"] == "fused"
        assert set(payload) == {
            "command", "kernel", "sizes", "objective", "backend", "stages", "stats",
            "relation_cache", "sweep",
        }

    @pytest.mark.parametrize("argv", [
        ["explore", "--kernel", "gemm", "--sizes", "12", "12", "12", "--jobs", "2"],
        ["serve", "--jobs", "2"],
    ])
    def test_retired_jobs_flag_is_rejected(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --jobs 2" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["explore", "--kernel", "gemm", "--sizes", "12", "12", "12", "--batch-size", "8"],
        ["serve", "--batch-size", "8"],
    ], ids=["explore", "serve"])
    def test_retired_batch_flag_is_rejected(self, capsys, argv):
        # The sweep batch is a fixed 64 (repro.sweep.session.BATCH_SIZE).
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --batch-size 8" in capsys.readouterr().err

    @pytest.mark.parametrize("pe", [["8"], ["8", "8", "8"]])
    def test_analyze_rank_mismatch_is_one_error_line(self, capsys, pe):
        code = main([
            "analyze", "--kernel", "gemm", "--sizes", "8", "8", "8",
            "--dataflow", "(IJ-P | J,IJK-T)", "--pe", *pe,
        ])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "tenet analyze: error: dataflow '(IJ-P | J,IJK-T)' is invalid for "
            f"GEMM: space-stamp rank 2 does not match PE array rank {len(pe)}"
        ]

    def test_explore_top_bounds_ranking(self, capsys):
        code = main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "8", "--top", "2",
        ])
        assert code == 0
        output = capsys.readouterr().out
        # Exactly two ranked lines (" 1." and " 2."), nothing beyond the bound.
        assert "  1. " in output and "  2. " in output and "  3. " not in output

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 0
        assert "tenet" in capsys.readouterr().out

    def test_every_registered_experiment_is_callable(self):
        for name, runner in EXPERIMENTS.items():
            assert callable(runner), name

    def test_every_registered_experiment_names_a_driver(self):
        # Drivers are imported when run, so a misspelt module would only
        # fail on its first run.
        for name, runner in EXPERIMENTS.items():
            (module,) = runner.args
            assert importlib.util.find_spec(f"repro.experiments.{module}"), name

    def test_explore_calls_the_cli_module_generator(self, capsys, monkeypatch):
        # perfbench's tracer wraps ``repro.cli.pruned_candidates``; explore
        # must call the generator through that name.
        original = repro.cli.pruned_candidates
        calls = []

        def traced(*args, **kwargs):
            calls.append(kwargs["max_candidates"])
            return original(*args, **kwargs)

        monkeypatch.setattr(repro.cli, "pruned_candidates", traced)
        assert main(["explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
                     "--max-candidates", "2"]) == 0
        assert "engine: 2 evaluated" in capsys.readouterr().out
        assert calls == [2]

    def test_parser_version(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["--version"])


def assert_one_error_line(capsys, message):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1, lines
    assert lines[0].startswith(message), lines[0]


class TestInputErrors:
    """Bad sizes or names end in one ``tenet <cmd>: error:`` line, exit 1."""

    GEMM_SIZES = "kernel 'gemm' takes 3 sizes, one per loop dimension (i, j, k)"

    @pytest.mark.parametrize("argv, message", [
        (["analyze", "--kernel", "gemm", "--sizes", "8", "8", "8", "9",
          "--dataflow", "(IJ-P | J,IJK-T)"],
         f"tenet analyze: error: {GEMM_SIZES}; got [8, 8, 8, 9]"),
        (["analyze", "--kernel", "conv2d", "--sizes", "4", "4", "4", "4", "3", "3",
          "2", "--dataflow", "(KC-P | OY,KCOX-T)"],
         "tenet analyze: error: kernel 'conv2d' takes 6 sizes, one per loop "
         "dimension (k, c, ox, oy, rx, ry); got [4, 4, 4, 4, 3, 3, 2]"),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8"],
         f"tenet explore: error: {GEMM_SIZES}; got [8, 8]"),
        (["analyze", "--kernel", "nope", "--sizes", "8", "--dataflow", "x"],
         "tenet analyze: error: unknown kernel 'nope'; available: "),
        (["analyze", "--kernel", "gemm", "--sizes", "8", "8", "8", "--dataflow", "nope"],
         "tenet analyze: error: no dataflow 'nope' for kernel 'gemm'; known: "),
        (["explore", "--kernel", "nope", "--sizes", "8"],
         "tenet explore: error: unknown kernel 'nope'; available: "),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8", "--pe", "8"],
         "tenet explore: error: --pe takes exactly two extents (rows cols), got [8]"),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
          "--interconnect", "bogus"],
         "tenet explore: error: unknown interconnect 'bogus'; available: "),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8", "--pe", "0", "8"],
         "tenet explore: error: PE array dimensions must be positive, got (0, 8)"),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8", "--shard", "2/2"],
         "tenet explore: error: invalid shard 2/2: "),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8", "--shard", "x"],
         "tenet explore: error: invalid shard selector 'x'"),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8", "--resume"],
         "tenet explore: error: resume=True needs a checkpoint path"),
        (["serve", "--listen", "bogus"],
         "tenet serve: error: --listen expects HOST:PORT"),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
          "--max-candidates", "-3"],
         "tenet explore: error: --max-candidates must be at least 0, got -3"),
        (["explore", "--kernel", "gemm", "--sizes", "8", "8", "8", "--top", "-1"],
         "tenet explore: error: --top must be at least 0, got -1"),
    ], ids=[
        "analyze-extra-size", "analyze-conv-stride-size", "explore-missing-size",
        "analyze-unknown-kernel", "analyze-unknown-dataflow",
        "explore-unknown-kernel", "explore-pe-rank", "explore-unknown-interconnect",
        "explore-zero-pe", "explore-shard-out-of-range", "explore-shard-garbage",
        "explore-resume-without-checkpoint", "serve-bad-listen",
        "explore-negative-max-candidates", "explore-negative-top",
    ])
    def test_one_error_line(self, capsys, argv, message):
        assert main(argv) == 1
        assert_one_error_line(capsys, message)

    def test_explore_refuses_existing_checkpoint(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        argv = ["explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
                "--max-candidates", "2", "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        capsys.readouterr()
        recorded = checkpoint.read_text()
        assert main(argv) == 1
        assert_one_error_line(
            capsys, f"tenet explore: error: checkpoint {checkpoint} already exists"
        )
        assert checkpoint.read_text() == recorded

    def test_explore_refuses_to_resume_another_objective(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        argv = ["explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
                "--max-candidates", "2", "--checkpoint", str(checkpoint)]
        assert main(argv) == 0
        capsys.readouterr()
        assert main([*argv, "--resume", "--objective", "energy"]) == 1
        assert_one_error_line(
            capsys,
            f"tenet explore: error: checkpoint {checkpoint} was written for a "
            "different sweep (objective='latency', expected 'energy')",
        )

    def test_sweep_merge_missing_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["sweep-merge", str(missing)]) == 1
        assert_one_error_line(
            capsys, "tenet sweep-merge: error: [Errno 2] No such file or directory"
        )

    def test_sweep_merge_refuses_negative_top(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        assert main(["explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
                     "--max-candidates", "2", "--checkpoint", str(checkpoint)]) == 0
        capsys.readouterr()
        assert main(["sweep-merge", str(checkpoint), "--top", "-1"]) == 1
        assert_one_error_line(
            capsys, "tenet sweep-merge: error: --top must be at least 0, got -1"
        )

    def test_sweep_merge_refuses_two_operations(self, capsys, tmp_path):
        paths = []
        for size in ("8", "12"):
            path = tmp_path / f"gemm{size}.jsonl"
            assert main(["explore", "--kernel", "gemm", "--sizes", size, "8", "8",
                         "--max-candidates", "2", "--checkpoint", str(path)]) == 0
            paths.append(str(path))
        capsys.readouterr()
        assert main(["sweep-merge", *paths]) == 1
        assert_one_error_line(
            capsys, f"tenet sweep-merge: error: checkpoint {paths[1]} belongs to a "
            "different sweep"
        )

    def test_sweep_merge_refuses_two_reduction_tree_group_sizes(self, capsys, tmp_path):
        # The CLI builds default topologies, so the checkpoints come from
        # the library; their headers differ only in the tree's group size.
        from repro.core.engine import EvaluationEngine
        from repro.dse.pruning import pruned_candidates
        from repro.experiments.common import make_arch
        from repro.sweep import SweepSession
        from repro.tensor.kernels import gemm

        op = gemm(8, 8, 8)
        paths = []
        for group_size in (2, 8):
            path = str(tmp_path / f"group{group_size}.jsonl")
            arch = make_arch(pe_dims=(4, 4), interconnect="reduction-tree",
                             group_size=group_size)
            SweepSession(EvaluationEngine(op, arch), checkpoint=path).run(
                pruned_candidates(op, pe_dims=(4, 4), max_candidates=4)
            )
            paths.append(path)
        assert main(["sweep-merge", *paths]) == 1
        assert_one_error_line(
            capsys, f"tenet sweep-merge: error: checkpoint {paths[1]} belongs to a "
            "different sweep"
        )

    def test_serve_missing_requests_file(self, capsys, tmp_path):
        missing = tmp_path / "missing.jsonl"
        assert main(["serve", "--requests", str(missing)]) == 1
        assert_one_error_line(
            capsys, "tenet serve: error: [Errno 2] No such file or directory"
        )

    def test_fleet_checks_sizes_before_spawning(self, capsys, tmp_path, monkeypatch):
        import repro.sweep.fleet as fleet_module

        spawned = []

        def launch_replica(*args, **kwargs):
            spawned.append(args)
            raise RuntimeError("a replica was spawned")

        monkeypatch.setattr(fleet_module, "launch_replica", launch_replica)
        code = main([
            "fleet", "--kernel", "gemm", "--sizes", "8", "8", "--replicas", "1",
            "--checkpoint-dir", str(tmp_path / "fleet"),
        ])
        assert code == 1
        assert spawned == []
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [
            f"tenet fleet: error: {self.GEMM_SIZES}; got [8, 8]"
        ]

    @pytest.mark.parametrize("seconds", ["0", "-1"])
    def test_fleet_refuses_a_lease_timeout_before_spawning(
        self, capsys, tmp_path, monkeypatch, seconds
    ):
        # -1 used to crash the worker thread in socket.create_connection and
        # hang the fleet; 0 failed every lease as "unreachable".
        spawned = []
        monkeypatch.setattr(
            "repro.sweep.fleet.launch_replica", lambda **kwargs: spawned.append(kwargs)
        )
        code = main([
            "fleet", "--kernel", "gemm", "--sizes", "8", "8", "8", "--replicas", "1",
            "--checkpoint-dir", str(tmp_path / "fleet"), "--lease-timeout", seconds,
        ])
        assert code == 1
        assert spawned == []
        assert_one_error_line(
            capsys, "tenet fleet: error: the lease timeout must be a positive, "
            f"finite number of seconds, got {float(seconds)}"
        )

    def test_fleet_passes_documented_replica_args_unchanged(
        self, capsys, tmp_path, monkeypatch
    ):
        import re

        from repro.sweep import FleetError

        with pytest.raises(SystemExit):
            main(["fleet", "--help"])
        help_text = " ".join(capsys.readouterr().out.split())
        forms = re.findall(r"e\.g\. (--replica-args [^)]*)\)", help_text)
        assert forms, "the --replica-args help shows no example"
        for form in forms:
            launched = []

            def launch_replica(**kwargs):
                launched.append(kwargs["args"])
                raise FleetError("launch recorded")

            monkeypatch.setattr("repro.sweep.fleet.launch_replica", launch_replica)
            code = main([
                "fleet", "--kernel", "gemm", "--sizes", "8", "8", "8", "--replicas", "1",
                "--checkpoint-dir", str(tmp_path / "fleet"), *form.split(),
            ])
            assert code == 1
            assert launched == [form.split()[1:]]
            assert_one_error_line(capsys, "tenet fleet: error: launch recorded")

    def test_serve_replies_with_the_size_error(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps({"kernel": "gemm", "sizes": [8, 8]}) + "\n")
        assert main(["serve", "--requests", str(requests)]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["error"] == f"SpaceError: {self.GEMM_SIZES}; got [8, 8]"

    def test_zero_candidate_cap_explores_nothing(self, capsys, tmp_path):
        import json

        assert main([
            "explore", "--kernel", "gemm", "--sizes", "8", "8", "8",
            "--max-candidates", "0",
        ]) == 0
        assert capsys.readouterr().out.startswith("explored 0 candidates")
        requests = tmp_path / "requests.jsonl"
        requests.write_text(json.dumps(
            {"kernel": "gemm", "sizes": [8, 8, 8], "max_candidates": 0}
        ) + "\n")
        assert main(["serve", "--requests", str(requests)]) == 0
        record = json.loads(capsys.readouterr().out.splitlines()[0])
        assert record["candidates"] == record["evaluated"] == 0


class TestShardedExplore:
    def _explore(self, *extra):
        return main([
            "explore", "--kernel", "gemm", "--sizes", "12", "12", "12",
            "--max-candidates", "8", "--top", "3", *extra,
        ])

    def test_explore_shard_and_checkpoint(self, capsys, tmp_path):
        full = tmp_path / "full.jsonl"
        assert self._explore("--checkpoint", str(full)) == 0
        reference = capsys.readouterr().out
        shard_paths = []
        for index in range(2):
            path = tmp_path / f"s{index}.jsonl"
            shard_paths.append(str(path))
            assert self._explore("--shard", f"{index}/2", "--checkpoint", str(path)) == 0
            assert "shard" in capsys.readouterr().out
        # Merged shard checkpoints render the same ranking as the full sweep.
        assert main(["sweep-merge", str(full)]) == 0
        merged_full = capsys.readouterr().out
        assert main(["sweep-merge", *shard_paths]) == 0
        merged_shards = capsys.readouterr().out
        assert merged_full == merged_shards
        assert "objective = latency" in reference

    def test_explore_resume(self, capsys, tmp_path):
        checkpoint = tmp_path / "sweep.jsonl"
        assert self._explore("--checkpoint", str(checkpoint)) == 0
        capsys.readouterr()
        assert self._explore("--checkpoint", str(checkpoint), "--resume") == 0
        assert "resumed" in capsys.readouterr().out

    def test_explore_invalid_shard(self, capsys):
        assert self._explore("--shard", "2/2") == 1
        assert_one_error_line(capsys, "tenet explore: error: invalid shard 2/2")

    def test_sweep_merge_empty(self, capsys, tmp_path):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        assert main(["sweep-merge", str(empty)]) == 1


class TestServeCommand:
    def test_serve_requests_file(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text(
            json.dumps({"kernel": "gemm", "sizes": [12, 12, 12],
                        "max_candidates": 4}) + "\n"
            + json.dumps({"kernel": "gemm", "sizes": [12, 12, 12],
                          "objective": "energy", "max_candidates": 4}) + "\n"
        )
        assert main(["serve", "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        records = [json.loads(line) for line in captured.out.splitlines() if line]
        assert len(records) == 2
        assert records[1]["engine_reused"] is True
        assert "served 2" in captured.err

    def test_serve_stats_reply(self, capsys, tmp_path):
        import json

        requests = tmp_path / "requests.jsonl"
        requests.write_text('{"cmd": "stats"}\n')
        assert main(["serve", "--requests", str(requests)]) == 0
        captured = capsys.readouterr()
        record = json.loads(captured.out.splitlines()[0])
        assert record["cmd"] == "stats"
        assert record["engine_reused_rate"] == 0.0
        assert record["relation_cache"]["misses"] == 0
        assert record["requests"]["submitted"] == 0
        assert record["requests"]["failed"] == 0


# -- which modules a command loads -----------------------------------------------

_SRC = str(Path(repro.__file__).resolve().parents[1])

#: Runs ``main(argv)`` for each JSON argv list on the command line and, after
#: each, prints the loaded modules on a ``modules:`` line; a first ``numpy:``
#: line says whether a bare ``import numpy`` loads ``numpy.ma``.
_REPORT_MODULES = """
import json, sys
import numpy
print("numpy:", json.dumps("numpy.ma" in sys.modules))
from repro.cli import main
for argv in sys.argv[1:]:
    assert main(json.loads(argv)) == 0
    print("modules:", json.dumps(sorted(sys.modules)))
"""

_DRIVER_LAYERS = (
    "repro.experiments", "repro.sim", "repro.maestro", "repro.workloads",
)


def _loaded_modules(*argvs):
    """``(numpy.ma with numpy alone, [modules after each argv])`` of one
    fresh interpreter that runs every ``argvs`` entry in turn."""
    completed = subprocess.run(
        [sys.executable, "-c", _REPORT_MODULES, *map(json.dumps, argvs)],
        env=dict(os.environ, PYTHONPATH=_SRC),
        capture_output=True, text=True, timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    reports = {"numpy:": [], "modules:": []}
    for line in completed.stdout.splitlines():
        tag, _, payload = line.partition(" ")
        if tag in reports:
            reports[tag].append(json.loads(payload))
    (numpy_loads_ma,) = reports["numpy:"]
    return numpy_loads_ma, [set(modules) for modules in reports["modules:"]]


def _under(modules, packages):
    return sorted(
        name for name in modules
        if any(name == package or name.startswith(package + ".") for package in packages)
    )


class TestImportSet:
    """A command loads its own layers only (module names, not timings)."""

    def test_explore_loads_no_driver_fleet_service_or_asyncio(self, tmp_path):
        numpy_loads_ma, (modules,) = _loaded_modules(
            ["explore", "--kernel", "conv2d", "--sizes", "8", "8", "6", "6", "3", "3",
             "--max-candidates", "1", "--checkpoint", str(tmp_path / "probe.jsonl")],
        )
        assert "repro.dse.explorer" in modules
        assert _under(modules, (
            *_DRIVER_LAYERS, "repro.sweep.fleet", "repro.sweep.net",
            "repro.sweep.server", "repro.sweep.client", "asyncio",
        )) == []
        if not numpy_loads_ma:
            # numpy 2's np.unique imports numpy.ma on its first call.
            assert "numpy.ma" not in modules

    def test_serve_loads_no_driver_fleet_or_client(self, tmp_path):
        nothing = tmp_path / "nothing.jsonl"
        nothing.write_text("")
        one = tmp_path / "one.jsonl"
        one.write_text(json.dumps({"kernel": "gemm", "sizes": [8, 8, 8],
                                   "max_candidates": 2}) + "\n")
        _, (idle, served) = _loaded_modules(
            ["serve", "--requests", str(nothing)], ["serve", "--requests", str(one)],
        )
        # What a request builds is imported before the first one arrives.
        assert {"repro.dse.pruning", "repro.tensor.kernels"} <= idle
        assert _under(served, (
            *_DRIVER_LAYERS, "repro.sweep.fleet", "repro.sweep.client",
        )) == []
