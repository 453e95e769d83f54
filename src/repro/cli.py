"""Command-line interface.

Examples::

    tenet catalog
    tenet analyze --kernel gemm --sizes 64 64 64 --dataflow "(IJ-P | J,IJK-T)" \
        --pe 8 8 --interconnect 2d-systolic --bandwidth 128
    tenet explore --kernel conv2d --sizes 16 16 7 7 3 3 --objective latency \
        --top 5
    tenet explore --kernel conv2d --sizes 16 16 7 7 3 3 --shard 0/2 \
        --checkpoint shard0.jsonl
    tenet sweep-merge shard0.jsonl shard1.jsonl --top 5
    echo '{"kernel": "gemm", "sizes": [32, 32, 32]}' | tenet serve
    tenet serve --listen 127.0.0.1:7077 --workers 4
    tenet experiment fig1 design-space table3
    tenet experiment --list
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from functools import partial
from typing import Callable, Sequence

from repro._version import __version__
from repro.arch.spec import make_arch
from repro.core.backends import BACKEND_NAMES
from repro.core.engine import OBJECTIVES
from repro.errors import ExplorationError, TenetError
from repro.dse.pruning import pruned_candidates  # perfbench's tracer wraps this name
from repro.sweep import faults as sweep_faults
from repro.tensor.kernels import make_kernel

# The parser and the explore path need the names above.  Every other layer
# is imported by the handler that runs it, so a command loads only its own:
# ``explore`` and ``serve`` never load the figure drivers, the simulator,
# MAESTRO or the workload tables.


def _run_driver(module: str) -> object:
    """Import the driver ``repro.experiments.<module>`` and run it."""
    return importlib.import_module(f"repro.experiments.{module}").run()


EXPERIMENTS: dict[str, Callable[[], object]] = {
    "table1": partial(_run_driver, "table1_features"),
    "fig1": partial(_run_driver, "fig1_reuse_example"),
    "design-space": partial(_run_driver, "design_space_size"),
    "table3": partial(_run_driver, "table3_notations"),
    "fig6": partial(_run_driver, "fig6_latency_bandwidth"),
    "fig7": partial(_run_driver, "fig7_large_apps"),
    "fig8": partial(_run_driver, "fig8_runtime"),
    "fig9": partial(_run_driver, "fig9_metrics"),
    "fig10": partial(_run_driver, "fig10_bandwidth"),
    "fig11": partial(_run_driver, "fig11_accuracy"),
    "fig12": partial(_run_driver, "fig12_reuse"),
    "dse": partial(_run_driver, "dse_experiment"),
}


def _cmd_catalog(_: argparse.Namespace) -> int:
    from repro.dataflows.catalog import all_entries

    for entry in all_entries():
        marker = "data-centric ok" if entry.data_centric_expressible else "TENET-only"
        pe = "x".join(str(d) for d in entry.preferred_pe_dims)
        print(f"{entry.kernel:9s} {entry.name:24s} [{pe:>6s} PEs] [{marker}] {entry.description}")
    return 0


def _fail(command: str, error: Exception) -> int:
    """Report ``error`` as one ``tenet <command>: error:`` line on stderr."""
    # str() of a KeyError quotes its message; print the message itself.
    message = error.args[0] if isinstance(error, KeyError) and error.args else error
    print(f"tenet {command}: error: {message}", file=sys.stderr)
    return 1


def _check_counts(args: argparse.Namespace, minimums: dict[str, int]) -> None:
    """Refuse a count option below its minimum (``serve`` refuses the same
    request fields)."""
    for name, minimum in minimums.items():
        value = getattr(args, name)
        if value is not None and value < minimum:
            raise ExplorationError(
                f"--{name.replace('_', '-')} must be at least {minimum}, got {value}"
            )


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.analyzer import analyze
    from repro.dataflows.catalog import get_dataflow

    try:
        op = make_kernel(args.kernel, args.sizes)
        dataflow = get_dataflow(args.kernel, args.dataflow)
    except (TenetError, KeyError) as error:  # KeyError: unknown kernel or dataflow
        return _fail("analyze", error)
    try:
        arch = make_arch(
            pe_dims=tuple(args.pe),
            interconnect=args.interconnect,
            bandwidth_bits=args.bandwidth,
        )
        report = analyze(op, dataflow, arch, max_instances=args.max_instances)
    except TenetError as error:
        return _fail("analyze", error)
    print(report.summary())
    return 0


def _cmd_explore(args: argparse.Namespace) -> int:
    from repro.dse.explorer import DesignSpaceExplorer
    from repro.sweep.source import parse_shard

    if len(args.pe) != 2:
        print("tenet explore: error: --pe takes exactly two extents (rows cols), "
              f"got {args.pe}", file=sys.stderr)
        return 1
    try:
        _check_counts(args, {"top": 0, "max_candidates": 0})
        op = make_kernel(args.kernel, args.sizes)
    except (TenetError, KeyError) as error:  # KeyError: unknown kernel
        return _fail("explore", error)
    try:
        arch = make_arch(
            pe_dims=tuple(args.pe),
            interconnect=args.interconnect,
            bandwidth_bits=args.bandwidth,
        )
        shard = parse_shard(args.shard) if args.shard else None
        explorer = DesignSpaceExplorer(
            op,
            arch,
            objective=args.objective,
            max_instances=args.max_instances,
            backend=args.backend,
        )
        candidates = pruned_candidates(
            op,
            pe_dims=tuple(args.pe),
            allow_packing=not args.no_packing,
            max_candidates=args.max_candidates,
        )
        result = explorer.explore(
            candidates,
            early_termination=args.early_termination,
            shard=shard,
            checkpoint=args.checkpoint,
            resume=args.resume,
            # The in-memory ranking is bounded to what gets printed; the JSONL
            # checkpoint (when given) stays the full per-candidate record.
            # ``--top 0`` keeps the historical unbounded behaviour (print nothing).
            top_k=args.top if args.top > 0 else None,
            checkpoint_fsync=args.checkpoint_fsync if args.checkpoint_fsync > 0 else None,
        )
    except (TenetError, OSError) as error:
        # Bad architecture or shard, or a checkpoint that exists, belongs to
        # another sweep or cannot be opened.
        return _fail("explore", error)
    print(result.summary(count=args.top))
    stats = explorer.engine.stats
    cache_stats = explorer.engine.cache_stats()
    print(
        f"engine: {stats['evaluated']} evaluated, {stats['memo_hits']} memo hits, "
        f"{stats['pruned']} pruned, {stats['failures']} invalid "
        f"(backend={args.backend})"
    )
    print(f"relation cache: {cache_stats['hits']} hits, {cache_stats['misses']} misses")
    if args.profile:
        engine = explorer.engine
        stages = engine.profile()
        total = sum(stages.values()) or 1.0
        print(f"profile (per-stage wall clock; backend={engine.backend.name}):")
        for name, seconds in sorted(stages.items(), key=lambda kv: -kv[1]):
            print(f"  {name:12s} {seconds:8.3f}s  {100 * seconds / total:5.1f}%")
        kernel_stats = {
            key: stats[key]
            for key in (
                "fast_path", "fused_path", "reference_path", "stamp_fallback_exprs",
                "grid_cells", "direction_builds",
            )
            if stats.get(key)
        }
        if kernel_stats:
            print(f"  kernels: {kernel_stats}")
    if args.profile_json:
        engine = explorer.engine
        payload = {
            "command": "explore",
            "kernel": args.kernel,
            "sizes": list(args.sizes),
            "objective": args.objective,
            "backend": engine.backend_name,
            "stages": {k: round(v, 6) for k, v in engine.profile().items()},
            "stats": dict(engine.stats),
            "relation_cache": engine.cache_stats(),
            "sweep": {
                "candidates": result.num_candidates,
                "evaluated": result.evaluated_count,
                "invalid": len(result.failures),
                "pruned": len(result.pruned),
                "duplicates": result.duplicates,
                "skipped": result.skipped,
                "batches": result.batches,
                "seconds": round(result.seconds, 6),
            },
        }
        with open(args.profile_json, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.sweep.net import (
        format_announce,
        iter_lines,
        parse_listen,
        run_tcp_server,
        serve_lines,
    )

    options = dict(
        backend=args.backend,
        max_workers=args.workers,
        queue_depth=args.queue_depth,
        request_timeout=args.request_timeout,
        checkpoint_root=args.checkpoint_root,
    )

    def announce(bound_host: str, bound_port: int) -> None:
        # Parsed by the fleet coordinator and the CI smoke scripts to
        # discover an ephemeral (port 0) bind; the format lives in
        # repro.sweep.net next to its parser so they cannot drift.
        print(format_announce(bound_host, bound_port), file=sys.stderr, flush=True)

    try:
        if args.listen is not None:
            host, port = parse_listen(args.listen)
            served = run_tcp_server(host, port, announce=announce, **options)
        elif args.requests == "-":
            # readline-based iteration: responses stream per line and a final
            # unterminated request line is still served (torn-line tolerance).
            served = serve_lines(iter_lines(sys.stdin), **options)
        else:
            with open(args.requests, "r", encoding="utf-8") as stream:
                served = serve_lines(iter_lines(stream), **options)
    except (TenetError, OSError) as error:
        # A bad --listen address or an unreadable --requests file.
        return _fail("serve", error)
    print(f"served {served} sweep request(s)", file=sys.stderr)
    return 0


def _cmd_sweep_merge(args: argparse.Namespace) -> int:
    from repro.sweep.sinks import load_ranking, render_ranking

    try:
        _check_counts(args, {"top": 0})
        ranking = load_ranking(args.checkpoints)
    except (TenetError, OSError) as error:
        # A negative --top, a missing file, or checkpoints of different sweeps.
        return _fail("sweep-merge", error)
    if not ranking:
        print("(no evaluated candidates in the given checkpoints)")
        return 1
    print(render_ranking(ranking, top=args.top))
    return 0


def _cmd_fleet(args: argparse.Namespace) -> int:
    from repro.sweep.fleet import FleetCoordinator, parse_attach

    if len(args.pe) != 2:
        print("tenet fleet: error: --pe takes exactly two extents (rows cols), "
              f"got {args.pe}", file=sys.stderr)
        return 1
    request = {
        "kernel": args.kernel,
        "sizes": list(args.sizes),
        "objective": args.objective,
        "pe": list(args.pe),
        "interconnect": args.interconnect,
        "bandwidth": args.bandwidth,
        "max_candidates": args.max_candidates,
        "top": args.top,
    }
    if args.early_termination:
        request["early_termination"] = True
    try:
        attach = parse_attach(args.attach) if args.attach else []
        if args.shards is not None:
            shards = args.shards
        else:
            # 2x oversharding by default: losing a replica mid-lease costs at
            # most one lease of progress, and stragglers rebalance.
            shards = max(1, 2 * (args.replicas + len(attach)))
        coordinator = FleetCoordinator(
            request,
            shards=shards,
            checkpoint_dir=args.checkpoint_dir,
            replicas=args.replicas,
            attach=attach,
            replica_args=args.replica_args,
            lease_timeout=args.lease_timeout,
            heartbeat_interval=args.heartbeat_interval,
            max_consecutive_failures=args.max_failures,
        )
    except (TenetError, KeyError) as error:  # KeyError: unknown kernel
        # The coordinator builds the request's operation before it spawns
        # a replica, so bad sizes or names stop here.
        return _fail("fleet", error)
    try:
        result = coordinator.run()
    except ExplorationError as error:
        # FleetError included: all-replicas-evicted leaves the lease
        # checkpoints on disk, so the same command resumes the fleet.
        return _fail("fleet", error)
    print(result.summary(count=args.top))
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    if args.list or not args.names:
        print("available experiments:", ", ".join(sorted(EXPERIMENTS)))
        return 0
    for name in args.names:
        if name not in EXPERIMENTS:
            print(f"unknown experiment {name!r}; available: {', '.join(sorted(EXPERIMENTS))}")
            return 1
        result = EXPERIMENTS[name]()
        print(result.table())
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tenet",
        description="TENET: relation-centric tensor dataflow modeling (ISCA 2021 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"tenet {__version__}")
    subparsers = parser.add_subparsers(dest="command")

    catalog = subparsers.add_parser("catalog", help="list the Table III dataflow catalog")
    catalog.set_defaults(handler=_cmd_catalog)

    analyze_cmd = subparsers.add_parser("analyze", help="analyze one dataflow")
    analyze_cmd.add_argument("--kernel", required=True,
                             help="gemm, conv2d, mttkrp, mmc, jacobi2d, conv1d")
    analyze_cmd.add_argument("--sizes", type=int, nargs="+", required=True,
                             help="loop extents, e.g. 64 64 64 for GEMM")
    analyze_cmd.add_argument("--dataflow", required=True,
                             help="catalog name, e.g. '(IJ-P | J,IJK-T)'")
    analyze_cmd.add_argument("--pe", type=int, nargs="+", default=[8, 8])
    analyze_cmd.add_argument("--interconnect", default="2d-systolic")
    analyze_cmd.add_argument("--bandwidth", type=float, default=128.0)
    analyze_cmd.add_argument("--max-instances", type=int, default=8_000_000)
    analyze_cmd.set_defaults(handler=_cmd_analyze)

    explore = subparsers.add_parser(
        "explore", help="sweep the pruned dataflow design space for one kernel"
    )
    explore.add_argument("--kernel", required=True,
                         help="gemm, conv2d, mttkrp, mmc, jacobi2d, conv1d")
    explore.add_argument("--sizes", type=int, nargs="+", required=True,
                         help="loop extents, e.g. 64 64 64 for GEMM")
    explore.add_argument("--pe", type=int, nargs="+", default=[8, 8])
    explore.add_argument("--interconnect", default="2d-systolic")
    explore.add_argument("--bandwidth", type=float, default=128.0)
    explore.add_argument("--objective", default="latency", choices=sorted(OBJECTIVES),
                         help="ranking objective")
    explore.add_argument("--backend", default="fused", choices=list(BACKEND_NAMES),
                         help="evaluation backend: fused is the per-axis stamp "
                              "and stamp-grid path, interp the interpreted "
                              "reference; reports are bit-identical either way")
    explore.add_argument("--top", type=int, default=5,
                         help="how many best dataflows to print; also bounds the "
                              "in-memory ranking (the checkpoint keeps the full record)")
    explore.add_argument("--profile-json", default=None, metavar="PATH",
                         help="write per-stage timers, engine stats and sweep "
                              "counters as JSON to PATH (machine-readable "
                              "--profile, diffable in CI)")
    explore.add_argument("--profile", action="store_true",
                         help="print the per-stage timing breakdown (materialise / "
                              "stamps / volumes / rank) after the sweep")
    explore.add_argument("--max-candidates", type=int, default=64,
                         help="cap on generated candidate dataflows")
    explore.add_argument("--max-instances", type=int, default=4_000_000)
    explore.add_argument("--no-packing", action="store_true",
                         help="skip the packed (Eyeriss-style) candidate family")
    explore.add_argument("--early-termination", action="store_true",
                         help="skip metric computation for provably worse candidates "
                              "(latency/edp bound from the compute delay, sbw/"
                              "unique_volume from tensor footprints; only the best "
                              "rank is guaranteed, lower ranks may be pruned)")
    explore.add_argument("--shard", default=None, metavar="I/N",
                         help="sweep only the deterministic I-th of N signature-hash "
                              "partitions (run one shard per machine, no coordination)")
    explore.add_argument("--checkpoint", default=None, metavar="PATH",
                         help="record per-candidate results in a JSONL checkpoint "
                              "(merge shards or resume with it; an existing "
                              "checkpoint is refused unless --resume)")
    explore.add_argument("--resume", action="store_true",
                         help="skip candidates already recorded in --checkpoint")
    explore.add_argument("--checkpoint-fsync", type=int, default=0, metavar="N",
                         help="fsync the checkpoint every N result records (0 = "
                              "flush only); bounds what an OS crash can lose")
    explore.set_defaults(handler=_cmd_explore)

    serve = subparsers.add_parser(
        "serve",
        help="service queued sweep requests on warm engines (one JSON request "
             "per line in, one JSON result per line out)",
    )
    serve.add_argument("--requests", default="-", metavar="PATH",
                       help="file with one JSON sweep request per line ('-' = stdin)")
    serve.add_argument("--listen", default=None, metavar="HOST:PORT",
                       help="serve the same line protocol over TCP instead of "
                            "stdio (port 0 = ephemeral; the bound address is "
                            "printed to stderr; SIGTERM drains gracefully)")
    serve.add_argument("--workers", type=int, default=2,
                       help="sweep requests run concurrently across all client "
                            "connections (thread pool size)")
    serve.add_argument("--queue-depth", type=int, default=64,
                       help="queued requests per connection before the server "
                            "replies with a structured overload error")
    serve.add_argument("--request-timeout", type=float, default=None, metavar="SECS",
                       help="per-request watchdog: a request running longer gets "
                            "a structured 'code: timeout' reply instead of "
                            "hanging its connection (default: no watchdog)")
    serve.add_argument("--backend", default="fused", choices=list(BACKEND_NAMES))
    serve.add_argument("--checkpoint-root", default=None, metavar="DIR",
                       help="directory for server-side JSONL sweep checkpoints; "
                            "requests may then name a checkpoint (relative, "
                            "confined to this directory) and resume it — how "
                            "fleet replicas make leases durable (default: "
                            "checkpointed requests are refused)")
    serve.set_defaults(handler=_cmd_serve)

    fleet = subparsers.add_parser(
        "fleet",
        help="drive one sweep across N serve replicas as M checkpointed shard "
             "leases with work stealing (bit-identical to a single-node run)",
    )
    fleet.add_argument("--kernel", required=True,
                       help="gemm, conv2d, mttkrp, mmc, jacobi2d, conv1d")
    fleet.add_argument("--sizes", type=int, nargs="+", required=True,
                       help="loop extents, e.g. 64 64 64 for GEMM")
    fleet.add_argument("--pe", type=int, nargs="+", default=[8, 8])
    fleet.add_argument("--interconnect", default="2d-systolic")
    fleet.add_argument("--bandwidth", type=float, default=128.0)
    fleet.add_argument("--objective", default="latency", choices=sorted(OBJECTIVES))
    fleet.add_argument("--max-candidates", type=int, default=64,
                       help="cap on generated candidate dataflows")
    fleet.add_argument("--top", type=int, default=5,
                       help="how many best dataflows each lease reports and "
                            "the merged summary prints")
    fleet.add_argument("--early-termination", action="store_true",
                       help="see 'tenet explore --early-termination'")
    fleet.add_argument("--replicas", type=int, default=0, metavar="N",
                       help="spawn N local 'tenet serve --listen' replicas "
                            "sharing --checkpoint-dir (torn down at exit)")
    fleet.add_argument("--attach", default=None, metavar="HOST:PORT,...",
                       help="drive these already-running replicas instead of "
                            "(or in addition to) spawning; they must have been "
                            "started with --checkpoint-root --checkpoint-dir")
    fleet.add_argument("--shards", type=int, default=None, metavar="M",
                       help="partition the candidate space into M leases "
                            "(default: 2x the replica count, so a slow replica "
                            "cannot stall more than half the work)")
    fleet.add_argument("--checkpoint-dir", required=True, metavar="DIR",
                       help="shared directory for per-lease JSONL checkpoints; "
                            "re-running the same fleet command resumes from it")
    fleet.add_argument("--lease-timeout", type=float, default=600.0, metavar="SECS",
                       help="a lease unanswered this long is revoked and "
                            "re-issued to another replica")
    fleet.add_argument("--heartbeat-interval", type=float, default=2.0,
                       metavar="SECS",
                       help="stats-poll heartbeat period for replica health "
                            "tracking (0 disables the monitor)")
    fleet.add_argument("--max-failures", type=int, default=2, metavar="N",
                       help="consecutive lease or heartbeat failures before a "
                            "replica is evicted")
    fleet.add_argument("--replica-args", nargs=argparse.REMAINDER, default=[],
                       help="every argument after this flag goes to each "
                            "spawned 'tenet serve', so it comes last (e.g. "
                            "--replica-args --workers 4)")
    fleet.set_defaults(handler=_cmd_fleet)

    merge = subparsers.add_parser(
        "sweep-merge",
        help="merge sweep checkpoint files (e.g. one per shard) into one ranking",
    )
    merge.add_argument("checkpoints", nargs="+", help="JSONL checkpoint files")
    merge.add_argument("--top", type=int, default=None,
                       help="print only the best N candidates")
    merge.set_defaults(handler=_cmd_sweep_merge)

    experiment = subparsers.add_parser("experiment", help="run evaluation experiments")
    experiment.add_argument("names", nargs="*", help="experiment names (see --list)")
    experiment.add_argument("--list", action="store_true", help="list available experiments")
    experiment.set_defaults(handler=_cmd_experiment)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    # Deterministic chaos: a JSON fault plan in $TENET_FAULTS arms the fault
    # injector for this process (how the chaos smoke crashes a real server
    # subprocess on the N-th request).  Unset, this is a no-op.
    sweep_faults.install_from_env()
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "handler", None):
        parser.print_help()
        return 0
    return args.handler(args)


if __name__ == "__main__":
    sys.exit(main())
