"""Fail when sweep throughput regresses against the committed trajectory.

Used by the CI ``bench-regression`` job: the gemm48 sweep benchmark writes a
fresh ``--bench-json`` file, and this script compares it against the
committed ``BENCH_engine.json`` baseline.

Two metrics are compared against the tolerance (default 20%):

* ``fused_candidates_per_sec`` — the absolute throughput headline, and
* ``fused_speedup_vs_interp`` — fused-vs-interp measured in the *same* run,
  which is machine-class invariant.

One structural invariant is additionally asserted on the *current* file
alone: when the fleet benchmark records ``fleet_speedup`` (3 replicas versus
1 with an injected per-lease delay), a ratio under 1.4 fails outright — the
coordinator's lease dispatch must overlap across replicas, and the injected
delay makes that ratio machine-class invariant too.

The machine-invariant ratio is the authoritative gate whenever both files
record it: a regressed ratio fails even on a runner fast enough to keep the
absolute number above the floor, and a slower runner with a healthy ratio
passes (with a note to refresh the baseline).  When the ratio is absent the
absolute number gates alone.

Usage::

    python benchmarks/check_bench_regression.py \
        --baseline BENCH_engine.json --current fresh_bench.json
"""

from __future__ import annotations

import argparse
import json
import sys

DEFAULT_BENCHMARK = "engine_sweep_gemm48x100"


def load_records(path: str) -> dict[str, dict]:
    """Records keyed by benchmark name (last record wins, like the conftest merge)."""
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    return {
        record["benchmark"]: record
        for record in payload.get("records", [])
        if "benchmark" in record
    }


def load_metric(path: str, benchmark: str, field: str) -> float | None:
    record = load_records(path).get(benchmark)
    if record is not None and field in record:
        return float(record[field])
    return None


def compare(name: str, baseline: float, current: float, tolerance: float) -> bool:
    """Print one metric's verdict; returns True when within tolerance."""
    floor = baseline * (1.0 - tolerance)
    ok = current >= floor
    print(
        f"{name}: baseline {baseline:.2f}, current {current:.2f}, "
        f"floor {floor:.2f} -> {'ok' if ok else 'regressed'}"
    )
    return ok


FLEET_BENCHMARK = "fleet_gemm48"
#: The delay-injected 3-replica dispatch overlap sits near 3x by
#: construction (6 half-second leases, three in flight); 1.4 leaves ample
#: noise headroom while still failing any collapse back towards serial
#: dispatch.
FLEET_NOISE_FLOOR = 1.4


def check_fleet_speedup(current_records: dict[str, dict]) -> bool:
    """Fleet lease dispatch must overlap across replicas; returns True when
    sound.  This is structural on the *current* run alone: the injected
    per-lease delay makes the ratio machine-class invariant, so no baseline
    comparison is needed."""
    record = current_records.get(FLEET_BENCHMARK)
    if record is None or "fleet_speedup" not in record:
        print(f"no {FLEET_BENCHMARK!r} fleet_speedup in the current run; "
              "fleet gate skipped")
        return True
    speedup = float(record["fleet_speedup"])
    ok = speedup >= FLEET_NOISE_FLOOR
    print(f"{FLEET_BENCHMARK}.fleet_speedup: {speedup:.2f} "
          f"(floor {FLEET_NOISE_FLOOR}) "
          f"-> {'ok' if ok else 'fleet dispatch no longer overlaps'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_engine.json trajectory")
    parser.add_argument("--current", required=True,
                        help="freshly measured --bench-json file")
    parser.add_argument("--benchmark", default=DEFAULT_BENCHMARK)
    parser.add_argument("--field", default="fused_candidates_per_sec",
                        help="absolute throughput field")
    parser.add_argument("--ratio-field", default="fused_speedup_vs_interp",
                        help="machine-invariant ratio field (empty to disable)")
    parser.add_argument("--tolerance", type=float, default=0.20,
                        help="allowed fractional drop before failing (0.20 = 20%%)")
    args = parser.parse_args(argv)

    current_records = load_records(args.current)
    if not current_records:
        print(f"error: {args.current} has no benchmark records")
        return 2
    baseline_records = load_records(args.baseline)

    if not check_fleet_speedup(current_records):
        print(
            "the 3-replica fleet stopped overlapping its lease dispatches: "
            "leases are being serviced serially again; investigate the "
            "coordinator's worker scheduling before merging"
        )
        return 1

    # Gate only on benchmarks present in BOTH files: a record renamed or
    # newly added on one side is a trajectory change to note, not a failure.
    if args.benchmark not in current_records:
        print(f"{args.current} has no {args.benchmark!r} record "
              f"(has: {', '.join(sorted(current_records))}); nothing to gate")
        return 0
    if args.benchmark not in baseline_records:
        # First run on a branch without a committed record: nothing to gate.
        print(f"no committed baseline for {args.benchmark!r}; recording only")
        return 0

    current_record = current_records[args.benchmark]
    baseline_record = baseline_records[args.benchmark]
    if args.field not in current_record or args.field not in baseline_record:
        missing = args.current if args.field not in current_record else args.baseline
        print(f"{missing} records {args.benchmark!r} without field "
              f"{args.field!r}; nothing to gate")
        return 0

    absolute_ok = compare(
        f"{args.benchmark}.{args.field}",
        float(baseline_record[args.field]),
        float(current_record[args.field]),
        args.tolerance,
    )
    ratio_ok = None
    if args.ratio_field:
        if (args.ratio_field in baseline_record
                and args.ratio_field in current_record):
            ratio_ok = compare(
                f"{args.benchmark}.{args.ratio_field}",
                float(baseline_record[args.ratio_field]),
                float(current_record[args.ratio_field]),
                args.tolerance,
            )

    if ratio_ok is False:
        print(
            f"the machine-invariant fused-vs-interp ratio regressed more than "
            f"{args.tolerance:.0%} versus the committed baseline — a code "
            "regression, whatever the runner class; investigate before merging"
        )
        return 1
    if not absolute_ok and ratio_ok is None:
        print(
            f"throughput regressed more than {args.tolerance:.0%} versus the "
            "committed BENCH_engine.json (no ratio metric available to rule "
            "out a machine-class difference); investigate before merging"
        )
        return 1
    if not absolute_ok:
        print(
            "absolute throughput is below the committed baseline but the "
            "fused-vs-interp ratio is healthy: machine-class difference, "
            "not a regression (refresh BENCH_engine.json from this machine "
            "class to tighten the gate)"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
