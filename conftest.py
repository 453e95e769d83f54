"""Root pytest configuration: benchmark trajectory output.

``--bench-json PATH`` makes the session write every record collected through
the :func:`bench_record` fixture (timings, speedups, engine stats from the
benchmarks) to ``PATH`` as JSON.  The option is opt-in: without it a session
writes no file, so local test runs never rewrite the committed
``BENCH_engine.json``; sessions that collect no records (the fast test lane)
leave the file untouched either way.

Existing entries are **merged, not overwritten**: records replace same-named
benchmarks and every other benchmark's last measurement survives, so the file
accumulates the cross-PR perf trajectory even when only a subset of
benchmarks runs.  CI's benchmark lane passes the committed file explicitly
and uploads it as an artifact; to refresh it locally::

    PYTHONPATH=src python -m pytest -m slow benchmarks --bench-json BENCH_engine.json
"""

from __future__ import annotations

import json
import pathlib
import time

import pytest

BENCH_RECORDS_KEY = pytest.StashKey()


def pytest_addoption(parser):
    parser.addoption(
        "--bench-json",
        action="store",
        default=None,
        metavar="PATH",
        help="write benchmark timing records to PATH as JSON (default: no "
             "file; existing entries are merged by benchmark name, not "
             "overwritten)",
    )


def pytest_configure(config):
    config.stash[BENCH_RECORDS_KEY] = []


@pytest.fixture
def bench_record(request):
    """Record one named benchmark measurement for the --bench-json trajectory."""
    records = request.config.stash[BENCH_RECORDS_KEY]

    def _record(name: str, **fields):
        entry = {"benchmark": name, **fields}
        records.append(entry)
        return entry

    return _record


def merge_bench_records(existing: dict, records: list[dict]) -> dict:
    """Replace same-named records, keep the rest of the trajectory."""
    merged: dict[str, dict] = {}
    for record in existing.get("records", []):
        name = record.get("benchmark")
        if name:
            merged[name] = record
    for record in records:
        merged[record["benchmark"]] = record
    return {
        "created": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "records": sorted(merged.values(), key=lambda r: r["benchmark"]),
    }


def pytest_sessionfinish(session, exitstatus):
    target = session.config.getoption("--bench-json")
    if target is None:
        return
    records = session.config.stash.get(BENCH_RECORDS_KEY, [])
    if not records:
        # Nothing measured this session (e.g. the fast lane); never clobber
        # the committed trajectory with an empty file.
        return
    if exitstatus != 0:
        # A failing session must not rewrite the committed baseline with the
        # very numbers whose assertions just failed.
        return
    path = pathlib.Path(target)
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            existing = {}
    payload = merge_bench_records(existing, records)
    path.write_text(json.dumps(payload, indent=2) + "\n")
