"""Shared helpers for the benchmark lane.

Every benchmark regenerates one table or figure of the paper via the drivers
in :mod:`repro.experiments`, prints the regenerated rows (so the benchmark log
doubles as the reproduced evaluation), and asserts the qualitative claim the
artefact supports.  A few benchmarks also gate a speed ratio; they time it
with :func:`interleaved_medians`, a median over interleaved rounds, which is
how every speed comparison in this repository is made (README "Benchmark"),
so a burst of load from another process cannot fail a gate on its own.  Wall
times per test appear with ``--durations``.
"""

from __future__ import annotations

import pathlib
import statistics
import time
from typing import Callable

import pytest


def pytest_collection_modifyitems(items):
    """Every benchmark regenerates a full evaluation artefact: mark them slow
    so the default CI lane (``-m "not slow"``) skips them.

    The hook sees the whole session's items, so restrict it to this directory.
    """
    here = pathlib.Path(__file__).parent
    for item in items:
        if here in pathlib.Path(str(item.fspath)).parents:
            item.add_marker(pytest.mark.slow)


def interleaved_medians(sides: dict[str, Callable[[], object]], rounds: int) -> dict[str, float]:
    """Median wall seconds of each side over ``rounds`` interleaved rounds.

    Each round runs every side once, in reverse order every other round, so
    no side always runs first and a slow phase of the machine lands on every
    side alike.  Prints each side's median with its min-max spread and
    returns ``{side: median seconds}``.
    """
    names = list(sides)
    seconds: dict[str, list[float]] = {name: [] for name in names}
    for round_index in range(rounds):
        for name in names if round_index % 2 == 0 else reversed(names):
            started = time.perf_counter()
            sides[name]()
            seconds[name].append(time.perf_counter() - started)
    medians = {name: statistics.median(times) for name, times in seconds.items()}
    for name, times in seconds.items():
        print(f"{name}: median {medians[name]:.3f} s "
              f"(min {min(times):.3f}, max {max(times):.3f}, {rounds} rounds)")
    return medians


@pytest.fixture
def show():
    """Print an ExperimentResult table so it lands in the benchmark output log."""

    def _show(result, max_rows: int | None = 40):
        print()
        print(result.table(max_rows=max_rows))
        return result

    return _show
