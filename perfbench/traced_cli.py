"""``tenet`` with the benchmark's layer wrappers installed.

Traced runs start their child processes (``tenet explore``, ``tenet fleet``
and every ``tenet serve`` replica) through this script instead of ``python -m
repro.cli``::

    PERFBENCH_TRACE_DIR=DIR python perfbench/traced_cli.py explore --kernel ...

It times the import of :mod:`repro.cli` (``cli.import_s``), installs the same
wrappers :mod:`benchtrace` installs in-process, runs ``repro.cli.main`` and,
however the command ends, writes the spans and counters to
``DIR/trace-<pid>.json``.
"""

import os
import sys
import time

started = time.perf_counter()
import repro.cli  # noqa: E402 - the import is the thing being timed

import_seconds = time.perf_counter() - started

import benchtrace  # noqa: E402


def main() -> int:
    tracer = benchtrace.Tracer()
    tracer.count("cli.import_s", import_seconds)
    uninstall = benchtrace.install(tracer)
    try:
        return repro.cli.main(sys.argv[1:])
    finally:
        uninstall()
        tracer.dump(os.environ[benchtrace.TRACE_DIR_ENV])


if __name__ == "__main__":
    sys.exit(main())
