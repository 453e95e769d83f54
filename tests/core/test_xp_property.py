"""Property-based differential test: fused reports against the reference.

Hypothesis draws random GEMM dataflows over uniform-block PE windows —
space-axis pairs, time-stamp orders, skews into the inner time stamp — and
asserts the fused backend's reports are *byte-identical* (JSON-serialised,
sorted keys) to the interpreted reference backend's, on each interconnect.

Engines are cached per (operation size, interconnect, backend): hypothesis
re-draws candidates, not warm-up work.
"""

import json

import pytest

try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # pragma: no cover - hypothesis ships with the dev env
    pytest.skip("hypothesis not installed", allow_module_level=True)

from repro.core.dataflow import Dataflow
from repro.core.engine import EvaluationEngine
from repro.experiments.common import make_arch
from repro.isl.expr import var
from repro.tensor.kernels import gemm

from tests.core.test_backends import report_dict

PE_DIMS = (4, 4)
INTERCONNECTS = ("2d-systolic", "mesh", "multicast")
_ENGINES: dict[tuple[int, str, str], EvaluationEngine] = {}


def _engine(size: int, interconnect: str, backend: str) -> EvaluationEngine:
    key = (size, interconnect, backend)
    engine = _ENGINES.get(key)
    if engine is None:
        arch = make_arch(pe_dims=PE_DIMS, interconnect=interconnect)
        engine = EvaluationEngine(gemm(size, size, size), arch, backend=backend)
        _ENGINES[key] = engine
    return engine


def _candidate(op, first, second, order, skew):
    rows, cols = PE_DIMS
    dims = list(op.loop_dims)
    remaining = [dim for dim in dims if dim not in (first, second)]
    space = [var(first) % rows, var(second) % cols]
    base = [var(remaining[0]), var(first) // rows, var(second) // cols]
    time_exprs = [base[index] for index in order]
    inner = time_exprs[-1]
    if skew & 1:
        inner = inner + space[0]
    if skew & 2:
        inner = inner + space[1]
    time_exprs = time_exprs[:-1] + [inner]
    name = f"({first}{second}-P|{''.join(map(str, order))}s{skew}-T)"
    return Dataflow.from_exprs(name, op.domain.space, space, time_exprs)


axis_pairs = st.sampled_from([("i", "j"), ("i", "k"), ("j", "i"),
                              ("j", "k"), ("k", "i"), ("k", "j")])
orders = st.permutations(range(3))
skews = st.integers(min_value=0, max_value=3)
sizes = st.sampled_from([8, 12])


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(size=sizes, pair=axis_pairs, order=orders, skew=skews)
@settings(max_examples=30, deadline=None)
def test_fused_reports_byte_identical_to_interp(interconnect, size, pair, order, skew):
    reference_engine = _engine(size, interconnect, "interp")
    candidate = _candidate(reference_engine.op, pair[0], pair[1], tuple(order), skew)
    reference = json.dumps(
        report_dict(reference_engine.evaluate(candidate)), sort_keys=True
    ).encode()
    encoded = json.dumps(
        report_dict(_engine(size, interconnect, "fused").evaluate(candidate)),
        sort_keys=True,
    ).encode()
    assert encoded == reference, f"fused diverged from interp for {candidate.name}"
