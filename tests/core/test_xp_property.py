"""Property-based differential test: fused reports against the reference.

Hypothesis draws random GEMM and Jacobi-2D dataflows over uniform-block PE
windows — space-axis orders, time-stamp orders, skews into the inner time
stamp — on random PE arrays, interconnects and temporal intervals, and
asserts the fused backend's reports are *byte-identical* (JSON-serialised,
sorted keys) to the interpreted reference backend's.  Jacobi-2D's input is
read through five references, so its family exercises the grid kernel's
per-reference grids.  A third family bends the GEMM candidates into each
case the fused backend's per-axis stamps hand on: a strided time stamp (a
key that is not dense), a space stamp over two loop variables (an
expression that does not split), a dropped time axis (not injective) and a
triangular domain (not a box).

Engines are cached per (kernel, operation size, PE array, interconnect,
temporal interval, backend): hypothesis re-draws candidates, not warm-up
work.
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
from repro.tensor.kernels import gemm, jacobi2d

from tests.core.test_backends import report_dict, triangular_gemm

PE_ARRAYS = ((4, 4), (3, 5), (2, 6))
INTERCONNECTS = (
    "1d-systolic", "2d-systolic", "mesh", "multicast", "2d-multicast",
    "reduction-tree", "none",
)
_ENGINES: dict[tuple, EvaluationEngine] = {}


KERNELS = {
    "gemm": lambda size: gemm(size, size, size),
    "jacobi2d": lambda size: jacobi2d(size, size),
    "tri-gemm": triangular_gemm,
}


def _engine(
    kernel, size, pe_dims, interconnect, temporal_interval, backend
) -> EvaluationEngine:
    key = (kernel, size, pe_dims, interconnect, temporal_interval, backend)
    engine = _ENGINES.get(key)
    if engine is None:
        arch = make_arch(pe_dims=pe_dims, interconnect=interconnect)
        engine = EvaluationEngine(
            KERNELS[kernel](size), arch, backend=backend,
            temporal_interval=temporal_interval,
        )
        _ENGINES[key] = engine
    return engine


def _assert_byte_identical(kernel, size, pe_dims, interconnect, temporal_interval, build):
    engines = {
        backend: _engine(kernel, size, pe_dims, interconnect, temporal_interval, backend)
        for backend in ("interp", "fused")
    }
    candidate = build(engines["interp"].op)
    reference, encoded = (
        json.dumps(report_dict(engines[backend].evaluate(candidate)), sort_keys=True).encode()
        for backend in ("interp", "fused")
    )
    assert encoded == reference, (
        f"fused diverged from interp for {kernel} {candidate.name} on {pe_dims} "
        f"{interconnect}, temporal interval {temporal_interval}"
    )


def _candidate(op, pe_dims, first, second, order, skew, fallback=None):
    """``first``/``second`` tile the PE rows/columns.  The time stamps are
    the remaining loop dimensions (GEMM's third, none for Jacobi-2D) and the
    two block indices, in ``order``, the inner one skewed by the space stamps
    the bits of ``skew`` select.  ``fallback`` strides the remaining
    dimension by 2 (``"strided"``), folds ``second`` into the first space
    stamp (``"non-separable"``) or drops the remaining dimension
    (``"dropped"``)."""
    rows, cols = pe_dims
    space = [var(first) % rows, var(second) % cols]
    if fallback == "non-separable":
        space[0] = (var(first) + var(second)) % rows
    remaining = [var(dim) for dim in op.loop_dims if dim not in (first, second)]
    if fallback == "strided":
        remaining = [2 * dim for dim in remaining]
    base = remaining + [var(first) // rows, var(second) // cols]
    time_exprs = [base[index] for index in order]
    inner = time_exprs[-1]
    if skew & 1:
        inner = inner + space[0]
    if skew & 2:
        inner = inner + space[1]
    time_exprs = time_exprs[:-1] + [inner]
    if fallback == "dropped":
        del time_exprs[order.index(0)]
    name = f"({first}{second}-P|{''.join(map(str, order))}s{skew}-T{fallback or ''})"
    return Dataflow.from_exprs(name, op.domain.space, space, time_exprs)


axis_pairs = st.sampled_from([("i", "j"), ("i", "k"), ("j", "i"),
                              ("j", "k"), ("k", "i"), ("k", "j")])
orders = st.permutations(range(3))
skews = st.integers(min_value=0, max_value=3)
stencil_axes = st.sampled_from([("i", "j"), ("j", "i")])
sizes = st.sampled_from([8, 12])
pe_arrays = st.sampled_from(PE_ARRAYS)
temporal_intervals = st.integers(min_value=1, max_value=12)


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(
    size=sizes, pe_dims=pe_arrays, temporal_interval=temporal_intervals,
    pair=axis_pairs, order=orders, skew=skews,
)
@settings(max_examples=50, deadline=None)
def test_fused_reports_byte_identical_to_interp(
    interconnect, size, pe_dims, temporal_interval, pair, order, skew
):
    _assert_byte_identical(
        "gemm", size, pe_dims, interconnect, temporal_interval,
        lambda op: _candidate(op, pe_dims, pair[0], pair[1], tuple(order), skew),
    )


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(
    size=sizes, pe_dims=pe_arrays, temporal_interval=temporal_intervals,
    axes=stencil_axes, order=st.permutations(range(2)), skew=skews,
)
@settings(max_examples=50, deadline=None)
def test_fused_jacobi2d_reports_byte_identical_to_interp(
    interconnect, size, pe_dims, temporal_interval, axes, order, skew
):
    _assert_byte_identical(
        "jacobi2d", size, pe_dims, interconnect, temporal_interval,
        lambda op: _candidate(op, pe_dims, axes[0], axes[1], tuple(order), skew),
    )


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(
    size=sizes, pe_dims=pe_arrays, temporal_interval=temporal_intervals,
    pair=axis_pairs, order=orders, skew=skews,
    fallback=st.sampled_from(["strided", "non-separable", "dropped", "non-box"]),
)
@settings(max_examples=25, deadline=None)
def test_fused_fallbacks_byte_identical_to_interp(
    interconnect, size, pe_dims, temporal_interval, pair, order, skew, fallback
):
    kernel = "tri-gemm" if fallback == "non-box" else "gemm"
    variant = None if fallback == "non-box" else fallback
    _assert_byte_identical(
        kernel, size, pe_dims, interconnect, temporal_interval,
        lambda op: _candidate(op, pe_dims, pair[0], pair[1], tuple(order), skew, variant),
    )
