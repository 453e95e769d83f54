"""Property-based differential test: fused reports against the reference.

Hypothesis draws random GEMM and Jacobi-2D dataflows over uniform-block PE
windows — space-axis orders, time-stamp orders, skews into the inner time
stamp — on random PE arrays and interconnects, and
asserts the fused backend's reports are *byte-identical* (JSON-serialised,
sorted keys) to the interpreted reference backend's.  Jacobi-2D's input is
read through five references, so its family exercises the grid kernel's
per-reference grids.  A third family bends the GEMM candidates into each
case the fused backend's per-axis stamps hand on: a strided time stamp (a
key that is not dense), a space stamp over two loop variables (an
expression that does not split), a dropped time axis (not injective) and a
triangular domain (not a box).  A fourth family occupies a strict sub-array:
GEMM and conv2d candidates whose space loops are shorter than the PE axes
they map to (conv2d's 3x3 filter loops), shifted off the array's origin, so
the fused backend's PE box is neither the whole array nor anchored at 0.

Engines are cached per (kernel, operation size, PE array, interconnect,
backend): hypothesis re-draws candidates, not warm-up work.
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
from repro.tensor.kernels import conv2d, gemm, jacobi2d

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
    # Sub-array families: ``size`` is the tuple of loop extents.
    "gemm-sub": lambda sizes: gemm(*sizes),
    "conv2d-sub": lambda sizes: conv2d(*sizes),
}


def _engine(kernel, size, pe_dims, interconnect, backend) -> EvaluationEngine:
    key = (kernel, size, pe_dims, interconnect, backend)
    engine = _ENGINES.get(key)
    if engine is None:
        # ``name/size``: a reduction tree with groups of ``size`` PEs.
        name, _, group = interconnect.partition("/")
        options = {"group_size": int(group)} if group else {}
        arch = make_arch(pe_dims=pe_dims, interconnect=name, **options)
        engine = EvaluationEngine(KERNELS[kernel](size), arch, backend=backend)
        _ENGINES[key] = engine
    return engine


def _assert_byte_identical(kernel, size, pe_dims, interconnect, build):
    engines = {
        backend: _engine(kernel, size, pe_dims, interconnect, backend)
        for backend in ("interp", "fused")
    }
    candidate = build(engines["interp"].op)
    reference, encoded = (
        json.dumps(report_dict(engines[backend].evaluate(candidate)), sort_keys=True).encode()
        for backend in ("interp", "fused")
    )
    assert encoded == reference, (
        f"fused diverged from interp for {kernel} {candidate.name} on {pe_dims} "
        f"{interconnect}"
    )


def _candidate(op, pe_dims, first, second, order, skew, fallback=None, offsets=(0, 0)):
    """``first``/``second`` tile the PE rows/columns, shifted by ``offsets``.
    The time stamps are the remaining loop dimensions (GEMM's third, none
    for Jacobi-2D) and the two block indices, in ``order``, the inner one
    skewed by the space stamps the bits of ``skew`` select.  ``fallback``
    strides the remaining dimension by 2 (``"strided"``), folds ``second``
    into the first space stamp (``"non-separable"``) or drops the remaining
    dimension (``"dropped"``)."""
    rows, cols = pe_dims
    space = [var(first) % rows + offsets[0], var(second) % cols + offsets[1]]
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


AXIS_PAIRS = [("i", "j"), ("i", "k"), ("j", "i"), ("j", "k"), ("k", "i"), ("k", "j")]
axis_pairs = st.sampled_from(AXIS_PAIRS)
orders = st.permutations(range(3))
skews = st.integers(min_value=0, max_value=3)
stencil_axes = st.sampled_from([("i", "j"), ("j", "i")])
sizes = st.sampled_from([8, 12])
pe_arrays = st.sampled_from(PE_ARRAYS)


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(size=sizes, pe_dims=pe_arrays, pair=axis_pairs, order=orders, skew=skews)
@settings(max_examples=50, deadline=None)
def test_fused_reports_byte_identical_to_interp(
    interconnect, size, pe_dims, pair, order, skew
):
    _assert_byte_identical(
        "gemm", size, pe_dims, interconnect,
        lambda op: _candidate(op, pe_dims, pair[0], pair[1], tuple(order), skew),
    )


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(
    size=sizes, pe_dims=pe_arrays, axes=stencil_axes,
    order=st.permutations(range(2)), skew=skews,
)
@settings(max_examples=50, deadline=None)
def test_fused_jacobi2d_reports_byte_identical_to_interp(
    interconnect, size, pe_dims, axes, order, skew
):
    _assert_byte_identical(
        "jacobi2d", size, pe_dims, interconnect,
        lambda op: _candidate(op, pe_dims, axes[0], axes[1], tuple(order), skew),
    )


@pytest.mark.parametrize("interconnect", INTERCONNECTS)
@given(
    size=sizes, pe_dims=pe_arrays, pair=axis_pairs, order=orders, skew=skews,
    fallback=st.sampled_from(["strided", "non-separable", "dropped", "non-box"]),
)
@settings(max_examples=25, deadline=None)
def test_fused_fallbacks_byte_identical_to_interp(
    interconnect, size, pe_dims, pair, order, skew, fallback
):
    kernel = "tri-gemm" if fallback == "non-box" else "gemm"
    variant = None if fallback == "non-box" else fallback
    _assert_byte_identical(
        kernel, size, pe_dims, interconnect,
        lambda op: _candidate(op, pe_dims, pair[0], pair[1], tuple(order), skew, variant),
    )


SUB_ARRAYS = ((4, 4), (3, 5), (5, 7), (8, 8))
#: Every other topology links a box the same wherever it sits in these
#: arrays; groups of 3 PEs are cut differently by boxes at different
#: corners, so a box anchored at the wrong corner shows.
SUB_ARRAY_INTERCONNECTS = (*INTERCONNECTS, "reduction-tree/3")


@st.composite
def sub_array_draws(draw, loop_dims, space_pairs, fixed):
    """A PE array, a pair of space loops shorter than the PE axes they map
    to, every loop's extent, and space offsets that keep the image inside
    the array with its low corner off the origin.  ``fixed`` pins some
    loop extents (conv2d's 3x3 filter)."""
    first, second = draw(st.sampled_from(space_pairs))
    pe_dims = draw(st.sampled_from([
        dims for dims in SUB_ARRAYS
        if fixed.get(first, 1) < dims[0] and fixed.get(second, 1) < dims[1]
    ]))
    extents = {}
    for dim, bound in ((first, pe_dims[0]), (second, pe_dims[1])):
        extents[dim] = fixed.get(dim) or draw(st.integers(1, bound - 1))
    for dim in loop_dims:
        if dim not in extents:
            extents[dim] = fixed.get(dim) or draw(st.integers(2, 4))
    offsets = (
        draw(st.integers(1, pe_dims[0] - extents[first])),
        draw(st.integers(0, pe_dims[1] - extents[second])),
    )
    sizes = tuple(extents[dim] for dim in loop_dims)
    return pe_dims, first, second, sizes, offsets


@pytest.mark.parametrize("interconnect", SUB_ARRAY_INTERCONNECTS)
@given(
    drawn=sub_array_draws(("i", "j", "k"), AXIS_PAIRS, {}), order=orders, skew=skews,
)
@settings(max_examples=50, deadline=None)
def test_fused_sub_array_gemm_byte_identical_to_interp(interconnect, drawn, order, skew):
    pe_dims, first, second, sizes, offsets = drawn
    _assert_byte_identical(
        "gemm-sub", sizes, pe_dims, interconnect,
        lambda op: _candidate(
            op, pe_dims, first, second, tuple(order), skew, offsets=offsets
        ),
    )


CONV_DIMS = ("k", "c", "ox", "oy", "rx", "ry")


@pytest.mark.parametrize("interconnect", SUB_ARRAY_INTERCONNECTS)
@given(
    drawn=sub_array_draws(CONV_DIMS, [("rx", "ry"), ("ry", "rx")], {"rx": 3, "ry": 3}),
    order=st.permutations(range(6)), skew=skews,
)
@settings(max_examples=50, deadline=None)
def test_fused_sub_array_conv2d_byte_identical_to_interp(interconnect, drawn, order, skew):
    pe_dims, first, second, sizes, offsets = drawn
    _assert_byte_identical(
        "conv2d-sub", sizes, pe_dims, interconnect,
        lambda op: _candidate(
            op, pe_dims, first, second, tuple(order), skew, offsets=offsets
        ),
    )
