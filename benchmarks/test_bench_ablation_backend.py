"""Ablation: analyzer chunk size, interconnect and PE-array size.

The analyzer runs once per setting of three design choices of the
reproduction, and each report is checked for sanity; ``--durations`` shows
the wall time of each setting:

* the vectorised enumeration chunk size (small chunks stress the streaming
  path; large chunks the vectorised path);
* the interconnect (the paper observes modeling time grows with a richer
  interconnect);
* the PE-array size (to which the paper finds modeling time insensitive).
"""

import pytest

from repro.core import analyze
from repro.dataflows import get_dataflow
from repro.experiments.common import make_arch
from repro.tensor import conv2d


@pytest.fixture(scope="module")
def conv_setup():
    op = conv2d(16, 16, 14, 14, 3, 3)
    dataflow = get_dataflow("conv2d", "(KC-P | OY,OX-T)")
    return op, dataflow


@pytest.mark.parametrize("chunk_size", [1 << 14, 1 << 18, 1 << 22])
def test_bench_ablation_chunk_size(conv_setup, chunk_size):
    op, dataflow = conv_setup
    arch = make_arch(pe_dims=(8, 8), interconnect="2d-systolic")
    report = analyze(op, dataflow, arch, chunk_size=chunk_size)
    assert report.volumes["Y"].total == op.num_instances()


@pytest.mark.parametrize("interconnect", ["1d-systolic", "2d-systolic", "mesh"])
def test_bench_ablation_interconnect(conv_setup, interconnect):
    op, dataflow = conv_setup
    arch = make_arch(pe_dims=(8, 8), interconnect=interconnect)
    report = analyze(op, dataflow, arch)
    assert report.latency_cycles > 0


@pytest.mark.parametrize("pe", [(4, 4), (8, 8), (16, 16)])
def test_bench_ablation_pe_array_size(conv_setup, pe):
    op, _ = conv_setup
    dataflow = get_dataflow("conv2d", "(KC-P | OY,OX-T)", rows=pe[0], cols=pe[1])
    arch = make_arch(pe_dims=pe, interconnect="2d-systolic")
    report = analyze(op, dataflow, arch)
    assert report.latency_cycles > 0
