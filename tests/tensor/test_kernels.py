"""Unit tests for the kernel factories and the TensorOp IR."""

import re

import pytest

from repro.errors import SpaceError
from repro.tensor import conv1d, conv2d, gemm, jacobi2d, mmc, mttkrp
from repro.tensor.access import AccessMode
from repro.tensor.kernels import depthwise_conv2d, make_kernel


class TestGemm:
    def test_shapes_and_macs(self):
        op = gemm(4, 5, 6)
        assert op.loop_dims == ("i", "j", "k")
        assert op.num_instances() == 120
        assert op.macs() == 120

    def test_tensor_roles(self):
        op = gemm(4, 4, 4)
        assert set(op.input_tensors) == {"A", "B"}
        assert op.output_tensors == ("Y",)

    def test_access_functions(self):
        op = gemm(4, 4, 4)
        a = op.access_maps("A")[0]
        assert a.apply_point((1, 2, 3)).coords == (1, 3)
        y = op.access_maps("Y")[0]
        assert y.apply_point((1, 2, 3)).coords == (1, 2)

    def test_footprints(self):
        op = gemm(4, 5, 6)
        assert op.tensor_footprint("A") == 24
        assert op.tensor_footprint("B") == 30
        assert op.tensor_footprint("Y") == 20


class TestConv:
    def test_conv2d_structure(self):
        op = conv2d(4, 3, 5, 5, 3, 3)
        assert op.loop_dims == ("k", "c", "ox", "oy", "rx", "ry")
        assert op.num_instances() == 4 * 3 * 5 * 5 * 3 * 3
        assert set(op.tensor_names) == {"A", "B", "Y"}

    def test_conv2d_halo_access(self):
        op = conv2d(2, 2, 4, 4, 3, 3)
        a = op.access_maps("A")[0]
        assert a.apply_point((0, 1, 2, 3, 1, 2)).coords == (1, 3, 5)

    def test_conv2d_stride(self):
        op = conv2d(1, 1, 4, 4, 3, 3, stride=2)
        a = op.access_maps("A")[0]
        assert a.apply_point((0, 0, 2, 1, 1, 0)).coords == (0, 5, 2)

    def test_conv1d_matches_figure1(self):
        op = conv1d(4, 3)
        assert op.num_instances() == 12
        assert op.tensor_footprint("A") == 6

    def test_depthwise_has_no_k_loop(self):
        op = depthwise_conv2d(4, 5, 5, 3, 3)
        assert "k" not in op.loop_dims
        assert op.num_instances() == 4 * 5 * 5 * 3 * 3


class TestOtherKernels:
    def test_mttkrp(self):
        op = mttkrp(3, 4, 5, 6)
        assert set(op.input_tensors) == {"A", "B", "C"}
        assert op.num_instances() == 360
        assert op.tensor_footprint("A") == 3 * 5 * 6

    def test_mmc(self):
        op = mmc(3, 4, 5, 6)
        assert op.tensor_footprint("A") == 15
        assert op.tensor_footprint("C") == 24

    def test_jacobi_reads_a_five_times(self):
        op = jacobi2d(6, 6)
        assert len(op.accesses_to("A")) == 5
        assert op.num_instances() == 16
        assert op.total_accesses("A") == 80

    def test_jacobi_footprint_includes_halo(self):
        op = jacobi2d(6, 6)
        # interior 4x4 plus the one-element halo actually touched
        assert op.tensor_footprint("A") == 32

    def test_make_kernel_by_name(self):
        op = make_kernel("gemm", [2, 2, 2])
        assert op.num_instances() == 8
        with pytest.raises(KeyError):
            make_kernel("nope", [1])

    @pytest.mark.parametrize("kind, sizes, dims", [
        ("gemm", [8, 8, 8, 9], "(i, j, k)"),
        ("gemm", [8, 8], "(i, j, k)"),
        # A 7th positional size would have become the stride.
        ("conv2d", [4, 4, 4, 4, 3, 3, 2], "(k, c, ox, oy, rx, ry)"),
        ("jacobi2d", [6], "(i, j)"),
        ("gemm", {"size_i": 2, "size_j": 2}, "(i, j, k)"),
    ])
    def test_make_kernel_takes_one_size_per_loop_dimension(self, kind, sizes, dims):
        with pytest.raises(SpaceError, match=re.escape(f"one per loop dimension {dims}")):
            make_kernel(kind, sizes)

    def test_make_kernel_stride_is_a_keyword(self):
        op = make_kernel("conv2d", [1, 1, 4, 4, 3, 3], stride=2)
        a = op.access_maps("A")[0]
        assert a.apply_point((0, 0, 2, 1, 1, 0)).coords == (0, 5, 2)
        keyword = make_kernel("gemm", {"size_i": 2, "size_j": 3, "size_k": 4})
        assert keyword.loop_sizes() == {"i": 2, "j": 3, "k": 4}


class TestTensorOpApi:
    def test_loop_sizes(self):
        op = gemm(4, 5, 6)
        assert op.loop_sizes() == {"i": 4, "j": 5, "k": 6}

    def test_accesses_to_unknown_tensor(self):
        with pytest.raises(SpaceError):
            gemm(2, 2, 2).accesses_to("Z")

    def test_with_domain_scaling(self):
        from repro.isl.iset import IntSet

        op = gemm(8, 8, 8)
        smaller = IntSet.box(op.domain.space, {"i": (0, 4), "j": (0, 4), "k": (0, 4)})
        scaled = op.with_domain(smaller)
        assert scaled.num_instances() == 64
        assert scaled.tensor_names == op.tensor_names

    def test_access_mode_flags(self):
        assert AccessMode.READ.reads and not AccessMode.READ.writes
        assert AccessMode.WRITE.writes and not AccessMode.WRITE.reads
        assert AccessMode.UPDATE.reads and AccessMode.UPDATE.writes

    def test_describe_mentions_all_tensors(self):
        text = gemm(2, 2, 2).describe()
        assert "A" in text and "B" in text and "Y" in text
