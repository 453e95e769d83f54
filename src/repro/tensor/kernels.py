"""Factories for the tensor kernels used in the paper's evaluation.

Section VI-A evaluates five kernels::

    2D-CONV   Y(k,ox,oy)   = A(c, ox+rx, oy+ry) * B(k,c,rx,ry)
    GEMM      Y(i,j)       = A(i,k)   * B(k,j)
    MTTKRP    Y(i,j)       = A(i,k,l) * B(k,j) * C(l,j)
    MMc       Y(i,j)       = A(i,k)   * B(k,l) * C(l,j)
    Jacobi-2D Y(i,j)       = (A(i,j)+A(i-1,j)+A(i,j-1)+A(i+1,j)+A(i,j+1)) / 5

plus the 1D convolution of Figure 1 (``Y[i] += A[i+j] * B[j]``) that motivates
the reuse-accuracy discussion.  Every factory returns a
:class:`~repro.tensor.operation.TensorOp` with explicit loop bounds.
"""

from __future__ import annotations

import inspect
from typing import Mapping, Sequence

from repro.errors import SpaceError
from repro.isl.expr import AffExpr, var
from repro.isl.imap import IntMap
from repro.isl.iset import IntSet
from repro.isl.space import Space
from repro.tensor.access import AccessMode, TensorAccess
from repro.tensor.operation import TensorOp


def _domain(name: str, dims: Sequence[str], sizes: Sequence[int]) -> IntSet:
    return IntSet.from_sizes("S", dims, sizes)


def _access(domain: IntSet, tensor: str, mode: AccessMode, exprs: Sequence[AffExpr]) -> TensorAccess:
    relation = IntMap.from_exprs(domain.space, tensor, exprs, domain=domain)
    return TensorAccess(tensor, mode, relation)


def gemm(size_i: int, size_j: int, size_k: int, name: str = "GEMM") -> TensorOp:
    """``Y[i,j] += A[i,k] * B[k,j]`` with loop order ``(i, j, k)``."""
    domain = _domain(name, ["i", "j", "k"], [size_i, size_j, size_k])
    i, j, k = var("i"), var("j"), var("k")
    return TensorOp(
        name,
        domain,
        [
            _access(domain, "A", AccessMode.READ, [i, k]),
            _access(domain, "B", AccessMode.READ, [k, j]),
            _access(domain, "Y", AccessMode.UPDATE, [i, j]),
        ],
    )


def conv1d(size_ox: int, size_rx: int, name: str = "CONV1D") -> TensorOp:
    """The 1-D convolution of Figure 1: ``Y[i] += A[i+j] * B[j]``."""
    domain = _domain(name, ["i", "j"], [size_ox, size_rx])
    i, j = var("i"), var("j")
    return TensorOp(
        name,
        domain,
        [
            _access(domain, "A", AccessMode.READ, [i + j]),
            _access(domain, "B", AccessMode.READ, [j]),
            _access(domain, "Y", AccessMode.UPDATE, [i]),
        ],
    )


def conv2d(
    size_k: int,
    size_c: int,
    size_ox: int,
    size_oy: int,
    size_rx: int,
    size_ry: int,
    stride: int = 1,
    name: str = "CONV2D",
) -> TensorOp:
    """``Y[k,ox,oy] += A[c, ox*stride+rx, oy*stride+ry] * B[k,c,rx,ry]``.

    Loop order follows the paper's 6-deep nest ``(k, c, ox, oy, rx, ry)``;
    ``A`` is the input feature map, ``B`` the filter, ``Y`` the output.
    """
    domain = _domain(name, ["k", "c", "ox", "oy", "rx", "ry"],
                     [size_k, size_c, size_ox, size_oy, size_rx, size_ry])
    k, c, ox, oy, rx, ry = (var(d) for d in ["k", "c", "ox", "oy", "rx", "ry"])
    return TensorOp(
        name,
        domain,
        [
            _access(domain, "A", AccessMode.READ, [c, ox * stride + rx, oy * stride + ry]),
            _access(domain, "B", AccessMode.READ, [k, c, rx, ry]),
            _access(domain, "Y", AccessMode.UPDATE, [k, ox, oy]),
        ],
    )


def depthwise_conv2d(
    size_c: int,
    size_ox: int,
    size_oy: int,
    size_rx: int,
    size_ry: int,
    stride: int = 1,
    name: str = "DW-CONV2D",
) -> TensorOp:
    """Depthwise convolution (MobileNet): each input channel produces one output channel."""
    domain = _domain(name, ["c", "ox", "oy", "rx", "ry"],
                     [size_c, size_ox, size_oy, size_rx, size_ry])
    c, ox, oy, rx, ry = (var(d) for d in ["c", "ox", "oy", "rx", "ry"])
    return TensorOp(
        name,
        domain,
        [
            _access(domain, "A", AccessMode.READ, [c, ox * stride + rx, oy * stride + ry]),
            _access(domain, "B", AccessMode.READ, [c, rx, ry]),
            _access(domain, "Y", AccessMode.UPDATE, [c, ox, oy]),
        ],
    )


def mttkrp(size_i: int, size_j: int, size_k: int, size_l: int, name: str = "MTTKRP") -> TensorOp:
    """``Y[i,j] += A[i,k,l] * B[k,j] * C[l,j]`` (matricised tensor times Khatri-Rao product)."""
    domain = _domain(name, ["i", "j", "k", "l"], [size_i, size_j, size_k, size_l])
    i, j, k, l = (var(d) for d in ["i", "j", "k", "l"])
    return TensorOp(
        name,
        domain,
        [
            _access(domain, "A", AccessMode.READ, [i, k, l]),
            _access(domain, "B", AccessMode.READ, [k, j]),
            _access(domain, "C", AccessMode.READ, [l, j]),
            _access(domain, "Y", AccessMode.UPDATE, [i, j]),
        ],
    )


def mmc(size_i: int, size_j: int, size_k: int, size_l: int, name: str = "MMc") -> TensorOp:
    """``Y[i,j] += A[i,k] * B[k,l] * C[l,j]`` (matrix-multiplication chain)."""
    domain = _domain(name, ["i", "j", "k", "l"], [size_i, size_j, size_k, size_l])
    i, j, k, l = (var(d) for d in ["i", "j", "k", "l"])
    return TensorOp(
        name,
        domain,
        [
            _access(domain, "A", AccessMode.READ, [i, k]),
            _access(domain, "B", AccessMode.READ, [k, l]),
            _access(domain, "C", AccessMode.READ, [l, j]),
            _access(domain, "Y", AccessMode.UPDATE, [i, j]),
        ],
    )


def jacobi2d(size_i: int, size_j: int, name: str = "Jacobi2D") -> TensorOp:
    """Five-point 2-D stencil over the interior of a ``size_i x size_j`` grid."""
    space = Space("S", ["i", "j"])
    domain = IntSet.box(space, {"i": (1, size_i - 1), "j": (1, size_j - 1)})
    i, j = var("i"), var("j")
    reads = [
        [i, j],
        [i - 1, j],
        [i, j - 1],
        [i + 1, j],
        [i, j + 1],
    ]
    accesses = [_access(domain, "A", AccessMode.READ, exprs) for exprs in reads]
    accesses.append(_access(domain, "Y", AccessMode.WRITE, [i, j]))
    return TensorOp(name, domain, accesses)


_FACTORIES = {
    "gemm": gemm,
    "conv1d": conv1d,
    "conv2d": conv2d,
    "depthwise_conv2d": depthwise_conv2d,
    "mttkrp": mttkrp,
    "mmc": mmc,
    "jacobi2d": jacobi2d,
}


def make_kernel(kind: str, sizes: Mapping[str, int] | Sequence[int], **kwargs) -> TensorOp:
    """Build a kernel by name; ``sizes`` may be positional or keyword based.

    ``sizes`` holds exactly one extent per ``size_*`` parameter of the
    factory, one per loop dimension; options such as ``stride`` are
    keywords.  Any other count raises :class:`SpaceError`.
    """
    kind = kind.lower()
    if kind not in _FACTORIES:
        raise KeyError(f"unknown kernel {kind!r}; available: {sorted(_FACTORIES)}")
    factory = _FACTORIES[kind]
    names = [name for name in inspect.signature(factory).parameters if name.startswith("size_")]
    if isinstance(sizes, Mapping):
        if set(sizes) == set(names):
            return factory(**sizes, **kwargs)
        given = dict(sizes)
    else:
        if len(sizes) == len(names):
            return factory(*sizes, **kwargs)
        given = list(sizes)
    dims = ", ".join(name[len("size_"):] for name in names)
    raise SpaceError(
        f"kernel {kind!r} takes {len(names)} sizes, one per loop dimension "
        f"({dims}); got {given}"
    )
