"""Pruned design space (Section VI-B).

The full relation-centric space is huge, so the paper prunes it by fixing the
*data movement* of each input tensor to one of the movements the interconnect
can implement (stationary, horizontal, vertical or diagonal systolic flow,
multicast along a row/column), and then enumerating the *data assignment* of
the boundary PEs.  For 2D-CONV this yields 12 legal movements per input tensor
and 180 boundary assignments, i.e. ``12 * 12 * 180 = 25 920`` dataflows, which
the paper explores in under an hour.

This module provides both the analytic count and a concrete candidate
generator.  The generator builds structurally distinct dataflows: it picks an
ordered pair of loop dimensions for the PE axes (possibly packing two
dimensions onto one axis), optionally skews the innermost time-stamp with the
space-stamp expressions (which realises the systolic movements), and orders
the remaining dimensions as outer time-stamp axes.
"""

from __future__ import annotations

import itertools
from typing import Iterator

from repro.core.dataflow import Dataflow
from repro.core.engine import dataflow_signature
from repro.isl.expr import AffExpr, var
from repro.tensor.operation import TensorOp


def paper_pruned_count(
    movements_per_tensor: int = 12,
    input_tensors: int = 2,
    boundary_assignments: int = 180,
) -> int:
    """The Section VI-B count: movements per input tensor times boundary assignments."""
    return (movements_per_tensor ** input_tensors) * boundary_assignments


def pruned_candidates(
    op: TensorOp,
    pe_dims: tuple[int, int] = (8, 8),
    *,
    allow_skew: bool = True,
    allow_packing: bool = False,
    max_candidates: int | None = None,
) -> Iterator[Dataflow]:
    """Generate structurally distinct candidate dataflows for a 2-D PE array.

    Every candidate maps one loop dimension (folded by the array extent) to
    each PE axis, optionally skews the innermost time-stamp by the two space
    expressions (the systolic movement family), and iterates the remaining
    dimensions as outer time loops in their original order.  With
    ``allow_packing`` an additional family packs two dimensions onto the first
    PE axis (the Eyeriss-style transformation).

    Structurally identical candidates (same space/time expression signature
    reached through different enumeration paths) are emitted only once, so
    ``max_candidates`` counts distinct dataflows.
    """
    dims = list(op.loop_dims)
    sizes = op.loop_sizes()
    rows, cols = pe_dims
    count = 0
    seen: set[str] = set()

    def emit(dataflow: Dataflow) -> Iterator[Dataflow]:
        nonlocal count
        signature = dataflow_signature(dataflow)
        if signature in seen:
            return
        seen.add(signature)
        count += 1
        yield dataflow

    for first, second in itertools.permutations(dims, 2):
        remaining = [dim for dim in dims if dim not in (first, second)]
        space_exprs = [var(first) % rows, var(second) % cols]
        outer = [var(first) // rows, var(second) // cols]
        for skew in ((False, True) if allow_skew else (False,)):
            for inner_dim in remaining or [None]:
                time_exprs: list[AffExpr] = []
                time_exprs.extend(var(dim) for dim in remaining if dim != inner_dim)
                time_exprs.extend(outer)
                if inner_dim is not None:
                    inner: AffExpr = var(inner_dim)
                else:
                    inner = AffExpr.constant(0)
                if skew:
                    inner = inner + space_exprs[0] + space_exprs[1]
                time_exprs.append(inner)
                name = f"({first.upper()}{second.upper()}-P | "
                name += f"{(inner_dim or 'const').upper()}{'+skew' if skew else ''}-T)"
                if max_candidates is not None and count >= max_candidates:
                    return
                yield from emit(Dataflow.from_exprs(name, op.domain.space, space_exprs, time_exprs))

    if allow_packing:
        for packed_a, packed_b, second in itertools.permutations(dims, 3):
            size_a = sizes[packed_a]
            if size_a == 0 or size_a > rows:
                continue
            fold = max(1, rows // size_a)
            remaining = [dim for dim in dims if dim not in (packed_a, packed_b, second)]
            space_exprs = [var(packed_a) + size_a * (var(packed_b) % fold), var(second) % cols]
            time_exprs = [var(dim) for dim in remaining]
            time_exprs.append(var(packed_b) // fold)
            time_exprs.append(var(second) // cols)
            name = f"({packed_a.upper()}{packed_b.upper()}-P | packed)"
            if max_candidates is not None and count >= max_candidates:
                return
            yield from emit(Dataflow.from_exprs(name, op.domain.space, space_exprs, time_exprs))
