"""Data assignment relations (Definition 2).

The data assignment of a tensor ``F`` under a dataflow chains the inverse of
the dataflow with the access function::

    A_{D,F} = Theta^{-1} . A_{S,F} = { (PE[p] | T[t]) -> F[f] }

Because the dataflow and the access function are both functional in the loop
iterators, the assignment can be written symbolically *parameterised by the
iterators* — exactly how the paper presents it, e.g. for the stationary output
of the GEMM example: ``{(PE[i,j] | T[i+j+k]) -> Y[i,j]}``.  For counting and
reuse analysis the relation is enumerated by the analyzer.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.dataflow import Dataflow
from repro.tensor.access import TensorAccess
from repro.tensor.operation import TensorOp


@dataclass
class DataAssignment:
    """The assignment relation of one tensor reference under a dataflow."""

    dataflow: Dataflow
    access: TensorAccess

    @property
    def tensor(self) -> str:
        return self.access.tensor

    def is_pe_stationary(self) -> bool:
        """Heuristic: does every PE keep touching the same element over time?

        True when the element coordinates depend only on iterators that also
        fully determine the space-stamp — e.g. the output ``Y[i,j]`` of the
        GEMM example with ``PE[i,j]``, which the paper describes as "kept
        stationary, and iteratively reused at different time-stamps".
        """
        element_vars = set()
        for expr in self.access.relation.out_exprs:
            element_vars |= expr.variables()
        space_vars = set()
        for expr in self.dataflow.pe_exprs:
            space_vars |= expr.variables()
        return element_vars <= space_vars

    def __str__(self) -> str:
        pe_text = ", ".join(str(e) for e in self.dataflow.pe_exprs)
        time_text = ", ".join(str(e) for e in self.dataflow.time_exprs)
        element_text = ", ".join(str(e) for e in self.access.relation.out_exprs)
        return (
            f"{{ (PE[{pe_text}] | T[{time_text}]) -> "
            f"{self.tensor}[{element_text}] }}"
        )


def assignments_for(op: TensorOp, dataflow: Dataflow, tensor: str) -> list[DataAssignment]:
    """All assignment relations (one per reference) of a tensor under a dataflow."""
    return [DataAssignment(dataflow, access) for access in op.accesses_to(tensor)]
