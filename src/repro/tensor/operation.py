"""The loop-nest IR: a single-statement, perfectly-nested tensor operation."""

from __future__ import annotations

from dataclasses import dataclass, field
import numpy as np

from repro.errors import SpaceError
from repro.isl.enumeration import encode_rows
from repro.isl.imap import IntMap
from repro.isl.iset import IntSet
from repro.isl.union import UnionMap
from repro.tensor.access import AccessMode, TensorAccess


@dataclass
class TensorOp:
    """A tensor operation: iteration domain plus per-tensor access functions.

    This is the program input of Figure 2 — TENET supports tensor applications
    with perfectly-nested loops and a single unconditional statement
    (Section II-B), which covers every benchmark in the evaluation.
    """

    name: str
    domain: IntSet
    accesses: list[TensorAccess] = field(default_factory=list)

    def __post_init__(self):
        for access in self.accesses:
            if access.relation.in_space.dims != self.domain.space.dims:
                raise SpaceError(
                    f"access {access} of {self.name} does not match iteration space "
                    f"{self.domain.space}"
                )

    # -- structural queries ----------------------------------------------------

    @property
    def loop_dims(self) -> tuple[str, ...]:
        """Names of the loop iterators, outermost first."""
        return self.domain.space.dims

    def loop_sizes(self) -> dict[str, int]:
        """Extent of every loop dimension."""
        bounds = self.domain.derived_bounds()
        return {dim: hi - lo for dim, (lo, hi) in bounds.items()}

    def num_instances(self) -> int:
        """Number of loop instances, i.e. ``sum(D_S)``; equals the MAC count."""
        return self.domain.count()

    macs = num_instances

    @property
    def tensor_names(self) -> tuple[str, ...]:
        seen: list[str] = []
        for access in self.accesses:
            if access.tensor not in seen:
                seen.append(access.tensor)
        return tuple(seen)

    @property
    def input_tensors(self) -> tuple[str, ...]:
        """Tensors that are only read (pure inputs)."""
        return tuple(
            name for name in self.tensor_names
            if all(a.mode is AccessMode.READ for a in self.accesses_to(name))
        )

    @property
    def output_tensors(self) -> tuple[str, ...]:
        """Tensors that are written or updated."""
        return tuple(
            name for name in self.tensor_names
            if any(a.mode.writes for a in self.accesses_to(name))
        )

    def accesses_to(self, tensor: str) -> list[TensorAccess]:
        found = [a for a in self.accesses if a.tensor == tensor]
        if not found:
            raise SpaceError(f"operation {self.name!r} has no tensor named {tensor!r}")
        return found

    def access_relation(self, tensor: str) -> UnionMap:
        """The full access relation ``A_{S,F}`` of one tensor (union of references)."""
        return UnionMap([a.relation for a in self.accesses_to(tensor)])

    def access_maps(self, tensor: str) -> list[IntMap]:
        return [a.relation for a in self.accesses_to(tensor)]

    # -- data-size queries ------------------------------------------------------

    def tensor_rank(self, tensor: str) -> int:
        return self.accesses_to(tensor)[0].rank

    def tensor_footprint(self, tensor: str, chunk_size: int = 1 << 20) -> int:
        """Number of distinct elements of ``tensor`` touched by the operation.

        Computed by streaming the iteration domain, applying every access
        function of the tensor, and counting distinct images (chunk-safe).
        """
        accesses = self.accesses_to(tensor)
        inclusive = {
            dim: (lo, hi - 1) for dim, (lo, hi) in self.domain.derived_bounds().items()
        }
        bounds_per_col = None
        for access in accesses:
            cols = []
            for expr in access.relation.out_exprs:
                lo, hi = expr.bounds(inclusive)
                cols.append((lo, hi + 1))
            if bounds_per_col is None:
                bounds_per_col = cols
            else:
                bounds_per_col = [
                    (min(a[0], b[0]), max(a[1], b[1])) for a, b in zip(bounds_per_col, cols)
                ]
        seen: set[int] = set()
        for chunk in self.domain.chunks(chunk_size):
            for access in accesses:
                image = access.relation.image_array(chunk)
                keys = encode_rows(image, bounds_per_col)
                seen.update(np.unique(keys).tolist())
        return len(seen)

    def total_accesses(self, tensor: str) -> int:
        """Number of (instance, element) access pairs for one tensor."""
        return self.num_instances() * len(self.accesses_to(tensor))

    # -- rewriting ----------------------------------------------------------------

    def with_domain(self, domain: IntSet) -> "TensorOp":
        """Return a copy of the operation over a different iteration domain.

        The new domain must use the same iteration-space dimensions; this is
        how scaled-down workloads are produced (``repro.workloads.scaling``).
        """
        if domain.space.dims != self.domain.space.dims:
            raise SpaceError(
                f"replacement domain {domain.space} does not match {self.domain.space}"
            )
        return TensorOp(self.name, domain, list(self.accesses))

    # -- formatting -----------------------------------------------------------------

    def describe(self) -> str:
        """Multi-line human-readable summary."""
        lines = [f"TensorOp {self.name}: domain {self.domain}"]
        for access in self.accesses:
            lines.append(f"  {access}")
        return "\n".join(lines)

    def __str__(self) -> str:
        sizes = "x".join(str(size) for size in self.loop_sizes().values())
        return f"{self.name}[{sizes}]"
