"""Data-centric mapping directives.

The data-centric notation (Kwon et al.) describes a dataflow as an ordered
list of directives over the loop dimensions:

* ``SpatialMap(size, offset, dim)`` — distribute ``dim`` across PEs, ``size``
  indices per PE, stepping by ``offset`` from one PE to the next;
* ``TemporalMap(size, offset, dim)`` — iterate ``dim`` over time within a PE;
* ``Cluster(size)`` — group PEs into clusters of ``size``; directives below a
  cluster apply within the cluster (a second spatial level).

Figure 1(b) and the right-hand column of Table III use exactly this syntax.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.errors import ModelError


@dataclass(frozen=True)
class SpatialMap:
    """Distribute a loop dimension across the PEs of the current cluster level."""

    dim: str
    size: int = 1
    offset: int = 1

    def __str__(self) -> str:
        return f"SpatialMap({self.size},{self.offset}) {self.dim.upper()}"


@dataclass(frozen=True)
class TemporalMap:
    """Iterate a loop dimension across time-steps within a PE."""

    dim: str
    size: int = 1
    offset: int = 1

    def __str__(self) -> str:
        return f"TemporalMap({self.size},{self.offset}) {self.dim.upper()}"


@dataclass(frozen=True)
class Cluster:
    """Group the PEs below this directive into clusters of the given size."""

    size: int

    def __str__(self) -> str:
        return f"Cluster({self.size}, P)"


Directive = SpatialMap | TemporalMap | Cluster


@dataclass
class DataCentricMapping:
    """An ordered list of directives describing one data-centric dataflow."""

    name: str
    directives: list[Directive] = field(default_factory=list)

    def __post_init__(self):
        if not self.directives:
            raise ModelError(f"mapping {self.name!r} has no directives")

    # -- structural queries ----------------------------------------------------

    @property
    def levels(self) -> list[list[Directive]]:
        """Split the directive list into cluster levels (top level first)."""
        groups: list[list[Directive]] = [[]]
        for directive in self.directives:
            if isinstance(directive, Cluster):
                groups.append([])
            else:
                groups[-1].append(directive)
        return groups

    @property
    def cluster_sizes(self) -> list[int]:
        """Cluster size introduced before each level below the first."""
        return [d.size for d in self.directives if isinstance(d, Cluster)]

    def spatial_dims(self) -> list[str]:
        """Dimensions distributed across PEs, at any cluster level."""
        return [d.dim for d in self.directives if isinstance(d, SpatialMap)]

    def temporal_dims(self) -> list[str]:
        """Dimensions iterated over time, in directive order (outermost first)."""
        return [d.dim for d in self.directives if isinstance(d, TemporalMap)]

    def innermost_temporal_dim(self) -> str | None:
        temporal = self.temporal_dims()
        return temporal[-1] if temporal else None

    def validate_against(self, dims: Iterable[str]) -> None:
        """Check that every directive references a loop dimension of the operation."""
        known = set(dims)
        for directive in self.directives:
            if isinstance(directive, (SpatialMap, TemporalMap)) and directive.dim not in known:
                raise ModelError(
                    f"mapping {self.name!r} references unknown dimension {directive.dim!r}; "
                    f"operation has {sorted(known)}"
                )

    def __str__(self) -> str:
        return f"{self.name}: " + "; ".join(str(d) for d in self.directives)


def spatial(dim: str, size: int = 1, offset: int = 1) -> SpatialMap:
    """Shorthand constructor used by tests and the catalog."""
    return SpatialMap(dim, size, offset)


def temporal(dim: str, size: int = 1, offset: int = 1) -> TemporalMap:
    """Shorthand constructor used by tests and the catalog."""
    return TemporalMap(dim, size, offset)
