"""Integer points inside a named space."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.errors import SpaceError
from repro.isl.space import Space


@dataclass(frozen=True)
class Point:
    """A single integer point, e.g. ``S[1, 0, 2]``."""

    space: Space
    coords: tuple[int, ...]

    def __init__(self, space: Space, coords: Sequence[int]):
        coords = tuple(int(c) for c in coords)
        if len(coords) != space.rank:
            raise SpaceError(
                f"point of rank {len(coords)} does not fit space {space} of rank {space.rank}"
            )
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "coords", coords)

    def env(self) -> dict[str, int]:
        """Bind the space's dimension names to this point's coordinates."""
        return dict(zip(self.space.dims, self.coords))

    def __getitem__(self, index: int) -> int:
        return self.coords[index]

    def __iter__(self):
        return iter(self.coords)

    def __len__(self) -> int:
        return len(self.coords)

    def value(self, dim: str) -> int:
        return self.coords[self.space.index(dim)]

    def __str__(self) -> str:
        return f"{self.space.name}[{', '.join(str(c) for c in self.coords)}]"


def env_from(space: Space, coords: Sequence[int]) -> dict[str, int]:
    """Bind coordinates to a space's dimension names without building a Point."""
    if len(coords) != space.rank:
        raise SpaceError(f"expected {space.rank} coordinates for {space}, got {len(coords)}")
    return {dim: int(value) for dim, value in zip(space.dims, coords)}
