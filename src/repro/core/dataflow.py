"""Dataflow relations (Definition 1).

A dataflow assigns every loop instance ``S[n]`` a *space-stamp* ``PE[p]`` (the
PE that executes it) and a *time-stamp* ``T[t]`` (its position in the PE's
execution sequence, ordered lexicographically)::

    Theta_{S,D} = { S[n] -> (PE[p] | T[t]) }

Both stamps are quasi-affine functions of the loop iterators, which is what
makes the notation strictly more expressive than compute- and data-centric
notations: skewed stamps such as ``T[i + j + k]`` or packed stamps such as
``PE[ry + 3*(c mod 4)]`` are ordinary expressions here.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from repro.errors import DataflowError, SpaceError
from repro.isl.expr import AffExpr
from repro.isl.imap import IntMap
from repro.isl.parser import parse_expr, parse_map
from repro.isl.space import Space
from repro.arch.pe_array import PEArray
from repro.tensor.operation import TensorOp


class Dataflow:
    """A named pair of space-stamp and time-stamp maps."""

    def __init__(self, name: str, space_map: IntMap, time_map: IntMap):
        if not space_map.is_functional or not time_map.is_functional:
            raise DataflowError("space and time maps of a dataflow must be functional")
        if space_map.in_space.dims != time_map.in_space.dims:
            raise DataflowError(
                f"space map iterates over {space_map.in_space} but time map over "
                f"{time_map.in_space}"
            )
        self.name = name
        self.space_map = space_map
        self.time_map = time_map

    # -- constructors --------------------------------------------------------

    @classmethod
    def from_strings(cls, name: str, space_text: str, time_text: str) -> "Dataflow":
        """Build a dataflow from two ISL-like strings (the Table III form)."""
        space_map = parse_map(space_text)
        time_map = parse_map(time_text)
        if not isinstance(space_map, IntMap) or not isinstance(time_map, IntMap):
            raise DataflowError("dataflow maps must be single-piece functional relations")
        return cls(name, space_map, time_map)

    @classmethod
    def from_exprs(
        cls,
        name: str,
        iteration_space: Space | TensorOp,
        pe_exprs: Sequence[AffExpr | int | str],
        time_exprs: Sequence[AffExpr | int | str],
    ) -> "Dataflow":
        """Build a dataflow from expressions (strings are parsed)."""
        if isinstance(iteration_space, TensorOp):
            space = iteration_space.domain.space
        else:
            space = iteration_space
        pe_list = [parse_expr(e) if isinstance(e, str) else e for e in pe_exprs]
        time_list = [parse_expr(e) if isinstance(e, str) else e for e in time_exprs]
        space_map = IntMap.from_exprs(space, "PE", pe_list)
        time_map = IntMap.from_exprs(space, "T", time_list)
        return cls(name, space_map, time_map)

    # -- structural queries ------------------------------------------------------

    @property
    def iteration_dims(self) -> tuple[str, ...]:
        return self.space_map.in_space.dims

    @property
    def pe_rank(self) -> int:
        """Dimensionality of the space-stamp."""
        return self.space_map.out_space.rank

    @property
    def time_rank(self) -> int:
        """Dimensionality of the time-stamp."""
        return self.time_map.out_space.rank

    @property
    def pe_exprs(self) -> tuple[AffExpr, ...]:
        return self.space_map.out_exprs

    @property
    def time_exprs(self) -> tuple[AffExpr, ...]:
        return self.time_map.out_exprs

    def bind(self, op: TensorOp) -> "Dataflow":
        """Return a copy whose maps are restricted to the operation's domain."""
        if self.iteration_dims != op.domain.space.dims:
            raise SpaceError(
                f"dataflow {self.name!r} iterates over {self.iteration_dims} but the "
                f"operation over {op.domain.space.dims}"
            )
        return Dataflow(
            self.name,
            self.space_map.intersect_domain(op.domain),
            self.time_map.intersect_domain(op.domain),
        )

    # -- evaluation ----------------------------------------------------------------

    def stamps_for_chunk(
        self, chunk: Mapping[str, np.ndarray]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised (space-stamp, time-stamp) coordinates for a chunk of instances."""
        pe = self.space_map.image_array(chunk)
        time = self.time_map.image_array(chunk)
        return pe, time

    def stamp_of(self, instance: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Spacetime stamp of a single loop instance."""
        pe = self.space_map.apply_point(tuple(instance)).coords
        time = self.time_map.apply_point(tuple(instance)).coords
        return pe, time

    def time_bounds(self, op: TensorOp) -> list[tuple[int, int]]:
        """Inclusive interval of every time-stamp dimension over the operation's domain."""
        inclusive = {
            dim: (lo, hi - 1) for dim, (lo, hi) in op.domain.derived_bounds().items()
        }
        return [expr.bounds(inclusive) for expr in self.time_exprs]

    def pe_bounds(self, op: TensorOp) -> list[tuple[int, int]]:
        """Inclusive interval of every space-stamp dimension over the operation's domain."""
        inclusive = {
            dim: (lo, hi - 1) for dim, (lo, hi) in op.domain.derived_bounds().items()
        }
        return [expr.bounds(inclusive) for expr in self.pe_exprs]

    # -- validation -------------------------------------------------------------------

    def check_pe_rank(self, op: TensorOp, pe_array: PEArray) -> None:
        """Raise :class:`DataflowError` unless the space stamp has the array's rank.

        Stamp evaluation pairs PE extents with space-stamp expressions axis by
        axis, so a mismatch would silently drop axes.  The analyzer and the
        engine run this on every evaluation.
        """
        if self.pe_rank != pe_array.rank:
            raise DataflowError(
                f"dataflow {self.name!r} is invalid for {op.name}: space-stamp rank "
                f"{self.pe_rank} does not match PE array rank {pe_array.rank}"
            )

    # -- formatting ----------------------------------------------------------------------

    def __str__(self) -> str:
        pe_text = ", ".join(str(e) for e in self.pe_exprs)
        time_text = ", ".join(str(e) for e in self.time_exprs)
        dims = ", ".join(self.iteration_dims)
        return f"{{ S[{dims}] -> (PE[{pe_text}] | T[{time_text}]) }}"

    def __repr__(self) -> str:
        return f"Dataflow({self.name!r}, {self})"
