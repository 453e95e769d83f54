"""Spacetime-stamp maps (Definition 4).

A spacetime map links spacetime stamps that can exchange (or retain) data:

* **temporal** adjacency — same PE, one time-stamp later (data stays in the
  PE's registers for one step), and
* **spatial** adjacency — interconnected PEs separated by the interconnect's
  *time interval*: one time-stamp for store-and-forward links (systolic,
  mesh) and zero for multicast wires, as prescribed in Section V-A.

Both intervals are fixed: the temporal one is 1 and the spatial one a class
constant of each topology (:attr:`Interconnect.time_interval`).

The analyzer consumes the *neighbour table* produced here: a dense array that
lists, for every PE, the linear indices of the PEs that can forward data to
it.  It is built from the links of the interconnect's Definition 3 relation
(:meth:`repro.arch.interconnect.Interconnect.links`), once per process for
each (interconnect, PE array dims), and shared read-only.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from repro.arch.interconnect import Interconnect
from repro.arch.pe_array import PEArray

#: Predecessor tables keyed by (interconnect type and fields, PE array dims),
#: at most ``_TABLES_MAX`` of them.  Building one enumerates the relation over
#: every PE pair (0.10-0.27 s for a 32x32 array on a 2-CPU machine), and every
#: new engine needs one.
_TABLES: OrderedDict[tuple, np.ndarray] = OrderedDict()
_TABLES_MAX = 64
#: Held while a table is built: concurrent engine builds of one architecture
#: build its table once.
_TABLES_LOCK = threading.Lock()


@dataclass
class SpacetimeMap:
    """Adjacency of spacetime stamps for a (PE array, interconnect) pair."""

    pe_array: PEArray
    interconnect: Interconnect

    @property
    def spatial_interval(self) -> int:
        """Time-stamp distance for reuse through the interconnect."""
        return self.interconnect.time_interval

    # -- neighbour table -------------------------------------------------------

    @property
    def table_key(self) -> tuple:
        """What fixes the predecessor table: the interconnect's type and
        fields, and the PE array dims.  Maps with equal keys share one table."""
        interconnect = self.interconnect
        return (type(interconnect), tuple(vars(interconnect).items()), self.pe_array.dims)

    def predecessor_table(self) -> np.ndarray:
        """``(num_pes, max_degree)`` array of predecessor linear indices.

        Rows are padded with ``-1``.  Row ``p`` lists every PE that can send
        data to PE ``p`` through the interconnect.  The array is read-only and
        shared by every map over an equal :attr:`table_key`.
        """
        key = self.table_key
        with _TABLES_LOCK:
            table = _TABLES.get(key)
            if table is None:
                table = self._build_predecessor_table()
                table.flags.writeable = False
                _TABLES[key] = table
                while len(_TABLES) > _TABLES_MAX:
                    _TABLES.popitem(last=False)
            _TABLES.move_to_end(key)
        return table

    def _build_predecessor_table(self) -> np.ndarray:
        sources, destinations = self.interconnect.links(self.pe_array)
        num_pes = self.pe_array.size
        degree = np.bincount(destinations, minlength=num_pes)
        table = np.full((num_pes, max(1, int(degree.max()))), -1, dtype=np.int64)
        # Links are sorted by destination: a link's slot is its rank among
        # its destination's links.
        first = np.cumsum(degree) - degree
        table[destinations, np.arange(destinations.size) - first[destinations]] = sources
        return table

    # -- symbolic examples -------------------------------------------------------

    def example_maps(self, origin: tuple[int, ...] = None, time: int = 0) -> list[str]:
        """Human-readable spacetime maps out of one stamp (Equation 6 style)."""
        if origin is None:
            origin = (0,) * self.pe_array.rank
        origin = tuple(origin)
        maps = [
            f"([PE{list(origin)} | T[{time}]]) -> ([PE{list(origin)} | T[{time + 1}]])"
        ]
        for destination, sources in self.interconnect.predecessors(self.pe_array).items():
            if origin in sources:
                maps.append(
                    f"([PE{list(origin)} | T[{time}]]) -> "
                    f"([PE{list(destination)} | T[{time + self.spatial_interval}]])"
                )
        return maps

    def __str__(self) -> str:
        return (
            f"SpacetimeMap({self.pe_array}, {self.interconnect.name}, "
            f"spatial interval {self.spatial_interval})"
        )
