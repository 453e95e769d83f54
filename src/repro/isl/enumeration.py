"""Vectorised enumeration of integer sets.

This module is the workhorse behind counting and analysis: every set the
paper manipulates is finite (loop nests have explicit bounds), so cardinality
and membership questions are answered by enumerating points with numpy.

Points are generated in *chunks* so arbitrarily large boxes never materialise
at once: a chunk is a dictionary mapping dimension names to equally long
``int64`` arrays.  Constraints are then applied as vectorised predicates.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from repro.errors import UnboundedSetError
from repro.isl.constraint import Constraint

#: Default number of candidate points generated per chunk.
DEFAULT_CHUNK = 1 << 20

#: Hard cap on the number of candidate points enumerated for a single set.
#: Workloads larger than this must be scaled (see ``repro.workloads.scaling``).
MAX_CANDIDATE_POINTS = 1 << 33


Bounds = Mapping[str, tuple[int, int]]


def box_size(bounds: Bounds, dims: Sequence[str]) -> int:
    """Number of candidate points in the box spanned by ``dims``."""
    total = 1
    for dim in dims:
        lo, hi = bounds[dim]
        total *= max(0, hi - lo)
    return total


def iter_box_chunks(
    bounds: Bounds,
    dims: Sequence[str],
    chunk_size: int = DEFAULT_CHUNK,
) -> Iterator[dict[str, np.ndarray]]:
    """Yield chunks of all integer points in a box.

    Points are produced in lexicographic order of ``dims``.  Each chunk maps
    every dimension name to an ``int64`` array; all arrays in a chunk have the
    same length (at most ``chunk_size``).
    """
    dims = list(dims)
    sizes = []
    lows = []
    for dim in dims:
        lo, hi = bounds[dim]
        size = hi - lo
        if size <= 0:
            return
        sizes.append(size)
        lows.append(lo)
    total = 1
    for size in sizes:
        total *= size
    if total > MAX_CANDIDATE_POINTS:
        raise UnboundedSetError(
            f"refusing to enumerate {total} candidate points "
            f"(cap is {MAX_CANDIDATE_POINTS}); scale the workload first"
        )
    shape = tuple(sizes)
    for start in range(0, total, chunk_size):
        stop = min(start + chunk_size, total)
        flat = np.arange(start, stop, dtype=np.int64)
        coords = np.unravel_index(flat, shape)
        chunk = {
            dim: coords[index] + lows[index] for index, dim in enumerate(dims)
        }
        yield chunk


def box_sum(
    shape: Sequence[int], vectors: Sequence[np.ndarray | None], const: int = 0
) -> np.ndarray:
    """``const + sum(vectors[a][x_a])`` at every point of the box of
    ``shape``, in the lexicographic order of :func:`iter_box_chunks`.

    ``vectors[a]`` holds one value per coordinate of axis ``a`` (``None``
    adds nothing).  The sum is built from the last axis to the first, so the
    final ``np.add.outer`` has the longest inner loop; built the other way, a
    short last axis (a 3x3 filter) makes the largest step the slowest.
    """
    result = np.full(1, const, dtype=np.int64)
    for extent, vector in zip(reversed(shape), reversed(vectors)):
        if vector is None:
            result = np.tile(result, extent)
        else:
            result = np.add.outer(vector, result).ravel()
    return result


def filter_chunk(
    chunk: dict[str, np.ndarray],
    constraints: Iterable[Constraint],
) -> dict[str, np.ndarray]:
    """Keep only the points of a chunk that satisfy every constraint."""
    mask: np.ndarray | None = None
    for constraint in constraints:
        ok = constraint.satisfied_vec(chunk)
        mask = ok if mask is None else (mask & ok)
    if mask is None:
        return chunk
    return {dim: values[mask] for dim, values in chunk.items()}


def chunk_length(chunk: Mapping[str, np.ndarray]) -> int:
    """Number of points in a chunk (0 for an empty chunk dictionary)."""
    for values in chunk.values():
        return int(values.shape[0])
    return 0


def chunk_to_array(chunk: Mapping[str, np.ndarray], dims: Sequence[str]) -> np.ndarray:
    """Stack a chunk into an ``(N, len(dims))`` array in the given dim order."""
    if not dims:
        return np.zeros((chunk_length(chunk), 0), dtype=np.int64)
    return np.stack([np.asarray(chunk[dim], dtype=np.int64) for dim in dims], axis=1)


def array_to_chunk(array: np.ndarray, dims: Sequence[str]) -> dict[str, np.ndarray]:
    """Inverse of :func:`chunk_to_array`."""
    array = np.asarray(array, dtype=np.int64)
    if array.ndim != 2 or array.shape[1] != len(dims):
        raise ValueError(f"expected an (N, {len(dims)}) array, got shape {array.shape}")
    return {dim: array[:, index] for index, dim in enumerate(dims)}


def concat_chunks(chunks: Sequence[Mapping[str, np.ndarray]], dims: Sequence[str]) -> dict[str, np.ndarray]:
    """Concatenate chunks into a single chunk (empty chunks allowed)."""
    parts = [chunk for chunk in chunks if chunk_length(chunk)]
    if not parts:
        return {dim: np.zeros(0, dtype=np.int64) for dim in dims}
    return {dim: np.concatenate([np.asarray(part[dim]) for part in parts]) for dim in dims}


def sorted_unique(array: np.ndarray, return_counts: bool = False):
    """Sort-based unique for integer keys.

    numpy's hash-based ``np.unique`` is noticeably slower than sorting for the
    key arrays this package produces (tens of millions of int64), so the
    analyzer uses this helper instead.  Results are returned sorted.
    """
    array = np.asarray(array)
    if array.size == 0:
        empty = array[:0]
        return (empty, np.zeros(0, dtype=np.int64)) if return_counts else empty
    ordered = np.sort(array, kind="stable")
    new_value = np.empty(ordered.shape, dtype=bool)
    new_value[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new_value[1:])
    unique_values = ordered[new_value]
    if not return_counts:
        return unique_values
    boundaries = np.flatnonzero(new_value)
    counts = np.diff(np.concatenate((boundaries, [ordered.size])))
    return unique_values, counts


def encode_rows(array: np.ndarray, bounds_per_col: Sequence[tuple[int, int]] | None = None) -> np.ndarray:
    """Encode integer rows into single int64 keys (for hashing / set membership).

    When ``bounds_per_col`` is given the encoding is a mixed-radix number and
    guaranteed collision free as long as the product of extents fits in 63
    bits; otherwise a large-prime hash combination is used, which is collision
    free in practice for the coordinate ranges this package manipulates.
    """
    array = np.asarray(array, dtype=np.int64)
    if array.ndim != 2:
        raise ValueError("encode_rows expects a 2-D array")
    if array.shape[1] == 0:
        return np.zeros(array.shape[0], dtype=np.int64)
    if bounds_per_col is not None:
        total = 1
        for lo, hi in bounds_per_col:
            total *= max(1, hi - lo)
        if total >= (1 << 62):
            raise ValueError(
                "coordinate ranges too large for collision-free int64 encoding; "
                "scale the workload (see repro.workloads.scaling)"
            )
        keys = np.zeros(array.shape[0], dtype=np.int64)
        scale = 1
        for col, (lo, hi) in enumerate(bounds_per_col):
            extent = max(1, hi - lo)
            keys += (array[:, col] - lo) * scale
            scale *= extent
        return keys
    primes = np.array(
        [1_000_003, 998_244_353, 1_000_000_007, 786_433, 921_557, 694_847_539,
         354_745_169, 899_809_363, 373_587_883, 982_451_653],
        dtype=np.int64,
    )
    keys = np.zeros(array.shape[0], dtype=np.int64)
    for col in range(array.shape[1]):
        keys = keys * np.int64(1_000_000_009) + array[:, col] * primes[col % len(primes)]
    return keys
