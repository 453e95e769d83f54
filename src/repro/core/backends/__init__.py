"""Pluggable evaluation backends for :class:`repro.core.engine.EvaluationEngine`.

Five backends share the engine's ``evaluate_batch`` contract and produce
bit-identical reports; they differ only in how the per-candidate hot path is
computed:

``interp``
    The PR 1 path: interpreted expression trees per candidate, group-major
    sort/adjacency volume kernel.  Baseline for the benchmarks.
``affine``
    Compiled stamps — quasi-affine expressions become integer coefficient
    matrices evaluated with one matmul per candidate window over the cached
    domain chunk (``mod``/``floordiv`` lower to derived columns, anything
    non-affine falls back to the interpreter) — plus the compiled group-layout
    volume kernel, which caches the candidate-invariant (PE, element) group
    structure per space signature.
``bitset``
    Compiled stamps plus the packed ``np.uint64`` occupancy kernel whenever it
    is exact and fits memory; for tensors where it does not apply, behaves
    like ``affine``.
``fused``
    Batch-fused evaluation (PR 4): the whole batch's deduplicated coefficient
    rows stack into one matmul per cached domain chunk, single-reference
    layouts count volumes with segmented sorts and shifted-slice membership
    windows instead of ``searchsorted`` probes (ragged group blocks, as at
    conv boundaries, are padded to the largest block with sentinel ranks;
    only multi-reference tensors, non-injective candidates and layouts whose
    padding would more than double the pairs use the compiled kernel), and
    candidates whose (PE, time-rank) columns are *content-identical* to an
    already evaluated candidate replay its report (verified by exact array
    comparison).
``auto``
    The fused hot path with the bit-set kernel engaged per tensor where the
    packed occupancy is smaller than the pair array (small ops) or the
    temporal interval is beyond the sort kernels' window.  This is the
    default.

The compiled backends (everything but ``interp``) evaluate through the
engine's array namespace (:mod:`repro.core.xp`, selected by the engine's
``device=`` knob): the stacked-coefficient matmul and the fused volume
kernels run on numpy, torch or cupy through one codepath, with reports
bit-identical across namespaces by contract.  ``interp`` is host-only and
rejects non-numpy devices at engine construction.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends.base import EngineBackend, InterpBackend
from repro.core.backends.affine import AffineBackend
from repro.core.backends.fused import FusedBackend
from repro.core.xp import available_namespaces, namespace_probes, resolve_namespace
from repro.errors import ExplorationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EvaluationEngine

#: Valid values for the ``backend=`` engine/explorer/CLI option.
BACKEND_NAMES = ("auto", "interp", "affine", "bitset", "fused")


def make_backend(name: str, engine: "EvaluationEngine") -> EngineBackend:
    """Instantiate the backend ``name`` for one engine."""
    if name == "interp":
        return InterpBackend(engine)
    if name == "affine":
        return AffineBackend(engine, bitset_mode="never")
    if name == "bitset":
        backend = AffineBackend(engine, bitset_mode="always")
        backend.name = "bitset"
        return backend
    if name == "fused":
        return FusedBackend(engine, bitset_mode="never")
    if name == "auto":
        backend = FusedBackend(engine, bitset_mode="auto")
        backend.name = "auto"
        return backend
    raise ExplorationError(
        f"unknown backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "AffineBackend",
    "BACKEND_NAMES",
    "EngineBackend",
    "FusedBackend",
    "InterpBackend",
    "available_namespaces",
    "make_backend",
    "namespace_probes",
    "resolve_namespace",
]
