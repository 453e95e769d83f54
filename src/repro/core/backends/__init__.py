"""Pluggable evaluation backends for :class:`repro.core.engine.EvaluationEngine`.

Two backends share the engine's ``evaluate_batch`` contract and produce
bit-identical reports; they differ only in how the per-candidate hot path is
computed:

``interp``
    The reference path: interpreted expression trees per candidate and the
    group-major sort/adjacency volume kernel.  Every other path is checked
    against it.
``fused``
    The fast path (:class:`repro.core.backends.fused.FusedBackend`): on a
    box domain each stamp expression splits into a constant plus one int64
    vector per loop axis, and one broadcast sum of those vectors gives every
    instance's cell in the candidate's dense (time x PE) stamp grid, which
    spans only the candidate's PE bounding box.  Volumes are counted with
    shifted comparisons on that grid, one grid per distinct reference of a
    tensor.  An expression that does not split is evaluated by ``interp``
    and joins the sum as one column; domains that are not a box take
    ``interp``'s stamps on the whole array.  Candidates without a grid
    (non-injective ones, grids past the size bound) take ``interp``'s
    group-major kernel, and temporal intervals past its window the engine's
    reference kernel.  The default.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.backends.base import EngineBackend, InterpBackend, Stamps
from repro.core.backends.fused import FusedBackend
from repro.errors import ExplorationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import EvaluationEngine

#: Valid values for the ``backend=`` engine/explorer/CLI option.
BACKEND_NAMES = ("interp", "fused")


def make_backend(name: str, engine: "EvaluationEngine") -> EngineBackend:
    """Instantiate the backend ``name`` for one engine."""
    if name == "interp":
        return InterpBackend(engine)
    if name == "fused":
        return FusedBackend(engine)
    raise ExplorationError(
        f"unknown backend {name!r}; available: {', '.join(BACKEND_NAMES)}"
    )


__all__ = [
    "BACKEND_NAMES",
    "EngineBackend",
    "FusedBackend",
    "InterpBackend",
    "Stamps",
    "make_backend",
]
