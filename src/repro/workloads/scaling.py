"""Workload scaling for exact-enumeration analysis.

The analyzer and simulator enumerate the iteration domain exactly; full-size
DNN layers (10^8 ... 10^13 MACs) are beyond what a laptop-class Python run can
enumerate, so the experiments analyse *scaled* layers.  The scaling rules keep
the metrics of interest representative:

* filter extents (``rx``, ``ry``) and output feature-map extents (``ox``,
  ``oy``) are preserved whenever possible, because they drive the halo and
  filter reuse patterns the paper studies;
* channel dimensions are reduced first, by integer factors, because intensive
  metrics (per-element reuse factors, PE utilisation, normalised latency and
  bandwidth) are periodic in them once they exceed the PE-array extent;
* every scaled dimension stays a multiple of the PE-array extent it is mapped
  to (when it started as one), so utilisation is unchanged.

Each experiment records the scale factor it applied in its output.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.isl.iset import IntSet
from repro.tensor.operation import TensorOp
from repro.workloads.dnn import ConvLayer, GemmLayer, Layer, MmcLayer, MttkrpLayer

#: Order in which dimensions are shrunk (first entries shrink first).
_SHRINK_PRIORITY = ("k", "c", "i", "l", "oy", "ox", "j", "ry", "rx")


def _product(sizes: Mapping[str, int]) -> int:
    total = 1
    for value in sizes.values():
        total *= value
    return total


def scale_sizes(
    sizes: Mapping[str, int],
    max_instances: int,
    preserve: Sequence[str] = ("rx", "ry"),
    granularity: int = 8,
) -> tuple[dict[str, int], float]:
    """Shrink loop extents until their product fits under ``max_instances``.

    Returns the scaled sizes and the overall scale factor (original MACs /
    scaled MACs).  Dimensions in ``preserve`` are never touched.  Dimensions
    are reduced by halving (respecting ``granularity`` so PE-array folds stay
    exact) in the order of ``_SHRINK_PRIORITY``.
    """
    scaled = {dim: int(extent) for dim, extent in sizes.items()}
    original = _product(scaled)
    if original <= max_instances:
        return scaled, 1.0

    order = [dim for dim in _SHRINK_PRIORITY if dim in scaled and dim not in preserve]
    order += [dim for dim in scaled if dim not in order and dim not in preserve]

    progress = True
    while _product(scaled) > max_instances and progress:
        progress = False
        for dim in order:
            extent = scaled[dim]
            floor = granularity if extent % granularity == 0 and extent > granularity else 2
            if extent <= floor:
                continue
            if extent % 2 == 0:
                candidate = extent // 2
            else:
                candidate = (extent + 1) // 2
            if extent > granularity and candidate < granularity:
                candidate = granularity
            if candidate < 1 or candidate == extent:
                continue
            scaled[dim] = candidate
            progress = True
            if _product(scaled) <= max_instances:
                break

    factor = original / _product(scaled)
    return scaled, factor


def scale_layer(layer: Layer, max_instances: int) -> tuple[Layer, float]:
    """Scale a workload layer; returns the new layer and the MAC scale factor."""
    sizes, factor = scale_sizes(layer.sizes(), max_instances)
    if isinstance(layer, ConvLayer):
        if layer.depthwise:
            scaled = layer.scaled(
                in_channels=sizes["c"], out_channels=sizes["c"],
                out_x=sizes["ox"], out_y=sizes["oy"],
                filter_x=sizes["rx"], filter_y=sizes["ry"],
            )
        else:
            scaled = layer.scaled(
                out_channels=sizes["k"], in_channels=sizes["c"],
                out_x=sizes["ox"], out_y=sizes["oy"],
                filter_x=sizes["rx"], filter_y=sizes["ry"],
            )
        return scaled, factor
    if isinstance(layer, GemmLayer):
        return GemmLayer(layer.name, sizes["i"], sizes["j"], sizes["k"]), factor
    if isinstance(layer, MttkrpLayer):
        return MttkrpLayer(layer.name, sizes["i"], sizes["j"], sizes["k"], sizes["l"]), factor
    if isinstance(layer, MmcLayer):
        return MmcLayer(layer.name, sizes["i"], sizes["j"], sizes["k"], sizes["l"]), factor
    raise TypeError(f"cannot scale layer of type {type(layer)!r}")


def scaled_op(op: TensorOp, max_instances: int, preserve: Sequence[str] = ("rx", "ry")) -> tuple[TensorOp, float]:
    """Scale an arbitrary operation by shrinking its iteration-domain box."""
    bounds = op.domain.derived_bounds()
    sizes = {dim: hi - lo for dim, (lo, hi) in bounds.items()}
    scaled_sizes, factor = scale_sizes(sizes, max_instances, preserve=preserve)
    if factor == 1.0:
        return op, 1.0
    new_bounds = {
        dim: (bounds[dim][0], bounds[dim][0] + extent) for dim, extent in scaled_sizes.items()
    }
    new_domain = IntSet.box(op.domain.space, new_bounds)
    return op.with_domain(new_domain), factor
