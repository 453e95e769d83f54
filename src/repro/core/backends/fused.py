"""Batch-fused evaluation: stacked stamp matmuls, windowed volume kernels and
spacetime-content memoisation.

The affine backend already compiles stamp expressions to coefficient rows and
caches the candidate-invariant (PE, element) group layout per space signature.
Three further sources of redundancy remain in a sweep batch, and this backend
removes them:

* **Stacked stamps** — the affine provider evaluates compiled rows in small
  windows (one matmul per ~8M matrix cells).  The fused provider stacks the
  deduplicated coefficient rows of *every* candidate in the batch into one
  coefficient matrix and evaluates the whole cached domain chunk with a single
  float64-exact BLAS matmul; per-candidate stamp columns are row views of the
  fused result.
* **Windowed volume kernels** — each dense (PE, element) group becomes one
  row of a ``(groups, m)`` rank matrix, ``m`` being the largest group, so the
  group-major sort degenerates to one segmented row sort, and spatial
  membership for constant-offset interconnect slots becomes ``2m - 1``
  shifted *slice* comparisons — no ``searchsorted``, no per-pair gathers.
  Slots that share a source offset share one membership pass.  Uniform
  layouts (every group holds ``m`` pairs) fill the matrix exactly; ragged
  ones, such as conv layers cut at the input boundary, pad each row with a
  sentinel rank that sorts last and never matches.  Multi-reference tensors,
  non-injective candidates and layouts whose padding would more than double
  the pair count fall back to the affine kernels, so counts stay
  bit-identical.
* **Spacetime memoisation** — structurally distinct candidates frequently
  assign *identical* (PE, time-rank) columns (skewed variants of one family
  often collapse onto the same rank order).  The engine memo cannot see that
  (it keys on the expression signature), so the fused backend fingerprints the
  rank column per space signature and replays the finished report — verified
  by exact array comparison, never by hash alone — for candidates whose
  spacetime map was already evaluated.

All three are pure performance transformations: reports are bit-identical to
``interp``/``affine``/``bitset`` across the backend test matrix.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.core.backends.affine import (
    AffineBackend,
    GroupLayout,
    _AffineBatchStamps,
    _evict_lru,
)
from repro.core.volumes import VolumeMetrics
from repro.core.xp import ArrayNamespace, NumpyNamespace

#: Kernel-level default: the host namespace, so the module stays importable
#: and exact without an engine (unit tests drive the kernel directly).
_HOST = NumpyNamespace()

#: One fused stamp matmul may produce up to this many result cells before the
#: provider splits the batch into several stacked evaluations.  The budget
#: covers a standard sweep batch in one window (a few hundred deduplicated
#: rows over a paper-scale chunk) while keeping the transient float64 result
#: and its int64 conversion near ~128 MB each.
_FUSED_MATMUL_CELLS = 16_000_000

#: Windowed membership is used when the shifted-slice pass (2m - 1 comparisons)
#: is cheaper than a searchsorted probe; beyond this block size it is not.
_WINDOW_MAX_BLOCK = 16


# -- fused layout ------------------------------------------------------------------


@dataclass
class FusedSlot:
    """One interconnect slot, classified for the fused kernel."""

    #: Constant dense-group offset shared by every valid pair, or ``None``.
    delta_const: int | None
    #: Dense source-group offset (int32): per pair on a uniform layout, per
    #: group on a padded one (see :attr:`FusedLayout.real`).
    delta: np.ndarray
    #: Validity (source group exists), shaped to broadcast over the
    #: ``(groups, block)`` matrix: ``(groups, block)`` or ``(groups, 1)``.
    valid: np.ndarray
    #: Host-precomputed ``valid.any()`` so slot skipping never syncs a device.
    valid_any: bool = True


@dataclass
class _DeviceLayout:
    """The candidate-invariant layout arrays on one namespace's device.

    On the host namespace these are the :class:`GroupLayout` and
    :class:`FusedLayout` arrays themselves (no copies); on a device namespace
    they are uploaded once per layout and stay resident across batches, so
    per-candidate volume counting only moves the rank column.
    """

    #: Gather index over the rank column (int64 on device namespaces, whose
    #: indexing requires it; the original int32 ``perm_mod`` on the host).
    perm: Any
    #: Real (non-padding) positions of the flattened matrix, or ``None``.
    real: Any
    #: Dense group id (int32), ``(groups, block)`` or ``(groups, 1)``.
    dense: Any
    #: Per-slot validity masks (bool) and dense-group offsets (int32).
    slot_valid: list[Any]
    slot_delta: list[Any]


class FusedLayout:
    """Candidate-invariant extras the fused volume kernel needs per tensor.

    Built once per :class:`GroupLayout` (itself cached per space signature),
    so the block sizing and the slot classification never run per candidate.
    The kernel works on a ``(groups, block)`` rank matrix, ``block`` being
    the largest group.  On a uniform layout that matrix is the group-sorted
    pair order itself and the layout's per-pair arrays are viewed in that
    shape, without copies.  Ragged layouts pad every group to ``block`` with
    sentinel ranks; ``real`` marks the pair positions, and the group-constant
    per-pair data (group id, slot validity and offset) is kept once per group
    and broadcast over the block.  ``usable`` is ``False`` for collapsed
    multi-reference tensors and when padding would more than double the pair
    count; callers then chain to the affine kernels.
    """

    def __init__(self, layout: GroupLayout):
        self.layout = layout
        pairs = int(layout.dense_sorted.size)
        groups = layout.group_count
        sizes = np.bincount(layout.dense_sorted, minlength=groups)
        self.pairs = pairs
        self.block = int(sizes.max()) if pairs else 0
        #: Length of the flattened (groups, block) matrix.
        self.size = groups * self.block
        self.usable = layout.references == 1 and 0 < pairs and self.size <= 2 * pairs
        #: Real (non-padding) positions of the flattened matrix, or ``None``.
        self.real: np.ndarray | None = None
        self.dense: np.ndarray | None = None
        self.slots: list[FusedSlot] = []
        if self.usable and self.size == pairs:
            self.dense = layout.dense_sorted.reshape(groups, self.block)
            for delta_const, delta, valid in zip(
                layout.slot_delta_const, layout.slot_delta, layout.slot_valid
            ):
                self.slots.append(
                    FusedSlot(
                        delta_const, delta, valid.reshape(groups, self.block),
                        bool(valid.any()),
                    )
                )
        elif self.usable:
            self.real = (np.arange(self.block) < sizes[:, None]).ravel()
            group_ids = np.arange(groups, dtype=np.int32)
            self.dense = group_ids[:, None]
            for delta_const, src_group in zip(
                layout.slot_delta_const, layout.slot_src_group
            ):
                valid = src_group < groups
                self.slots.append(
                    FusedSlot(
                        delta_const, src_group - group_ids, valid[:, None],
                        bool(valid.any()),
                    )
                )
        #: Resident per-namespace device copies, keyed ``name:device``.
        self._device: dict[str, _DeviceLayout] = {}

    def device_arrays(self, xp: ArrayNamespace, on_transfer=None) -> _DeviceLayout:
        """The layout arrays on ``xp``'s device, uploaded once and kept."""
        if xp.is_numpy:
            key = "numpy"
        else:
            key = f"{xp.name}:{xp.device}"
        bundle = self._device.get(key)
        if bundle is None:
            layout = self.layout
            if xp.is_numpy:
                bundle = _DeviceLayout(
                    perm=layout.perm_mod,
                    real=self.real,
                    dense=self.dense,
                    slot_valid=[slot.valid for slot in self.slots],
                    slot_delta=[slot.delta for slot in self.slots],
                )
            else:
                started = time.perf_counter()
                bundle = _DeviceLayout(
                    perm=xp.asarray(layout.perm_mod, "int64"),
                    real=None if self.real is None else xp.asarray(self.real),
                    dense=xp.asarray(self.dense),
                    slot_valid=[xp.asarray(slot.valid) for slot in self.slots],
                    slot_delta=[xp.asarray(slot.delta) for slot in self.slots],
                )
                if on_transfer is not None:
                    on_transfer(time.perf_counter() - started)
            self._device[key] = bundle
        return bundle


def fused_group_volume_metrics(
    tensor: str,
    fused: FusedLayout,
    t_rank: np.ndarray,
    *,
    spatial_interval: int,
    temporal_interval: int,
    footprint: int,
    rank_span: int,
    rank32: np.ndarray,
    xp: ArrayNamespace | None = None,
    rank_wide: Any = None,
    rank_narrow: Any = None,
    on_transfer=None,
) -> VolumeMetrics | None:
    """Exact Table II metrics via segmented sorts and shifted-slice windows.

    Requires a usable :class:`FusedLayout` (one reference, bounded padding)
    and an injective candidate (unique (stamp, element) pairs); the caller
    guarantees both.  Returns ``None`` when the temporal interval is outside
    the adjacency window or keys would overflow — the affine kernels then take
    over, exactly as they do for each other.

    One codepath for every array namespace: on the host namespace the
    operations below bind directly to numpy, and the integer-only arithmetic
    makes device results bit-identical once copied back.  ``rank_wide`` /
    ``rank_narrow`` optionally pass the rank column already on ``xp``'s device
    (the backend caches that upload per candidate); otherwise the host arrays
    are uploaded here.
    """
    ti = temporal_interval
    if ti < 1 or ti > 8:
        return None
    if xp is None:
        xp = _HOST
    m = fused.block
    n = fused.size
    groups = fused.layout.group_count
    span = int(rank_span)
    if fused.pairs == 0 or span <= 0:
        return None
    dev = fused.device_arrays(xp, on_transfer)
    # Keys are ``group * stride + rank``.  Padding holds the rank ``span +
    # ti``, which sorts after every real rank.  With ``stride = span + ti +
    # 1``, a padding key minus ``ti`` lands on the unused rank ``span``, and
    # a real key of rank ``>= ti`` minus ``ti`` on a real rank of its own
    # group, so padding never takes part in temporal reuse (lower ranks fail
    # the rank guard); spatial hits on padding are masked by ``real``.
    stride = span if dev.real is None else span + ti + 1
    # Probe values reach +-(2 * groups * stride); keep them exactly
    # representable.
    if 2 * (groups + 1) * stride >= (1 << 62):
        return None
    narrow = 2 * (groups + 1) * stride < (1 << 31)

    if rank_wide is None or rank_narrow is None:
        rank_wide, rank_narrow = t_rank, rank32
        if not xp.is_numpy:
            started = time.perf_counter()
            rank_wide = xp.asarray(t_rank)
            rank_narrow = xp.asarray(rank32)
            if on_transfer is not None:
                on_transfer(time.perf_counter() - started)

    # Segmented sort: ranks per pair in group-sorted order, laid out as the
    # padded (groups, block) matrix, then each row sorted independently.
    # Within-row sorting never moves a pair across groups, and padding sorts
    # last, so ``real`` still marks the real positions afterwards.  The int32
    # rank copy is only exact while the span fits; huge-span ops take the
    # int64 path end to end.
    rank_source = rank_narrow if narrow else rank_wide
    ranks = xp.take(rank_source, dev.perm)
    if dev.real is not None:
        padded = xp.zeros(n, "int32" if narrow else "int64")
        padded += xp.int_scalar(span + ti, narrow)
        padded[dev.real] = ranks
        ranks = padded
    ranks2d = xp.sort2d(ranks.reshape(groups, m))
    if narrow:
        keys = dev.dense * xp.int_scalar(stride, True)
    else:
        keys = xp.astype(dev.dense, "int64") * stride
    # Group offsets are a full matrix on a uniform layout (add in place: a
    # fresh pair-sized array costs its page faults) and a column otherwise.
    if dev.real is None:
        keys += ranks2d
    else:
        keys = keys + ranks2d
    keys = keys.ravel()
    ranks = ranks2d.ravel()

    # Temporal reuse: (g, r - ti) can only sit within ti positions back in the
    # block; a value match implies the same group because 0 <= r - ti < span.
    temporal = xp.zeros(n, "bool")
    if ti == 1:
        temporal[1:] = keys[:-1] == keys[1:] - 1
    else:
        for back in range(1, ti + 1):
            temporal[back:] |= keys[:-back] == keys[back:] - ti
    temporal &= ranks >= ti
    temporal_count = xp.count_nonzero(temporal)

    spatial_count = 0
    if temporal_count < fused.pairs and fused.slots:
        si = spatial_interval
        rank_ok = ranks >= si if si else None
        if dev.real is not None:
            rank_ok = dev.real if rank_ok is None else rank_ok & dev.real
        spatial = xp.zeros(n, "bool")
        spatial_rows = spatial.reshape(groups, m)
        window_masks: dict[int, Any] = {}
        for slot_index, slot in enumerate(fused.slots):
            if not slot.valid_any:
                continue
            slot_valid = dev.slot_valid[slot_index]
            if slot.delta_const is not None and m <= _WINDOW_MAX_BLOCK:
                # Constant source offset: the matching position, if any, lies
                # within one block of p + delta * m, so membership is 2m - 1
                # shifted slice comparisons.  Slots sharing an offset share
                # the pass.
                delta = slot.delta_const
                hits = window_masks.get(delta)
                if hits is None:
                    shift = delta * stride - si
                    probes = keys + xp.int_scalar(shift, narrow)
                    hits = xp.zeros(n, "bool")
                    centre = delta * m
                    for w in range(centre - m + 1, centre + m):
                        if w >= 0:
                            if w == 0:
                                hits |= keys == probes
                            elif w < n:
                                hits[: n - w] |= keys[w:] == probes[: n - w]
                        elif -w < n:
                            hits[-w:] |= keys[:w] == probes[-w:]
                    if rank_ok is not None:
                        hits &= rank_ok
                    window_masks[delta] = hits
                spatial_rows |= hits.reshape(groups, m) & slot_valid
            else:
                # Per-pair source offsets: probe only the pairs that still
                # need an answer (valid, rank-guarded, no temporal reuse).
                needed = ~(temporal | spatial)
                needed_rows = needed.reshape(groups, m)
                needed_rows &= slot_valid
                if rank_ok is not None:
                    needed &= rank_ok
                index = xp.flatnonzero(needed)
                if not len(index):
                    continue
                if slot.delta_const is not None:
                    shift = slot.delta_const * stride - si
                    probes = keys[index] + xp.int_scalar(shift, narrow)
                else:
                    rows = index if dev.real is None else index // m
                    delta = xp.take(dev.slot_delta[slot_index], rows)
                    if narrow:
                        probes = keys[index] + (
                            delta * xp.int_scalar(stride, True)
                            - xp.int_scalar(si, True)
                        )
                    else:
                        probes = keys[index] + (
                            xp.astype(delta, "int64") * stride - si
                        )
                positions = xp.searchsorted(keys, probes)
                hits = xp.take_clip(keys, positions) == probes
                spatial[index[hits]] = True
        spatial_count = xp.count_nonzero(spatial & ~temporal)

    return VolumeMetrics(
        tensor=tensor,
        total=fused.pairs,
        reuse=temporal_count + spatial_count,
        temporal_reuse=temporal_count,
        spatial_reuse=spatial_count,
        footprint=footprint,
    )


# -- spacetime-content memo --------------------------------------------------------


class SpacetimeMemo:
    """Report memo keyed by the *content* of a candidate's spacetime map.

    Two candidates with the same PE column and the same time-rank column
    produce identical reports, whatever their expressions look like.  Entries
    are keyed by (PE signature, a strided fingerprint of the rank column) and
    verified with an exact full-array comparison before a stored report is
    replayed, so a fingerprint collision can never corrupt a result.
    """

    def __init__(self, max_entries: int = 128, max_bytes: int = 128 << 20):
        self.max_entries = int(max_entries)
        self.max_bytes = int(max_bytes)
        self._entries: OrderedDict[tuple, list[tuple[np.ndarray, object]]] = OrderedDict()

    @staticmethod
    def _fingerprint(t_rank: np.ndarray) -> tuple:
        stride = max(1, t_rank.size // 1024)
        digest = hashlib.blake2b(t_rank[::stride].tobytes(), digest_size=16).digest()
        return (t_rank.size, digest)

    def _key(self, pe_signature: tuple, t_rank: np.ndarray) -> tuple:
        return (pe_signature, *self._fingerprint(t_rank))

    def lookup(self, pe_signature: tuple, t_rank: np.ndarray):
        bucket = self._entries.get(self._key(pe_signature, t_rank))
        if bucket is None:
            return None
        for stored, report in bucket:
            if np.array_equal(stored, t_rank):
                self._entries.move_to_end(self._key(pe_signature, t_rank))
                return report
        return None

    def remember(self, pe_signature: tuple, t_rank: np.ndarray, report) -> None:
        key = self._key(pe_signature, t_rank)
        bucket = self._entries.setdefault(key, [])
        bucket.append((t_rank, report))
        self._entries.move_to_end(key)
        _evict_lru(
            self._entries,
            self.max_entries,
            self.max_bytes,
            lambda entries: sum(array.nbytes for array, _ in entries),
        )

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._entries.values())


# -- stacked stamp provider --------------------------------------------------------


class _FusedBatchStamps(_AffineBatchStamps):
    """The affine provider with the whole batch stacked into one matmul.

    The affine provider bounds transient stamp memory to ~8M matrix cells per
    window, which re-enters the BLAS call many times per batch.  The fused
    provider raises the budget so a standard sweep batch evaluates every
    deduplicated compiled row in a single ``coeffs @ chunk.T`` product;
    per-candidate stamp columns are row views of that one result.
    """

    def __init__(self, backend, relations, dataflows, pe_array):
        super().__init__(backend, relations, dataflows, pe_array)
        self._rows_per_window = max(
            self._rows_per_window,
            _FUSED_MATMUL_CELLS // max(1, relations.total),
        )


# -- the backend -------------------------------------------------------------------


class FusedBackend(AffineBackend):
    """Batch-fused stamps and volumes on top of the affine backend.

    ``bitset_mode`` is forwarded unchanged: ``auto`` keeps the packed-word
    kernel for the regimes where it wins (wide temporal intervals, small dense
    ops), and the fused kernel slots in *above* the compiled grouped kernel in
    the fallback chain: fused -> (bitset) -> compiled -> grouped -> reference.
    """

    name = "fused"

    def __init__(self, engine, *, bitset_mode: str = "never"):
        super().__init__(engine, bitset_mode=bitset_mode)
        self._fused_layouts: OrderedDict[int, FusedLayout] = OrderedDict()
        self._rank_device: tuple[int, Any, Any] | None = None
        self.spacetime_memo = SpacetimeMemo()

    # -- stamps -----------------------------------------------------------------

    def prepare_batch(self, relations, dataflows, pe_array):
        return _FusedBatchStamps(self, relations, dataflows, pe_array)

    def stamps(self, relations, dataflow, pe_array):
        return _FusedBatchStamps(self, relations, [dataflow], pe_array).stamps_for(0)

    # -- spacetime memo ---------------------------------------------------------

    def spacetime_report(self, dataflow, pe_lin, t_rank):
        """A finished report for this exact spacetime map, or ``None``."""
        if self.engine.should_validate:
            # Validation notes mention the candidate name; replaying them for
            # another candidate would be wrong, so skip the memo entirely.
            return None
        return self.spacetime_memo.lookup(self.pe_signature(dataflow), t_rank)

    def spacetime_remember(self, dataflow, pe_lin, t_rank, report) -> None:
        if self.engine.should_validate:
            return
        self.spacetime_memo.remember(self.pe_signature(dataflow), t_rank, report)

    # -- volumes ----------------------------------------------------------------

    def _fused_layout(self, layout: GroupLayout | None) -> FusedLayout | None:
        if layout is None:
            return None
        key = id(layout)
        fused = self._fused_layouts.get(key)
        if fused is None or fused.layout is not layout:
            fused = FusedLayout(layout)
            self._fused_layouts[key] = fused
            while len(self._fused_layouts) > self._LAYOUT_ENTRIES:
                self._fused_layouts.popitem(last=False)
        else:
            self._fused_layouts.move_to_end(key)
        return fused

    def _rank_device_for(self, t_rank, rank32):
        """The candidate's rank column on the engine's device, uploaded once.

        Keyed by array identity like ``_rank32_for``: every tensor of a
        candidate shares one ``t_rank``, so per-tensor kernel calls reuse a
        single upload.  The lazy assignment is a benign race under the volume
        thread pool — worst case two threads upload the same column.
        """
        xp = self.engine.xp
        memo = self._rank_device
        key = id(t_rank)
        if memo is not None and memo[0] == key:
            return memo[1], memo[2]
        started = time.perf_counter()
        wide = xp.asarray(t_rank)
        narrow = xp.asarray(rank32)
        self._add_transfer_seconds(time.perf_counter() - started)
        self._rank_device = (key, wide, narrow)
        return wide, narrow

    def _volume_sorted(
        self, tensor, layout, t_rank, relations, assume_unique, rank_span, rank32,
    ):
        # Inserted between the bit-set try (owned by AffineBackend._volume_one,
        # in exactly one place) and the compiled grouped kernel.
        if assume_unique:
            fused = self._fused_layout(layout)
            if fused is not None and fused.usable:
                engine = self.engine
                span = rank_span if rank_span is not None else int(t_rank.max()) + 1
                narrow32 = rank32 if rank32 is not None else t_rank.astype(np.int32)
                xp = engine.xp
                rank_wide = rank_narrow = None
                if not xp.is_numpy:
                    rank_wide, rank_narrow = self._rank_device_for(t_rank, narrow32)
                metrics = fused_group_volume_metrics(
                    tensor,
                    fused,
                    t_rank,
                    spatial_interval=engine._spacetime.spatial_interval,
                    temporal_interval=engine.temporal_interval,
                    footprint=relations.tensors[tensor].footprint,
                    rank_span=span,
                    rank32=narrow32,
                    xp=xp,
                    rank_wide=rank_wide,
                    rank_narrow=rank_narrow,
                    on_transfer=self._add_transfer_seconds,
                )
                if metrics is not None:
                    return metrics, "fused_path"
        return super()._volume_sorted(
            tensor, layout, t_rank, relations, assume_unique, rank_span, rank32
        )
