"""The benchmark's inputs, generated from a seed.

Shared by the benchmark (``run.py``) and the generator of its committed
reference results (``make_expected.py``), so both see the same candidates
and requests.  The program only ever receives the generated inputs.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import random
from typing import Iterator

# -- gemm-sweep ------------------------------------------------------------------

GEMM_SIZES = (48, 48, 48)
PE_DIMS = (8, 8)
#: One interconnect per volume-probe style: constant-offset slots (systolic,
#: mesh) and per-pair searchsorted (multicast).
INTERCONNECTS = ("2d-systolic", "mesh", "2d-multicast")


def gemm_specs() -> list[tuple[str, str, tuple[int, ...], int]]:
    """The 144 structured gemm candidates: space-axis pairs x time orders x
    skews, as ``(first space dim, second space dim, time order, skew)``."""
    dims = ("i", "j", "k")
    return [
        (first, second, order, skew)
        for first, second in itertools.permutations(dims, 2)
        for order in itertools.permutations(range(3))
        for skew in range(4)
    ]


def gemm_candidate(op, spec):
    """Build one structured candidate (skews add space terms to the
    innermost time stamp, the systolic movement family)."""
    from repro.core.dataflow import Dataflow
    from repro.isl.expr import var

    first, second, order, skew = spec
    rows, cols = PE_DIMS
    remaining = [dim for dim in op.loop_dims if dim not in (first, second)]
    space = [var(first) % rows, var(second) % cols]
    base = [var(remaining[0]), var(first) // rows, var(second) // cols]
    time_exprs = [base[index] for index in order]
    inner = time_exprs[-1]
    if skew & 1:
        inner = inner + space[0]
    if skew & 2:
        inner = inner + space[1]
    time_exprs[-1] = inner
    name = f"({first}{second}-P | {''.join(map(str, order))}s{skew}-T)"
    return Dataflow.from_exprs(name, op.domain.space, space, time_exprs)


#: The explorer's default batch size.  The seed reorders candidates only
#: inside each batch window, so every seed evaluates the same batches: the
#: fused kernel's memory and time depend on which candidates share a batch.
GEMM_BATCH = 64


def gemm_order(seed: int) -> list[int]:
    """The seed's candidate order (a permutation of :func:`gemm_specs`)."""
    rng = random.Random(seed)
    order = []
    count = len(gemm_specs())
    for start in range(0, count, GEMM_BATCH):
        window = list(range(start, min(start + GEMM_BATCH, count)))
        rng.shuffle(window)
        order += window
    return order


# -- conv-explore / fleet-conv ---------------------------------------------------

#: GoogLeNet incpt-3a scaled down (K C OY OX R S); 110,592 instances.
CONV_SIZES = ("16", "12", "8", "8", "3", "3")
CONV_CANDIDATES = 320
CONV_ARGS = ("--kernel", "conv2d", "--sizes", *CONV_SIZES)


# -- serve-mix -------------------------------------------------------------------

#: Operations kept resident by replays (kernel, sizes, max_candidates).
HOT_OPS = (("gemm", (24, 24, 24), 12), ("conv2d", (8, 8, 6, 6, 3, 3), 16))
HOT_OBJECTIVES = ("latency", "energy", "edp")
#: A hot operation on another scratchpad bandwidth: a new engine over
#: relations already in the server's cache (report memo miss, relation hit).
WARM_BANDWIDTHS = (64.0, 96.0, 192.0, 256.0)
#: Operations rotated through so that each is evicted from the server's
#: 8-engine registry and 8-entry relation cache before it comes back.
COLD_OPS = (
    ("gemm", (32, 32, 32), 8),
    ("gemm", (40, 40, 40), 8),
    ("gemm", (48, 48, 48), 4),
    ("gemm", (56, 56, 56), 4),
    ("gemm", (64, 64, 64), 4),
    ("conv2d", (16, 12, 8, 8, 3, 3), 4),
    ("conv2d", (8, 16, 10, 10, 3, 3), 4),
    ("conv2d", (16, 16, 8, 8, 3, 3), 4),
    ("conv2d", (8, 8, 16, 16, 3, 3), 4),
    ("conv2d", (8, 4, 8, 8, 3, 3), 8),
    ("mttkrp", (16, 16, 16, 16), 4),
    ("mmc", (16, 16, 16, 16), 4),
)
BLOCK_HOT, BLOCK_WARM = 8, 1
#: Blocks in which every pool is walked a whole number of times (cold 12
#: twice, warm 8 three times, hot 6 at 8 a block 32 times).  A run stops only
#: at a multiple of this, so every seed sends the same mix of requests.
SERVE_CYCLE = 24


def _payload(kernel: str, sizes, max_candidates: int, **extra) -> dict:
    return {"kernel": kernel, "sizes": list(sizes), "max_candidates": max_candidates, **extra}


def hot_payloads() -> list[dict]:
    return [
        _payload(kernel, sizes, count, objective=objective)
        for kernel, sizes, count in HOT_OPS
        for objective in HOT_OBJECTIVES
    ]


def warm_payloads() -> list[dict]:
    return [
        _payload(kernel, sizes, count, bandwidth=bandwidth)
        for kernel, sizes, count in HOT_OPS
        for bandwidth in WARM_BANDWIDTHS
    ]


def cold_payloads() -> list[dict]:
    return [_payload(kernel, sizes, count) for kernel, sizes, count in COLD_OPS]


def all_payloads() -> list[dict]:
    return hot_payloads() + warm_payloads() + cold_payloads()


def payload_key(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True)


def serve_blocks(seed: int) -> Iterator[list[tuple[str, dict]]]:
    """Endless seeded request stream, in blocks of 10 labelled requests.

    Every block opens with 1 cold build, which one connection serves while
    the other serves the block's 8 hot replays and 1 warm miss in a seeded
    order.  Blocks end on a barrier, so cold builds never overlap each other
    and replays always run next to a build: the block's wall time and the
    server's peak memory do not hinge on where the seed put the build.
    Every pool is walked cyclically in a seeded permutation, so a warm or
    cold key comes back only after 8 (warm) or 12 (cold) blocks, each
    building 2 new engines: long enough for the server's LRU registry and
    relation cache to have evicted it.
    """
    rng = random.Random(seed)
    hot = hot_payloads()
    warm = warm_payloads()
    cold = cold_payloads()
    for pool in (hot, warm, cold):
        rng.shuffle(pool)
    hot_cycle = itertools.cycle(hot)
    warm_cycle = itertools.cycle(warm)
    cold_cycle = itertools.cycle(cold)
    while True:
        rest = [("hot", next(hot_cycle)) for _ in range(BLOCK_HOT)]
        rest += [("warm", next(warm_cycle)) for _ in range(BLOCK_WARM)]
        rng.shuffle(rest)
        yield [("cold", next(cold_cycle)), *rest]


# -- reference results -----------------------------------------------------------


def signature_key(signature: str) -> str:
    """Compact, collision-safe key for a candidate's structural signature."""
    return hashlib.sha256(signature.encode("utf-8")).hexdigest()[:16]
