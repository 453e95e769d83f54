"""Deterministic shard partitioning of a candidate stream.

Sharding hashes the candidate's *structural signature* with a stable digest
(:func:`signature_shard_index`), so ``N`` machines enumerating the same space
partition it with **no coordination**: every candidate lands in exactly one
shard, on every machine, in every process, across Python versions (unlike the
built-in ``hash``, which is salted per process).  Because the shard of a
candidate depends only on its signature, structural duplicates always land in
the same shard, so deduplicating before or after sharding keeps the same
candidates.  :meth:`repro.sweep.session.SweepSession.run` applies the
partition; ``--shard i/n`` selectors are parsed and checked here.
"""

from __future__ import annotations

import hashlib

from repro.errors import ExplorationError


def signature_shard_index(signature: str, count: int) -> int:
    """Deterministic shard of a candidate signature, stable across processes.

    The first 8 bytes of the BLAKE2b digest of the signature, reduced modulo
    ``count``.  Process-portable by construction, matching the structural
    memo/cache keys of the engine.
    """
    digest = hashlib.blake2b(signature.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big") % count


def parse_shard(text: str) -> tuple[int, int]:
    """Parse an ``"i/n"`` shard selector into a validated ``(index, count)``."""
    try:
        index_text, count_text = text.split("/", 1)
        index, count = int(index_text), int(count_text)
    except ValueError:
        raise ExplorationError(
            f"invalid shard selector {text!r}; expected 'index/count', e.g. '0/2'"
        ) from None
    return validate_shard((index, count))


def validate_shard(shard: tuple[int, int]) -> tuple[int, int]:
    index, count = int(shard[0]), int(shard[1])
    if count < 1 or not 0 <= index < count:
        raise ExplorationError(
            f"invalid shard {index}/{count}: need count >= 1 and 0 <= index < count"
        )
    return index, count
