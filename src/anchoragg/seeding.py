"""Deterministic RNG streams derived from one root seed.

Every random draw in the package flows from a single integer root seed,
expanded into independent named streams. Stream identity is built from the
root seed plus a sequence of string/int keys. Each token's anchor test owns
its own stream (``token_streams``), so its draws do not depend on which other
tokens are tested, or in what order.
"""

from __future__ import annotations

import hashlib
from functools import lru_cache, partial
from typing import Callable

import numpy as np

__all__ = ["stream_rng", "stream_seed", "token_streams"]


def _key_words(key: str | int) -> tuple[int, ...]:
    if isinstance(key, int):
        return key & 0xFFFFFFFF, (key >> 32) & 0xFFFFFFFF
    return _str_words(key)


# a document's streams share their string keys ("perturb", the document id),
# so each is hashed once, not once per position
@lru_cache(maxsize=4096)
def _str_words(key: str) -> tuple[int, ...]:
    digest = hashlib.sha256(key.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i:i + 4], "little") for i in range(0, 16, 4))


def stream_seed(root_seed: int, *keys: str | int) -> np.random.SeedSequence:
    """SeedSequence for the stream named by ``keys`` under ``root_seed``."""
    entropy: list[int] = [int(root_seed) & 0xFFFFFFFFFFFFFFFF]
    for key in keys:
        entropy.extend(_key_words(key))
    return np.random.SeedSequence(entropy)


def stream_rng(root_seed: int, *keys: str | int) -> np.random.Generator:
    """Fresh PCG64 generator for the named stream."""
    return np.random.Generator(np.random.PCG64(stream_seed(root_seed, *keys)))


def token_streams(root_seed: int, doc_id: str) -> Callable[[int], np.random.Generator]:
    """The generator of each token position of document ``doc_id``: the
    stream that position's anchor test draws from."""
    return partial(stream_rng, root_seed, "perturb", doc_id)
