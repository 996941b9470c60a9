"""Deterministic RNG streams derived from one root seed.

Every random draw in the package flows from a single integer root seed,
expanded into independent named streams. Stream identity is built from the
root seed plus a sequence of string/int keys. Each token's anchor test owns
its own stream (``token_streams``), so its draws do not depend on which other
tokens are tested, or in what order.

``SeedSequence`` reads a list of keys as the concatenation of their 32-bit
words. ``token_streams`` builds those words as one ``uint32`` array per
document, with the root seed, ``"perturb"`` and the document id written
once, and per token writes only the two position words; so it seeds each
position with the very entropy ``stream_rng`` gives it.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

__all__ = ["stream_rng", "stream_seed", "token_streams"]


def _key_words(key: str | int) -> tuple[int, ...]:
    if isinstance(key, int):
        return key & 0xFFFFFFFF, (key >> 32) & 0xFFFFFFFF
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
    stream that position's anchor test draws from, equal to
    ``stream_rng(root_seed, "perturb", doc_id, position)``."""
    root = int(root_seed) & 0xFFFFFFFFFFFFFFFF
    # SeedSequence takes a Python int as its little-endian 32-bit words
    root_words = [root & 0xFFFFFFFF] + ([root >> 32] if root >> 32 else [])
    words = np.array(root_words + [*_key_words("perturb"), *_key_words(doc_id), 0, 0],
                     dtype=np.uint32)

    def rng_for(position: int) -> np.random.Generator:
        entropy = words.copy()
        entropy[-2:] = _key_words(position)
        return np.random.Generator(np.random.PCG64(np.random.SeedSequence(entropy)))
    return rng_for
