"""Deterministic RNG streams derived from one root seed.

Every random draw in the package flows from a single integer root seed,
expanded into independent named streams. Stream identity is built from the
root seed plus a sequence of string/int keys. Each token's anchor test owns
its own stream (``token_streams``), so its draws do not depend on which other
tokens are tested, or in what order.

``token_streams`` builds the very generators ``stream_rng`` builds, but mixes
the entropy a document's streams share (the root seed, ``"perturb"`` and the
document id) once, by NumPy's fixed ``SeedSequence`` algorithm, and mixes
only the two position words per token.
"""

from __future__ import annotations

import hashlib
from itertools import islice
from typing import Callable, Iterator

import numpy as np
from numpy.random.bit_generator import ISeedSequence

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


# NumPy's SeedSequence (numpy/random/bit_generator.pyx) on its default pool
# of four 32-bit words; every product and difference wraps at 32 bits
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hash_consts(init: int, mult: int) -> Iterator[tuple[int, int]]:
    """The endless (xor, multiplier) constants of one of SeedSequence's hashes;
    they do not depend on the words hashed."""
    const = init
    while True:
        nxt = const * mult & _MASK32
        yield const, nxt
        const = nxt


def _hash(value: int, consts: tuple[int, int]) -> int:
    xor, mult = consts
    value = (value ^ xor) * mult & _MASK32
    return value ^ value >> 16


def _mix(x: int, y: int) -> int:
    value = (_MIX_L * x - _MIX_R * y) & _MASK32
    return value ^ value >> 16


def _mix_in(pool: list[int], words, consts: Iterator[tuple[int, int]]) -> list[int]:
    """The pool after ``mix_entropy`` folds ``words``, the entropy past the
    pool's first four words, into every pool word."""
    pool = list(pool)
    for word in words:
        for i in range(4):
            pool[i] = _mix(pool[i], _hash(word, next(consts)))
    return pool


def _mix_entropy(words: list[int], consts: Iterator[tuple[int, int]]) -> list[int]:
    """``mix_entropy``'s pool of ``words``, at least four 32-bit words; it
    draws its hash constants from ``consts``."""
    pool = [_hash(word, next(consts)) for word in words[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], _hash(pool[src], next(consts)))
    return _mix_in(pool, words[4:], consts)


_STATE_CONSTS = list(islice(_hash_consts(_INIT_B, _MULT_B), 8))


def _pcg64_state(pool: list[int]) -> np.ndarray:
    """``generate_state(4, np.uint64)`` of a mixed pool: eight 32-bit words
    drawn round the pool, paired low word first."""
    out = [_hash(pool[i % 4], consts) for i, consts in enumerate(_STATE_CONSTS)]
    return np.array([out[i] | out[i + 1] << 32 for i in range(0, 8, 2)],
                    dtype=np.uint64)


class _FixedState(ISeedSequence):
    """Hands ``PCG64`` a state generated beforehand: the one
    ``generate_state(4, np.uint64)`` call that seeding it makes."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def token_streams(root_seed: int, doc_id: str) -> Callable[[int], np.random.Generator]:
    """The generator of each token position of document ``doc_id``: the
    stream that position's anchor test draws from, equal to
    ``stream_rng(root_seed, "perturb", doc_id, position)``."""
    root = int(root_seed) & 0xFFFFFFFFFFFFFFFF
    # SeedSequence takes a Python int as its little-endian 32-bit words
    root_words = [root & _MASK32] + ([root >> 32] if root >> 32 else [])
    consts = _hash_consts(_INIT_A, _MULT_A)
    pool = _mix_entropy(root_words + [*_key_words("perturb"), *_key_words(doc_id)],
                        consts)
    # the two position words take the next eight hash constants
    position_consts = list(islice(consts, 8))

    def rng_for(position: int) -> np.random.Generator:
        state = _pcg64_state(_mix_in(pool, _key_words(position), iter(position_consts)))
        return np.random.Generator(np.random.PCG64(_FixedState(state)))
    return rng_for
