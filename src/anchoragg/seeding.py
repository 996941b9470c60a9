"""Deterministic RNG streams derived from one root seed.

Every random draw in the package flows from a single integer root seed,
expanded into independent named streams. Stream identity is built from the
root seed plus a sequence of string/int keys. Each token's anchor test owns
its own stream (``token_streams``), so its draws do not depend on which other
tokens are tested, or in what order.

``SeedSequence`` reads a list of keys as the concatenation of their 32-bit
words. ``token_streams`` seeds every position of a command's documents in
one pass: it writes each position's words (root seed, ``"perturb"``,
document id, position) as one row of a ``uint32`` matrix, and
``_seed_states`` runs ``SeedSequence``'s hash over all rows at once as array
arithmetic. Row ``t`` of the result is the ``PCG64`` seed
``SeedSequence(row t)`` generates, so each position gets the very stream
``stream_rng`` gives it. Each table checks its first row against a real
``SeedSequence`` and raises ``RuntimeError`` if they differ, so a numpy that
changed the algorithm fails loudly.
"""

from __future__ import annotations

import hashlib
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np
from numpy.random.bit_generator import ISeedSequence

if TYPE_CHECKING:
    from .corpus import Document

__all__ = ["stream_rng", "stream_seed", "token_streams"]

# numpy's SeedSequence: its pool of 32-bit words and its hash constants
POOL_SIZE = 4
XSHIFT = 16
INIT_A = 0x43b0d7e5
MULT_A = 0x931e8875
INIT_B = 0x8b51f9dd
MULT_B = 0x58f38ded
MIX_MULT_L = 0xca01f9dd
MIX_MULT_R = 0x4973f715

# rows hashed together: bounds the kernel's temporaries on a large corpus
_BLOCK_ROWS = 1 << 15


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


def _hash_constants(init: int, mult: int, n: int) -> np.ndarray:
    """The running constant of ``n`` successive hashes and the one after:
    hash ``i`` XORs with entry ``i`` and multiplies by entry ``i + 1``."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    return np.array(consts, dtype=np.uint32)


def _hash(values: np.ndarray, xor, mult) -> np.ndarray:
    """``SeedSequence``'s ``hashmix``, and ``generate_state``'s step: XOR
    with the running constant, multiply by the next, xorshift."""
    h = values ^ xor
    h *= mult
    h ^= h >> np.uint32(XSHIFT)
    return h


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """``SeedSequence``'s ``mix`` of ``y`` into ``x``, in place."""
    x *= np.uint32(MIX_MULT_L)
    x -= y * np.uint32(MIX_MULT_R)
    x ^= x >> np.uint32(XSHIFT)
    return x


def _seed_states(entropy: np.ndarray) -> np.ndarray:
    """``(T, 4)`` ``uint64``: row ``t`` is
    ``np.random.SeedSequence(entropy[t]).generate_state(4, np.uint64)`` for
    the ``(T, w)`` ``uint32`` entropy matrix, ``w >= 4``.

    The hash constants advance with each hash whatever the data, so each
    step is one array operation over all rows. The words are held one row
    per word, so a column-major ``entropy`` is read without a copy.
    """
    words = np.ascontiguousarray(entropy.T)
    a = _hash_constants(INIT_A, MULT_A, POOL_SIZE * len(words))[:, None]
    # the first words fill the pool
    pool = _hash(words[:POOL_SIZE], a[:POOL_SIZE], a[1:POOL_SIZE + 1])
    k = POOL_SIZE
    # each pool word is mixed into every other one
    for src in range(POOL_SIZE):
        hashed = iter(_hash(pool[src], a[k:k + POOL_SIZE - 1], a[k + 1:k + POOL_SIZE]))
        for dst in range(POOL_SIZE):
            if dst != src:
                _mix(pool[dst], next(hashed))
        k += POOL_SIZE - 1
    # each remaining word is mixed into every pool word
    for word in words[POOL_SIZE:]:
        _mix(pool, _hash(word, a[k:k + POOL_SIZE], a[k + 1:k + POOL_SIZE + 1]))
        k += POOL_SIZE
    # generate_state: 8 words cycling over the pool, read as little-endian uint64
    b = _hash_constants(INIT_B, MULT_B, 2 * POOL_SIZE)[:, None]
    state = np.ascontiguousarray(_hash(np.concatenate([pool, pool]), b[:-1], b[1:]).T)
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


def _token_seeds(root_seed: int, doc_ids: Sequence[str], doc_of: np.ndarray,
                 positions: np.ndarray) -> np.ndarray:
    """``(T, 4)`` ``uint64``: row ``t`` is the ``PCG64`` seed of
    ``stream_rng(root_seed, "perturb", doc_ids[doc_of[t]], positions[t])``.

    Each token's entropy is one column of a ``uint32`` matrix: 1 or 2 root
    words, 4 for ``"perturb"``, 4 for the document id, 2 for the position.
    The first row is checked against ``np.random.SeedSequence``; a mismatch
    (a numpy whose ``SeedSequence`` hashes differently) raises
    ``RuntimeError``.
    """
    root = int(root_seed) & 0xFFFFFFFFFFFFFFFF
    # SeedSequence takes a Python int as its little-endian 32-bit words
    head = [root & 0xFFFFFFFF] + ([root >> 32] if root >> 32 else []) \
        + list(_key_words("perturb"))
    ids = np.array([_key_words(d) for d in doc_ids], dtype=np.uint32).reshape(-1, 4)
    positions = np.asarray(positions, dtype=np.int64)
    words = np.empty((len(head) + 6, len(positions)), dtype=np.uint32)
    words[:len(head)] = np.array(head, dtype=np.uint32)[:, None]
    words[len(head):-2] = ids.T[:, doc_of]
    words[-2] = positions & 0xFFFFFFFF
    words[-1] = positions >> 32
    entropy = words.T
    seeds = np.empty((len(entropy), 4), dtype=np.uint64)
    for start in range(0, len(entropy), _BLOCK_ROWS):
        seeds[start:start + _BLOCK_ROWS] = _seed_states(entropy[start:start + _BLOCK_ROWS])
    if len(seeds) and not np.array_equal(
            seeds[0], np.random.SeedSequence(entropy[0]).generate_state(4, np.uint64)):
        raise RuntimeError("the vectorized SeedSequence disagrees with numpy's "
                           f"{np.__version__}: token streams would change")
    return seeds


class _Seeded(ISeedSequence):
    """The seed of one ``PCG64``: the 4 words ``_token_seeds`` computed for
    it, which ``PCG64`` asks for as ``generate_state(4, np.uint64)``."""

    __slots__ = ("_state",)

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self._state


def token_streams(root_seed: int, docs: Sequence[Document]
                  ) -> list[Callable[[int], np.random.Generator]]:
    """Per document, the generator of each token position: the stream that
    position's anchor test draws from, equal to ``stream_rng(root_seed,
    "perturb", doc.id, position)`` state for state.

    Every position of every document is seeded at once by ``_token_seeds``
    (32 bytes per token); a generator is built only when its position is
    asked for.
    """
    lengths = np.array([len(doc.words) for doc in docs], dtype=np.intp)
    starts = np.cumsum(lengths) - lengths
    doc_of = np.repeat(np.arange(len(docs)), lengths)
    seeds = _token_seeds(root_seed, [doc.id for doc in docs], doc_of,
                         np.arange(len(doc_of)) - starts[doc_of])

    def positions_of(start: int, length: int) -> Callable[[int], np.random.Generator]:
        def rng_for(position: int) -> np.random.Generator:
            if not 0 <= position < length:
                raise IndexError(f"position {position} of a {length}-token document")
            return np.random.Generator(np.random.PCG64(_Seeded(seeds[start + position])))
        return rng_for
    return [positions_of(start, length)
            for start, length in zip(starts.tolist(), lengths.tolist())]
