"""Perturbation of documents: mask a random subset of token positions and
refill each mask from a candidate pool.

The built-in implementation draws replacements from the corpus unigram
distribution restricted to the most frequent ``zeta`` words. An external
client speaks a line-delimited JSON protocol so that a masked-language-model
service can supply context-aware candidates instead.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from ._transport import JsonLinesTransport
from ._validation import check_probability, check_positive_int
from .corpus import Document, WordStats

__all__ = [
    "Perturbator",
    "UnigramPerturbator",
    "ExternalPerturbatorClient",
    "ExternalPerturbatorError",
    "build_unigram_perturbator",
]


class Perturbator:
    """Interface: sample perturbed variants of a document.

    Positions listed in ``keep`` are never altered and the output always has
    the same length as the input. Sampling is deterministic for a given
    generator state.
    """

    def sample(self, doc: Document, keep: Iterable[int],
               rng: np.random.Generator) -> Document:
        words = self.sample_batch(doc, keep, 1, rng)[0]
        return Document(id=doc.id, words=words, raw_text=" ".join(words))

    def sample_batch(self, doc: Document, keep: Iterable[int], n: int,
                     rng: np.random.Generator) -> list[tuple[str, ...]]:
        raise NotImplementedError


class UnigramPerturbator(Perturbator):
    """Frequency-weighted unigram replacement pool shared by all positions.

    Each position outside ``keep`` is masked independently with probability
    ``mask_prob``; every masked position is refilled by one weighted draw
    from the pool. Filling is a single independent pass per position.
    """

    def __init__(self, pool_words: Sequence[str], pool_weights: Sequence[float],
                 mask_prob: float = 0.5, zeta: int | None = None):
        if len(pool_words) == 0:
            raise ValueError("empty replacement pool")
        if len(pool_words) != len(pool_weights):
            raise ValueError("pool words/weights length mismatch")
        check_probability(mask_prob, "mask_prob", open_low=True, open_high=False)
        self.pool_words = np.asarray(list(pool_words), dtype=object)
        weights = np.asarray(pool_weights, dtype=np.float64)
        if np.any(weights < 0) or weights.sum() <= 0:
            raise ValueError("pool weights must be non-negative with positive sum")
        self.pool_weights = weights / weights.sum()
        # the CDF ``rng.choice(p=pool_weights)`` builds on every call: searching
        # it with the same uniforms gives the same draws and stream state
        self._cdf = self.pool_weights.cumsum()
        self._cdf /= self._cdf[-1]
        self.mask_prob = float(mask_prob)
        self.zeta = int(zeta) if zeta is not None else len(pool_words)

    def sample_batch(self, doc: Document, keep: Iterable[int], n: int,
                     rng: np.random.Generator) -> list[tuple[str, ...]]:
        m = len(doc.words)
        keep_set = set(keep)
        for pos in keep_set:
            if not 0 <= pos < m:
                raise ValueError(f"keep position {pos} outside document of length {m}")
        free = np.asarray([i for i in range(m) if i not in keep_set], dtype=np.intp)
        if free.size == 0 or n == 0:
            return [tuple(doc.words)] * n
        masks = rng.random((n, free.size)) < self.mask_prob
        rows = np.empty((n, m), dtype=object)
        rows[:] = doc.words
        # nonzero lists the masked slots row by row, the order the draws fill
        masked_row, masked_col = np.nonzero(masks)
        if masked_row.size:
            picks = self._cdf.searchsorted(rng.random(masked_row.size), side="right")
            rows[masked_row, free[masked_col]] = self.pool_words[picks]
        return list(map(tuple, rows.tolist()))


def build_unigram_perturbator(stats: WordStats, zeta: int = 500,
                              mask_prob: float = 0.5) -> UnigramPerturbator:
    """Pool of the ``zeta`` most frequent corpus words, weighted by count.

    Frequency ties are broken lexicographically so the pool is deterministic.
    """
    check_positive_int(zeta, "zeta")
    if not stats.vocabulary:
        raise ValueError("empty vocabulary")
    ranked = sorted(stats.total_count.items(), key=lambda kv: (-kv[1], kv[0]))
    top = ranked[:zeta]
    words = [w for w, _ in top]
    weights = [float(c) for _, c in top]
    return UnigramPerturbator(words, weights, mask_prob=mask_prob, zeta=zeta)


class ExternalPerturbatorError(RuntimeError):
    """Endpoint unreachable or protocol violation."""


class ExternalPerturbatorClient(Perturbator):
    """Client for the line-delimited JSON perturbator protocol.

    Request:  ``{"text": string, "masked_positions": [int, ...], "zeta": int}``
    Response: ``{"candidates": [[{"word": string, "weight": float}, ...], ...]}``
    with one candidate list per masked position, each of at most ``zeta``
    entries with non-negative weights. The mask pattern is drawn locally;
    the service owns the fill distribution (and may condition or iterate
    internally). Candidates are not cached: each sample is a fresh draw over
    a fresh mask pattern.
    """

    def __init__(self, endpoint: str | None = None,
                 command: Sequence[str] | None = None,
                 zeta: int = 500, mask_prob: float = 0.5, timeout: float = 30.0):
        check_probability(mask_prob, "mask_prob", open_low=True, open_high=False)
        self._transport = JsonLinesTransport(endpoint, command, timeout,
                                             ExternalPerturbatorError, "perturbator")
        self.zeta = int(zeta)
        self.mask_prob = float(mask_prob)

    def _candidates(self, doc: Document, masked: list[int]) -> list[list[tuple[str, float]]]:
        payload = self._transport.roundtrip({
            "text": doc.raw_text,
            "masked_positions": masked,
            "zeta": self.zeta,
        })
        if "candidates" not in payload:
            raise ExternalPerturbatorError("response lacks candidates field")
        rows = payload["candidates"]
        if len(rows) != len(masked):
            raise ExternalPerturbatorError(
                f"{len(rows)} candidate lists for {len(masked)} masked positions")
        out = []
        for row in rows:
            if len(row) > self.zeta:
                raise ExternalPerturbatorError("candidate list exceeds zeta")
            pairs = [(str(e["word"]), float(e["weight"])) for e in row]
            if any(w < 0 for _, w in pairs):
                raise ExternalPerturbatorError("negative candidate weight")
            out.append(pairs)
        return out

    def sample_batch(self, doc: Document, keep: Iterable[int], n: int,
                     rng: np.random.Generator) -> list[tuple[str, ...]]:
        m = len(doc.words)
        keep_set = set(keep)
        free = [i for i in range(m) if i not in keep_set]
        out = []
        for _ in range(n):
            masked = [i for i in free if rng.random() < self.mask_prob]
            words = list(doc.words)
            if masked:
                for pos, pairs in zip(masked, self._candidates(doc, masked)):
                    if not pairs:
                        continue  # service had no suggestion: keep original word
                    weights = np.asarray([w for _, w in pairs], dtype=np.float64)
                    if weights.sum() <= 0:
                        continue
                    pick = rng.choice(len(pairs), p=weights / weights.sum())
                    words[pos] = pairs[int(pick)][0]
            out.append(tuple(words))
        return out

    def close(self):
        self._transport.close()
