"""Perturbation of documents: mask a random subset of token positions and
refill each mask from a candidate pool.

The built-in implementation draws replacements from the corpus unigram
distribution restricted to the most frequent ``zeta`` words. It picks through
a guide table over the pool's CDF, built once, and searches the CDF only for
uniforms whose bin holds a CDF step; every pick equals the CDF search
``rng.choice`` makes with the same uniform. An external
client speaks a line-delimited JSON protocol so that a masked-language-model
service can supply context-aware candidates instead.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

import numpy as np

from ._validation import check_positive_int, check_probability, check_timeout
from .corpus import Document, WordStats
from .model import DEFAULT_TIMEOUT, pad_rows

__all__ = [
    "Perturbator",
    "UnigramPerturbator",
    "ExternalPerturbatorClient",
    "ExternalPerturbatorError",
    "build_unigram_perturbator",
]

# the pool size and the masking rate every perturbator and front end default to
DEFAULT_ZETA = 500
DEFAULT_MASK_PROB = 0.5
# bins of the pool's guide table (Chen & Asau 1974), a power of two: enough
# that few bins hold a CDF step, few enough that the table builds in well
# under a millisecond
GUIDE_BINS = 8192


class Perturbator:
    """Interface: sample perturbed variants of a document.

    Positions listed in ``keep`` are never altered and the output always has
    the same length as the input. Sampling is deterministic for a given
    generator state.
    """

    def sample_batch(self, doc: Document, keep: Iterable[int], n: int,
                     rng: np.random.Generator) -> list[tuple[str, ...]]:
        raise NotImplementedError

    def sampler(self, docs: Sequence[Document], encode: Callable, pad
                ) -> Callable[..., np.ndarray]:
        """``draw(doc_of, positions, n, rngs)``: one matrix of the ``encode``
        ids of the rows that ``sample_batch(docs[doc_of[t]], (positions[t],),
        n, rngs[t])`` draws, block ``t`` of ``n`` rows after block ``t - 1``,
        each generator consumed as that call consumes it. ``doc_of`` and
        ``positions`` are integer arrays; rows shorter than the longest are
        padded at the end with ``pad``. By default ``draw`` makes those calls
        and encodes their words in one call."""
        def draw(doc_of, positions, n, rngs):
            rows = [row for d, pos, rng in zip(doc_of.tolist(), positions.tolist(), rngs)
                    for row in self.sample_batch(docs[d], (pos,), n, rng)]
            return pad_rows(encode([w for row in rows for w in row]),
                            [len(row) for row in rows], pad)
        return draw


def _free(m: int, keep: Iterable[int]) -> list[int]:
    """The positions of an ``m``-word document outside ``keep``; a keep
    position outside the document raises ValueError."""
    keep_set = set(keep)
    for pos in keep_set:
        if not 0 <= pos < m:
            raise ValueError(f"keep position {pos} outside document of length {m}")
    return [i for i in range(m) if i not in keep_set]


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Per bin ``[b, b + 1) / GUIDE_BINS`` of [0, 1), the pick that
    ``cdf.searchsorted(u, side="right")`` gives every ``u`` in it, or -1 where
    a CDF value lies strictly inside the bin and the pick varies. A uniform's
    bin is ``floor(u * GUIDE_BINS)``, exact as the bin count is a power of two.
    """
    edges = np.arange(GUIDE_BINS + 1) / GUIDE_BINS
    low = cdf.searchsorted(edges[:-1], side="right")
    return np.where(low == cdf.searchsorted(edges[1:], side="left"), low, -1)


class UnigramPerturbator(Perturbator):
    """Frequency-weighted unigram replacement pool shared by all positions.

    Each position outside ``keep`` is masked independently with probability
    ``mask_prob``; every masked position is refilled by one weighted draw
    from the pool. Filling is a single independent pass per position.
    """

    def __init__(self, pool_words: Sequence[str], pool_weights: Sequence[float],
                 mask_prob: float = DEFAULT_MASK_PROB):
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
        self._guide = _guide_table(self._cdf)
        self.mask_prob = float(mask_prob)

    @classmethod
    def from_counts(cls, totals: Mapping[str, int], zeta: int = DEFAULT_ZETA,
                    mask_prob: float = DEFAULT_MASK_PROB) -> "UnigramPerturbator":
        """Pool of the ``zeta`` words with the most occurrences in
        ``totals``, weighted by count. Frequency ties are broken
        lexicographically so the pool is deterministic."""
        check_positive_int(zeta, "zeta")
        if not totals:
            raise ValueError("empty vocabulary")
        top = sorted(totals.items(), key=lambda kv: (-kv[1], kv[0]))[:zeta]
        return cls([w for w, _ in top], [float(c) for _, c in top],
                   mask_prob=mask_prob)

    def sample_round(self, wave_ids: np.ndarray, lengths: np.ndarray,
                     doc_of: np.ndarray, positions: np.ndarray, n: int,
                     rngs: Sequence[np.random.Generator], fill_ids: np.ndarray
                     ) -> np.ndarray:
        """Every token's batch of a round, drawn in one step, in ids: the
        matrix ``Perturbator.sampler``'s ``draw`` returns, as wide as the
        longest of the tokens' documents.

        Token ``t`` keeps position ``positions[t]`` of document ``doc_of[t]``:
        row ``doc_of[t]`` of ``wave_ids``, whose first ``lengths[doc_of[t]]``
        entries are the document's ids and the rest the pad (see
        ``model.pad_rows``). ``fill_ids`` are those of ``pool_words``, in the
        same id space. Both may also be object arrays of the words
        themselves; the rows then hold words.
        """
        doc_of = np.asarray(doc_of, dtype=np.intp)
        kept = np.asarray(positions, dtype=np.intp)
        m = lengths[doc_of]
        if ((kept < 0) | (kept >= m)).any():
            raise ValueError("keep position outside its document")
        rows = wave_ids[doc_of, :m.max(initial=0)].repeat(n, axis=0)
        row, col, picks = self._masked_slots(m - 1, n, rngs)
        # the free slots of a row skip its kept position; ``rows`` is a fresh
        # C-ordered copy, so its flat view takes the fill in one 1-D scatter
        col += col >= kept.repeat(n)[row]
        rows.reshape(-1)[row * rows.shape[1] + col] = fill_ids[picks]
        return rows

    def _masked_slots(self, counts: np.ndarray, n: int,
                      rngs: Sequence[np.random.Generator]
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The masked slots of ``n`` rows per generator, generator ``t`` free
        to mask ``counts[t]`` slots of each: their rows, their columns among
        those slots and the pool index picked for each, in the order the
        generators fill them.

        Generator ``t`` draws the mask uniforms of its ``(n, counts[t])``
        block, row by row, then one pick uniform per masked slot in that
        order; the compare, the listing and the pool search run once for all
        generators. The blocks lie end to end, so a token of a shorter
        document draws no uniform for the pad.
        """
        sizes = n * counts
        uniforms = np.empty(int(sizes.sum()))
        start = 0
        for rng, size in zip(rngs, sizes.tolist()):
            rng.random(out=uniforms[start:start + size])
            start += size
        slots = (uniforms < self.mask_prob).nonzero()[0]
        per_row = counts.repeat(n)
        row = np.arange(per_row.size).repeat(per_row)[slots]
        col = slots - (per_row.cumsum() - per_row)[row]
        ends = row.searchsorted(np.arange(1, len(rngs) + 1) * n)
        pick_uniforms = np.empty(slots.size)
        start = 0
        for rng, end in zip(rngs, ends.tolist()):
            rng.random(out=pick_uniforms[start:end])
            start = end
        return row, col, self._pick(pick_uniforms)

    def _pick(self, uniforms: np.ndarray) -> np.ndarray:
        """``self._cdf.searchsorted(uniforms, side="right")``: the guide table's
        entry of each uniform's bin, searched only where the bin holds a step."""
        picks = self._guide[(uniforms * GUIDE_BINS).astype(np.intp)]
        straddle = (picks < 0).nonzero()[0]
        if straddle.size:
            picks[straddle] = self._cdf.searchsorted(uniforms[straddle], side="right")
        return picks

    def sampler(self, docs: Sequence[Document], encode: Callable, pad
                ) -> Callable[..., np.ndarray]:
        """One ``sample_round`` per ``draw``, from the documents, encoded and
        padded once, and the pool, encoded once."""
        lengths = [len(d.words) for d in docs]
        wave_ids = pad_rows(encode([w for d in docs for w in d.words]), lengths, pad)
        lengths, fill_ids = np.asarray(lengths), encode(self.pool_words)
        return lambda doc_of, positions, n, rngs: self.sample_round(
            wave_ids, lengths, doc_of, positions, n, rngs, fill_ids)

    def sample_batch(self, doc: Document, keep: Iterable[int], n: int,
                     rng: np.random.Generator) -> list[tuple[str, ...]]:
        free = np.asarray(_free(len(doc.words), keep), dtype=np.intp)
        rows = np.asarray([doc.words], dtype=object).repeat(n, axis=0)
        row, col, picks = self._masked_slots(np.asarray([free.size]), n, (rng,))
        rows[row, free[col]] = self.pool_words[picks]
        return list(map(tuple, rows.tolist()))


def build_unigram_perturbator(stats: WordStats, zeta: int = DEFAULT_ZETA,
                              mask_prob: float = DEFAULT_MASK_PROB
                              ) -> UnigramPerturbator:
    """Pool of the ``zeta`` most frequent corpus words, weighted by count
    (see ``UnigramPerturbator.from_counts``)."""
    return UnigramPerturbator.from_counts(stats.total_count, zeta, mask_prob)


class ExternalPerturbatorError(RuntimeError):
    """Endpoint unreachable or protocol violation."""


class ExternalPerturbatorClient(Perturbator):
    """Client for the line-delimited JSON perturbator protocol.

    Request:  ``{"text": string, "masked_positions": [int, ...], "zeta": int}``
    Response: ``{"candidates": [[{"word": string, "weight": float}, ...], ...]}``
    with one candidate list per masked position, each of at most ``zeta``
    entries with finite, non-negative weights. The mask pattern is drawn
    locally; the service owns the fill distribution (and may condition or
    iterate internally). Candidates are not cached: each sample is a fresh
    draw over a fresh mask pattern.
    """

    def __init__(self, endpoint: str | None = None,
                 command: Sequence[str] | None = None,
                 zeta: int = DEFAULT_ZETA, mask_prob: float = DEFAULT_MASK_PROB,
                 timeout: float = DEFAULT_TIMEOUT):
        check_probability(mask_prob, "mask_prob", open_low=True, open_high=False)
        self.zeta = check_positive_int(zeta, "zeta")
        check_timeout(timeout)
        # imported here: the transport loads subprocess, which only an
        # external client needs
        from ._transport import JsonLinesTransport

        self._transport = JsonLinesTransport(endpoint, command, timeout,
                                             ExternalPerturbatorError, "perturbator")
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
        if not (isinstance(rows, list) and all(isinstance(row, list) for row in rows)):
            raise ExternalPerturbatorError("candidates is not a list of lists")
        if len(rows) != len(masked):
            raise ExternalPerturbatorError(
                f"{len(rows)} candidate lists for {len(masked)} masked positions")
        out = []
        for row in rows:
            if len(row) > self.zeta:
                raise ExternalPerturbatorError("candidate list exceeds zeta")
            try:
                pairs = [(str(e["word"]), float(e["weight"])) for e in row]
            except (KeyError, TypeError, ValueError) as exc:
                raise ExternalPerturbatorError(
                    "candidate entries must be objects with word and weight") from exc
            # NaN fails the comparison
            if not all(0 <= w < np.inf for _, w in pairs):
                raise ExternalPerturbatorError(
                    "candidate weights must be finite and non-negative")
            out.append(pairs)
        return out

    def sample_batch(self, doc: Document, keep: Iterable[int], n: int,
                     rng: np.random.Generator) -> list[tuple[str, ...]]:
        free = _free(len(doc.words), keep)
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
