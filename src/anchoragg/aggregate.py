"""Anchor/non-anchor tallies and the global aggregation functions.

Counts are array-backed over a fixed vocabulary so the anytime driver can
rescore every candidate after each document in one vectorized pass. The
aggregation kinds:

- ``sq``: square root of the anchor count.
- ``av``: anchor count over total occurrences (optionally excluding words
  below a frequency bar).
- ``h``: ``sq`` damped by the entropy of the word's per-class anchor profile.
- ``pr``: maximum-likelihood anchor-emission probability of a two-source
  generative mixture, Laplace-smoothed to a proper distribution.
- ``base``: class share of the documents containing the word (no anchors).
- ``pr_inverse``: reciprocal of ``pr``, a sanity-check baseline.
"""

from __future__ import annotations

import json
import math
from typing import IO, TYPE_CHECKING, Callable, Iterable, Sequence

import numpy as np

from .corpus import WordStats

if TYPE_CHECKING:
    from .anchor import AnchorDecision

__all__ = [
    "AnchorCounts",
    "Aggregation",
    "make_aggregation",
    "AGGREGATION_KINDS",
    "rank_words",
    "dump_scores",
]

# the mixture weight of ``pr`` and the frequency bar of ``av_minfreq``
DEFAULT_ALPHA = 0.5
DEFAULT_MIN_FREQ = 5


class AnchorCounts:
    """Per-(word, class) anchor and non-anchor occurrence tallies.

    Array-backed over a fixed, sorted vocabulary. Documents are ingested
    once each.
    """

    def __init__(self, vocabulary: Iterable[str], classes: Sequence[str]):
        self.words: tuple[str, ...] = tuple(sorted(set(vocabulary)))
        if not self.words:
            raise ValueError("empty vocabulary")
        self.index: dict[str, int] = {w: i for i, w in enumerate(self.words)}
        self.classes: tuple[str, ...] = tuple(classes)
        size = len(self.words)
        self.a_plus: dict[str, np.ndarray] = {
            c: np.zeros(size, dtype=np.int64) for c in self.classes}
        self.a_minus: dict[str, np.ndarray] = {
            c: np.zeros(size, dtype=np.int64) for c in self.classes}
        self._ingested: set[str] = set()

    def plus(self, word: str, c: str) -> int:
        return int(self.a_plus[c][self.index[word]])

    def minus(self, word: str, c: str) -> int:
        return int(self.a_minus[c][self.index[word]])

    def total_plus(self, c: str) -> int:
        return int(self.a_plus[c].sum())

    def total_minus(self, c: str) -> int:
        return int(self.a_minus[c].sum())

    def seen_mask(self, c: str) -> np.ndarray:
        """Words observed so far in processed documents of class c."""
        return (self.a_plus[c] + self.a_minus[c]) > 0

    def ingest(self, decisions: Sequence[AnchorDecision], c: str, doc_id: str) -> None:
        if doc_id in self._ingested:
            raise ValueError(f"document {doc_id!r} already ingested")
        if c not in self.a_plus:
            raise ValueError(f"unknown class {c!r}")
        plus, minus = self.a_plus[c], self.a_minus[c]
        for decision in decisions:
            j = self.index.get(decision.word)
            if j is None:
                raise ValueError(f"word {decision.word!r} outside vocabulary")
            if decision.is_anchor:
                plus[j] += 1
            else:
                minus[j] += 1
        self._ingested.add(doc_id)


# -- probabilistic model ----------------------------------------------------


def _q_raw_vector(a_plus: np.ndarray, a_minus: np.ndarray, alpha: float
                  ) -> tuple[np.ndarray, np.ndarray]:
    """Raw estimates (q, p) over the given count vectors; totals must be > 0."""
    total_plus = a_plus.sum()
    total_minus = a_minus.sum()
    if total_plus <= 0 or total_minus <= 0:
        raise ValueError("model undefined: both anchor and non-anchor totals "
                         "must be positive")
    p = a_minus / total_minus
    q = (1.0 / alpha) * (a_plus / total_plus) - (1.0 / alpha - 1.0) * p
    return q, p


def _smooth_vector(q: np.ndarray) -> tuple[np.ndarray, float]:
    """Additive shift by |min| then renormalize; identity when min >= 0."""
    q_min = float(q.min())
    if q_min >= 0:
        return q.copy(), q_min
    beta = abs(q_min)
    return (q + beta) / (1.0 + q.size * beta), q_min


def _entropy_rows(gsq: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-word entropy of the class profile; defined where the row sum > 0."""
    rowsum = gsq.sum(axis=1)
    defined = rowsum > 0
    h = np.zeros(gsq.shape[0])
    if defined.any():
        share = gsq[defined] / rowsum[defined, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = np.where(share > 0, share * np.log(share), 0.0)
        h[defined] = -terms.sum(axis=1)
    return h, defined


# -- aggregation kinds for the anytime driver --------------------------------


class Aggregation:
    """A named aggregation with vectorized scoring over a counts table.

    ``rank_values`` returns one value per word of the counts vocabulary with
    NaN marking words excluded from ranking; undefined-but-rankable scores
    fall back to 0 so a ranking always exists. ``upper_bounds`` evaluates
    the same aggregation under the optimistic assumption that each word's
    remaining occurrences all land as anchors (other words unchanged); where
    nothing remains the bound equals the current rank value.
    """

    name: str
    needs_anchors: bool = True
    filterable: bool = True

    def __init__(self, stats: WordStats | None = None):
        self.stats = stats

    def rank_values(self, counts: AnchorCounts, c: str) -> np.ndarray:
        raise NotImplementedError

    def _raw_bounds(self, counts: AnchorCounts, c: str,
                    remaining: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def upper_bounds(self, counts: AnchorCounts, c: str,
                     remaining: np.ndarray) -> np.ndarray:
        bounds = self._raw_bounds(counts, c, remaining)
        current = self.rank_values(counts, c)
        return np.where(remaining == 0, current, bounds)

    def params(self) -> dict:
        return {}

    def describe(self) -> str:
        extra = self.params()
        if not extra:
            return self.name
        return self.name + "(" + ", ".join(f"{k}={v}" for k, v in sorted(extra.items())) + ")"


class GSq(Aggregation):
    name = "sq"

    def rank_values(self, counts, c):
        return np.sqrt(counts.a_plus[c].astype(np.float64))

    def _raw_bounds(self, counts, c, remaining):
        return np.sqrt((counts.a_plus[c] + remaining).astype(np.float64))


class GAv(Aggregation):

    def __init__(self, stats: WordStats | None = None, min_freq: int | None = None):
        super().__init__(stats)
        self.min_freq = min_freq
        # keyed by the counts table itself, compared with ``is``: an id could
        # be reused by a later table once this one is freed
        self._excluded_cache: tuple[AnchorCounts, np.ndarray] | None = None

    @property
    def name(self):  # type: ignore[override]
        return "av" if self.min_freq is None else "av_minfreq"

    def _excluded(self, counts) -> np.ndarray | None:
        if self.min_freq is None:
            return None
        if self.stats is None:
            raise ValueError("min_freq filtering requires word statistics")
        if self._excluded_cache is None or self._excluded_cache[0] is not counts:
            freq = np.asarray([self.stats.n_w(w) for w in counts.words])
            self._excluded_cache = (counts, freq < self.min_freq)
        return self._excluded_cache[1]

    def _share(self, counts, c, a_plus):
        """Anchor share a_plus / (a_plus + A-), NaN where min_freq excludes."""
        plus = a_plus.astype(np.float64)
        denom = plus + counts.a_minus[c]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denom > 0, plus / np.maximum(denom, 1), 0.0)
        excluded = self._excluded(counts)
        if excluded is not None:
            values = np.where(excluded, np.nan, values)
        return values

    def rank_values(self, counts, c):
        return self._share(counts, c, counts.a_plus[c])

    def _raw_bounds(self, counts, c, remaining):
        return self._share(counts, c, counts.a_plus[c] + remaining)

    def params(self):
        return {} if self.min_freq is None else {"min_freq": self.min_freq}


class GH(Aggregation):
    """``sq`` damped by the cross-class entropy of each word's anchor counts.
    ``run_anytime`` tallies only its target class, so there every entropy is
    0 and ``h`` ranks exactly as ``sq``."""

    name = "h"

    def _gsq_matrix(self, counts) -> np.ndarray:
        return np.sqrt(np.column_stack(
            [counts.a_plus[c] for c in counts.classes]).astype(np.float64))

    def _scores(self, counts, c, remaining=None):
        """Entropy-damped square-root scores, normalized by the entropy range
        of the current counts. With ``remaining``, class c's anchor counts
        are first boosted by it. A degenerate range damps nothing, so
        single-class tasks still score; undefined entropy scores 0."""
        gsq = self._gsq_matrix(counts)
        h, defined = _entropy_rows(gsq)
        h_min = h_max = 0.0
        if defined.any():
            h_min, h_max = float(h[defined].min()), float(h[defined].max())
        col = counts.classes.index(c)
        if remaining is not None:
            gsq[:, col] = np.sqrt((counts.a_plus[c] + remaining).astype(np.float64))
            h, defined = _entropy_rows(gsq)
        if h_max == h_min:
            factor = np.ones(len(h))
        else:
            factor = 1.0 - np.clip((h - h_min) / (h_max - h_min), 0.0, 1.0)
        return np.where(defined, factor * gsq[:, col], 0.0)

    def rank_values(self, counts, c):
        return self._scores(counts, c)

    def _raw_bounds(self, counts, c, remaining):
        return self._scores(counts, c, remaining)


class GPr(Aggregation):
    name = "pr"

    def __init__(self, stats: WordStats | None = None, alpha: float = DEFAULT_ALPHA):
        super().__init__(stats)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha out of (0, 1]: {alpha}")
        self.alpha = alpha

    def _model(self, counts, c):
        """(q_star over full vocab, 0 where unseen; beta, n_seen, totals), or
        None if undefined."""
        seen = counts.seen_mask(c)
        total_plus = int(counts.a_plus[c].sum())
        total_minus = int(counts.a_minus[c].sum())
        if total_plus == 0 or total_minus == 0:
            return None
        q, _ = _q_raw_vector(counts.a_plus[c][seen], counts.a_minus[c][seen],
                             self.alpha)
        q_star_seen, q_min = _smooth_vector(q)
        q_star = np.zeros(len(counts.words))
        q_star[seen] = q_star_seen
        beta = abs(q_min) if q_min < 0 else 0.0
        return q_star, beta, int(seen.sum()), total_plus, total_minus

    def rank_values(self, counts, c):
        model = self._model(counts, c)
        return np.zeros(len(counts.words)) if model is None else model[0]

    def _raw_bounds(self, counts, c, remaining):
        # Optimistic raw estimate with the word's remaining occurrences all
        # anchors (its own numerator and the anchor total both grow), mapped
        # through the current table's smoothing so the comparison against the
        # current k-th pseudo-score is order-consistent.
        model = self._model(counts, c)
        if model is None:
            return np.full(len(counts.words), np.inf)
        _, beta, n_seen, total_plus, total_minus = model
        plus = counts.a_plus[c].astype(np.float64)
        minus = counts.a_minus[c].astype(np.float64)
        boosted_plus = plus + remaining
        boosted_total = total_plus + remaining
        inv_alpha = 1.0 / self.alpha
        with np.errstate(divide="ignore", invalid="ignore"):
            q = inv_alpha * boosted_plus / boosted_total \
                - (inv_alpha - 1.0) * minus / total_minus
        return (q + beta) / (1.0 + n_seen * beta)

    def params(self):
        return {"alpha": self.alpha}


class GBase(Aggregation):
    name = "base"
    needs_anchors = False

    def __init__(self, stats: WordStats | None = None):
        super().__init__(stats)
        # keyed by the counts table itself, as GAv's exclusion mask
        self._cache: tuple[AnchorCounts, str, np.ndarray] | None = None

    def rank_values(self, counts, c):
        if self.stats is None:
            raise ValueError("base aggregation requires word statistics")
        if self._cache is not None and self._cache[0] is counts and self._cache[1] == c:
            return self._cache[2]
        df_class = self.stats.doc_freq_class[c]
        values = np.empty(len(counts.words))
        for i, w in enumerate(counts.words):
            total = self.stats.doc_freq_total.get(w, 0)
            values[i] = df_class.get(w, 0) / total if total else np.nan
        self._cache = (counts, c, values)
        return values

    def _raw_bounds(self, counts, c, remaining):
        return self.rank_values(counts, c)


class GPrInverse(GPr):
    name = "pr_inverse"
    filterable = False

    def rank_values(self, counts, c):
        model = self._model(counts, c)
        if model is None:
            return np.full(len(counts.words), np.nan)
        q_star = model[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q_star > 0, 1.0 / np.maximum(q_star, 1e-300), np.nan)

    def _raw_bounds(self, counts, c, remaining):
        # Assuming remaining occurrences are anchors is not optimistic for an
        # inverse score, so this kind opts out of candidate filtering.
        return np.full(len(counts.words), np.inf)


# kind -> constructor from (stats, alpha, min_freq): the one list of kinds
_KINDS: dict[str, Callable[[WordStats | None, float, int], Aggregation]] = {
    "sq": lambda stats, alpha, min_freq: GSq(stats),
    "av": lambda stats, alpha, min_freq: GAv(stats),
    "av_minfreq": lambda stats, alpha, min_freq: GAv(stats, min_freq=min_freq),
    "h": lambda stats, alpha, min_freq: GH(stats),
    "pr": lambda stats, alpha, min_freq: GPr(stats, alpha=alpha),
    "base": lambda stats, alpha, min_freq: GBase(stats),
    "pr_inverse": lambda stats, alpha, min_freq: GPrInverse(stats, alpha=alpha),
}
AGGREGATION_KINDS = tuple(_KINDS)


def make_aggregation(kind: str, *, stats: WordStats | None = None,
                     alpha: float = DEFAULT_ALPHA,
                     min_freq: int = DEFAULT_MIN_FREQ) -> Aggregation:
    """Build an aggregation by name; parameters apply where the kind uses them."""
    if kind not in _KINDS:
        raise ValueError(f"unknown aggregation kind {kind!r} "
                         f"(expected one of {AGGREGATION_KINDS})")
    return _KINDS[kind](stats, alpha, min_freq)


def rank_words(words: Sequence[str], values: np.ndarray, k: int | None = None
               ) -> list[tuple[str, float]]:
    """Top-k (word, score) pairs by descending score, ties lexicographic.

    NaN values mark excluded words and never rank.
    """
    values = np.asarray(values, dtype=np.float64)
    scored = np.flatnonzero(~np.isnan(values))
    order = scored[np.argsort(-values[scored], kind="stable")]
    if k is not None and 0 < k < order.size:
        # the top k plus every word tied with the k-th, whose order the
        # words decide
        descending = -values[order]
        order = order[:np.searchsorted(descending, descending[k - 1], side="right")]
    ranked = sorted(((words[i], float(values[i])) for i in order.tolist()),
                    key=lambda item: (-item[1], item[0]))
    return ranked if k is None else ranked[:k]


def dump_scores(handle: IO[str], counts: AnchorCounts, c: str,
                aggregation: Aggregation,
                words: Sequence[str] | None = None) -> int:
    """Write one JSONL row per scored word; returns the number of rows."""
    values = aggregation.rank_values(counts, c)
    chosen = set(words) if words is not None else None
    rows = 0
    for i, word in enumerate(counts.words):
        if chosen is not None and word not in chosen:
            continue
        value = values[i]
        row = {
            "word": word,
            "class": c,
            "a_plus": int(counts.a_plus[c][i]),
            "a_minus": int(counts.a_minus[c][i]),
            "score": None if math.isnan(value) else float(value),
            "agg": aggregation.describe(),
        }
        handle.write(json.dumps(row) + "\n")
        rows += 1
    return rows
