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

Each kind is one score function of the counts. Ranking evaluates it at the
current counts; candidate filtering evaluates the same function at the
optimistic counts, where each word's remaining occurrences all land as
anchors, and takes that as the word's upper bound.
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


# -- score helpers -----------------------------------------------------------


def _emission_estimate(plus: np.ndarray, total_plus: int, minus: np.ndarray,
                       total_minus: int, alpha: float) -> np.ndarray:
    """Raw maximum-likelihood anchor-emission estimate of the two-source
    mixture; negative where a word is rarer among anchors than the mixture's
    non-anchor share explains."""
    inv_alpha = 1.0 / alpha
    return inv_alpha * (plus / total_plus) - (inv_alpha - 1.0) * (minus / total_minus)


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


def _anchor_tally(counts: AnchorCounts, c: str, remaining: np.ndarray | None
                  ) -> np.ndarray:
    """Class c's anchor counts as floats, each raised by its remaining
    occurrences when given."""
    plus = counts.a_plus[c] if remaining is None else counts.a_plus[c] + remaining
    return plus.astype(np.float64)


# -- aggregation kinds for the anytime driver --------------------------------


class Aggregation:
    """A named aggregation with vectorized scoring over a counts table.

    A kind implements ``_score(counts, c, remaining)``: one value per word
    of the counts vocabulary. With ``remaining`` None these are the rank
    values, NaN marking words excluded from ranking; undefined but rankable
    scores fall back to 0 so a ranking always exists. With an array they are
    the optimistic values, each word's remaining occurrences all anchors and
    other words unchanged: ``upper_bounds``, except that where nothing
    remains the bound is the current rank value.
    """

    name: str
    needs_anchors: bool = True
    filterable: bool = True

    def __init__(self, stats: WordStats | None = None):
        self.stats = stats
        self._cache: tuple[AnchorCounts, str, np.ndarray] | None = None

    def _score(self, counts: AnchorCounts, c: str,
               remaining: np.ndarray | None) -> np.ndarray:
        raise NotImplementedError

    def rank_values(self, counts: AnchorCounts, c: str) -> np.ndarray:
        return self._score(counts, c, None)

    def upper_bounds(self, counts: AnchorCounts, c: str,
                     remaining: np.ndarray) -> np.ndarray:
        bounds = self._score(counts, c, remaining)
        return np.where(remaining == 0, self.rank_values(counts, c), bounds)

    def _per_word(self, counts: AnchorCounts, c: str,
                  value: Callable[[str], float | bool]) -> np.ndarray:
        """``value`` of each word of the counts vocabulary, kept for the last
        (table, class) asked. The table is compared with ``is``: an id could
        be reused by a later table once this one is freed."""
        if self.stats is None:
            raise ValueError(f"{self.name} requires word statistics")
        if self._cache is None or self._cache[0] is not counts or self._cache[1] != c:
            self._cache = (counts, c, np.asarray([value(w) for w in counts.words]))
        return self._cache[2]

    def params(self) -> dict:
        return {}

    def describe(self) -> str:
        extra = self.params()
        if not extra:
            return self.name
        return self.name + "(" + ", ".join(f"{k}={v}" for k, v in sorted(extra.items())) + ")"


class GSq(Aggregation):
    name = "sq"

    def _score(self, counts, c, remaining):
        return np.sqrt(_anchor_tally(counts, c, remaining))


class GAv(Aggregation):

    def __init__(self, stats: WordStats | None = None, min_freq: int | None = None):
        super().__init__(stats)
        self.min_freq = min_freq

    @property
    def name(self):  # type: ignore[override]
        return "av" if self.min_freq is None else "av_minfreq"

    def _score(self, counts, c, remaining):
        """Anchor share A+ / (A+ + A-), NaN where min_freq excludes."""
        plus = _anchor_tally(counts, c, remaining)
        denom = plus + counts.a_minus[c]
        with np.errstate(divide="ignore", invalid="ignore"):
            values = np.where(denom > 0, plus / np.maximum(denom, 1), 0.0)
        if self.min_freq is None:
            return values
        excluded = self._per_word(counts, c,
                                  lambda w: self.stats.n_w(w) < self.min_freq)
        return np.where(excluded, np.nan, values)

    def params(self):
        return {} if self.min_freq is None else {"min_freq": self.min_freq}


class GH(Aggregation):
    """``sq`` damped by the cross-class entropy of each word's anchor counts.
    ``run_anytime`` tallies only its target class, so there every entropy is
    0 and ``h`` ranks exactly as ``sq``."""

    name = "h"

    def _score(self, counts, c, remaining):
        """Entropy-damped square-root scores, normalized by the entropy range
        of the current counts. With ``remaining``, class c's anchor counts
        are first boosted by it. A degenerate range damps nothing, so
        single-class tasks still score; undefined entropy scores 0."""
        gsq = np.sqrt(np.column_stack(
            [counts.a_plus[k] for k in counts.classes]).astype(np.float64))
        h, defined = _entropy_rows(gsq)
        h_min = h_max = 0.0
        if defined.any():
            h_min, h_max = float(h[defined].min()), float(h[defined].max())
        col = counts.classes.index(c)
        if remaining is not None:
            gsq[:, col] = np.sqrt(_anchor_tally(counts, c, remaining))
            h, defined = _entropy_rows(gsq)
        factor = 1.0 if h_max == h_min else \
            1.0 - np.clip((h - h_min) / (h_max - h_min), 0.0, 1.0)
        return np.where(defined, factor * gsq[:, col], 0.0)


class GPr(Aggregation):
    name = "pr"

    def __init__(self, stats: WordStats | None = None, alpha: float = DEFAULT_ALPHA):
        super().__init__(stats)
        if not 0.0 < alpha <= 1.0:
            raise ValueError(f"alpha out of (0, 1]: {alpha}")
        self.alpha = alpha

    def _score(self, counts, c, remaining):
        """The raw estimate, Laplace-smoothed over the words seen in class c
        (unseen words rank 0). With ``remaining``, a word's anchor count and
        the anchor total both grow by it, and the current table's smoothing
        maps the result. Undefined (a zero total): ranks 0, bounds inf."""
        plus, minus = counts.a_plus[c], counts.a_minus[c]
        total_plus, total_minus = int(plus.sum()), int(minus.sum())
        if total_plus == 0 or total_minus == 0:
            return np.full(len(counts.words), 0.0 if remaining is None else np.inf)
        seen = (plus + minus) > 0
        q = _emission_estimate(plus, total_plus, minus, total_minus, self.alpha)
        q_min = float(q[seen].min())
        beta = -q_min if q_min < 0 else 0.0
        if remaining is not None:
            q = _emission_estimate(plus + remaining, total_plus + remaining, minus,
                                   total_minus, self.alpha)
        smoothed = (q + beta) / (1.0 + int(seen.sum()) * beta)
        return smoothed if remaining is not None else np.where(seen, smoothed, 0.0)

    def params(self):
        return {"alpha": self.alpha}


class GBase(Aggregation):
    """Class share of the documents that contain the word; anchors play no
    part, so the optimistic values are the current ones."""

    name = "base"
    needs_anchors = False

    def _score(self, counts, c, remaining):
        def share(w):
            total = self.stats.doc_freq_total.get(w, 0)
            return self.stats.doc_freq_class[c].get(w, 0) / total if total else np.nan

        return self._per_word(counts, c, share)


class GPrInverse(GPr):
    name = "pr_inverse"
    filterable = False

    def _score(self, counts, c, remaining):
        # Assuming remaining occurrences are anchors is not optimistic for an
        # inverse score, so this kind opts out of candidate filtering.
        if remaining is not None:
            return np.full(len(counts.words), np.inf)
        q_star = super()._score(counts, c, None)
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(q_star > 0, 1.0 / np.maximum(q_star, 1e-300), np.nan)


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
    described = aggregation.describe()
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
            "agg": described,
        }
        handle.write(json.dumps(row) + "\n")
        rows += 1
    return rows
