"""Anytime top-k driver.

Documents of the target class are processed one at a time in descending
classification confidence. After each document the tallies grow, every
candidate word is rescored from the partial counts (its pseudo-score), and
the current best k words are re-selected, so interrupting the run at any
point yields a valid, improving answer. Optimizations on top:

- candidate filtering: permanently drop a word once an optimistic upper
  bound on its score (all remaining occurrences land as anchors) falls
  below the current k-th pseudo-score;
- stop-word / rare-word filtering: never sample tokens outside the
  candidate set, tallying them as non-anchors;
- document sampling: run on a uniform subset of the corpus.

Every anchor test decides against the one threshold ``AnchorConfig.tau``.
Token estimations inside a document are independent and move in rounds;
tallies, selection, filtering, and snapshots are applied in document order,
so a run's outputs depend only on its inputs and seed.
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._validation import (ParamsMixin, check_fraction, check_positive_int,
                          check_probability)
from .aggregate import (DEFAULT_ALPHA, DEFAULT_MIN_FREQ, AnchorCounts,
                        Aggregation, GAv, make_aggregation, rank_words)
from .anchor import AnchorConfig, anchors_of_document
from .corpus import (Corpus, Document, WordStats, default_stopwords,
                     filter_candidates, sample_documents, word_stats)
from .eval import TermList
from .model import CachingPredictor, CountingPredictor, Predictor
from .perturb import (DEFAULT_MASK_PROB, DEFAULT_ZETA, Perturbator,
                      build_unigram_perturbator)
from .seeding import stream_rng

__all__ = [
    "AnytimeOptions",
    "Snapshot",
    "AnytimeResult",
    "order_documents",
    "run_anytime",
    "optimization_profile",
    "PROFILE_NAMES",
    "AnchorTopTerms",
]


@dataclass(frozen=True)
class AnytimeOptions:
    """Switches for the run; profiles are overlays over these fields.

    ``freq_stats`` optionally supplies the word statistics that feed the
    rare-word thresholds of stop/rare skipping and of ``av_minfreq`` (e.g.
    counts over a training split instead of the aggregation corpus).
    """

    candidate_filtering: bool = False
    stop_rare_filtering: bool = False
    min_freq: int = DEFAULT_MIN_FREQ
    stopwords: frozenset[str] | None = None
    freq_stats: WordStats | None = None
    # accepted and ignored, because the benchmark (bench/) still passes them:
    # every draw runs in the calling thread, where it costs less than a pool
    # task, and every anchor test uses the one threshold ``AnchorConfig.tau``
    threads: int = 1
    adaptive_threshold: bool = False


@dataclass(frozen=True)
class Snapshot:
    """State of the answer after one document: wall-clock offset, predictor
    calls so far, and the current ordered top-k."""

    t_sec: float
    calls: int
    doc_index: int
    topk: tuple[tuple[str, float], ...]

    def to_row(self) -> dict:
        return {
            "t_sec": self.t_sec,
            "calls": self.calls,
            "doc_index": self.doc_index,
            "topk": [{"word": w, "score": s} for w, s in self.topk],
        }


@dataclass
class AnytimeResult:
    terms: TermList
    snapshots: list[Snapshot]
    counts: AnchorCounts
    calls: int
    scores: dict[str, float]
    filtered: frozenset[str]
    candidates: frozenset[str]
    documents_processed: int
    stats: WordStats
    # the run's own copy of the aggregation passed in, bound to the run's
    # statistics: it scores ``counts`` as the run did
    aggregation: Aggregation


def should_filter(upper_bound, w_min_score: float, heap_full: bool):
    """Permanently drop a word when even its optimistic bound cannot beat
    the current k-th pseudo-score. Strict inequality: a bound exactly equal
    to the k-th score keeps the word alive, and so does a NaN bound; nothing
    filters before the selection is full. Elementwise over an array of
    bounds; a scalar bound gives a bool."""
    with np.errstate(invalid="ignore"):
        below = np.less(upper_bound, w_min_score)
    return heap_full and (below if below.ndim else below.item())


def order_documents(corpus: Corpus, predictor: Predictor, c: str
                    ) -> list[Document]:
    """Documents the predictor assigns to class c, most confident first.

    Ties in confidence break by ascending document id.
    """
    docs = list(corpus)
    if not docs:
        return []
    probs = predictor.predict_proba_many([d.words for d in docs])
    c_idx = predictor.class_index(c)
    chosen = [(-float(row[c_idx]), doc.id, doc) for doc, row in zip(docs, probs)
              if predictor.classes_[int(np.argmax(row))] == c]
    chosen.sort(key=lambda item: (item[0], item[1]))
    return [doc for _, _, doc in chosen]


def run_anytime(corpus: Corpus, predictor: Predictor, perturbator: Perturbator,
                cfg: AnchorConfig, aggregation: Aggregation, k: int, c: str,
                options: AnytimeOptions = AnytimeOptions(), *, root_seed: int = 0,
                snapshot_sink: Callable[[Snapshot], None] | None = None,
                trace_sink: Callable[[dict], None] | None = None
                ) -> AnytimeResult:
    """Run the anytime top-k computation for one class.

    The final selection equals the offline top-k of the same aggregation on
    the full counts whenever candidate filtering is off. Aggregations that
    need no anchor sampling (``base``) skip estimation entirely and their
    tallies stay empty. The run scores with a copy of ``aggregation``, so one
    aggregation may be passed to several runs.
    """
    check_positive_int(k, "k")
    if c not in corpus.classes:
        raise ValueError(f"unknown class {c!r}")

    counting = CountingPredictor(predictor)
    cached = CachingPredictor(counting)

    predicted = {d.id: label for d, label in
                 zip(corpus, cached.predict_many(corpus.documents))}
    # external predictors learn their class set on first contact, so this
    # check has to come after the predictions
    if set(predictor.classes_) != set(corpus.classes):
        raise ValueError(f"predictor classes {predictor.classes_} do not match "
                         f"corpus classes {corpus.classes}")
    stats = word_stats(corpus, label_map=predicted)
    freq_stats = options.freq_stats if options.freq_stats is not None else stats
    aggregation = copy.copy(aggregation)
    if aggregation.stats is None:
        aggregation.stats = freq_stats if isinstance(aggregation, GAv) else stats

    stopwords = options.stopwords if options.stopwords is not None \
        else default_stopwords()
    if options.stop_rare_filtering:
        eligible = filter_candidates(freq_stats, stopwords, options.min_freq).words
        candidates = frozenset(w for w in stats.vocabulary if w in eligible)
    else:
        candidates = frozenset(stats.vocabulary)

    ordered = order_documents(corpus, cached, c)
    counts = AnchorCounts(stats.vocabulary, corpus.classes)
    words = counts.words
    index = counts.index
    vocab_size = len(words)

    candidate_mask = np.zeros(vocab_size, dtype=bool)
    for w in candidates:
        candidate_mask[index[w]] = True

    remaining = np.zeros(vocab_size, dtype=np.int64)
    for doc in ordered:
        for w in doc.words:
            remaining[index[w]] += 1

    filtered_mask = np.zeros(vocab_size, dtype=bool)
    snapshots: list[Snapshot] = []
    selection: list[tuple[str, float]] = []
    t0 = time.monotonic()

    def take_snapshot(i: int):
        snap = Snapshot(t_sec=time.monotonic() - t0, calls=counting.calls,
                        doc_index=i, topk=tuple(selection))
        snapshots.append(snap)
        if snapshot_sink is not None:
            snapshot_sink(snap)

    for i, doc in enumerate(ordered, start=1):
        if len(doc.words) == 0:
            counts.ingest([], c, doc.id)
            take_snapshot(i)
            continue

        # words outside the domain are not sampled and tally as non-anchors
        domain = candidate_mask & ~filtered_mask
        if aggregation.needs_anchors:
            decisions = anchors_of_document(
                doc, counting, perturbator, cfg,
                lambda p, d=doc: stream_rng(root_seed, "perturb", d.id, p),
                skip_word=lambda w: not domain[index[w]], target=c)
            counts.ingest(decisions, c, doc.id)
            if trace_sink is not None:
                for d in decisions:
                    trace_sink(d.to_row(doc.id))
        else:
            counts.ingest([], c, doc.id)

        for w in doc.words:
            remaining[index[w]] -= 1

        values = aggregation.rank_values(counts, c)
        masked = np.where(domain, values, np.nan)
        selection = rank_words(words, masked, k)

        if (options.candidate_filtering and aggregation.filterable
                and len(selection) == k):
            w_min_score = selection[-1][1]
            in_selection = np.zeros(vocab_size, dtype=bool)
            for w, _ in selection:
                in_selection[index[w]] = True
            bounds = aggregation.upper_bounds(counts, c, remaining)
            filtered_mask |= domain & ~in_selection & should_filter(
                bounds, w_min_score, heap_full=True)

        take_snapshot(i)

    terms = TermList.from_pairs(c, aggregation.describe(), selection)
    final_scores = {w: s for w, s in
                    rank_words(words, np.where(candidate_mask & ~filtered_mask,
                                               aggregation.rank_values(counts, c),
                                               np.nan))}
    return AnytimeResult(
        terms=terms, snapshots=snapshots, counts=counts, calls=counting.calls,
        scores=final_scores,
        filtered=frozenset(w for w, m in zip(words, filtered_mask) if m),
        candidates=candidates, documents_processed=len(ordered), stats=stats,
        aggregation=aggregation)


# -- optimization profiles ---------------------------------------------------

_PROFILES: dict[str, dict] = {
    "baseline": {},
    "delta_relaxed": {"delta": 0.3},
    "masking": {"zeta": 50},
    "filtered": {"candidate_filtering": True},
    "sampled": {"sample_fraction": 0.5},
    "optimized": {"zeta": 50, "delta": 0.3, "candidate_filtering": True,
                  "stop_rare_filtering": True},
}

PROFILE_NAMES = tuple(_PROFILES)

_PROFILE_DEFAULTS = {
    "zeta": DEFAULT_ZETA,
    "delta": AnchorConfig.delta,
    # no profile sets it; kept because the benchmark (bench/) reads it
    "adaptive_threshold": AnytimeOptions.adaptive_threshold,
    "candidate_filtering": AnytimeOptions.candidate_filtering,
    "stop_rare_filtering": AnytimeOptions.stop_rare_filtering,
    "sample_fraction": 1.0,
}


def optimization_profile(name: str) -> dict:
    """Parameter overlay for a named optimization profile.

    Every profile starts from the unoptimized defaults (the default pool
    size and delta, no filtering, full corpus) and
    overrides the fields it optimizes.
    """
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {name!r} (expected one of {PROFILE_NAMES})")
    overlay = dict(_PROFILE_DEFAULTS)
    overlay.update(_PROFILES[name])
    return overlay


# -- estimator-style front end ----------------------------------------------


@dataclass(eq=False)
class AnchorTopTerms(ParamsMixin):
    """Fit-style front end over the anytime driver.

    Configure once, call ``fit(corpus, predictor)``, then read the fitted
    attributes: ``terms_`` (the ordered top-k), ``scores_``, ``counts_``,
    ``snapshots_``, ``calls_``. Explicitly passed parameters win over the
    profile overlay; ``None`` means "take the profile's value".
    """

    k: int = 20
    aggregation: str = "pr"
    alpha: float = DEFAULT_ALPHA
    target_class: str | None = None
    profile: str = "baseline"
    tau: float = AnchorConfig.tau
    delta: float | None = None
    batch_size: int = AnchorConfig.batch_size
    max_samples: int = AnchorConfig.max_samples
    zeta: int | None = None
    mask_prob: float = DEFAULT_MASK_PROB
    min_freq: int = AnytimeOptions.min_freq
    stopwords: frozenset[str] | None = None
    candidate_filtering: bool | None = None
    stop_rare_filtering: bool | None = None
    sample_fraction: float | None = None
    seed: int = 0
    freq_stats: WordStats | None = None

    def resolved_settings(self) -> dict:
        overlay = optimization_profile(self.profile)
        for name in ("delta", "zeta", "candidate_filtering", "stop_rare_filtering",
                     "sample_fraction"):
            value = getattr(self, name)
            if value is not None:
                overlay[name] = value
        return overlay

    def check_params(self) -> tuple[dict, AnchorConfig, Aggregation]:
        """Resolved settings, anchor config and aggregation; raises
        ValueError on a value out of range, before any data is read."""
        settings = self.resolved_settings()
        check_positive_int(self.k, "k")
        check_positive_int(settings["zeta"], "zeta")
        check_probability(self.mask_prob, "mask_prob", open_high=False)
        check_positive_int(self.min_freq, "min_freq")
        check_fraction(settings["sample_fraction"], "sample_fraction")
        cfg = AnchorConfig(tau=self.tau, delta=settings["delta"],
                           batch_size=self.batch_size, max_samples=self.max_samples)
        aggregation = make_aggregation(self.aggregation, alpha=self.alpha,
                                       min_freq=self.min_freq)
        return settings, cfg, aggregation

    def fit(self, corpus: Corpus, predictor: Predictor,
            perturbator: Perturbator | None = None,
            snapshot_sink: Callable[[Snapshot], None] | None = None,
            trace_sink: Callable[[dict], None] | None = None) -> "AnchorTopTerms":
        if self.target_class is None:
            raise ValueError("target_class must be set before fit")
        settings, cfg, aggregation = self.check_params()
        run_corpus = corpus
        if settings["sample_fraction"] < 1.0:
            run_corpus = sample_documents(corpus, settings["sample_fraction"],
                                          stream_rng(self.seed, "sample"))
        stats = word_stats(run_corpus)
        if perturbator is None:
            perturbator = build_unigram_perturbator(
                stats, zeta=settings["zeta"], mask_prob=self.mask_prob)
        options = AnytimeOptions(
            candidate_filtering=settings["candidate_filtering"],
            stop_rare_filtering=settings["stop_rare_filtering"],
            min_freq=self.min_freq, stopwords=self.stopwords,
            freq_stats=self.freq_stats)
        result = run_anytime(run_corpus, predictor, perturbator, cfg,
                             aggregation, self.k, self.target_class, options,
                             root_seed=self.seed, snapshot_sink=snapshot_sink,
                             trace_sink=trace_sink)
        self.result_ = result
        self.terms_ = result.terms
        self.scores_ = result.scores
        self.counts_ = result.counts
        self.snapshots_ = result.snapshots
        self.calls_ = result.calls
        self.config_ = cfg
        return self
