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
- adaptive precision threshold: relax the anchor threshold for words whose
  partial probabilistic score is already high;
- document sampling: run on a uniform subset of the corpus.

Token estimations inside a document are independent and move in rounds
whose perturbation draws may run on a thread pool; tallies, selection,
filtering, and snapshots are applied in document order by the single
reducer, so outputs are identical for any worker count.
"""

from __future__ import annotations

import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ._validation import ParamsMixin, check_positive_int
from .aggregate import (AnchorCounts, Aggregation, GAv, GPr, make_aggregation,
                        rank_words)
from .anchor import AnchorConfig, AnchorDecision, adaptive_tau, anchors_of_document
from .corpus import (Corpus, Document, WordStats, default_stopwords,
                     filter_candidates, sample_documents, word_stats)
from .eval import TermList
from .model import CachingPredictor, CountingPredictor, Predictor
from .perturb import Perturbator, build_unigram_perturbator
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
    rare-word threshold and the adaptive-threshold occurrence counts (e.g.
    counts over a training split instead of the aggregation corpus).
    """

    candidate_filtering: bool = False
    stop_rare_filtering: bool = False
    adaptive_threshold: bool = False
    min_freq: int = 5
    stopwords: frozenset[str] | None = None
    threads: int = 1
    per_class_n_w: bool = False
    freq_stats: WordStats | None = None


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


def should_filter(upper_bound: float, w_min_score: float, heap_full: bool) -> bool:
    """Permanently drop a word when even its optimistic bound cannot beat
    the current k-th pseudo-score. Strict inequality: a bound exactly equal
    to the k-th score keeps the word alive; nothing filters before the
    selection is full."""
    return heap_full and bool(upper_bound < w_min_score)


def order_documents(corpus: Corpus, predictor: Predictor, c: str
                    ) -> list[Document]:
    """Documents the predictor assigns to class c, most confident first.

    Ties in confidence break by ascending document id.
    """
    c_idx = predictor.class_index(c)
    chosen = []
    for doc in corpus:
        probs = predictor.predict_proba(doc)
        if predictor.classes_[int(np.argmax(probs))] == c:
            chosen.append((-float(probs[c_idx]), doc.id, doc))
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
    tallies stay empty.
    """
    check_positive_int(k, "k")
    if c not in corpus.classes:
        raise ValueError(f"unknown class {c!r}")

    counting = CountingPredictor(predictor)
    cached = CachingPredictor(counting)

    predicted = {doc.id: cached.predict(doc) for doc in corpus}
    # external predictors learn their class set on first contact, so this
    # check has to come after the predictions
    if set(predictor.classes_) != set(corpus.classes):
        raise ValueError(f"predictor classes {predictor.classes_} do not match "
                         f"corpus classes {corpus.classes}")
    stats = word_stats(corpus, label_map=predicted)
    freq_stats = options.freq_stats if options.freq_stats is not None else stats
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

    n_w = np.asarray(
        [freq_stats.class_count.get(c, {}).get(w, 0) if options.per_class_n_w
         else freq_stats.total_count.get(w, 0) for w in words], dtype=np.int64)

    pr_for_threshold = aggregation if isinstance(aggregation, GPr) \
        else GPr(stats, alpha=0.5)

    filtered_mask = np.zeros(vocab_size, dtype=bool)
    executor = ThreadPoolExecutor(max_workers=options.threads) \
        if options.threads > 1 else None
    snapshots: list[Snapshot] = []
    selection: list[tuple[str, float]] = []
    t0 = time.monotonic()

    def take_snapshot(i: int):
        snap = Snapshot(t_sec=time.monotonic() - t0, calls=counting.calls,
                        doc_index=i, topk=tuple(selection))
        snapshots.append(snap)
        if snapshot_sink is not None:
            snapshot_sink(snap)

    try:
        for i, doc in enumerate(ordered, start=1):
            if len(doc.words) == 0:
                counts.ingest([], c, doc.id)
                take_snapshot(i)
                continue

            if aggregation.needs_anchors:
                decisions = _estimate_document(
                    doc, counting, perturbator, cfg, c, counts, n_w,
                    pr_for_threshold, candidate_mask, filtered_mask, index,
                    options, root_seed, executor)
                counts.ingest(decisions, c, doc.id)
                if trace_sink is not None:
                    for d in decisions:
                        trace_sink(d.to_row(doc.id))
            else:
                counts.ingest([], c, doc.id)

            for w in doc.words:
                remaining[index[w]] -= 1

            values = aggregation.rank_values(counts, c)
            domain = candidate_mask & ~filtered_mask
            masked = np.where(domain, values, np.nan)
            selection = rank_words(words, masked, k)

            if (options.candidate_filtering and aggregation.filterable
                    and len(selection) == k):
                w_min_score = selection[-1][1]
                in_selection = np.zeros(vocab_size, dtype=bool)
                for w, _ in selection:
                    in_selection[index[w]] = True
                bounds = aggregation.upper_bounds(counts, c, remaining)
                # vectorized form of should_filter over all candidates
                with np.errstate(invalid="ignore"):
                    prune = domain & ~in_selection & (bounds < w_min_score)
                filtered_mask |= prune

            take_snapshot(i)
    finally:
        if executor is not None:
            executor.shutdown(wait=True)

    terms = TermList.from_pairs(c, aggregation.describe(), selection)
    final_scores = {w: s for w, s in
                    rank_words(words, np.where(candidate_mask & ~filtered_mask,
                                               aggregation.rank_values(counts, c),
                                               np.nan))}
    return AnytimeResult(
        terms=terms, snapshots=snapshots, counts=counts, calls=counting.calls,
        scores=final_scores,
        filtered=frozenset(w for w, m in zip(words, filtered_mask) if m),
        candidates=candidates, documents_processed=len(ordered), stats=stats)


def _estimate_document(doc, counting, perturbator, cfg, c, counts, n_w,
                       pr_agg, candidate_mask, filtered_mask, index,
                       options: AnytimeOptions, root_seed: int,
                       executor) -> list[AnchorDecision]:
    """Anchor-estimate one document against the state committed so far."""
    if options.adaptive_threshold:
        pseudo = pr_agg.rank_values(counts, c)

        def threshold_for(word: str) -> float:
            j = index[word]
            return adaptive_tau(cfg, max(0.0, float(pseudo[j])), max(1, int(n_w[j])))
    else:
        def threshold_for(word: str) -> float:
            return cfg.tau

    def skip_word(word: str) -> bool:
        j = index[word]
        if filtered_mask[j]:
            return True
        return options.stop_rare_filtering and not candidate_mask[j]

    def rng_for(position: int):
        return stream_rng(root_seed, "perturb", doc.id, position)

    return anchors_of_document(doc, counting, perturbator, cfg, threshold_for,
                               rng_for, skip_word=skip_word, target=c,
                               executor=executor)


# -- optimization profiles ---------------------------------------------------

_PROFILES: dict[str, dict] = {
    "baseline": {},
    "delta_relaxed": {"delta": 0.3},
    "masking": {"zeta": 50},
    "adaptive_tau": {"adaptive_threshold": True},
    "filtered": {"candidate_filtering": True},
    "sampled": {"sample_fraction": 0.5},
    "optimized": {"zeta": 50, "delta": 0.3, "adaptive_threshold": True,
                  "candidate_filtering": True, "stop_rare_filtering": True},
}

PROFILE_NAMES = tuple(_PROFILES)

_PROFILE_DEFAULTS = {
    "zeta": 500,
    "delta": 0.1,
    "adaptive_threshold": False,
    "candidate_filtering": False,
    "stop_rare_filtering": False,
    "sample_fraction": 1.0,
}


def optimization_profile(name: str) -> dict:
    """Parameter overlay for a named optimization profile.

    Every profile starts from the unoptimized defaults (zeta=500, delta=0.1,
    constant threshold, no filtering, full corpus) and overrides the fields
    it optimizes.
    """
    if name not in _PROFILES:
        raise ValueError(f"unknown profile {name!r} (expected one of {PROFILE_NAMES})")
    overlay = dict(_PROFILE_DEFAULTS)
    overlay.update(_PROFILES[name])
    return overlay


# -- estimator-style front end ----------------------------------------------


class AnchorTopTerms(ParamsMixin):
    """Fit-style front end over the anytime driver.

    Configure once, call ``fit(corpus, predictor)``, then read the fitted
    attributes: ``terms_`` (the ordered top-k), ``scores_``, ``counts_``,
    ``snapshots_``, ``calls_``. Explicitly passed parameters win over the
    profile overlay; ``None`` means "take the profile's value".
    """

    def __init__(self, k: int = 20, aggregation: str = "pr", alpha: float = 0.5,
                 target_class: str | None = None, profile: str = "baseline",
                 tau: float = 0.95, delta: float | None = None,
                 batch_size: int = 10, max_samples: int = 100,
                 omega: float = 0.4, tau_floor: float = 0.55,
                 zeta: int | None = None, mask_prob: float = 0.5,
                 min_freq: int = 5, stopwords: frozenset[str] | None = None,
                 candidate_filtering: bool | None = None,
                 stop_rare_filtering: bool | None = None,
                 adaptive_threshold: bool | None = None,
                 sample_fraction: float | None = None,
                 seed: int = 0, threads: int = 1,
                 per_class_n_w: bool = False,
                 freq_stats: WordStats | None = None):
        self.k = k
        self.aggregation = aggregation
        self.alpha = alpha
        self.target_class = target_class
        self.profile = profile
        self.tau = tau
        self.delta = delta
        self.batch_size = batch_size
        self.max_samples = max_samples
        self.omega = omega
        self.tau_floor = tau_floor
        self.zeta = zeta
        self.mask_prob = mask_prob
        self.min_freq = min_freq
        self.stopwords = stopwords
        self.candidate_filtering = candidate_filtering
        self.stop_rare_filtering = stop_rare_filtering
        self.adaptive_threshold = adaptive_threshold
        self.sample_fraction = sample_fraction
        self.seed = seed
        self.threads = threads
        self.per_class_n_w = per_class_n_w
        self.freq_stats = freq_stats

    def resolved_settings(self) -> dict:
        overlay = optimization_profile(self.profile)
        for name in ("delta", "zeta", "candidate_filtering", "stop_rare_filtering",
                     "adaptive_threshold", "sample_fraction"):
            value = getattr(self, name)
            if value is not None:
                overlay[name] = value
        return overlay

    def fit(self, corpus: Corpus, predictor: Predictor,
            perturbator: Perturbator | None = None,
            snapshot_sink: Callable[[Snapshot], None] | None = None,
            trace_sink: Callable[[dict], None] | None = None) -> "AnchorTopTerms":
        if self.target_class is None:
            raise ValueError("target_class must be set before fit")
        settings = self.resolved_settings()
        cfg = AnchorConfig(tau=self.tau, delta=settings["delta"],
                           batch_size=self.batch_size, max_samples=self.max_samples,
                           omega=self.omega, tau_floor=self.tau_floor)
        run_corpus = corpus
        if settings["sample_fraction"] < 1.0:
            run_corpus = sample_documents(corpus, settings["sample_fraction"],
                                          stream_rng(self.seed, "sample"))
        stats = word_stats(run_corpus)
        if perturbator is None:
            perturbator = build_unigram_perturbator(
                stats, zeta=settings["zeta"], mask_prob=self.mask_prob)
        aggregation = make_aggregation(self.aggregation, alpha=self.alpha,
                                       min_freq=self.min_freq)
        options = AnytimeOptions(
            candidate_filtering=settings["candidate_filtering"],
            stop_rare_filtering=settings["stop_rare_filtering"],
            adaptive_threshold=settings["adaptive_threshold"],
            min_freq=self.min_freq, stopwords=self.stopwords,
            threads=self.threads, per_class_n_w=self.per_class_n_w,
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
