"""Anytime top-k driver.

Documents of the target class are processed in descending classification
confidence. After each document the tallies grow, every candidate word is
rescored from the partial counts (its pseudo-score), and the current best k
words are re-selected, so interrupting the run at any point yields a valid,
improving answer. Optimizations on top:

- candidate filtering: permanently drop a word once an optimistic upper
  bound on its score (all remaining occurrences land as anchors) falls
  below the current k-th pseudo-score;
- stop-word / rare-word filtering: never sample tokens outside the
  candidate set, tallying them as non-anchors;
- document sampling: run on a uniform subset of the corpus.

Every anchor test decides against the one threshold ``AnchorConfig.tau``.
The decisions arrive document by document from one generator,
``anchor.anchors_of_documents``, and each document is tallied, traced,
rescored, filtered and snapshotted in one pass before the next is
requested. The generator tests a wave of consecutive documents, up to
``anchor.WAVE_ROWS`` first-round rows, in shared rounds when the wave's
first document is requested, against the domain (the candidates not yet
pruned) at that moment; an empty document yields no decisions. Pruning
only shrinks the domain, so a token whose word was pruned by an earlier
document of its wave gets the unsampled non-anchor decision that testing
its document alone would give; its rows were scored for nothing
(``AnytimeResult.discarded_rows``). A run's outputs depend only on its
inputs and seed, not on its waves.
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
from .anchor import AnchorConfig, AnchorDecision, anchors_of_documents
from .corpus import (Corpus, Document, WordStats, default_stopwords,
                     filter_candidates, sample_documents, word_stats, word_totals)
from .eval import TermList
from .model import Predictor
from .perturb import (DEFAULT_MASK_PROB, DEFAULT_ZETA, Perturbator,
                      UnigramPerturbator)
from .seeding import stream_rng, token_streams

__all__ = [
    "AnytimeOptions",
    "Snapshot",
    "AnytimeResult",
    "classify_corpus",
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
    stats: WordStats
    # the run's own copy of the aggregation passed in, bound to the run's
    # statistics: it scores ``counts`` as the run did
    aggregation: Aggregation
    # rows scored for tokens whose word was pruned before their document
    # was tallied; ``calls`` leaves them out
    discarded_rows: int


def should_filter(upper_bound, w_min_score: float):
    """Permanently drop a word when even its optimistic bound cannot beat
    the k-th pseudo-score of a full selection. Strict inequality: a bound
    exactly equal to the k-th score keeps the word alive, and so does a NaN
    bound. Elementwise over an array of bounds; a scalar bound gives a
    bool."""
    with np.errstate(invalid="ignore"):
        below = np.less(upper_bound, w_min_score)
    return below if below.ndim else below.item()


def classify_corpus(corpus: Corpus, predictor: Predictor
                    ) -> tuple[dict[str, tuple[str, float]], int]:
    """Each document id's predicted class and the probability of that class,
    and the predictor rows they cost: one ``predict_proba_many`` call over the
    distinct documents, in order of first occurrence. The class is the
    argmax, ties going to the lowest class index.

    Raises ValueError when the predictor's classes are not the corpus's.
    """
    distinct = list(dict.fromkeys(d.words for d in corpus))
    probs = predictor.predict_proba_many(distinct) if distinct else ()
    # external predictors learn their class set on first contact, so this
    # check has to come after the predictions
    if set(predictor.classes_) != set(corpus.classes):
        raise ValueError(f"predictor classes {predictor.classes_} do not match "
                         f"corpus classes {corpus.classes}")
    best = [int(np.argmax(row)) for row in probs]
    labels = {words: (predictor.classes_[j], float(row[j]))
              for words, row, j in zip(distinct, probs, best)}
    return {d.id: labels[d.words] for d in corpus}, len(distinct)


def order_documents(corpus: Corpus, predicted: dict[str, tuple[str, float]],
                    c: str) -> list[Document]:
    """The documents ``predicted`` (see ``classify_corpus``) assigns to
    class c, most confident first; ties in confidence break by ascending
    document id."""
    return sorted((d for d in corpus if predicted[d.id][0] == c),
                  key=lambda d: (-predicted[d.id][1], d.id))


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
    aggregation may be passed to several runs. ``trace_sink`` and
    ``snapshot_sink`` receive each document's rows as the document is
    tallied, in document order.
    """
    check_positive_int(k, "k")
    if c not in corpus.classes:
        raise ValueError(f"unknown class {c!r}")

    predicted, calls = classify_corpus(corpus, predictor)
    stats = word_stats(corpus, label_map={i: cls for i, (cls, _) in predicted.items()})
    freq_stats = options.freq_stats if options.freq_stats is not None else stats
    aggregation = copy.copy(aggregation)
    if aggregation.stats is None:
        aggregation.stats = freq_stats if isinstance(aggregation, GAv) else stats

    stopwords = options.stopwords if options.stopwords is not None \
        else default_stopwords()
    if options.stop_rare_filtering:
        candidates = stats.vocabulary & filter_candidates(freq_stats, stopwords,
                                                          options.min_freq)
    else:
        candidates = frozenset(stats.vocabulary)

    ordered = order_documents(corpus, predicted, c)
    counts = AnchorCounts(stats.vocabulary, corpus.classes)
    words = counts.words
    index = counts.index
    vocab_size = len(words)

    candidate_mask = np.zeros(vocab_size, dtype=bool)
    candidate_mask[[index[w] for w in candidates]] = True
    remaining = np.bincount([index[w] for doc in ordered for w in doc.words],
                            minlength=vocab_size)
    filtered_mask = np.zeros(vocab_size, dtype=bool)
    snapshots: list[Snapshot] = []
    selection: list[tuple[str, float]] = []
    t0 = time.monotonic()

    def outside(w: str) -> bool:
        """Whether ``w`` is outside the domain (the candidates not yet
        pruned): such words are not sampled and tally as non-anchors."""
        return not candidate_mask[index[w]] or filtered_mask[index[w]]

    prune = options.candidate_filtering and aggregation.filterable
    decided = anchors_of_documents(
        ordered, predictor, perturbator, cfg, token_streams(root_seed, ordered),
        skip_word=outside, targets=[c] * len(ordered)) \
        if aggregation.needs_anchors else ([] for _ in ordered)
    discarded = 0
    for i, (doc, decisions) in enumerate(zip(ordered, decided), 1):
        # a word pruned since the wave's tests began is outside this
        # document's domain: it gets the unsampled non-anchor that testing
        # against the current domain records
        for j, d in enumerate(decisions):
            if d.samples_used and outside(d.word):
                discarded += d.samples_used
                decisions[j] = AnchorDecision(d.word, d.position, False, 0, 0)
        counts.ingest(decisions, c, doc.id)
        calls += sum(d.samples_used for d in decisions)
        if trace_sink is not None:
            for d in decisions:
                trace_sink(d.to_row(doc.id))
        if doc.words:
            np.subtract.at(remaining, [index[w] for w in doc.words], 1)
            domain = candidate_mask & ~filtered_mask
            masked = np.where(domain, aggregation.rank_values(counts, c), np.nan)
            selection = rank_words(words, masked, k)
            if prune and len(selection) == k:
                in_selection = np.zeros(vocab_size, dtype=bool)
                in_selection[[index[w] for w, _ in selection]] = True
                bounds = aggregation.upper_bounds(counts, c, remaining)
                filtered_mask |= domain & ~in_selection & should_filter(
                    bounds, selection[-1][1])
        snap = Snapshot(t_sec=time.monotonic() - t0, calls=calls, doc_index=i,
                        topk=tuple(selection))
        snapshots.append(snap)
        if snapshot_sink is not None:
            snapshot_sink(snap)

    terms = TermList.from_pairs(c, aggregation.describe(), selection)
    final_scores = {w: s for w, s in
                    rank_words(words, np.where(candidate_mask & ~filtered_mask,
                                               aggregation.rank_values(counts, c),
                                               np.nan))}
    return AnytimeResult(
        terms=terms, snapshots=snapshots, counts=counts, calls=calls,
        scores=final_scores,
        filtered=frozenset(w for w, m in zip(words, filtered_mask) if m),
        candidates=candidates, stats=stats, aggregation=aggregation,
        discarded_rows=discarded)


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
    attributes: ``result_`` (the whole ``AnytimeResult``), ``terms_`` (the
    ordered top-k), ``counts_``, ``snapshots_``, ``calls_``. Explicitly
    passed parameters win over the profile overlay; ``None`` means "take the
    profile's value".
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
        if perturbator is None:
            # the pool needs only word totals; ``run_anytime`` makes the one
            # full ``word_stats`` pass, under the predicted labels
            perturbator = UnigramPerturbator.from_counts(
                word_totals(run_corpus), zeta=settings["zeta"],
                mask_prob=self.mask_prob)
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
        self.counts_ = result.counts
        self.snapshots_ = result.snapshots
        self.calls_ = result.calls
        return self
