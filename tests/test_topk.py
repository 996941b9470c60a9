import math

import numpy as np
import pytest

from anchoragg.aggregate import make_aggregation, rank_words
from anchoragg.anchor import AnchorConfig
from anchoragg.corpus import word_stats
from anchoragg.perturb import build_unigram_perturbator
from anchoragg.topk import (AnchorTopTerms, AnytimeOptions, PROFILE_NAMES,
                            optimization_profile, order_documents, run_anytime,
                            should_filter)

from conftest import ConstantPredictor, FlipWordPredictor, make_corpus
from test_aggregate import counts_from


class ScriptedPredictor(ConstantPredictor):
    """Fixed per-document probability of the positive class, by doc id."""

    def __init__(self, probs: dict):
        self.classes_ = ("neg", "pos")
        self._by_words = {}
        self.probs = probs

    def predict_proba_words(self, words):
        key = tuple(words)
        p = self._by_words.get(key, 0.5)
        return np.array([1 - p, p])

    def script(self, corpus, default=0.9):
        for doc in corpus:
            self._by_words[tuple(doc.words)] = self.probs.get(doc.id, default)
        return self


class TestOrderDocuments:
    def test_descending_confidence(self):
        corpus = make_corpus([("a", "w1", "pos"), ("b", "w2", "pos"),
                              ("c", "w3", "pos")])
        pred = ScriptedPredictor({"a": 0.9, "b": 0.99, "c": 0.7}).script(corpus)
        ordered = order_documents(corpus, pred, "pos")
        assert [d.id for d in ordered] == ["b", "a", "c"]

    def test_ties_break_by_id(self):
        corpus = make_corpus([("b", "w1", "pos"), ("a", "w2", "pos")])
        pred = ScriptedPredictor({}).script(corpus, default=0.8)
        ordered = order_documents(corpus, pred, "pos")
        assert [d.id for d in ordered] == ["a", "b"]

    def test_only_predicted_class_members(self):
        corpus = make_corpus([("a", "w1", "pos"), ("b", "w2", "pos")])
        pred = ScriptedPredictor({"a": 0.8, "b": 0.2}).script(corpus)
        assert [d.id for d in order_documents(corpus, pred, "pos")] == ["a"]
        assert [d.id for d in order_documents(corpus, pred, "neg")] == ["b"]

    def test_empty_class(self):
        corpus = make_corpus([("a", "w1", "pos")])
        pred = ScriptedPredictor({"a": 0.9}).script(corpus)
        assert order_documents(corpus, pred, "neg") == []


class TestUpperBounds:
    def test_av_bound_example(self):
        counts = counts_from({"c0": {"w": (1, 1), "other": (2, 1)}})
        agg = make_aggregation("av")
        remaining = np.zeros(len(counts.words), dtype=np.int64)
        remaining[counts.index["w"]] = 2
        bounds = agg.upper_bounds(counts, "c0", remaining)
        assert bounds[counts.index["w"]] == pytest.approx(0.75)

    def test_sq_bound_example(self):
        counts = counts_from({"c0": {"w": (1, 0), "other": (2, 1)}})
        agg = make_aggregation("sq")
        remaining = np.zeros(len(counts.words), dtype=np.int64)
        remaining[counts.index["w"]] = 3
        bounds = agg.upper_bounds(counts, "c0", remaining)
        assert bounds[counts.index["w"]] == pytest.approx(2.0)

    def test_zero_remaining_equals_pseudo_score(self):
        counts = counts_from({"c0": {"w": (3, 2), "v": (1, 4)}})
        remaining = np.zeros(len(counts.words), dtype=np.int64)
        for kind in ("sq", "av", "h", "pr"):
            agg = make_aggregation(kind)
            np.testing.assert_allclose(agg.upper_bounds(counts, "c0", remaining),
                                       agg.rank_values(counts, "c0"))

    @pytest.mark.parametrize("kind", ["sq", "av"])
    def test_bound_admissible_by_enumeration(self, kind):
        # every split of the remaining occurrences into anchors/non-anchors
        # lands at or below the optimistic bound (other words held fixed)
        rng = np.random.default_rng(5)
        for _ in range(25):
            plus, minus = int(rng.integers(0, 5)), int(rng.integers(0, 5))
            remaining = int(rng.integers(0, 13))
            counts = counts_from({"c0": {"w": (plus, minus), "o": (3, 3)}})
            agg = make_aggregation(kind)
            rem = np.zeros(len(counts.words), dtype=np.int64)
            rem[counts.index["w"]] = remaining
            bound = agg.upper_bounds(counts, "c0", rem)[counts.index["w"]]
            for anchors in range(remaining + 1):
                final = counts_from({"c0": {
                    "w": (plus + anchors, minus + remaining - anchors),
                    "o": (3, 3)}})
                value = agg.rank_values(final, "c0")[final.index["w"]]
                if not math.isnan(value):
                    assert value <= bound + 1e-12


def small_run(corpus, predictor, seed=0, k=3, kind="pr", **options):
    stats = word_stats(corpus)
    pert = build_unigram_perturbator(stats, zeta=500, mask_prob=0.5)
    cfg = AnchorConfig(max_samples=20, batch_size=10)
    agg = make_aggregation(kind)
    return run_anytime(corpus, predictor, pert, cfg, agg, k, "pos",
                       AnytimeOptions(**options), root_seed=seed)


def anchor_test_corpus():
    rows = []
    for i in range(12):
        rows.append((f"p{i:02d}", "good nice fine extra pad", "pos"))
        rows.append((f"n{i:02d}", "bad gross awful extra pad", "neg"))
    return make_corpus(rows)


class TestRunAnytime:
    def test_snapshots_per_document_and_monotone_calls(self):
        corpus = anchor_test_corpus()
        result = small_run(corpus, FlipWordPredictor())
        assert len(result.snapshots) == result.documents_processed
        calls = [s.calls for s in result.snapshots]
        assert calls == sorted(calls)
        assert all(b > a for a, b in zip(calls, calls[1:]))
        indexes = [s.doc_index for s in result.snapshots]
        assert indexes == list(range(1, len(indexes) + 1))

    def test_final_equals_offline_ranking(self):
        corpus = anchor_test_corpus()
        for kind in ("sq", "av", "pr", "h"):
            result = small_run(corpus, FlipWordPredictor(), kind=kind, k=4)
            agg = make_aggregation(kind)
            agg.stats = result.stats
            offline = rank_words(result.counts.words,
                                 agg.rank_values(result.counts, "pos"), 4)
            assert [w for w, _ in offline] == list(result.terms.words)

    def test_one_aggregation_reused_across_runs_ranks_as_a_fresh_one(self):
        """Each run scores with its own statistics, not with those of an
        earlier run the same aggregation object was passed to."""
        from anchoragg.model import train_bow
        from anchoragg.synth import SynthSpec, generate_planted_corpus

        shared = make_aggregation("base")
        for docs, seed in ((40, 1), (150, 5)):
            corpus, _ = generate_planted_corpus(SynthSpec(n_docs=docs), seed=seed)
            clf = train_bow(corpus, epochs=200)
            pert = build_unigram_perturbator(word_stats(corpus))
            run = lambda agg: run_anytime(corpus, clf, pert, AnchorConfig(), agg, 5, "pos")
            assert run(shared).terms == run(make_aggregation("base")).terms
        assert shared.stats is None

    def test_k_covers_all_candidates(self):
        corpus = anchor_test_corpus()
        result = small_run(corpus, FlipWordPredictor(), k=500)
        assert len(result.terms) == len(result.candidates)

    def test_determinism_same_seed(self):
        corpus = anchor_test_corpus()
        a = small_run(corpus, FlipWordPredictor(), seed=3)
        b = small_run(corpus, FlipWordPredictor(), seed=3)
        assert a.terms == b.terms
        assert a.calls == b.calls
        assert [s.topk for s in a.snapshots] == [s.topk for s in b.snapshots]

    def test_filtering_reduces_calls(self):
        corpus = anchor_test_corpus()
        plain = small_run(corpus, FlipWordPredictor(), seed=5, k=1)
        filtered = small_run(corpus, FlipWordPredictor(), seed=5, k=1,
                             candidate_filtering=True)
        assert filtered.calls <= plain.calls
        assert plain.terms.words[:1] == filtered.terms.words[:1]

    def test_stop_rare_filtering_skips_and_tallies_non_anchor(self):
        corpus = anchor_test_corpus()
        result = small_run(corpus, FlipWordPredictor(), seed=2,
                           stop_rare_filtering=True, min_freq=1,
                           stopwords=frozenset({"pad"}))
        assert "pad" not in result.candidates
        # the predictor classifies every document as pos, so all 24 skipped
        # occurrences land in the non-anchor tally
        assert result.counts.minus("pad", "pos") == 24
        assert result.counts.plus("pad", "pos") == 0

    def test_heap_consistency_after_each_document(self):
        corpus = anchor_test_corpus()
        result = small_run(corpus, FlipWordPredictor(), seed=1, k=2)
        # replay: every snapshot's top-k must hold the best pseudo-scores
        # among seen words; verified on the final state here
        agg = make_aggregation("pr")
        agg.stats = result.stats
        offline = rank_words(result.counts.words,
                             agg.rank_values(result.counts, "pos"), 2)
        assert tuple(offline) == result.snapshots[-1].topk

    def test_base_aggregation_needs_no_sampling(self):
        corpus = anchor_test_corpus()
        result = small_run(corpus, FlipWordPredictor(), kind="base")
        # only classification/ordering calls remain, deduplicated by the
        # content cache (the corpus holds two distinct texts)
        assert result.calls == 2
        assert result.counts.total_plus("pos") == 0

    def test_unknown_class_rejected(self):
        corpus = anchor_test_corpus()
        stats = word_stats(corpus)
        pert = build_unigram_perturbator(stats)
        with pytest.raises(ValueError, match="unknown class"):
            run_anytime(corpus, FlipWordPredictor(), pert, AnchorConfig(),
                        make_aggregation("sq"), 1, "nope")


class TestProfiles:
    def test_baseline_values(self):
        overlay = optimization_profile("baseline")
        assert overlay["zeta"] == 500
        assert overlay["delta"] == 0.1
        assert overlay["candidate_filtering"] is False
        assert overlay["stop_rare_filtering"] is False

    def test_masking_profile(self):
        overlay = optimization_profile("masking")
        assert overlay["zeta"] == 50
        assert overlay["delta"] == 0.1

    def test_optimized_combination(self):
        overlay = optimization_profile("optimized")
        assert overlay["zeta"] == 50
        assert overlay["delta"] == 0.3
        assert overlay["candidate_filtering"] is True
        assert overlay["stop_rare_filtering"] is True

    def test_delta_relaxed_and_sampled(self):
        assert optimization_profile("delta_relaxed")["delta"] == 0.3
        assert optimization_profile("sampled")["sample_fraction"] == 0.5
        assert optimization_profile("filtered")["candidate_filtering"] is True

    def test_unknown_profile(self):
        with pytest.raises(ValueError, match="unknown profile"):
            optimization_profile("warp-speed")

    def test_all_names_resolvable(self):
        for name in PROFILE_NAMES:
            overlay = optimization_profile(name)
            assert set(overlay) == {"zeta", "delta", "adaptive_threshold",
                                    "candidate_filtering", "stop_rare_filtering",
                                    "sample_fraction"}
            # read by the benchmark, set by no profile
            assert overlay["adaptive_threshold"] is False


class TestEstimatorFrontEnd:
    def test_fit_populates_attributes(self):
        corpus = anchor_test_corpus()
        est = AnchorTopTerms(k=2, aggregation="sq", target_class="pos",
                             max_samples=20, seed=1)
        est.fit(corpus, FlipWordPredictor())
        assert len(est.terms_) == 2
        assert est.calls_ > 0
        assert est.counts_.docs_processed["pos"] == 24

    def test_target_class_required(self):
        est = AnchorTopTerms()
        with pytest.raises(ValueError, match="target_class"):
            est.fit(anchor_test_corpus(), FlipWordPredictor())

    def test_get_set_params_round_trip(self):
        est = AnchorTopTerms(k=7, aggregation="av", alpha=0.4)
        params = est.get_params()
        assert params["k"] == 7 and params["aggregation"] == "av"
        est.set_params(k=9)
        assert est.k == 9
        with pytest.raises(ValueError):
            est.set_params(bogus=1)

    def test_explicit_flag_beats_profile(self):
        est = AnchorTopTerms(profile="optimized", delta=0.05,
                             candidate_filtering=False)
        settings = est.resolved_settings()
        assert settings["delta"] == 0.05
        assert settings["candidate_filtering"] is False
        assert settings["zeta"] == 50  # untouched overlay field remains

    @pytest.mark.parametrize("profile", PROFILE_NAMES)
    def test_min_freq_below_one_rejected_under_every_profile(self, profile):
        # checked with the other settings, before any data is read
        est = AnchorTopTerms(target_class="pos", profile=profile, min_freq=0)
        with pytest.raises(ValueError, match="min_freq must be a positive integer"):
            est.check_params()

    def test_sampled_profile_shrinks_corpus(self):
        corpus = anchor_test_corpus()
        est = AnchorTopTerms(k=2, aggregation="sq", target_class="pos",
                             profile="sampled", max_samples=20, seed=4)
        est.fit(corpus, FlipWordPredictor())
        assert est.result_.documents_processed == 12


class TestFreqStatsOption:
    def test_external_frequency_source(self):
        from anchoragg.corpus import word_stats as ws
        corpus = anchor_test_corpus()
        # frequency corpus where 'extra' is rare: it must drop out of the
        # candidate set under stop/rare filtering
        freq_corpus = make_corpus([("f0", "good nice fine bad gross awful "
                                          "pad pad pad pad pad extra", "pos")])
        freq = ws(freq_corpus)
        result = small_run(corpus, FlipWordPredictor(), seed=2,
                           stop_rare_filtering=True, min_freq=2,
                           stopwords=frozenset(), freq_stats=freq)
        assert "extra" not in result.candidates
        assert "pad" in result.candidates


class TestPredictorClassMismatch:
    def test_mismatched_classes_rejected(self):
        corpus = anchor_test_corpus()
        stats = word_stats(corpus)
        pert = build_unigram_perturbator(stats)

        class OddPredictor(ConstantPredictor):
            def __init__(self):
                super().__init__(classes=("spam", "ham"), label="ham")

        with pytest.raises(ValueError, match="do not match"):
            run_anytime(corpus, OddPredictor(), pert, AnchorConfig(),
                        make_aggregation("sq"), 1, "pos")


class TestShouldFilter:
    def test_heap_not_full_never_filters(self):
        assert should_filter(0.0, 1.0, heap_full=False) is False

    def test_boundary_equality_keeps_word(self):
        assert should_filter(0.5, 0.5, heap_full=True) is False

    def test_strictly_below_filters(self):
        assert should_filter(0.4999, 0.5, heap_full=True) is True

    def test_nan_bound_never_filters(self):
        assert should_filter(float("nan"), 0.5, heap_full=True) is False

    def test_elementwise_over_bounds(self):
        bounds = np.array([0.4999, 0.5, 0.7, np.nan])
        assert should_filter(bounds, 0.5, heap_full=True).tolist() == [
            True, False, False, False]
        assert not np.any(should_filter(bounds, 0.5, heap_full=False))
