import math
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchoragg.anchor import (ROUND_ROWS, AnchorConfig, adaptive_tau,
                              anchors_of_document, confidence_bounds,
                              estimate_token)
from anchoragg.corpus import Document, word_stats
from anchoragg.model import Predictor, train_bow
from anchoragg.perturb import UnigramPerturbator, build_unigram_perturbator
from anchoragg.seeding import stream_rng
from anchoragg.synth import SynthSpec, generate_planted_corpus

from conftest import (CoinPerturbator, ConstantPredictor, FlipWordPredictor,
                      PositionWordPredictor)
from oracles import interval_coverage, mc_precision, sequential_test_by_token


class TestConfidenceBounds:
    def test_zero_successes_lower_bound(self):
        lower, _ = confidence_bounds(0, 25, 0.1)
        assert lower == 0.0

    def test_all_successes_upper_bound(self):
        _, upper = confidence_bounds(25, 25, 0.1)
        assert upper == 1.0

    def test_documented_formula_value(self):
        lower, upper = confidence_bounds(8, 10, 0.1)
        half = math.sqrt(math.log(2 / 0.1) / 20)
        assert lower == pytest.approx(0.8 - half, abs=1e-12)
        assert upper == 1.0  # 0.8 + 0.387 clips at 1
        assert half == pytest.approx(0.38702276, abs=1e-7)

    @pytest.mark.parametrize("delta", [0.05, 0.1, 0.3])
    @pytest.mark.parametrize("n", [1, 2, 5, 10, 40])
    def test_coverage_against_exact_binomial_oracle(self, n, delta):
        fn = lambda s, trials: confidence_bounds(s, trials, delta)
        for p in np.linspace(0.0, 1.0, 21):
            assert interval_coverage(fn, n, float(p)) >= 1 - delta - 1e-12

    def test_bounds_order(self):
        for s, n in [(0, 3), (2, 3), (3, 3), (7, 10)]:
            lower, upper = confidence_bounds(s, n, 0.2)
            assert 0 <= lower <= s / n <= upper <= 1

    def test_zero_trials_rejected(self):
        with pytest.raises(ValueError):
            confidence_bounds(0, 0, 0.1)


class TestAdaptiveTau:
    CFG = AnchorConfig(tau=0.95, delta=0.1, omega=0.4, tau_floor=0.55)

    def test_zero_score_leaves_tau(self):
        assert adaptive_tau(self.CFG, 0.0, 10) == 0.95

    def test_floor_at_full_relaxation(self):
        assert adaptive_tau(self.CFG, 1.0, 1) == pytest.approx(0.55)

    def test_mid_relaxation(self):
        # 0.95 - 0.4 * 0.5 = 0.75
        assert adaptive_tau(self.CFG, 0.5, 1) == pytest.approx(0.75)

    @given(st.floats(0, 1e6, allow_nan=False), st.integers(1, 10**9))
    @settings(max_examples=300, deadline=None)
    def test_clamped_to_floor_and_tau(self, pseudo, n_w):
        value = adaptive_tau(self.CFG, pseudo, n_w)
        assert 0.55 <= value <= 0.95

    def test_input_validation(self):
        with pytest.raises(ValueError):
            adaptive_tau(self.CFG, -0.1, 5)
        with pytest.raises(ValueError):
            adaptive_tau(self.CFG, 0.1, 0)


class TestEstimateToken:
    def test_constant_predictor_every_token_anchor(self):
        doc = Document.from_text("0", "one two three")
        cfg = AnchorConfig()
        pert = UnigramPerturbator(["zz"], [1.0], mask_prob=0.5)
        pred = ConstantPredictor()
        for pos in range(3):
            d = estimate_token(doc, pos, pred, pert, cfg, cfg.tau,
                               stream_rng(0, "t", pos))
            assert d.is_anchor
            assert d.estimate.point == 1.0

    def test_conditioning_forces_success(self):
        # predictor keyed on 'x' at position 0; keeping that token pins it
        doc = Document.from_text("0", "x other words")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=1.0)
        d = estimate_token(doc, 0, pred, pert, AnchorConfig(), 0.95,
                           stream_rng(1, "t"))
        assert d.is_anchor and d.estimate.point == 1.0

    def test_destroyed_key_position_no_anchor(self):
        # keeping a different token lets position 0 be replaced on every
        # sample (mask_prob=1, pool lacks 'x'), so precision is exactly 0
        doc = Document.from_text("0", "x other words")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=1.0)
        rng = stream_rng(2, "t")
        d = estimate_token(doc, 1, pred, pert, AnchorConfig(), 0.95, rng)
        assert not d.is_anchor
        assert d.estimate.point == 0.0
        # Monte Carlo oracle agrees the analytic precision is 0
        assert mc_precision(doc, 1, pred, pert, stream_rng(3, "mc"), 20000) == 0.0

    def test_partial_masking_analytic_precision(self):
        # With mask_prob=0.5, precision of keeping position 1 equals the
        # probability position 0 is left unmasked: exactly 0.5.
        doc = Document.from_text("0", "x other")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=0.5)
        est = mc_precision(doc, 1, pred, pert, stream_rng(4, "mc"), 100_000)
        assert abs(est - 0.5) <= 3 * math.sqrt(0.25 / 100_000)
        d = estimate_token(doc, 1, pred, pert, AnchorConfig(), 0.95,
                           stream_rng(5, "t"))
        assert not d.is_anchor

    def test_determinism(self):
        doc = Document.from_text("0", "a b c d")
        pred = FlipWordPredictor()
        pert = CoinPerturbator(0.7)
        cfg = AnchorConfig()
        runs = [estimate_token(doc, 0, pred, pert, cfg, 0.95,
                               stream_rng(9, "s")) for _ in range(2)]
        assert runs[0] == runs[1]

    def test_early_stop_spends_fewer_samples_on_clear_non_anchor(self):
        doc = Document.from_text("0", "a b")
        pred = FlipWordPredictor()
        cfg = AnchorConfig()
        d = estimate_token(doc, 0, pred, CoinPerturbator(0.05), cfg, 0.95,
                           stream_rng(10, "s"))
        assert not d.is_anchor
        assert d.samples_used <= 2 * cfg.batch_size

    def test_monotone_in_threshold(self):
        # with the same rng stream, lowering tau_eff never turns an anchor
        # decision into a non-anchor
        doc = Document.from_text("0", "a b")
        pred = FlipWordPredictor()
        cfg = AnchorConfig()
        for pi in (0.3, 0.6, 0.9, 0.97, 1.0):
            pert = CoinPerturbator(pi)
            decisions = {}
            for tau_eff in (0.55, 0.75, 0.95):
                d = estimate_token(doc, 0, pred, pert, cfg, tau_eff,
                                   stream_rng(77, "mono", int(pi * 100)))
                decisions[tau_eff] = d.is_anchor
            if decisions[0.95]:
                assert decisions[0.75] and decisions[0.55]
            if decisions[0.75]:
                assert decisions[0.55]

    def test_sample_economy_in_delta(self):
        # looser delta never needs more samples on average (5% slack)
        doc = Document.from_text("0", "a b")
        pred = FlipWordPredictor()
        pert = CoinPerturbator(0.8)
        means = []
        for delta in (0.05, 0.1, 0.3):
            cfg = AnchorConfig(delta=delta)
            used = [estimate_token(doc, 0, pred, pert, cfg, 0.95,
                                   stream_rng(500 + r, "econ")).samples_used
                    for r in range(120)]
            means.append(np.mean(used))
        assert means[1] <= means[0] * 1.05
        assert means[2] <= means[1] * 1.05

    def test_invalid_inputs(self):
        doc = Document.from_text("0", "a b")
        pred = ConstantPredictor()
        pert = CoinPerturbator(1.0)
        cfg = AnchorConfig()
        with pytest.raises(ValueError):
            estimate_token(doc, 5, pred, pert, cfg, 0.95, stream_rng(0, "x"))
        with pytest.raises(ValueError):
            estimate_token(doc, 0, pred, pert, cfg, 0.2, stream_rng(0, "x"))


class TestAnchorsOfDocument:
    def _run(self, doc, pred, pert, cfg=None, skip=None):
        cfg = cfg or AnchorConfig()
        return anchors_of_document(
            doc, pred, pert, cfg,
            threshold_for=lambda w: cfg.tau,
            rng_for=lambda pos: stream_rng(3, "doc", doc.id, pos),
            skip_word=skip)

    def test_single_token_constant_predictor(self):
        doc = Document.from_text("0", "word")
        decisions = self._run(doc, ConstantPredictor(), CoinPerturbator(1.0))
        assert len(decisions) == 1 and decisions[0].is_anchor

    def test_one_decision_per_token(self):
        doc = Document.from_text("0", "a b c d e")
        decisions = self._run(doc, ConstantPredictor(), CoinPerturbator(1.0))
        assert [d.token.position for d in decisions] == [0, 1, 2, 3, 4]

    def test_skipped_words_are_non_anchors_with_zero_samples(self):
        doc = Document.from_text("0", "keepme skipme")
        decisions = self._run(doc, ConstantPredictor(), CoinPerturbator(1.0),
                              skip=lambda w: w == "skipme")
        assert decisions[0].is_anchor and not decisions[0].skipped
        assert decisions[1].skipped and not decisions[1].is_anchor
        assert decisions[1].samples_used == 0

    def test_adaptive_zero_scores_equal_constant_mode(self):
        doc = Document.from_text("0", "a b c")
        cfg = AnchorConfig()
        pred, pert = FlipWordPredictor(), CoinPerturbator(0.9)
        const = self._run(doc, pred, pert, cfg)
        adaptive = anchors_of_document(
            doc, pred, pert, cfg,
            threshold_for=lambda w: adaptive_tau(cfg, 0.0, 7),
            rng_for=lambda pos: stream_rng(3, "doc", doc.id, pos))
        assert const == adaptive

    def test_empty_document_rejected(self):
        doc = Document(id="0", words=(), raw_text="")
        with pytest.raises(ValueError):
            self._run(doc, ConstantPredictor(), CoinPerturbator(1.0))

    def test_executor_matches_serial(self):
        from concurrent.futures import ThreadPoolExecutor

        doc = Document.from_text("0", "a b c d e f g h")
        pred, pert = FlipWordPredictor(), CoinPerturbator(0.85)
        cfg = AnchorConfig()
        serial = self._run(doc, pred, pert, cfg)
        with ThreadPoolExecutor(max_workers=4) as pool:
            parallel = anchors_of_document(
                doc, pred, pert, cfg,
                threshold_for=lambda w: cfg.tau,
                rng_for=lambda pos: stream_rng(3, "doc", doc.id, pos),
                executor=pool)
        assert serial == parallel


class CallRecorder(Predictor):
    """Passes calls through and records the row count of each batch call."""

    def __init__(self, base):
        self.base = base
        self.classes_ = base.classes_
        self.batches = []

    def predict_proba_words(self, words):
        return self.base.predict_proba_words(words)

    def predict_proba_many(self, docs):
        self.batches.append(len(docs))
        return self.base.predict_proba_many(docs)


class TestRounds:
    """Testing every token of a document in shared rounds decides exactly
    as testing each token on its own stream."""

    @staticmethod
    def _check_against_oracle(doc, pred, pert, cfg, threshold_for,
                              skip=None, executor=None, recorder=None):
        rng_for = lambda pos: stream_rng(11, "rounds", doc.id, pos)
        target = pred.predict(doc)
        decisions = anchors_of_document(doc, recorder or pred, pert, cfg,
                                        threshold_for, rng_for, skip_word=skip,
                                        target=target, executor=executor)
        assert [d.token.position for d in decisions] == list(range(len(doc.words)))
        for pos, (word, d) in enumerate(zip(doc.words, decisions)):
            assert d.tau_eff == threshold_for(word)
            if skip is not None and skip(word):
                assert d.skipped and d.samples_used == 0
                continue
            expected = sequential_test_by_token(
                doc, pos, pred, pert, cfg, threshold_for(word), rng_for(pos),
                pred.class_index(target))
            assert (d.is_anchor, d.estimate.successes, d.samples_used) == expected
        return decisions

    def test_early_stops_thresholds_and_skips(self):
        doc = Document.from_text("d", "a b c d e a b skip f g c")
        cfg = AnchorConfig(batch_size=7, max_samples=60)
        taus = {"a": 0.55, "b": 0.7, "c": 0.8, "d": 0.9, "e": 0.95, "f": 1.0,
                "g": 0.6, "skip": 0.95}
        stops = set()
        for pi in (0.2, 0.5, 0.7, 0.85, 0.93, 1.0):
            decisions = self._check_against_oracle(
                doc, FlipWordPredictor(), CoinPerturbator(pi), cfg, taus.get,
                skip=lambda w: w == "skip")
            stops |= {d.samples_used for d in decisions if not d.skipped}
        # decisions at the first look, in between and at the budget
        assert {7, 60} <= stops and len(stops) > 3

    def test_trained_model_and_unigram_pool(self):
        spec = SynthSpec(n_docs=30, n_fillers=40, n_singleton_docs=2)
        corpus, _ = generate_planted_corpus(spec, seed=3)
        clf = train_bow(corpus, epochs=100, learning_rate=0.3, seed=0)
        pert = build_unigram_perturbator(word_stats(corpus), zeta=50)
        cfg = AnchorConfig(delta=0.3)
        for doc in corpus.documents[:6]:
            self._check_against_oracle(doc, clf, pert, cfg, lambda w: 0.8,
                                       skip=lambda w: len(w) < 3)

    def test_executor_draws_match_oracle(self):
        doc = Document.from_text("d", "a b c d e f g h")
        with ThreadPoolExecutor(max_workers=3) as pool:
            self._check_against_oracle(doc, FlipWordPredictor(),
                                       CoinPerturbator(0.9), AnchorConfig(),
                                       lambda w: 0.9, executor=pool)

    def test_one_predictor_call_per_round(self):
        doc = Document.from_text("d", "a b c d e f g h i j k l")
        for cfg in (AnchorConfig(), AnchorConfig(batch_size=10, max_samples=25),
                    AnchorConfig(batch_size=7, max_samples=100)):
            pred = CallRecorder(FlipWordPredictor())
            anchors_of_document(doc, pred, CoinPerturbator(0.9), cfg,
                                threshold_for=lambda w: cfg.tau,
                                rng_for=lambda pos: stream_rng(4, "calls", pos),
                                target="pos")
            assert len(pred.batches) <= math.ceil(cfg.max_samples / cfg.batch_size)
            assert pred.batches[0] == len(doc.words) * cfg.batch_size

    def test_round_rows_are_capped(self):
        words = " ".join(f"w{i % 50}" for i in range(600))
        doc = Document.from_text("long", words)
        pred = FlipWordPredictor()
        recorder = CallRecorder(pred)
        cfg = AnchorConfig()
        assert len(doc.words) * cfg.batch_size > ROUND_ROWS
        self._check_against_oracle(doc, pred, CoinPerturbator(0.9), cfg,
                                   lambda w: 0.9, recorder=recorder)
        assert max(recorder.batches) <= ROUND_ROWS
        # the first round's 6,000 rows go out in two calls
        assert sum(recorder.batches[:2]) == len(doc.words) * cfg.batch_size


class TestStatisticalSoundness:
    def test_wrong_decision_rate_within_bound(self):
        # pairs with exactly known precision; tau=0.95, delta=0.1
        cfg = AnchorConfig()
        doc = Document.from_text("0", "kept other")
        pred = FlipWordPredictor()
        reps = 200
        limit = 0.1 + 3 * math.sqrt(0.1 * 0.9 / reps)
        for pi in (0.5, 0.8):
            wrong = 0
            for r in range(reps):
                d = estimate_token(doc, 0, pred, CoinPerturbator(pi), cfg,
                                   cfg.tau, stream_rng(r, "sound", int(pi * 100)))
                wrong += int(d.is_anchor)  # true precision is below tau
            assert wrong / reps <= limit
