import math
from pathlib import Path

import numpy as np
import pytest

import anchoragg
from anchoragg.anchor import (ROUND_ROWS, AnchorConfig, anchors_of_document,
                              confidence_bounds, estimate_token)
from anchoragg.corpus import Document, word_stats
from anchoragg.model import BowClassifier, Predictor, train_bow
from anchoragg.perturb import UnigramPerturbator, build_unigram_perturbator
from anchoragg.seeding import stream_rng
from anchoragg.synth import SynthSpec, generate_planted_corpus
from anchoragg.topk import AnchorTopTerms

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


class TestEstimateToken:
    def test_constant_predictor_every_token_anchor(self):
        doc = Document.from_text("0", "one two three")
        cfg = AnchorConfig()
        pert = UnigramPerturbator(["zz"], [1.0], mask_prob=0.5)
        pred = ConstantPredictor()
        for pos in range(3):
            d = estimate_token(doc, pos, pred, pert, cfg, stream_rng(0, "t", pos))
            assert d.is_anchor
            assert d.estimate.point == 1.0

    def test_conditioning_forces_success(self):
        # predictor keyed on 'x' at position 0; keeping that token pins it
        doc = Document.from_text("0", "x other words")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=1.0)
        d = estimate_token(doc, 0, pred, pert, AnchorConfig(), stream_rng(1, "t"))
        assert d.is_anchor and d.estimate.point == 1.0

    def test_destroyed_key_position_no_anchor(self):
        # keeping a different token lets position 0 be replaced on every
        # sample (mask_prob=1, pool lacks 'x'), so precision is exactly 0
        doc = Document.from_text("0", "x other words")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=1.0)
        rng = stream_rng(2, "t")
        d = estimate_token(doc, 1, pred, pert, AnchorConfig(), rng)
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
        d = estimate_token(doc, 1, pred, pert, AnchorConfig(), stream_rng(5, "t"))
        assert not d.is_anchor

    def test_determinism(self):
        doc = Document.from_text("0", "a b c d")
        pred = FlipWordPredictor()
        pert = CoinPerturbator(0.7)
        cfg = AnchorConfig()
        runs = [estimate_token(doc, 0, pred, pert, cfg, stream_rng(9, "s"))
                for _ in range(2)]
        assert runs[0] == runs[1]

    def test_early_stop_spends_fewer_samples_on_clear_non_anchor(self):
        doc = Document.from_text("0", "a b")
        pred = FlipWordPredictor()
        cfg = AnchorConfig()
        d = estimate_token(doc, 0, pred, CoinPerturbator(0.05), cfg,
                           stream_rng(10, "s"))
        assert not d.is_anchor
        assert d.samples_used <= 2 * cfg.batch_size

    def test_monotone_in_threshold(self):
        # with the same rng stream, lowering tau never turns an anchor
        # decision into a non-anchor
        doc = Document.from_text("0", "a b")
        pred = FlipWordPredictor()
        for pi in (0.3, 0.6, 0.9, 0.97, 1.0):
            pert = CoinPerturbator(pi)
            decisions = {}
            for tau in (0.55, 0.75, 0.95):
                d = estimate_token(doc, 0, pred, pert, AnchorConfig(tau=tau),
                                   stream_rng(77, "mono", int(pi * 100)))
                decisions[tau] = d.is_anchor
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
            used = [estimate_token(doc, 0, pred, pert, cfg,
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
            estimate_token(doc, 5, pred, pert, cfg, stream_rng(0, "x"))
        for tau in (0.0, -0.2, 1.2):
            with pytest.raises(ValueError, match="tau out of"):
                AnchorConfig(tau=tau)


class TestAnchorsOfDocument:
    def _run(self, doc, pred, pert, cfg=None, skip=None):
        cfg = cfg or AnchorConfig()
        return anchors_of_document(
            doc, pred, pert, cfg,
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

    def test_empty_document_rejected(self):
        doc = Document(id="0", words=(), raw_text="")
        with pytest.raises(ValueError):
            self._run(doc, ConstantPredictor(), CoinPerturbator(1.0))


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
    def _check_against_oracle(doc, pred, pert, cfg, skip=None, recorder=None):
        rng_for = lambda pos: stream_rng(11, "rounds", doc.id, pos)
        target = pred.predict(doc)
        decisions = anchors_of_document(doc, recorder or pred, pert, cfg,
                                        rng_for, skip_word=skip, target=target)
        assert [d.token.position for d in decisions] == list(range(len(doc.words)))
        for pos, (word, d) in enumerate(zip(doc.words, decisions)):
            if skip is not None and skip(word):
                assert d.skipped and d.samples_used == 0
                continue
            expected = sequential_test_by_token(
                doc, pos, pred, pert, cfg, rng_for(pos), pred.class_index(target))
            assert (d.is_anchor, d.estimate.successes, d.samples_used) == expected
        return decisions

    def test_early_stops_thresholds_and_skips(self):
        doc = Document.from_text("d", "a b c d e a b skip f g c")
        stops = set()
        for tau in (0.55, 0.7, 0.8, 0.9, 0.95, 1.0):
            cfg = AnchorConfig(tau=tau, batch_size=7, max_samples=60)
            for pi in (0.2, 0.5, 0.7, 0.85, 0.93, 1.0):
                decisions = self._check_against_oracle(
                    doc, FlipWordPredictor(), CoinPerturbator(pi), cfg,
                    skip=lambda w: w == "skip")
                stops |= {d.samples_used for d in decisions if not d.skipped}
        # decisions at the first look, in between and at the budget
        assert {7, 60} <= stops and len(stops) > 3

    def test_trained_model_and_unigram_pool(self):
        spec = SynthSpec(n_docs=30, n_fillers=40, n_singleton_docs=2)
        corpus, _ = generate_planted_corpus(spec, seed=3)
        clf = train_bow(corpus, epochs=100, learning_rate=0.3, seed=0)
        pert = build_unigram_perturbator(word_stats(corpus), zeta=50)
        cfg = AnchorConfig(tau=0.8, delta=0.3)
        for doc in corpus.documents[:6]:
            self._check_against_oracle(doc, clf, pert, cfg, skip=lambda w: len(w) < 3)

    def test_one_predictor_call_per_round(self):
        doc = Document.from_text("d", "a b c d e f g h i j k l")
        for cfg in (AnchorConfig(), AnchorConfig(batch_size=10, max_samples=25),
                    AnchorConfig(batch_size=7, max_samples=100)):
            pred = CallRecorder(FlipWordPredictor())
            anchors_of_document(doc, pred, CoinPerturbator(0.9), cfg,
                                rng_for=lambda pos: stream_rng(4, "calls", pos),
                                target="pos")
            assert len(pred.batches) <= math.ceil(cfg.max_samples / cfg.batch_size)
            assert pred.batches[0] == len(doc.words) * cfg.batch_size

    def test_round_rows_are_capped(self):
        words = " ".join(f"w{i % 50}" for i in range(600))
        doc = Document.from_text("long", words)
        pred = FlipWordPredictor()
        recorder = CallRecorder(pred)
        cfg = AnchorConfig(tau=0.9)
        assert len(doc.words) * cfg.batch_size > ROUND_ROWS
        self._check_against_oracle(doc, pred, CoinPerturbator(0.9), cfg,
                                   recorder=recorder)
        assert max(recorder.batches) <= ROUND_ROWS
        # the first round's 6,000 rows go out in two calls
        assert sum(recorder.batches[:2]) == len(doc.words) * cfg.batch_size


@pytest.fixture(scope="module")
def trained_pair():
    """A small planted corpus, its trained classifier and unigram pool."""
    spec = SynthSpec(n_docs=30, n_fillers=40, n_singleton_docs=2)
    corpus, _ = generate_planted_corpus(spec, seed=3)
    clf = train_bow(corpus, epochs=100, learning_rate=0.3, seed=0)
    return corpus, clf, build_unigram_perturbator(word_stats(corpus), zeta=50)


class StringOnly(Predictor):
    """Forwards only the string interface, as the benchmark tracer's
    ``TracedPredictor`` does."""

    def __init__(self, base):
        self.base = base

    @property
    def classes_(self):
        return self.base.classes_

    def predict_proba_words(self, words):
        return self.base.predict_proba_words(words)

    def predict_proba_many(self, docs):
        return self.base.predict_proba_many(docs)


def _recording(clf):
    """A copy of ``clf`` that records the row count of each
    ``predict_proba_many`` call."""

    class Recording(BowClassifier):
        def predict_proba_many(self, docs):
            self.many_rows.append(len(docs))
            return super().predict_proba_many(docs)

    rec = Recording()
    rec.__dict__.update(clf.__dict__)
    rec.many_rows = []
    return rec


def _topk_run(corpus, predictor, batch_size=AnchorConfig.batch_size):
    rows = []
    est = AnchorTopTerms(k=5, target_class="pos", seed=3, max_samples=30,
                         batch_size=batch_size)
    est.fit(corpus, predictor, trace_sink=rows.append)
    snapshots = [(s.calls, s.doc_index, s.topk) for s in est.snapshots_]
    return est.terms_.items, rows, snapshots, est.calls_


class TestIdPath:
    """The built-in classifier and unigram pool exchange word ids; any
    other pair exchanges words. Both make the same decisions."""

    @pytest.mark.parametrize("batch_size", [1, 4])
    def test_built_in_pair_scores_no_word_rows(self, trained_pair, batch_size):
        corpus, clf, _ = trained_pair
        rec = _recording(clf)
        outputs = _topk_run(corpus, rec, batch_size)
        # the corpus is classified once, in words; every sample goes as ids,
        # however few rows a round draws per token
        assert rec.many_rows == [len(corpus)]
        assert outputs[-1] > 10 * len(corpus)
        assert outputs == _topk_run(corpus, clf, batch_size)

    def test_string_fallback_decides_the_same(self, trained_pair):
        corpus, clf, _ = trained_pair
        # equal terms, trace rows, snapshots and CountingPredictor.calls
        assert _topk_run(corpus, StringOnly(clf)) == _topk_run(corpus, clf)

    def test_external_predictor_decides_the_same(self, trained_pair, tmp_path):
        import sys

        from anchoragg.model import ExternalPredictorClient, save_model

        corpus, clf, pert = trained_pair
        save_model(clf, tmp_path / "m.json")
        script = tmp_path / "bow_service.py"
        script.write_text(
            "import json, sys\n"
            f"sys.path.insert(0, {str(Path(anchoragg.__file__).parents[1])!r})\n"
            "from anchoragg.model import load_model\n"
            f"clf = load_model({str(tmp_path / 'm.json')!r})\n"
            "for line in sys.stdin:\n"
            "    texts = json.loads(line)['texts']\n"
            "    probs = clf.predict_proba_many([t.split() for t in texts])\n"
            "    print(json.dumps({'probs': probs.tolist(),"
            " 'classes': list(clf.classes_)}), flush=True)\n")
        client = ExternalPredictorClient(command=[sys.executable, str(script)],
                                         batch_size=ROUND_ROWS)
        cfg = AnchorConfig(tau=0.8, delta=0.3)
        try:
            for doc in corpus.documents[:3]:
                run = lambda predictor: anchors_of_document(
                    doc, predictor, pert, cfg,
                    rng_for=lambda pos: stream_rng(5, doc.id, pos))
                assert run(client) == run(clf)
        finally:
            client.close()


def _spy_on_sample_batch(perturbator) -> list[tuple[int, ...]]:
    """Record the ``keep`` of every ``sample_batch`` call of ``perturbator``."""
    keeps = []
    draw = perturbator.sample_batch

    def spy(doc, keep, n, rng):
        keeps.append(tuple(keep))
        return draw(doc, keep, n, rng)

    perturbator.sample_batch = spy
    return keeps


class TestRoundKernelPath:
    """With ``UnigramPerturbator`` a round's group is one kernel call, on the
    id path and the word path alike: no token draws through ``sample_batch``.
    A perturbator without the kernel draws each token's batch of each round
    with one ``sample_batch`` call."""

    @pytest.mark.parametrize("wrap", [lambda clf: clf, StringOnly])
    def test_sample_batch_only_without_the_kernel(self, trained_pair, wrap):
        corpus, clf, _ = trained_pair
        cfg = AnchorConfig(tau=0.9)
        kernel = build_unigram_perturbator(word_stats(corpus), zeta=50)
        for perturbator, per_token in ((kernel, False), (CoinPerturbator(0.9), True)):
            keeps = _spy_on_sample_batch(perturbator)
            rounds = 0
            for doc in corpus.documents[:4]:
                decisions = anchors_of_document(
                    doc, wrap(clf), perturbator, cfg,
                    rng_for=lambda pos: stream_rng(2, doc.id, pos))
                rounds += sum(d.samples_used // cfg.batch_size for d in decisions)
            assert len(keeps) == (rounds if per_token else 0)
            assert all(len(keep) == 1 for keep in keeps)


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
                                   stream_rng(r, "sound", int(pi * 100)))
                wrong += int(d.is_anchor)  # true precision is below tau
            assert wrong / reps <= limit
