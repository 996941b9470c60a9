import math
from pathlib import Path

import numpy as np
import pytest

import anchoragg
from anchoragg.anchor import (ROUND_ROWS, WAVE_ROWS, AnchorConfig, AnchorDecision,
                              _verdicts, anchors_of_documents, confidence_bounds,
                              document_waves)
from anchoragg.corpus import Document, word_stats
from anchoragg.model import BowClassifier, Predictor, train_bow
from anchoragg.perturb import Perturbator, UnigramPerturbator, build_unigram_perturbator
from anchoragg.seeding import stream_rng
from anchoragg.synth import SynthSpec, generate_planted_corpus
from anchoragg.topk import AnchorTopTerms

from conftest import (CoinPerturbator, ConstantPredictor, FlipWordPredictor,
                      PositionWordPredictor, RowRecorder)
from oracles import (estimate_token, interval_coverage, mc_precision,
                     sequential_test_by_token)


def anchors_of_document(doc, predictor, perturbator, cfg, rng_for, skip_word=None, *,
                        target):
    """``anchors_of_documents`` on a wave of one document."""
    return next(anchors_of_documents([doc], predictor, perturbator, cfg, [rng_for],
                                     skip_word, targets=[target]))


def undrawn(position):
    """The stream of a position no test may draw from."""
    raise AssertionError(f"position {position} drew from its stream")


class SamplerRecorder(Perturbator):
    """Forwards to ``base``, and records the document ids of every
    ``sampler`` it builds: the waves that were tested."""

    def __init__(self, base):
        self.base = base
        self.waves = []

    def sampler(self, docs, encode, pad):
        self.waves.append([d.id for d in docs])
        return self.base.sampler(docs, encode, pad)

    def sample_batch(self, doc, keep, n, rng):
        return self.base.sample_batch(doc, keep, n, rng)


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


class TestVerdictTable:
    """The round's verdict on each hit count is the rule the bounds give:
    -1 (undecided) while they straddle tau before the last round, else 1
    when they certify an anchor or, straddling, the point estimate does."""

    def test_every_entry_follows_the_bounds(self):
        r = np.random.default_rng(41)
        seen = set()
        for _ in range(400):
            trials = int(r.integers(1, 101))
            delta = float(r.uniform(0.001, 0.99))
            tau = float(r.choice([0.5, 0.8, 0.95, 1.0]))
            last = bool(r.integers(2))
            table = _verdicts(trials, delta, tau, last)
            assert table.dtype == np.int8 and not table.flags.writeable
            assert len(table) == trials + 1
            for h, verdict in enumerate(table):
                lower, upper = confidence_bounds(h, trials, delta)
                if lower < tau <= upper and not last:
                    expected = -1
                else:
                    expected = int(lower >= tau or (upper >= tau and h / trials >= tau))
                assert verdict == expected, (h, trials, delta, tau, last)
                seen.add(verdict)
        assert seen == {-1, 0, 1}


class TestEstimateToken:
    def test_constant_predictor_every_token_anchor(self):
        doc = Document.from_text("0", "one two three")
        cfg = AnchorConfig()
        pert = UnigramPerturbator(["zz"], [1.0], mask_prob=0.5)
        pred = ConstantPredictor()
        for pos in range(3):
            d = estimate_token(doc, pos, pred, pert, cfg, stream_rng(0, "t", pos))
            assert d.is_anchor
            assert d.successes / d.samples_used == 1.0

    def test_conditioning_forces_success(self):
        # predictor keyed on 'x' at position 0; keeping that token pins it
        doc = Document.from_text("0", "x other words")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=1.0)
        d = estimate_token(doc, 0, pred, pert, AnchorConfig(), stream_rng(1, "t"))
        assert d.is_anchor and d.successes / d.samples_used == 1.0

    def test_destroyed_key_position_no_anchor(self):
        # keeping a different token lets position 0 be replaced on every
        # sample (mask_prob=1, pool lacks 'x'), so precision is exactly 0
        doc = Document.from_text("0", "x other words")
        pred = PositionWordPredictor("x", 0)
        pert = UnigramPerturbator(["noise"], [1.0], mask_prob=1.0)
        rng = stream_rng(2, "t")
        d = estimate_token(doc, 1, pred, pert, AnchorConfig(), rng)
        assert not d.is_anchor
        assert d.successes / d.samples_used == 0.0
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
            skip_word=skip, target=pred.predict(doc))

    def test_single_token_constant_predictor(self):
        doc = Document.from_text("0", "word")
        decisions = self._run(doc, ConstantPredictor(), CoinPerturbator(1.0))
        assert len(decisions) == 1 and decisions[0].is_anchor

    def test_one_decision_per_token(self):
        doc = Document.from_text("0", "a b c d e")
        decisions = self._run(doc, ConstantPredictor(), CoinPerturbator(1.0))
        assert [d.position for d in decisions] == [0, 1, 2, 3, 4]

    def test_skipped_words_are_non_anchors_with_zero_samples(self):
        doc = Document.from_text("0", "keepme skipme")
        decisions = self._run(doc, ConstantPredictor(), CoinPerturbator(1.0),
                              skip=lambda w: w == "skipme")
        assert decisions[0].is_anchor and decisions[0].samples_used > 0
        assert decisions[1] == AnchorDecision("skipme", 1, False, 0, 0)

    def test_trace_rows(self):
        """An unsampled token's row has no precision; a sampled token's
        precision is its hits over its samples."""
        doc = Document.from_text("0", "a b skip c d")
        decisions = self._run(doc, FlipWordPredictor(), CoinPerturbator(0.6),
                              AnchorConfig(max_samples=40), skip=lambda w: w == "skip")
        rows = [d.to_row("7") for d in decisions]
        assert rows[2] == {"doc": "7", "pos": 2, "word": "skip", "anchor": False,
                           "precision": None, "samples": 0}
        sampled = [(d, row) for d, row in zip(decisions, rows) if d.samples_used]
        assert len(sampled) == 4
        for d, row in sampled:
            assert row == {"doc": "7", "pos": d.position, "word": d.word,
                           "anchor": d.is_anchor, "samples": d.samples_used,
                           "precision": d.successes / d.samples_used}
        assert any(0 < row["precision"] < 1 for _, row in sampled)

    def test_empty_document_yields_no_decisions(self):
        doc = Document(id="0", words=(), raw_text="")
        pert = SamplerRecorder(CoinPerturbator(1.0))
        assert anchors_of_document(doc, ConstantPredictor(), pert, AnchorConfig(),
                                   undrawn, target="pos") == []
        assert pert.waves == []


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
        assert [d.position for d in decisions] == list(range(len(doc.words)))
        for pos, (word, d) in enumerate(zip(doc.words, decisions)):
            if skip is not None and skip(word):
                assert d == AnchorDecision(word, pos, False, 0, 0)
                continue
            expected = sequential_test_by_token(
                doc, pos, pred, pert, cfg, rng_for(pos), pred.class_index(target))
            assert (d.is_anchor, d.successes, d.samples_used) == expected
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
                stops |= {d.samples_used for d in decisions if d.samples_used}
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
    """Every sample row is scored by ``predict_proba_ids``: in vocabulary ids
    for the built-in classifier, in words for a predictor that scores only
    words. Both make the same decisions."""

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

    def test_per_token_path_scores_no_word_rows(self, trained_pair):
        corpus, clf, _ = trained_pair
        rec = _recording(clf)
        # each class's strongest word, leading three-word documents: one
        # planted word of the other class can flip them
        gap = clf.weights_[:, 1] - clf.weights_[:, 0]
        strongest = [clf.vocabulary_[j] for j in (np.argmin(gap), np.argmax(gap))]
        docs = [Document.from_text(d.id, " ".join([strongest[i % 2], *d.words[:2]]))
                for i, d in enumerate(corpus.documents[:6])]
        targets = rec.predict_many(docs)
        assert rec.many_rows == [len(docs)]
        cfg = AnchorConfig(tau=0.8, delta=0.3, max_samples=40)
        decided = set()
        for doc, target in zip(docs, targets):
            rng_for = lambda pos: stream_rng(6, doc.id, pos)
            for pi in (0.5, 0.9):
                pert = CoinPerturbator(pi, strongest[1 - clf.class_index(target)])
                decisions = anchors_of_document(doc, rec, pert, cfg, rng_for,
                                                target=target)
                for pos, d in enumerate(decisions):
                    assert (d.is_anchor, d.successes, d.samples_used) == \
                        sequential_test_by_token(doc, pos, clf, pert, cfg, rng_for(pos),
                                                 clf.class_index(target))
                    decided.add(d.is_anchor)
        assert decided == {True, False}
        # after the documents are classified, every sample went as ids
        assert rec.many_rows == [len(docs)]

    def test_string_fallback_decides_the_same(self, trained_pair):
        corpus, clf, _ = trained_pair
        # equal terms, trace rows, snapshots and calls
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
                    rng_for=lambda pos: stream_rng(5, doc.id, pos),
                    target=predictor.predict(doc))
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
    """With ``UnigramPerturbator`` a round's group is one kernel call, in
    vocabulary ids and in words alike: no token draws through ``sample_batch``.
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
                pred = wrap(clf)
                decisions = anchors_of_document(
                    doc, pred, perturbator, cfg,
                    rng_for=lambda pos: stream_rng(2, doc.id, pos),
                    target=pred.predict(doc))
                rounds += sum(d.samples_used // cfg.batch_size for d in decisions)
            assert len(keeps) == (rounds if per_token else 0)
            assert all(len(keep) == 1 for keep in keeps)


class TestOneHalfWidthPerRound:
    """The round loop takes one Hoeffding half-width per round, and decides
    as a test of each token alone that calls ``confidence_bounds`` after
    every batch, over random confidence levels, batch sizes and budgets."""

    def test_equals_confidence_bounds_after_every_batch(self, trained_pair):
        corpus, clf, pool = trained_pair
        coin_doc = Document.from_text("c", "a b c d e f g")
        r = np.random.default_rng(23)
        seen = set()
        for trial in range(120):
            batch_size = int(r.integers(1, 16))
            # a budget that is not a multiple of the batch ends mid-batch
            max_samples = int(r.integers(1, 90))
            cfg = AnchorConfig(tau=float(r.choice([0.5, 0.8, 0.95, 1.0])),
                               delta=float(r.uniform(0.001, 0.99)),
                               batch_size=batch_size, max_samples=max_samples)
            if trial % 2:
                doc, pred, pert = coin_doc, FlipWordPredictor(), CoinPerturbator(
                    float(r.choice([0.3, 0.7, 0.9, 0.97, 1.0])))
            else:
                doc, pred, pert = corpus.documents[trial // 2 % len(corpus)], clf, pool
            rng_for = lambda pos: stream_rng(trial, "half-width", pos)
            target = pred.predict(doc)
            decisions = anchors_of_document(doc, pred, pert, cfg, rng_for, target=target)
            for pos, d in enumerate(decisions):
                assert (d.is_anchor, d.successes, d.samples_used) == \
                    sequential_test_by_token(doc, pos, pred, pert, cfg, rng_for(pos),
                                             pred.class_index(target),
                                             bounds=confidence_bounds)
                budget = d.samples_used == max_samples
                seen.add((d.is_anchor, budget))
                if budget and max_samples % batch_size:
                    seen.add("budget ends mid-batch")
        assert {(True, False), (False, False), (True, True), (False, True),
                "budget ends mid-batch"} <= seen


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


class WordRows(Predictor):
    """Scores only words, and records every row it is given."""

    def __init__(self, base):
        self.base = base
        self.rows = []

    @property
    def classes_(self):
        return self.base.classes_

    def predict_proba_many(self, docs):
        self.rows += docs
        return self.base.predict_proba_many(docs)


class BatchOnly(Perturbator):
    """Forwards only ``sample_batch``."""

    def __init__(self, base):
        self.base = base

    def sample_batch(self, doc, keep, n, rng):
        return self.base.sample_batch(doc, keep, n, rng)


class TestWaves:
    """A wave of documents tested together gets each document's decisions as
    testing it alone does: its tokens draw from their own streams, and rows
    of shorter documents are padded with the predictor's pad."""

    @staticmethod
    def _wave(corpus):
        """Documents of mixed lengths, two of one word (one of them out of
        the model's vocabulary) and one whose every word is skipped."""
        docs = list(corpus.documents[:9])
        return [*docs[:3], Document.from_text("solo", docs[0].words[0]), *docs[3:6],
                Document.from_text("oov", "zzunseen"), Document.from_text("skips", "a b"),
                *docs[6:]]

    @staticmethod
    def _check(docs, pred, pert, cfg, skip):
        streams = [lambda pos, d=d: stream_rng(8, "wave", d.id, pos) for d in docs]
        targets = pred.predict_many(docs)
        wave = list(anchors_of_documents(docs, pred, pert, cfg, streams, skip,
                                         targets=targets))
        assert wave == [anchors_of_document(d, pred, pert, cfg, rng_for, skip, target=t)
                        for d, rng_for, t in zip(docs, streams, targets)]
        return wave, targets

    @pytest.mark.parametrize("wrap", [lambda clf: clf, StringOnly])
    @pytest.mark.parametrize("kernel", [True, False])
    def test_equals_each_document_alone(self, trained_pair, wrap, kernel):
        corpus, clf, pool = trained_pair
        docs = self._wave(corpus)
        assert len({len(d.words) for d in docs}) > 3
        # a perturbator without the kernel draws through ``sample_batch``, as
        # the benchmark's tracer does
        pert = pool if kernel else BatchOnly(pool)
        cfg = AnchorConfig(tau=0.8, delta=0.3, max_samples=40)
        skip = lambda w: len(w) < 2
        wave, targets = self._check(docs, wrap(clf), pert, cfg, skip)
        assert len(set(targets)) == 2
        sampled = [d for decisions in wave for d in decisions if d.samples_used]
        assert {d.is_anchor for d in sampled} == {True, False}
        assert len({d.samples_used for d in sampled}) > 1
        assert wave[docs.index(next(d for d in docs if d.id == "skips"))] == [
            AnchorDecision("a", 0, False, 0, 0), AnchorDecision("b", 1, False, 0, 0)]

    def test_words_only_predictor_never_sees_the_pad(self, trained_pair):
        corpus, clf, pool = trained_pair
        docs = self._wave(corpus)
        pred = WordRows(clf)
        self._check(docs, pred, pool, AnchorConfig(max_samples=30), None)
        lengths = {len(d.words) for d in docs}
        assert pred.rows and all(None not in row for row in pred.rows)
        assert {len(row) for row in pred.rows} == lengths

    def test_empty_document_yields_no_decisions(self, trained_pair):
        """An empty document between others yields ``[]``, draws nothing from
        its stream and reaches no sampler; the others get their decisions."""
        corpus, clf, pool = trained_pair
        first, second = corpus.documents[:2]
        streams = [lambda pos, d=d: stream_rng(0, d.id, pos) for d in (first, second)]
        pert, cfg = SamplerRecorder(pool), AnchorConfig(max_samples=30)
        decided = list(anchors_of_documents(
            [first, Document(id="e", words=(), raw_text=""), second], clf, pert, cfg,
            [streams[0], undrawn, streams[1]], targets=["pos"] * 3))
        assert decided[1] == []
        assert [decided[0], decided[2]] == [
            anchors_of_document(d, clf, pool, cfg, rng_for, target="pos")
            for d, rng_for in zip((first, second), streams)]
        assert [d for wave in pert.waves for d in wave] == [first.id, second.id]

    def test_mismatched_lengths_raise_before_any_call(self, trained_pair):
        corpus, clf, pool = trained_pair
        docs = corpus.documents[:2]
        pred, pert = RowRecorder(clf), SamplerRecorder(pool)
        for n_streams, n_targets in ((1, 2), (2, 1), (3, 3)):
            decided = anchors_of_documents(docs, pred, pert, AnchorConfig(),
                                           [undrawn] * n_streams,
                                           targets=["pos"] * n_targets)
            with pytest.raises(ValueError, match="2 documents"):
                next(decided)
        assert pred.calls == [] and pert.waves == []

    @staticmethod
    def _two_document_first_wave(corpus, cfg, monkeypatch):
        """Six documents, with ``WAVE_ROWS`` set so that the first wave holds
        the first two, and two more waves follow."""
        from anchoragg import anchor

        docs = corpus.documents[:6]
        monkeypatch.setattr(anchor, "WAVE_ROWS",
                            cfg.batch_size * (len(docs[0].words) + len(docs[1].words)))
        waves = list(document_waves(docs, cfg))
        assert len(waves[0]) == 2 and len(waves) > 2
        return docs, [lambda pos, d=d: stream_rng(5, d.id, pos) for d in docs]

    def test_stopping_early_tests_no_later_wave(self, trained_pair, monkeypatch):
        corpus, clf, pool = trained_pair
        cfg = AnchorConfig(max_samples=30)
        docs, streams = self._two_document_first_wave(corpus, cfg, monkeypatch)
        pred, pert = RowRecorder(clf), SamplerRecorder(pool)
        decided = anchors_of_documents(docs, pred, pert, cfg, streams,
                                       targets=clf.predict_many(docs))
        assert pred.calls == [] and pert.waves == []
        first = [next(decided), next(decided)]
        assert pert.waves == [[docs[0].id, docs[1].id]]
        assert sum(n for _, n in pred.calls) == sum(
            d.samples_used for decisions in first for d in decisions)
        next(decided)
        assert len(pert.waves) == 2

    def test_skip_word_is_read_at_each_wave_start(self, trained_pair, monkeypatch):
        """Words skipped once a wave's first document is yielded are still
        sampled in the rest of that wave, and skipped from the next wave on."""
        corpus, clf, pool = trained_pair
        cfg = AnchorConfig(max_samples=30)
        docs, streams = self._two_document_first_wave(corpus, cfg, monkeypatch)
        targets = clf.predict_many(docs)
        skipped = set()
        skip = lambda w: w in skipped
        decided = anchors_of_documents(docs, clf, pool, cfg, streams, skip,
                                       targets=targets)
        got = [next(decided)]
        skipped.update(docs[1].words)
        got += list(decided)

        def alone(skip_word):
            return [anchors_of_document(d, clf, pool, cfg, rng_for, skip_word, target=t)
                    for d, rng_for, t in zip(docs, streams, targets)]

        unskipped, later_skipped = alone(None), alone(skip)
        assert got[:2] == unskipped[:2]
        assert all(d.samples_used for d in got[1])
        assert got[2:] == later_skipped[2:] != unskipped[2:]

    def test_a_wave_is_cut_when_it_is_reached(self, monkeypatch):
        """The skip predicate in force when a wave is reached sizes it: a word
        skipped after the first wave shrinks a later document's rows, so the
        next wave holds one more document."""
        from anchoragg import anchor

        monkeypatch.setattr(anchor, "WAVE_ROWS", 30)
        docs = [Document.from_text(i, text)
                for i, text in (("0", "a b"), ("1", "c"), ("2", "x y"), ("3", "x z"))]
        pert, skipped = SamplerRecorder(CoinPerturbator(1.0)), set()
        decided = anchors_of_documents(
            docs, ConstantPredictor(), pert, AnchorConfig(batch_size=10, max_samples=10),
            [lambda pos, d=d: stream_rng(0, d.id, pos) for d in docs],
            lambda w: w in skipped, targets=["pos"] * len(docs))
        next(decided)
        skipped.add("x")
        list(decided)
        assert pert.waves == [["0", "1"], ["2", "3"]]

    def test_waves_are_consecutive_runs_within_the_row_bound(self):
        r = np.random.default_rng(4)
        docs = [Document.from_text(str(i), " ".join(["w"] * int(m)))
                for i, m in enumerate(r.integers(1, 60, 200))]
        docs.insert(50, Document.from_text("long", " ".join(["x"] * 200)))
        for cfg, skip in ((AnchorConfig(), None),
                          (AnchorConfig(batch_size=7, max_samples=5), None),
                          (AnchorConfig(), lambda w: w == "x")):
            first = min(cfg.batch_size, cfg.max_samples)
            rows = lambda d: first * sum(1 for w in d.words
                                         if skip is None or not skip(w))
            waves = list(document_waves(docs, cfg, skip))
            assert [d for wave in waves for d in wave] == docs
            for wave, following in zip(waves, waves[1:] + [[]]):
                total = sum(map(rows, wave))
                assert total <= WAVE_ROWS or len(wave) == 1
                # a wave ends only where the next document would not fit
                if following:
                    assert total + rows(following[0]) > WAVE_ROWS
            assert any(len(wave) > 1 for wave in waves)
