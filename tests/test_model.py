import json

import numpy as np
import pytest

from anchoragg.corpus import Document
from anchoragg.model import (BowClassifier, CachingPredictor, CountingPredictor,
                             Predictor, accuracy, load_model, save_model,
                             train_bow)

from conftest import make_corpus
from oracles import bow_proba_by_loop, gd_steps_by_hand


def separable_corpus():
    rows = []
    for i in range(6):
        rows.append((f"p{i}", "good good fine", "pos"))
        rows.append((f"n{i}", "bad bad awful", "neg"))
    return make_corpus(rows)


class TestTraining:
    def test_gd_steps_match_hand_computation(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=3, learning_rate=0.2, l2=1e-3, seed=0)
        # rebuild the count matrix in vocabulary order and replay GD by hand
        vocab = clf.vocabulary_
        X = np.zeros((len(corpus), len(vocab)))
        y_idx = np.zeros(len(corpus), dtype=int)
        for r, doc in enumerate(corpus):
            for w in doc.words:
                X[r, vocab.index(w)] += 1
            y_idx[r] = clf.classes_.index(corpus.labels[doc.id])
        W, b = gd_steps_by_hand(X, y_idx, len(clf.classes_), lr=0.2, l2=1e-3,
                                epochs=3)
        np.testing.assert_allclose(clf.weights_, W, atol=1e-12)
        np.testing.assert_allclose(clf.bias_, b, atol=1e-12)

    def test_separable_reaches_full_accuracy(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=300, learning_rate=0.3, seed=0)
        assert accuracy(clf, corpus) == 1.0

    def test_loss_non_increasing_in_stable_regime(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=200, learning_rate=0.05, seed=0)
        diffs = np.diff(clf.losses_)
        assert np.all(diffs <= 1e-9)

    def test_deterministic_given_seed(self):
        corpus = separable_corpus()
        a = train_bow(corpus, epochs=50, learning_rate=0.2, seed=5)
        b = train_bow(corpus, epochs=50, learning_rate=0.2, seed=5)
        np.testing.assert_array_equal(a.weights_, b.weights_)
        np.testing.assert_array_equal(a.bias_, b.bias_)

    def test_single_class_rejected(self):
        corpus = make_corpus([("0", "hi", "only"), ("1", "ho", "only")])
        with pytest.raises(ValueError, match="2 classes"):
            train_bow(corpus)

    def test_validation_checkpoint_selection(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=80, learning_rate=0.2, seed=3,
                        val_fraction=0.25)
        assert 0 <= clf.best_epoch_ < 80
        assert accuracy(clf, corpus) == 1.0


class TestPrediction:
    def test_zero_weights_uniform(self):
        clf = train_bow(separable_corpus(), epochs=1, learning_rate=0.0)
        probs = clf.predict_proba_words(["good"])
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_probabilities_sum_to_one(self):
        clf = train_bow(separable_corpus(), epochs=100, learning_rate=0.3)
        for words in (["good"], ["bad", "awful"], ["unseen"], []):
            assert abs(clf.predict_proba_words(words).sum() - 1.0) <= 1e-6

    def test_empty_document_uses_bias_only(self):
        clf = train_bow(separable_corpus(), epochs=100, learning_rate=0.3)
        np.testing.assert_allclose(clf.predict_proba_words([]),
                                   clf.predict_proba_words(["zzz-unseen"]),
                                   atol=1e-12)

    def test_argmax_and_tie_break(self):
        clf = BowClassifier()
        clf.classes_ = ("a", "b", "c")
        clf.vocabulary_ = ("w",)
        clf._vocab_index_ = {"w": 0}
        clf.weights_ = np.zeros((1, 3))
        clf.bias_ = np.array([0.0, 0.0, 0.0])
        assert clf.predict_words(["w"]) == "a"  # exact tie -> lowest index
        clf.bias_ = np.array([0.1, 0.3, 0.2])
        assert clf.predict_words(["w"]) == "b"
        clf.bias_ = np.array([0.2, 0.3, 0.5])
        assert clf.predict_words(["w"]) == "c"

    def test_weight_scaling_preserves_argmax(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=100, learning_rate=0.3)
        before = [clf.predict(d) for d in corpus]
        clf.weights_ = clf.weights_ * 3.7
        clf.bias_ = clf.bias_ * 3.7
        assert [clf.predict(d) for d in corpus] == before

    def test_pure_function_of_tokens(self):
        clf = train_bow(separable_corpus(), epochs=50, learning_rate=0.2)
        d1 = Document.from_text("x", "good fine")
        d2 = Document.from_text("y", "good fine")
        np.testing.assert_array_equal(clf.predict_proba(d1), clf.predict_proba(d2))


class TestBatchedScoring:
    @staticmethod
    def _random_model(rng, n_classes, n_words):
        clf = BowClassifier()
        clf.classes_ = tuple(f"c{i}" for i in range(n_classes))
        clf.vocabulary_ = tuple(f"w{j}" for j in range(n_words))
        clf._vocab_index_ = {w: j for j, w in enumerate(clf.vocabulary_)}
        # weights over six orders of magnitude, so the sum order shows
        scale = 10.0 ** rng.uniform(-3, 3, size=(n_words, 1))
        clf.weights_ = rng.normal(size=(n_words, n_classes)) * scale
        clf.bias_ = rng.normal(size=n_classes)
        return clf

    @staticmethod
    def _random_doc(rng, clf, length):
        return tuple(clf.vocabulary_[j] if rng.random() < 0.8 else f"oov{j}"
                     for j in rng.integers(0, len(clf.vocabulary_), length))

    def test_many_equals_word_by_word_loop(self):
        for seed in range(200):
            rng = np.random.default_rng(seed)
            clf = self._random_model(rng, int(rng.integers(2, 8)),
                                     int(rng.integers(1, 40)))
            # mixed lengths 0..60 in one call
            docs = [self._random_doc(rng, clf, int(rng.integers(0, 61)))
                    for _ in range(int(rng.integers(1, 25)))]
            expected = np.stack([bow_proba_by_loop(clf, d) for d in docs])
            assert np.array_equal(clf.predict_proba_many(docs), expected)
            assert np.array_equal(
                np.stack([clf.predict_proba_words(d) for d in docs]), expected)

    def test_empty_batch(self):
        clf = train_bow(separable_corpus(), epochs=10)
        assert clf.predict_proba_many([]).shape == (0, 2)


class TestAccuracy:
    def test_perfect(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=300, learning_rate=0.3)
        assert accuracy(clf, corpus) == 1.0

    def test_constant_on_balanced(self):
        corpus = separable_corpus()
        from conftest import ConstantPredictor

        assert accuracy(ConstantPredictor(("neg", "pos"), "pos"), corpus) == 0.5

    def test_empty_corpus_rejected(self):
        from anchoragg.corpus import Corpus

        clf = train_bow(separable_corpus(), epochs=10)
        with pytest.raises(ValueError):
            accuracy(clf, Corpus(documents=(), labels={}, classes=()))


class TestModelFile:
    def test_roundtrip(self, tmp_path):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=60, learning_rate=0.2, seed=1)
        path = tmp_path / "model.json"
        save_model(clf, path)
        loaded = load_model(path)
        np.testing.assert_array_equal(loaded.weights_, clf.weights_)
        assert loaded.classes_ == clf.classes_
        for doc in corpus:
            np.testing.assert_allclose(loaded.predict_proba(doc),
                                       clf.predict_proba(doc), atol=1e-15)

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="format version"):
            load_model(path)


class TestWrappers:
    def test_counting(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=10)
        counting = CountingPredictor(clf)
        counting.predict_proba_words(["good"])
        counting.predict_proba_many([["a"], ["b"], ["c"]])
        assert counting.calls == 4

    def test_caching_sends_distinct_misses_in_one_call(self):
        clf = train_bow(separable_corpus(), epochs=10)
        calls = []

        class Recording(Predictor):
            classes_ = clf.classes_

            def predict_proba_many(self, docs):
                calls.append([tuple(d) for d in docs])
                return clf.predict_proba_many(docs)

        cached = CachingPredictor(Recording())
        cached.predict_proba_words(["good"])
        docs = [["good"], ["bad"], ["fine"], ["bad"], ["good"]]
        got = cached.predict_proba_many(docs)
        assert calls == [[("good",)], [("bad",), ("fine",)]]
        assert np.array_equal(got, clf.predict_proba_many(docs))
        cached.predict_proba_many(docs)
        assert len(calls) == 2

    def test_caching_suppresses_repeat_calls(self):
        clf = train_bow(separable_corpus(), epochs=10)
        counting = CountingPredictor(clf)
        cached = CachingPredictor(counting)
        for _ in range(5):
            cached.predict_proba_words(["good", "fine"])
        assert counting.calls == 1
