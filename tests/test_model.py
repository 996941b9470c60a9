import json
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from anchoragg.corpus import Document
from anchoragg.model import (BowClassifier, CachingPredictor, ExternalPredictorClient,
                             Predictor, _softmax, accuracy, load_model, pad_rows,
                             save_model, train_bow)

from conftest import make_corpus
from oracles import (bow_fit_with_scipy, bow_logits_by_column, bow_proba_by_loop,
                     gd_steps_by_hand)
from test_external import PREDICTOR_SCRIPT


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

    @staticmethod
    @st.composite
    def _training_sets(draw):
        """Documents with repeated words (some empty), labels of 2 or 3
        classes, and a split of no, some, or all but one validation rows."""
        n_docs = draw(st.integers(2, 12))
        classes = ["a", "b", "c"][:draw(st.integers(2, 3))]
        words = st.lists(st.sampled_from([f"w{j}" for j in range(10)]), max_size=9)
        docs = draw(st.lists(words, min_size=n_docs, max_size=n_docs))
        labels = draw(st.lists(st.sampled_from(classes), min_size=n_docs,
                               max_size=n_docs).filter(lambda ls: len(set(ls)) > 1))
        params = {
            "epochs": draw(st.integers(1, 150)),
            "learning_rate": draw(st.sampled_from([0.05, 0.3, 1.0])),
            "l2": draw(st.sampled_from([0.0, 5e-4, 1e-2])),
            "seed": draw(st.integers(0, 2**32 - 1)),
            # the last: one training document
            "val_fraction": draw(st.sampled_from([0.0, 0.25, 0.5,
                                                  (n_docs - 0.5) / n_docs])),
        }
        return docs, labels, params

    @given(_training_sets())
    @settings(max_examples=120, deadline=None)
    def test_bit_identical_to_scipy_trainer(self, case):
        """The numpy kernels add in scipy's order: weights, bias, every
        epoch's loss and the kept epoch are equal byte for byte."""
        docs, labels, params = case
        clf = BowClassifier(**params).fit(docs, labels)
        W, b, losses, best_epoch = bow_fit_with_scipy(docs, labels, **params)
        assert clf.weights_.shape == W.shape and clf.weights_.tobytes() == W.tobytes()
        assert clf.bias_.tobytes() == b.tobytes()
        assert np.asarray(clf.losses_).tobytes() == np.asarray(losses).tobytes()
        assert clf.best_epoch_ == best_epoch

    def test_validation_checkpoint_selection(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=80, learning_rate=0.2, seed=3,
                        val_fraction=0.25)
        assert 0 <= clf.best_epoch_ < 80
        assert accuracy(clf, corpus) == 1.0


class TestParams:
    def test_fields_are_the_parameters(self):
        """The repr, ``get_params`` (and so ``model.json``'s hyperparams) and
        the constructor's signature list the same parameters, in order."""
        import inspect

        clf = BowClassifier()
        assert repr(clf) == ("BowClassifier(epochs=800, learning_rate=0.3, "
                             "l2=0.0005, seed=0, val_fraction=0.0)")
        assert list(clf.get_params().items()) == [
            ("epochs", 800), ("learning_rate", 0.3), ("l2", 5e-4), ("seed", 0),
            ("val_fraction", 0.0)]
        assert list(inspect.signature(BowClassifier).parameters) == list(clf.get_params())
        assert clf.classes_ is clf.weights_ is clf.best_epoch_ is None
        # estimators compare by identity
        assert clf != BowClassifier()
        with pytest.raises(ValueError, match="invalid parameter 'bogus' for BowClassifier"):
            clf.set_params(bogus=1)


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
        doc = Document.from_text("x", "w")
        assert clf.predict(doc) == "a"  # exact tie -> lowest index
        clf.bias_ = np.array([0.1, 0.3, 0.2])
        assert clf.predict(doc) == "b"
        clf.bias_ = np.array([0.2, 0.3, 0.5])
        assert clf.predict(doc) == "c"

    def test_weight_scaling_preserves_argmax(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=100, learning_rate=0.3)
        before = [clf.predict(d) for d in corpus]
        clf.weights_ = clf.weights_ * 3.7
        clf.bias_ = clf.bias_ * 3.7
        assert [clf.predict(d) for d in corpus] == before

    def test_reassigned_weights_take_effect(self):
        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=50, learning_rate=0.2)
        docs = [d.words for d in corpus] + [("good", "unseen")]
        before = clf.predict_proba_many(docs)
        clf.weights_ = np.random.default_rng(0).normal(size=clf.weights_.shape)
        expected = np.stack([bow_proba_by_loop(clf, d) for d in docs])
        assert not np.array_equal(before, expected)
        assert np.array_equal(clf.predict_proba_many(docs), expected)
        ids = clf.encode(docs[0])[None, :]
        assert np.array_equal(clf.predict_proba_ids(ids)[0], expected[0])

    def test_pure_function_of_tokens(self):
        clf = train_bow(separable_corpus(), epochs=50, learning_rate=0.2)
        d1 = Document.from_text("x", "good fine")
        d2 = Document.from_text("y", "good fine")
        np.testing.assert_array_equal(clf.predict_proba_words(d1.words),
                                      clf.predict_proba_words(d2.words))


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

    def test_ids_equal_word_by_word_loop(self):
        for seed in range(200):
            rng = np.random.default_rng(10**5 + seed)
            clf = self._random_model(rng, int(rng.integers(2, 8)),
                                     int(rng.integers(1, 40)))
            m = int(rng.integers(0, 61))
            docs = [self._random_doc(rng, clf, m)
                    for _ in range(int(rng.integers(1, 25)))]
            ids = np.stack([clf.encode(d) for d in docs])
            expected = np.stack([bow_proba_by_loop(clf, d) for d in docs])
            assert np.array_equal(clf.predict_proba_ids(ids), expected)
            empty = np.empty((0, m), dtype=np.intp)
            assert clf.predict_proba_ids(empty).shape == (0, len(clf.classes_))

    @given(st.integers(0, 2**32 - 1), st.integers(1, 12), st.integers(0, 30))
    @example(0, 1, 0)
    @example(1, 1, 1)
    @example(2, 7, 0)
    @example(3, 7, 1)
    @settings(max_examples=150, deadline=None)
    def test_logits_equal_column_by_column_sum(self, seed, n, m):
        rng = np.random.default_rng(seed)
        clf = self._random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 30)))
        # the last id is out of vocabulary
        ids = rng.integers(0, len(clf.vocabulary_) + 1, size=(n, m))
        expected = bow_logits_by_column(clf, ids)
        assert clf._logits(ids).tobytes() == expected.tobytes()
        assert clf.predict_proba_ids(ids).tobytes() == _softmax(expected).tobytes()

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(0, 30), min_size=1,
                                               max_size=12))
    @example(0, [0])
    @example(1, [5, 0, 2])
    @example(2, [0, 0, 1])
    @settings(max_examples=150, deadline=None)
    def test_ragged_batch_equals_column_by_column_sum(self, seed, lengths):
        """Rows padded with the out-of-vocabulary id score as each document
        alone, an empty document at its bias."""
        rng = np.random.default_rng(seed)
        clf = self._random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 30)))
        docs = [self._random_doc(rng, clf, length) for length in lengths]
        expected = np.concatenate(
            [_softmax(bow_logits_by_column(clf, clf.encode(d)[None, :])) for d in docs])
        assert clf.predict_proba_many(docs).tobytes() == expected.tobytes()

    @given(st.integers(0, 2**32 - 1), st.lists(st.integers(1, 30), min_size=1,
                                               max_size=12))
    @example(0, [1])
    @example(1, [5, 1, 2])
    @settings(max_examples=150, deadline=None)
    def test_pad_padded_ids_score_as_the_rows_alone(self, seed, lengths):
        """Rows ending in the pad, the out-of-vocabulary id, score as the
        rows without it, bit for bit, whatever the rows' own words: an
        out-of-vocabulary word at a row's end included."""
        rng = np.random.default_rng(seed)
        clf = self._random_model(rng, int(rng.integers(2, 5)), int(rng.integers(1, 30)))
        assert clf.pad == len(clf.vocabulary_)
        docs = [self._random_doc(rng, clf, length) for length in lengths]
        ids = pad_rows(clf.encode([w for d in docs for w in d]), lengths, clf.pad)
        assert ids.shape == (len(docs), max(lengths))
        alone = np.concatenate([clf.predict_proba_ids(clf.encode(d)[None, :])
                                for d in docs])
        assert clf.predict_proba_ids(ids).tobytes() == alone.tobytes()

    def test_encode_maps_oov_to_zero_row(self):
        clf = self._random_model(np.random.default_rng(1), 3, 5)
        ids = clf.encode(["w4", "unseen", "w0"])
        assert ids.dtype == np.intp and ids.tolist() == [4, 5, 0]
        assert clf.encode([]).shape == (0,)

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
            np.testing.assert_allclose(loaded.predict_proba_words(doc.words),
                                       clf.predict_proba_words(doc.words), atol=1e-15)

    def test_version_check(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({"format_version": 99}), encoding="utf-8")
        with pytest.raises(ValueError, match="format version"):
            load_model(path)

    @pytest.mark.parametrize("edit, message", [
        *[(lambda m, k=key: m.pop(k), f"model file lacks {key}")
          for key in ("classes", "vocabulary", "weights", "bias")],
        (lambda m: m["hyperparams"].update(bogus=1),
         "invalid parameter 'bogus' for BowClassifier"),
        (lambda m: m.update(bias=[0.0]), "bias shape does not match"),
        (lambda m: m.update(hyperparams=[1]), "hyperparams is not an object"),
        (lambda m: m.update(classes="".join(m["classes"])),
         "classes is not a list of distinct strings"),
        (lambda m: m["vocabulary"].__setitem__(1, m["vocabulary"][0]),
         "vocabulary is not a list of distinct strings"),
        (lambda m: m["weights"][0].__setitem__(0, float("nan")),
         "weights or bias are not finite"),
    ], ids=["no classes", "no vocabulary", "no weights", "no bias",
            "unknown hyperparameter", "short bias", "hyperparams a list",
            "classes a string", "repeated word", "NaN weight"])
    def test_malformed_file_names_the_fault(self, tmp_path, edit, message):
        path = tmp_path / "model.json"
        save_model(train_bow(separable_corpus(), epochs=5), path)
        payload = json.loads(path.read_text(encoding="utf-8"))
        edit(payload)
        path.write_text(json.dumps(payload), encoding="utf-8")
        with pytest.raises(ValueError, match=message):
            load_model(path)

    def test_pickle_roundtrip_predicts_the_same(self):
        import pickle

        corpus = separable_corpus()
        clf = train_bow(corpus, epochs=20)
        clone = pickle.loads(pickle.dumps(clf))
        docs = [d.words for d in corpus] + [("unseen", "words")]
        assert np.array_equal(clone.predict_proba_many(docs),
                              clf.predict_proba_many(docs))

    def test_file_not_an_object(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("[1]", encoding="utf-8")
        with pytest.raises(ValueError, match="must hold a JSON object"):
            load_model(path)


def good_share(words):
    """``(neg, pos)`` with ``pos`` growing with the share of "good" words;
    an empty row is an exact tie."""
    pos = (1 + list(words).count("good")) / (2 + len(words))
    return np.array([1 - pos, pos])


class TestPredictorDefaults:
    """A predictor implements ``predict_proba_many`` or
    ``predict_proba_words``; every other method follows from either."""

    DOCS = [Document.from_text(str(i), text) for i, text in
            enumerate(["good good fine", "bad good good", "", "bad bad", "good"])]

    class ManyOnly(Predictor):
        classes_ = ("neg", "pos")

        def predict_proba_many(self, docs):
            return np.array([good_share(w) for w in docs])

    class WordsOnly(Predictor):
        classes_ = ("neg", "pos")

        def predict_proba_words(self, words):
            return good_share(words)

    def test_batch_only_predictor_answers_every_method(self):
        predictor = self.ManyOnly()
        words = [d.words for d in self.DOCS]
        expected = np.array([good_share(w) for w in words])
        labels = ["pos", "pos", "neg", "neg", "pos"]  # the empty row ties: neg
        for doc, row, label in zip(self.DOCS, expected, labels):
            assert np.array_equal(predictor.predict_proba_words(doc.words), row)
            assert predictor.predict(doc) == label
        assert predictor.predict_many(self.DOCS) == labels
        rows = [w for w in words if len(w) == 3]
        ids = np.stack([predictor.encode(w) for w in rows])
        assert np.array_equal(predictor.predict_proba_ids(ids),
                              np.array([good_share(w) for w in rows]))

    def test_row_only_predictor_answers_batches(self):
        words = [d.words for d in self.DOCS]
        assert np.array_equal(self.WordsOnly().predict_proba_many(words),
                              self.ManyOnly().predict_proba_many(words))

    @pytest.mark.parametrize("kind", ["bow", "cached", "external"])
    def test_one_row_is_the_batch_of_one(self, kind, tmp_path):
        if kind == "external":
            script = tmp_path / "service.py"
            script.write_text(PREDICTOR_SCRIPT, encoding="utf-8")
            predictor = ExternalPredictorClient(command=[sys.executable, str(script)])
        else:
            predictor = train_bow(separable_corpus(), epochs=10)
            if kind == "cached":
                predictor = CachingPredictor(predictor)
        try:
            for doc in self.DOCS:
                assert np.array_equal(predictor.predict_proba_words(doc.words),
                                      predictor.predict_proba_many([doc.words])[0])
                assert predictor.predict(doc) == predictor.predict_many([doc])[0]
        finally:
            if kind == "external":
                predictor.close()


class TestWrappers:
    def test_ids_score_as_words_for_any_base(self):
        clf = train_bow(separable_corpus(), epochs=10)

        class WordsOnly(Predictor):
            classes_ = clf.classes_

            def predict_proba_many(self, docs):
                return clf.predict_proba_many(docs)

        words = ["good", "unseen"]
        expected = clf.predict_proba_many([words] * 3)
        # a word-only predictor's default ids are its words
        assert WordsOnly().encode(words).tolist() == words
        for base in (WordsOnly(), clf):
            ids = base.encode(words)
            assert np.array_equal(base.predict_proba_ids(np.stack([ids] * 3)),
                                  expected)

    def test_default_ids_drop_the_pad(self):
        """A predictor whose ids are its words pads with ``None``, and its
        ``predict_proba_ids`` hands ``predict_proba_many`` the rows without
        it."""
        clf = train_bow(separable_corpus(), epochs=10)
        seen = []

        class WordsOnly(Predictor):
            classes_ = clf.classes_

            def predict_proba_many(self, docs):
                seen.extend(docs)
                return clf.predict_proba_many(docs)

        rows = [("good", "fine", "bad"), ("bad",), ("good", "unseen")]
        predictor = WordsOnly()
        assert predictor.pad is None
        ids = pad_rows(predictor.encode([w for row in rows for w in row]),
                       [len(row) for row in rows], predictor.pad)
        assert ids.tolist() == [["good", "fine", "bad"], ["bad", None, None],
                                ["good", "unseen", None]]
        assert np.array_equal(predictor.predict_proba_ids(ids),
                              clf.predict_proba_many(rows))
        assert seen == rows

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
        rows = []

        class Recording(Predictor):
            classes_ = clf.classes_

            def predict_proba_many(self, docs):
                rows.extend(docs)
                return clf.predict_proba_many(docs)

        cached = CachingPredictor(Recording())
        for _ in range(5):
            cached.predict_proba_words(["good", "fine"])
        assert len(rows) == 1
