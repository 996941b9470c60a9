import numpy as np
import pytest

from anchoragg.corpus import Document
from anchoragg.eval import (TermList, aopc_k, append_drop, quality_timeline,
                            remove_prefix, shared_terms_ratio,
                            write_timeline_csv)
from anchoragg.model import CachingPredictor, Predictor, train_bow

from conftest import make_corpus
from oracles import aopc_by_document


def terms(words, start=1.0):
    return TermList.from_pairs("pos", "test",
                               [(w, start - i * 0.1) for i, w in enumerate(words)])


class TestTermList:
    def test_sorted_and_ties_recorded(self):
        tl = TermList.from_pairs("pos", "x", [("b", 0.5), ("a", 0.5), ("c", 0.9)])
        assert tl.words == ("c", "a", "b")
        assert tl.ties == (("a", "b"),)

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            TermList("pos", "x", items=(("a", 0.1), ("b", 0.9)))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            TermList.from_pairs("pos", "x", [("a", 0.5), ("a", 0.4)])

    def test_json_round_trip(self, tmp_path):
        tl = terms(["alpha", "beta", "gamma"])
        path = tmp_path / "terms.json"
        tl.save(path)
        loaded = TermList.load(path)
        assert loaded == tl

    def test_malformed_payload(self):
        with pytest.raises(ValueError):
            TermList.from_json({"nope": []})


class TestRemovePrefix:
    DOC = Document.from_text("0", "great fun great ride")

    def test_zero_prefix_identity(self):
        assert remove_prefix(self.DOC, terms(["great"]), 0) is self.DOC

    def test_removes_all_occurrences(self):
        out = remove_prefix(self.DOC, terms(["great", "ride"]), 1)
        assert out.words == ("fun", "ride")

    def test_full_cover_empties_document(self):
        out = remove_prefix(self.DOC, terms(["great", "fun", "ride"]), 3)
        assert out.words == ()

    def test_positions_reindexed(self):
        out = remove_prefix(self.DOC, terms(["great"]), 1)
        assert [t.position for t in out.tokens] == [0, 1]

    def test_idempotent_for_fixed_prefix(self):
        tl = terms(["great", "fun"])
        once = remove_prefix(self.DOC, tl, 2)
        twice = remove_prefix(once, tl, 2)
        assert once.words == twice.words

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            remove_prefix(self.DOC, terms(["great"]), 2)


class DropPredictor(Predictor):
    """pos probability falls by 0.2 for each 'key' occurrence removed."""

    def __init__(self):
        self.classes_ = ("neg", "pos")

    def predict_proba_words(self, words):
        p = 0.95 - 0.2 * (2 - min(2, list(words).count("key")))
        return np.array([1 - p, p])


class TestAopc:
    def test_ignored_words_give_zero(self):
        corpus = make_corpus([("0", "some words here", "pos"),
                              ("1", "other words too", "pos")])
        clf = train_bow(make_corpus([("a", "some words here", "pos"),
                                     ("b", "other words too", "neg")]),
                        epochs=50, learning_rate=0.2)
        tl = terms(["zzz", "qqq"])  # outside the model vocabulary
        result = aopc_k(tl, corpus, CachingPredictor(clf), clf.predict(corpus.documents[0]))
        assert abs(result.value) <= 1e-9

    def test_hand_computed_single_doc(self):
        # k=1, one document, removal drops the class probability by 0.4
        class OneDrop(Predictor):
            classes_ = ("neg", "pos")

            def predict_proba_words(self, words):
                p = 0.9 if "key" in words else 0.5
                return np.array([1 - p, p])

        corpus = make_corpus([("0", "key filler", "pos")])
        result = aopc_k(terms(["key"]), corpus, OneDrop(), "pos")
        assert result.value == pytest.approx(0.4 / 2)

    def test_negative_contributions_allowed(self):
        class Riser(Predictor):
            classes_ = ("neg", "pos")

            def predict_proba_words(self, words):
                p = 0.6 if "key" in words else 0.8
                return np.array([1 - p, p])

        corpus = make_corpus([("0", "key filler", "pos")])
        result = aopc_k(terms(["key"]), corpus, Riser(), "pos")
        assert result.value < 0

    def test_non_intersecting_documents_stay_in_average(self):
        corpus = make_corpus([("0", "key other", "pos"), ("1", "plain text", "pos")])
        pred = DropPredictor()
        result = aopc_k(terms(["key"]), corpus, pred, "pos")
        # only doc 0 contributes, averaged over both documents
        assert result.documents == 2
        solo = aopc_k(terms(["key"]),
                      make_corpus([("0", "key other", "pos")]), pred, "pos")
        assert result.value == pytest.approx(solo.value / 2)

    def test_permutation_invariance(self):
        rows = [("a", "key word one", "pos"), ("b", "two key words", "pos"),
                ("c", "three more here", "pos")]
        pred = DropPredictor()
        v1 = aopc_k(terms(["key"]), make_corpus(rows), pred, "pos").value
        v2 = aopc_k(terms(["key"]), make_corpus(rows[::-1]), pred, "pos").value
        assert v1 == pytest.approx(v2)

    def test_prefix_consistency(self):
        corpus = make_corpus([("0", "key note pad", "pos"),
                              ("1", "note key pad", "pos")])
        pred = DropPredictor()
        full = aopc_k(terms(["key", "note", "pad"]), corpus, pred, "pos")
        short = aopc_k(terms(["key", "note"]), corpus, pred, "pos")
        np.testing.assert_allclose(full.per_prefix[:2], short.per_prefix)


    def test_equals_per_document_scoring(self, planted200):
        corpus, truth, clf = planted200
        words = list(truth.signal["pos"][:6]) + ["the", "zz-unseen"]
        tl = TermList.from_pairs("pos", "test",
                                 [(w, 1.0 - i / 10) for i, w in enumerate(words)])
        result = aopc_k(tl, corpus, clf, "pos")
        assert np.array_equal(result.per_prefix,
                              aopc_by_document(tl.words, corpus, clf, "pos"))

    def test_external_requests_follow_batch_size(self, tmp_path):
        import math
        import sys

        from anchoragg.model import ExternalPredictorClient

        script = tmp_path / "counting.py"
        script.write_text(
            "import json, sys\n"
            "for line in sys.stdin:\n"
            "    texts = json.loads(line)['texts']\n"
            "    with open(sys.argv[1], 'a') as log:\n"
            "        log.write(f'{len(texts)}\\n')\n"
            "    probs = [[0.1, 0.9] if 'key' in t else [0.4, 0.6] for t in texts]\n"
            "    print(json.dumps({'probs': probs, 'classes': ['neg', 'pos']}),"
            " flush=True)\n")
        log = tmp_path / "requests.log"
        corpus = make_corpus([(str(i), "key note" if i % 3 else "plain text", "pos")
                              for i in range(23)])
        client = ExternalPredictorClient(
            command=[sys.executable, str(script), str(log)], batch_size=4)
        try:
            result = aopc_k(terms(["key", "note"]), corpus, client, "pos")
        finally:
            client.close()
        sizes = [int(n) for n in log.read_text().split()]
        touched_rows = sum(1 for i in range(23) if i % 3) * 3
        assert sizes[:math.ceil(23 / 4)] == [4] * 5 + [3]
        assert len(sizes) == math.ceil(23 / 4) + math.ceil(touched_rows / 4)
        assert sum(sizes) == 23 + touched_rows
        assert result.documents == 23


class TestSharedTerms:
    def test_identical(self):
        assert shared_terms_ratio(terms(["a", "b"]), terms(["a", "b"])) == 1.0

    def test_disjoint(self):
        assert shared_terms_ratio(terms(["a", "b"]), terms(["c", "d"])) == 0.0

    def test_partial_overlap(self):
        a = terms([f"w{i}" for i in range(20)])
        b = terms([f"w{i}" for i in range(4, 24)])
        assert shared_terms_ratio(a, b) == pytest.approx(0.8)

    def test_symmetry(self):
        a, b = terms(["a", "b", "c"]), terms(["c", "d", "e"])
        assert shared_terms_ratio(a, b) == shared_terms_ratio(b, a)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            shared_terms_ratio(terms(["a"]), terms(["a", "b"]))


class TestAppendDrop:
    def _trained(self):
        rows = []
        for i in range(8):
            rows.append((f"p{i}", "happy joy", "pos"))
            rows.append((f"n{i}", "sad gloom", "neg"))
        corpus = make_corpus(rows)
        clf = train_bow(corpus, epochs=400, learning_rate=0.3, seed=0)
        return corpus, clf

    def test_unknown_words_no_drop(self):
        corpus, clf = self._trained()
        result = append_drop(corpus, clf, "zzz qqq", "pos")
        assert result.drop_points == pytest.approx(0.0)
        assert result.accuracy_before == 1.0

    def test_planted_word_collapses_opposite_label(self):
        corpus, clf = self._trained()
        # appending strong positive words to the negative documents flips
        # exactly those 8 of 16 documents
        result = append_drop(corpus, clf, "happy joy happy joy happy joy", "pos")
        assert result.accuracy_before == 1.0
        assert result.accuracy_after == pytest.approx(0.5)
        assert result.drop_points == pytest.approx(50.0)

    def test_no_opposite_documents(self):
        rows = [(f"p{i}", "happy joy", "pos") for i in range(4)]
        rows += [("n0", "sad gloom", "neg")]
        corpus = make_corpus(rows)
        clf = train_bow(corpus, epochs=200, learning_rate=0.3)
        only_pos = make_corpus([(f"p{i}", "happy joy", "pos") for i in range(4)])
        result = append_drop(only_pos, clf, "sad", "pos")
        # every document already carries the target label: nothing changes?
        # no: docs with label != pos get the text; there are none here
        assert result.accuracy_before == result.accuracy_after

    def test_empty_sentence_rejected(self):
        corpus, clf = self._trained()
        with pytest.raises(ValueError):
            append_drop(corpus, clf, "...", "pos")

    def test_truncation_mode(self):
        corpus, clf = self._trained()
        result = append_drop(corpus, clf, "sad " * 50, "pos", max_chars=12)
        assert isinstance(result.drop_points, float)


class TestQualityTimeline:
    def test_rows_match_snapshots(self):
        corpus = make_corpus([("0", "key pad", "pos"), ("1", "key note", "pos")])
        snaps = [
            {"t_sec": 0.5, "calls": 10, "doc_index": 1,
             "topk": [{"word": "key", "score": 1.0}]},
            {"t_sec": 1.5, "calls": 30, "doc_index": 2,
             "topk": [{"word": "key", "score": 1.2}]},
        ]
        rows = quality_timeline(snaps, corpus, DropPredictor(), "pos")
        assert len(rows) == 2
        assert rows[0][0] == 0.5 and rows[0][1] == 10
        assert rows[0][2] == pytest.approx(rows[1][2])

    def test_empty_log(self):
        corpus = make_corpus([("0", "key pad", "pos")])
        assert quality_timeline([], corpus, DropPredictor(), "pos") == []

    def test_csv_output(self, tmp_path):
        path = tmp_path / "timeline.csv"
        with open(path, "w") as handle:
            write_timeline_csv(handle, [(0.1, 5, 0.25)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_sec,calls,aopc"
        assert lines[1].startswith("0.1")


class TestAppendDropOppositeSet:
    def test_empty_opposite_set_changes_nothing(self):
        corpus = make_corpus([("p0", "happy joy", "pos"), ("n0", "sad gloom", "neg")])
        clf = train_bow(corpus, epochs=200, learning_rate=0.3)
        result = append_drop(corpus, clf, "sad", "pos", opposite_labels=())
        assert result.accuracy_before == result.accuracy_after

    def test_explicit_opposite_selection(self):
        rows = [("a", "happy joy", "pos"), ("b", "sad gloom", "neg"),
                ("c", "flat words", "mid")]
        corpus = make_corpus(rows)
        clf = train_bow(corpus, epochs=300, learning_rate=0.4)
        result = append_drop(corpus, clf, "happy joy happy joy", "pos",
                             opposite_labels={"neg"})
        assert result.accuracy_after < result.accuracy_before

    def test_unknown_opposite_label(self):
        corpus = make_corpus([("a", "happy", "pos"), ("b", "sad", "neg")])
        clf = train_bow(corpus, epochs=50, learning_rate=0.2)
        with pytest.raises(ValueError, match="unknown opposite"):
            append_drop(corpus, clf, "word", "pos", opposite_labels={"zzz"})
