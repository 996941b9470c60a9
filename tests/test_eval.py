import numpy as np
import pytest

from anchoragg._aopc import AopcScorer
from anchoragg.corpus import Document
from anchoragg.eval import (TermList, aopc_k, quality_timeline,
                            remove_prefix, shared_terms_ratio,
                            write_timeline_csv)
from anchoragg.model import CachingPredictor, Predictor, train_bow

from conftest import RowRecorder, corpus_of, make_corpus
from oracles import aopc_by_document


def terms(words, start=1.0):
    return TermList.from_pairs("pos", "test",
                               [(w, start - i * 0.1) for i, w in enumerate(words)])


def with_long_document(corpus, truth, clf):
    """``corpus`` plus a ``pos`` document of 80 distinct words, each signal
    word twice; returns it with lists that reach past the document's 64th
    distinct word, permute one word set, or name only words in no document."""
    signal = list(truth.signal["pos"])
    fillers = [w for w in clf.vocabulary_ if w not in signal][:70]
    long_doc = Document.from_text("long", " ".join(signal * 2 + fillers))
    assert len(set(long_doc.words)) == 80 and clf.predict(long_doc) == "pos"
    corpus = corpus_of([*corpus, long_doc], {**corpus.labels, "long": "pos"})
    word_set = signal[:3] + fillers[60:63]
    lists = [fillers[50:70], signal[:2] + fillers[66:], ("zz-unseen", "qq-unseen"),
             word_set, word_set[::-1], word_set[3:] + word_set[:3]]
    return corpus, [tuple(ws) for ws in lists]


class TestTermList:
    def test_sorted_and_ties_recorded(self):
        tl = TermList.from_pairs("pos", "x", [("b", 0.5), ("a", 0.5), ("c", 0.9)])
        assert tl.words == ("c", "a", "b")

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
        for payload, message in [
                ({"nope": []}, "malformed term list payload"),
                ({"class": "pos", "terms": [{"word": 5, "score": 1.0}]},
                 "lists a word that is not a string"),
                ({"class": "pos", "terms": [{"word": 5, "score": 1.0},
                                            {"word": "a", "score": 1.0}]},
                 "lists a word that is not a string"),
                ({"class": "pos", "terms": [{"word": "a", "score": float("nan")}]},
                 "lists a score that is not finite"),
                ({"class": "pos", "terms": [{"word": "a", "score": float("inf")}]},
                 "lists a score that is not finite")]:
            with pytest.raises(ValueError, match=message):
                TermList.from_json(payload)


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
        assert list(enumerate(out.words)) == [(0, "fun"), (1, "ride")]

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
        words = tuple(truth.signal["pos"][:6]) + ("the", "zz-unseen")
        corpus, lists = with_long_document(corpus, truth, clf)
        class_docs = [d for d in corpus if clf.predict(d) == "pos"]

        class Recording(Predictor):
            classes_ = clf.classes_

            def predict_proba_many(self, docs):
                sent.append([tuple(d) for d in docs])
                return clf.predict_proba_many(docs)

        for ws in [words, words] + lists:
            tl = TermList.from_pairs("pos", "test",
                                     [(w, 1.0 - i / 100) for i, w in enumerate(ws)])
            sent = []
            result = aopc_k(tl, corpus, Recording(), "pos")
            assert np.array_equal(result.per_prefix,
                                  aopc_by_document(tl.words, corpus, clf, "pos"))
            # the corpus, then every removal row in one call, by document
            # and prefix
            rows = [remove_prefix(d, ws, i).words for d in class_docs
                    for i in range(1, len(ws) + 1) if ws[i - 1] in d.words]
            assert sent[1:] == ([rows] if rows else [])

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
        # the corpus once, then each of the 15 touched documents' two removal
        # rows; their base rows come from the corpus call
        touched_rows = sum(1 for i in range(23) if i % 3) * 2
        assert sizes[:math.ceil(23 / 4)] == [4] * 5 + [3]
        assert len(sizes) == math.ceil(23 / 4) + math.ceil(touched_rows / 4)
        assert sum(sizes) == 23 + touched_rows
        assert result.documents == 23


class TestBatchScorer:
    """``AopcScorer.aopc`` scores a batch of lists in one pass."""

    @staticmethod
    def _corpus_and_pool(planted200):
        """The corpus with a document of 80 distinct words and a two-word
        ``pos`` document that a list of both words empties; a word pool with
        words of no document; and lists that reach past the long document's
        64th distinct word."""
        corpus, truth, clf = planted200
        corpus, lists = with_long_document(corpus, truth, clf)
        signal = list(truth.signal["pos"])
        short = Document.from_text("short", " ".join(signal[:2]))
        assert clf.predict(short) == "pos"
        corpus = corpus_of([*corpus, short], {**corpus.labels, "short": "pos"})
        common = sorted({w for d in corpus.documents[:30] for w in d.words})
        pool = list(dict.fromkeys(signal + common[:40] + ["zz-unseen", "qq-unseen"]))
        return corpus, clf, pool, lists + [tuple(signal[:2])]

    @pytest.mark.parametrize("shared", [False, True], ids=["per-document", "by-text"])
    def test_random_batches_equal_per_document_scoring(self, planted200, shared):
        corpus, clf, pool, fixed = self._corpus_and_pool(planted200)
        rng = np.random.default_rng(11)
        scorer = AopcScorer(corpus, clf, "pos", cache={} if shared else None)
        for _ in range(3):  # later batches reuse the states scored before
            batch = [tuple(rng.choice(pool, size=int(rng.integers(1, 13)), replace=False))
                     for _ in range(10)]
            batch += [batch[0], batch[3]] + fixed  # repeated lists
            for words, result in zip(batch, scorer.aopc(batch), strict=True):
                per_prefix = aopc_by_document(words, corpus, clf, "pos")
                assert result.per_prefix == tuple(per_prefix.tolist())
                assert result.value == float(per_prefix.sum() / (len(words) + 1))
                assert result.documents == len([d for d in corpus if clf.predict(d) == "pos"])

    def test_texts_sent_once_in_first_appearance_order(self, planted200):
        corpus, clf, pool, fixed = self._corpus_and_pool(planted200)
        class_docs = [d for d in corpus if clf.predict(d) == "pos"]
        rng = np.random.default_rng(12)
        batches = [[tuple(rng.choice(pool, size=int(rng.integers(1, 9)), replace=False))
                    for _ in range(6)] + fixed for _ in range(2)]

        class Recording(Predictor):
            classes_ = clf.classes_

            def predict_proba_many(self, docs):
                sent.append([tuple(d) for d in docs])
                return clf.predict_proba_many(docs)

        # each text is sent once: the corpus's distinct documents, then each
        # batch's new removal rows
        sent, seen, empty_rows = [], {d.words for d in corpus}, 0
        scorer = AopcScorer(corpus, Recording(), "pos", cache={})
        assert scorer.rows == len(seen)
        for batch in batches:
            expected = []
            for words in batch:
                for doc in class_docs:
                    for i in range(1, len(words) + 1):
                        row = remove_prefix(doc, words, i).words
                        if words[i - 1] in doc.words and row not in seen:
                            seen.add(row)
                            expected.append(row)
            del sent[:]
            scorer.aopc(batch)
            # one call per batch, by list, then document, then prefix
            assert sent == ([expected] if expected else [])
            empty_rows += expected.count(())
        assert empty_rows == 1  # the short document without both its words
        assert scorer.rows == len(seen)


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
        class Refusing(DropPredictor):
            def predict_proba_words(self, words):
                raise AssertionError("a log without terms scores nothing")

        corpus = make_corpus([("0", "key pad", "pos")])
        assert quality_timeline([], corpus, DropPredictor(), "pos") == []
        empty = [{"t_sec": 0.1, "calls": 0, "doc_index": 1, "topk": []}] * 3
        assert quality_timeline(empty, corpus, Refusing(), "pos") == []

    @staticmethod
    def _snapshots(truth, corpus):
        """~30 lists with repeats, shared prefixes, OOV and stop words, and
        one empty ``topk``."""
        rng = np.random.default_rng(3)
        signal = list(truth.signal["pos"])
        common = sorted({w for d in corpus.documents[:20] for w in d.words})
        pool = list(dict.fromkeys(signal + common[:30]
                                  + ["the", "and", "zz-unseen", "qq-unseen"]))
        lists = [tuple(signal[:5]), tuple(signal[:5]), tuple(signal[:8]),
                 ("the", "zz-unseen"), ("zz-unseen",), (), tuple(signal[:5])]
        while len(lists) < 30:
            if rng.random() < 0.3:  # extend or cut an earlier list
                base = lists[int(rng.integers(len(lists)))]
                extra = [w for w in rng.permutation(pool) if w not in base]
                lists.append(base[:max(1, len(base) - 2)] + tuple(extra[:3]))
            else:
                size = int(rng.integers(1, 11))
                lists.append(tuple(rng.choice(pool, size=size, replace=False)))
        return [{"t_sec": 0.1 * n, "calls": 10 * n, "doc_index": n,
                 "topk": [{"word": w, "score": 1.0 - i / 20} for i, w in enumerate(ws)]}
                for n, ws in enumerate(lists)]

    def test_equals_per_snapshot_oracle(self, planted200):
        corpus, truth, clf = planted200
        snaps = self._snapshots(truth, corpus)
        corpus, lists = with_long_document(corpus, truth, clf)
        extra = lists + lists[:2]  # two lists evaluated twice
        snaps += [{"t_sec": 5.0 + n, "calls": 500 + n, "doc_index": 50 + n,
                   "topk": [{"word": w, "score": 1.0 - i / 100} for i, w in enumerate(ws)]}
                  for n, ws in enumerate(extra)]
        rows = quality_timeline(snaps, corpus, clf, "pos")
        expected = []
        for snap in snaps:
            words = [t["word"] for t in snap["topk"]]
            if words:
                per_prefix = aopc_by_document(words, corpus, clf, "pos")
                expected.append((snap["t_sec"], snap["calls"],
                                 float(per_prefix.sum() / (len(words) + 1))))
        assert len(rows) == 29 + len(extra)
        assert rows == expected

    def test_each_distinct_row_scored_once(self, planted200):
        corpus, truth, clf = planted200
        snaps = self._snapshots(truth, corpus)
        class_docs = [d for d in corpus if clf.predict(d) == "pos"]
        keys = set()
        for snap in snaps:
            words = [t["word"] for t in snap["topk"]]
            for doc in class_docs:
                for i in range(1, len(words) + 1):
                    removed = frozenset(words[:i]).intersection(doc.words)
                    if removed:
                        keys.add((doc.id, removed))
        once, twice = RowRecorder(clf), RowRecorder(clf)
        rows = quality_timeline(snaps, corpus, once, "pos")
        assert once.rows == len(corpus) + len(keys)
        assert quality_timeline(snaps + snaps, corpus, twice, "pos") == rows + rows
        assert twice.rows == once.rows

    def test_csv_output(self, tmp_path):
        path = tmp_path / "timeline.csv"
        with open(path, "w") as handle:
            write_timeline_csv(handle, [(0.1, 5, 0.25)])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t_sec,calls,aopc"
        assert lines[1].startswith("0.1")
