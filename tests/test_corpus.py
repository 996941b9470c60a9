import unicodedata
from importlib import resources

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchoragg.corpus import (Corpus, Document, default_stopwords,
                              filter_candidates, load_corpus, load_stopwords,
                              sample_documents, tokenize, word_stats,
                              word_totals)
from anchoragg.seeding import stream_rng

from conftest import make_corpus
from oracles import tokenize_by_loop


class TestTokenize:
    def test_whitespace_split(self):
        assert tokenize("My daughter got this") == ["my", "daughter", "got", "this"]

    def test_punctuation_strip_and_lowercase(self):
        assert tokenize("Great!") == ["great"]

    def test_empty(self):
        assert tokenize("") == []

    def test_inner_punctuation_kept(self):
        assert tokenize("don't stop-me (now)") == ["don't", "stop-me", "now"]

    def test_unicode_whitespace(self):
        assert tokenize("a b\tc\nd") == ["a", "b", "c", "d"]

    @given(st.text(max_size=80))
    @settings(max_examples=200, deadline=None)
    def test_idempotent_on_own_output(self, text):
        words = tokenize(text)
        assert tokenize(" ".join(words)) == words

    def test_no_alphanumeric_character_is_punctuation(self):
        """The tokenizer keeps a chunk whose first and last characters are
        alphanumeric as it is: no code point is both."""
        both = [c for c in range(0x110000) if chr(c).isalnum()
                and unicodedata.category(chr(c)).startswith("P")]
        assert both == []

    @given(st.text(max_size=80)
           | st.lists(st.text(st.characters(categories=("L", "N", "P", "Z")),
                              min_size=1, max_size=6)).map(" ".join))
    @settings(max_examples=300, deadline=None)
    def test_equals_the_character_loop(self, text):
        assert tokenize(text) == tokenize_by_loop(text)


class TestLoadCorpus:
    def _write_csv(self, path, rows):
        path.write_text("text,label\n" + "\n".join(f'"{t}",{l}' for t, l in rows),
                        encoding="utf-8")

    def test_csv_no_filtering(self, tmp_path):
        p = tmp_path / "c.csv"
        self._write_csv(p, [("one two", "a"), ("three", "b"), ("four", "a")])
        corpus = load_corpus(p, "csv")
        assert len(corpus) == 3

    def test_char_cap_drops_long_documents(self, tmp_path):
        p = tmp_path / "c.csv"
        self._write_csv(p, [("short", "a"), ("x" * 250, "b"), ("また short", "b")])
        corpus = load_corpus(p, "csv")
        assert len(corpus) == 2

    def test_jsonl_classes_sorted(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "good", "label": "positive"}\n'
                     '{"text": "bad", "label": "negative"}\n', encoding="utf-8")
        corpus = load_corpus(p, "jsonl")
        assert corpus.classes == ("negative", "positive")

    def test_jsonl_integer_labels_and_ids(self, tmp_path):
        p = tmp_path / "c.jsonl"
        p.write_text('{"text": "good", "label": 1, "id": 7}\n'
                     '{"text": "bad", "label": 0, "id": "b"}\n', encoding="utf-8")
        corpus = load_corpus(p, "jsonl")
        assert corpus.classes == ("0", "1")
        assert corpus.labels == {"7": "1", "b": "0"}

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_corpus(tmp_path / "nope.csv", "csv")

    def test_empty_after_filtering(self, tmp_path):
        p = tmp_path / "c.csv"
        self._write_csv(p, [("y" * 300, "a")])
        with pytest.raises(ValueError, match="empty corpus"):
            load_corpus(p, "csv")

    def test_missing_column(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_text("body,label\nhey,a\n", encoding="utf-8")
        with pytest.raises(ValueError, match="missing column"):
            load_corpus(p, "csv")

    def test_order_stable_across_loads(self, tmp_path):
        p = tmp_path / "c.csv"
        self._write_csv(p, [(f"doc {i}", "a") for i in range(20)])
        first = [d.id for d in load_corpus(p, "csv")]
        second = [d.id for d in load_corpus(p, "csv")]
        assert first == second


class TestWordStats:
    def test_direct_count(self):
        corpus = make_corpus([("0", "a b a", "c0")])
        stats = word_stats(corpus)
        assert stats.total_count["a"] == 2
        assert stats.total_count["b"] == 1

    def test_per_class_partition(self):
        corpus = make_corpus([("0", "x", "c0"), ("1", "x", "c1")])
        stats = word_stats(corpus)
        assert stats.doc_freq_class["c0"]["x"] == 1
        assert stats.doc_freq_class["c1"]["x"] == 1
        assert stats.total_count["x"] == 2

    def test_total_tokens_conservation(self, tiny_corpus):
        stats = word_stats(tiny_corpus)
        assert sum(stats.total_count.values()) == tiny_corpus.total_tokens()

    def test_doc_frequency(self):
        corpus = make_corpus([("0", "w w", "c0"), ("1", "w", "c1"), ("2", "v", "c1")])
        stats = word_stats(corpus)
        assert stats.doc_freq_total["w"] == 2
        assert stats.doc_freq_class["c0"]["w"] == 1

    def test_label_map_override(self):
        corpus = make_corpus([("0", "x", "c0"), ("1", "x", "c1")])
        stats = word_stats(corpus, label_map={"0": "c1", "1": "c1"})
        assert stats.doc_freq_class["c1"]["x"] == 2
        assert stats.doc_freq_class["c0"].get("x", 0) == 0

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            word_stats(Corpus(documents=(), labels={}, classes=()))

    def test_totals_are_the_total_counts(self, tiny_corpus):
        corpus = make_corpus([("0", "a b a", "c0"), ("1", "", "c1"), ("2", "b c", "c1")])
        for c in (corpus, tiny_corpus):
            assert word_totals(c) == word_stats(c).total_count
        with pytest.raises(ValueError, match="corpus is empty"):
            word_totals(Corpus(documents=(), labels={}, classes=()))


class TestFilterCandidates:
    def test_stopword_removal(self):
        corpus = make_corpus([("0", "the great", "c0")])
        stats = word_stats(corpus)
        cand = filter_candidates(stats, stopwords={"the"}, min_freq=1)
        assert cand == frozenset({"great"})

    def test_min_freq_threshold(self):
        corpus = make_corpus([("0", "great great great great", "c0")])
        stats = word_stats(corpus)
        assert "great" not in filter_candidates(stats, min_freq=5)
        assert "great" in filter_candidates(stats, min_freq=4)

    def test_identity_case(self, tiny_corpus):
        stats = word_stats(tiny_corpus)
        cand = filter_candidates(stats, stopwords=(), min_freq=1)
        assert cand == stats.vocabulary

    def test_monotone_in_min_freq(self, tiny_corpus):
        stats = word_stats(tiny_corpus)
        sizes = [len(filter_candidates(stats, min_freq=f)) for f in range(1, 6)]
        assert sizes == sorted(sizes, reverse=True)

    def test_min_freq_validation(self, tiny_corpus):
        with pytest.raises(ValueError):
            filter_candidates(word_stats(tiny_corpus), min_freq=0)


class TestSampleDocuments:
    def _corpus(self, n=10):
        return make_corpus([(str(i), f"word{i}", "c0") for i in range(n)])

    def test_identity_at_full_fraction(self):
        corpus = self._corpus()
        assert sample_documents(corpus, 1.0, stream_rng(0, "s")) is corpus

    def test_deterministic_given_seed(self):
        corpus = self._corpus()
        a = sample_documents(corpus, 0.5, stream_rng(3, "s"))
        b = sample_documents(corpus, 0.5, stream_rng(3, "s"))
        assert [d.id for d in a] == [d.id for d in b]
        assert len(a) == 5

    def test_seeds_can_differ(self):
        corpus = self._corpus(30)
        ids = {seed: tuple(d.id for d in
                           sample_documents(corpus, 0.5, stream_rng(seed, "s")))
               for seed in range(6)}
        assert len(set(ids.values())) > 1

    def test_labels_preserved(self):
        corpus = make_corpus([(str(i), f"w{i}", "c" + str(i % 2)) for i in range(10)])
        sampled = sample_documents(corpus, 0.5, stream_rng(1, "s"))
        for doc in sampled:
            assert sampled.labels[doc.id] == corpus.labels[doc.id]

    def test_fraction_out_of_range(self):
        with pytest.raises(ValueError):
            sample_documents(self._corpus(), 0.0, stream_rng(0, "s"))


class TestStopwords:
    def test_file_format(self, tmp_path):
        p = tmp_path / "stop.txt"
        p.write_text("# comment\nThe\n\n  # indented comment\nand \n", encoding="utf-8")
        assert load_stopwords(p) == {"the", "and"}

    def test_shipped_list(self):
        words = default_stopwords()
        assert "the" in words and "and" in words
        assert len(words) > 200

    def test_shipped_file_reads_as_a_user_file(self):
        shipped = resources.files("anchoragg").joinpath("data/stopwords.txt")
        with resources.as_file(shipped) as path:
            assert load_stopwords(path) == default_stopwords()


class TestDocumentInvariants:
    def test_duplicate_ids_rejected(self):
        docs = [Document.from_text("0", "a"), Document.from_text("0", "b")]
        with pytest.raises(ValueError, match="duplicate"):
            Corpus(documents=tuple(docs), labels={"0": "c"}, classes=("c",))

    def test_tokens_positions_consecutive(self):
        doc = Document.from_text("0", "one  two   three")
        assert list(enumerate(doc.words)) == [(0, "one"), (1, "two"), (2, "three")]
