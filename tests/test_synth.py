import json

import pytest

from anchoragg.synth import SynthSpec, generate_planted_corpus

from oracles import planted_label


class TestGenerator:
    def test_noise_free_rule_classifies_perfectly(self):
        spec = SynthSpec(n_docs=80, noise=0.0, n_fillers=40, n_singleton_docs=4)
        corpus, truth = generate_planted_corpus(spec, seed=5)
        for doc in corpus:
            assert planted_label(doc.words, truth) == corpus.labels[doc.id]

    def test_fixed_seed_reproduces_corpus(self):
        spec = SynthSpec(n_docs=60, n_fillers=30, n_singleton_docs=2)
        a, _ = generate_planted_corpus(spec, seed=9)
        b, _ = generate_planted_corpus(spec, seed=9)
        assert [d.raw_text for d in a] == [d.raw_text for d in b]
        assert a.labels == b.labels

    def test_seeds_differ(self):
        spec = SynthSpec(n_docs=60, n_fillers=30, n_singleton_docs=2)
        a, _ = generate_planted_corpus(spec, seed=1)
        b, _ = generate_planted_corpus(spec, seed=2)
        assert [d.raw_text for d in a] != [d.raw_text for d in b]

    def test_ground_truth_lists_requested_words(self):
        spec = SynthSpec(n_docs=60, n_signal=10, n_fillers=30)
        _, truth = generate_planted_corpus(spec, seed=3)
        assert len(truth.signal["pos"]) == 10
        assert len(truth.signal["neg"]) == 10
        assert not set(truth.signal["pos"]) & set(truth.signal["neg"])

    def test_noise_rate_close_to_requested(self):
        spec = SynthSpec(n_docs=400, noise=0.1, n_fillers=60, n_singleton_docs=0)
        corpus, truth = generate_planted_corpus(spec, seed=11)
        flipped = sum(1 for d in corpus
                      if planted_label(d.words, truth) not in (None, corpus.labels[d.id]))
        assert 0.05 <= flipped / len(corpus) <= 0.16

    def test_singleton_documents_present_and_unique(self):
        spec = SynthSpec(n_docs=50, n_fillers=20, n_singleton_docs=5)
        corpus, truth = generate_planted_corpus(spec, seed=2)
        singles = truth.singletons["pos"]
        assert len(singles) == 5
        counts = {}
        for doc in corpus:
            for w in doc.words:
                counts[w] = counts.get(w, 0) + 1
        for w in singles:
            assert counts[w] == 1

    def test_documents_under_character_cap(self):
        corpus, _ = generate_planted_corpus(SynthSpec(), seed=4)
        assert max(len(d.raw_text) for d in corpus) <= 200

    def test_truth_round_trip(self, tmp_path):
        _, truth = generate_planted_corpus(SynthSpec(n_docs=40, n_fillers=20),
                                           seed=6)
        path = tmp_path / "truth.json"
        truth.save(path)
        assert json.loads(path.read_text(encoding="utf-8")) == truth.to_json()

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            SynthSpec(n_docs=1)
        with pytest.raises(ValueError):
            SynthSpec(noise=1.0)
        with pytest.raises(ValueError):
            SynthSpec(n_signal=0)
        with pytest.raises(ValueError, match="n_singleton_docs"):
            SynthSpec(n_docs=10, n_singleton_docs=-3, n_fillers=20)
        with pytest.raises(ValueError, match="n_fillers"):
            SynthSpec(n_fillers=0)

    def test_spec_leaves_two_regular_documents(self):
        """The generator's own limit is the spec's: besides its singleton
        documents a corpus holds at least two regular ones."""
        with pytest.raises(ValueError, match="too small for the requested singleton"):
            SynthSpec(n_docs=7)
        corpus, _ = generate_planted_corpus(SynthSpec(n_docs=8, n_fillers=20), seed=1)
        assert len(corpus) == 8
