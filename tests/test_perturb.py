import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from anchoragg.corpus import Document, word_stats
from anchoragg.perturb import UnigramPerturbator, build_unigram_perturbator
from anchoragg.seeding import stream_rng

from conftest import make_corpus
from oracles import unigram_fill_by_loop


class TestBuildPool:
    def test_pool_and_weights(self):
        corpus = make_corpus([("0", "a a a a a b b b c", "x")])
        stats = word_stats(corpus)
        pert = build_unigram_perturbator(stats, zeta=2, mask_prob=0.5)
        assert list(pert.pool_words) == ["a", "b"]
        np.testing.assert_allclose(pert.pool_weights, [5 / 8, 3 / 8])

    def test_frequency_ties_lexicographic(self):
        corpus = make_corpus([("0", "zz aa zz aa mm", "x")])
        stats = word_stats(corpus)
        pert = build_unigram_perturbator(stats, zeta=2)
        assert list(pert.pool_words) == ["aa", "zz"]

    def test_zeta_larger_than_vocabulary(self):
        corpus = make_corpus([("0", "a b", "x")])
        pert = build_unigram_perturbator(word_stats(corpus), zeta=500)
        assert len(pert.pool_words) == 2

    def test_bad_parameters(self):
        corpus = make_corpus([("0", "a b", "x")])
        stats = word_stats(corpus)
        with pytest.raises(ValueError):
            build_unigram_perturbator(stats, zeta=0)
        with pytest.raises(ValueError):
            build_unigram_perturbator(stats, zeta=5, mask_prob=0.0)
        with pytest.raises(ValueError):
            build_unigram_perturbator(stats, zeta=5, mask_prob=1.5)


class TestSampling:
    def _pert(self, words, weights, mask_prob):
        return UnigramPerturbator(words, weights, mask_prob=mask_prob)

    def test_keep_all_positions_identity(self):
        pert = self._pert(["z"], [1.0], 1.0)
        doc = Document.from_text("0", "a b c")
        out = pert.sample(doc, keep=(0, 1, 2), rng=stream_rng(0, "t"))
        assert out.words == ("a", "b", "c")

    def test_forced_replacement(self):
        pert = self._pert(["z"], [1.0], 1.0)
        doc = Document.from_text("0", "a b")
        out = pert.sample(doc, keep=(0,), rng=stream_rng(0, "t"))
        assert out.words == ("a", "z")

    def test_deterministic_with_fresh_identical_rng(self):
        pert = self._pert(["x", "y", "z"], [3.0, 2.0, 1.0], 0.5)
        doc = Document.from_text("0", "a b c d e f")
        one = pert.sample_batch(doc, (2,), 20, stream_rng(42, "p"))
        two = pert.sample_batch(doc, (2,), 20, stream_rng(42, "p"))
        assert one == two

    def test_kept_tokens_always_preserved(self):
        pert = self._pert(["x", "y"], [1.0, 1.0], 1.0)
        doc = Document.from_text("0", "a b c d")
        for sample in pert.sample_batch(doc, (1, 3), 200, stream_rng(1, "p")):
            assert sample[1] == "b" and sample[3] == "d"
            assert len(sample) == 4

    @given(st.integers(0, 2**32 - 1), st.sets(st.integers(0, 4), max_size=5))
    @settings(max_examples=60, deadline=None)
    def test_keep_property(self, seed, keep):
        pert = self._pert(["q", "r"], [1.0, 2.0], 0.7)
        doc = Document.from_text("0", "w0 w1 w2 w3 w4")
        for sample in pert.sample_batch(doc, keep, 8, stream_rng(seed, "h")):
            for pos in keep:
                assert sample[pos] == doc.words[pos]

    def test_empirical_masking_rate(self):
        mask_prob = 0.3
        pert = self._pert(["z"], [1.0], mask_prob)
        doc = Document.from_text("0", "a")
        n = 20_000
        samples = pert.sample_batch(doc, (), n, stream_rng(7, "m"))
        rate = sum(1 for s in samples if s[0] == "z") / n
        sigma = (mask_prob * (1 - mask_prob) / n) ** 0.5
        assert abs(rate - mask_prob) <= 3 * sigma

    def test_replacement_distribution_matches_pool(self):
        weights = np.array([5.0, 3.0, 2.0])
        pert = self._pert(["x", "y", "z"], weights, 1.0)
        doc = Document.from_text("0", "a")
        n = 20_000
        samples = pert.sample_batch(doc, (), n, stream_rng(11, "chi"))
        counts = np.array([sum(1 for s in samples if s[0] == w)
                           for w in ("x", "y", "z")])
        expected = weights / weights.sum() * n
        _, pvalue = sps.chisquare(counts, expected)
        assert pvalue > 1e-3

    def test_keep_position_out_of_range(self):
        pert = self._pert(["z"], [1.0], 0.5)
        doc = Document.from_text("0", "a b")
        with pytest.raises(ValueError):
            pert.sample_batch(doc, (5,), 1, stream_rng(0, "t"))


class TestVectorizedFill:
    def test_equals_choice_loop_and_leaves_same_stream(self):
        for seed in range(2000):
            r = np.random.default_rng(10**6 + seed)
            size = int(r.integers(1, 60))
            # some zero weights: the CDF has flat steps there
            weights = r.random(size) * r.integers(0, 2, size)
            weights[int(r.integers(0, size))] += 0.5
            pert = UnigramPerturbator([f"p{i}" for i in range(size)], weights,
                                      mask_prob=float(r.uniform(0.05, 1.0)))
            m = int(r.integers(1, 30))
            doc = Document.from_text("0", " ".join(f"t{i}" for i in range(m)))
            keep = tuple(int(p) for p in r.choice(m, size=int(r.integers(0, min(m, 3) + 1)),
                                                   replace=False))
            n = int(r.integers(0, 25))
            ours, theirs = stream_rng(seed, "fill"), stream_rng(seed, "fill")
            assert pert.sample_batch(doc, keep, n, ours) == \
                unigram_fill_by_loop(pert, doc, keep, n, theirs)
            assert ours.random() == theirs.random()
