import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from anchoragg.corpus import Document, word_stats
from anchoragg.model import pad_rows
from anchoragg.perturb import GUIDE_BINS, UnigramPerturbator, build_unigram_perturbator
from anchoragg.seeding import stream_rng

from conftest import make_corpus
from oracles import sample_round_by_token, unigram_fill_by_loop


def one_document_round(pert, doc_ids, positions, n, rngs, fill_ids):
    """``sample_round`` over tokens of one document."""
    return pert.sample_round(np.asarray(doc_ids)[None, :], np.asarray([len(doc_ids)]),
                             np.zeros(len(positions), dtype=np.intp),
                             np.asarray(positions, dtype=np.intp), n, rngs, fill_ids)


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
        out = pert.sample_batch(doc, (0, 1, 2), 1, stream_rng(0, "t"))[0]
        assert out == ("a", "b", "c")

    def test_forced_replacement(self):
        pert = self._pert(["z"], [1.0], 1.0)
        doc = Document.from_text("0", "a b")
        out = pert.sample_batch(doc, (0,), 1, stream_rng(0, "t"))[0]
        assert out == ("a", "z")

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

    def test_sample_ids_equal_encoded_batch_and_leave_same_stream(self):
        """``sample_round`` in ids draws, block by block, the encoded rows of
        ``sample_batch`` with that block's position kept."""
        for seed in range(2000):
            r = np.random.default_rng(2 * 10**6 + seed)
            size = int(r.integers(1, 40))
            weights = r.random(size) * r.integers(0, 2, size)
            weights[int(r.integers(0, size))] += 0.5
            pool = [f"p{i}" for i in range(size)]
            pert = UnigramPerturbator(pool, weights,
                                      mask_prob=float(r.uniform(0.05, 1.0)))
            m = int(r.integers(1, 30))
            doc = Document.from_text("0", " ".join(f"t{i}" for i in range(m)))
            # a vocabulary holding part of the document and the pool; the
            # rest is out of vocabulary
            known = [w for w in doc.words + tuple(pool) if r.random() < 0.7]
            index = {w: j for j, w in enumerate(known)}
            encode = lambda words: np.asarray([index.get(w, len(known)) for w in words],
                                              dtype=np.intp)
            positions = r.permutation(m)[:int(r.integers(1, m + 1))].tolist()
            n = int(r.integers(0, 25))
            ours = [stream_rng(seed, "ids", p) for p in positions]
            theirs = [stream_rng(seed, "ids", p) for p in positions]
            ids = one_document_round(pert, encode(doc.words), positions, n, ours,
                                     encode(pool))
            rows = [row for p, rng in zip(positions, theirs)
                    for row in pert.sample_batch(doc, (p,), n, rng)]
            assert ids.dtype == np.intp and ids.shape == (len(positions) * n, m)
            assert ids.tolist() == [encode(row).tolist() for row in rows]
            assert [g.random() for g in ours] == [g.random() for g in theirs]


class TestRoundKernel:
    """``sample_round`` draws a group of tokens in one step, exactly as
    one-token draws from each token's own generator, whether the tokens
    come from one document or from several of different lengths."""

    def test_equals_per_token_draws_and_leaves_same_streams(self):
        seen = set()
        for seed in range(2000):
            r = np.random.default_rng(3 * 10**6 + seed)
            size = int(r.integers(1, 40))
            weights = r.random(size) * r.integers(0, 2, size)
            weights[int(r.integers(0, size))] += 0.5
            mask_prob = float(r.choice([1.0, 0.05, r.uniform(0.05, 1.0)]))
            pert = UnigramPerturbator([f"p{i}" for i in range(size)], weights,
                                      mask_prob=mask_prob)
            # half the groups hold one document, the rest 2 to 8
            n_docs = 1 if seed % 2 else int(r.integers(2, 9))
            if n_docs == 1:
                lengths = [1 if seed % 10 == 1 else int(r.integers(2, 61))]
            else:
                lengths = r.integers(1, 61, n_docs).tolist()
            n = int(r.choice([1, 10, r.integers(0, 25)]))
            tokens = [(d, p) for d, m in enumerate(lengths) for p in range(m)]
            chosen = r.permutation(len(tokens))[:int(r.integers(1, min(len(tokens), 40) + 1))]
            doc_of = np.asarray([tokens[t][0] for t in chosen], dtype=np.intp)
            positions = np.asarray([tokens[t][1] for t in chosen], dtype=np.intp)
            doc_ids = [r.integers(0, 100, m).astype(np.intp) for m in lengths]
            fill_ids = r.integers(0, 100, size).astype(np.intp)
            pad = int(r.integers(0, 101))
            wave_ids = pad_rows(np.concatenate(doc_ids), lengths, pad)
            ours = [stream_rng(seed, "round", int(d), int(p)) for d, p in zip(doc_of, positions)]
            theirs = [stream_rng(seed, "round", int(d), int(p)) for d, p in zip(doc_of, positions)]
            rows = pert.sample_round(wave_ids, np.asarray(lengths), doc_of, positions, n,
                                     ours, fill_ids)
            assert rows.dtype == np.intp
            assert np.array_equal(rows, sample_round_by_token(
                pert, doc_ids, doc_of, positions, n, theirs, fill_ids, pad))
            assert [g.random() for g in ours] == [g.random() for g in theirs]
            widths = {lengths[d] for d in doc_of}
            seen |= {("n", n), ("mask_prob", mask_prob), ("tokens", len(positions)),
                     ("zero weight", bool((weights == 0).any())),
                     ("documents", min(len(set(doc_of.tolist())), 3)),
                     ("padded", len(widths) > 1), ("one-word document", 1 in widths)}
            if n_docs == 1:
                m = lengths[0]
                seen.add(("m", min(m, 2)))
                if m > 2:
                    seen |= {("kept", "first" if p == 0 else "last" if p == m - 1
                              else "middle") for p in positions}
        assert {("m", 1), ("m", 2), ("n", 1), ("n", 10), ("mask_prob", 1.0),
                ("mask_prob", 0.05), ("tokens", 1), ("tokens", 40),
                ("zero weight", True), ("kept", "first"), ("kept", "last"),
                ("kept", "middle"), ("documents", 1), ("documents", 2),
                ("documents", 3), ("padded", True), ("padded", False),
                ("one-word document", True)} <= seen

    def test_kept_position_out_of_range(self):
        pert = UnigramPerturbator(["z"], [1.0], mask_prob=0.5)
        ids = np.arange(3, dtype=np.intp)
        for positions in ([3], [0, -1]):
            with pytest.raises(ValueError):
                one_document_round(pert, ids, positions, 2,
                                   [stream_rng(0, "t")] * len(positions),
                                   np.zeros(1, dtype=np.intp))
        # a position inside a longer document of the wave is still outside its own
        wave_ids = pad_rows(np.arange(5, dtype=np.intp), [2, 3], -1)
        with pytest.raises(ValueError):
            pert.sample_round(wave_ids, np.asarray([2, 3]), np.asarray([1, 0]),
                              np.asarray([0, 2]), 2, [stream_rng(0, "t")] * 2,
                              np.zeros(1, dtype=np.intp))


class _Uniforms:
    """Stands in for a generator: hands out the given uniforms in order."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=np.float64)
        self.used = 0

    def random(self, out):
        out[...] = self.values[self.used:self.used + out.size].reshape(out.shape)
        self.used += out.size


# zero weights (leading, trailing, in runs), weights far below a bin's width,
# and ordinary ones
_WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(1e-15, 1e-6), st.floats(1e-3, 10.0)),
    min_size=1, max_size=60).filter(lambda w: sum(w) > 0)


class TestGuideTable:
    """The pool picks of the guide table are ``cdf.searchsorted(u,
    side="right")`` on the CDF ``rng.choice`` builds from the pool weights,
    for every uniform: on a bin edge, one ulp below it, on a CDF value and
    next to it."""

    @staticmethod
    def _picks(pert, uniforms):
        """The pool index of each pick uniform, read from one-slot rows
        that are always masked."""
        n = len(uniforms)
        rng = _Uniforms(np.concatenate([np.zeros(n), uniforms]))
        rows = one_document_round(pert, np.zeros(2, dtype=np.intp), [0], n, [rng],
                                  np.arange(len(pert.pool_words)))
        assert rng.used == 2 * n
        return rows[:, 1]

    def _check(self, weights, seed=0):
        pert = UnigramPerturbator([f"p{i}" for i in range(len(weights))], weights,
                                  mask_prob=1.0)
        cdf = pert.pool_weights.cumsum()
        cdf /= cdf[-1]
        edges = np.arange(GUIDE_BINS) / GUIDE_BINS
        inner = cdf[cdf < 1.0]
        uniforms = np.concatenate([
            edges, edges[1:] - 2.0**-53, [1.0 - 2.0**-53],
            inner, np.nextafter(inner, 0.0), np.nextafter(inner, 1.0),
            np.random.default_rng(seed).random(500)])
        uniforms = uniforms[uniforms < 1.0]
        assert np.array_equal(self._picks(pert, uniforms),
                              cdf.searchsorted(uniforms, side="right"))

    @given(_WEIGHTS, st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_random_pools(self, weights, seed):
        self._check(weights, seed)

    def test_zero_runs_tiny_weights_and_large_pools(self):
        self._check([1.0])
        self._check([0.0, 0.0, 1.0, 0.0, 0.0, 2.0, 0.0, 0.0])
        # CDF values on bin edges
        self._check([1.0, 1.0, 1.0, 1.0])
        self._check([1.0, 0.0, 1.0, 2.0, 0.0])
        # steps far closer together than a bin
        self._check([1.0] + [1e-12] * 40 + [1.0] + [1e-9] * 7 + [1.0])
        self._check([1e-15, 1.0, 1e-15])
        # more words than bins
        r = np.random.default_rng(5)
        self._check(r.random(3 * GUIDE_BINS) * r.integers(0, 2, 3 * GUIDE_BINS) + 1e-9)
