import math

import numpy as np
import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from anchoragg.aggregate import (AGGREGATION_KINDS, AnchorCounts, GPr,
                                 make_aggregation, rank_words)
from anchoragg.anchor import AnchorDecision
from anchoragg.corpus import word_stats

from conftest import make_corpus
from oracles import (closed_form_estimates, grid_max_loglik, grid_max_loglik_brute,
                     loglik, pr_rank_values, pr_raw_estimates, pr_smooth,
                     pr_upper_bounds, rank_words_by_sort)


def decision(word, position, anchor):
    return AnchorDecision(word, position, anchor, int(anchor), 1)


def counts_from(table, classes=("c0",)):
    """table: {class: {word: (a_plus, a_minus)}}"""
    vocab = sorted({w for per in table.values() for w in per})
    counts = AnchorCounts(vocab, classes)
    for c, per in table.items():
        for w, (plus, minus) in per.items():
            j = counts.index[w]
            counts.a_plus[c][j] = plus
            counts.a_minus[c][j] = minus
    return counts


def score(kind, counts, word, c, **params):
    """One word's value from the aggregation the anytime engine ranks with."""
    values = make_aggregation(kind, **params).rank_values(counts, c)
    return float(values[counts.index[word]])


def tally(counts, word, c="c0"):
    """(anchor, non-anchor) occurrences of the word in class c."""
    j = counts.index[word]
    return int(counts.a_plus[c][j]), int(counts.a_minus[c][j])


def raw_estimates(counts, alpha, c="c0"):
    """The reference's raw (q, p) over the words seen in class c, in
    vocabulary order."""
    plus, minus = counts.a_plus[c], counts.a_minus[c]
    seen = (plus + minus) > 0
    return pr_raw_estimates(plus[seen], minus[seen], alpha)


class TestUpdateCounts:
    def test_direct_tally(self):
        counts = AnchorCounts(["bad", "great"], ("c0",))
        decisions = [decision("great", 0, True), decision("great", 1, True),
                     decision("bad", 2, False)]
        counts.ingest(decisions, "c0", "d1")
        assert tally(counts, "great") == (2, 0)
        assert tally(counts, "bad") == (0, 1)

    def test_empty_decisions_leave_counts(self):
        counts = AnchorCounts(["w"], ("c0",))
        counts.ingest([], "c0", "d1")
        assert tally(counts, "w") == (0, 0)

    def test_same_word_mixed_positions(self):
        counts = AnchorCounts(["w"], ("c0",))
        counts.ingest([decision("w", 0, True), decision("w", 3, False)],
                      "c0", "d1")
        assert tally(counts, "w") == (1, 1)

    def test_double_ingestion_rejected(self):
        counts = AnchorCounts(["w"], ("c0",))
        counts.ingest([decision("w", 0, True)], "c0", "d1")
        with pytest.raises(ValueError, match="already ingested"):
            counts.ingest([decision("w", 0, True)], "c0", "d1")

    def test_count_conservation(self):
        corpus = make_corpus([("0", "a b a", "c0"), ("1", "b c", "c0")])
        counts = AnchorCounts(["a", "b", "c"], ("c0",))
        rng = np.random.default_rng(0)
        for doc in corpus:
            decisions = [decision(w, i, bool(rng.integers(2)))
                         for i, w in enumerate(doc.words)]
            counts.ingest(decisions, "c0", doc.id)
        assert counts.a_plus["c0"].sum() + counts.a_minus["c0"].sum() == 5


class TestSimpleAggregations:
    def test_g_sq(self):
        counts = counts_from({"c0": {"w": (0, 3), "v": (4, 0), "u": (2, 1)}})
        assert score("sq", counts, "w", "c0") == 0.0
        assert score("sq", counts, "v", "c0") == 2.0
        assert score("sq", counts, "u", "c0") == pytest.approx(math.sqrt(2), abs=1e-12)

    def test_g_av(self):
        counts = counts_from({"c0": {"once": (1, 0), "never": (0, 7),
                                     "mixed": (3, 1), "unseen": (0, 0)}})
        assert score("av", counts, "once", "c0") == 1.0
        assert score("av", counts, "never", "c0") == 0.0
        assert score("av", counts, "mixed", "c0") == 0.75
        # unseen: no share defined, ranked at the floor
        assert score("av", counts, "unseen", "c0") == 0.0

    def test_g_av_min_freq_exclusion(self):
        corpus = make_corpus([("0", "great great great great rare", "c0")])
        stats = word_stats(corpus)
        counts = counts_from({"c0": {"great": (4, 0), "rare": (1, 0)}})
        assert math.isnan(score("av_minfreq", counts, "great", "c0",
                                min_freq=5, stats=stats))
        assert score("av_minfreq", counts, "rare", "c0",
                     min_freq=1, stats=stats) == 1.0

    def test_g_h_point_mass_and_uniform(self):
        counts = counts_from(
            {"c0": {"solo": (4, 0), "both": (4, 0), "tilted": (9, 0)},
             "c1": {"solo": (0, 4), "both": (4, 0), "tilted": (1, 0)}},
            classes=("c0", "c1"))
        # 'solo' anchors only in c0: entropy 0 = minimum -> full G_sq
        assert score("h", counts, "solo", "c0") == pytest.approx(2.0)
        # 'both' splits evenly: maximal entropy -> factor 0
        assert score("h", counts, "both", "c0") == pytest.approx(0.0)
        # 'tilted' sits between
        value = score("h", counts, "tilted", "c0")
        assert 0.0 < value < 3.0

    def test_g_h_single_class_degenerates_to_g_sq(self):
        counts = counts_from({"c0": {"a": (4, 1), "b": (1, 2)}})
        assert score("h", counts, "a", "c0") == pytest.approx(2.0)
        assert score("h", counts, "b", "c0") == pytest.approx(1.0)

    def test_g_h_unscored_word(self):
        counts = counts_from({"c0": {"a": (4, 1), "zero": (0, 5)}})
        # no anchors in any class: entropy undefined, ranked at the floor
        assert score("h", counts, "zero", "c0") == 0.0

    def test_g_base(self):
        corpus = make_corpus([("0", "w q", "c"), ("1", "w", "c"),
                              ("2", "w", "d"), ("3", "w", "d"), ("4", "v", "d")])
        stats = word_stats(corpus)
        counts = AnchorCounts(["q", "w", "v", "absent"], ("c", "d"))
        assert score("base", counts, "q", "c", stats=stats) == 1.0
        assert score("base", counts, "w", "c", stats=stats) == 0.5
        assert score("base", counts, "v", "c", stats=stats) == 0.0
        # in no document: no share defined, excluded from ranking
        assert math.isnan(score("base", counts, "absent", "c", stats=stats))

    @pytest.mark.parametrize("kind", ["av_minfreq", "base"])
    def test_new_table_never_scored_from_a_freed_tables_cache(self, kind):
        """The caches hold the table they were built for: a new table can
        take the id of a freed one and still gets its own values."""
        stats = word_stats(make_corpus([("0", "x x y", "c0"), ("1", "y y z", "c1")]))
        agg = make_aggregation(kind, stats=stats, min_freq=2)
        vocabularies = (["v", "x"], ["x", "y"], ["v", "y", "z"], ["y", "z"])
        for i in range(40):
            counts = AnchorCounts(vocabularies[i % len(vocabularies)], ("c0", "c1"))
            expected = make_aggregation(kind, stats=stats, min_freq=2).rank_values(
                counts, "c0")
            np.testing.assert_array_equal(agg.rank_values(counts, "c0"), expected)
            del counts


class TestProbModel:
    def test_alpha_one_collapses_to_anchor_share(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        q, _ = raw_estimates(counts, 1.0)
        assert q[counts.index["a"]] == pytest.approx(0.75)
        assert q[counts.index["b"]] == pytest.approx(0.25)

    def test_worked_example(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        q, p = raw_estimates(counts, 0.5)
        a, b = counts.index["a"], counts.index["b"]
        assert q[a] == pytest.approx(1.25)
        assert q[b] == pytest.approx(-0.25)
        assert p[a] == pytest.approx(0.25)
        assert p[b] == pytest.approx(0.75)

    def test_raw_estimates_sum_to_one(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            w = int(rng.integers(2, 6))
            plus = rng.integers(0, 9, size=w)
            minus = rng.integers(0, 9, size=w)
            if plus.sum() == 0 or minus.sum() == 0:
                continue
            table = {"c0": {f"w{i}": (int(plus[i]), int(minus[i]))
                            for i in range(w)}}
            q, p = raw_estimates(counts_from(table), 0.3)
            assert q.sum() == pytest.approx(1.0, abs=1e-9)
            assert p.sum() == pytest.approx(1.0, abs=1e-9)

    def test_smoothed_worked_example(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        q_star = make_aggregation("pr", alpha=0.5).rank_values(counts, "c0")
        assert q_star[counts.index["a"]] == pytest.approx(1.0)
        assert q_star[counts.index["b"]] == pytest.approx(0.0)
        assert q_star.sum() == pytest.approx(1.0, abs=1e-9)

    def test_smoothing_identity_when_non_negative(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        q, _ = raw_estimates(counts, 1.0)
        smoothed, _ = pr_smooth(q)
        assert smoothed.tolist() == q.tolist()
        q_star = make_aggregation("pr", alpha=1.0).rank_values(counts, "c0")
        assert q_star.tolist() == q.tolist()

    def test_closed_form_attains_grid_maximum_small(self):
        # spot instances; the full sweep lives in the acceptance suite
        rng = np.random.default_rng(11)
        done = 0
        while done < 8:
            w = int(rng.integers(2, 4))
            ap = rng.integers(0, 9, size=w)
            am = rng.integers(0, 9, size=w)
            if ap.sum() == 0 or am.sum() == 0:
                continue
            q, p = closed_form_estimates(ap, am, 0.5)
            if np.any(q < 0):
                continue
            best = grid_max_loglik(ap, am, 0.5, steps=50)
            assert loglik(ap, am, 0.5, q, p) >= best - 1e-6
            done += 1

    def test_grid_oracle_greedy_equals_brute_force(self):
        rng = np.random.default_rng(13)
        for _ in range(6):
            w = int(rng.integers(2, 4))
            ap = rng.integers(0, 6, size=w)
            am = rng.integers(1, 6, size=w)
            for alpha in (0.3, 1.0):
                fast = grid_max_loglik(ap, am, alpha, steps=20)
                slow = grid_max_loglik_brute(ap, am, alpha, steps=20)
                assert fast == pytest.approx(slow, abs=1e-9)


class TestGPr:
    def test_worked_example_scores(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        assert score("pr", counts, "a", "c0", alpha=0.5) == pytest.approx(1.0)
        assert score("pr", counts, "b", "c0", alpha=0.5) == pytest.approx(0.0)

    def test_pure_anchor_beats_equally_frequent_mixed_word(self):
        # brute force over small count grids: a word with all its
        # occurrences as anchors outranks any same-frequency mixed word
        for n in range(2, 11):
            for a in range(1, n):
                counts = counts_from({"c0": {
                    "pure": (n, 0), "mixed": (a, n - a), "rest": (5, 20)}})
                for alpha in (0.3, 0.5, 1.0):
                    pure = score("pr", counts, "pure", "c0", alpha=alpha)
                    mixed = score("pr", counts, "mixed", "c0", alpha=alpha)
                    assert pure > mixed

    def test_smoothing_floor_non_negative(self):
        counts = counts_from({"c0": {"never": (0, 9), "often": (7, 2)}})
        assert score("pr", counts, "never", "c0", alpha=0.5) >= 0.0

    def test_undefined_model_unscored(self):
        # no non-anchor occurrence: model undefined, ranked at the floor
        counts = counts_from({"c0": {"a": (2, 0)}})
        assert score("pr", counts, "a", "c0", alpha=0.5) == 0.0

    def test_alpha_one_ranking_matches_anchor_counts(self):
        counts = counts_from({"c0": {"a": (5, 2), "b": (3, 4), "c": (1, 1),
                                     "d": (4, 9)}})
        agg = make_aggregation("pr", alpha=1.0)
        ranked = rank_words(counts.words, agg.rank_values(counts, "c0"))
        by_plus = sorted(counts.words,
                         key=lambda w: (-tally(counts, w)[0], w))
        assert [w for w, _ in ranked] == by_plus


class TestGPrInverse:
    def test_reciprocal_values(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (2, 2), "c": (1, 3)}})
        pr = score("pr", counts, "b", "c0", alpha=0.5)
        assert score("pr_inverse", counts, "b", "c0", alpha=0.5) \
            == pytest.approx(1 / pr)

    def test_zero_score_excluded(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        assert score("pr", counts, "b", "c0", alpha=0.5) == pytest.approx(0.0)
        assert math.isnan(score("pr_inverse", counts, "b", "c0", alpha=0.5))

    def test_unit_score(self):
        counts = counts_from({"c0": {"a": (3, 1), "b": (1, 3)}})
        assert score("pr_inverse", counts, "a", "c0", alpha=0.5) == pytest.approx(1.0)


def _tables(columns):
    """``columns`` count vectors of one common length, 1 to 8 words."""
    return st.integers(1, 8).flatmap(lambda n: st.tuples(*(
        st.lists(st.integers(0, 20), min_size=n, max_size=n).map(
            lambda v: np.array(v, dtype=np.int64)) for _ in range(columns))))


_ALPHAS = st.one_of(st.sampled_from([0.5, 1.0]), st.floats(0.01, 1.0))


def table_of(*columns):
    """A counts table over w0, w1, ... from (a_plus, a_minus) column pairs,
    one pair per class c0, c1, ..."""
    classes = tuple(f"c{i}" for i in range(len(columns) // 2))
    counts = AnchorCounts([f"w{i}" for i in range(len(columns[0]))], classes)
    for i, c in enumerate(classes):
        counts.a_plus[c][:] = columns[2 * i]
        counts.a_minus[c][:] = columns[2 * i + 1]
    return counts


class TestOneScoreFunction:
    """Ranks and bounds come from one score function per kind."""

    @given(_tables(3), _ALPHAS)
    @settings(max_examples=300, deadline=None)
    def test_pr_equals_the_reference(self, table, alpha):
        """The reference computes ranks and bounds separately, the bound in
        another floating-point order: exact at alpha 0.5 and 1, where the
        1/alpha factors are exact, and to 1e-12 relative elsewhere."""
        plus, minus, remaining = table
        agg, counts = GPr(alpha=alpha), table_of(plus, minus)
        assert agg.rank_values(counts, "c0").tobytes() \
            == pr_rank_values(plus, minus, alpha).tobytes()
        bounds = agg.upper_bounds(counts, "c0", remaining)
        expected = pr_upper_bounds(plus, minus, alpha, remaining)
        if alpha in (0.5, 1.0):
            assert bounds.tobytes() == expected.tobytes()
        else:
            np.testing.assert_allclose(bounds, expected, rtol=1e-12, atol=0)

    @given(_tables(4))
    @settings(max_examples=100, deadline=None)
    def test_nothing_remaining_bounds_at_the_rank_values(self, table):
        counts = table_of(*table)
        words = counts.words
        # the last word is in no document once there are two
        corpus = make_corpus([(str(j), " ".join(words[:j + 1]), f"c{j % 2}")
                              for j in range(max(len(words) - 1, 1))])
        zeros = np.zeros(len(words), dtype=np.int64)
        for kind in AGGREGATION_KINDS:
            agg = make_aggregation(kind, stats=word_stats(corpus), min_freq=2)
            assert agg.upper_bounds(counts, "c0", zeros).tobytes() \
                == agg.rank_values(counts, "c0").tobytes(), kind

    @given(_tables(3), st.booleans(), _ALPHAS)
    @settings(max_examples=100, deadline=None)
    def test_undefined_pr_model_ranks_zero_and_bounds_inf(self, table, no_anchors,
                                                          alpha):
        plus, minus, remaining = table
        (plus if no_anchors else minus)[:] = 0
        agg, counts = GPr(alpha=alpha), table_of(plus, minus)
        assert agg.rank_values(counts, "c0").tolist() == [0.0] * len(plus)
        assert np.all(agg.upper_bounds(counts, "c0", remaining + 1) == np.inf)


class TestRanking:
    def test_rank_words_ties_lexicographic(self):
        values = np.array([1.0, 2.0, 1.0, np.nan])
        ranked = rank_words(("b", "c", "a", "z"), values, 3)
        assert ranked == [("c", 2.0), ("a", 1.0), ("b", 1.0)]

    def test_nan_excluded_entirely(self):
        ranked = rank_words(("a", "b"), np.array([np.nan, 0.5]))
        assert ranked == [("b", 0.5)]

    def test_signed_zeros_tie(self):
        ranked = rank_words(("b", "c", "a"), np.array([0.0, -1.0, -0.0]))
        assert repr(ranked) == repr([("a", -0.0), ("b", 0.0), ("c", -1.0)])

    def test_equals_sort_for_any_word_order(self):
        for seed in range(500):
            r = np.random.default_rng(seed)
            size = int(r.integers(0, 80))
            # distinct words in no particular order
            words = tuple(f"w{j}" for j in r.permutation(3 * size)[:size])
            # few distinct values, so ties are common, NaN and both zeros included
            values = r.choice([np.nan, 0.0, -0.0, 1.0, 0.25, -2.0, np.inf, -np.inf,
                               float(r.random())], size)
            for k in (None, 1, int(r.integers(0, size + 3))):
                ranked = rank_words(words, values, k)
                assert repr(ranked) == repr(rank_words_by_sort(words, values, k))


class TestInvariantBundle:
    def test_g_h_below_g_sq_and_g_av_in_unit_interval(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            w = int(rng.integers(2, 6))
            table = {
                c: {f"w{i}": (int(rng.integers(0, 9)), int(rng.integers(0, 9)))
                    for i in range(w)}
                for c in ("c0", "c1")}
            counts = counts_from(table, classes=("c0", "c1"))
            for i in range(w):
                word = f"w{i}"
                assert 0.0 <= score("av", counts, word, "c0") <= 1.0
                assert score("h", counts, word, "c0") \
                    <= score("sq", counts, word, "c0") + 1e-12
