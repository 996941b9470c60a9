"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with the measured quantities.

Heavier fixtures (the planted corpus, its classifier, and the profile runs)
are session-scoped and shared across criteria.
"""

import json
import math
import time

import numpy as np
import pytest

from anchoragg.aggregate import (AnchorCounts, GPr, _q_raw_vector, make_aggregation,
                                 rank_words)
from anchoragg.anchor import AnchorConfig, estimate_token
from anchoragg.cli import main as cli_main
from anchoragg.corpus import Document, load_corpus, word_stats
from anchoragg.eval import TermList, aopc_k, shared_terms_ratio
from anchoragg.model import CachingPredictor, accuracy, load_model
from anchoragg.perturb import build_unigram_perturbator
from anchoragg.topk import (AnchorTopTerms, AnytimeOptions, optimization_profile,
                            run_anytime)

from conftest import FlipWordPredictor, CoinPerturbator
from oracles import closed_form_estimates, grid_max_loglik, loglik


def report(number: int, name: str, ok: bool, detail: str):
    print(f"[criterion {number}] {name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"criterion {number} ({name}): {detail}"


# ---------------------------------------------------------------------------


class TestCriterion1MleOracle:
    def test_closed_form_matches_grid_search(self):
        started = time.monotonic()
        rng = np.random.default_rng(20240817)
        alphas = (0.3, 0.5, 1.0)
        checked = 0
        worst_gap = -np.inf
        while checked < 100:
            w = int(rng.integers(2, 5))
            a_plus = rng.integers(0, 9, size=w)
            a_minus = rng.integers(0, 9, size=w)
            if a_plus.sum() == 0 or a_minus.sum() == 0:
                continue
            alpha = alphas[checked % 3]
            q, p = closed_form_estimates(a_plus, a_minus, alpha)
            if np.any(q < -1e-15):
                continue
            value = loglik(a_plus, a_minus, alpha, np.maximum(q, 0.0), p)
            best = grid_max_loglik(a_plus, a_minus, alpha, steps=50)
            worst_gap = max(worst_gap, best - value)
            assert value >= best - 1e-6, (a_plus, a_minus, alpha)
            checked += 1
        elapsed = time.monotonic() - started
        ok = checked == 100 and worst_gap <= 1e-6 and elapsed < 60
        report(1, "MLE oracle equivalence", ok,
               f"100 instances, worst grid-over-closed gap {worst_gap:.2e}, "
               f"{elapsed:.1f}s")


class TestCriterion2LaplaceProperties:
    def test_thousand_random_tables(self):
        rng = np.random.default_rng(7)
        tables = 0
        while tables < 1000:
            w = int(rng.integers(2, 12))
            a_plus = rng.integers(0, 20, size=w)
            a_minus = rng.integers(0, 20, size=w)
            if a_plus.sum() == 0 or a_minus.sum() == 0:
                continue
            alpha = float(rng.choice([0.3, 0.5, 1.0]))
            counts = AnchorCounts([f"w{i:02d}" for i in range(w)], ("c",))
            for i in range(w):
                j = counts.index[f"w{i:02d}"]
                counts.a_plus["c"][j] = a_plus[i]
                counts.a_minus["c"][j] = a_minus[i]
            seen = a_plus + a_minus > 0
            # The order check reads the raw q that GPr smooths: an exact tie
            # (e.g. A+/A- of 0/5 and 7/15 under totals 49/49, alpha 0.3) is
            # rounded apart differently by the oracle's order of operations.
            q, _ = _q_raw_vector(a_plus[seen], a_minus[seen], alpha)
            q_oracle, _ = closed_form_estimates(a_plus[seen], a_minus[seen], alpha)
            assert np.allclose(q, q_oracle, rtol=0.0, atol=1e-12)
            q_star = GPr(alpha=alpha).rank_values(counts, "c")[np.nonzero(seen)[0]]
            assert abs(q_star.sum() - 1.0) <= 1e-9
            assert np.all(q_star >= 0)
            diff_raw = np.sign(q[:, None] - q[None, :])
            diff_star = np.sign(q_star[:, None] - q_star[None, :])
            assert np.array_equal(diff_raw, diff_star)
            tables += 1
        report(2, "Laplace smoothing properties", True,
               "1000 tables: sums 1±1e-9, non-negative, ranking preserved")


class TestCriterion3CompletionEquivalence:
    @pytest.mark.parametrize("kind", ["sq", "av", "av_minfreq", "h", "pr",
                                      "base", "pr_inverse"])
    def test_anytime_equals_offline(self, kind, planted200):
        corpus, _, clf = planted200
        mismatches = []
        for seed in (31, 32, 33, 34, 35):
            est = AnchorTopTerms(k=10, aggregation=kind, target_class="pos",
                                 profile="baseline", max_samples=30,
                                 seed=seed)
            est.fit(corpus, clf)
            agg = make_aggregation(kind, stats=est.result_.stats, alpha=0.5,
                                   min_freq=5)
            offline = rank_words(est.counts_.words,
                                 agg.rank_values(est.counts_, "pos"), 10)
            if set(w for w, _ in offline) != set(est.terms_.words):
                mismatches.append(seed)
            assert [w for w, _ in offline] == list(est.terms_.words)
        report(3, f"anytime completion equivalence [{kind}]", not mismatches,
               f"5 seeds, exact set and order equality")


class TestCriterion4EstimatorSoundness:
    def test_wrong_decision_rate(self):
        started = time.monotonic()
        cfg = AnchorConfig(tau=0.95, delta=0.1)
        doc = Document.from_text("0", "kept other")
        pred = FlipWordPredictor()
        reps = 200
        limit = 0.1 + 3 * math.sqrt(0.1 * 0.9 / reps)
        rates = {}
        for pi in (0.5, 0.8, 0.99):
            wrong = 0
            for r in range(reps):
                d = estimate_token(doc, 0, pred, CoinPerturbator(pi), cfg,
                                   np.random.default_rng((r, int(pi * 100))))
                truth_anchor = pi >= cfg.tau
                wrong += int(d.is_anchor != truth_anchor)
            rates[pi] = wrong / reps
        elapsed = time.monotonic() - started
        ok = rates[0.5] <= limit and rates[0.8] <= limit and elapsed < 300
        report(4, "anchor estimator soundness", ok,
               f"wrong-decision rates pi=0.5: {rates[0.5]:.3f}, "
               f"pi=0.8: {rates[0.8]:.3f} (limit {limit:.3f}); "
               f"pi=0.99 (ungated, within 0.1 of tau): {rates[0.99]:.3f}; "
               f"{elapsed:.1f}s")


# -- shared profile runs on the planted corpus -------------------------------


@pytest.fixture(scope="session")
def profile_runs(planted500):
    corpus, truth, clf = planted500
    runs = {}
    for profile in ("baseline", "filtered", "optimized"):
        est = AnchorTopTerms(k=10, aggregation="pr", target_class="pos",
                             profile=profile, seed=11)
        est.fit(corpus, clf)
        runs[profile] = est
    return runs


class TestCriterion5PlantedRecovery:
    def test_gpr_recovers_planted_words(self, planted500, profile_runs):
        corpus, truth, clf = planted500
        acc = accuracy(clf, corpus)
        est = profile_runs["baseline"]
        planted = set(truth.signal["pos"])
        hits = len(planted & set(est.terms_.words))
        ok_acc = acc >= 0.9
        ok_hits = hits >= 8
        report(5, "planted-signal recovery (G_pr)", ok_acc and ok_hits,
               f"classifier accuracy {acc:.3f} (>=0.9), "
               f"{hits}/10 planted words in the G_pr top-10")

    def test_gav_rare_word_pathology(self, planted500, profile_runs):
        corpus, truth, clf = planted500
        est = profile_runs["baseline"]
        counts = est.counts_
        stats = est.result_.stats
        av = make_aggregation("av", stats=stats)
        ranked = rank_words(counts.words, av.rank_values(counts, "pos"), 25)
        planted = set(truth.signal["pos"]) | set(truth.signal["neg"])
        pathological = [
            w for w, score in ranked
            if score == 1.0 and w not in planted and stats.n_w(w) == 1
            and counts.plus(w, "pos") == 1
        ]
        report(5, "rare-word pathology of the averaged score",
               len(pathological) >= 1,
               f"{len(pathological)} single-occurrence non-planted anchors "
               f"at the maximal score 1.0, e.g. {pathological[:3]}")


class TestCriterion6OptimizationDirectionality:
    def test_call_reductions_and_overlap(self, profile_runs):
        base = profile_runs["baseline"].calls_
        filt = profile_runs["filtered"].calls_
        opt = profile_runs["optimized"].calls_
        ratio = base / opt
        filtered_cut = (base - filt) / base
        shared = shared_terms_ratio(profile_runs["optimized"].terms_,
                                    profile_runs["baseline"].terms_)
        ok = ratio >= 3.0 and filtered_cut >= 0.20 and shared >= 0.6
        report(6, "optimization directionality", ok,
               f"calls baseline={base}, optimized={opt} ({ratio:.2f}x >= 3x), "
               f"candidate filtering alone -{filtered_cut:.0%} (>=20%), "
               f"shared terms {shared:.2f} (>=0.6)")


class TestCriterion7AopcSanity:
    def test_ignored_words_zero(self, planted500):
        corpus, _, clf = planted500
        ghost = TermList.from_pairs("pos", "ghost",
                                    [(f"ghostword{i}", 1.0 - i * 0.01)
                                     for i in range(10)])
        value = aopc_k(ghost, corpus, CachingPredictor(clf), "pos").value
        report(7, "probability-drop metric zero on ignored words",
               abs(value) <= 1e-9, f"|AOPC| = {abs(value):.2e} <= 1e-9")

    def test_gpr_beats_baselines_across_seeds(self, planted500):
        corpus, _, clf = planted500
        cached = CachingPredictor(clf)
        wins = 0
        details = []
        for seed in (101, 102, 103, 104, 105):
            est = AnchorTopTerms(k=20, aggregation="pr", target_class="pos",
                                 profile="baseline", seed=seed)
            est.fit(corpus, clf)
            res = est.result_
            values = {"pr": aopc_k(est.terms_, corpus, cached, "pos").value}
            for kind in ("base", "pr_inverse"):
                agg = make_aggregation(kind, stats=res.stats)
                pairs = rank_words(res.counts.words,
                                   agg.rank_values(res.counts, "pos"), 20)
                values[kind] = aopc_k(TermList.from_pairs("pos", kind, pairs),
                                      corpus, cached, "pos").value
            wins += int(values["pr"] > values["base"]
                        and values["pr"] > values["pr_inverse"])
            details.append(f"seed {seed}: pr={values['pr']:.3f} "
                           f"base={values['base']:.3f} inv={values['pr_inverse']:.3f}")
        report(7, "probabilistic score beats baselines (AOPC^20)", wins >= 3,
               f"{wins}/5 seeds; " + "; ".join(details[:2]) + " ...")


class TestCriterion8Determinism:
    def _run_cli(self, ws, tag, threads="1"):
        code = cli_main([
            "topk", "--corpus", str(ws / "c.jsonl"), "--format", "jsonl",
            "--model", str(ws / "m.json"), "--class", "pos", "--k", "5",
            "--agg", "pr", "--profile", "optimized", "--seed", "17",
            "--max-samples", "20", "--threads", threads,
            "--terms", str(ws / f"terms_{tag}.json"),
            "--snapshots", str(ws / f"snaps_{tag}.jsonl"),
            "--counts", str(ws / f"counts_{tag}.jsonl"),
            "--manifest", str(ws / f"manifest_{tag}.json"),
        ])
        assert code == 0
        snaps = [json.loads(l) for l in
                 (ws / f"snaps_{tag}.jsonl").read_text().splitlines()]
        stripped = [{k: v for k, v in row.items() if k != "t_sec"}
                    for row in snaps]
        return ((ws / f"terms_{tag}.json").read_text(),
                (ws / f"counts_{tag}.jsonl").read_text(), stripped)

    @staticmethod
    def _run_library(ws, **ignored):
        """The CLI run above through the library, as the benchmark's tracer
        builds it from the profile, with ``ignored`` options added."""
        corpus = load_corpus(ws / "c.jsonl", "jsonl")
        settings = optimization_profile("optimized")
        perturbator = build_unigram_perturbator(word_stats(corpus),
                                                zeta=settings["zeta"])
        options = AnytimeOptions(candidate_filtering=settings["candidate_filtering"],
                                 stop_rare_filtering=settings["stop_rare_filtering"],
                                 **ignored)
        res = run_anytime(corpus, load_model(ws / "m.json"), perturbator,
                          AnchorConfig(delta=settings["delta"], max_samples=20),
                          make_aggregation("pr"), 5, "pos", options, root_seed=17)
        counts = {c: (res.counts.a_plus[c].tolist(), res.counts.a_minus[c].tolist())
                  for c in res.counts.classes}
        snapshots = [(s.calls, s.doc_index, s.topk) for s in res.snapshots]
        return res.terms.items, counts, snapshots

    def test_identical_runs_and_thread_invariance(self, tmp_path):
        assert cli_main(["synth", "--out", str(tmp_path / "c.jsonl"),
                         "--docs", "120", "--seed", "6"]) == 0
        assert cli_main(["train", "--corpus", str(tmp_path / "c.jsonl"),
                         "--format", "jsonl", "--out", str(tmp_path / "m.json"),
                         "--epochs", "300", "--seed", "1"]) == 0
        first = self._run_cli(tmp_path, "a")
        second = self._run_cli(tmp_path, "b")
        # --threads is accepted and ignored: a run with 4 changes nothing
        threaded = self._run_cli(tmp_path, "c", threads="4")
        # the options the benchmark still passes are accepted and ignored
        plain = self._run_library(tmp_path)
        vestiges = self._run_library(tmp_path, adaptive_threshold=True, threads=4)
        ok = first == second == threaded and plain == vestiges
        report(8, "determinism across runs; --threads and adaptive_threshold "
               "change nothing", ok,
               "terms, counts, and snapshot logs identical "
               "(wall-clock fields excluded), --threads 1 vs 4, "
               "AnytimeOptions(adaptive_threshold=True, threads=4) vs defaults")
