"""Tests for the benchmark's own code. From the repository root:

    python3 -m pytest bench/tests -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import predictor_service  # noqa: E402
import run  # noqa: E402
import traced  # noqa: E402
from anchoragg import (AnchorConfig, AnytimeOptions, build_unigram_perturbator,  # noqa: E402
                       generate_planted_corpus, optimization_profile, run_anytime,
                       train_bow, word_stats)
from anchoragg.aggregate import GPr  # noqa: E402
from anchoragg.model import save_model  # noqa: E402
from anchoragg.synth import SynthSpec  # noqa: E402

SMALL_DOCS = 60


def declared(section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[section]}


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", str(trace), "--docs", str(SMALL_DOCS))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    units = declared("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], (int, float))
        if not trace:
            assert metric["value"] > 0


def test_run_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "synth150-baseline", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


# -- digests -------------------------------------------------------------------


def write_topk_outputs(out: Path, score=0.5, t_sec=0.25):
    (out / "terms.json").write_text(json.dumps(
        {"class": "pos", "agg": "pr(alpha=0.5)", "k": 1,
         "terms": [{"word": "good", "score": score}]}))
    (out / "counts.jsonl").write_text(json.dumps(
        {"word": "good", "class": "pos", "a_plus": 3, "a_minus": 1, "score": score,
         "agg": "pr(alpha=0.5)"}) + "\n")
    (out / "snapshots.jsonl").write_text(json.dumps(
        {"t_sec": t_sec, "calls": 40, "doc_index": 1,
         "topk": [{"word": "good", "score": score}]}) + "\n")


def write_timeline_outputs(out: Path, value=0.2, t_sec="0.250000"):
    (out / "aopc.json").write_text(json.dumps(
        {"class": "pos", "agg": "pr(alpha=0.5)", "k": 1, "value": value,
         "per_prefix": [value * 2], "documents": 3}, indent=2))
    (out / "timeline.csv").write_text(f"t_sec,calls,aopc\n{t_sec},40,{value}\n")


def test_digest_ignores_wall_clock_fields_and_catches_changed_outputs(tmp_path):
    write_topk_outputs(tmp_path)
    reference = run.output_digest("topk", tmp_path)
    write_topk_outputs(tmp_path, t_sec=9.75)
    assert run.output_digest("topk", tmp_path) == reference
    write_topk_outputs(tmp_path, score=0.5000001)
    assert run.output_digest("topk", tmp_path) != reference

    write_timeline_outputs(tmp_path)
    reference = run.output_digest("timeline", tmp_path)
    write_timeline_outputs(tmp_path, t_sec="3.500000")
    assert run.output_digest("timeline", tmp_path) == reference
    write_timeline_outputs(tmp_path, value=0.21)
    assert run.output_digest("timeline", tmp_path) != reference


def test_digest_mismatch_counts_as_a_failure(tmp_path):
    bench_run = run.Run("synth150-external", run.Seeds(docs=SMALL_DOCS), tmp_path,
                        time.monotonic() + 60)
    write_topk_outputs(tmp_path)
    digest = run.output_digest("topk", tmp_path)
    bench_run.check("same", digest, digest)
    assert bench_run.failed == 0
    write_topk_outputs(tmp_path, score=0.25)
    bench_run.check("modified", run.output_digest("topk", tmp_path), digest)
    assert bench_run.failed == 1 and "modified" in bench_run.problems[0]


def test_reference_task_output_is_checked(tmp_path):
    bench_run = run.Run("synth150-baseline", run.Seeds(docs=SMALL_DOCS), tmp_path,
                        time.monotonic() + 60)
    assert bench_run.reference() > 0
    assert bench_run.reference() > 0
    bench_run.references[0] = "0.000000\n"
    with pytest.raises(run.BenchError):
        bench_run.reference()


def test_recorded_digests_cover_the_reference_and_held_out_seeds():
    recorded = json.loads(run.DIGESTS.read_text())
    for seeds in (run.Seeds(), run.HELD_OUT):
        assert set(recorded[seeds.key]) == set(run.WORKLOADS)


# -- wrappers --------------------------------------------------------------------


@pytest.fixture(scope="module")
def small():
    corpus, _ = generate_planted_corpus(SynthSpec(n_docs=SMALL_DOCS), seed=1)
    return corpus, train_bow(corpus, seed=0)


def anytime(corpus, predictor, perturbator, aggregation, tracer=None):
    settings = optimization_profile("optimized")
    options = AnytimeOptions(candidate_filtering=True, stop_rare_filtering=True,
                             adaptive_threshold=True, threads=2)
    rows = []

    def sink(snap):
        if tracer is not None:
            tracer.snapshot_taken(snap.t_sec)
        rows.append((snap.calls, snap.doc_index, snap.topk))

    result = run_anytime(corpus, predictor, perturbator,
                         AnchorConfig(delta=settings["delta"]), aggregation, 20, "pos",
                         options, root_seed=7, snapshot_sink=sink)
    return result, rows


def test_wrappers_return_results_unchanged(small):
    corpus, model = small
    perturbator = build_unigram_perturbator(word_stats(corpus), zeta=50)
    plain, plain_rows = anytime(corpus, model, perturbator, GPr(alpha=0.5))
    tracer = traced.Tracer()
    wrapped, wrapped_rows = anytime(
        corpus, traced.TracedPredictor(model, tracer),
        traced.TracedPerturbator(perturbator, tracer),
        traced.TracedGPr(tracer, alpha=0.5), tracer)
    assert wrapped.terms == plain.terms
    assert wrapped.scores == plain.scores
    assert wrapped.calls == plain.calls
    assert wrapped_rows == plain_rows
    layers = {s[0] for s in tracer.spans}
    assert {"perturb", "model", "aggregate.rank_values",
            "aggregate.upper_bounds"} <= layers
    assert sum(s[4] for s in tracer.select("model")) == plain.calls
    assert len(tracer.doc_ends) == len(plain_rows)


def test_traced_predictor_and_perturbator_pass_values_through(small):
    corpus, model = small
    tracer = traced.Tracer()
    predictor = traced.TracedPredictor(model, tracer)
    docs = [d.words for d in corpus.documents[:5]]
    assert np.array_equal(predictor.predict_proba_many(docs),
                          model.predict_proba_many(docs))
    assert np.array_equal(predictor.predict_proba_words(docs[0]),
                          model.predict_proba_words(docs[0]))
    assert predictor.classes_ == model.classes_
    perturbator = build_unigram_perturbator(word_stats(corpus), zeta=50)
    wrapped = traced.TracedPerturbator(perturbator, tracer)
    doc = corpus.documents[0]
    assert wrapped.sample_batch(doc, (0,), 4, np.random.default_rng(3)) == \
        perturbator.sample_batch(doc, (0,), 4, np.random.default_rng(3))
    assert [(s[0], s[4]) for s in tracer.spans] == [("model", 5), ("model", 1),
                                                     ("perturb", 4)]


def test_covered_is_the_length_of_the_union():
    assert traced.covered([]) == 0.0
    assert traced.covered([(5.0, 6.0), (0.0, 2.0), (1.0, 3.0)]) == 4.0
    assert traced.covered([(0.0, 4.0), (1.0, 2.0)]) == 4.0


def test_spans_record_their_parent_layer():
    tracer = traced.Tracer()
    tracer.call("outer", 0, lambda: tracer.call("inner", 2, lambda: None))
    assert [(s[0], s[4], s[5]) for s in tracer.spans] == [("inner", 2, "outer"),
                                                         ("outer", 0, None)]


# -- the external service ------------------------------------------------------


def test_service_scores_like_the_library(small, tmp_path):
    corpus, model = small
    save_model(model, tmp_path / "model.json")
    scorer = predictor_service.Scorer(json.loads((tmp_path / "model.json").read_text()))
    for doc in corpus.documents[:20]:
        assert scorer.probs(" ".join(doc.words)) == \
            model.predict_proba_words(doc.words).tolist()
    source = io.StringIO(json.dumps({"texts": [corpus.documents[0].raw_text, "x"]})
                         + "\n" + "not json\n")
    sink = io.StringIO()
    report = predictor_service.serve(scorer, source, sink)
    assert (report["requests"], report["rows"], report["errors"]) == (2, 2, 1)
    replies = [json.loads(line) for line in sink.getvalue().splitlines()]
    assert replies[0]["classes"] == list(model.classes_)
    assert "error" in replies[1]


def test_snapshot_metrics_find_the_convergence_point(tmp_path):
    lists = [["a", "b"], ["b", "c"], ["c", "b"], ["b", "c"]]
    with open(tmp_path / "snaps.jsonl", "w") as handle:
        for i, words in enumerate(lists, start=1):
            handle.write(json.dumps({"t_sec": 0.1 * i, "calls": 10 * i, "doc_index": i,
                                     "topk": [{"word": w, "score": 1.0} for w in words]})
                         + "\n")
    metrics = run.snapshot_metrics(tmp_path / "snaps.jsonl")
    assert metrics["calls_to_final"] == 20
    assert metrics["time_to_final_s"] == pytest.approx(0.2)
    assert metrics["doc_ms.p50"] == pytest.approx(100.0)
