"""Traced execution of one benchmark workload, in its own process.

Runs the same work as the workload's CLI command through the library, with
spans recorded in memory around calls into each layer. Only the library's
injection points are used:

- ``TracedPerturbator`` delegates ``sample_batch`` (layer ``perturb``);
- ``TracedPredictor`` wraps ``predict_proba_many`` and
  ``predict_proba_words`` (layer ``model``; for the external workload the
  wrapped predictor is an ``ExternalPredictorClient``);
- ``TracedGPr`` times ``rank_values`` and ``upper_bounds`` (layer
  ``aggregate``) and is passed to ``run_anytime``;
- the snapshot sink marks document boundaries (layer ``topk``) and the trace
  sink collects the per-token rows (layer ``anchor``);
- for eval, the traced predictor goes to ``quality_timeline`` and a span
  wraps ``aopc_k``.

The outputs are written in the CLI's formats, so their digest must equal the
untraced run's. Per-layer metrics go to ``layers.json`` in the output
directory. ``run.py`` starts this script; it is not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path
from typing import Callable, Sequence

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from anchoragg import (AnchorConfig, AnytimeOptions,  # noqa: E402
                       ExternalPredictorClient, Perturbator, Predictor,
                       TermList, aopc_k, build_unigram_perturbator, load_corpus,
                       load_model, optimization_profile, quality_timeline,
                       run_anytime, word_stats)
from anchoragg.aggregate import GPr, dump_scores, make_aggregation  # noqa: E402
from anchoragg.eval import write_timeline_csv  # noqa: E402
from anchoragg.model import CachingPredictor  # noqa: E402
from run import percentile, ratio  # noqa: E402

CLASS = "pos"
K = 20
ALPHA = 0.5


class Tracer:
    """Spans kept in memory: (layer, docs_done, start, end, rows, parent layer).

    ``docs_done`` is the number of snapshots taken when the span started, so
    all spans of one document share it; ``parent`` is the layer of the span
    open on the same thread when this one started, or None.
    """

    def __init__(self):
        self.spans: list[tuple[str, int, float, float, int, str | None]] = []
        self.docs_done = 0
        self.doc_ends: list[float] = []
        self.loop_start: float | None = None
        self._local = threading.local()

    def call(self, layer: str, rows: int, fn: Callable, *args):
        local = self._local
        parent = getattr(local, "layer", None)
        local.layer = layer
        start = time.perf_counter()
        try:
            return fn(*args)
        finally:
            end = time.perf_counter()
            local.layer = parent
            self.spans.append((layer, self.docs_done, start, end, rows, parent))

    def snapshot_taken(self, t_sec: float) -> None:
        """Snapshot sink hook: closes the current document's span."""
        now = time.perf_counter()
        if self.loop_start is None:
            self.loop_start = now - t_sec
        self.doc_ends.append(now)
        self.docs_done += 1

    def select(self, prefix: str) -> list[tuple]:
        return [s for s in self.spans if s[0].startswith(prefix)]


class TracedPerturbator(Perturbator):
    def __init__(self, base: Perturbator, tracer: Tracer):
        self.base = base
        self.tracer = tracer

    def sample_batch(self, doc, keep, n, rng):
        return self.tracer.call("perturb", n, self.base.sample_batch, doc, keep, n, rng)


class TracedPredictor(Predictor):
    def __init__(self, base: Predictor, tracer: Tracer):
        self.base = base
        self.tracer = tracer

    @property
    def classes_(self):  # type: ignore[override]
        return self.base.classes_

    def predict_proba_words(self, words):
        return self.tracer.call("model", 1, self.base.predict_proba_words, words)

    def predict_proba_many(self, docs: Sequence[Sequence[str]]):
        return self.tracer.call("model", len(docs), self.base.predict_proba_many, docs)


class TracedGPr(GPr):
    def __init__(self, tracer: Tracer, alpha: float = 0.5):
        super().__init__(None, alpha=alpha)
        self.tracer = tracer

    def rank_values(self, counts, c):
        return self.tracer.call("aggregate.rank_values", 0, super().rank_values,
                                counts, c)

    def upper_bounds(self, counts, c, remaining):
        return self.tracer.call("aggregate.upper_bounds", 0, super().upper_bounds,
                                counts, c, remaining)


# -- span arithmetic ---------------------------------------------------------


def covered(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of the intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def busy(spans: list[tuple]) -> float:
    return sum(s[3] - s[2] for s in spans)


def predictor_metrics(tracer: Tracer) -> dict:
    model = tracer.select("model")
    rows = sum(s[4] for s in model)
    model_s = busy(model)
    perturb = tracer.select("perturb")
    perturb_rows = sum(s[4] for s in perturb)
    perturb_s = busy(perturb)
    return {
        "perturb.calls": len(perturb), "perturb.rows": perturb_rows,
        "perturb.busy_s": perturb_s, "perturb.rows_per_s": ratio(perturb_rows, perturb_s),
        "model.calls": len(model), "model.rows": rows,
        "model.rows_per_call": ratio(rows, len(model)),
        "model.busy_s": model_s, "model.rows_per_s": ratio(rows, model_s),
    }


def external_metrics(tracer: Tracer, report: dict) -> dict:
    latencies = [(s[3] - s[2]) * 1e3 for s in tracer.select("model")]
    return {
        "model.external.requests": report["requests"],
        "model.external.rows_per_request": ratio(report["rows"], report["requests"]),
        "model.external.request_ms.p50": percentile(latencies, 50),
        "model.external.request_ms.p99": percentile(latencies, 99),
        "model.external.serve_s": report["busy_s"],
        "model.external.transport_s": sum(latencies) / 1e3 - report["busy_s"],
    }


def topk_metrics(tracer: Tracer, run_start: float, result, trace_rows: list[dict],
                 max_samples: int) -> dict:
    """Layer metrics of one ``run_anytime`` call from its spans and sink rows."""
    loop_start = tracer.loop_start
    child = [s for s in tracer.spans if s[0] in ("perturb", "model")
             or s[0].startswith("aggregate")]
    by_doc: dict[int, list[tuple[float, float]]] = {}
    for _, done, start, end, _, _ in child:
        if start >= loop_start and done < len(tracer.doc_ends):
            by_doc.setdefault(done, []).append((start, end))
    self_s = 0.0
    bounds = [loop_start] + tracer.doc_ends
    for i in range(len(tracer.doc_ends)):
        self_s += bounds[i + 1] - bounds[i] - covered(by_doc.get(i, []))
    agg = [s for s in tracer.select("aggregate") if not (s[5] or "").startswith("aggregate")]
    rank = tracer.select("aggregate.rank_values")
    upper = tracer.select("aggregate.upper_bounds")

    sampled = [r for r in trace_rows if r["samples"] > 0]
    skipped = [r for r in trace_rows if r["samples"] == 0]
    pruned = sum(1 for r in skipped if r["word"] in result.candidates)
    n_sampled = len(sampled)
    return {
        "topk.prep_s": loop_start - run_start,
        "topk.self_s": self_s,
        "topk.candidates": len(result.candidates),
        "topk.filtered": len(result.filtered),
        "topk.prune_frac": ratio(len(result.filtered), len(result.candidates)),
        "anchor.tokens_sampled": n_sampled,
        "anchor.tokens_skipped_filter": len(skipped) - pruned,
        "anchor.tokens_skipped_pruned": pruned,
        "anchor.samples_per_token": ratio(sum(r["samples"] for r in sampled), n_sampled),
        "anchor.full_budget_frac": ratio(
            sum(1 for r in sampled if r["samples"] >= max_samples), n_sampled),
        "anchor.anchor_frac": ratio(sum(1 for r in sampled if r["anchor"]), n_sampled),
        "aggregate.busy_s": busy(agg),
        "aggregate.rank_values.calls": len(rank),
        "aggregate.rank_values_s": busy(rank),
        "aggregate.upper_bounds.calls": len(upper),
        "aggregate.upper_bounds_s": busy(upper),
    }


# -- the workloads -------------------------------------------------------------


def run_topk(spec: dict, inputs: Path, out: Path, service_cmd: list[str] | None
             ) -> dict:
    tracer = Tracer()
    corpus = tracer.call("load.corpus", 0, load_corpus, inputs / "corpus.jsonl", "jsonl")
    if service_cmd:
        base = ExternalPredictorClient(command=service_cmd)
    else:
        base = tracer.call("load.model", 0, load_model, inputs / "model.json")
    predictor = TracedPredictor(base, tracer)
    settings = optimization_profile(spec["profile"])
    cfg = AnchorConfig(delta=settings["delta"])
    perturbator = TracedPerturbator(
        build_unigram_perturbator(word_stats(corpus), zeta=settings["zeta"]), tracer)
    options = AnytimeOptions(candidate_filtering=settings["candidate_filtering"],
                             stop_rare_filtering=settings["stop_rare_filtering"],
                             adaptive_threshold=settings["adaptive_threshold"],
                             threads=1)
    trace_rows: list[dict] = []
    with open(out / "snapshots.jsonl", "w", encoding="utf-8") as handle:
        def snapshot_sink(snap):
            tracer.snapshot_taken(snap.t_sec)
            handle.write(json.dumps(snap.to_row()) + "\n")
            handle.flush()

        run_start = time.perf_counter()
        try:
            result = run_anytime(corpus, predictor, perturbator, cfg,
                                 TracedGPr(tracer, alpha=ALPHA), K, CLASS, options,
                                 root_seed=spec["topk_seed"],
                                 snapshot_sink=snapshot_sink,
                                 trace_sink=trace_rows.append)
        finally:
            if service_cmd:
                base.close()
    result.terms.save(out / "terms.json")
    with open(out / "counts.jsonl", "w", encoding="utf-8") as handle:
        dump_scores(handle, result.counts, CLASS,
                    make_aggregation("pr", stats=result.stats, alpha=ALPHA),
                    words=sorted(result.candidates))
    metrics = predictor_metrics(tracer)
    metrics.update(topk_metrics(tracer, run_start, result, trace_rows, cfg.max_samples))
    # the whole corpus is predicted before the first document; model.busy_s
    # counts that time too, so the accounting takes it out of prep_s once
    prep_model = busy([s for s in tracer.select("model") if s[2] < tracer.loop_start])
    metrics["trace.accounted_s"] = (
        metrics["perturb.busy_s"] + metrics["model.busy_s"]
        + metrics["aggregate.busy_s"] + metrics["topk.self_s"]
        + metrics["topk.prep_s"] - prep_model)
    if service_cmd:
        report = json.loads((out / "service.json").read_text(encoding="utf-8"))
        metrics.update(external_metrics(tracer, report))
    return metrics


def run_timeline(inputs: Path, out: Path) -> dict:
    tracer = Tracer()
    corpus = tracer.call("load.corpus", 0, load_corpus, inputs / "corpus.jsonl", "jsonl")
    model = tracer.call("load.model", 0, load_model, inputs / "model.json")
    # the CLI shares one cache between the term list and the timeline
    predictor = CachingPredictor(TracedPredictor(model, tracer))
    terms = TermList.load(inputs / "terms.json")
    result = tracer.call("eval.aopc_k", 0, aopc_k, terms, corpus, predictor, CLASS)
    payload = {"class": CLASS, "agg": terms.aggregation, "k": len(terms),
               "value": result.value, "per_prefix": list(result.per_prefix),
               "documents": result.documents}
    (out / "aopc.json").write_text(json.dumps(payload, indent=2), encoding="utf-8")
    snaps = [json.loads(line) for line in
             (inputs / "snapshots.jsonl").read_text(encoding="utf-8").splitlines() if line]
    rows = tracer.call("eval.timeline", 0, quality_timeline, snaps, corpus,
                       predictor, CLASS)
    with open(out / "timeline.csv", "w", encoding="utf-8", newline="") as handle:
        write_timeline_csv(handle, rows)

    metrics = predictor_metrics(tracer)
    evals = tracer.select("eval")
    model = [s for s in tracer.select("model") if (s[5] or "").startswith("eval")]
    self_s = sum(s[3] - s[2] - covered([(m[2], m[3]) for m in model
                                        if s[2] <= m[2] and m[3] <= s[3]])
                 for s in evals)
    metrics.update({
        "eval.snapshots": len(rows),
        "eval.distinct_lists": len({tuple(t["word"] for t in s["topk"])
                                    for s in snaps if s["topk"]}),
        "eval.model_rows": sum(s[4] for s in model),
        "eval.model_s": busy(model),
        "eval.self_s": self_s,
    })
    metrics["trace.accounted_s"] = metrics["eval.self_s"] + metrics["model.busy_s"]
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="traced execution of one workload")
    parser.add_argument("--spec", required=True, help="workload spec as JSON")
    parser.add_argument("--inputs", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--service-cmd", help="JSON list: external predictor command")
    args = parser.parse_args(argv)
    spec = json.loads(args.spec)
    if spec["kind"] == "topk":
        service_cmd = json.loads(args.service_cmd) if args.service_cmd else None
        metrics = run_topk(spec, args.inputs, args.out, service_cmd)
    else:
        metrics = run_timeline(args.inputs, args.out)
    (args.out / "layers.json").write_text(json.dumps(metrics), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
