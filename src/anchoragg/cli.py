"""Command-line front end.

Subcommands: ``train``, ``topk``, ``anchors``, ``eval-aopc``, ``compare``,
``synth``. Options may come from a JSON config file (``--config``); explicit
flags win over the file, which wins over built-in defaults. Every run writes
a manifest JSON capturing the resolved configuration, versions, timings, and
predictor-call totals, which is sufficient to re-execute the run
bit-identically (wall-clock fields aside).

Each command imports the modules it runs, and reads its defaults from their
signatures, when it runs: ``eval-aopc`` loads no sampling code, and no command
loads the external-service transport unless it builds a client.

Exit codes: 0 success, 2 configuration/input error, 3 runtime failure.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import json
import shlex
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__

if TYPE_CHECKING:
    from .corpus import Corpus

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(Exception):
    """Bad flags, missing files, malformed inputs."""


def _load_config_file(path: str | None) -> dict:
    if path is None:
        return {}
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        payload = json.loads(p.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise ConfigError(f"config file is not valid JSON: {exc}") from exc
    if not isinstance(payload, dict):
        raise ConfigError("config file must hold a JSON object")
    return payload


def _merge_config(args: argparse.Namespace, config: dict,
                  defaults: dict) -> dict:
    """flags > config file > defaults; unknown config keys are rejected, and
    so is a value whose type is not its flag's. A float flag takes an int
    too, and null is taken where the default is null."""
    unknown = set(config) - set(defaults)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    for key, value in config.items():
        expected = args.config_types[key]
        allowed = (int, float) if expected is float else (expected,)
        if defaults[key] is None:
            allowed += (type(None),)
        if not isinstance(value, allowed) or (isinstance(value, bool)
                                              and expected is not bool):
            raise ConfigError(f"config key {key!r} takes {expected.__name__}, "
                              f"got {value!r}")
    resolved = dict(defaults)
    resolved.update(config)
    for key in defaults:
        value = getattr(args, key, None)
        if value is not None:
            resolved[key] = value
    return resolved


def _defaults(func, *names: str, **dests: str) -> dict:
    """The library's defaults for the parameters ``names`` of ``func``, and
    for those ``dests`` maps to their flag's dest, keyed by dest."""
    params = inspect.signature(func).parameters
    return {dest: params[name].default
            for name, dest in {**{n: n for n in names}, **dests}.items()}


def _write_manifest(path: Path, command: str, resolved: dict, started: float,
                    stages: dict, extra: dict) -> None:
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
        "started_unix": started,
        "wall_seconds": time.time() - started,
        "stage_seconds": stages,
        **extra,
    }
    path.write_text(json.dumps(manifest, indent=2, default=str), encoding="utf-8")


def _manifest_path(resolved: dict, primary_out: str | None) -> Path:
    if resolved.get("manifest"):
        return Path(resolved["manifest"])
    if primary_out:
        return Path(str(primary_out) + ".manifest.json")
    return Path("run.manifest.json")


def _load_corpus_from(resolved: dict) -> Corpus:
    from .corpus import load_corpus

    if not resolved.get("corpus"):
        raise ConfigError("--corpus is required")
    path = Path(resolved["corpus"])
    if not path.exists():
        raise ConfigError(f"corpus file not found: {path}")
    try:
        return load_corpus(path, format=resolved["format"],
                           text_field=resolved["text_field"],
                           label_field=resolved["label_field"],
                           max_chars=resolved["max_chars"])
    except (ValueError, OSError) as exc:
        raise ConfigError(f"cannot load corpus: {exc}") from exc


def _close_clients(*clients) -> None:
    """Close the external service clients among ``clients``: those with a
    ``close`` method."""
    for client in clients:
        if hasattr(client, "close"):
            client.close()


def _build_predictor(resolved: dict):
    from .model import ExternalPredictorClient, load_model

    sources = [resolved.get("model"), resolved.get("external_endpoint"),
               resolved.get("external_cmd")]
    if sum(1 for s in sources if s) != 1:
        raise ConfigError("exactly one of --model / --external-endpoint / "
                          "--external-cmd is required")
    if resolved.get("model"):
        path = Path(resolved["model"])
        if not path.exists():
            raise ConfigError(f"model file not found: {path}")
        try:
            return load_model(path)
        except ValueError as exc:
            raise ConfigError(f"cannot load model: {exc}") from exc
    if resolved.get("external_endpoint"):
        return ExternalPredictorClient(endpoint=resolved["external_endpoint"],
                                       timeout=resolved["timeout"],
                                       batch_size=resolved["external_batch_size"],
                                       max_in_flight=resolved["external_in_flight"])
    return ExternalPredictorClient(command=shlex.split(resolved["external_cmd"]),
                                   timeout=resolved["timeout"],
                                   batch_size=resolved["external_batch_size"])


def _corpus_defaults() -> dict:
    from .corpus import load_corpus

    return {"corpus": None, **_defaults(load_corpus, "format", "text_field",
                                        "label_field", "max_chars")}


def _predictor_defaults() -> dict:
    from .model import ExternalPredictorClient

    return {"model": None, "external_endpoint": None, "external_cmd": None,
            **_defaults(ExternalPredictorClient, "timeout",
                        batch_size="external_batch_size",
                        max_in_flight="external_in_flight")}


def _add_corpus_flags(p: argparse.ArgumentParser):
    p.add_argument("--corpus")
    p.add_argument("--format", choices=["csv", "jsonl"])
    p.add_argument("--text-field", dest="text_field")
    p.add_argument("--label-field", dest="label_field")
    p.add_argument("--max-chars", dest="max_chars", type=int)


def _add_predictor_flags(p: argparse.ArgumentParser):
    p.add_argument("--model")
    p.add_argument("--external-endpoint", dest="external_endpoint")
    p.add_argument("--external-cmd", dest="external_cmd")
    p.add_argument("--timeout", type=float)
    p.add_argument("--external-batch-size", dest="external_batch_size", type=int)
    p.add_argument("--external-in-flight", dest="external_in_flight", type=int)


# -- train -------------------------------------------------------------------

def cmd_train(args: argparse.Namespace) -> int:
    from .model import BowClassifier, accuracy, save_model, train_bow

    resolved = _merge_config(args, _load_config_file(args.config), {
        **_corpus_defaults(), "out": None,
        **_defaults(BowClassifier, "epochs", "learning_rate", "l2", "seed",
                    "val_fraction"),
        "manifest": None})
    if not resolved["out"]:
        raise ConfigError("--out is required")
    started = time.time()
    corpus = _load_corpus_from(resolved)
    t_load = time.time()
    try:
        clf = train_bow(corpus, epochs=resolved["epochs"],
                        learning_rate=resolved["learning_rate"],
                        l2=resolved["l2"], seed=resolved["seed"],
                        val_fraction=resolved["val_fraction"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    t_train = time.time()
    save_model(clf, resolved["out"])
    acc = accuracy(clf, corpus)
    _write_manifest(
        _manifest_path(resolved, resolved["out"]), "train", resolved, started,
        {"load": t_load - started, "train": t_train - t_load},
        {"documents": len(corpus), "classes": list(clf.classes_),
         "train_accuracy": acc, "best_epoch": clf.best_epoch_,
         "final_loss": clf.losses_[-1]})
    print(f"trained on {len(corpus)} documents, accuracy {acc:.4f}, "
          f"model -> {resolved['out']}")
    return EXIT_OK


# -- synth -------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace) -> int:
    from .synth import SynthSpec, generate_planted_corpus

    resolved = _merge_config(args, _load_config_file(args.config), {
        "out": None, "truth": None,
        **_defaults(SynthSpec, "noise", n_docs="docs", n_signal="signal_words"),
        **_defaults(generate_planted_corpus, "seed"), "manifest": None})
    if not resolved["out"]:
        raise ConfigError("--out is required")
    started = time.time()
    try:
        spec = SynthSpec(n_docs=resolved["docs"], n_signal=resolved["signal_words"],
                         noise=resolved["noise"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    corpus, truth = generate_planted_corpus(spec, seed=resolved["seed"])
    with open(resolved["out"], "w", encoding="utf-8") as handle:
        for doc in corpus:
            handle.write(json.dumps({"id": doc.id, "text": doc.raw_text,
                                     "label": corpus.labels[doc.id]}) + "\n")
    if resolved["truth"]:
        truth.save(resolved["truth"])
    _write_manifest(
        _manifest_path(resolved, resolved["out"]), "synth", resolved, started,
        {}, {"documents": len(corpus), "tokens": corpus.total_tokens()})
    print(f"wrote {len(corpus)} documents -> {resolved['out']}")
    return EXIT_OK


# -- topk --------------------------------------------------------------------

# the AnchorTopTerms parameters that are topk flags, mapped to their dest
_TOPK_PARAMS = {name: name for name in (
    "k", "alpha", "profile", "tau", "delta", "batch_size", "max_samples", "omega",
    "tau_floor", "zeta", "mask_prob", "min_freq", "candidate_filtering",
    "stop_rare_filtering", "sample_fraction")} | {
    "target_class": "class_label", "aggregation": "agg",
    "adaptive_threshold": "adaptive_tau", "per_class_n_w": "per_class_nw"}


def cmd_topk(args: argparse.Namespace) -> int:
    from .aggregate import dump_scores, make_aggregation
    from .corpus import load_stopwords, word_stats
    from .topk import AnchorTopTerms

    resolved = _merge_config(args, _load_config_file(args.config), {
        **_corpus_defaults(), **_predictor_defaults(),
        **_defaults(AnchorTopTerms, **_TOPK_PARAMS), "seed": None,
        "stopword_file": None, "freq_corpus": None,
        "perturb_endpoint": None, "perturb_cmd": None,
        "threads": 0,  # accepted and ignored, see AnytimeOptions.threads
        "terms": None, "snapshots": None, "counts": None, "trace": None,
        "manifest": None})
    if resolved["seed"] is None:
        raise ConfigError("--seed is required for topk runs")
    if not resolved["class_label"]:
        raise ConfigError("--class is required")
    if resolved["perturb_endpoint"] and resolved["perturb_cmd"]:
        raise ConfigError("--perturb-endpoint and --perturb-cmd are exclusive")
    est = AnchorTopTerms(seed=resolved["seed"], **{
        name: resolved[dest] for name, dest in _TOPK_PARAMS.items()})
    try:
        est.check_params()
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    started = time.time()
    corpus = _load_corpus_from(resolved)
    if resolved["class_label"] not in corpus.classes:
        raise ConfigError(f"class {resolved['class_label']!r} not in corpus "
                          f"classes {corpus.classes}")
    predictor = _build_predictor(resolved)
    stopwords = None
    if resolved["stopword_file"]:
        path = Path(resolved["stopword_file"])
        if not path.exists():
            raise ConfigError(f"stop-word file not found: {path}")
        stopwords = load_stopwords(path)
    freq_stats = None
    if resolved["freq_corpus"]:
        freq_resolved = dict(resolved)
        freq_resolved["corpus"] = resolved["freq_corpus"]
        freq_stats = word_stats(_load_corpus_from(freq_resolved))
    est.set_params(stopwords=stopwords, freq_stats=freq_stats)
    perturbator = None
    if resolved["perturb_endpoint"] or resolved["perturb_cmd"]:
        from .perturb import ExternalPerturbatorClient

        # the profile's zeta unless --zeta overrides it
        perturbator = ExternalPerturbatorClient(
            endpoint=resolved["perturb_endpoint"],
            command=shlex.split(resolved["perturb_cmd"])
            if resolved["perturb_cmd"] else None,
            zeta=est.resolved_settings()["zeta"], mask_prob=resolved["mask_prob"],
            timeout=resolved["timeout"])
    t_load = time.time()

    snapshot_handle = trace_handle = None
    snapshot_sink = trace_sink = None
    if resolved["snapshots"]:
        snapshot_handle = open(resolved["snapshots"], "w", encoding="utf-8")

        def snapshot_sink(snap, handle=snapshot_handle):
            handle.write(json.dumps(snap.to_row()) + "\n")
            handle.flush()
    if resolved["trace"]:
        trace_handle = open(resolved["trace"], "w", encoding="utf-8")

        def trace_sink(row, handle=trace_handle):
            handle.write(json.dumps(row) + "\n")
    try:
        est.fit(corpus, predictor, perturbator=perturbator,
                snapshot_sink=snapshot_sink, trace_sink=trace_sink)
    finally:
        for handle in (snapshot_handle, trace_handle):
            if handle is not None:
                handle.close()
        _close_clients(predictor, perturbator)
    t_run = time.time()

    if resolved["k"] > len(est.result_.candidates):
        print(f"warning: k={resolved['k']} exceeds the {len(est.result_.candidates)} "
              "candidate words; emitting the full ranking", file=sys.stderr)
    if resolved["terms"]:
        est.terms_.save(resolved["terms"])
    if resolved["counts"]:
        res = est.result_
        aggregation = make_aggregation(resolved["agg"], stats=res.stats,
                                       alpha=resolved["alpha"],
                                       min_freq=resolved["min_freq"])
        with open(resolved["counts"], "w", encoding="utf-8") as handle:
            dump_scores(handle, res.counts, resolved["class_label"], aggregation,
                        words=sorted(res.candidates))

    _write_manifest(
        _manifest_path(resolved, resolved["terms"] or resolved["snapshots"]),
        "topk", resolved, started,
        {"load": t_load - started, "run": t_run - t_load},
        {"predictor_calls": est.calls_,
         "documents_processed": est.result_.documents_processed,
         "filtered_words": len(est.result_.filtered),
         "resolved_profile": est.resolved_settings(),
         "terms": [{"word": w, "score": s} for w, s in est.terms_.items]})
    for word, score in est.terms_.items:
        print(f"{word}\t{score:.6g}")
    return EXIT_OK


# -- anchors (per-document trace) ---------------------------------------------

def cmd_anchors(args: argparse.Namespace) -> int:
    from ._validation import check_positive_int, check_probability
    from .anchor import AnchorConfig, anchors_of_document
    from .corpus import word_stats
    from .model import CachingPredictor, CountingPredictor
    from .perturb import build_unigram_perturbator
    from .seeding import stream_rng
    from .topk import order_documents

    resolved = _merge_config(args, _load_config_file(args.config), {
        **_corpus_defaults(), **_predictor_defaults(), "class_label": None,
        **_defaults(AnchorConfig, "tau", "delta", "batch_size", "max_samples"),
        **_defaults(build_unigram_perturbator, "zeta", "mask_prob"), "seed": None,
        "out": None, "limit": None, "manifest": None})
    if resolved["seed"] is None:
        raise ConfigError("--seed is required")
    if not resolved["out"]:
        raise ConfigError("--out is required")
    try:
        if resolved["limit"] is not None:
            check_positive_int(resolved["limit"], "limit")
        cfg = AnchorConfig(tau=resolved["tau"], delta=resolved["delta"],
                           batch_size=resolved["batch_size"],
                           max_samples=resolved["max_samples"])
        check_positive_int(resolved["zeta"], "zeta")
        check_probability(resolved["mask_prob"], "mask_prob", open_high=False)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    started = time.time()
    corpus = _load_corpus_from(resolved)
    base = _build_predictor(resolved)
    predictor = CountingPredictor(base)
    cached = CachingPredictor(predictor)
    try:
        predicted = cached.predict_many(corpus.documents)
        labels = {d.id: label for d, label in zip(corpus, predicted)}
        stats = word_stats(corpus, labels)
        perturbator = build_unigram_perturbator(stats, zeta=resolved["zeta"],
                                                mask_prob=resolved["mask_prob"])
        if resolved["class_label"]:
            if resolved["class_label"] not in corpus.classes:
                raise ConfigError(f"class {resolved['class_label']!r} not in corpus")
            docs = order_documents(corpus, cached, resolved["class_label"])
        else:
            docs = [d for d in corpus if len(d.words)]
        if resolved["limit"]:
            docs = docs[:resolved["limit"]]
        seed = resolved["seed"]
        rows = 0
        with open(resolved["out"], "w", encoding="utf-8") as handle:
            for doc in docs:
                if len(doc.words) == 0:
                    continue
                target = labels[doc.id]
                decisions = anchors_of_document(
                    doc, predictor, perturbator, cfg,
                    threshold_for=lambda w: cfg.tau,
                    rng_for=lambda pos, d=doc: stream_rng(seed, "perturb", d.id, pos),
                    target=target)
                for dec in decisions:
                    handle.write(json.dumps(dec.to_row(doc.id)) + "\n")
                    rows += 1
                handle.flush()
    finally:
        _close_clients(base)
    _write_manifest(_manifest_path(resolved, resolved["out"]), "anchors",
                    resolved, started, {},
                    {"documents": len(docs), "tokens": rows,
                     "predictor_calls": predictor.calls})
    print(f"wrote {rows} token decisions -> {resolved['out']}")
    return EXIT_OK


# -- eval-aopc ----------------------------------------------------------------

def cmd_eval_aopc(args: argparse.Namespace) -> int:
    from .eval import TermList, aopc_k, quality_timeline, write_timeline_csv
    from .model import CachingPredictor

    resolved = _merge_config(args, _load_config_file(args.config), {
        **_corpus_defaults(), **_predictor_defaults(),
        "terms": None, "class_label": None, "out": None,
        "snapshots": None, "timeline_out": None, "manifest": None})
    if not resolved["terms"] and not resolved["snapshots"]:
        raise ConfigError("--terms or --snapshots is required")
    started = time.time()
    corpus = _load_corpus_from(resolved)
    base = _build_predictor(resolved)
    predictor = CachingPredictor(base)
    payload = {}
    try:
        if resolved["terms"]:
            terms_path = Path(resolved["terms"])
            if not terms_path.exists():
                raise ConfigError(f"terms file not found: {terms_path}")
            try:
                terms = TermList.load(terms_path)
            except (ValueError, KeyError) as exc:
                raise ConfigError(f"malformed terms file: {exc}") from exc
            c = resolved["class_label"] or terms.class_label
            if c not in corpus.classes:
                raise ConfigError(f"class {c!r} not in corpus classes {corpus.classes}")
            result = aopc_k(terms, corpus, predictor, c)
            payload = {"class": c, "agg": terms.aggregation, "k": len(terms),
                       "value": result.value, "per_prefix": list(result.per_prefix),
                       "documents": result.documents}
            if resolved["out"]:
                Path(resolved["out"]).write_text(json.dumps(payload, indent=2),
                                                 encoding="utf-8")

        if resolved["snapshots"]:
            if not resolved["class_label"]:
                raise ConfigError("--class is required with --snapshots")
            snap_path = Path(resolved["snapshots"])
            if not snap_path.exists():
                raise ConfigError(f"snapshot log not found: {snap_path}")
            snaps = [json.loads(line) for line in
                     snap_path.read_text(encoding="utf-8").splitlines() if line]
            rows = quality_timeline(snaps, corpus, predictor,
                                    resolved["class_label"])
            target = Path(resolved["timeline_out"] or (str(snap_path) + ".csv"))
            with open(target, "w", encoding="utf-8", newline="") as handle:
                write_timeline_csv(handle, rows)
            payload.setdefault("timeline", str(target))
    finally:
        _close_clients(base)

    # beside the AOPC file, else beside the timeline CSV
    _write_manifest(_manifest_path(resolved, resolved["out"] or payload.get("timeline")),
                    "eval-aopc", resolved, started, {}, {"aopc": payload.get("value")})
    print(json.dumps(payload))
    return EXIT_OK


# -- compare ------------------------------------------------------------------

def cmd_compare(args: argparse.Namespace) -> int:
    from .eval import TermList, aopc_k, shared_terms_ratio
    from .model import CachingPredictor

    resolved = _merge_config(args, _load_config_file(args.config), {
        **_corpus_defaults(), **_predictor_defaults(),
        "class_label": None, "out_prefix": None, "manifest": None})
    if len(args.term_files) < 1:
        raise ConfigError("at least one terms file is required")
    lists = []
    for path in args.term_files:
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"terms file not found: {p}")
        try:
            lists.append((p.stem, TermList.load(p)))
        except (ValueError, KeyError) as exc:
            raise ConfigError(f"malformed terms file {p}: {exc}") from exc
    started = time.time()
    corpus = _load_corpus_from(resolved)
    base = _build_predictor(resolved)
    predictor = CachingPredictor(base)

    names = [name for name, _ in lists]
    shared = [[shared_terms_ratio(a, b) for _, b in lists] for _, a in lists]
    aopc_rows = []
    try:
        for name, terms in lists:
            c = resolved["class_label"] or terms.class_label
            if c not in corpus.classes:
                raise ConfigError(f"class {c!r} not in corpus classes {corpus.classes}")
            aopc_rows.append((name, terms.aggregation, c,
                              aopc_k(terms, corpus, predictor, c).value))
    finally:
        _close_clients(base)

    prefix = resolved["out_prefix"] or "compare"
    with open(f"{prefix}_shared.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + names)
        for name, row in zip(names, shared):
            writer.writerow([name] + [f"{v:.6g}" for v in row])
    with open(f"{prefix}_aopc.csv", "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "agg", "class", "aopc"])
        for row in aopc_rows:
            writer.writerow(row)
    payload = {"names": names, "shared": shared,
               "aopc": [{"name": n, "agg": a, "class": c, "value": v}
                        for n, a, c, v in aopc_rows]}
    Path(f"{prefix}.json").write_text(json.dumps(payload, indent=2),
                                      encoding="utf-8")
    _write_manifest(_manifest_path(resolved, f"{prefix}.json"), "compare",
                    resolved, started, {}, {"lists": names})
    print(json.dumps(payload))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="anchoragg",
        description="Global top-k word importance for black-box text "
                    "classifiers via anchor aggregation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train the built-in bag-of-words classifier")
    p.add_argument("--config")
    _add_corpus_flags(p)
    p.add_argument("--out")
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", dest="learning_rate", type=float)
    p.add_argument("--l2", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--val-fraction", dest="val_fraction", type=float)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("synth", help="generate a planted-signal corpus")
    p.add_argument("--config")
    p.add_argument("--out")
    p.add_argument("--truth")
    p.add_argument("--docs", type=int)
    p.add_argument("--signal-words", dest="signal_words", type=int)
    p.add_argument("--noise", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("topk", help="anytime top-k impactful words")
    p.add_argument("--config")
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    p.add_argument("--class", dest="class_label")
    p.add_argument("--k", type=int)
    # the library checks --agg and --profile, and names the valid values
    p.add_argument("--agg", help="aggregation kind (README: Aggregations)")
    p.add_argument("--alpha", type=float)
    p.add_argument("--profile", help="optimization profile "
                   "(README: Optimization profiles)")
    p.add_argument("--seed", type=int)
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-samples", dest="max_samples", type=int)
    p.add_argument("--omega", type=float)
    p.add_argument("--tau-floor", dest="tau_floor", type=float)
    p.add_argument("--zeta", type=int)
    p.add_argument("--mask-prob", dest="mask_prob", type=float)
    p.add_argument("--min-freq", dest="min_freq", type=int)
    p.add_argument("--stopword-file", dest="stopword_file")
    p.add_argument("--freq-corpus", dest="freq_corpus",
                   help="corpus whose counts feed the rare-word threshold")
    p.add_argument("--perturb-endpoint", dest="perturb_endpoint",
                   help="HTTP endpoint of an external perturbator service")
    p.add_argument("--perturb-cmd", dest="perturb_cmd",
                   help="subprocess command speaking the perturbator protocol")
    p.add_argument("--candidate-filtering", dest="candidate_filtering",
                   action="store_true", default=None)
    p.add_argument("--stop-rare-filtering", dest="stop_rare_filtering",
                   action="store_true", default=None)
    p.add_argument("--adaptive-tau", dest="adaptive_tau",
                   action="store_true", default=None)
    p.add_argument("--per-class-nw", dest="per_class_nw",
                   action="store_true", default=None)
    p.add_argument("--sample-fraction", dest="sample_fraction", type=float)
    p.add_argument("--threads", type=int, help="accepted and ignored")
    p.add_argument("--terms")
    p.add_argument("--snapshots")
    p.add_argument("--counts")
    p.add_argument("--trace")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_topk)

    p = sub.add_parser("anchors", help="per-token anchor decisions as JSONL")
    p.add_argument("--config")
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    p.add_argument("--class", dest="class_label")
    p.add_argument("--tau", type=float)
    p.add_argument("--delta", type=float)
    p.add_argument("--batch-size", dest="batch_size", type=int)
    p.add_argument("--max-samples", dest="max_samples", type=int)
    p.add_argument("--zeta", type=int)
    p.add_argument("--mask-prob", dest="mask_prob", type=float)
    p.add_argument("--seed", type=int)
    p.add_argument("--limit", type=int)
    p.add_argument("--out")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_anchors)

    p = sub.add_parser("eval-aopc", help="probability-drop quality of a term list")
    p.add_argument("--config")
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    p.add_argument("--terms")
    p.add_argument("--class", dest="class_label")
    p.add_argument("--out")
    p.add_argument("--snapshots", help="snapshot log to score as a timeline")
    p.add_argument("--timeline-out", dest="timeline_out")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_eval_aopc)

    p = sub.add_parser("compare", help="shared-terms matrix and quality table")
    p.add_argument("term_files", nargs="*")
    p.add_argument("--config")
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    p.add_argument("--class", dest="class_label")
    p.add_argument("--out-prefix", dest="out_prefix")
    p.add_argument("--manifest")
    p.set_defaults(func=cmd_compare)

    for p in sub.choices.values():  # the type a config value takes per key
        p.set_defaults(config_types={a.dest: bool if a.nargs == 0 else (a.type or str)
                                     for a in p._actions})
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception as exc:  # runtime failures map to exit 3
        print(f"runtime failure: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
