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

Three rules keep each decision in one place: every input file is read
through ``_load_file``; each command closes its service clients and output
handles through the one ``ExitStack`` that ``main`` hands it; and each
subparser declares its required flags and output paths in ``set_defaults``,
which ``_merge_config`` checks before any input is read.

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
from contextlib import ExitStack, closing, contextmanager
from functools import partial
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


def _load_file(path: str | Path, what: str, parse):
    """``parse(path)``; a missing file, one that cannot be read (a directory,
    say), or one that ``parse`` rejects is a configuration error naming
    ``what``."""
    p = Path(path)
    if not p.exists():
        raise ConfigError(f"{what} not found: {p}")
    try:
        return parse(p)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {p}: {exc}") from exc
    except KeyError as exc:
        raise ConfigError(f"malformed {what} {p}: lacks {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"malformed {what} {p}: {exc}") from exc


def _json_object(path: Path) -> dict:
    payload = json.loads(path.read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("not a JSON object")
    return payload


def _merge_config(args: argparse.Namespace, defaults: dict) -> dict:
    """The command's settings, one per option of its parser but ``--help``
    and ``--config`` (the keys of ``args.config_types``): flags > config
    file > ``defaults`` > None. Unknown config keys are rejected, and so is
    a value whose type is not its flag's. A float flag takes an int too, and
    null is taken where the default is null. A required setting that is
    unset or empty, an output whose directory does not exist, and an output
    that is a directory, are configuration errors."""
    config = _load_file(args.config, "config file", _json_object) \
        if args.config else {}
    unknown = set(config) - set(args.config_types)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    resolved = {key: defaults.get(key) for key in args.config_types}
    for key, value in config.items():
        expected = args.config_types[key]
        allowed = (int, float) if expected is float else (expected,)
        if resolved[key] is None:
            allowed += (type(None),)
        if not isinstance(value, allowed) or (isinstance(value, bool)
                                              and expected is not bool):
            raise ConfigError(f"config key {key!r} takes {expected.__name__}, "
                              f"got {value!r}")
    resolved.update(config)
    for key in args.config_types:
        value = getattr(args, key)
        if value is not None:
            resolved[key] = value
    for flag, dest in args.required.items():
        if resolved[dest] is None or resolved[dest] == "":
            raise ConfigError(f"{flag} is required")
    for flag, dest in args.outputs.items():
        if not resolved[dest]:
            continue
        path = Path(resolved[dest])
        if not path.parent.is_dir():
            raise ConfigError(f"{flag} directory not found: {path.parent}")
        # a prefix names files beside it, so it may be a directory
        if flag != "--out-prefix" and path.is_dir():
            raise ConfigError(f"{flag} is a directory: {path}")
    return resolved


def _same(*names: str) -> dict[str, str]:
    return {name: name for name in names}


# library parameters that are CLI settings, mapped to their setting's dest;
# each command reads its defaults and passes its arguments through these
_CORPUS_PARAMS = _same("format", "text_field", "label_field", "max_chars")
_CLIENT_PARAMS = {"timeout": "timeout", "batch_size": "external_batch_size"}
_TRAIN_PARAMS = _same("epochs", "learning_rate", "l2", "seed", "val_fraction")
_SYNTH_PARAMS = {"n_docs": "docs", "n_signal": "signal_words", "noise": "noise"}
_TOPK_PARAMS = _same(
    "k", "alpha", "profile", "tau", "delta", "batch_size", "max_samples", "zeta",
    "mask_prob", "min_freq", "candidate_filtering", "stop_rare_filtering",
    "sample_fraction") | {"target_class": "class_label", "aggregation": "agg"}
_ANCHOR_PARAMS = _same("tau", "delta", "batch_size", "max_samples")
_PERTURB_PARAMS = _same("zeta", "mask_prob")


def _defaults(func, params: dict[str, str]) -> dict:
    """The library's defaults for the parameters of ``func`` in ``params``,
    keyed by their dest."""
    signature = inspect.signature(func).parameters
    return {dest: signature[name].default for name, dest in params.items()}


def _kwargs(resolved: dict, params: dict[str, str]) -> dict:
    """The resolved settings of ``params``, keyed by parameter name."""
    return {name: resolved[dest] for name, dest in params.items()}


@contextmanager
def _config_errors():
    """A ValueError raised inside is a configuration error."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _clocks() -> tuple[float, float]:
    """The wall clock and this process's CPU time, for ``_write_manifest``."""
    return time.time(), time.process_time()


def _write_manifest(path: Path, command: str, resolved: dict,
                    started: tuple[float, float], stages: dict, extra: dict) -> None:
    """The manifest at ``path``; ``started`` is ``_clocks()`` when the
    command began its work. ``cpu_seconds`` is the CPU time this process
    spent since then, so an external service's time shows as the rest of
    ``wall_seconds``."""
    manifest = {
        "command": command,
        "version": __version__,
        "config": resolved,
        "started_unix": started[0],
        "wall_seconds": time.time() - started[0],
        "cpu_seconds": time.process_time() - started[1],
        "stage_seconds": stages,
        **extra,
    }
    path.write_text(json.dumps(manifest, indent=2, default=str), encoding="utf-8")


def _derived_output(path: str | Path, what: str) -> Path:
    """An output path derived from other settings, taken before any input
    is read: a directory there is a configuration error, as ``_merge_config``
    makes it for a declared output."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"{what} is a directory: {path}")
    return path


def _manifest_path(resolved: dict, primary_out: str | Path | None) -> Path:
    """``--manifest``, else the path beside the primary output, else
    ``run.manifest.json``."""
    if resolved.get("manifest"):
        return Path(resolved["manifest"])
    return _derived_output(f"{primary_out}.manifest.json" if primary_out
                           else "run.manifest.json", "manifest")


def _corpus_defaults() -> dict:
    from .corpus import load_corpus

    return _defaults(load_corpus, _CORPUS_PARAMS)


def _load_corpus(resolved: dict, key: str = "corpus") -> Corpus:
    """The corpus at setting ``key``'s path, read with the corpus settings;
    a note on stderr says how many documents ``--max-chars`` dropped."""
    from .corpus import load_corpus

    corpus = _load_file(resolved[key], "corpus file",
                        partial(load_corpus, **_kwargs(resolved, _CORPUS_PARAMS)))
    if corpus.dropped:
        print(f"note: dropped {corpus.dropped} of {corpus.dropped + len(corpus)} "
              f"documents longer than --max-chars {resolved['max_chars']} "
              f"from {resolved[key]}", file=sys.stderr)
    return corpus


def _check_class(c: str, corpus: Corpus) -> None:
    if c not in corpus.classes:
        raise ConfigError(f"class {c!r} not in corpus classes {corpus.classes}")


def _snapshot_rows(path: Path) -> list[tuple[float, int, tuple[str, ...]]]:
    """The (t_sec, calls, top-k words in list order) rows of a ``topk
    --snapshots`` log; a row whose top-k is not a valid term list (a word
    listed twice or not a string, a score not finite) raises ValueError."""
    from .eval import TermList

    rows = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line:
            continue
        row = json.loads(line)
        t_sec, calls = float(row["t_sec"]), int(row["calls"])
        pairs = [(t["word"], float(t["score"])) for t in row["topk"]]
        try:
            rows.append((t_sec, calls, TermList.from_pairs("", "snapshot", pairs).words))
        except ValueError as exc:
            raise ValueError(f"the top-k at t_sec {t_sec} {exc}") from exc
    return rows


def _term_list(path: Path):
    """The term list of a terms file; one with no terms cannot be scored."""
    from .eval import TermList

    terms = TermList.load(path)
    if not len(terms):
        raise ValueError("lists no terms")
    return terms


def _predictor_defaults() -> dict:
    from .model import ExternalPredictorClient

    return _defaults(ExternalPredictorClient, _CLIENT_PARAMS)


def _check_predictor(resolved: dict) -> None:
    """The predictor settings' errors, before any input is read."""
    from .model import ExternalPredictorClient

    sources = [resolved["model"], resolved["external_endpoint"],
               resolved["external_cmd"]]
    if sum(1 for s in sources if s) != 1:
        raise ConfigError("exactly one of --model / --external-endpoint / "
                          "--external-cmd is required")
    with _config_errors():
        ExternalPredictorClient.check_params(**_kwargs(resolved, _CLIENT_PARAMS))


def _build_predictor(resolved: dict, stack: ExitStack):
    """The model file's classifier, else an external client ``stack`` closes."""
    from .model import ExternalPredictorClient, load_model

    if resolved["model"]:
        return _load_file(resolved["model"], "model file", load_model)
    command = shlex.split(resolved["external_cmd"]) if resolved["external_cmd"] else None
    return stack.enter_context(closing(ExternalPredictorClient(
        endpoint=resolved["external_endpoint"], command=command,
        **_kwargs(resolved, _CLIENT_PARAMS))))


# -- train -------------------------------------------------------------------

def cmd_train(args: argparse.Namespace, stack: ExitStack) -> int:
    from .model import BowClassifier, accuracy, save_model, train_bow

    resolved = _merge_config(args, {**_corpus_defaults(),
                                    **_defaults(BowClassifier, _TRAIN_PARAMS)})
    manifest = _manifest_path(resolved, resolved["out"])
    params = _kwargs(resolved, _TRAIN_PARAMS)
    with _config_errors():
        BowClassifier(**params).check_params()
    started = _clocks()
    corpus = _load_corpus(resolved)
    t_load = time.time()
    with _config_errors():
        clf = train_bow(corpus, **params)
    t_train = time.time()
    save_model(clf, resolved["out"])
    acc = accuracy(clf, corpus)
    _write_manifest(
        manifest, "train", resolved, started,
        {"load": t_load - started[0], "train": t_train - t_load},
        {"documents": len(corpus), "documents_dropped": corpus.dropped,
         "classes": list(clf.classes_),
         "train_accuracy": acc, "best_epoch": clf.best_epoch_,
         "final_loss": clf.losses_[-1]})
    print(f"trained on {len(corpus)} documents, accuracy {acc:.4f}, "
          f"model -> {resolved['out']}")
    return EXIT_OK


# -- synth -------------------------------------------------------------------

def cmd_synth(args: argparse.Namespace, stack: ExitStack) -> int:
    from .synth import SynthSpec, generate_planted_corpus

    resolved = _merge_config(args, {
        **_defaults(SynthSpec, _SYNTH_PARAMS),
        **_defaults(generate_planted_corpus, _same("seed"))})
    manifest = _manifest_path(resolved, resolved["out"])
    started = _clocks()
    with _config_errors():
        spec = SynthSpec(**_kwargs(resolved, _SYNTH_PARAMS))
    corpus, truth = generate_planted_corpus(spec, seed=resolved["seed"])
    with open(resolved["out"], "w", encoding="utf-8") as handle:
        for doc in corpus:
            handle.write(json.dumps({"id": doc.id, "text": doc.raw_text,
                                     "label": corpus.labels[doc.id]}) + "\n")
    if resolved["truth"]:
        truth.save(resolved["truth"])
    _write_manifest(
        manifest, "synth", resolved, started,
        {}, {"documents": len(corpus), "tokens": corpus.total_tokens()})
    print(f"wrote {len(corpus)} documents -> {resolved['out']}")
    return EXIT_OK


# -- topk --------------------------------------------------------------------

def cmd_topk(args: argparse.Namespace, stack: ExitStack) -> int:
    from .aggregate import dump_scores
    from .corpus import load_stopwords, sample_size, word_stats
    from .topk import AnchorTopTerms

    resolved = _merge_config(args, {
        **_corpus_defaults(), **_predictor_defaults(),
        **_defaults(AnchorTopTerms, _TOPK_PARAMS),
        "threads": 0})  # accepted and ignored, see AnytimeOptions.threads
    manifest = _manifest_path(resolved, resolved["terms"] or resolved["snapshots"])
    if resolved["perturb_endpoint"] and resolved["perturb_cmd"]:
        raise ConfigError("--perturb-endpoint and --perturb-cmd are exclusive")
    _check_predictor(resolved)
    est = AnchorTopTerms(seed=resolved["seed"], **_kwargs(resolved, _TOPK_PARAMS))
    with _config_errors():
        est.check_params()
    if resolved["agg"] == "h":
        raise ConfigError("aggregation 'h' needs the anchor tallies of every class; "
                          "topk tallies only --class")
    started = _clocks()
    stopwords = _load_file(resolved["stopword_file"], "stop-word file",
                           load_stopwords) if resolved["stopword_file"] else None
    predictor = _build_predictor(resolved, stack)
    freq_stats = word_stats(_load_corpus(resolved, "freq_corpus")) \
        if resolved["freq_corpus"] else None
    corpus = _load_corpus(resolved)
    _check_class(resolved["class_label"], corpus)
    with _config_errors():
        sample_size(len(corpus), est.resolved_settings()["sample_fraction"])
    est.set_params(stopwords=stopwords, freq_stats=freq_stats)
    perturbator = None
    if resolved["perturb_endpoint"] or resolved["perturb_cmd"]:
        from .perturb import ExternalPerturbatorClient

        # the profile's zeta unless --zeta overrides it
        perturbator = stack.enter_context(closing(ExternalPerturbatorClient(
            endpoint=resolved["perturb_endpoint"],
            command=shlex.split(resolved["perturb_cmd"])
            if resolved["perturb_cmd"] else None,
            zeta=est.resolved_settings()["zeta"], mask_prob=resolved["mask_prob"],
            timeout=resolved["timeout"])))
    t_load = time.time()

    snapshot_sink = trace_sink = None
    if resolved["snapshots"]:
        snapshot_handle = stack.enter_context(
            open(resolved["snapshots"], "w", encoding="utf-8"))

        def snapshot_sink(snap, handle=snapshot_handle):
            handle.write(json.dumps(snap.to_row()) + "\n")
            handle.flush()
    if resolved["trace"]:
        trace_handle = stack.enter_context(open(resolved["trace"], "w", encoding="utf-8"))

        def trace_sink(row, handle=trace_handle):
            handle.write(json.dumps(row) + "\n")
    est.fit(corpus, predictor, perturbator=perturbator,
            snapshot_sink=snapshot_sink, trace_sink=trace_sink)
    t_run = time.time()

    res = est.result_
    if resolved["k"] > len(res.candidates):
        print(f"warning: k={resolved['k']} exceeds the {len(res.candidates)} "
              "candidate words; emitting the full ranking", file=sys.stderr)
    if resolved["terms"]:
        est.terms_.save(resolved["terms"])
    if resolved["counts"]:
        with open(resolved["counts"], "w", encoding="utf-8") as handle:
            dump_scores(handle, res.counts, resolved["class_label"], res.aggregation,
                        words=sorted(res.candidates))

    _write_manifest(
        manifest, "topk", resolved, started,
        {"load": t_load - started[0], "run": t_run - t_load},
        {"predictor_calls": est.calls_,
         "predictor_requests": getattr(predictor, "requests", 0),
         "discarded_rows": res.discarded_rows,
         "documents_processed": len(res.snapshots),
         "documents_dropped": corpus.dropped,
         "filtered_words": len(res.filtered),
         "resolved_profile": est.resolved_settings(),
         "terms": [{"word": w, "score": s} for w, s in est.terms_.items]})
    for word, score in est.terms_.items:
        print(f"{word}\t{score:.6g}")
    return EXIT_OK


# -- anchors (per-document trace) ---------------------------------------------

def cmd_anchors(args: argparse.Namespace, stack: ExitStack) -> int:
    from ._validation import check_positive_int, check_probability
    from .anchor import AnchorConfig, anchors_of_documents, document_waves
    from .corpus import word_stats
    from .perturb import build_unigram_perturbator
    from .seeding import token_streams
    from .topk import classify_corpus, order_documents

    resolved = _merge_config(args, {
        **_corpus_defaults(), **_predictor_defaults(),
        **_defaults(AnchorConfig, _ANCHOR_PARAMS),
        **_defaults(build_unigram_perturbator, _PERTURB_PARAMS)})
    manifest = _manifest_path(resolved, resolved["out"])
    _check_predictor(resolved)
    with _config_errors():
        if resolved["limit"] is not None:
            check_positive_int(resolved["limit"], "limit")
        cfg = AnchorConfig(**_kwargs(resolved, _ANCHOR_PARAMS))
        check_positive_int(resolved["zeta"], "zeta")
        check_probability(resolved["mask_prob"], "mask_prob", open_high=False)
    started = _clocks()
    predictor = _build_predictor(resolved, stack)
    corpus = _load_corpus(resolved)
    if resolved["class_label"]:
        _check_class(resolved["class_label"], corpus)
    predicted, calls = classify_corpus(corpus, predictor)
    stats = word_stats(corpus, {i: cls for i, (cls, _) in predicted.items()})
    perturbator = build_unigram_perturbator(stats, **_kwargs(resolved, _PERTURB_PARAMS))
    docs = order_documents(corpus, predicted, resolved["class_label"]) \
        if resolved["class_label"] else corpus.documents
    docs = [d for d in docs if d.words][:resolved["limit"]]
    streams = token_streams(resolved["seed"], docs)
    rows = start = 0
    handle = stack.enter_context(open(resolved["out"], "w", encoding="utf-8"))
    for wave in document_waves(docs, cfg):
        decided = anchors_of_documents(
            wave, predictor, perturbator, cfg, streams[start:start + len(wave)],
            targets=[predicted[doc.id][0] for doc in wave])
        start += len(wave)
        for doc, decisions in zip(wave, decided):
            calls += sum(dec.samples_used for dec in decisions)
            for dec in decisions:
                handle.write(json.dumps(dec.to_row(doc.id)) + "\n")
                rows += 1
        handle.flush()
    _write_manifest(manifest, "anchors", resolved, started, {},
                    {"documents": len(docs), "documents_dropped": corpus.dropped,
                     "tokens": rows, "predictor_calls": calls,
                     "predictor_requests": getattr(predictor, "requests", 0)})
    print(f"wrote {rows} token decisions -> {resolved['out']}")
    return EXIT_OK


# -- eval-aopc ----------------------------------------------------------------

def cmd_eval_aopc(args: argparse.Namespace, stack: ExitStack) -> int:
    from ._aopc import AopcScorer
    from .eval import write_timeline_csv

    resolved = _merge_config(args, {**_corpus_defaults(), **_predictor_defaults()})
    if not resolved["terms"] and not resolved["snapshots"]:
        raise ConfigError("--terms or --snapshots is required")
    if resolved["snapshots"] and not resolved["class_label"]:
        raise ConfigError("--class is required with --snapshots")
    timeline = _derived_output(
        resolved["timeline_out"] or f"{Path(resolved['snapshots'])}.csv", "timeline") \
        if resolved["snapshots"] else None
    # beside the AOPC file, else beside the timeline CSV
    manifest = _manifest_path(resolved, resolved["out"] or timeline)
    _check_predictor(resolved)
    terms = _load_file(resolved["terms"], "terms file", _term_list) \
        if resolved["terms"] else None
    snaps = _load_file(resolved["snapshots"], "snapshot log", _snapshot_rows) \
        if resolved["snapshots"] else []
    started = _clocks()
    predictor = _build_predictor(resolved, stack)
    corpus = _load_corpus(resolved)
    c = resolved["class_label"] or terms.class_label
    _check_class(c, corpus)
    # the term list and the log's distinct lists, scored as one batch
    lists = list(dict.fromkeys(([terms.words] if terms else [])
                               + [words for _, _, words in snaps if words]))
    results, rows = {}, 0
    if lists:
        scorer = AopcScorer(corpus, predictor, c, cache={})  # each text once
        results = dict(zip(lists, scorer.aopc(lists)))
        rows = scorer.rows
    payload = {}
    if terms is not None:
        result = results[terms.words]
        payload = {"class": c, "agg": terms.aggregation, "k": len(terms),
                   "value": result.value, "per_prefix": list(result.per_prefix),
                   "documents": result.documents}
        if resolved["out"]:
            Path(resolved["out"]).write_text(json.dumps(payload, indent=2),
                                             encoding="utf-8")

    if timeline is not None:
        with open(timeline, "w", encoding="utf-8", newline="") as handle:
            write_timeline_csv(handle, [(t_sec, calls, results[words].value)
                                        for t_sec, calls, words in snaps if words])
        payload["timeline"] = str(timeline)

    _write_manifest(manifest, "eval-aopc", resolved, started, {},
                    {"aopc": payload.get("value"), "documents_dropped": corpus.dropped,
                     "predictor_calls": rows,
                     "predictor_requests": getattr(predictor, "requests", 0)})
    print(json.dumps(payload))
    return EXIT_OK


# -- compare ------------------------------------------------------------------

def cmd_compare(args: argparse.Namespace, stack: ExitStack) -> int:
    from ._aopc import AopcScorer
    from .eval import shared_terms_ratio

    resolved = _merge_config(args, {**_corpus_defaults(), **_predictor_defaults()})
    if len(args.term_files) < 1:
        raise ConfigError("at least one terms file is required")
    prefix = resolved["out_prefix"] or "compare"
    out_json, out_shared, out_aopc = (_derived_output(f"{prefix}{suffix}", "output")
                                      for suffix in (".json", "_shared.csv", "_aopc.csv"))
    manifest = _manifest_path(resolved, out_json)
    _check_predictor(resolved)
    lists = [(Path(path).stem, _load_file(path, "terms file", _term_list))
             for path in args.term_files]
    k = len(lists[0][1])
    for path, (_, terms) in zip(args.term_files, lists):
        if len(terms) != k:
            raise ConfigError(f"terms files differ in length: {path} lists "
                              f"{len(terms)} terms, {args.term_files[0]} lists {k}")
    started = _clocks()
    predictor = _build_predictor(resolved, stack)
    corpus = _load_corpus(resolved)
    classes = [resolved["class_label"] or terms.class_label for _, terms in lists]
    for c in classes:
        _check_class(c, corpus)

    names = [name for name, _ in lists]
    shared = [[shared_terms_ratio(a, b) for _, b in lists] for _, a in lists]
    # the lists of each class, scored as one batch; the scorers share the
    # rows they score, the corpus's among them
    cache, values, rows = {}, {}, 0
    for c in dict.fromkeys(classes):
        scorer = AopcScorer(corpus, predictor, c, cache)
        batch = [terms.words for (_, terms), cls in zip(lists, classes) if cls == c]
        values.update(((c, words), result.value)
                      for words, result in zip(batch, scorer.aopc(batch)))
        rows += scorer.rows
    aopc_rows = [(name, terms.aggregation, c, values[c, terms.words])
                 for (name, terms), c in zip(lists, classes)]

    with open(out_shared, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow([""] + names)
        for name, row in zip(names, shared):
            writer.writerow([name] + [f"{v:.6g}" for v in row])
    with open(out_aopc, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["name", "agg", "class", "aopc"])
        for row in aopc_rows:
            writer.writerow(row)
    payload = {"names": names, "shared": shared,
               "aopc": [{"name": n, "agg": a, "class": c, "value": v}
                        for n, a, c, v in aopc_rows]}
    out_json.write_text(json.dumps(payload, indent=2), encoding="utf-8")
    _write_manifest(manifest, "compare", resolved, started, {},
                    {"lists": names, "documents_dropped": corpus.dropped,
                     "predictor_calls": rows,
                     "predictor_requests": getattr(predictor, "requests", 0)})
    print(json.dumps(payload))
    return EXIT_OK


# -- parser -------------------------------------------------------------------


def _add_flags(p: argparse.ArgumentParser, *flags: str, type=None) -> None:
    """Options whose dest is the flag's name, as argparse derives it."""
    for flag in flags:
        p.add_argument(flag, type=type)


def _add_corpus_flags(p: argparse.ArgumentParser) -> None:
    _add_flags(p, "--corpus", "--text-field", "--label-field")
    p.add_argument("--format", choices=["csv", "jsonl"])
    _add_flags(p, "--max-chars", type=int)


def _add_predictor_flags(p: argparse.ArgumentParser) -> None:
    """The predictor's settings, and the class whose predictions it explains."""
    _add_flags(p, "--model", "--external-endpoint", "--external-cmd")
    _add_flags(p, "--timeout", type=float)
    _add_flags(p, "--external-batch-size", type=int)
    p.add_argument("--class", dest="class_label")


def _add_anchor_flags(p: argparse.ArgumentParser) -> None:
    """The anchor test's and the perturbation's settings, and the seed."""
    _add_flags(p, "--seed", "--batch-size", "--max-samples", "--zeta", type=int)
    _add_flags(p, "--tau", "--delta", "--mask-prob", type=float)


def _train_parser(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    _add_flags(p, "--out")
    _add_flags(p, "--epochs", "--seed", type=int)
    _add_flags(p, "--learning-rate", "--l2", "--val-fraction", type=float)
    p.set_defaults(func=cmd_train, required=("--corpus", "--out"), outputs=("--out",))


def _synth_parser(p: argparse.ArgumentParser) -> None:
    _add_flags(p, "--out", "--truth")
    _add_flags(p, "--docs", "--signal-words", "--seed", type=int)
    _add_flags(p, "--noise", type=float)
    p.set_defaults(func=cmd_synth, required=("--out",), outputs=("--out", "--truth"))


def _topk_parser(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    _add_anchor_flags(p)
    _add_flags(p, "--k", "--min-freq", type=int)
    # the library checks --agg and --profile, and names the valid values
    p.add_argument("--agg", help="aggregation kind (README: Aggregations)")
    p.add_argument("--profile", help="optimization profile "
                   "(README: Optimization profiles)")
    _add_flags(p, "--alpha", "--sample-fraction", type=float)
    p.add_argument("--stopword-file")
    p.add_argument("--freq-corpus",
                   help="corpus whose counts feed the rare-word threshold")
    p.add_argument("--perturb-endpoint",
                   help="HTTP endpoint of an external perturbator service")
    p.add_argument("--perturb-cmd",
                   help="subprocess command speaking the perturbator protocol")
    for flag in ("--candidate-filtering", "--stop-rare-filtering"):
        p.add_argument(flag, action="store_true", default=None)
    p.add_argument("--threads", type=int, help="accepted and ignored")
    _add_flags(p, "--terms", "--snapshots", "--counts", "--trace")
    p.set_defaults(func=cmd_topk, required=("--corpus", "--seed", "--class"),
                   outputs=("--terms", "--snapshots", "--counts", "--trace"))


def _anchors_parser(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    _add_anchor_flags(p)
    _add_flags(p, "--limit", type=int)
    _add_flags(p, "--out")
    p.set_defaults(func=cmd_anchors, required=("--corpus", "--seed", "--out"),
                   outputs=("--out",))


def _eval_aopc_parser(p: argparse.ArgumentParser) -> None:
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    _add_flags(p, "--terms", "--out")
    p.add_argument("--snapshots", help="snapshot log to score as a timeline")
    _add_flags(p, "--timeline-out")
    p.set_defaults(func=cmd_eval_aopc, required=("--corpus",),
                   outputs=("--out", "--timeline-out"))


def _compare_parser(p: argparse.ArgumentParser) -> None:
    p.add_argument("term_files", nargs="*")
    _add_corpus_flags(p)
    _add_predictor_flags(p)
    _add_flags(p, "--out-prefix")
    p.set_defaults(func=cmd_compare, required=("--corpus",), outputs=("--out-prefix",))


# per command: its help line and the function that adds its options
_COMMANDS = {
    "train": ("train the built-in bag-of-words classifier", _train_parser),
    "synth": ("generate a planted-signal corpus", _synth_parser),
    "topk": ("anytime top-k impactful words", _topk_parser),
    "anchors": ("per-token anchor decisions as JSONL", _anchors_parser),
    "eval-aopc": ("probability-drop quality of a term list", _eval_aopc_parser),
    "compare": ("shared-terms matrix and quality table", _compare_parser),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or only of ``command``'s."""
    parser = argparse.ArgumentParser(
        prog="anchoragg",
        description="Global top-k word importance for black-box text "
                    "classifiers via anchor aggregation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, add_options) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p = sub.add_parser(name, help=summary)
        add_options(p)
        _add_flags(p, "--config", "--manifest")
        options = {a.option_strings[0]: a for a in p._actions
                   if a.option_strings and a.dest not in ("help", "config")}
        # per setting (every option's dest but --help's and --config's) the
        # type its config value takes; per declared flag, its setting
        p.set_defaults(
            config_types={a.dest: bool if a.nargs == 0 else (a.type or str)
                          for a in options.values()},
            required={f: options[f].dest for f in p.get_default("required")},
            outputs={f: options[f].dest
                     for f in p.get_default("outputs") + ("--manifest",)})
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a command's own parser when one leads the arguments, else all of them
    # (for --help, --version and an unknown command)
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
    args = parser.parse_args(argv)
    try:
        with ExitStack() as stack:
            return args.func(args, stack)
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
