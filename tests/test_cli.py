import json
import os
from pathlib import Path

import pytest

from anchoragg.aggregate import AGGREGATION_KINDS
from anchoragg.cli import main
from anchoragg.corpus import load_corpus
from anchoragg.eval import TermList
from anchoragg.model import save_model, train_bow
from anchoragg.topk import PROFILE_NAMES


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def jsonl(name):
    """The rows of a JSON-lines file."""
    return [json.loads(line) for line in Path(name).read_text().splitlines()]


def synth_and_train(ws, docs=80, seed=4, epochs=250):
    assert run("synth", "--out", "c.jsonl", "--truth", "t.json",
               "--docs", str(docs), "--seed", str(seed)) == 0
    assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
               "--out", "m.json", "--epochs", str(epochs), "--seed", "1") == 0


class TestTrain:
    def test_model_file_reloads(self, workspace):
        synth_and_train(workspace)
        payload = json.loads((workspace / "m.json").read_text())
        assert payload["format_version"] == 1
        assert (workspace / "m.json.manifest.json").exists()

    def test_missing_corpus_is_config_error(self, workspace):
        assert run("train", "--corpus", "missing.csv", "--out", "m.json") == 2

    def test_same_seed_identical_models(self, workspace):
        synth_and_train(workspace)
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m2.json", "--epochs", "250", "--seed", "1") == 0
        assert (workspace / "m.json").read_text() == (workspace / "m2.json").read_text()

    def test_no_training_flags_train_the_library_default_model(self, workspace):
        assert run("synth", "--out", "c.jsonl", "--docs", "40", "--seed", "1") == 0
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json") == 0
        save_model(train_bow(load_corpus("c.jsonl", "jsonl"), seed=0), "lib.json")
        assert (workspace / "m.json").read_text() == (workspace / "lib.json").read_text()


class TestSynth:
    def test_outputs_and_determinism(self, workspace):
        assert run("synth", "--out", "a.jsonl", "--truth", "ta.json",
                   "--docs", "40", "--seed", "9") == 0
        assert run("synth", "--out", "b.jsonl", "--truth", "tb.json",
                   "--docs", "40", "--seed", "9") == 0
        assert (workspace / "a.jsonl").read_text() == (workspace / "b.jsonl").read_text()
        truth = json.loads((workspace / "ta.json").read_text())
        assert len(truth["signal"]["pos"]) == 10

    def test_requires_out(self, workspace):
        assert run("synth", "--docs", "40") == 2


class TestTopk:
    def _topk(self, seed="3", extra=()):
        return run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "4",
                   "--agg", "pr", "--seed", seed, "--max-samples", "20",
                   "--terms", "terms.json", "--snapshots", "snaps.jsonl",
                   "--counts", "counts.jsonl", "--trace", "trace.jsonl",
                   "--manifest", "run.json", *extra)

    def test_artifacts_written(self, workspace):
        synth_and_train(workspace)
        assert self._topk() == 0
        terms = TermList.load("terms.json")
        assert len(terms) == 4
        snaps = jsonl("snaps.jsonl")
        assert snaps[-1]["topk"][0]["word"] == terms.words[0]
        counts_rows = jsonl("counts.jsonl")
        assert {"word", "class", "a_plus", "a_minus", "score", "agg"} \
            <= set(counts_rows[0])
        trace_rows = jsonl("trace.jsonl")
        assert {"doc", "pos", "word", "anchor", "precision", "samples"} \
            <= set(trace_rows[0])
        manifest = json.loads((workspace / "run.json").read_text())
        assert manifest["predictor_calls"] > 0
        assert manifest["config"]["seed"] == 3

    def test_unknown_class(self, workspace):
        synth_and_train(workspace)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "bogus", "--seed", "1")
        assert code == 2

    def test_determinism_across_runs(self, workspace):
        synth_and_train(workspace)
        assert self._topk() == 0
        first_terms = (workspace / "terms.json").read_text()
        first_snaps = jsonl("snaps.jsonl")
        assert self._topk() == 0
        second_terms = (workspace / "terms.json").read_text()
        second_snaps = jsonl("snaps.jsonl")
        assert first_terms == second_terms
        strip = lambda rows: [{k: v for k, v in r.items() if k != "t_sec"}
                              for r in rows]
        assert strip(first_snaps) == strip(second_snaps)

    def test_config_file_with_flag_override(self, workspace):
        synth_and_train(workspace)
        (workspace / "cfg.json").write_text(json.dumps({
            "corpus": "c.jsonl", "format": "jsonl", "model": "m.json",
            "class_label": "pos", "k": 2, "seed": 5, "max_samples": 20,
            "terms": "t1.json"}))
        assert run("topk", "--config", "cfg.json") == 0
        assert len(TermList.load("t1.json")) == 2
        assert run("topk", "--config", "cfg.json", "--k", "3",
                   "--terms", "t2.json") == 0
        assert len(TermList.load("t2.json")) == 3

    def test_unknown_config_key(self, workspace, capsys):
        synth_and_train(workspace)
        # external_in_flight was a setting once; it is unknown now
        for key in ("bogus_key", "external_in_flight"):
            (workspace / "cfg.json").write_text(json.dumps({key: 1}))
            assert run("topk", "--config", "cfg.json") == 2
            assert f"unknown config keys: [{key!r}]" in capsys.readouterr().err

    def test_config_value_of_wrong_type(self, workspace, capsys):
        synth_and_train(workspace, docs=40)
        base = {"corpus": "c.jsonl", "format": "jsonl", "model": "m.json",
                "class_label": "pos", "seed": 5, "max_samples": 10,
                "terms": "t.json"}
        for key, value in (("k", "20"), ("candidate_filtering", 1),
                           ("alpha", True)):
            (workspace / "cfg.json").write_text(json.dumps({**base, key: value}))
            assert run("topk", "--config", "cfg.json") == 2
            assert f"config key {key!r}" in capsys.readouterr().err
        # an int is a valid float
        (workspace / "cfg.json").write_text(json.dumps({**base, "alpha": 1}))
        assert run("topk", "--config", "cfg.json") == 0

    def test_oversized_k_warns_and_emits_full_ranking(self, workspace, capsys):
        synth_and_train(workspace, docs=40)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "100000",
                   "--seed", "2", "--max-samples", "10", "--terms", "big.json")
        assert code == 0
        assert "exceeds" in capsys.readouterr().err


class TestSettings:
    @staticmethod
    def _config(name):
        return json.loads(Path(name).read_text())["config"]

    def test_required_flags_resolve_the_recorded_defaults(self, workspace):
        """Each command's configuration from its required flags alone, as the
        CLI resolved it when it still wrote every default out itself."""
        assert run("synth", "--out", "s.jsonl") == 0
        assert self._config("s.jsonl.manifest.json") == {
            "out": "s.jsonl", "truth": None, "docs": 500, "signal_words": 10,
            "noise": 0.1, "seed": 0, "manifest": None}
        assert run("synth", "--out", "c.jsonl", "--docs", "40", "--seed", "1") == 0
        corpus = {"corpus": "c.jsonl", "format": "jsonl", "text_field": "text",
                  "label_field": "label", "max_chars": 200}
        assert run("train", *("--corpus", "c.jsonl", "--format", "jsonl"),
                   "--out", "m.json") == 0
        assert self._config("m.json.manifest.json") == {
            **corpus, "out": "m.json", "epochs": 800, "learning_rate": 0.3,
            "l2": 5e-4, "seed": 0, "val_fraction": 0.0, "manifest": None}
        inputs = {**corpus, "model": "m.json", "external_endpoint": None,
                  "external_cmd": None, "timeout": 30.0, "external_batch_size": 32}
        required = ("--corpus", "c.jsonl", "--format", "jsonl", "--model", "m.json",
                    "--seed", "7")
        assert run("topk", *required, "--class", "pos") == 0
        assert self._config("run.manifest.json") == {
            **inputs, "class_label": "pos", "k": 20, "agg": "pr", "alpha": 0.5,
            "profile": "baseline", "seed": 7, "tau": 0.95, "delta": None,
            "batch_size": 10, "max_samples": 100, "zeta": None, "mask_prob": 0.5,
            "min_freq": 5, "stopword_file": None, "freq_corpus": None,
            "perturb_endpoint": None, "perturb_cmd": None,
            "candidate_filtering": None, "stop_rare_filtering": None,
            "sample_fraction": None, "threads": 0, "terms": None, "snapshots": None,
            "counts": None, "trace": None, "manifest": None}
        assert run("anchors", *required, "--out", "a.jsonl") == 0
        assert self._config("a.jsonl.manifest.json") == {
            **inputs, "class_label": None, "tau": 0.95, "delta": 0.1,
            "batch_size": 10, "max_samples": 100, "zeta": 500, "mask_prob": 0.5,
            "seed": 7, "out": "a.jsonl", "limit": None, "manifest": None}

    OUT_OF_RANGE = [
        ("topk", "--batch-size", "0", "batch_size and max_samples must be >= 1"),
        ("topk", "--max-samples", "0", "batch_size and max_samples must be >= 1"),
        ("topk", "--tau", "1.5", "tau out of (0, 1]: 1.5"),
        ("topk", "--mask-prob", "0", "mask_prob out of range: 0.0"),
        ("topk", "--zeta", "0", "zeta must be a positive integer, got 0"),
        ("topk", "--k", "0", "k must be a positive integer, got 0"),
        ("topk", "--sample-fraction", "0", "sample_fraction must be in (0, 1], got 0.0"),
        ("topk", "--alpha", "-1", "alpha out of (0, 1]: -1.0"),
        ("topk", "--min-freq", "0", "min_freq must be a positive integer, got 0"),
        ("topk", "--agg", "bogus",
         f"unknown aggregation kind 'bogus' (expected one of {AGGREGATION_KINDS})"),
        ("topk", "--profile", "bogus",
         f"unknown profile 'bogus' (expected one of {PROFILE_NAMES})"),
        ("anchors", "--batch-size", "0", "batch_size and max_samples must be >= 1"),
        ("anchors", "--limit", "0", "limit must be a positive integer, got 0"),
        ("anchors", "--limit", "-1", "limit must be a positive integer, got -1"),
        ("train", "--epochs", "0", "epochs must be a positive integer, got 0"),
        ("train", "--epochs", "-2", "epochs must be a positive integer, got -2"),
        ("train", "--val-fraction", "-0.5", "val_fraction out of range: -0.5"),
        ("train", "--val-fraction", "1", "val_fraction out of range: 1.0"),
        ("train", "--learning-rate", "-1",
         "learning_rate must be non-negative, got -1.0"),
        ("train", "--l2", "-0.1", "l2 must be non-negative, got -0.1"),
        ("topk", "--external-batch-size", "0",
         "external_batch_size must be a positive integer, got 0"),
        ("topk", "--timeout", "0", "timeout must be positive, got 0.0"),
        ("anchors", "--timeout", "-1", "timeout must be positive, got -1.0"),
    ]

    @pytest.mark.parametrize("command, flag, value, message", OUT_OF_RANGE,
                             ids=[f"{c} {f} {v}" for c, f, v, _ in OUT_OF_RANGE])
    def test_out_of_range_value_is_a_config_error(self, workspace, capsys, command,
                                                  flag, value, message):
        """Exit 2 before the corpus loads: the corpus file does not exist."""
        required = {"train": ("--out", "m.json"),
                    "topk": ("--model", "m.json", "--class", "pos", "--seed", "7"),
                    "anchors": ("--model", "m.json", "--seed", "7", "--out", "a.jsonl")}
        assert run(command, "--corpus", "missing.jsonl", "--format", "jsonl",
                   *required[command], flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    # each command's required flags, with a value, and the flags a run of it
    # needs besides them
    REQUIRED = {"train": {"--corpus": "c.jsonl", "--out": "m.json"},
                "synth": {"--out": "c.jsonl"},
                "topk": {"--corpus": "c.jsonl", "--seed": "7", "--class": "pos"},
                "anchors": {"--corpus": "c.jsonl", "--seed": "7", "--out": "a.jsonl"},
                "eval-aopc": {"--corpus": "c.jsonl"},
                "compare": {"--corpus": "c.jsonl"}}
    OTHERS = {"topk": ("--model", "m.json"), "anchors": ("--model", "m.json"),
              "eval-aopc": ("--model", "m.json", "--terms", "t.json"),
              "compare": ("t.json", "--model", "m.json")}
    REQUIRED_CASES = [(c, f) for c, flags in REQUIRED.items() for f in flags]

    def test_required_flags_are_the_declared_ones(self):
        from anchoragg.cli import build_parser

        commands = build_parser()._subparsers._group_actions[0].choices
        assert {c: set(p.get_default("required")) for c, p in commands.items()} \
            == {c: set(flags) for c, flags in self.REQUIRED.items()}

    @pytest.mark.parametrize("command, flag", REQUIRED_CASES,
                             ids=[f"{c} {f}" for c, f in REQUIRED_CASES])
    def test_missing_required_flag(self, workspace, capsys, command, flag):
        """Exit 2 before any input is read: no input file exists."""
        argv = [x for f, v in self.REQUIRED[command].items() if f != flag
                for x in (f, v)]
        assert run(command, *argv, *self.OTHERS.get(command, ())) == 2
        assert capsys.readouterr().err == f"error: {flag} is required\n"

    def test_empty_setting_is_unset_and_seed_0_is_set(self, workspace, capsys):
        Path("cfg.json").write_text(json.dumps({"out": ""}))
        assert run("synth", "--config", "cfg.json") == 2
        assert capsys.readouterr().err == "error: --out is required\n"
        assert run("anchors", "--corpus", "c.jsonl", "--model", "m.json",
                   "--seed", "0", "--out", "a.jsonl") == 2
        assert capsys.readouterr().err == "error: model file not found: m.json\n"

    MISSING_OUTPUT_DIR = [
        ("train", ("--corpus", "c.jsonl", "--out", "nodir/m.json"), "--out"),
        ("synth", ("--out", "c.jsonl", "--truth", "nodir/t.json"), "--truth"),
        ("synth", ("--out", "c.jsonl", "--manifest", "nodir/run.json"), "--manifest"),
        ("topk", ("--corpus", "c.jsonl", "--model", "m.json", "--class", "pos",
                  "--seed", "7", "--terms", "nodir/t.json"), "--terms"),
        ("anchors", ("--corpus", "c.jsonl", "--model", "m.json", "--seed", "7",
                     "--out", "nodir/a.jsonl"), "--out"),
        ("eval-aopc", ("--corpus", "c.jsonl", "--model", "m.json", "--snapshots",
                       "s.jsonl", "--class", "pos", "--timeline-out", "nodir/t.csv"),
         "--timeline-out"),
        ("compare", ("t.json", "--corpus", "c.jsonl", "--model", "m.json",
                     "--out-prefix", "nodir/cmp"), "--out-prefix"),
    ]

    @pytest.mark.parametrize("command, argv, flag", MISSING_OUTPUT_DIR,
                             ids=[f"{c} {f}" for c, _, f in MISSING_OUTPUT_DIR])
    def test_output_directory_must_exist(self, workspace, capsys, command, argv, flag):
        """Exit 2 before any input is read or output written: no input file
        exists, and synth writes no corpus."""
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == f"error: {flag} directory not found: nodir\n"
        assert not Path("c.jsonl").exists()

    def test_every_option_is_a_recorded_setting(self, workspace):
        """Each command's manifest records one setting per option of its
        parser, --help and --config aside."""
        import argparse

        from anchoragg.cli import build_parser

        commands = next(a for a in build_parser()._actions
                        if isinstance(a, argparse._SubParsersAction)).choices
        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        inputs = ("--corpus", "c.jsonl", "--format", "jsonl", "--model", "m.json")
        assert run("anchors", *inputs, "--seed", "7", "--limit", "1",
                   "--out", "a.jsonl") == 0
        assert run("eval-aopc", *inputs, "--terms", "terms.json", "--out", "e.json") == 0
        assert run("compare", "terms.json", *inputs, "--out-prefix", "cmp") == 0
        manifests = {"synth": "c.jsonl", "train": "m.json", "topk": "run.json",
                     "anchors": "a.jsonl", "eval-aopc": "e.json", "compare": "cmp.json"}
        assert set(manifests) == set(commands)
        for command, out in manifests.items():
            path = out if out == "run.json" else f"{out}.manifest.json"
            dests = {a.dest for a in commands[command]._actions if a.option_strings}
            assert set(self._config(path)) == dests - {"help", "config"}, command


class TestAnchorsCommand:
    def test_trace_output(self, workspace):
        synth_and_train(workspace, docs=40)
        code = run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--seed", "2",
                   "--max-samples", "10", "--limit", "3", "--out", "anch.jsonl")
        assert code == 0
        rows = jsonl("anch.jsonl")
        assert len({r["doc"] for r in rows}) == 3
        assert all(isinstance(r["anchor"], bool) for r in rows)

    def test_predictor_calls_are_documents_plus_samples(self, workspace):
        """The manifest's count is the distinct documents classified plus
        the samples of every trace row, and the rows the service scored."""
        import sys as _sys

        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        corpus = load_corpus("c.jsonl", format="jsonl")
        (workspace / "pred.py").write_text(
            TestExternalBackendsViaCli.PRED.replace(
                "    req = json.loads(line)\n",
                "    req = json.loads(line)\n"
                "    open('rows.log', 'a').write(f\"{len(req['texts'])}\\n\")\n"))
        assert run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py", "--seed", "2",
                   "--max-samples", "20", "--limit", "4", "--out", "anch.jsonl") == 0
        rows = jsonl("anch.jsonl")
        calls = json.loads(Path("anch.jsonl.manifest.json").read_text())[
            "predictor_calls"]
        assert calls == len({d.words for d in corpus}) + sum(r["samples"] for r in rows)
        assert calls == sum(map(int, Path("rows.log").read_text().split()))


    def test_empty_document_of_the_class_is_not_counted(self, workspace):
        """An empty document is dropped before --limit: the manifest counts
        the documents written."""
        from anchoragg.model import load_model

        synth_and_train(workspace, docs=40, epochs=50)
        label = load_model("m.json").predict_words(())
        with open("c.jsonl", "a") as handle:
            handle.write(json.dumps({"id": "empty", "text": "", "label": label}) + "\n")
        for limit, written in (((), None), (("--limit", "1"), 1)):
            assert run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                       "--model", "m.json", "--class", label, "--seed", "2",
                       "--max-samples", "10", *limit, "--out", "a.jsonl") == 0
            docs = {row["doc"] for row in jsonl("a.jsonl")}
            manifest = json.loads(Path("a.jsonl.manifest.json").read_text())
            assert manifest["documents"] == len(docs) == (written or len(docs))
            assert "empty" not in docs

    @pytest.mark.parametrize("command, out", [("topk", "--terms"), ("anchors", "--out")])
    def test_model_of_other_classes_names_both_class_sets(self, workspace, capsys,
                                                          command, out):
        synth_and_train(workspace, docs=20, epochs=20)
        renamed = {"pos": "yes", "neg": "no"}
        rows = jsonl("c.jsonl")
        with open("yn.jsonl", "w") as handle:
            for row in rows:
                handle.write(json.dumps({**row, "label": renamed[row["label"]]}) + "\n")
        assert run(command, "--corpus", "yn.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "yes", "--seed", "2",
                   "--max-samples", "10", out, "out.json") == 3
        assert capsys.readouterr().err == (
            "runtime failure: predictor classes ('neg', 'pos') do not match "
            "corpus classes ('no', 'yes')\n")


class TestEvalAndCompare:
    def test_eval_aopc(self, workspace):
        synth_and_train(workspace)
        TestTopk()._topk()
        code = run("eval-aopc", "--terms", "terms.json", "--corpus", "c.jsonl",
                   "--format", "jsonl", "--model", "m.json", "--out", "aopc.json")
        assert code == 0
        payload = json.loads((workspace / "aopc.json").read_text())
        assert payload["class"] == "pos"
        assert len(payload["per_prefix"]) == payload["k"]

    def test_compare_self_diagonal(self, workspace):
        synth_and_train(workspace)
        TestTopk()._topk()
        code = run("compare", "terms.json", "terms.json",
                   "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--out-prefix", "cmp")
        assert code == 0
        payload = json.loads((workspace / "cmp.json").read_text())
        assert payload["shared"][0][1] == 1.0
        assert (workspace / "cmp_shared.csv").exists()
        assert (workspace / "cmp_aopc.csv").exists()

    def test_malformed_terms_file(self, workspace):
        synth_and_train(workspace, docs=40)
        (workspace / "bad.json").write_text("{\"not\": \"terms\"}")
        assert run("eval-aopc", "--terms", "bad.json", "--corpus", "c.jsonl",
                   "--format", "jsonl", "--model", "m.json") == 2
        assert run("compare", "bad.json", "--corpus", "c.jsonl",
                   "--format", "jsonl", "--model", "m.json") == 2


class TestMalformedInputs:
    @pytest.mark.parametrize("edit, message", [
        (lambda m: m.pop("bias"), "model file lacks bias"),
        (lambda m: m.pop("classes"), "model file lacks classes"),
        (lambda m: m["hyperparams"].update(bogus=1), "invalid parameter 'bogus'"),
        (lambda m: m.update(hyperparams=[1]), "hyperparams is not an object"),
        (lambda m: m.update(classes="np"), "classes is not a list of distinct strings"),
        (lambda m: m["vocabulary"].__setitem__(1, m["vocabulary"][0]),
         "vocabulary is not a list of distinct strings"),
    ], ids=["no bias", "no classes", "unknown hyperparameter", "hyperparams a list",
            "classes a string", "repeated word"])
    @pytest.mark.parametrize("command", ["topk", "eval-aopc"])
    def test_model_file(self, workspace, capsys, edit, message, command):
        synth_and_train(workspace, docs=20, epochs=20)
        TermList.from_pairs("pos", "sq", [("gsig", 1.0)]).save("terms.json")
        model = json.loads(Path("m.json").read_text())
        edit(model)
        Path("m.json").write_text(json.dumps(model))
        flags = {"topk": ("--class", "pos", "--seed", "7"),
                 "eval-aopc": ("--terms", "terms.json")}[command]
        assert run(command, "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", *flags) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed model file m.json: ") and message in err

    @pytest.mark.parametrize("line, message", [
        ("{not json", "Expecting property name"),
        ('{"t_sec": 0.1, "calls": 5}', "lacks 'topk'"),
        ('{"calls": 5, "topk": []}', "lacks 't_sec'"),
        ('{"t_sec": 0.1, "topk": []}', "lacks 'calls'"),
        ('{"t_sec": 0.1, "calls": 5, "topk": [{"score": 1}]}', "lacks 'word'"),
        ('[1, 2]', "list indices must be integers"),
        ('{"t_sec": 0.1, "calls": 5, "topk": [{"word": "gsig", "score": 1},'
         ' {"word": "gsig", "score": 0.5}]}', "at t_sec 0.1 lists a word twice"),
        ('{"t_sec": 0, "calls": 1, "topk": [{"word": 5, "score": 1}]}',
         "a word that is not a string"),
    ])
    def test_snapshot_log(self, workspace, capsys, line, message):
        synth_and_train(workspace, docs=20, epochs=20)
        good = {"t_sec": 0.0, "calls": 1, "doc_index": 1,
                "topk": [{"word": "gsig", "score": 1.0}]}
        Path("snaps.jsonl").write_text(json.dumps(good) + "\n" + line + "\n")
        assert run("eval-aopc", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--snapshots", "snaps.jsonl",
                   "--class", "pos") == 2
        err = capsys.readouterr().err
        assert err.startswith("error: malformed snapshot log snaps.jsonl: ")
        assert message in err
        assert not Path("snaps.jsonl.csv").exists()


    DIRECTORY_INPUTS = [
        ("--config", "config file", ("topk",)),
        ("--corpus", "corpus file", ("train", "--out", "m.json")),
        ("--freq-corpus", "corpus file", ("topk", "--model", "m.json", "--seed", "7",
                                          "--class", "pos")),
        ("--model", "model file", ("anchors", "--seed", "7", "--out", "a.jsonl")),
        ("--terms", "terms file", ("eval-aopc", "--model", "m.json")),
        ("--snapshots", "snapshot log", ("eval-aopc", "--model", "m.json",
                                         "--class", "pos")),
        ("--stopword-file", "stop-word file", ("topk", "--model", "m.json",
                                               "--seed", "7", "--class", "pos")),
    ]

    @pytest.mark.parametrize("flag, what, argv", DIRECTORY_INPUTS,
                             ids=[f for f, _, _ in DIRECTORY_INPUTS])
    def test_directory_input(self, workspace, capsys, flag, what, argv):
        """A directory given as an input exits 2 naming that input, before
        the corpus is read: the corpus file does not exist."""
        synth_and_train(workspace, docs=20, epochs=20)
        name = flag.strip("-")
        Path(name).mkdir()
        corpus = () if flag == "--corpus" else ("--corpus", "missing.jsonl")
        assert run(*argv, *corpus, flag, name) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {what} {name}: ")


class TestTimelineAndFreqCorpus:
    def test_timeline_csv_from_snapshots(self, workspace):
        synth_and_train(workspace)
        TestTopk()._topk()
        code = run("eval-aopc", "--snapshots", "snaps.jsonl", "--class", "pos",
                   "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--timeline-out", "timeline.csv")
        assert code == 0
        lines = (workspace / "timeline.csv").read_text().strip().splitlines()
        assert lines[0] == "t_sec,calls,aopc"
        assert len(lines) > 1

    def test_manifest_beside_the_timeline_without_out(self, workspace):
        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        eval_aopc = ("eval-aopc", "--snapshots", "snaps.jsonl", "--class", "pos",
                     "--corpus", "c.jsonl", "--format", "jsonl", "--model", "m.json")
        assert run(*eval_aopc) == 0
        assert json.loads(Path("snaps.jsonl.csv.manifest.json").read_text())[
            "command"] == "eval-aopc"
        assert run(*eval_aopc, "--timeline-out", "t.csv") == 0
        assert Path("t.csv.manifest.json").exists()
        assert not Path("run.manifest.json").exists()

    def test_freq_corpus_feeds_rare_threshold(self, workspace):
        synth_and_train(workspace)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "3",
                   "--agg", "pr", "--seed", "2", "--max-samples", "10",
                   "--profile", "optimized", "--freq-corpus", "c.jsonl",
                   "--terms", "tf.json")
        assert code == 0

    def test_stopword_file_keeps_its_words_out(self, workspace):
        """--stopword-file replaces the shipped list: a planted word it names
        is neither a candidate (the --counts rows) nor a term."""
        from anchoragg.synth import PlantedTruth

        synth_and_train(workspace, docs=40, epochs=50)

        def candidates_and_terms(*flags):
            assert run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                       "--model", "m.json", "--class", "pos", "--k", "5",
                       "--seed", "2", "--max-samples", "10", "--stop-rare-filtering",
                       "--terms", "terms.json", "--counts", "counts.jsonl",
                       *flags) == 0
            words = {row["word"] for row in jsonl("counts.jsonl")}
            return words, TermList.load("terms.json").words

        words, terms = candidates_and_terms()
        planted = terms[0]
        assert planted in PlantedTruth.load("t.json").signal["pos"] and planted in words
        Path("stop.txt").write_text(f"# planted\n{planted.upper()}\n")
        words, terms = candidates_and_terms("--stopword-file", "stop.txt")
        assert planted not in words and planted not in terms

    def test_missing_stopword_file(self, workspace, capsys):
        synth_and_train(workspace, docs=20, epochs=20)
        assert run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--seed", "2",
                   "--stopword-file", "missing.txt") == 2
        assert capsys.readouterr().err == \
            "error: stop-word file not found: missing.txt\n"

    def test_counts_score_as_the_run_under_a_frequency_corpus(self, workspace):
        """--counts writes the scores the run ranked by: ``av_minfreq`` bars
        words by their counts in --freq-corpus, not in --corpus."""
        synth_and_train(workspace, docs=40, epochs=50)
        assert run("synth", "--out", "f.jsonl", "--docs", "150", "--seed", "5") == 0
        assert run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "5",
                   "--agg", "av_minfreq", "--min-freq", "3", "--seed", "2",
                   "--max-samples", "10", "--freq-corpus", "f.jsonl",
                   "--terms", "terms.json", "--counts", "counts.jsonl") == 0
        scores = {row["word"]: row["score"] for row in
                  map(json.loads, Path("counts.jsonl").read_text().splitlines())}
        terms = TermList.load("terms.json")
        assert len(terms) == 5
        assert [scores[w] for w, _ in terms.items] == [s for _, s in terms.items]


class TestExternalBackendsViaCli:
    PRED = ("import json, sys\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    probs = [[0.1, 0.9] if 'gsig' in t else [0.8, 0.2]"
            " for t in req['texts']]\n"
            "    print(json.dumps({'probs': probs, 'classes': ['neg', 'pos']}),"
            " flush=True)\n")
    PERT = ("import json, sys\n"
            "for line in sys.stdin:\n"
            "    req = json.loads(line)\n"
            "    rows = [[{'word': 'blank', 'weight': 1.0}]"
            " for _ in req['masked_positions']]\n"
            "    print(json.dumps({'candidates': rows}), flush=True)\n")

    SERVICE_RUNS = [
        ("topk", ("--perturb-cmd", "pert.py", "--class", "pos", "--seed", "5",
                  "--max-samples", "4", "--batch-size", "2"), 0, ("pred", "pert")),
        ("anchors", ("--seed", "5", "--max-samples", "4", "--limit", "2",
                     "--out", "a.jsonl"), 0, ("pred",)),
        ("eval-aopc", ("--terms", "terms.json"), 0, ("pred",)),
        ("compare", ("terms.json",), 0, ("pred",)),
        # a service of other classes than the corpus's: fails once it started
        ("topk", ("--class", "pos", "--seed", "5"), 3, ("pred",)),
    ]

    @pytest.mark.parametrize("command, flags, code, services", SERVICE_RUNS,
                             ids=["topk", "anchors", "eval-aopc", "compare",
                                  "topk-failing"])
    def test_services_are_closed(self, workspace, command, flags, code, services):
        """Every service a run starts is closed when the run ends: each
        leaves a marker once its input ends."""
        import sys as _sys

        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        TermList.from_pairs("pos", "sq", [("gsig", 1.0)]).save("terms.json")
        pred = self.PRED if code == 0 else \
            self.PRED.replace("['neg', 'pos']", "['no', 'yes']")
        (workspace / "pred.py").write_text(pred + "open('pred.marker', 'w').close()\n")
        (workspace / "pert.py").write_text(
            self.PERT + "open('pert.marker', 'w').close()\n")
        flags = [f"{_sys.executable} {f}" if f.endswith(".py") else f for f in flags]
        assert run(command, "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py", *flags) == code
        for service in services:
            assert (workspace / f"{service}.marker").exists(), service

    def test_topk_with_external_predictor_and_perturbator(self, workspace):
        import sys as _sys

        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        (workspace / "pred.py").write_text(self.PRED)
        (workspace / "pert.py").write_text(self.PERT)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py",
                   "--perturb-cmd", f"{_sys.executable} pert.py",
                   "--class", "pos", "--k", "3", "--agg", "sq",
                   "--seed", "5", "--max-samples", "10", "--batch-size", "5",
                   "--threads", "1", "--terms", "ext_terms.json")
        assert code == 0
        terms = TermList.load("ext_terms.json")
        assert len(terms) == 3


    @pytest.mark.parametrize("flags, zeta", [
        (("--profile", "optimized"), 50),
        (("--profile", "baseline"), 500),
        (("--profile", "optimized", "--zeta", "7"), 7),
    ])
    def test_external_perturbator_gets_resolved_zeta(self, workspace, flags, zeta):
        import sys as _sys

        synth_and_train(workspace, docs=20, seed=3, epochs=50)
        (workspace / "pert.py").write_text(
            self.PERT.replace("    req = json.loads(line)\n",
                              "    req = json.loads(line)\n"
                              "    open('zeta.log', 'a').write(f\"{req['zeta']}\\n\")\n"))
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--perturb-cmd", f"{_sys.executable} pert.py",
                   "--class", "pos", "--k", "3", "--seed", "5",
                   "--max-samples", "2", "--batch-size", "2", "--min-freq", "1",
                   "--threads", "1", *flags)
        assert code == 0
        sent = (workspace / "zeta.log").read_text().split()
        assert sent and set(sent) == {str(zeta)}

    def test_topk_sends_the_corpus_in_batches(self, workspace):
        import math
        import sys as _sys

        from anchoragg.corpus import load_corpus

        assert run("synth", "--out", "c.jsonl", "--docs", "22", "--seed", "3") == 0
        (workspace / "pred.py").write_text(
            self.PRED.replace("    req = json.loads(line)\n",
                              "    req = json.loads(line)\n"
                              "    open('texts.log', 'a').write(line)\n"))
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py",
                   "--external-batch-size", "4",
                   "--class", "pos", "--k", "3", "--agg", "sq", "--seed", "5",
                   "--max-samples", "8", "--batch-size", "4", "--threads", "1")
        assert code == 0
        requests = [json.loads(l)["texts"]
                    for l in (workspace / "texts.log").read_text().splitlines()]
        corpus = load_corpus("c.jsonl", format="jsonl")
        first = requests[:math.ceil(len(corpus) / 4)]
        assert [t for texts in first for t in texts] == \
            [" ".join(d.words) for d in corpus]
        assert all(len(texts) > 1 for texts in requests)

    def test_hung_service_exits_3(self, workspace, capsys):
        import sys as _sys

        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        TermList.from_pairs("pos", "sq", [("gsig", 1.0)]).save("terms.json")
        (workspace / "pred.py").write_text(
            "import sys, time\nsys.stdin.readline()\ntime.sleep(60)\n")
        code = run("eval-aopc", "--terms", "terms.json", "--corpus", "c.jsonl",
                   "--format", "jsonl", "--timeout", "0.5",
                   "--external-cmd", f"{_sys.executable} pred.py")
        assert code == 3
        assert "did not reply within 0.5 s" in capsys.readouterr().err


class TestImportFootprint:
    """The modules a command loads, run in a fresh interpreter: each loads
    what it runs, scipy is left to training, the transport and subprocess to
    the external clients, and no command loads a thread pool."""

    @staticmethod
    def _modules(code: str) -> set[str]:
        import subprocess
        import sys

        import anchoragg

        src = str(Path(anchoragg.__file__).resolve().parents[1])
        out = subprocess.run(
            [sys.executable, "-c",
             f"import json, sys\n{code}\nprint(json.dumps(sorted(sys.modules)))"],
            env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True,
            check=True)
        return set(json.loads(out.stdout.splitlines()[-1]))

    def _run(self, *argv) -> set[str]:
        return self._modules("from anchoragg.cli import main\n"
                             f"assert main({list(argv)!r}) == 0")

    EXTERNAL = {"anchoragg._transport", "subprocess", "concurrent.futures", "scipy"}

    def test_eval_aopc_loads_no_sampling_code(self, workspace):
        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        loaded = self._run("eval-aopc", "--terms", "terms.json", "--snapshots",
                           "snaps.jsonl", "--class", "pos", "--corpus", "c.jsonl",
                           "--format", "jsonl", "--model", "m.json", "--out", "a.json")
        assert "anchoragg.eval" in loaded
        sampling = {f"anchoragg.{m}" for m in ("topk", "anchor", "perturb", "aggregate",
                                               "synth", "seeding")}
        assert loaded.isdisjoint(sampling | self.EXTERNAL)

    def test_topk_loads_no_transport(self, workspace):
        synth_and_train(workspace, docs=40, epochs=50)
        loaded = self._run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                           "--model", "m.json", "--class", "pos", "--seed", "7",
                           "--max-samples", "10", "--profile", "optimized")
        assert "anchoragg.topk" in loaded
        assert loaded.isdisjoint(self.EXTERNAL | {"anchoragg.synth"})

    def test_external_topk_loads_no_thread_pool(self, workspace):
        import sys as _sys

        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        (workspace / "pred.py").write_text(TestExternalBackendsViaCli.PRED)
        loaded = self._run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                           "--external-cmd", f"{_sys.executable} pred.py",
                           "--external-batch-size", "4", "--class", "pos",
                           "--seed", "5", "--max-samples", "4")
        assert "anchoragg._transport" in loaded
        assert "concurrent.futures" not in loaded

    def test_public_names_resolve_on_first_use(self):
        assert not any(m.startswith("anchoragg.")
                       for m in self._modules("import anchoragg"))
        import anchoragg

        assert set(anchoragg.__all__) <= set(dir(anchoragg))
        for name in anchoragg.__all__:
            assert getattr(anchoragg, name) is not None
        with pytest.raises(AttributeError, match="no attribute 'bogus'"):
            anchoragg.bogus  # noqa: B018


class TestGoldenOutput:
    """A fixed baseline-profile run must reproduce its recorded outputs.

    The digest covers terms, counts, snapshots without ``t_sec`` and the
    per-token trace. It was recorded with the per-row sample path, so any
    change to the draws or to the order of the logit sum fails here.
    """

    DIGEST = "acbe769022e0edd2261ab32a83c3af347aafa7c15a15c342a4076efbaac061e5"
    EVAL_DIGEST = "5143f75c919cf93b5656351852b6f3ede2e933fe8d286ce7170671e5f8d43ecf"
    ANCHORS_DIGEST = "d2b4cc7992629ecfed5de32bcf9759af437fca27c3be7cfcb9ab880377708fb7"

    @staticmethod
    def _digest(ws) -> str:
        import hashlib

        jsonl = lambda name: [json.loads(l) for l in
                              (ws / name).read_text().splitlines() if l]
        snapshots = jsonl("snaps.jsonl")
        for snap in snapshots:
            del snap["t_sec"]
        content = {"terms": json.loads((ws / "terms.json").read_text()),
                   "counts": jsonl("counts.jsonl"), "snapshots": snapshots,
                   "trace": jsonl("trace.jsonl")}
        blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    @staticmethod
    def _baseline_topk():
        assert run("synth", "--out", "c.jsonl", "--truth", "t.json",
                   "--docs", "40", "--seed", "1") == 0
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json", "--seed", "0") == 0
        assert run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "10",
                   "--agg", "pr", "--alpha", "0.5", "--profile", "baseline",
                   "--seed", "7", "--threads", "1", "--terms", "terms.json",
                   "--snapshots", "snaps.jsonl", "--counts", "counts.jsonl",
                   "--trace", "trace.jsonl") == 0

    def test_anchors_trace_digest(self, workspace):
        """sha256 of a docs-40 ``anchors --seed 7`` trace, recorded when
        every sample was a tuple of words."""
        import hashlib

        assert run("synth", "--out", "c.jsonl", "--docs", "40", "--seed", "1") == 0
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json", "--seed", "0") == 0
        assert run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--seed", "7", "--out", "anchors.jsonl") == 0
        trace = (workspace / "anchors.jsonl").read_bytes()
        assert len(trace.splitlines()) == 628
        assert hashlib.sha256(trace).hexdigest() == self.ANCHORS_DIGEST

    def test_baseline_topk_digest(self, workspace):
        self._baseline_topk()
        assert self._digest(workspace) == self.DIGEST

    def test_eval_aopc_timeline_digest(self, workspace):
        """``aopc.json`` and the timeline CSV without ``t_sec``, recorded
        when every snapshot was scored on its own: the 22 snapshots hold 16
        distinct lists, so memoized lists and removal rows must reproduce
        every value bit for bit."""
        import csv
        import hashlib

        self._baseline_topk()
        assert run("eval-aopc", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--terms", "terms.json",
                   "--snapshots", "snaps.jsonl", "--class", "pos",
                   "--out", "aopc.json", "--timeline-out", "timeline.csv") == 0
        with open(workspace / "timeline.csv", newline="") as handle:
            timeline = [row[1:] for row in csv.reader(handle)]
        assert len(timeline) == 23
        content = {"aopc": json.loads((workspace / "aopc.json").read_text()),
                   "timeline": timeline}
        blob = json.dumps(content, sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(blob.encode("utf-8")).hexdigest() == self.EVAL_DIGEST
