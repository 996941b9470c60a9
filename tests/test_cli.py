import json
import os
import threading
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

    def test_diverging_training_is_a_config_error(self, workspace, capsys):
        """A finite learning rate that drives the weights to NaN writes no
        model."""
        assert run("synth", "--out", "c.jsonl", "--docs", "40", "--seed", "1") == 0
        capsys.readouterr()
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json", "--learning-rate", "1e300") == 2
        assert capsys.readouterr().err == ("error: training diverged to non-finite "
                                           "weights (learning_rate or l2 too large)\n")
        assert not (workspace / "m.json").exists()

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

    @pytest.mark.parametrize("docs", ["2", "5", "7"])
    def test_too_few_documents_for_the_singletons(self, workspace, capsys, docs):
        assert run("synth", "--out", "c.jsonl", "--docs", docs) == 2
        assert capsys.readouterr().err == \
            "error: n_docs too small for the requested singleton documents\n"
        assert not (workspace / "c.jsonl").exists()


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
        assert manifest["predictor_requests"] == 0  # an in-process model
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

    def test_h_aggregation_is_refused(self, workspace, capsys):
        """``h`` damps by the entropy of every class's tallies, but ``topk``
        tallies only ``--class``: exit 2 before any input is read, by flag
        or by config file (the corpus and model files do not exist)."""
        message = ("error: aggregation 'h' needs the anchor tallies of every "
                   "class; topk tallies only --class\n")
        assert run("topk", "--corpus", "missing.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--seed", "7",
                   "--agg", "h", "--terms", "t.json") == 2
        assert capsys.readouterr().err == message
        (workspace / "cfg.json").write_text(json.dumps({
            "corpus": "missing.jsonl", "format": "jsonl", "model": "m.json",
            "class_label": "pos", "seed": 7, "agg": "h", "terms": "t.json"}))
        assert run("topk", "--config", "cfg.json") == 2
        assert capsys.readouterr().err == message
        assert not (workspace / "t.json").exists()

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

    def test_sample_that_keeps_no_document(self, workspace, capsys):
        """A config error, before any anchor test: no snapshot log is opened."""
        synth_and_train(workspace, docs=60, epochs=20)
        assert run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--seed", "7",
                   "--sample-fraction", "0.001", "--snapshots", "snaps.jsonl") == 2
        assert capsys.readouterr().err.endswith(
            "error: sample_fraction 0.001 keeps none of the 60 documents\n")
        assert not Path("snaps.jsonl").exists()

    def test_trace_rows_of_unsampled_tokens(self, workspace):
        """Stop/rare skipping leaves tokens unsampled: their rows read no
        anchor, no precision and no samples. A sampled row's precision is
        its hits over its samples."""
        synth_and_train(workspace)
        assert self._topk(extra=("--profile", "optimized")) == 0
        rows = jsonl("trace.jsonl")
        unsampled = [r for r in rows if r["samples"] == 0]
        assert unsampled and len(unsampled) < len(rows)
        assert all(r["anchor"] is False and r["precision"] is None for r in unsampled)
        for r in rows:
            if r["samples"]:
                hits = r["precision"] * r["samples"]
                assert 0 <= r["precision"] <= 1 and hits == pytest.approx(round(hits))

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
                  "external_cmd": None, "timeout": 30.0, "external_batch_size": 4096}
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
        ("train", "--learning-rate", "inf", "learning_rate must be finite, got inf"),
        ("train", "--l2", "inf", "l2 must be finite, got inf"),
        ("topk", "--external-batch-size", "0",
         "external_batch_size must be a positive integer, got 0"),
        ("topk", "--timeout", "0", "timeout must be positive, got 0.0"),
        ("anchors", "--timeout", "-1", "timeout must be positive, got -1.0"),
        ("topk", "--timeout", "inf", "timeout must be finite, got inf"),
        # beyond the longest wait ``select`` takes
        ("topk", "--timeout", "1e10",
         f"timeout must be at most {threading.TIMEOUT_MAX} s, got 10000000000.0"),
        ("topk", "--timeout", "1e300",
         f"timeout must be at most {threading.TIMEOUT_MAX} s, got 1e+300"),
        ("eval-aopc", "--timeout", "1e10",
         f"timeout must be at most {threading.TIMEOUT_MAX} s, got 10000000000.0"),
    ]

    RANGE_REQUIRED = {
        "train": ("--out", "m.json"),
        "topk": ("--model", "m.json", "--class", "pos", "--seed", "7"),
        "anchors": ("--model", "m.json", "--seed", "7", "--out", "a.jsonl"),
        "eval-aopc": ("--model", "m.json", "--terms", "t.json")}

    @pytest.mark.parametrize("command, flag, value, message", OUT_OF_RANGE,
                             ids=[f"{c} {f} {v}" for c, f, v, _ in OUT_OF_RANGE])
    def test_out_of_range_value_is_a_config_error(self, workspace, capsys, command,
                                                  flag, value, message):
        """Exit 2 before the corpus loads: the corpus file does not exist."""
        assert run(command, "--corpus", "missing.jsonl", "--format", "jsonl",
                   *self.RANGE_REQUIRED[command], flag, value) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("command, key", [("train", "learning_rate"),
                                              ("topk", "timeout")])
    def test_int_too_large_for_a_float_is_a_config_error(self, workspace, capsys,
                                                         command, key):
        """A config file's integer beyond any float is not finite: exit 2
        before the corpus loads."""
        huge = 10 ** 400
        Path("cfg.json").write_text(json.dumps({key: huge}))
        assert run(command, "--corpus", "missing.jsonl", "--format", "jsonl",
                   *self.RANGE_REQUIRED[command], "--config", "cfg.json") == 2
        assert capsys.readouterr().err == f"error: {key} must be finite, got {huge}\n"

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

    DIRECTORY_OUTPUTS = [
        ("train", ("--corpus", "c.jsonl", "--out", "outdir"), "--out"),
        ("synth", ("--out", "c.jsonl", "--truth", "outdir"), "--truth"),
        ("topk", ("--corpus", "c.jsonl", "--model", "m.json", "--class", "pos",
                  "--seed", "7", "--trace", "outdir"), "--trace"),
        ("anchors", ("--corpus", "c.jsonl", "--model", "m.json", "--seed", "7",
                     "--out", "outdir"), "--out"),
        ("eval-aopc", ("--corpus", "c.jsonl", "--model", "m.json", "--terms",
                       "t.json", "--out", "outdir"), "--out"),
        ("compare", ("t.json", "--corpus", "c.jsonl", "--model", "m.json",
                     "--manifest", "outdir"), "--manifest"),
    ]

    @pytest.mark.parametrize("command, argv, flag", DIRECTORY_OUTPUTS,
                             ids=[f"{c} {f}" for c, _, f in DIRECTORY_OUTPUTS])
    def test_output_that_is_a_directory(self, workspace, capsys, command, argv, flag):
        """Exit 2 before any input is read or output written: no input file
        exists, and synth writes no corpus."""
        Path("outdir").mkdir()
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == f"error: {flag} is a directory: outdir\n"
        assert not Path("c.jsonl").exists()

    DIRECTORY_MANIFESTS = [
        ("train", ("--corpus", "c.jsonl", "--out", "m3.json"), "m3.json"),
        ("synth", ("--out", "c.jsonl"), "c.jsonl"),
        ("topk", ("--corpus", "c.jsonl", "--model", "m.json", "--class", "pos",
                  "--seed", "7", "--terms", "t.json"), "t.json"),
        ("anchors", ("--corpus", "c.jsonl", "--model", "m.json", "--seed", "7",
                     "--out", "a.jsonl"), "a.jsonl"),
        ("eval-aopc", ("--corpus", "c.jsonl", "--model", "m.json", "--snapshots",
                       "s.jsonl", "--class", "pos"), "s.jsonl.csv"),
        ("compare", ("t.json", "--corpus", "c.jsonl", "--model", "m.json"),
         "compare.json"),
    ]

    @pytest.mark.parametrize("command, argv, beside", DIRECTORY_MANIFESTS,
                             ids=[c for c, _, _ in DIRECTORY_MANIFESTS])
    def test_default_manifest_that_is_a_directory(self, workspace, capsys, command,
                                                  argv, beside):
        """Without --manifest the manifest goes beside the primary output;
        a directory there is an exit 2 before any input is read or output
        written."""
        Path(f"{beside}.manifest.json").mkdir()
        assert run(command, *argv) == 2
        assert capsys.readouterr().err == \
            f"error: manifest is a directory: {beside}.manifest.json\n"
        assert not Path(beside).exists()

    def test_train_writes_no_model_beside_a_directory_manifest(self, workspace, capsys):
        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "1") == 0
        Path("m3.json.manifest.json").mkdir()
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m3.json", "--epochs", "5") == 2
        assert capsys.readouterr().err.endswith(
            "error: manifest is a directory: m3.json.manifest.json\n")
        assert not Path("m3.json").exists()

    def test_default_timeline_that_is_a_directory(self, workspace, capsys):
        """Without --timeline-out the timeline goes beside the snapshot log;
        a directory there is an exit 2 before any snapshot is scored."""
        synth_and_train(workspace, docs=40, epochs=50)
        assert TestTopk()._topk() == 0
        Path("snaps.jsonl.csv").mkdir()
        assert run("eval-aopc", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--snapshots", "snaps.jsonl",
                   "--class", "pos", "--out", "a.json") == 2
        assert capsys.readouterr().err.endswith(
            "error: timeline is a directory: snaps.jsonl.csv\n")
        assert not Path("a.json.manifest.json").exists()

    @pytest.mark.parametrize("suffix", [".json", "_shared.csv", "_aopc.csv"])
    def test_compare_output_that_is_a_directory(self, workspace, capsys, suffix):
        """Each file named after --out-prefix is checked before any input is
        read: the terms file does not exist."""
        Path(f"cmp{suffix}").mkdir()
        assert run("compare", "t.json", "--corpus", "c.jsonl", "--model", "m.json",
                   "--out-prefix", "cmp") == 2
        assert capsys.readouterr().err == f"error: output is a directory: cmp{suffix}\n"

    def test_out_prefix_may_be_a_directory(self, workspace, capsys):
        Path("outdir").mkdir()
        assert run("compare", "t.json", "--corpus", "c.jsonl", "--model", "m.json",
                   "--out-prefix", "outdir") == 2
        assert capsys.readouterr().err == "error: terms file not found: t.json\n"

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

    def test_every_manifest_records_cpu_beside_wall_seconds(self, workspace):
        """Each command records the CPU seconds of its own process over the
        span its wall seconds cover; the time a service takes is not in
        them."""
        import sys as _sys

        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        inputs = ("--corpus", "c.jsonl", "--format", "jsonl", "--model", "m.json")
        assert run("anchors", *inputs, "--seed", "7", "--limit", "1",
                   "--out", "a.jsonl") == 0
        assert run("eval-aopc", *inputs, "--terms", "terms.json", "--out", "e.json") == 0
        assert run("compare", "terms.json", *inputs, "--out-prefix", "cmp") == 0
        for path in ("c.jsonl.manifest.json", "m.json.manifest.json", "run.json",
                     "a.jsonl.manifest.json", "e.json.manifest.json",
                     "cmp.json.manifest.json"):
            manifest = json.loads(Path(path).read_text())
            assert 0 <= manifest["cpu_seconds"], path
            assert 0 <= manifest["wall_seconds"], path
        # a service that sleeps 0.2 s per request
        (workspace / "pred.py").write_text(TestExternalBackendsViaCli.PRED.replace(
            "    req = json.loads(line)\n",
            "    req = json.loads(line)\n    __import__('time').sleep(0.2)\n"))
        assert run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py", "--seed", "7",
                   "--limit", "1", "--out", "x.jsonl") == 0
        manifest = json.loads(Path("x.jsonl.manifest.json").read_text())
        waited = 0.2 * manifest["predictor_requests"]
        assert manifest["wall_seconds"] - manifest["cpu_seconds"] >= 0.9 * waited

    def test_documents_dropped_by_max_chars_are_reported(self, workspace, capsys):
        """Every command that reads a corpus says on stderr how many
        documents ``--max-chars`` dropped, records the count in its
        manifest, and still succeeds."""
        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        lines = Path("c.jsonl").read_text().splitlines()
        long_doc = {"id": "long", "text": "word " * 60, "label": "pos"}
        Path("long.jsonl").write_text("\n".join([*lines, json.dumps(long_doc)]) + "\n")
        inputs = ("--corpus", "long.jsonl", "--format", "jsonl")
        model = ("--model", "m.json")
        runs = {"train": (*inputs, "--out", "m2.json", "--epochs", "5"),
                "topk": (*inputs, *model, "--class", "pos", "--seed", "1",
                         "--max-samples", "10", "--terms", "t2.json"),
                "anchors": (*inputs, *model, "--seed", "1", "--limit", "1",
                            "--out", "a.jsonl"),
                "eval-aopc": (*inputs, *model, "--terms", "terms.json",
                              "--out", "e.json"),
                "compare": ("terms.json", *inputs, *model, "--out-prefix", "cmp")}
        note = (f"note: dropped 1 of {len(lines) + 1} documents longer than "
                "--max-chars 200 from long.jsonl\n")
        for command, argv in runs.items():
            capsys.readouterr()
            assert run(command, *argv, "--manifest", "dropped.json") == 0, command
            assert capsys.readouterr().err == note, command
            manifest = json.loads(Path("dropped.json").read_text())
            assert manifest["documents_dropped"] == 1, command


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
        the samples of every trace row, and the rows the service scored;
        its request count is the requests the service answered."""
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
        manifest = json.loads(Path("anch.jsonl.manifest.json").read_text())
        calls = manifest["predictor_calls"]
        assert calls == len({d.words for d in corpus}) + sum(r["samples"] for r in rows)
        served = Path("rows.log").read_text().split()
        assert calls == sum(map(int, served))
        assert manifest["predictor_requests"] == len(served)


    def test_one_classification_call(self, workspace, monkeypatch):
        """The command classifies the corpus in one ``predict_proba_many``
        call over its distinct documents, in order of first occurrence, and
        scores every sample as ids."""
        from anchoragg import model
        from conftest import RowRecorder

        synth_and_train(workspace, docs=40, epochs=50)
        lines = Path("c.jsonl").read_text().splitlines()
        # a later document's twin ahead of it: the twin's position counts
        twin = json.dumps({**json.loads(lines[10]), "id": "twin"})
        Path("c2.jsonl").write_text("\n".join([*lines[:3], twin, *lines[3:]]) + "\n")
        recorders, load = [], model.load_model

        def recorded(path):
            recorders.append(RowRecorder(load(path)))
            return recorders[-1]

        monkeypatch.setattr(model, "load_model", recorded)
        assert run("anchors", "--corpus", "c2.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--seed", "2",
                   "--max-samples", "10", "--limit", "3", "--out", "a.jsonl") == 0
        corpus = load_corpus("c2.jsonl", format="jsonl")
        distinct = list(dict.fromkeys(d.words for d in corpus))
        assert len(distinct) == len(corpus) - 1
        (rec,) = recorders
        assert rec.calls[0] == ("many", distinct)
        assert {kind for kind, _ in rec.calls[1:]} == {"ids"}

    def test_empty_document_of_the_class_is_not_counted(self, workspace):
        """An empty document is dropped before --limit: the manifest counts
        the documents written."""
        from anchoragg.corpus import Document
        from anchoragg.model import load_model

        synth_and_train(workspace, docs=40, epochs=50)
        label = load_model("m.json").predict(Document("empty", (), ""))
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


    UNSCORABLE_TERMS = [
        ("eval-aopc", ("--terms", "empty.json"),
         "malformed terms file empty.json: lists no terms"),
        ("compare", ("five.json", "empty.json"),
         "malformed terms file empty.json: lists no terms"),
        ("compare", ("five.json", "three.json"), "terms files differ in length: "
         "three.json lists 3 terms, five.json lists 5"),
    ]

    @pytest.mark.parametrize("command, argv, message", UNSCORABLE_TERMS,
                             ids=["eval-aopc empty", "compare empty",
                                  "compare lengths"])
    def test_unscorable_term_lists(self, workspace, capsys, command, argv, message):
        """Exit 2 naming the file before the model or corpus is read: neither
        exists."""
        for name, k in (("empty.json", 0), ("three.json", 3), ("five.json", 5)):
            TermList.from_pairs("pos", "pr", [(f"w{i}", 1.0 / (i + 1))
                                              for i in range(k)]).save(name)
        assert run(command, *argv, "--corpus", "c.jsonl", "--model", "m.json") == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("inputs", [("--terms", "terms.json"),
                                        ("--snapshots", "snaps.jsonl")],
                             ids=["terms", "snapshots"])
    def test_unknown_class_is_a_config_error(self, workspace, capsys, inputs):
        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        assert run("eval-aopc", *inputs, "--class", "nope", "--corpus", "c.jsonl",
                   "--format", "jsonl", "--model", "m.json") == 2
        assert capsys.readouterr().err == \
            "error: class 'nope' not in corpus classes ('neg', 'pos')\n"

    def test_compare_manifest_counts_rows_and_requests(self, workspace):
        """``predictor_calls`` is every text the service scored: the corpus
        once, then each class's removal rows in one batch."""
        import sys as _sys

        synth_and_train(workspace, docs=40, epochs=50)
        TestTopk()._topk()
        final = TermList.load("terms.json")
        TermList.from_pairs("neg", "rev", [(w, float(i)) for i, w in
                                           enumerate(final.words)]).save("neg.json")
        (workspace / "pred.py").write_text(TestGoldenOutput.LOGGING_SERVICE)
        assert run("compare", "terms.json", "terms.json", "neg.json",
                   "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py",
                   "--manifest", "run.json") == 0
        lines = (workspace / "requests.log").read_text().splitlines()
        texts = [t for line in lines for t in json.loads(line)["texts"]]
        manifest = json.loads((workspace / "run.json").read_text())
        assert manifest["predictor_calls"] == len(texts)
        # the corpus, then one batch per class
        assert manifest["predictor_requests"] == len(lines) == 3
        corpus = load_corpus("c.jsonl", "jsonl")
        assert texts[:len(corpus)] == [" ".join(d.words) for d in corpus]

    def test_each_text_is_sent_once(self, workspace):
        """Removal rows are deduplicated by text, not by document: two
        documents that a list reduces to the same words send that text once,
        a row equal to a corpus document is not sent, and ``compare``'s
        scorers of two classes share their rows."""
        import sys as _sys

        docs = ["gsig1 gsig2 movie", "gsig1 gsig3 movie", "gsig2 gsig3",
                "gsig3 gsig2", "bsig1 plot", "gsig3"]
        Path("c.jsonl").write_text("".join(
            json.dumps({"text": text, "label": "pos" if "gsig" in text else "neg"}) + "\n"
            for text in docs))
        TermList.from_pairs("pos", "pr", [("gsig1", 3.0), ("gsig2", 2.0),
                                          ("gsig3", 1.0)]).save("pos.json")
        TermList.from_pairs("neg", "pr", [("bsig1", 3.0), ("plot", 2.0),
                                          ("gsig1", 1.0)]).save("neg.json")
        (workspace / "pred.py").write_text(TestGoldenOutput.LOGGING_SERVICE)
        # per document: the class documents' rows without the first 1, 2, 3
        # words; "movie" twice, "gsig3" is the last document, "" four times
        pos_rows = ["gsig2 movie", "movie", "gsig3 movie", ""]
        for argv, expected in [(("eval-aopc", "--terms", "pos.json"), docs + pos_rows),
                               (("compare", "pos.json", "neg.json"),
                                docs + pos_rows + ["plot"])]:
            Path("requests.log").unlink(missing_ok=True)
            assert run(*argv, "--corpus", "c.jsonl", "--format", "jsonl",
                       "--external-cmd", f"{_sys.executable} pred.py",
                       "--manifest", "run.json") == 0
            texts = [text for line in Path("requests.log").read_text().splitlines()
                     for text in json.loads(line)["texts"]]
            assert texts == expected
            assert json.loads(Path("run.json").read_text())["predictor_calls"] \
                == len(expected)


COMMANDS = ["train", "synth", "topk", "anchors", "eval-aopc", "compare"]


class TestParser:
    """``main`` builds only the invoked command's parser."""

    @staticmethod
    def _subparser(parser, command):
        import argparse

        subparsers = next(a for a in parser._actions
                          if isinstance(a, argparse._SubParsersAction))
        return subparsers.choices[command]

    @staticmethod
    def _declared(p):
        options = [(a.option_strings, a.dest, a.type, a.nargs, a.choices, a.default)
                   for a in p._actions]
        return options, {key: p.get_default(key) for key in
                         ("func", "config_types", "required", "outputs")}

    @pytest.mark.parametrize("command", COMMANDS)
    def test_command_parser_equals_the_full_one(self, monkeypatch, capsys, command):
        from anchoragg import cli

        build, built = cli.build_parser, []
        monkeypatch.setattr(cli, "build_parser",
                            lambda *args: built.append(build(*args)) or built[-1])
        with pytest.raises(SystemExit) as exit_:
            main([command, "--help"])
        assert exit_.value.code == 0
        assert f"usage: anchoragg {command}" in capsys.readouterr().out
        (parser,) = built
        assert self._declared(self._subparser(parser, command)) \
            == self._declared(self._subparser(build(), command))

    def test_top_level_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_:
            main(["--help"])
        assert exit_.value.code == 0
        out = capsys.readouterr().out
        assert "{" + ",".join(COMMANDS) + "}" in out

    def test_command_help_lists_its_flags(self, capsys):
        with pytest.raises(SystemExit):
            main(["eval-aopc", "--help"])
        out = capsys.readouterr().out
        for flag in ("--snapshots", "--timeline-out", "--terms", "--manifest"):
            assert flag in out
        assert "--perturb-cmd" not in out

    def test_version_and_unknown_command(self, capsys):
        from anchoragg import __version__

        with pytest.raises(SystemExit) as exit_:
            main(["--version"])
        assert exit_.value.code == 0
        assert capsys.readouterr().out.strip() == __version__
        with pytest.raises(SystemExit) as exit_:
            main(["bogus"])
        assert exit_.value.code == 2
        assert "invalid choice: 'bogus'" in capsys.readouterr().err


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
        ('{"t_sec": 0.5, "calls": 2, "topk": [{"word": 5, "score": 1},'
         ' {"word": "a", "score": 1}]}', "at t_sec 0.5 lists a word that is not a string"),
        ('{"t_sec": 0.3, "calls": 2, "topk": [{"word": "gsig", "score": NaN}]}',
         "at t_sec 0.3 lists a score that is not finite"),
        ('{"t_sec": 0.4, "calls": 2, "topk": [{"word": "gsig", "score": -Infinity}]}',
         "at t_sec 0.4 lists a score that is not finite"),
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


    GOOD_ROWS = {"jsonl": '{"text": "a", "label": "pos"}\n',
                 "csv": "text,label\na,pos\n"}
    NOT_A_LABEL = "is neither a non-empty string nor an integer"

    @pytest.mark.parametrize("fmt, line, message", [
        ("jsonl", "[1, 2]", "line 2: not a JSON object"),
        ("jsonl", "5", "line 2: not a JSON object"),
        ("jsonl", '{"text": "b"}', "line 2: object lacks 'text'/'label' fields"),
        ("jsonl", '{"text": "b",}', "line 2: Expecting property name enclosed in double "
         "quotes at column 14"),
        ("jsonl", '{"text": null, "label": "pos"}', "line 2: 'text' is not a string"),
        ("jsonl", '{"text": ["a", "b"], "label": "pos"}',
         "line 2: 'text' is not a string"),
        ("jsonl", '{"text": "good movie", "label": null}',
         f"line 2: label None {NOT_A_LABEL}"),
        ("jsonl", '{"text": "b", "label": true}', f"line 2: label True {NOT_A_LABEL}"),
        ("jsonl", '{"text": "b", "label": "pos", "id": 1.5}',
         "line 2: 'id' is not a string or an integer"),
        ("csv", "bad film", f"line 3: label None {NOT_A_LABEL}"),
        ("csv", "fine,", f"line 3: label '' {NOT_A_LABEL}"),
        ("csv", '"two\nlines",', f"line 4: label '' {NOT_A_LABEL}"),
    ], ids=["list", "number", "no label", "not JSON", "null text", "list text",
            "null label", "bool label", "float id", "csv no label cell",
            "csv empty label", "csv quoted line break"])
    def test_corpus_line(self, workspace, capsys, fmt, line, message):
        """The message names the file once, and the line (for CSV, the line
        the row ends on)."""
        Path(f"l.{fmt}").write_text(self.GOOD_ROWS[fmt] + line + "\n")
        assert run("train", "--corpus", f"l.{fmt}", "--format", fmt,
                   "--out", "m.json") == 2
        assert capsys.readouterr().err == \
            f"error: malformed corpus file l.{fmt}: {message}\n"

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
        from anchoragg.synth import SynthSpec, generate_planted_corpus

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
        truth = json.loads(Path("t.json").read_text(encoding="utf-8"))
        assert truth == generate_planted_corpus(SynthSpec(n_docs=40), seed=4)[1].to_json()
        assert planted in truth["signal"]["pos"] and planted in words
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
    what it runs, the transport and subprocess are left to the external
    clients, and no command loads scipy or a thread pool."""

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

    def test_train_loads_no_scipy(self, workspace):
        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        loaded = self._run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                           "--out", "m.json", "--epochs", "5")
        assert "anchoragg.model" in loaded
        assert loaded.isdisjoint(self.EXTERNAL)

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
    MODEL_DIGEST = "fab4dc8e2a562f46ecfc413d2b098f7c8688f864b6f3b5134a476168f5d55325"
    EVAL_DIGEST = "5143f75c919cf93b5656351852b6f3ede2e933fe8d286ce7170671e5f8d43ecf"
    ANCHORS_DIGEST = "d2b4cc7992629ecfed5de32bcf9759af437fca27c3be7cfcb9ab880377708fb7"
    FILTERED_DIGEST = "28774a34e59e66c2c2f83425b2de2804b693f33c3a790932ecfeeb845854e31c"
    # a root seed of two 32-bit entropy words: 2**32 + 7
    WIDE_SEED = 4294967303
    WIDE_DIGEST = "48dfc60160ceedb0ee94aaecded7f6c91633e558b2439f404d669d3c6b3a7ae1"
    WIDE_ANCHORS_DIGEST = "188385e83993adce4dcbffb73990df6f4445e60c7d9d28e46184ad125d97282a"

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
    def _baseline_topk(profile="baseline", seed=7):
        assert run("synth", "--out", "c.jsonl", "--truth", "t.json",
                   "--docs", "40", "--seed", "1") == 0
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json", "--seed", "0") == 0
        assert run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "10",
                   "--agg", "pr", "--alpha", "0.5", "--profile", profile,
                   "--seed", str(seed), "--threads", "1", "--terms", "terms.json",
                   "--snapshots", "snaps.jsonl", "--counts", "counts.jsonl",
                   "--trace", "trace.jsonl") == 0

    @staticmethod
    def _anchors_trace_digest(ws, seed) -> str:
        """sha256 of a docs-40 ``anchors`` trace."""
        import hashlib

        assert run("synth", "--out", "c.jsonl", "--docs", "40", "--seed", "1") == 0
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json", "--seed", "0") == 0
        assert run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--seed", str(seed), "--out", "anchors.jsonl") == 0
        trace = (ws / "anchors.jsonl").read_bytes()
        assert len(trace.splitlines()) == 628
        return hashlib.sha256(trace).hexdigest()

    def test_anchors_trace_digest(self, workspace):
        """The ``anchors --seed 7`` trace, recorded when every sample was a
        tuple of words."""
        assert self._anchors_trace_digest(workspace, 7) == self.ANCHORS_DIGEST

    def test_wide_seed_anchors_trace_digest(self, workspace):
        """The trace at a root seed of two entropy words, recorded when each
        token's generator was seeded by its own ``SeedSequence``."""
        assert self._anchors_trace_digest(workspace, self.WIDE_SEED) \
            == self.WIDE_ANCHORS_DIGEST

    def test_train_model_digest(self, workspace):
        """sha256 of ``model.json`` trained on a docs-150 corpus, recorded
        when training multiplied scipy CSR matrices."""
        import hashlib

        assert run("synth", "--out", "c.jsonl", "--docs", "150", "--seed", "1") == 0
        assert run("train", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--out", "m.json", "--seed", "0") == 0
        model = (workspace / "m.json").read_bytes()
        assert hashlib.sha256(model).hexdigest() == self.MODEL_DIGEST

    def test_baseline_topk_digest(self, workspace):
        self._baseline_topk()
        assert self._digest(workspace) == self.DIGEST

    def test_wide_seed_topk_digest(self, workspace):
        """The baseline run at a root seed of two entropy words, recorded
        when each token's generator was seeded by its own ``SeedSequence``."""
        self._baseline_topk(seed=self.WIDE_SEED)
        assert self._digest(workspace) == self.WIDE_DIGEST

    def test_filtered_topk_digest(self, workspace):
        """The same run under candidate filtering, recorded when a pruning
        run tested one document per sampling round: pruning drops words
        inside a wave, so the decisions it replaces must reproduce every
        trace row and snapshot."""
        self._baseline_topk("filtered")
        manifest = json.loads((workspace / "terms.json.manifest.json").read_text())
        assert manifest["filtered_words"] > 0
        assert manifest["discarded_rows"] == 810
        assert self._digest(workspace) == self.FILTERED_DIGEST

    # a service that logs every request line it reads, and scores a text by
    # its planted signal words: a pos word raises p(pos), a neg word lowers it
    LOGGING_SERVICE = (
        "import json, sys\n"
        "for line in sys.stdin:\n"
        "    open('requests.log', 'a', encoding='utf-8').write(line)\n"
        "    probs = []\n"
        "    for text in json.loads(line)['texts']:\n"
        "        g, b = text.count('gsig'), text.count('bsig')\n"
        "        p = (1 + g) / (2 + g + b)\n"
        "        probs.append([1 - p, p])\n"
        "    print(json.dumps({'probs': probs, 'classes': ['neg', 'pos']}),"
        " flush=True)\n")
    # per command: its flags, the sha256 of the request lines the service
    # read, and the manifest's request count; recorded when the client
    # sampled rounds on word arrays and cut each row at its first pad
    REQUEST_RUNS = {
        "topk": (("--class", "pos", "--k", "10", "--agg", "pr", "--alpha", "0.5",
                  "--profile", "optimized", "--seed", "7", "--terms", "terms.json"),
                 "92cdfb77e7f0317eeacf5d4c82163dce5fb307a51cf1fd50e78f12d3e55c2d68", 11),
        "anchors": (("--class", "pos", "--seed", "7", "--out", "anchors.jsonl"),
                    "4aa5cc0ccbf7fc4c0b93f0691a5e06809300f6d4ef54dac2b241c64ec7db8ef8", 36),
    }

    @pytest.mark.parametrize("command", sorted(REQUEST_RUNS))
    def test_external_request_stream_digest(self, workspace, command):
        """The request lines a subprocess service reads on the docs-40
        corpus, byte for byte, and how many there are."""
        import hashlib
        import sys as _sys

        flags, digest, requests = self.REQUEST_RUNS[command]
        assert run("synth", "--out", "c.jsonl", "--docs", "40", "--seed", "1") == 0
        (workspace / "pred.py").write_text(self.LOGGING_SERVICE)
        assert run(command, "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py", *flags,
                   "--manifest", "run.json") == 0
        sent = (workspace / "requests.log").read_bytes()
        manifest = json.loads((workspace / "run.json").read_text())
        assert (hashlib.sha256(sent).hexdigest(), manifest["predictor_requests"]) \
            == (digest, requests)
        assert len(sent.splitlines()) == requests

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

    COMPARE_DIGEST = "11610adf77217030b328aa7fb912e4b4a347141499fc294b9e22550dba137dfe"

    def test_compare_digest(self, workspace):
        """``compare``'s three outputs for the run's terms and the same words
        in reverse order, recorded when each terms file was scored by its
        own ``aopc_k``."""
        import hashlib

        self._baseline_topk()
        final = TermList.load("terms.json")
        TermList.from_pairs("pos", "rev", [(w, float(i)) for i, w in
                                           enumerate(final.words)]).save("rev.json")
        assert run("compare", "terms.json", "rev.json", "--corpus", "c.jsonl",
                   "--format", "jsonl", "--model", "m.json",
                   "--out-prefix", "cmp") == 0
        blob = b"".join((workspace / f"cmp{suffix}").read_bytes()
                        for suffix in (".json", "_shared.csv", "_aopc.csv"))
        assert hashlib.sha256(blob).hexdigest() == self.COMPARE_DIGEST

    # the sha256 of the texts, in order, that a logging service reads for
    # ``eval-aopc --terms --snapshots``, recorded when each list and the
    # timeline had their own scorer behind one memoizing predictor
    EVAL_TEXTS_DIGEST = "86877af0e28d8bf1b43608602b9941fa42567518c8dc04ab7fa9318cfe8506a8"

    def test_eval_aopc_request_texts_digest(self, workspace):
        """Batching may change how many requests carry the rows, but not
        which texts are sent, nor their order."""
        import hashlib
        import sys as _sys

        self._baseline_topk()
        (workspace / "pred.py").write_text(self.LOGGING_SERVICE)
        assert run("eval-aopc", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py",
                   "--terms", "terms.json", "--snapshots", "snaps.jsonl",
                   "--class", "pos", "--out", "aopc.json", "--manifest", "run.json") == 0
        lines = (workspace / "requests.log").read_text().splitlines()
        texts = [text for line in lines for text in json.loads(line)["texts"]]
        assert hashlib.sha256(json.dumps(texts).encode("utf-8")).hexdigest() \
            == self.EVAL_TEXTS_DIGEST
        # the corpus, then every removal row in one batch (11 requests when
        # each list sent its own)
        manifest = json.loads((workspace / "run.json").read_text())
        assert (manifest["predictor_calls"], manifest["predictor_requests"]) \
            == (len(texts), len(lines)) == (174, 2)
