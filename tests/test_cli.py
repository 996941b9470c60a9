import json
import os

import pytest

from anchoragg.cli import main
from anchoragg.eval import TermList


@pytest.fixture
def workspace(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


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
        snaps = [json.loads(l) for l in open("snaps.jsonl")]
        assert snaps[-1]["topk"][0]["word"] == terms.words[0]
        counts_rows = [json.loads(l) for l in open("counts.jsonl")]
        assert {"word", "class", "a_plus", "a_minus", "score", "agg"} \
            <= set(counts_rows[0])
        trace_rows = [json.loads(l) for l in open("trace.jsonl")]
        assert {"doc", "pos", "word", "anchor", "precision", "samples"} \
            <= set(trace_rows[0])
        manifest = json.loads((workspace / "run.json").read_text())
        assert manifest["predictor_calls"] > 0
        assert manifest["config"]["seed"] == 3

    def test_seed_required(self, workspace):
        synth_and_train(workspace)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos")
        assert code == 2

    def test_unknown_class(self, workspace):
        synth_and_train(workspace)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "bogus", "--seed", "1")
        assert code == 2

    def test_determinism_across_runs(self, workspace):
        synth_and_train(workspace)
        assert self._topk() == 0
        first_terms = (workspace / "terms.json").read_text()
        first_snaps = [json.loads(l) for l in open("snaps.jsonl")]
        assert self._topk() == 0
        second_terms = (workspace / "terms.json").read_text()
        second_snaps = [json.loads(l) for l in open("snaps.jsonl")]
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

    def test_unknown_config_key(self, workspace):
        synth_and_train(workspace)
        (workspace / "cfg.json").write_text(json.dumps({"bogus_key": 1}))
        assert run("topk", "--config", "cfg.json") == 2

    def test_config_value_of_wrong_type(self, workspace, capsys):
        synth_and_train(workspace, docs=40)
        base = {"corpus": "c.jsonl", "format": "jsonl", "model": "m.json",
                "class_label": "pos", "seed": 5, "max_samples": 10,
                "terms": "t.json"}
        for key, value in (("k", "20"), ("adaptive_tau", 1), ("alpha", True)):
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


class TestAnchorsCommand:
    def test_trace_output(self, workspace):
        synth_and_train(workspace, docs=40)
        code = run("anchors", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--seed", "2",
                   "--max-samples", "10", "--limit", "3", "--out", "anch.jsonl")
        assert code == 0
        rows = [json.loads(l) for l in open("anch.jsonl")]
        assert len({r["doc"] for r in rows}) == 3
        assert all(isinstance(r["anchor"], bool) for r in rows)


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

    def test_freq_corpus_feeds_rare_threshold(self, workspace):
        synth_and_train(workspace)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "3",
                   "--agg", "pr", "--seed", "2", "--max-samples", "10",
                   "--profile", "optimized", "--freq-corpus", "c.jsonl",
                   "--terms", "tf.json")
        assert code == 0

    def test_per_class_nw_flag(self, workspace):
        synth_and_train(workspace, docs=40)
        code = run("topk", "--corpus", "c.jsonl", "--format", "jsonl",
                   "--model", "m.json", "--class", "pos", "--k", "3",
                   "--agg", "pr", "--seed", "2", "--max-samples", "10",
                   "--adaptive-tau", "--per-class-nw", "--terms", "tp.json")
        assert code == 0


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

    def test_eval_aopc_closes_external_predictor(self, workspace):
        import sys as _sys

        assert run("synth", "--out", "c.jsonl", "--docs", "20", "--seed", "3") == 0
        TermList.from_pairs("pos", "sq", [("gsig", 1.0)]).save("terms.json")
        # the service leaves a marker once its input ends
        (workspace / "pred.py").write_text(
            self.PRED + "open('closed.marker', 'w').close()\n")
        code = run("eval-aopc", "--terms", "terms.json", "--corpus", "c.jsonl",
                   "--format", "jsonl",
                   "--external-cmd", f"{_sys.executable} pred.py")
        assert code == 0
        assert (workspace / "closed.marker").exists()

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


class TestGoldenOutput:
    """A fixed baseline-profile run must reproduce its recorded outputs.

    The digest covers terms, counts, snapshots without ``t_sec`` and the
    per-token trace. It was recorded with the per-row sample path, so any
    change to the draws or to the order of the logit sum fails here.
    """

    DIGEST = "acbe769022e0edd2261ab32a83c3af347aafa7c15a15c342a4076efbaac061e5"

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

    def test_baseline_topk_digest(self, workspace):
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
        assert self._digest(workspace) == self.DIGEST
