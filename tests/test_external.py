"""Wire-protocol tests for the external predictor and perturbator clients,
against in-process fake services (subprocess scripts and a local HTTP
server)."""

import json
import sys
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest

from anchoragg.corpus import Document
from anchoragg.model import ExternalPredictorClient, ExternalPredictorError
from anchoragg.perturb import ExternalPerturbatorClient, ExternalPerturbatorError
from anchoragg.seeding import stream_rng

PREDICTOR_SCRIPT = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    probs = []
    for text in req["texts"]:
        probs.append([0.1, 0.9] if "good" in text else [0.8, 0.2])
    print(json.dumps({"probs": probs, "classes": ["neg", "pos"]}), flush=True)
"""

PERTURBATOR_SCRIPT = r"""
import json, sys
for line in sys.stdin:
    req = json.loads(line)
    rows = [[{"word": "z", "weight": 1.0}] for _ in req["masked_positions"]]
    print(json.dumps({"candidates": rows}), flush=True)
"""


@pytest.fixture
def predictor_script(tmp_path):
    path = tmp_path / "fake_predictor.py"
    path.write_text(PREDICTOR_SCRIPT, encoding="utf-8")
    return [sys.executable, str(path)]


@pytest.fixture
def started(monkeypatch):
    """Every child process the test starts, in order."""
    import subprocess

    children = []

    class Recorded(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            children.append(self)

    monkeypatch.setattr(subprocess, "Popen", Recorded)
    return children


@pytest.fixture
def perturbator_script(tmp_path):
    path = tmp_path / "fake_perturbator.py"
    path.write_text(PERTURBATOR_SCRIPT, encoding="utf-8")
    return [sys.executable, str(path)]


class _Handler(BaseHTTPRequestHandler):
    payload_fn = None

    def do_POST(self):
        length = int(self.headers["Content-Length"])
        request = json.loads(self.rfile.read(length))
        body = json.dumps(type(self).payload_fn(request)).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


@pytest.fixture
def http_server():
    servers = []

    def start(payload_fn):
        handler = type("H", (_Handler,), {"payload_fn": staticmethod(payload_fn)})
        server = HTTPServer(("127.0.0.1", 0), handler)
        thread = threading.Thread(target=server.serve_forever, daemon=True)
        thread.start()
        servers.append(server)
        return f"http://127.0.0.1:{server.server_address[1]}/"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


class TestExternalPredictorSubprocess:
    def test_single_and_batch(self, predictor_script):
        client = ExternalPredictorClient(command=predictor_script, batch_size=2)
        try:
            probs = client.predict_proba_words(["good", "stuff"])
            np.testing.assert_allclose(probs, [0.1, 0.9])
            assert client.classes_ == ("neg", "pos")
            many = client.predict_proba_many(
                [["good"], ["awful"], ["good", "thing"], ["meh"]])
            np.testing.assert_allclose(many[:, 1], [0.9, 0.2, 0.9, 0.2])
        finally:
            client.close()

    def test_document_prediction(self, predictor_script):
        client = ExternalPredictorClient(command=predictor_script)
        try:
            doc = Document.from_text("0", "a good day")
            assert client.predict(doc) == "pos"
        finally:
            client.close()

    def test_dead_subprocess_raises(self):
        client = ExternalPredictorClient(
            command=[sys.executable, "-c", "import sys; sys.exit(0)"])
        with pytest.raises(ExternalPredictorError):
            client.predict_proba_words(["x"])

    def test_dead_subprocess_is_reaped_at_once(self, started):
        import gc
        import warnings

        client = ExternalPredictorClient(
            command=[sys.executable, "-c", "import sys; sys.exit(0)"])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ExternalPredictorError, match="closed its stdout"):
                client.predict_proba_words(["x"])
            assert client._transport._proc is None
            (proc,) = started
            assert proc.returncode is not None
            assert proc.stdout.closed
            del proc, started[:]
            gc.collect()
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_hung_subprocess_times_out(self, started):
        import time

        client = ExternalPredictorClient(
            command=[sys.executable, "-c",
                     "import sys, time; sys.stdin.readline(); time.sleep(60)"],
            timeout=0.5)
        t0 = time.monotonic()
        with pytest.raises(ExternalPredictorError,
                           match="did not reply within 0.5 s"):
            client.predict_proba_words(["x"])
        assert time.monotonic() - t0 < 5
        assert client._transport._proc is None
        (proc,) = started
        assert proc.returncode is not None

    def test_child_that_stops_reading_times_out(self, started):
        import time

        client = ExternalPredictorClient(
            command=[sys.executable, "-c", "import time; time.sleep(60)"],
            timeout=0.5)
        words = ["filler"] * 40_000  # a request of 280 KB, over the pipe buffer
        raised = []

        def request():
            try:
                client.predict_proba_words(words)
            except ExternalPredictorError as exc:
                raised.append(exc)

        worker = threading.Thread(target=request, daemon=True)
        t0 = time.monotonic()
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive(), "a blocked write hung the client"
        assert time.monotonic() - t0 < 5
        (exc,) = raised
        assert "did not read its request within 0.5 s" in str(exc)
        assert client._transport._proc is None
        (proc,) = started
        assert proc.returncode is not None

    def test_request_larger_than_the_pipe(self, predictor_script):
        client = ExternalPredictorClient(command=predictor_script, timeout=10)
        try:
            probs = client.predict_proba_many([["good"] + ["filler"] * 40_000,
                                               ["bad"] * 50_000])
            np.testing.assert_allclose(probs, [[0.1, 0.9], [0.8, 0.2]])
        finally:
            client.close()

    def test_reply_split_across_writes(self):
        script = ("import json, sys, time\n"
                  "for line in sys.stdin:\n"
                  "    reply = json.dumps({'probs': [[0.3, 0.7], [0.6, 0.4]],"
                  " 'classes': ['neg', 'pos']})\n"
                  "    sys.stdout.write(reply[:10]); sys.stdout.flush()\n"
                  "    time.sleep(0.05)\n"
                  "    sys.stdout.write(reply[10:] + '\\n'); sys.stdout.flush()\n")
        client = ExternalPredictorClient(command=[sys.executable, "-c", script])
        try:
            for _ in range(2):
                probs = client.predict_proba_many([["a"], ["b"]])
                np.testing.assert_allclose(probs, [[0.3, 0.7], [0.6, 0.4]])
        finally:
            client.close()


class TestExternalPredictorHttp:
    def test_row_alignment(self, http_server):
        def payload(request):
            probs = [[0.2, 0.8] if "hot" in t else [0.7, 0.3]
                     for t in request["texts"]]
            return {"probs": probs, "classes": ["cold", "hot"]}

        url = http_server(payload)
        client = ExternalPredictorClient(endpoint=url, batch_size=3,
                                         max_in_flight=2)
        texts = [f"doc {i} {'hot' if i % 2 else 'mild'}" for i in range(10)]
        probs = client.predict_proba_texts(texts)
        expected = [0.8 if i % 2 else 0.3 for i in range(10)]
        np.testing.assert_allclose(probs[:, 1], expected)

    def test_malformed_response(self, http_server):
        url = http_server(lambda request: {"wrong": "shape"})
        client = ExternalPredictorClient(endpoint=url)
        with pytest.raises(ExternalPredictorError, match="lacks probs"):
            client.predict_proba_words(["x"])

    def test_misaligned_rows(self, http_server):
        url = http_server(lambda request: {"probs": [[0.5, 0.5]] * 3,
                                           "classes": ["a", "b"]})
        client = ExternalPredictorClient(endpoint=url, batch_size=10)
        with pytest.raises(ExternalPredictorError, match="misaligned"):
            client.predict_proba_texts(["one", "two"])

    @pytest.mark.parametrize("row", [[float("nan"), 0.5], [-0.1, 1.1],
                                     [0.5, 0.6]])
    def test_invalid_probability_row(self, http_server, row):
        url = http_server(lambda request: {"probs": [row] * len(request["texts"]),
                                           "classes": ["a", "b"]})
        client = ExternalPredictorClient(endpoint=url)
        with pytest.raises(ExternalPredictorError, match="probs rows"):
            client.predict_proba_words(["x"])

    def test_class_change_mid_session(self, http_server):
        state = {"n": 0}

        def payload(request):
            state["n"] += 1
            classes = ["a", "b"] if state["n"] == 1 else ["a", "c"]
            return {"probs": [[0.5, 0.5]] * len(request["texts"]),
                    "classes": classes}

        url = http_server(payload)
        client = ExternalPredictorClient(endpoint=url)
        client.predict_proba_words(["x"])
        with pytest.raises(ExternalPredictorError, match="changed classes"):
            client.predict_proba_words(["y"])

    def test_unreachable_endpoint(self):
        client = ExternalPredictorClient(endpoint="http://127.0.0.1:9/", timeout=0.2)
        with pytest.raises(ExternalPredictorError, match="unreachable"):
            client.predict_proba_words(["x"])


class TestExternalPerturbator:
    def test_subprocess_fill(self, perturbator_script):
        client = ExternalPerturbatorClient(command=perturbator_script,
                                           zeta=50, mask_prob=1.0)
        try:
            doc = Document.from_text("0", "a b")
            out = client.sample_batch(doc, (0,), 1, stream_rng(0, "x"))[0]
            assert out == ("a", "z")
        finally:
            client.close()

    def test_http_weighted_choice(self, http_server):
        def payload(request):
            rows = [[{"word": "u", "weight": 3.0}, {"word": "v", "weight": 1.0}]
                    for _ in request["masked_positions"]]
            return {"candidates": rows}

        url = http_server(payload)
        client = ExternalPerturbatorClient(endpoint=url, mask_prob=1.0)
        doc = Document.from_text("0", "x")
        rng = stream_rng(5, "w")
        words = [client.sample_batch(doc, (), 1, rng)[0][0] for _ in range(400)]
        share = words.count("u") / len(words)
        assert 0.65 <= share <= 0.85  # 3:1 weighting

    def test_keep_positions_never_masked(self, http_server):
        seen = []

        def payload(request):
            seen.append(tuple(request["masked_positions"]))
            return {"candidates": [[{"word": "q", "weight": 1.0}]
                                   for _ in request["masked_positions"]]}

        url = http_server(payload)
        client = ExternalPerturbatorClient(endpoint=url, mask_prob=1.0)
        doc = Document.from_text("0", "a b c")
        out = client.sample_batch(doc, (1,), 1, stream_rng(1, "k"))[0]
        assert out[1] == "b"
        assert all(1 not in masked for masked in seen)

    def test_candidate_count_mismatch(self, http_server):
        url = http_server(lambda request: {"candidates": []})
        client = ExternalPerturbatorClient(endpoint=url, mask_prob=1.0)
        doc = Document.from_text("0", "a b")
        with pytest.raises(ExternalPerturbatorError, match="candidate lists"):
            client.sample_batch(doc, (), 1, stream_rng(2, "m"))

    def test_zeta_violation(self, http_server):
        def payload(request):
            row = [{"word": f"w{i}", "weight": 1.0} for i in range(5)]
            return {"candidates": [row for _ in request["masked_positions"]]}

        url = http_server(payload)
        client = ExternalPerturbatorClient(endpoint=url, zeta=2, mask_prob=1.0)
        doc = Document.from_text("0", "a")
        with pytest.raises(ExternalPerturbatorError, match="exceeds zeta"):
            client.sample_batch(doc, (), 1, stream_rng(3, "z"))

    def test_empty_candidates_keep_original(self, http_server):
        url = http_server(lambda request: {
            "candidates": [[] for _ in request["masked_positions"]]})
        client = ExternalPerturbatorClient(endpoint=url, mask_prob=1.0)
        doc = Document.from_text("0", "a b")
        out = client.sample_batch(doc, (), 1, stream_rng(4, "e"))[0]
        assert out == ("a", "b")
