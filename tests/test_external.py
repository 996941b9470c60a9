"""Wire-protocol tests for the external predictor and perturbator clients,
against in-process fake services (subprocess scripts and a local HTTP
server)."""

import json
import os
import signal
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, HTTPServer

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from anchoragg._transport import JsonLinesTransport
from anchoragg.anchor import ROUND_ROWS
from anchoragg.corpus import Document
from anchoragg.model import ExternalPredictorClient, ExternalPredictorError, pad_rows
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


class _DrippingHandler(_Handler):
    """Replies with a valid body, one byte every 0.15 s."""

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        body = json.dumps({"probs": [[0.5, 0.5]], "classes": ["a", "b"]}).encode()
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        try:
            for i in range(len(body)):
                self.wfile.write(body[i:i + 1])
                time.sleep(0.15)
        except OSError:
            pass  # the client hung up


@pytest.fixture
def http_server():
    servers = []

    def start(payload_fn, base=_Handler):
        handler = type("H", (base,), {"payload_fn": staticmethod(payload_fn)})
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


def _replying(reply: str) -> list[str]:
    """A child that answers every request line with ``reply``."""
    return [sys.executable, "-c",
            f"import sys\nfor line in sys.stdin:\n    print({reply!r}, flush=True)\n"]


class TestMalformedReplies:
    """A reply that is JSON but breaks the protocol raises the client's own
    error, from a subprocess child as from any service."""

    @pytest.mark.parametrize("reply, match", [
        ("null", "not a JSON object"),
        ("[1, 2]", "not a JSON object"),
        ('{"probs": [[0.5, 0.5], [1.0]], "classes": ["a", "b"]}', "probs is not"),
        ('{"probs": [["x", "y"]], "classes": ["a", "b"]}', "probs is not"),
        ('{"probs": [[0.5, 0.5]], "classes": null}', "classes is not a list"),
        ('{"probs": [[0.5, 0.5]], "classes": "ab"}', "classes is not a list"),
        ('{"probs": [[0.5, 0.5]], "classes": [1, 2]}', "not a list of distinct strings"),
        ('{"probs": [[0.5, 0.5]], "classes": ["pos", "pos"]}',
         "not a list of distinct strings"),
    ])
    def test_predictor(self, reply, match):
        client = ExternalPredictorClient(command=_replying(reply))
        try:
            with pytest.raises(ExternalPredictorError, match=match):
                client.predict_proba_words(["x"])
        finally:
            client.close()

    @pytest.mark.parametrize("reply, match", [
        ("null", "not a JSON object"),
        ('{"candidates": null}', "not a list of lists"),
        ('{"candidates": [5]}', "not a list of lists"),
        ('{"candidates": [{"word": "u", "weight": 1.0}]}', "not a list of lists"),
    ])
    def test_perturbator(self, reply, match):
        client = ExternalPerturbatorClient(command=_replying(reply), mask_prob=1.0)
        try:
            with pytest.raises(ExternalPerturbatorError, match=match):
                client.sample_batch(Document.from_text("0", "a"), (), 1,
                                    stream_rng(0, "null"))
        finally:
            client.close()


class TestExternalPredictorHttp:
    def test_row_alignment(self, http_server):
        def payload(request):
            probs = [[0.2, 0.8] if "hot" in t else [0.7, 0.3]
                     for t in request["texts"]]
            return {"probs": probs, "classes": ["cold", "hot"]}

        url = http_server(payload)
        client = ExternalPredictorClient(endpoint=url, batch_size=3)
        texts = [f"doc {i} {'hot' if i % 2 else 'mild'}" for i in range(10)]
        probs = client.predict_proba_many([t.split() for t in texts])
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
            client.predict_proba_many([["one"], ["two"]])

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

    @pytest.mark.parametrize("endpoint, match", [
        ("ftp://127.0.0.1:9/", "unreachable: not an http"),
        ("http://127.0.0.1:port/", "unreachable"),
    ])
    def test_malformed_endpoint(self, endpoint, match):
        client = ExternalPredictorClient(endpoint=endpoint, timeout=0.2)
        with pytest.raises(ExternalPredictorError, match=match):
            client.predict_proba_words(["x"])

    def test_dripping_reply_times_out(self, http_server):
        """``timeout`` bounds the whole exchange, not each socket read: a
        46-byte reply that takes 6.9 s to drip in fails after 1 s."""
        url = http_server(None, base=_DrippingHandler)
        client = ExternalPredictorClient(endpoint=url, timeout=1.0)
        t0 = time.monotonic()
        with pytest.raises(ExternalPredictorError,
                           match="endpoint did not reply within 1.0 s"):
            client.predict_proba_words(["x"])
        assert time.monotonic() - t0 < 3


class _Recording:
    """A transport that records the texts of each request and answers each
    text with one probability row."""

    def __init__(self):
        self.requests = []

    def roundtrip(self, request):
        self.requests.append(request["texts"])
        return {"probs": [[0.5, 0.5]] * len(request["texts"]),
                "classes": ["neg", "pos"]}


def _recorded(**kwargs):
    """A client whose requests go to a ``_Recording``; no child starts."""
    client = ExternalPredictorClient(command=["unused"], **kwargs)
    client._transport = _Recording()
    return client, client._transport


# words of the id-path tests: ASCII, punctuated and non-ASCII
_WORDS = st.sampled_from(["a", "bb", "c-c", "d.", "é", "naïve", "日本", "ß"]) \
    | st.text(st.characters(codec="utf-8", exclude_categories=("Z", "C")),
              min_size=1, max_size=4)


class _ModelTransport(_Recording):
    """A ``_Recording`` that scores each text as ``model`` scores its words."""

    def __init__(self, model):
        super().__init__()
        self.model = model

    def roundtrip(self, request):
        self.requests.append(request["texts"])
        probs = self.model.predict_proba_many([t.split(" ") for t in request["texts"]])
        return {"probs": probs.tolist(), "classes": list(self.model.classes_)}


class TestRequests:
    @given(st.lists(_WORDS, max_size=8),
           st.lists(st.lists(_WORDS, min_size=1, max_size=6), min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_id_rows_send_their_words_joined(self, seen, rows):
        """A padded matrix of ``encode`` ids sends each row's words joined by
        spaces: one-word and full-width rows, and words the same ``encode``
        call interned, among words seen before."""
        client, sent = _recorded()
        client.encode(seen)
        ids = pad_rows(client.encode([w for row in rows for w in row]),
                       list(map(len, rows)), client.pad)
        assert ids.dtype == np.intp
        client.predict_proba_ids(ids)
        assert sent.requests == [[" ".join(row) for row in rows]]

    @given(st.lists(st.lists(_WORDS, max_size=6), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_encode_interns_dense_stable_ids(self, calls):
        """A word's id is the number of distinct words seen before it, on
        every call; the pad is no word's id."""
        client, _ = _recorded()
        first = {}
        for words in calls:
            for w in words:
                first.setdefault(w, len(first))
            assert client.encode(words).tolist() == [first[w] for w in words]
        for words in calls:
            assert client.encode(words).tolist() == [first[w] for w in words]
        assert client.pad not in first.values()

    def test_threads_intern_each_word_once(self):
        """Threads that encode overlapping words and score them at once give
        each word one id, dense from 0, and send their own words."""
        client, sent = _recorded()
        words = [f"w{i}" for i in range(2000)]
        results = [None] * 4
        barrier = threading.Barrier(4)

        def encode(t):
            barrier.wait()
            mine = words[t % 2::2]
            ids = client.encode(mine)
            results[t] = dict(zip(mine, ids.tolist()))
            client.predict_proba_ids(ids[:, None])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=encode, args=(t,)) for t in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
        finally:
            sys.setswitchinterval(interval)
        assert results[0] == results[2] and results[1] == results[3]
        ids = {**results[0], **results[1]}
        assert sorted(ids.values()) == list(range(len(words)))
        assert client.encode(words).tolist() == [ids[w] for w in words]
        assert sorted(sent.requests) == sorted([words[0::2], words[1::2]] * 2)

    def test_rounds_arrive_as_intp(self, planted200):
        """A topk run through the client scores every round as an ``intp``
        matrix of its ids and decides as the in-process model does."""
        from anchoragg.topk import AnchorTopTerms

        corpus, _, clf = planted200
        client, _ = _recorded()
        client._transport = _ModelTransport(clf)
        dtypes, score = [], client.predict_proba_ids

        def recorded(ids):
            dtypes.append(ids.dtype)
            return score(ids)

        client.predict_proba_ids = recorded
        runs = []
        for predictor in (client, clf):
            est = AnchorTopTerms(k=5, target_class="pos", seed=3, max_samples=30,
                                 sample_fraction=0.2)
            est.fit(corpus, predictor)
            runs.append((est.terms_.items, est.calls_))
        assert len(dtypes) > 1 and set(dtypes) == {np.dtype(np.intp)}
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n, requests", [(1, 1), (ROUND_ROWS, 1),
                                             (ROUND_ROWS + 1, 2)])
    def test_default_batch_is_one_request_per_round(self, n, requests):
        """Under the default batch a scoring call of up to ``ROUND_ROWS``
        rows, the anchor loop's most per call, is one request."""
        client, sent = _recorded()
        ids = np.repeat(client.encode(["w", "v"])[None, :], n, axis=0)
        probs = client.predict_proba_ids(ids)
        assert probs.shape == (n, 2)
        assert client.requests == len(sent.requests) == requests
        client.predict_proba_many([["w"]] * n)
        assert client.requests == 2 * requests
        assert [len(texts) for texts in sent.requests[:requests]] \
            == [ROUND_ROWS] * (requests - 1) + [n - ROUND_ROWS * (requests - 1)]


@pytest.fixture(params=["pidfd", "polling"])
def reaping(request, monkeypatch):
    """Each test runs with process handles and again without them."""
    if request.param == "polling":
        monkeypatch.delattr(os, "pidfd_open", raising=False)
    return request.param


class TestReaping:
    @staticmethod
    def _transport(code):
        transport = JsonLinesTransport(None, ["unused"], 1.0, RuntimeError, "service")
        transport._proc = subprocess.Popen([sys.executable, "-c", code],
                                           stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return transport, transport._proc

    def test_child_that_exits_on_eof_is_reaped(self, reaping):
        transport, proc = self._transport("import sys; sys.stdin.read()")
        t0 = time.monotonic()
        transport.close()
        assert time.monotonic() - t0 < 2.5  # half the grace
        assert proc.returncode == 0
        assert proc.stdout.closed and transport._proc is None

    def test_child_that_ignores_eof_is_killed_after_the_grace(self, reaping):
        transport, proc = self._transport("import time; time.sleep(60)")
        t0 = time.monotonic()
        transport._end(grace=0.3)
        assert 0.3 <= time.monotonic() - t0 < 5
        assert proc.returncode == -signal.SIGKILL
        assert proc.stdout.closed and transport._proc is None


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

    def test_keep_position_outside_document(self):
        """Rejected before any request, as ``UnigramPerturbator`` rejects it:
        the endpoint is unreachable."""
        client = ExternalPerturbatorClient(endpoint="http://127.0.0.1:9/",
                                           mask_prob=1.0, timeout=0.2)
        doc = Document.from_text("0", "a b c")
        with pytest.raises(ValueError, match="keep position 9 outside document"):
            client.sample_batch(doc, (9,), 1, stream_rng(0, "k"))

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

    @pytest.mark.parametrize("entry, match", [
        ({"word": "u", "weight": float("nan")}, "finite and non-negative"),
        ({"word": "u", "weight": float("inf")}, "finite and non-negative"),
        ({"word": "u", "weight": -1.0}, "finite and non-negative"),
        ({"w": "x"}, "objects with word and weight"),
        ({"word": "u"}, "objects with word and weight"),
        ({"word": "u", "weight": "heavy"}, "objects with word and weight"),
        (["x"], "objects with word and weight"),
        ("x", "objects with word and weight"),
    ])
    def test_malformed_candidate(self, http_server, entry, match):
        url = http_server(lambda request: {
            "candidates": [[entry] for _ in request["masked_positions"]]})
        client = ExternalPerturbatorClient(endpoint=url, mask_prob=1.0)
        doc = Document.from_text("0", "a b")
        with pytest.raises(ExternalPerturbatorError, match=match):
            client.sample_batch(doc, (), 1, stream_rng(5, "c"))

    @pytest.mark.parametrize("kwargs, match", [
        ({"zeta": 0}, "zeta"), ({"zeta": 2.5}, "zeta"), ({"zeta": -3}, "zeta"),
        ({"timeout": 0}, "timeout"), ({"timeout": -1}, "timeout"),
        ({"timeout": 1e10}, "timeout must be at most"),
    ])
    def test_settings_checked_before_any_child(self, perturbator_script, started,
                                               kwargs, match):
        with pytest.raises(ValueError, match=match):
            ExternalPerturbatorClient(command=perturbator_script, **kwargs)
        assert started == []
