"""Black-box predictors: a built-in trainable bag-of-words classifier and a
wire-protocol client for external models.

Every predictor exposes ``classes_`` and ``predict_proba_words``; documents
are scored through their token sequence, so the anchor sampling loop can
feed perturbed word tuples directly. Probability vectors align with
``classes_`` and sum to one.
"""

from __future__ import annotations

import json
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Sequence

import numpy as np
from scipy import sparse

from ._transport import JsonLinesTransport
from ._validation import ParamsMixin, check_fitted
from .corpus import Corpus, Document

__all__ = [
    "Predictor",
    "BowClassifier",
    "ExternalPredictorClient",
    "ExternalPredictorError",
    "CountingPredictor",
    "CachingPredictor",
    "train_bow",
    "accuracy",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1


class Predictor:
    """Interface: a classifier over word sequences with class probabilities."""

    classes_: tuple[str, ...]

    def predict_proba_words(self, words: Sequence[str]) -> np.ndarray:
        raise NotImplementedError

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        return np.stack([self.predict_proba_words(w) for w in docs])

    def predict_proba(self, doc: Document) -> np.ndarray:
        return self.predict_proba_words(doc.words)

    def predict_words(self, words: Sequence[str]) -> str:
        probs = self.predict_proba_words(words)
        return self.classes_[int(np.argmax(probs))]

    def predict(self, doc: Document) -> str:
        # argmax with ties resolved to the lowest class index
        return self.predict_words(doc.words)

    def class_index(self, label: str) -> int:
        return self.classes_.index(label)


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class BowClassifier(ParamsMixin, Predictor):
    """Multinomial logistic regression over raw token counts.

    Trained by full-batch gradient descent with L2 regularization on the
    weights (bias excluded). Training is deterministic for a fixed seed:
    weights start at zero and the seed only drives the validation split.
    With ``val_fraction > 0`` the epoch with the best validation accuracy is
    kept, otherwise the final epoch wins.
    """

    def __init__(self, epochs: int = 400, learning_rate: float = 0.15,
                 l2: float = 1e-4, seed: int = 0, val_fraction: float = 0.0):
        self.epochs = epochs
        self.learning_rate = learning_rate
        self.l2 = l2
        self.seed = seed
        self.val_fraction = val_fraction
        self.classes_ = None
        self.vocabulary_ = None
        self.weights_ = None
        self.bias_ = None
        self.losses_ = None
        self.best_epoch_ = None

    # -- fitting ---------------------------------------------------------

    def _count_matrix(self, docs: Sequence[Sequence[str]]) -> sparse.csr_matrix:
        vocab = self._vocab_index_
        rows, cols, vals = [], [], []
        for i, words in enumerate(docs):
            local: dict[int, int] = {}
            for w in words:
                j = vocab.get(w)
                if j is not None:
                    local[j] = local.get(j, 0) + 1
            for j, v in local.items():
                rows.append(i)
                cols.append(j)
                vals.append(v)
        return sparse.csr_matrix(
            (np.asarray(vals, dtype=np.float64), (rows, cols)),
            shape=(len(docs), len(self.vocabulary_)),
        )

    def fit(self, docs: Sequence[Sequence[str]], y: Sequence[str]) -> "BowClassifier":
        docs = [tuple(d) for d in docs]
        y = list(y)
        if len(docs) != len(y):
            raise ValueError("docs and labels length mismatch")
        if not docs:
            raise ValueError("empty training set")
        classes = tuple(sorted(set(y)))
        if len(classes) < 2:
            raise ValueError(f"need at least 2 classes to train, got {classes}")
        self.classes_ = classes
        self.vocabulary_ = tuple(sorted({w for d in docs for w in d}))
        self._vocab_index_ = {w: j for j, w in enumerate(self.vocabulary_)}

        rng = np.random.default_rng(self.seed)
        order = rng.permutation(len(docs))
        n_val = int(self.val_fraction * len(docs))
        val_idx, train_idx = order[:n_val], order[n_val:]
        if len(train_idx) == 0:
            raise ValueError("val_fraction leaves no training documents")

        class_index = {c: k for k, c in enumerate(classes)}
        y_idx = np.asarray([class_index[label] for label in y])
        X = self._count_matrix(docs)
        X_train, y_train = X[train_idx], y_idx[train_idx]
        X_val, y_val = X[val_idx], y_idx[val_idx]

        n, v = X_train.shape
        c = len(classes)
        onehot = np.zeros((n, c))
        onehot[np.arange(n), y_train] = 1.0

        W = np.zeros((v, c))
        b = np.zeros(c)
        best = (-np.inf, 0, W.copy(), b.copy())
        losses = []
        for epoch in range(self.epochs):
            probs = _softmax(X_train @ W + b)
            nll = -np.mean(np.log(np.clip(probs[np.arange(n), y_train], 1e-300, None)))
            losses.append(nll + self.l2 * float(np.sum(W * W)))
            grad_logits = (probs - onehot) / n
            W -= self.learning_rate * (X_train.T @ grad_logits + 2.0 * self.l2 * W)
            b -= self.learning_rate * grad_logits.sum(axis=0)
            if n_val:
                val_pred = np.argmax(X_val @ W + b, axis=1)
                val_acc = float(np.mean(val_pred == y_val))
                if val_acc > best[0]:
                    best = (val_acc, epoch, W.copy(), b.copy())
        if n_val:
            _, self.best_epoch_, W, b = best
        else:
            self.best_epoch_ = self.epochs - 1
        self.weights_ = W
        self.bias_ = b
        self.losses_ = losses
        return self

    # -- prediction ------------------------------------------------------

    def predict_proba_words(self, words: Sequence[str]) -> np.ndarray:
        return self.predict_proba_many([words])[0]

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        """Softmax of ``bias`` plus the weight rows of each document's words.

        Rows of equal length are scored together, adding one word column at a
        time: the same left-to-right sum per row as a word-by-word loop, so
        results do not depend on how rows are batched. Out-of-vocabulary
        words add an appended zero row.
        """
        check_fitted(self, ("weights_", "bias_", "classes_"))
        index = self._vocab_index_
        oov = len(self.vocabulary_)
        Wz = np.vstack([self.weights_, np.zeros((1, len(self.classes_)))])
        lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
        logits = np.empty((len(docs), len(self.classes_)))
        for length in np.unique(lengths):
            rows = np.flatnonzero(lengths == length)
            ids = np.asarray([index.get(w, oov) for r in rows for w in docs[r]],
                             dtype=np.intp).reshape(rows.size, length)
            acc = np.repeat(self.bias_[None, :], rows.size, axis=0)
            for col in np.ascontiguousarray(ids.T):
                acc += Wz.take(col, axis=0)
            logits[rows] = acc
        return _softmax(logits)

    def __getstate__(self):
        return self.__dict__

    def __setstate__(self, state):
        self.__dict__.update(state)
        if self.vocabulary_ is not None and "_vocab_index_" not in self.__dict__:
            self._vocab_index_ = {w: j for j, w in enumerate(self.vocabulary_)}


def train_bow(corpus: Corpus, *, epochs: int = 400, learning_rate: float = 0.15,
              l2: float = 1e-4, seed: int = 0,
              val_fraction: float = 0.0) -> BowClassifier:
    """Train the built-in classifier on a labeled corpus."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    clf = BowClassifier(epochs=epochs, learning_rate=learning_rate, l2=l2,
                        seed=seed, val_fraction=val_fraction)
    docs = [d.words for d in corpus]
    labels = [corpus.labels[d.id] for d in corpus]
    return clf.fit(docs, labels)


def accuracy(predictor: Predictor, corpus: Corpus) -> float:
    """Fraction of documents whose prediction matches the corpus label."""
    if len(corpus) == 0:
        raise ValueError("cannot compute accuracy on an empty corpus")
    probs = predictor.predict_proba_many([d.words for d in corpus])
    hits = sum(1 for d, j in zip(corpus, np.argmax(probs, axis=1))
               if predictor.classes_[j] == corpus.labels[d.id])
    return hits / len(corpus)


# -- model files ----------------------------------------------------------


def save_model(clf: BowClassifier, path: str | Path) -> None:
    """Write trained weights as versioned JSON, stable across releases."""
    check_fitted(clf, ("weights_", "bias_", "classes_"))
    payload = {
        "format_version": MODEL_FORMAT_VERSION,
        "kind": "bow_logistic",
        "classes": list(clf.classes_),
        "vocabulary": list(clf.vocabulary_),
        "weights": clf.weights_.tolist(),
        "bias": clf.bias_.tolist(),
        "hyperparams": clf.get_params(),
    }
    Path(path).write_text(json.dumps(payload), encoding="utf-8")


def load_model(path: str | Path) -> BowClassifier:
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    clf = BowClassifier(**payload.get("hyperparams", {}))
    clf.classes_ = tuple(payload["classes"])
    clf.vocabulary_ = tuple(payload["vocabulary"])
    clf._vocab_index_ = {w: j for j, w in enumerate(clf.vocabulary_)}
    clf.weights_ = np.asarray(payload["weights"], dtype=np.float64)
    clf.bias_ = np.asarray(payload["bias"], dtype=np.float64)
    if clf.weights_.shape != (len(clf.vocabulary_), len(clf.classes_)):
        raise ValueError("model file weight shape does not match vocabulary/classes")
    return clf


# -- external predictor protocol ------------------------------------------


class ExternalPredictorError(RuntimeError):
    """Endpoint unreachable, malformed response, or protocol violation."""


class ExternalPredictorClient(Predictor):
    """Client for the line-delimited JSON predictor protocol.

    Request:  ``{"texts": [string, ...]}``
    Response: ``{"probs": [[float, ...], ...], "classes": [string, ...]}``
    with ``probs`` row-aligned to ``texts`` and ``classes`` fixed for the
    whole session. Each row must be a probability vector: finite,
    non-negative, summing to 1 within 1e-6. Served over HTTP or a
    subprocess (see ``_transport``); no retries, failures raise immediately.
    """

    def __init__(self, endpoint: str | None = None,
                 command: Sequence[str] | None = None,
                 timeout: float = 30.0, batch_size: int = 32,
                 max_in_flight: int = 1):
        self._transport = JsonLinesTransport(endpoint, command, timeout,
                                             ExternalPredictorError, "predictor")
        self.batch_size = max(1, int(batch_size))
        self.max_in_flight = max(1, int(max_in_flight))
        self.classes_ = None
        self._lock = threading.Lock()

    def _request(self, texts: list[str]) -> np.ndarray:
        payload = self._transport.roundtrip({"texts": texts})
        if "probs" not in payload or "classes" not in payload:
            raise ExternalPredictorError("response lacks probs/classes fields")
        classes = tuple(payload["classes"])
        with self._lock:
            if self.classes_ is None:
                self.classes_ = classes
            elif classes != self.classes_:
                raise ExternalPredictorError(
                    f"predictor changed classes mid-session: {classes} != {self.classes_}")
        probs = np.asarray(payload["probs"], dtype=np.float64)
        if probs.ndim != 2 or probs.shape[0] != len(texts) \
                or probs.shape[1] != len(classes):
            raise ExternalPredictorError(
                f"probs shape {probs.shape} misaligned with {len(texts)} texts "
                f"and {len(classes)} classes")
        # NaN fails both comparisons; an infinite entry fails one of them
        if not ((probs >= 0).all() and (abs(probs.sum(axis=1) - 1.0) <= 1e-6).all()):
            raise ExternalPredictorError(
                "probs rows must be finite, non-negative and sum to 1")
        return probs

    # prediction ---------------------------------------------------------

    def predict_proba_texts(self, texts: Sequence[str]) -> np.ndarray:
        texts = list(texts)
        if not texts:
            return np.zeros((0, 0))
        chunks = [texts[i:i + self.batch_size]
                  for i in range(0, len(texts), self.batch_size)]
        if self._transport.endpoint and self.max_in_flight > 1 and len(chunks) > 1:
            with ThreadPoolExecutor(max_workers=self.max_in_flight) as pool:
                results = list(pool.map(self._request, chunks))
        else:
            results = [self._request(chunk) for chunk in chunks]
        return np.concatenate(results, axis=0)

    def predict_proba_words(self, words: Sequence[str]) -> np.ndarray:
        return self.predict_proba_texts([" ".join(words)])[0]

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        return self.predict_proba_texts([" ".join(w) for w in docs])

    def close(self):
        self._transport.close()


# -- wrappers --------------------------------------------------------------


class CountingPredictor(Predictor):
    """Counts every probability evaluation; thread-safe."""

    def __init__(self, base: Predictor):
        self.base = base
        self._lock = threading.Lock()
        self.calls = 0

    @property
    def classes_(self) -> tuple[str, ...]:  # type: ignore[override]
        return self.base.classes_

    def _bump(self, n: int):
        with self._lock:
            self.calls += n

    def predict_proba_words(self, words: Sequence[str]) -> np.ndarray:
        self._bump(1)
        return self.base.predict_proba_words(words)

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        self._bump(len(docs))
        return self.base.predict_proba_many(docs)


class CachingPredictor(Predictor):
    """Memoizes probabilities by document content.

    Intended for the unperturbed corpus and for evaluation, where the same
    documents and removal prefixes are scored repeatedly. Perturbation
    samples must not go through this wrapper: they are unique draws.
    """

    def __init__(self, base: Predictor):
        self.base = base
        self._cache: dict[tuple[str, ...], np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def classes_(self) -> tuple[str, ...]:  # type: ignore[override]
        return self.base.classes_

    def predict_proba_words(self, words: Sequence[str]) -> np.ndarray:
        return self.predict_proba_many([words])[0]

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        """Cached rows as they are; the distinct misses in one base call."""
        keys = [tuple(w) for w in docs]
        if not keys:
            return self.base.predict_proba_many([])
        with self._lock:
            found = {k: self._cache[k] for k in keys if k in self._cache}
        misses = list(dict.fromkeys(k for k in keys if k not in found))
        if misses:
            probs = self.base.predict_proba_many(misses)
            found.update(zip(misses, probs))
            with self._lock:
                self._cache.update(zip(misses, probs))
        return np.stack([found[k] for k in keys])
