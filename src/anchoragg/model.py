"""Black-box predictors: a built-in trainable bag-of-words classifier and a
wire-protocol client for external models.

Every predictor exposes ``classes_`` and ``predict_proba_many``; documents
are scored through their token sequences, and the anchor sampling loop scores
perturbed rows as id matrices (``predict_proba_ids``). Probability vectors
align with ``classes_`` and sum to one.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from itertools import repeat
from pathlib import Path
from typing import Sequence

import numpy as np

from ._validation import (ParamsMixin, check_fitted, check_positive,
                          check_positive_int, check_probability, check_timeout)
from .corpus import Corpus, Document

__all__ = [
    "Predictor",
    "BowClassifier",
    "ExternalPredictorClient",
    "ExternalPredictorError",
    "CachingPredictor",
    "train_bow",
    "accuracy",
    "save_model",
    "load_model",
]

MODEL_FORMAT_VERSION = 1
# seconds an external service may take per request; both clients default to it
DEFAULT_TIMEOUT = 30.0
# rows per predictor call of the anchor loop: a round of m tokens holds
# ~batch * m perturbed rows, so it is drawn and scored in slices. The
# external client's default request size, so that one call is one request.
ROUND_ROWS = 4096


class Predictor:
    """Interface: a classifier over word sequences with class probabilities.

    A predictor implements ``predict_proba_many`` (a batch of word rows) or
    ``predict_proba_words`` (one row); each defaults to the other, and the
    other scoring methods are built on them.

    The anchor loop scores rows through ``encode(words)``, a 1-D id array,
    and ``predict_proba_ids(ids)``, which scores an ``(n, m)`` id matrix as
    ``predict_proba_many`` scores the corresponding word rows. A row shorter
    than ``m`` ends in ``pad`` ids (see ``pad_rows``), and scores as the row
    without them. By default the ids are the words themselves, the pad is
    ``None``, and ``predict_proba_ids`` drops it. ``BowClassifier`` uses
    vocabulary ids, and pads with the out-of-vocabulary id;
    ``ExternalPredictorClient`` uses ids it interns itself, and pads with -1.
    """

    classes_: tuple[str, ...]
    pad = None

    def predict_proba_words(self, words: Sequence[str]) -> np.ndarray:
        return self.predict_proba_many([words])[0]

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        return np.stack([self.predict_proba_words(w) for w in docs])

    def encode(self, words: Sequence[str]) -> np.ndarray:
        return np.asarray(words, dtype=object)

    def predict_proba_ids(self, ids: np.ndarray) -> np.ndarray:
        rows = list(map(tuple, ids.tolist()))
        ends = ids[:, -1].tolist() if ids.size else []
        if self.pad in ends:
            rows = [row[:row.index(self.pad)] if end == self.pad else row
                    for row, end in zip(rows, ends)]
        return self.predict_proba_many(rows)

    def predict(self, doc: Document) -> str:
        return self.predict_many([doc])[0]

    def predict_many(self, docs: Sequence[Document]) -> list[str]:
        """The class of each document, from one ``predict_proba_many`` call:
        the argmax, with ties resolved to the lowest class index."""
        if not docs:
            return []
        probs = self.predict_proba_many([d.words for d in docs])
        return [self.classes_[j] for j in np.argmax(probs, axis=1)]

    def class_index(self, label: str) -> int:
        return self.classes_.index(label)


def pad_rows(ids: np.ndarray, lengths: list[int], pad) -> np.ndarray:
    """The rows of the given lengths, cut in order from the 1-D ``ids``, as
    one matrix as wide as the longest row, each shorter row padded at its
    end with ``pad``; no copy when every row has that width."""
    width = max(lengths, default=0)
    if lengths.count(width) == len(lengths):
        return ids.reshape(len(lengths), width)
    rows = np.full((len(lengths), width), pad, dtype=ids.dtype)
    rows[np.arange(width) < np.asarray(lengths)[:, None]] = ids
    return rows


def _softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=-1, keepdims=True)


class _CountRows:
    """An ``(n, v)`` count matrix held as its nonzeros in CSR order, for
    products with dense ``(·, c)`` matrices.

    Each product is one ``np.bincount``, which starts every output at 0.0
    and adds its terms in input order. So ``dot`` sums as SciPy's
    ``csr_matvecs`` sums ``X @ M``, and ``tdot`` as ``csc_matvecs`` sums
    ``X.T @ M``: both walk the nonzeros in CSR order, bit for bit.
    (``np.add.reduceat`` would not: it does not add in order.)
    """

    def __init__(self, rows: np.ndarray, cols: np.ndarray, data: np.ndarray,
                 n: int, v: int, c: int):
        self._rows, self._cols, self._data = rows, cols, data[:, None]
        self._row_bins = (rows[:, None] * c + np.arange(c)).ravel()
        self._col_bins = (cols[:, None] * c + np.arange(c)).ravel()
        self._n, self._v, self._c = n, v, c

    def dot(self, M: np.ndarray) -> np.ndarray:
        """``X @ M``, ``M`` of shape ``(v, c)``."""
        return self._sum(self._row_bins, self._cols, M, self._n)

    def tdot(self, M: np.ndarray) -> np.ndarray:
        """``X.T @ M``, ``M`` of shape ``(n, c)``."""
        return self._sum(self._col_bins, self._rows, M, self._v)

    def _sum(self, bins, take, M, size):
        terms = (self._data * M.take(take, axis=0)).ravel()
        return np.bincount(bins, terms, minlength=size * self._c).reshape(size, self._c)


@dataclass(eq=False)
class BowClassifier(ParamsMixin, Predictor):
    """Multinomial logistic regression over raw token counts.

    Trained by full-batch gradient descent with L2 regularization on the
    weights (bias excluded). Training is deterministic for a fixed seed:
    weights start at zero and the seed only drives the validation split.
    With ``val_fraction > 0`` the epoch with the best validation accuracy is
    kept, otherwise the final epoch wins. The sparse products add in the
    order SciPy's CSR products add (see ``_CountRows``), so a model trained
    when training ran on SciPy is reproduced byte for byte.
    """

    epochs: int = 800
    learning_rate: float = 0.3
    l2: float = 5e-4
    seed: int = 0
    val_fraction: float = 0.0

    def __post_init__(self):
        # unfitted until ``fit`` or ``load_model`` sets them
        self.classes_ = self.vocabulary_ = self.weights_ = self.bias_ = None
        self.losses_ = self.best_epoch_ = None

    # -- fitting ---------------------------------------------------------

    def check_params(self) -> None:
        """Raise ValueError on a setting out of range, before any data is
        read."""
        check_positive_int(self.epochs, "epochs")
        # a zero learning rate leaves the weights at zero
        check_positive(self.learning_rate, "learning_rate", zero_ok=True)
        check_positive(self.l2, "l2", zero_ok=True)
        check_probability(self.val_fraction, "val_fraction", open_low=False)

    def _count_nonzeros(self, docs: Sequence[Sequence[str]]):
        """``(rows, ids, counts)``: the nonzeros of the documents' count
        matrix, in row order and, within a row, in id order, as a canonical
        CSR matrix holds them. Every word is in the vocabulary ``fit`` just
        built."""
        v = len(self.vocabulary_)
        lengths = np.fromiter(map(len, docs), dtype=np.intp, count=len(docs))
        ids = self.encode([w for words in docs for w in words])
        keys, counts = np.unique(np.repeat(np.arange(len(docs)) * v, lengths) + ids,
                                 return_counts=True)
        # a row's repeated words make one nonzero, as in SciPy's canonical form
        return *np.divmod(keys, v), counts.astype(np.float64)

    # a diverging run raises at the end, without numpy's warnings on the way
    @np.errstate(over="ignore", invalid="ignore")
    def fit(self, docs: Sequence[Sequence[str]], y: Sequence[str]) -> "BowClassifier":
        self.check_params()
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
        y_train, y_val = y_idx[train_idx], y_idx[val_idx]
        # the count matrix of the documents in split order: validation rows first
        rows, ids, counts = self._count_nonzeros([docs[i] for i in order])
        split = int(np.searchsorted(rows, n_val))

        n, v = len(train_idx), len(self.vocabulary_)
        c = len(classes)
        X_train = _CountRows(rows[split:] - n_val, ids[split:], counts[split:], n, v, c)
        X_val = _CountRows(rows[:split], ids[:split], counts[:split], n_val, v, c)
        onehot = np.zeros((n, c))
        onehot[np.arange(n), y_train] = 1.0

        W = np.zeros((v, c))
        b = np.zeros(c)
        best = (-np.inf, 0, W.copy(), b.copy())
        losses = []
        for epoch in range(self.epochs):
            probs = _softmax(X_train.dot(W) + b)
            nll = -np.mean(np.log(np.clip(probs[np.arange(n), y_train], 1e-300, None)))
            losses.append(nll + self.l2 * float(np.sum(W * W)))
            grad_logits = (probs - onehot) / n
            W -= self.learning_rate * (X_train.tdot(grad_logits) + 2.0 * self.l2 * W)
            b -= self.learning_rate * grad_logits.sum(axis=0)
            if n_val:
                val_pred = np.argmax(X_val.dot(W) + b, axis=1)
                val_acc = float(np.mean(val_pred == y_val))
                if val_acc > best[0]:
                    best = (val_acc, epoch, W.copy(), b.copy())
        if n_val:
            _, self.best_epoch_, W, b = best
        else:
            self.best_epoch_ = self.epochs - 1
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError("training diverged to non-finite weights "
                             "(learning_rate or l2 too large)")
        self.weights_ = W
        self.bias_ = b
        self.losses_ = losses
        return self

    # -- prediction ------------------------------------------------------

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        """``predict_proba_ids`` of the encoded documents as one id matrix,
        each row padded to the longest with the out-of-vocabulary id: its
        zero row leaves a row's sum as it is, so results do not depend on
        how rows are batched."""
        check_fitted(self, ("weights_", "bias_", "classes_", "vocabulary_"))
        ids = pad_rows(self.encode([w for words in docs for w in words]),
                       list(map(len, docs)), self.pad)
        return _softmax(self._logits(ids))

    @property
    def pad(self) -> int:
        """The out-of-vocabulary id, ``len(vocabulary_)``: its zero weight
        row adds exactly +0.0 at the end of a row's left-to-right sum, so a
        padded row scores as the row without its pad."""
        check_fitted(self, ("vocabulary_",))
        return len(self.vocabulary_)

    def encode(self, words: Sequence[str]) -> np.ndarray:
        """Model ids of ``words``; an out-of-vocabulary word gets
        ``len(vocabulary_)``, the id of the zero row ``predict_proba_ids``
        appends to the weights."""
        check_fitted(self, ("vocabulary_",))
        return np.fromiter(map(self._vocab_index_.get, words,
                               repeat(len(self.vocabulary_))),
                           dtype=np.intp, count=len(words))

    def predict_proba_ids(self, ids: np.ndarray) -> np.ndarray:
        """Softmax of ``bias`` plus the weight rows of each row of ``ids``,
        an ``(n, m)`` matrix of ``encode`` ids.

        Each row is summed left to right, as a word-by-word loop sums it.
        """
        check_fitted(self, ("weights_", "bias_", "classes_"))
        return _softmax(self._logits(ids))

    def _logits(self, ids: np.ndarray) -> np.ndarray:
        """``bias`` plus the weight rows of each row of ``ids``, added left to
        right: ``add.reduce`` over the leading axis of the ``(m + 1, n, c)``
        stack adds its slices in order."""
        padded = self._padded_weights()
        stack = np.empty((ids.shape[1] + 1, len(ids)), dtype=np.intp)
        stack[0] = len(padded) - 1
        stack[1:] = ids.T
        return np.add.reduce(padded.take(stack, axis=0), axis=0)

    def _padded_weights(self) -> np.ndarray:
        """``weights_`` with a zero row appended for out-of-vocabulary ids,
        then ``bias_`` as the last row; rebuilt only when ``weights_`` or
        ``bias_`` is no longer the array it came from."""
        cached = self.__dict__.get("_padded_")
        if cached is None or cached[0] is not self.weights_ or cached[1] is not self.bias_:
            zeros = np.zeros((1, self.weights_.shape[1]))
            cached = (self.weights_, self.bias_,
                      np.vstack([self.weights_, zeros, self.bias_[None, :]]))
            self._padded_ = cached
        return cached[2]


def train_bow(corpus: Corpus, **params) -> BowClassifier:
    """Train the built-in classifier on a labeled corpus; ``params`` are
    ``BowClassifier``'s keyword arguments, with its defaults."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    clf = BowClassifier(**params)
    docs = [d.words for d in corpus]
    labels = [corpus.labels[d.id] for d in corpus]
    return clf.fit(docs, labels)


def accuracy(predictor: Predictor, corpus: Corpus) -> float:
    """Fraction of documents whose prediction matches the corpus label."""
    if len(corpus) == 0:
        raise ValueError("cannot compute accuracy on an empty corpus")
    predicted = predictor.predict_many(corpus.documents)
    hits = sum(1 for d, label in zip(corpus, predicted) if label == corpus.labels[d.id])
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


def _distinct_strings(value) -> bool:
    """Whether ``value`` is a valid class or vocabulary list: distinct strings."""
    return (isinstance(value, list) and all(isinstance(v, str) for v in value)
            and len(set(value)) == len(value))


def load_model(path: str | Path) -> BowClassifier:
    """The classifier a ``save_model`` file holds; a file that is not one
    raises ValueError naming the field or hyperparameter at fault."""
    payload = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(payload, dict):
        raise ValueError("model file must hold a JSON object")
    version = payload.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise ValueError(f"unsupported model format version: {version!r}")
    missing = {"classes", "vocabulary", "weights", "bias"} - set(payload)
    if missing:
        raise ValueError(f"model file lacks {', '.join(sorted(missing))}")
    hyperparams = payload.get("hyperparams", {})
    if not isinstance(hyperparams, dict):
        raise ValueError(f"model file hyperparams is not an object: {hyperparams!r}")
    for key in ("classes", "vocabulary"):
        if not _distinct_strings(payload[key]):
            raise ValueError(f"model file {key} is not a list of distinct strings")
    clf = BowClassifier().set_params(**hyperparams)
    clf.classes_ = tuple(payload["classes"])
    clf.vocabulary_ = tuple(payload["vocabulary"])
    clf._vocab_index_ = {w: j for j, w in enumerate(clf.vocabulary_)}
    clf.weights_ = np.asarray(payload["weights"], dtype=np.float64)
    clf.bias_ = np.asarray(payload["bias"], dtype=np.float64)
    if clf.weights_.shape != (len(clf.vocabulary_), len(clf.classes_)) \
            or clf.bias_.shape != (len(clf.classes_),):
        raise ValueError("model file weight or bias shape does not match "
                         "vocabulary/classes")
    if not (np.isfinite(clf.weights_).all() and np.isfinite(clf.bias_).all()):
        raise ValueError("model file weights or bias are not finite")
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

    A scoring call sends its texts ``batch_size`` per request. The default
    is the anchor loop's rows per call, ``ROUND_ROWS``, so each of its calls
    is one request; ``requests`` counts the requests sent.

    The anchor loop's ids are the client's own: ``encode`` interns each word
    it has not seen into a table local to the client, with ids dense from 0,
    and the pad, -1, is no word's id. Threads may share a client: interning
    takes a lock.
    """

    pad = -1

    def __init__(self, endpoint: str | None = None,
                 command: Sequence[str] | None = None,
                 timeout: float = DEFAULT_TIMEOUT, batch_size: int = ROUND_ROWS):
        self.check_params(timeout, batch_size)
        # imported here: the transport loads subprocess, which only an
        # external client needs
        from ._transport import JsonLinesTransport

        self._transport = JsonLinesTransport(endpoint, command, timeout,
                                             ExternalPredictorError, "predictor")
        self.batch_size = int(batch_size)
        self.classes_ = None
        self.requests = 0
        # word -> id, in id order, and the words as an object array
        self._ids: dict[str, int] = {}
        self._table = np.empty(0, dtype=object)
        self._intern_lock = threading.Lock()

    @staticmethod
    def check_params(timeout: float, batch_size: int) -> None:
        """Raise ValueError on a setting out of range, before any connection.
        The messages name the settings as the CLI's config keys do."""
        check_timeout(timeout)
        check_positive_int(batch_size, "external_batch_size")

    def _request(self, texts: list[str]) -> np.ndarray:
        self.requests += 1
        payload = self._transport.roundtrip({"texts": texts})
        if "probs" not in payload or "classes" not in payload:
            raise ExternalPredictorError("response lacks probs/classes fields")
        classes = payload["classes"]
        if not _distinct_strings(classes):
            raise ExternalPredictorError(
                f"classes is not a list of distinct strings: {classes!r}")
        classes = tuple(classes)
        if self.classes_ is None:
            self.classes_ = classes
        elif classes != self.classes_:
            raise ExternalPredictorError(
                f"predictor changed classes mid-session: {classes} != {self.classes_}")
        try:
            probs = np.asarray(payload["probs"], dtype=np.float64)
        except (TypeError, ValueError) as exc:
            raise ExternalPredictorError("probs is not a matrix of numbers") from exc
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

    def predict_proba_many(self, docs: Sequence[Sequence[str]]) -> np.ndarray:
        """Each row's words joined by spaces."""
        return self._score([" ".join(w) for w in docs])

    def encode(self, words: Sequence[str]) -> np.ndarray:
        """The client's ids of ``words``; a word not seen before gets the
        next free id."""
        ids = self._ids
        with self._intern_lock:
            for word in words:
                ids.setdefault(word, len(ids))
        return np.fromiter(map(ids.__getitem__, words), dtype=np.intp,
                           count=len(words))

    def predict_proba_ids(self, ids: np.ndarray) -> np.ndarray:
        """The words of each ``encode`` id row, without its ``pad`` ids,
        joined by spaces: one gather from the word table, then one join per
        row."""
        table = self._table
        if len(table) < len(self._ids):
            with self._intern_lock:
                table = self._table = np.array(list(self._ids), dtype=object)
        kept = ids != self.pad
        # every row's words, one row after another; row i's end at ends[i]
        words = table[ids[kept]].tolist()
        ends = kept.sum(axis=1).cumsum().tolist()
        return self._score([" ".join(words[start:end])
                            for start, end in zip([0, *ends], ends)])

    def _score(self, texts: list[str]) -> np.ndarray:
        """The probability rows of ``texts``, sent ``batch_size`` per
        request."""
        if not texts:
            return np.zeros((0, 0))
        return np.concatenate([self._request(texts[i:i + self.batch_size])
                               for i in range(0, len(texts), self.batch_size)],
                              axis=0)

    def close(self):
        self._transport.close()


# -- wrappers --------------------------------------------------------------


class CachingPredictor(Predictor):
    """Memoizes probabilities by document content, for library callers of
    ``aopc_k`` and ``quality_timeline`` that score the same texts again.
    No command uses it: ``eval-aopc`` and ``compare`` key their rows by
    text themselves, a run classifies its corpus once
    (``topk.classify_corpus``), and its perturbation samples are unique
    draws.
    """

    def __init__(self, base: Predictor):
        self.base = base
        self._cache: dict[tuple[str, ...], np.ndarray] = {}
        self._lock = threading.Lock()

    @property
    def classes_(self) -> tuple[str, ...]:  # type: ignore[override]
        return self.base.classes_

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
