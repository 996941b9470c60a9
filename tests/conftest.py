import numpy as np
import pytest

from anchoragg.corpus import Corpus, Document
from anchoragg.model import Predictor, train_bow
from anchoragg.perturb import Perturbator
from anchoragg.synth import SynthSpec, generate_planted_corpus


def make_doc(doc_id: str, text: str) -> Document:
    return Document.from_text(doc_id, text)


def corpus_of(docs, labels):
    """A corpus of ``docs`` whose classes are their labels, in lexicographic
    order."""
    classes = tuple(sorted(set(labels[d.id] for d in docs)))
    return Corpus(documents=tuple(docs), labels=dict(labels), classes=classes)


def make_corpus(rows):
    """rows: iterable of (id, text, label)."""
    docs = [Document.from_text(i, t) for i, t, _ in rows]
    labels = {i: c for i, _, c in rows}
    return corpus_of(docs, labels)


class ConstantPredictor(Predictor):
    """Always the same class, with a fixed probability vector."""

    def __init__(self, classes=("neg", "pos"), label="pos", confidence=0.9):
        self.classes_ = tuple(classes)
        probs = np.full(len(self.classes_),
                        (1 - confidence) / (len(self.classes_) - 1))
        probs[self.classes_.index(label)] = confidence
        self._probs = probs

    def predict_proba_words(self, words):
        return self._probs.copy()


class RowRecorder(Predictor):
    """Forwards to ``base`` and counts every row it scores, as words or ids.
    ``calls`` logs each call: ``("many", word rows)`` or ``("ids", n rows)``."""

    def __init__(self, base):
        self.base = base
        self.classes_ = base.classes_
        self.rows = 0
        self.calls = []

    def predict_proba_many(self, docs):
        self.rows += len(docs)
        self.calls.append(("many", [tuple(words) for words in docs]))
        return self.base.predict_proba_many(docs)

    def encode(self, words):
        return self.base.encode(words)

    @property
    def pad(self):
        return self.base.pad

    def predict_proba_ids(self, ids):
        self.rows += len(ids)
        self.calls.append(("ids", len(ids)))
        return self.base.predict_proba_ids(ids)


class PositionWordPredictor(Predictor):
    """Class ``hit`` iff a specific word sits at a specific position."""

    def __init__(self, word: str, position: int, classes=("miss", "hit")):
        self.word = word
        self.position = position
        self.classes_ = tuple(classes)

    def predict_proba_words(self, words):
        words = list(words)
        hit = self.position < len(words) and words[self.position] == self.word
        return np.array([0.1, 0.9]) if hit else np.array([0.9, 0.1])


class FlipWordPredictor(Predictor):
    """Class ``neg`` iff the flip word occurs anywhere, else ``pos``."""

    def __init__(self, flip_word="flipword"):
        self.flip_word = flip_word
        self.classes_ = ("neg", "pos")

    def predict_proba_words(self, words):
        if self.flip_word in words:
            return np.array([0.95, 0.05])
        return np.array([0.05, 0.95])


class CoinPerturbator(Perturbator):
    """Returns the document unchanged with probability ``pi``; otherwise
    plants the flip word at the first position outside ``keep``.

    Paired with FlipWordPredictor, the precision of any kept token is
    exactly ``pi``.
    """

    def __init__(self, pi: float, flip_word="flipword"):
        self.pi = float(pi)
        self.flip_word = flip_word

    def sample_batch(self, doc, keep, n, rng):
        keep_set = set(keep)
        free = [i for i in range(len(doc.words)) if i not in keep_set]
        if not free:
            return [tuple(doc.words)] * n
        target = free[0]
        coins = rng.random(n)
        out = []
        for c in coins:
            if c < self.pi:
                out.append(tuple(doc.words))
            else:
                words = list(doc.words)
                words[target] = self.flip_word
                out.append(tuple(words))
        return out


@pytest.fixture(scope="session")
def planted500():
    """The full-scale planted corpus with a trained classifier."""
    corpus, truth = generate_planted_corpus(SynthSpec(), seed=2)
    clf = train_bow(corpus, epochs=800, learning_rate=0.3, l2=5e-4, seed=0)
    return corpus, truth, clf


@pytest.fixture(scope="session")
def planted200():
    """A smaller planted corpus for completion-equivalence runs."""
    spec = SynthSpec(n_docs=200, n_fillers=180, n_singleton_docs=4)
    corpus, truth = generate_planted_corpus(spec, seed=7)
    clf = train_bow(corpus, epochs=600, learning_rate=0.3, l2=5e-4, seed=0)
    return corpus, truth, clf


@pytest.fixture
def tiny_corpus():
    return make_corpus([
        ("0", "great fun game", "pos"),
        ("1", "broke cheap waste", "neg"),
        ("2", "great great classic", "pos"),
        ("3", "waste of money", "neg"),
    ])
