"""Synthetic labeled corpora with known ground truth.

Each document mixes planted class-signal words with common function words,
mid-frequency fillers, and unique rare words; the label is the class of the
planted signal, optionally flipped by label noise. A few single-token
documents carry a unique word each, which reproduces the rare-word failure
mode of occurrence-normalized scores (one occurrence, one anchor, maximal
score). The ground truth records the planted words per class so recovery
can be asserted.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Corpus, Document
from .seeding import stream_rng

__all__ = ["SynthSpec", "PlantedTruth", "generate_planted_corpus"]

_FUNCTION_WORDS = ("the", "a", "and", "of", "to", "is", "it", "this", "was", "for")
# words of each kind in a regular document: a uniform draw from low..high
_SIGNAL_PER_DOC = (3, 5)
_NOISY_SIGNAL_PER_DOC = (1, 1)
_FUNCTION_PER_DOC = (7, 9)
_FILLER_PER_DOC = (4, 5)
_RARE_PER_DOC = (2, 3)


@dataclass(frozen=True)
class SynthSpec:
    """Shape of the generated corpus."""

    n_docs: int = 500
    n_signal: int = 10
    noise: float = 0.1
    n_fillers: int = 450
    n_singleton_docs: int = 6

    def __post_init__(self):
        if self.n_docs < 2:
            raise ValueError("need at least 2 documents")
        if self.n_docs - self.n_singleton_docs < 2:
            raise ValueError("n_docs too small for the requested singleton documents")
        if self.n_singleton_docs < 0:
            raise ValueError("n_singleton_docs must be non-negative, "
                             f"got {self.n_singleton_docs}")
        if self.n_signal < 1:
            raise ValueError("need at least 1 signal word per class")
        if self.n_fillers < 1:
            raise ValueError(f"n_fillers must be at least 1, got {self.n_fillers}")
        if not 0.0 <= self.noise < 1.0:
            raise ValueError(f"noise out of [0, 1): {self.noise}")


@dataclass(frozen=True)
class PlantedTruth:
    """Planted signal words per class, plus the singleton pathology words."""

    signal: dict[str, tuple[str, ...]]
    singletons: dict[str, tuple[str, ...]]

    def to_json(self) -> dict:
        return {
            "signal": {c: list(ws) for c, ws in self.signal.items()},
            "singletons": {c: list(ws) for c, ws in self.singletons.items()},
        }

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")


def _draw_count(rng: np.random.Generator, bounds: tuple[int, int]) -> int:
    low, high = bounds
    return int(rng.integers(low, high + 1))


def generate_planted_corpus(spec: SynthSpec = SynthSpec(), seed: int = 0
                            ) -> tuple[Corpus, PlantedTruth]:
    """Binary corpus whose label is a (noisy) function of planted words."""
    rng = stream_rng(seed, "synth")
    classes = ("neg", "pos")
    signal = {
        "pos": tuple(f"gsig{i:02d}" for i in range(spec.n_signal)),
        "neg": tuple(f"bsig{i:02d}" for i in range(spec.n_signal)),
    }
    fillers = [f"fil{i:03d}" for i in range(spec.n_fillers)]
    # mild frequency skew so the replacement pool is not uniform
    filler_weights = 1.0 / np.arange(1, spec.n_fillers + 1) ** 0.5
    filler_weights /= filler_weights.sum()

    documents: list[Document] = []
    labels: dict[str, str] = {}
    rare_serial = 0

    # Signal words are dealt from per-class shuffled decks so occurrence
    # counts stay balanced; uneven counts make the weakest planted word's
    # anchor behavior erratic.
    decks: dict[str, list[int]] = {c: [] for c in classes}

    def deal_signal(c: str, n: int) -> list[int]:
        out = []
        for _ in range(n):
            if not decks[c]:
                decks[c] = list(rng.permutation(spec.n_signal))
            out.append(decks[c].pop())
        return out

    for i in range(spec.n_docs - spec.n_singleton_docs):
        c = classes[int(rng.integers(0, 2))]
        # Noisy documents carry a deliberately weak signal, so the label
        # contradicts the planted rule without putting much opposing weight
        # on the signal words themselves.
        noisy = spec.noise > 0 and rng.random() < spec.noise
        words: list[str] = []
        n_sig = _draw_count(rng, _NOISY_SIGNAL_PER_DOC if noisy else _SIGNAL_PER_DOC)
        words.extend(signal[c][j] for j in deal_signal(c, n_sig))
        n_fun = _draw_count(rng, _FUNCTION_PER_DOC)
        words.extend(_FUNCTION_WORDS[j] for j in
                     rng.integers(0, len(_FUNCTION_WORDS), size=n_fun))
        n_fill = _draw_count(rng, _FILLER_PER_DOC)
        words.extend(fillers[j] for j in
                     rng.choice(spec.n_fillers, size=n_fill, p=filler_weights))
        for _ in range(_draw_count(rng, _RARE_PER_DOC)):
            words.append(f"rr{rare_serial:05d}")
            rare_serial += 1
        order = rng.permutation(len(words))
        shuffled = tuple(words[j] for j in order)
        doc_id = f"d{i:05d}"
        documents.append(Document(id=doc_id, words=shuffled,
                                  raw_text=" ".join(shuffled)))
        labels[doc_id] = classes[1 - classes.index(c)] if noisy else c

    singleton_words: list[str] = []
    for i in range(spec.n_singleton_docs):
        word = f"once{i:03d}"
        singleton_words.append(word)
        doc_id = f"s{i:05d}"
        documents.append(Document(id=doc_id, words=(word,), raw_text=word))
        labels[doc_id] = "pos"

    truth = PlantedTruth(signal=signal,
                         singletons={"pos": tuple(singleton_words), "neg": ()})
    corpus = Corpus(documents=tuple(documents), labels=labels, classes=classes)
    return corpus, truth

