"""Document collection handling: loading, tokenization, word statistics,
candidate filtering, and document sampling.

The tokenizer is deliberately simple and documented so that external
predictor services can reproduce it exactly: lowercase, split on Unicode
whitespace, strip leading/trailing punctuation, drop empty results.
"""

from __future__ import annotations

import csv
import json
import unicodedata
from collections import Counter
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from ._validation import check_fraction, check_positive_int

__all__ = [
    "Token",
    "Document",
    "Corpus",
    "WordStats",
    "CandidateSet",
    "tokenize",
    "load_corpus",
    "load_stopwords",
    "default_stopwords",
    "word_stats",
    "filter_candidates",
    "sample_documents",
]

DEFAULT_CHAR_CAP = 200


class Token(NamedTuple):
    word: str
    position: int


@dataclass(frozen=True)
class Document:
    """A tokenized document: an ordered word sequence plus the original text."""

    id: str
    words: tuple[str, ...]
    raw_text: str

    @classmethod
    def from_text(cls, doc_id: str, text: str) -> "Document":
        return cls(id=doc_id, words=tuple(tokenize(text)), raw_text=text)

    @property
    def tokens(self) -> list[Token]:
        return [Token(w, i) for i, w in enumerate(self.words)]

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Corpus:
    """A labeled document collection with a fixed, lexicographic class order."""

    documents: tuple[Document, ...]
    labels: dict[str, str]
    classes: tuple[str, ...]

    def __post_init__(self):
        ids = [d.id for d in self.documents]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate document ids in corpus")
        class_set = set(self.classes)
        for doc_id, label in self.labels.items():
            if label not in class_set:
                raise ValueError(f"document {doc_id!r} has unknown label {label!r}")
        missing = [d.id for d in self.documents if d.id not in self.labels]
        if missing:
            raise ValueError(f"documents without labels: {missing[:5]}")

    @classmethod
    def from_documents(cls, documents: Sequence[Document],
                       labels: Mapping[str, str]) -> "Corpus":
        classes = tuple(sorted(set(labels[d.id] for d in documents)))
        return cls(documents=tuple(documents), labels=dict(labels), classes=classes)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def total_tokens(self) -> int:
        return sum(len(d) for d in self.documents)


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punctuation(word: str) -> str:
    start, end = 0, len(word)
    while start < end and _is_punctuation(word[start]):
        start += 1
    while end > start and _is_punctuation(word[end - 1]):
        end -= 1
    return word[start:end]


def tokenize(text: str) -> list[str]:
    """Lowercase, split on Unicode whitespace, strip edge punctuation.

    Empty results are dropped, so positions of the returned words are
    consecutive from zero. Idempotent on its own output.
    """
    words = []
    for chunk in text.lower().split():
        word = _strip_punctuation(chunk)
        if word:
            words.append(word)
    return words


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stop-word file: one word per line, '#' starts a comment line."""
    words = set()
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            words.add(line.lower())
    return frozenset(words)


def default_stopwords() -> frozenset[str]:
    """The stop-word list shipped with the package."""
    text = resources.files("anchoragg").joinpath("data/stopwords.txt").read_text("utf-8")
    return frozenset(
        line.strip().lower()
        for line in text.splitlines()
        if line.strip() and not line.startswith("#")
    )


def _read_csv_rows(path: Path, text_field: str, label_field: str,
                   encoding: str) -> Iterable[tuple[str, str, str]]:
    with open(path, newline="", encoding=encoding) as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError(f"{path}: empty CSV, header row required")
        for name in (text_field, label_field):
            if name not in reader.fieldnames:
                raise ValueError(f"{path}: missing column {name!r} "
                                 f"(have {reader.fieldnames})")
        for index, row in enumerate(reader):
            yield str(index), row[text_field] or "", row[label_field] or ""


def _read_jsonl_rows(path: Path, text_field: str, label_field: str,
                     encoding: str) -> Iterable[tuple[str, str, str]]:
    with open(path, encoding=encoding) as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            obj = json.loads(line)
            if text_field not in obj or label_field not in obj:
                raise ValueError(f"{path}:{index + 1}: object lacks "
                                 f"{text_field!r}/{label_field!r} fields")
            yield str(obj.get("id", index)), str(obj[text_field]), str(obj[label_field])


def load_corpus(path: str | Path, format: str = "csv", *,
                text_field: str = "text", label_field: str = "label",
                max_chars: int = DEFAULT_CHAR_CAP, encoding: str = "utf-8",
                classes: Sequence[str] | None = None) -> Corpus:
    """Load a labeled corpus from CSV or JSONL.

    Documents longer than ``max_chars`` characters are dropped at ingestion.
    Document order follows file order; class order is lexicographic. When an
    explicit ``classes`` set is given, rows with labels outside it raise.
    """
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"corpus file not found: {path}")
    if format == "csv":
        rows = _read_csv_rows(path, text_field, label_field, encoding)
    elif format == "jsonl":
        rows = _read_jsonl_rows(path, text_field, label_field, encoding)
    else:
        raise ValueError(f"unknown corpus format {format!r} (expected csv or jsonl)")

    allowed = set(classes) if classes is not None else None
    documents: list[Document] = []
    labels: dict[str, str] = {}
    for doc_id, text, label in rows:
        if allowed is not None and label not in allowed:
            raise ValueError(f"unknown label value {label!r} for document {doc_id!r}")
        if len(text) > max_chars:
            continue
        documents.append(Document.from_text(doc_id, text))
        labels[doc_id] = label
    if not documents:
        raise ValueError(f"{path}: empty corpus after filtering")
    if classes is not None:
        ordered = tuple(sorted(allowed))
    else:
        ordered = tuple(sorted(set(labels.values())))
    return Corpus(documents=tuple(documents), labels=labels, classes=ordered)


@dataclass(frozen=True)
class WordStats:
    """Exhaustive word occurrence statistics over a corpus.

    ``label_map`` controls how per-class counts are partitioned; by default
    it is the corpus gold labels, but callers aggregating with respect to a
    predictor's own classification pass the predicted labels instead.
    """

    vocabulary: frozenset[str]
    classes: tuple[str, ...]
    total_count: dict[str, int]
    class_count: dict[str, Counter]
    doc_freq_total: dict[str, int]
    doc_freq_class: dict[str, Counter]
    total_tokens: int = 0

    def n_w(self, word: str) -> int:
        return self.total_count.get(word, 0)


def word_stats(corpus: Corpus,
               label_map: Mapping[str, str] | None = None) -> WordStats:
    """Count word occurrences, per-class occurrences, and document frequencies."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    labels = corpus.labels if label_map is None else label_map
    total: Counter = Counter()
    by_class: dict[str, Counter] = {c: Counter() for c in corpus.classes}
    df_total: Counter = Counter()
    df_class: dict[str, Counter] = {c: Counter() for c in corpus.classes}
    n_tokens = 0
    for doc in corpus:
        c = labels[doc.id]
        counts = Counter(doc.words)
        n_tokens += len(doc)
        total.update(counts)
        by_class[c].update(counts)
        for word in counts:
            df_total[word] += 1
            df_class[c][word] += 1
    return WordStats(
        vocabulary=frozenset(total),
        classes=corpus.classes,
        total_count=dict(total),
        class_count=by_class,
        doc_freq_total=dict(df_total),
        doc_freq_class=df_class,
        total_tokens=n_tokens,
    )


@dataclass(frozen=True)
class CandidateSet:
    """Words eligible for top-k scoring after stop-word and rarity filtering."""

    words: frozenset[str]
    stopwords: frozenset[str] = field(default_factory=frozenset)
    min_freq: int = 1

    def __contains__(self, word: str) -> bool:
        return word in self.words

    def __len__(self) -> int:
        return len(self.words)


def filter_candidates(stats: WordStats, stopwords: Iterable[str] = (),
                      min_freq: int = 1) -> CandidateSet:
    """Drop stop-words and words occurring fewer than ``min_freq`` times."""
    check_positive_int(min_freq, "min_freq")
    stop = frozenset(w.lower() for w in stopwords)
    kept = frozenset(
        w for w in stats.vocabulary
        if w not in stop and stats.total_count[w] >= min_freq
    )
    return CandidateSet(words=kept, stopwords=stop, min_freq=min_freq)


def sample_documents(corpus: Corpus, fraction: float,
                     rng: np.random.Generator) -> Corpus:
    """Uniform sample without replacement of round(fraction * |S|) documents.

    Document order within the sample follows the original corpus order, so
    repeated runs with the same generator state return the same corpus.
    """
    check_fraction(fraction, "fraction")
    n = len(corpus)
    size = int(fraction * n + 0.5)
    if size >= n:
        return corpus
    picked = sorted(rng.choice(n, size=size, replace=False).tolist())
    documents = tuple(corpus.documents[i] for i in picked)
    labels = {d.id: corpus.labels[d.id] for d in documents}
    return Corpus(documents=documents, labels=labels, classes=corpus.classes)
