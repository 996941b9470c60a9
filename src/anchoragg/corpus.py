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
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from ._validation import check_fraction, check_positive_int

__all__ = [
    "Document",
    "Corpus",
    "WordStats",
    "tokenize",
    "load_corpus",
    "load_stopwords",
    "default_stopwords",
    "word_stats",
    "filter_candidates",
    "sample_documents",
]

DEFAULT_CHAR_CAP = 200


@dataclass(frozen=True)
class Document:
    """A tokenized document: an ordered word sequence plus the original text."""

    id: str
    words: tuple[str, ...]
    raw_text: str

    @classmethod
    def from_text(cls, doc_id: str, text: str) -> "Document":
        return cls(id=doc_id, words=tuple(tokenize(text)), raw_text=text)

    def __len__(self) -> int:
        return len(self.words)


@dataclass(frozen=True)
class Corpus:
    """A labeled document collection with a fixed, lexicographic class order.
    ``dropped`` counts the documents ``load_corpus`` left out as too long."""

    documents: tuple[Document, ...]
    labels: dict[str, str]
    classes: tuple[str, ...]
    dropped: int = 0

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

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self):
        return iter(self.documents)

    def total_tokens(self) -> int:
        return sum(len(d) for d in self.documents)


def _is_punctuation(ch: str) -> bool:
    return unicodedata.category(ch).startswith("P")


def _strip_punctuation(word: str) -> str:
    # no alphanumeric character is punctuation: most words return here
    if word[0].isalnum() and word[-1].isalnum():
        return word
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


def _parse_stopwords(text: str) -> frozenset[str]:
    """One word per line, lowercased; blank lines and lines whose first
    non-blank character is '#' are ignored."""
    lines = (line.strip() for line in text.splitlines())
    return frozenset(line.lower() for line in lines
                     if line and not line.startswith("#"))


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stop-word file: one word per line, '#' starts a comment line."""
    return _parse_stopwords(Path(path).read_text(encoding="utf-8"))


def default_stopwords() -> frozenset[str]:
    """The stop-word list shipped with the package."""
    return _parse_stopwords(
        resources.files("anchoragg").joinpath("data/stopwords.txt").read_text("utf-8"))


def _label(value, line: int) -> str:
    """A row's label as a class name: a non-empty string, or an integer."""
    if isinstance(value, bool) or not isinstance(value, (str, int)) or value == "":
        raise ValueError(f"line {line}: label {value!r} is neither a non-empty "
                         "string nor an integer")
    return str(value)


def _read_csv_rows(path: str | Path, text_field: str, label_field: str
                   ) -> Iterable[tuple[str, str, str]]:
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames is None:
            raise ValueError("empty CSV, header row required")
        for name in (text_field, label_field):
            if name not in reader.fieldnames:
                raise ValueError(f"missing column {name!r} (have {reader.fieldnames})")
        for index, row in enumerate(reader):
            yield (str(index), row[text_field] or "",
                   _label(row[label_field], reader.line_num))


def _read_jsonl_rows(path: str | Path, text_field: str, label_field: str
                     ) -> Iterable[tuple[str, str, str]]:
    with open(path, encoding="utf-8") as handle:
        for index, line in enumerate(handle):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"line {index + 1}: {exc.msg} at column {exc.colno}") from exc
            if not isinstance(obj, dict):
                raise ValueError(f"line {index + 1}: not a JSON object")
            if text_field not in obj or label_field not in obj:
                raise ValueError(f"line {index + 1}: object lacks "
                                 f"{text_field!r}/{label_field!r} fields")
            text, doc_id = obj[text_field], obj.get("id", index)
            if not isinstance(text, str):
                raise ValueError(f"line {index + 1}: {text_field!r} is not a string")
            if isinstance(doc_id, bool) or not isinstance(doc_id, (str, int)):
                raise ValueError(f"line {index + 1}: 'id' is not a string or an integer")
            yield str(doc_id), text, _label(obj[label_field], index + 1)


def load_corpus(path: str | Path, format: str = "csv", *,
                text_field: str = "text", label_field: str = "label",
                max_chars: int = DEFAULT_CHAR_CAP) -> Corpus:
    """Load a labeled corpus from a UTF-8 CSV or JSONL file.

    Documents longer than ``max_chars`` characters are dropped at ingestion,
    and counted in the corpus's ``dropped``. Document order follows file
    order; the classes are the labels of the kept documents, in
    lexicographic order.
    """
    if format == "csv":
        rows = _read_csv_rows(path, text_field, label_field)
    elif format == "jsonl":
        rows = _read_jsonl_rows(path, text_field, label_field)
    else:
        raise ValueError(f"unknown corpus format {format!r} (expected csv or jsonl)")

    documents: list[Document] = []
    labels: dict[str, str] = {}
    dropped = 0
    for doc_id, text, label in rows:
        if len(text) > max_chars:
            dropped += 1
            continue
        documents.append(Document.from_text(doc_id, text))
        labels[doc_id] = label
    if not documents:
        raise ValueError("empty corpus after filtering")
    return Corpus(documents=tuple(documents), labels=labels,
                  classes=tuple(sorted(set(labels.values()))), dropped=dropped)


@dataclass(frozen=True)
class WordStats:
    """Exhaustive word occurrence statistics over a corpus.

    ``label_map`` controls how per-class document frequencies are
    partitioned; by default it is the corpus gold labels, but callers
    aggregating with respect to a predictor's own classification pass the
    predicted labels instead.
    """

    vocabulary: frozenset[str]
    total_count: dict[str, int]
    doc_freq_total: dict[str, int]
    doc_freq_class: dict[str, Counter]

    def n_w(self, word: str) -> int:
        return self.total_count.get(word, 0)


def word_stats(corpus: Corpus,
               label_map: Mapping[str, str] | None = None) -> WordStats:
    """Count word occurrences, and document frequencies in total and per class."""
    if len(corpus) == 0:
        raise ValueError("corpus is empty")
    labels = corpus.labels if label_map is None else label_map
    total: Counter = Counter()
    df_total: Counter = Counter()
    df_class: dict[str, Counter] = {c: Counter() for c in corpus.classes}
    for doc in corpus:
        c = labels[doc.id]
        counts = Counter(doc.words)
        total.update(counts)
        for word in counts:
            df_total[word] += 1
            df_class[c][word] += 1
    return WordStats(
        vocabulary=frozenset(total),
        total_count=dict(total),
        doc_freq_total=dict(df_total),
        doc_freq_class=df_class,
    )


def filter_candidates(stats: WordStats, stopwords: Iterable[str] = (),
                      min_freq: int = 1) -> frozenset[str]:
    """The vocabulary without stop-words and words occurring fewer than
    ``min_freq`` times."""
    check_positive_int(min_freq, "min_freq")
    stop = frozenset(w.lower() for w in stopwords)
    return frozenset(
        w for w in stats.vocabulary
        if w not in stop and stats.total_count[w] >= min_freq
    )


def sample_size(n: int, fraction: float) -> int:
    """How many of ``n`` documents a sample of ``fraction`` keeps:
    round(fraction * n). Raises ValueError where that is none of them."""
    check_fraction(fraction, "fraction")
    size = int(fraction * n + 0.5)
    if size == 0 < n:
        raise ValueError(f"sample_fraction {fraction} keeps none of the {n} documents")
    return size


def sample_documents(corpus: Corpus, fraction: float,
                     rng: np.random.Generator) -> Corpus:
    """Uniform sample without replacement of round(fraction * |S|) documents.

    Document order within the sample follows the original corpus order, so
    repeated runs with the same generator state return the same corpus.
    """
    n = len(corpus)
    size = sample_size(n, fraction)
    if size >= n:
        return corpus
    picked = sorted(rng.choice(n, size=size, replace=False).tolist())
    documents = tuple(corpus.documents[i] for i in picked)
    labels = {d.id: corpus.labels[d.id] for d in documents}
    return Corpus(documents=documents, labels=labels, classes=corpus.classes)
