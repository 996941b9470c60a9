"""Quality measurement for top-term lists.

The central metric is the average drop in class probability when growing
prefixes of a term list are removed from each document of the class. A term
list that names words the model actually relies on produces large drops;
lists of irrelevant words score near zero, and negative values are possible
when removals raise the class probability.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .corpus import Corpus, Document, tokenize
from .model import CachingPredictor, Predictor

__all__ = [
    "TermList",
    "AopcResult",
    "AppendDropResult",
    "remove_prefix",
    "aopc_k",
    "shared_terms_ratio",
    "append_drop",
    "quality_timeline",
    "write_timeline_csv",
]


@dataclass(frozen=True)
class TermList:
    """An ordered top-k word list for one class under one aggregation."""

    class_label: str
    aggregation: str
    items: tuple[tuple[str, float], ...]
    ties: tuple[tuple[str, ...], ...] = field(default_factory=tuple)

    def __post_init__(self):
        words = [w for w, _ in self.items]
        if len(set(words)) != len(words):
            raise ValueError("duplicate words in term list")
        for (w1, s1), (w2, s2) in zip(self.items, self.items[1:]):
            if s1 < s2 or (s1 == s2 and w1 > w2):
                raise ValueError("term list must be sorted by descending score, "
                                 "ties lexicographic")

    @classmethod
    def from_pairs(cls, class_label: str, aggregation: str,
                   pairs: Iterable[tuple[str, float]]) -> "TermList":
        items = tuple(sorted(pairs, key=lambda p: (-p[1], p[0])))
        by_score: dict[float, list[str]] = {}
        for w, s in items:
            by_score.setdefault(s, []).append(w)
        ties = tuple(tuple(ws) for ws in by_score.values() if len(ws) > 1)
        return cls(class_label=class_label, aggregation=aggregation,
                   items=items, ties=ties)

    @property
    def words(self) -> tuple[str, ...]:
        return tuple(w for w, _ in self.items)

    def __len__(self) -> int:
        return len(self.items)

    def to_json(self) -> dict:
        return {
            "class": self.class_label,
            "agg": self.aggregation,
            "k": len(self.items),
            "terms": [{"word": w, "score": s} for w, s in self.items],
        }

    @classmethod
    def from_json(cls, payload: Mapping) -> "TermList":
        try:
            pairs = [(t["word"], float(t["score"])) for t in payload["terms"]]
            return cls.from_pairs(payload["class"], payload.get("agg", "unknown"), pairs)
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed term list payload: {exc}") from exc

    def save(self, path: str | Path) -> None:
        Path(path).write_text(json.dumps(self.to_json(), indent=2), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "TermList":
        return cls.from_json(json.loads(Path(path).read_text(encoding="utf-8")))


def remove_prefix(doc: Document, terms: TermList | Sequence[str], i: int) -> Document:
    """Drop every occurrence of the first ``i`` terms; positions re-index."""
    words = terms.words if isinstance(terms, TermList) else tuple(terms)
    if not 0 <= i <= len(words):
        raise ValueError(f"prefix length {i} out of range 0..{len(words)}")
    prefix = set(words[:i])
    kept = tuple(w for w in doc.words if w not in prefix)
    if kept == doc.words:
        return doc
    return Document(id=doc.id, words=kept, raw_text=" ".join(kept))


@dataclass(frozen=True)
class AopcResult:
    value: float
    per_prefix: tuple[float, ...]
    documents: int


def aopc_k(terms: TermList, corpus: Corpus, predictor: Predictor, c: str
           ) -> AopcResult:
    """Average class-probability drop over growing removal prefixes.

    Averages over the documents the predictor itself assigns to class ``c``;
    documents containing none of the terms contribute zero drops but stay in
    the average. The prefix sum is normalized by k + 1.
    """
    if len(terms) == 0:
        raise ValueError("empty term list")
    k = len(terms)
    docs = list(corpus)
    predicted = np.argmax(predictor.predict_proba_many([d.words for d in docs]),
                          axis=1) if docs else ()
    class_docs = [d for d, j in zip(docs, predicted) if predictor.classes_[j] == c]
    if not class_docs:
        raise ValueError(f"no documents classified as {c!r}")
    c_idx = predictor.class_index(c)
    words = terms.words
    term_set = set(words)
    touched = [d for d in class_docs if not term_set.isdisjoint(d.words)]
    drops = np.zeros(k)
    if touched:
        # per touched document: its words, then its k removal prefixes
        rows = [remove_prefix(doc, words, i).words
                for doc in touched for i in range(k + 1)]
        probs = predictor.predict_proba_many(rows)[:, c_idx].reshape(len(touched), k + 1)
        for row in probs:
            for i in range(k):
                drops[i] += row[0] - row[i + 1]
    per_prefix = drops / len(class_docs)
    value = float(per_prefix.sum() / (k + 1))
    return AopcResult(value=value, per_prefix=tuple(per_prefix.tolist()),
                      documents=len(class_docs))


def shared_terms_ratio(a: TermList | Sequence[str], b: TermList | Sequence[str]
                       ) -> float:
    """Fraction of terms the two equal-length lists have in common."""
    words_a = a.words if isinstance(a, TermList) else tuple(a)
    words_b = b.words if isinstance(b, TermList) else tuple(b)
    if len(words_a) != len(words_b):
        raise ValueError(f"term lists differ in length: {len(words_a)} != {len(words_b)}")
    if not words_a:
        raise ValueError("empty term lists")
    return len(set(words_a) & set(words_b)) / len(words_a)


@dataclass(frozen=True)
class AppendDropResult:
    accuracy_before: float
    accuracy_after: float
    drop_points: float


def append_drop(corpus: Corpus, predictor: Predictor, sentence: str,
                target_class: str, *, max_chars: int | None = None,
                opposite_labels: Iterable[str] | None = None
                ) -> AppendDropResult:
    """Append a sentence to every document of the other labels and measure
    the overall accuracy change (percentage points).

    By default "other" means every label except ``target_class``; for
    multi-class tasks an explicit ``opposite_labels`` set narrows which
    labels receive the text. With ``max_chars`` set, modified texts are
    truncated to the cap before re-tokenization; by default overflow is
    allowed since this is a measurement, not ingestion.
    """
    if target_class not in corpus.classes:
        raise ValueError(f"unknown class {target_class!r}")
    if not tokenize(sentence):
        raise ValueError("sentence tokenizes to nothing")
    if opposite_labels is None:
        opposite = set(corpus.classes) - {target_class}
    else:
        opposite = set(opposite_labels)
        unknown = opposite - set(corpus.classes)
        if unknown:
            raise ValueError(f"unknown opposite labels: {sorted(unknown)}")
    before = _accuracy(predictor, corpus.documents, corpus.labels)
    modified = []
    for doc in corpus:
        if corpus.labels[doc.id] not in opposite:
            modified.append(doc)
            continue
        text = doc.raw_text + " " + sentence if doc.raw_text else sentence
        if max_chars is not None:
            text = text[:max_chars]
        modified.append(Document.from_text(doc.id, text))
    after = _accuracy(predictor, modified, corpus.labels)
    return AppendDropResult(accuracy_before=before, accuracy_after=after,
                            drop_points=(before - after) * 100.0)


def _accuracy(predictor: Predictor, documents: Sequence[Document],
              labels: Mapping[str, str]) -> float:
    hits = sum(1 for d in documents if predictor.predict(d) == labels[d.id])
    return hits / len(documents)


def quality_timeline(snapshots: Sequence[Mapping], corpus: Corpus,
                     predictor: Predictor, c: str
                     ) -> list[tuple[float, int, float]]:
    """Evaluate each snapshot's top-k list; returns (t_sec, calls, aopc) rows.

    Removal prefixes repeat heavily across snapshots, so predictions run
    through a content-keyed cache.
    """
    cached = CachingPredictor(predictor)
    rows = []
    for snap in snapshots:
        topk = snap["topk"]
        if not topk:
            continue
        terms = TermList.from_pairs(c, "snapshot",
                                    [(t["word"], float(t["score"])) for t in topk])
        result = aopc_k(terms, corpus, cached, c)
        rows.append((float(snap["t_sec"]), int(snap["calls"]), result.value))
    return rows


def write_timeline_csv(handle: IO[str], rows: Iterable[tuple[float, int, float]]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["t_sec", "calls", "aopc"])
    for t_sec, calls, aopc in rows:
        writer.writerow([f"{t_sec:.6f}", calls, f"{aopc:.10g}"])
