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
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping, Sequence

from .corpus import Corpus, Document
from .model import Predictor

__all__ = [
    "TermList",
    "AopcResult",
    "remove_prefix",
    "aopc_k",
    "shared_terms_ratio",
    "quality_timeline",
    "write_timeline_csv",
]


@dataclass(frozen=True)
class TermList:
    """An ordered top-k word list for one class under one aggregation."""

    class_label: str
    aggregation: str
    items: tuple[tuple[str, float], ...]

    def __post_init__(self):
        words = [w for w, _ in self.items]
        if not all(isinstance(w, str) for w in words):
            raise ValueError("lists a word that is not a string")
        if not all(math.isfinite(s) for _, s in self.items):
            raise ValueError("lists a score that is not finite")
        if len(set(words)) != len(words):
            raise ValueError("lists a word twice")
        for (w1, s1), (w2, s2) in zip(self.items, self.items[1:]):
            if s1 < s2 or (s1 == s2 and w1 > w2):
                raise ValueError("term list must be sorted by descending score, "
                                 "ties lexicographic")

    @classmethod
    def from_pairs(cls, class_label: str, aggregation: str,
                   pairs: Iterable[tuple[str, float]]) -> "TermList":
        # str(): a word that is not a string reaches __post_init__'s check
        # instead of failing a comparison with a tied string
        return cls(class_label=class_label, aggregation=aggregation,
                   items=tuple(sorted(pairs, key=lambda p: (-p[1], str(p[0])))))

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
    from ._aopc import AopcScorer

    return AopcScorer(corpus, predictor, c).aopc([terms.words])[0]


def shared_terms_ratio(a: TermList, b: TermList) -> float:
    """Fraction of terms the two equal-length lists have in common."""
    words_a, words_b = a.words, b.words
    if len(words_a) != len(words_b):
        raise ValueError(f"term lists differ in length: {len(words_a)} != {len(words_b)}")
    if not words_a:
        raise ValueError("empty term lists")
    return len(set(words_a) & set(words_b)) / len(words_a)


def quality_timeline(snapshots: Sequence[Mapping], corpus: Corpus,
                     predictor: Predictor, c: str
                     ) -> list[tuple[float, int, float]]:
    """Evaluate each snapshot's top-k list; returns (t_sec, calls, aopc) rows.

    Snapshots repeat lists and removal rows heavily, so one scorer scores
    the log's distinct non-empty lists as one batch, in order of first
    appearance: each document's removal rows are scored once. A log without
    a non-empty list makes no predictor call.
    """
    rows = [(float(snap["t_sec"]), int(snap["calls"]), TermList.from_pairs(
        c, "snapshot", [(t["word"], float(t["score"])) for t in snap["topk"]]).words)
        for snap in snapshots]
    lists = list(dict.fromkeys(words for _, _, words in rows if words))
    if not lists:
        return []
    from ._aopc import AopcScorer

    values = dict(zip(lists, AopcScorer(corpus, predictor, c).aopc(lists)))
    return [(t_sec, calls, values[words].value) for t_sec, calls, words in rows if words]


def write_timeline_csv(handle: IO[str], rows: Iterable[tuple[float, int, float]]) -> None:
    writer = csv.writer(handle)
    writer.writerow(["t_sec", "calls", "aopc"])
    for t_sec, calls, aopc in rows:
        writer.writerow([f"{t_sec:.6f}", calls, f"{aopc:.10g}"])
