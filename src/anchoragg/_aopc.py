"""The AOPC scorer behind ``eval.aopc_k`` and ``eval.quality_timeline``.

It lives apart from ``eval`` so that ``topk``, which imports ``eval`` for
``TermList``, loads none of it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .corpus import Corpus
from .eval import AopcResult
from .model import Predictor, pad_rows


def _ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``arange(start, start + length)`` of each pair, one after another."""
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) \
        + np.arange(lengths.sum())


class AopcScorer:
    """AOPC of batches of term lists over one corpus, predictor and class.

    The corpus is classified in one call, and a class document's
    probability there is its prefix-0 score. Each row sent, a document or a
    removal row, is kept with its probability row, keyed by its ``encode``
    ids: in the given ``cache``, so that each text is scored once, the
    corpus over its distinct documents and a removal row equal to a document
    or to another row not at all; scorers of several classes over one corpus
    share that work through one ``cache``. Without one, the keys also hold
    the row's document, so each document is classified, and each of its
    (document, removed words) states scored, on its own.

    ``aopc`` scores a batch in one pass. Its (list, document, prefix) events
    come from the postings by array operations. A document's removal row
    changes only at the terms it contains, so each event's (document,
    removed words) state is keyed by the document and a bitmask over its
    distinct words, stored as ``uint64`` words, as many as the widest
    document needs; one ``lexsort`` of the keys dedupes the states, so only
    the distinct states touch Python. Their rows are cut from each class
    document's ``encode`` ids, and the texts not in ``cache`` go to one
    ``predict_proba_ids`` call, in (list, document, prefix) order of first
    appearance. Each list's drops are summed over its documents in document
    order, as ``aopc_k`` sums one list's. ``rows`` counts the predictor rows
    this scorer sent.
    """

    def __init__(self, corpus: Corpus, predictor: Predictor, c: str,
                 cache: dict | None = None):
        docs = list(corpus)
        self._predictor = predictor
        self._per_document = cache is None
        self._cache = {} if cache is None else cache
        self.rows = 0
        lengths = np.array([len(d.words) for d in docs], dtype=np.intp)
        ids = predictor.encode([w for d in docs for w in d.words])
        probs = self._probs(ids, lengths, range(len(docs)))
        chosen = [i for i, row in enumerate(probs)
                  if predictor.classes_[int(np.argmax(row))] == c]
        if not chosen:
            raise ValueError(f"no documents classified as {c!r}")
        self._c_idx = predictor.class_index(c)
        self._base = np.array([probs[i][self._c_idx] for i in chosen])
        self._chosen = np.array(chosen)
        # the class documents' tokens, one document after another; a token's
        # bit is its word's rank among the document's distinct words, in
        # vocabulary order
        self._lengths = lengths[chosen]
        self._starts = np.cumsum(self._lengths) - self._lengths
        self._ids = ids[_ranges((np.cumsum(lengths) - lengths)[chosen], self._lengths)]
        words = [w for i in chosen for w in docs[i].words]
        self._vocab = {w: i for i, w in enumerate(dict.fromkeys(words))}
        n_words = max(len(self._vocab), 1)
        token_word = np.fromiter(map(self._vocab.__getitem__, words), np.intp, len(words))
        pairs, token_pair = np.unique(
            np.repeat(np.arange(len(chosen)), self._lengths) * n_words + token_word,
            return_inverse=True)
        pair_doc, pair_word = np.divmod(pairs, n_words)
        pair_bit = np.arange(len(pairs)) - np.searchsorted(pair_doc, pair_doc)
        self._token_bit = pair_bit[token_pair]
        self._width = int(pair_bit.max(initial=0)) // 64 + 1
        # postings: per word, its (class document, bit) pairs in document order
        by_word = np.argsort(pair_word, kind="stable")
        self._post_doc, self._post_bit = pair_doc[by_word], pair_bit[by_word]
        self._post_start = np.searchsorted(pair_word[by_word], np.arange(n_words + 1))

    def aopc(self, lists: Sequence[Sequence[str]]) -> list[AopcResult]:
        """The AOPC of each list, a sequence of distinct words."""
        if not lists:
            return []
        k = np.array([len(ws) for ws in lists], dtype=np.intp)
        listed, prefix, doc, bit = self._events(lists, k)
        group_start = np.ones(len(doc), dtype=bool)
        group_start[1:] = (listed[1:] != listed[:-1]) | (doc[1:] != doc[:-1])
        group = np.cumsum(group_start) - 1
        # per prefix (row) and (list, document) group (column): the base
        # score, then the score of the group's latest state
        values = self._event_scores(doc, bit, group_start, group)
        width = int(k.max()) + 1
        scores = np.zeros((width, int(group_start.sum())))
        filled = np.zeros(scores.shape, dtype=bool)
        scores[0] = self._base[doc[group_start]]
        scores[prefix, group] = values
        filled[0] = filled[prefix, group] = True
        for i in range(1, width):
            np.copyto(scores[i], scores[i - 1], where=~filled[i])
        # the drops, in place; add.at adds a list's groups one after another,
        # in document order
        np.subtract(scores[0], scores[1:], out=scores[1:])
        drops = np.zeros((len(lists), width - 1))
        np.add.at(drops, listed[group_start], scores[1:].T)
        documents = len(self._base)
        results = []
        for row, size in zip(drops, k.tolist()):
            per_prefix = row[:size] / documents
            results.append(AopcResult(value=float(per_prefix.sum() / (size + 1)),
                                      per_prefix=tuple(per_prefix.tolist()),
                                      documents=documents))
        return results

    def _events(self, lists: Sequence[Sequence[str]], k: np.ndarray
                ) -> tuple[np.ndarray, ...]:
        """(list, prefix, class document, the word's bit there) of every
        listed word in every class document that contains it, in (list,
        document, prefix) order."""
        word = np.array([self._vocab.get(w, -1) for ws in lists for w in ws],
                        dtype=np.intp)
        listed = np.repeat(np.arange(len(lists)), k)
        prefix = np.arange(len(word)) - np.repeat(np.cumsum(k) - k, k) + 1
        known = word >= 0
        word, listed, prefix = word[known], listed[known], prefix[known]
        hits = self._post_start[word + 1] - self._post_start[word]
        post = _ranges(self._post_start[word], hits)
        listed, prefix = np.repeat(listed, hits), np.repeat(prefix, hits)
        doc = self._post_doc[post]
        order = np.argsort((listed * len(self._base) + doc) * (k.max() + 1) + prefix)
        return listed[order], prefix[order], doc[order], self._post_bit[post[order]]

    def _event_scores(self, doc: np.ndarray, bit: np.ndarray, group_start: np.ndarray,
                      group: np.ndarray) -> np.ndarray:
        """The score of each event's state: its document without the words
        of its group's events so far. States are looked up in order of
        first appearance."""
        n = len(doc)
        # each state's key: its document, then its mask words
        keys = np.zeros((n, self._width + 1), dtype=np.uint64)
        keys[:, 0] = doc
        masks = keys[:, 1:]
        # a group's bits are distinct, so their running sum is their running
        # OR; a uint64 sum wraps, and the subtraction cancels the wrap
        masks[np.arange(n), bit >> 6] = np.uint64(1) << (bit & 63).astype(np.uint64)
        np.cumsum(masks, axis=0, out=masks)
        masks -= np.vstack([np.zeros((1, self._width), dtype=np.uint64),
                            masks[:-1]])[np.flatnonzero(group_start)][group]
        # distinct states, each from its first event: lexsort is stable
        by_key = np.lexsort(keys.T[::-1])
        sorted_keys = keys[by_key]
        first = np.ones(n, dtype=bool)
        first[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
        state = np.empty(n, dtype=np.intp)
        state[by_key] = np.cumsum(first) - 1
        firsts = by_key[first]
        order = np.argsort(firsts)
        scores = np.empty(len(firsts))
        scores[order] = self._removal_scores(doc[firsts[order]], masks[firsts[order]])
        return scores[state]

    def _removal_scores(self, doc: np.ndarray, masks: np.ndarray) -> np.ndarray:
        """Class probability of each class document ``doc`` without the
        words set in its row of ``masks``."""
        lengths = self._lengths[doc]
        row = np.repeat(np.arange(len(doc)), lengths)
        token = _ranges(self._starts[doc], lengths)
        bit = self._token_bit[token]
        kept = (masks[row, bit >> 6] >> (bit & 63).astype(np.uint64)) & np.uint64(1) == 0
        probs = self._probs(self._ids[token[kept]],
                            np.bincount(row[kept], minlength=len(doc)),
                            self._chosen[doc].tolist())
        return np.array([p[self._c_idx] for p in probs])

    def _probs(self, ids: np.ndarray, lengths: np.ndarray,
               docs: Sequence[int]) -> list[np.ndarray]:
        """The probability row of each row of ``lengths`` ids, cut in order
        from the 1-D ``ids``; ``docs`` holds each row's corpus document. The
        distinct rows not in the cache are scored in one ``predict_proba_ids``
        call, in order of first appearance."""
        flat, sizes = ids.tolist(), lengths.tolist()
        ends = np.cumsum(lengths).tolist()
        keys = [tuple(flat[end - size:end]) for end, size in zip(ends, sizes)]
        if self._per_document:
            keys = list(zip(docs, keys))
        cache, new = self._cache, {}
        for r, key in enumerate(keys):
            if key not in cache:
                new.setdefault(key, r)
        if new:
            sent = np.zeros(len(keys), dtype=bool)
            sent[list(new.values())] = True
            rows = pad_rows(ids[np.repeat(sent, lengths)], lengths[sent].tolist(),
                            self._predictor.pad)
            cache.update(zip(new, self._predictor.predict_proba_ids(rows)))
            self.rows += len(new)
        return [cache[key] for key in keys]
