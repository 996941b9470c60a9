"""Per-token anchor decisions via sequential sampling.

A token is an anchor when the predictor keeps its decision on perturbed
documents that retain the token, with probability at least a threshold.
The estimator samples in batches, maintains two-sided confidence bounds on
the success rate, and stops as soon as the bound certifies the decision
either way; at budget exhaustion the point estimate decides.
``anchors_of_documents`` yields each document's decisions in turn. It tests
the tokens of a wave of documents together when the wave's first document
is requested, in rounds that share predictor calls and one verdict table
per round; every token draws from its own generator, so a token's decision
does not depend on its wave. An empty document yields ``[]``.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Iterator, Sequence

import numpy as np

from .corpus import Document
from .model import ROUND_ROWS

if TYPE_CHECKING:
    from .model import Predictor
    from .perturb import Perturbator

__all__ = [
    "AnchorConfig",
    "AnchorDecision",
    "confidence_bounds",
    "anchors_of_documents",
]

# first-round rows of a wave of documents tested together (see
# ``document_waves``): about 100 tokens at the default batch, enough that
# per-round overhead stops mattering, few enough that a wave spans a few
# documents
WAVE_ROWS = 1024


@dataclass(frozen=True)
class AnchorConfig:
    """Thresholds and budgets for the sequential anchor test."""

    tau: float = 0.95
    delta: float = 0.1
    batch_size: int = 10
    max_samples: int = 100

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau out of (0, 1]: {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta out of (0, 1): {self.delta}")
        if self.batch_size < 1 or self.max_samples < 1:
            raise ValueError("batch_size and max_samples must be >= 1")


@dataclass(frozen=True)
class AnchorDecision:
    """One token's verdict, with the hits and samples of its test; an
    unsampled token has no samples and is not an anchor."""

    word: str
    position: int
    is_anchor: bool
    successes: int
    samples_used: int

    def to_row(self, doc_id: str) -> dict:
        """The decision as one trace row of document ``doc_id``; its
        precision is ``None`` when the token was not sampled."""
        return {
            "doc": doc_id,
            "pos": self.position,
            "word": self.word,
            "anchor": self.is_anchor,
            "precision": (self.successes / self.samples_used
                          if self.samples_used else None),
            "samples": self.samples_used,
        }


def confidence_bounds(successes: int, trials: int, delta: float) -> tuple[float, float]:
    """Two-sided Hoeffding bounds around the empirical rate, clipped to [0, 1].

    Half-width sqrt(ln(2/delta) / (2 * trials)); by Hoeffding's inequality
    the interval covers the true rate with probability at least 1 - delta.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} out of range for {trials} trials")
    point = successes / trials
    half = math.sqrt(math.log(2.0 / delta) / (2.0 * trials))
    return max(0.0, point - half), min(1.0, point + half)


@functools.lru_cache
def _verdicts(trials: int, delta: float, tau: float, last: bool) -> np.ndarray:
    """The verdict on a token with ``h`` hits in ``trials`` samples, for each
    ``h`` in ``0..trials``, as a read-only ``int8`` array: -1 (undecided)
    while its bounds straddle ``tau`` before the ``last`` round, else 1
    (anchor) or 0, as the bounds certify or, where they straddle ``tau``, as
    the point estimate decides."""
    verdicts = []
    for h in range(trials + 1):
        lower, upper = confidence_bounds(h, trials, delta)
        undecided = lower < tau <= upper and not last
        verdicts.append(-1 if undecided else
                        int(lower >= tau or (upper >= tau and h / trials >= tau)))
    table = np.array(verdicts, dtype=np.int8)
    table.flags.writeable = False
    return table


def _sequential_tests(docs: Sequence[Document], doc_of: np.ndarray,
                      positions: np.ndarray, rngs: list[np.random.Generator],
                      targets: np.ndarray, predictor: Predictor,
                      perturbator: Perturbator, cfg: AnchorConfig
                      ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The sequential test of each token ``t``, position ``positions[t]`` of
    ``docs[doc_of[t]]`` against class index ``targets[t]``, all moving in
    rounds: each token's verdict (1 anchor, 0 not), hits and samples.

    In every round each undecided token draws its next batch from its own
    generator, and the round's rows are scored in predictor calls of at most
    ``ROUND_ROWS`` rows. The round's ``_verdicts``, one per hit count, then
    decide every token with one gather: a token leaves once its bound clears
    ``cfg.tau`` or its budget is spent. Each generator is consumed as a test
    of its token alone would consume it, so decisions do not depend on which
    tokens, of which documents, share a round.

    Each predictor call's group of tokens is drawn by one ``draw`` of the
    perturbator's ``sampler``, in the predictor's ids (``encode``), rows of
    shorter documents padded with the predictor's ``pad``. A hit needs only
    each row's class, so the call is ``predict_ids``: the argmax of the
    row's ``predict_proba_ids`` probabilities, ties going to the lowest
    class index, whether the predictor computes it so or, as
    ``BowClassifier`` does, from its logits.
    """
    draw = perturbator.sampler(docs, predictor.encode, predictor.pad)
    verdicts = np.zeros(len(positions), dtype=np.int8)
    successes = np.zeros(len(positions), dtype=np.intp)
    samples = np.zeros(len(positions), dtype=np.intp)
    # the undecided tokens; ``doc_of``, ``positions``, ``targets`` and their
    # hits so far stay aligned with them
    active = np.arange(len(positions))
    hits = np.zeros(len(positions), dtype=np.intp)
    trials = 0
    while active.size:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        trials += batch
        per_call = max(1, ROUND_ROWS // batch)
        labels = []
        for start in range(0, active.size, per_call):
            end = start + per_call
            rows = draw(doc_of[start:end], positions[start:end], batch,
                        [rngs[t] for t in active[start:end].tolist()])
            labels += [predictor.predict_ids(rows[j:j + ROUND_ROWS])
                       for j in range(0, len(rows), ROUND_ROWS)]
        hits += (np.concatenate(labels).reshape(active.size, batch)
                 == targets[:, None]).sum(axis=1)
        verdict = _verdicts(trials, cfg.delta, cfg.tau, trials >= cfg.max_samples)[hits]
        undecided = verdict < 0
        if not undecided.all():
            done = ~undecided
            decided = active[done]
            verdicts[decided] = verdict[done]
            successes[decided] = hits[done]
            samples[decided] = trials
            active, doc_of, positions, targets, hits = (
                a[undecided] for a in (active, doc_of, positions, targets, hits))
    return verdicts, successes, samples


def document_waves(docs: Sequence[Document], cfg: AnchorConfig,
                   skip_word: Callable[[str], bool] | None = None
                   ) -> Iterator[list[Document]]:
    """The documents in order, cut into waves to test together: runs whose
    first-round rows (sampled tokens times the first batch) add up to at
    most ``WAVE_ROWS``. A document with more rows than that is a wave of its
    own."""
    first = min(cfg.batch_size, cfg.max_samples)
    wave: list[Document] = []
    rows = 0
    for doc in docs:
        doc_rows = first * sum(1 for w in doc.words
                               if skip_word is None or not skip_word(w))
        if wave and rows + doc_rows > WAVE_ROWS:
            yield wave
            wave, rows = [], 0
        wave.append(doc)
        rows += doc_rows
    if wave:
        yield wave


def anchors_of_documents(docs: Sequence[Document], predictor: Predictor,
                         perturbator: Perturbator, cfg: AnchorConfig,
                         streams: Sequence[Callable[[int], np.random.Generator]],
                         skip_word: Callable[[str], bool] | None = None, *,
                         targets: Sequence[str]) -> Iterator[list[AnchorDecision]]:
    """Each document's anchor decisions, one per token in position order,
    yielded document by document; document ``i``'s tokens are tested against
    ``targets[i]``, the class ``topk.classify_corpus`` gave it.

    A wave of documents (``document_waves``) is tested when its first
    document's decisions are requested, so ``skip_word`` is read at each
    wave's start, and a consumer that stops early tests no later wave. Words
    for which ``skip_word`` is true are not sampled and are recorded as
    non-anchors. ``streams[i]`` supplies document ``i``'s per-position
    generator, so the tokens' tests are independent: a wave's tokens run
    together in rounds (see ``_sequential_tests``), and each document gets
    the decisions it gets when tested alone. An empty document yields ``[]``
    and draws nothing.
    """
    if not len(docs) == len(streams) == len(targets):
        raise ValueError(f"{len(docs)} documents, {len(streams)} streams "
                         f"and {len(targets)} targets")
    end = 0
    for wave in document_waves(docs, cfg, skip_word):
        start, end = end, end + len(wave)
        decided = [[AnchorDecision(w, p, False, 0, 0) for p, w in enumerate(doc.words)]
                   for doc in wave]
        tested = [i for i in range(start, end) if docs[i].words]
        if tested:
            tokens = [(j, p) for j, i in enumerate(tested)
                      for p, w in enumerate(docs[i].words)
                      if skip_word is None or not skip_word(w)]
            doc_of, positions = np.array(tokens, dtype=np.intp).reshape(-1, 2).T
            class_of = np.array([predictor.class_index(targets[i]) for i in tested],
                                dtype=np.intp)
            verdicts, successes, samples = _sequential_tests(
                [docs[i] for i in tested], doc_of, positions,
                [streams[tested[j]](p) for j, p in tokens], class_of[doc_of],
                predictor, perturbator, cfg)
            for (j, p), verdict, hits, used in zip(tokens, verdicts.tolist(),
                                                   successes.tolist(), samples.tolist()):
                decided[tested[j] - start][p] = AnchorDecision(
                    docs[tested[j]].words[p], p, bool(verdict), hits, used)
        yield from decided
