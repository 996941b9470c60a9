"""Per-token anchor decisions via sequential sampling.

A token is an anchor when the predictor keeps its decision on perturbed
documents that retain the token, with probability at least a threshold.
The estimator samples in batches, maintains two-sided confidence bounds on
the success rate, and stops as soon as the bound certifies the decision
either way; at budget exhaustion the point estimate decides. The tokens of
a document are tested together, in rounds that share predictor calls and
one verdict per hit count.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .corpus import Document

if TYPE_CHECKING:
    from .model import Predictor
    from .perturb import Perturbator

__all__ = [
    "AnchorConfig",
    "AnchorDecision",
    "confidence_bounds",
    "anchors_of_document",
]

# rows per predictor call: a round of an m-token document holds ~batch * m
# perturbed rows of m words each, so it is drawn and scored in slices
ROUND_ROWS = 4096


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
def _verdicts(trials: int, delta: float, tau: float, last: bool) -> tuple[int, ...]:
    """The verdict on a token with ``h`` hits in ``trials`` samples, for each
    ``h`` in ``0..trials``: -1 (undecided) while its bounds straddle ``tau``
    before the ``last`` round, else 1 (anchor) or 0, as the bounds certify
    or, where they straddle ``tau``, as the point estimate decides."""
    verdicts = []
    for h in range(trials + 1):
        lower, upper = confidence_bounds(h, trials, delta)
        undecided = lower < tau <= upper and not last
        verdicts.append(-1 if undecided else
                        int(lower >= tau or (upper >= tau and h / trials >= tau)))
    return tuple(verdicts)


def _sequential_tests(doc: Document, positions: list[int],
                      rngs: list[np.random.Generator], predictor: Predictor,
                      perturbator: Perturbator, cfg: AnchorConfig, target_idx: int
                      ) -> list[AnchorDecision]:
    """The sequential test of each position, all moving in rounds.

    In every round each undecided position draws its next batch from its own
    generator, and the round's rows are scored in predictor calls of at most
    ``ROUND_ROWS`` rows. The round's ``_verdicts``, one per hit count, then
    decide: a position leaves once its bound clears ``cfg.tau`` or its
    budget is spent. Each generator is consumed as a test of its position
    alone would consume it, so decisions do not depend on which positions
    share a round.

    Each predictor call's group of positions is drawn by one ``draw`` of the
    perturbator's ``sampler``, in the predictor's ids (``encode``), and
    scored with ``predict_proba_ids``.
    """
    draw = perturbator.sampler(doc, predictor.encode)
    successes = [0] * len(positions)
    decisions: list[AnchorDecision | None] = [None] * len(positions)
    active = list(range(len(positions)))
    trials = 0
    while active:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        trials += batch
        hits = []
        per_call = max(1, ROUND_ROWS // batch)
        for start in range(0, len(active), per_call):
            group = active[start:start + per_call]
            rows = draw([positions[i] for i in group], batch, [rngs[i] for i in group])
            labels = np.concatenate([
                np.argmax(predictor.predict_proba_ids(rows[j:j + ROUND_ROWS]), axis=1)
                for j in range(0, len(rows), ROUND_ROWS)])
            hits += (labels == target_idx).reshape(len(group), batch).sum(axis=1).tolist()
        verdicts = _verdicts(trials, cfg.delta, cfg.tau, trials >= cfg.max_samples)
        undecided = []
        for i, hit in zip(active, hits):
            successes[i] += hit
            verdict = verdicts[successes[i]]
            if verdict < 0:
                undecided.append(i)
            else:
                decisions[i] = AnchorDecision(doc.words[positions[i]], positions[i],
                                              bool(verdict), successes[i], trials)
        active = undecided
    return decisions


def anchors_of_document(doc: Document, predictor: Predictor,
                        perturbator: Perturbator, cfg: AnchorConfig,
                        rng_for: Callable[[int], np.random.Generator],
                        skip_word: Callable[[str], bool] | None = None, *,
                        target: str) -> list[AnchorDecision]:
    """One anchor decision per token of the document, in position order,
    tested against ``target``: the class ``topk.classify_corpus`` gave it.

    ``rng_for`` supplies the per-position generator, so the tokens' tests are
    independent and run together in rounds (see ``_sequential_tests``).
    Words for which ``skip_word`` is true are not sampled and are recorded
    as non-anchors.
    """
    if len(doc.words) == 0:
        raise ValueError(f"document {doc.id!r} is empty")

    sampled = [p for p, w in enumerate(doc.words)
               if skip_word is None or not skip_word(w)]
    tested = _sequential_tests(
        doc, sampled, [rng_for(p) for p in sampled], predictor, perturbator, cfg,
        predictor.class_index(target))
    decisions = dict(zip(sampled, tested))
    return [decisions.get(p) or AnchorDecision(w, p, False, 0, 0)
            for p, w in enumerate(doc.words)]
