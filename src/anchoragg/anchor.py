"""Per-token anchor decisions via sequential sampling.

A token is an anchor when the predictor keeps its decision on perturbed
documents that retain the token, with probability at least a threshold.
The estimator samples in batches, maintains two-sided confidence bounds on
the success rate, and stops as soon as the bound certifies the decision
either way; at budget exhaustion the point estimate decides. The tokens of
a document are tested together, in rounds that share predictor calls.
"""

from __future__ import annotations

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
    "estimate_token",
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
    return _bounds(successes / trials, _half_width(trials, delta))


def _half_width(trials: int, delta: float) -> float:
    """Hoeffding's half-width at ``trials`` samples and confidence ``1 - delta``."""
    return math.sqrt(math.log(2.0 / delta) / (2.0 * trials))


def _bounds(point: float, half: float) -> tuple[float, float]:
    return max(0.0, point - half), min(1.0, point + half)


def estimate_token(doc: Document, position: int, predictor: Predictor,
                   perturbator: Perturbator, cfg: AnchorConfig,
                   rng: np.random.Generator,
                   target: str | None = None) -> AnchorDecision:
    """Sequentially test whether keeping one token preserves the prediction.

    Perturbation samples are drawn in batches with the token's position held
    fixed; a sample succeeds when the predictor assigns it the same class as
    the unperturbed document (``target``, predicted on the fly when absent).
    Stops early once the lower bound reaches ``cfg.tau`` (anchor) or the
    upper bound falls below it (non-anchor); at budget exhaustion the point
    estimate against ``cfg.tau`` decides.
    """
    if not 0 <= position < len(doc.words):
        raise ValueError(f"position {position} outside document {doc.id!r}")
    if target is None:
        target = predictor.predict(doc)
    return _sequential_tests(doc, [position], [rng], predictor, perturbator, cfg,
                             predictor.class_index(target))[0]


def _sequential_tests(doc: Document, positions: list[int],
                      rngs: list[np.random.Generator], predictor: Predictor,
                      perturbator: Perturbator, cfg: AnchorConfig, target_idx: int
                      ) -> list[AnchorDecision]:
    """The sequential test of each position, all moving in rounds.

    In every round each undecided position draws its next batch from its own
    generator, and the round's rows are scored in predictor calls of at most
    ``ROUND_ROWS`` rows. A position leaves once its bound clears
    ``cfg.tau`` or its budget is spent. Each generator is consumed as a test
    of its position alone would consume it, so decisions do not depend on
    which positions share a round.

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
        # every active test has ``trials`` samples: one half-width per round
        half = _half_width(trials, cfg.delta)
        undecided = []
        for i, hit in zip(active, hits):
            successes[i] += hit
            point = successes[i] / trials
            lower, upper = _bounds(point, half)
            if lower < cfg.tau <= upper and trials < cfg.max_samples:
                undecided.append(i)
                continue
            # certified either way by the bounds, else by the point estimate
            is_anchor = lower >= cfg.tau or (upper >= cfg.tau and point >= cfg.tau)
            decisions[i] = AnchorDecision(doc.words[positions[i]], positions[i],
                                          is_anchor, successes[i], trials)
        active = undecided
    return decisions


def anchors_of_document(doc: Document, predictor: Predictor,
                        perturbator: Perturbator, cfg: AnchorConfig,
                        rng_for: Callable[[int], np.random.Generator],
                        skip_word: Callable[[str], bool] | None = None,
                        target: str | None = None) -> list[AnchorDecision]:
    """One anchor decision per token of the document, in position order.

    ``rng_for`` supplies the per-position generator, so the tokens' tests are
    independent and run together in rounds (see ``_sequential_tests``).
    Words for which ``skip_word`` is true are not sampled and are recorded
    as non-anchors.
    """
    if len(doc.words) == 0:
        raise ValueError(f"document {doc.id!r} is empty")
    if target is None:
        target = predictor.predict(doc)

    sampled = [p for p, w in enumerate(doc.words)
               if skip_word is None or not skip_word(w)]
    tested = _sequential_tests(
        doc, sampled, [rng_for(p) for p in sampled], predictor, perturbator, cfg,
        predictor.class_index(target))
    decisions = dict(zip(sampled, tested))
    return [decisions.get(p) or AnchorDecision(w, p, False, 0, 0)
            for p, w in enumerate(doc.words)]
