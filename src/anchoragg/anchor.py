"""Per-token anchor decisions via sequential sampling.

A token is an anchor when the predictor keeps its decision on perturbed
documents that retain the token, with probability at least a threshold.
The estimator samples in batches, maintains two-sided confidence bounds on
the success rate, and stops as soon as the bound certifies the decision
either way; at budget exhaustion the point estimate decides.
"""

from __future__ import annotations

import math
from concurrent.futures import Executor
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .corpus import Document, Token
from .model import Predictor
from .perturb import Perturbator

__all__ = [
    "AnchorConfig",
    "PrecisionEstimate",
    "AnchorDecision",
    "confidence_bounds",
    "adaptive_tau",
    "estimate_token",
    "anchors_of_document",
]


@dataclass(frozen=True)
class AnchorConfig:
    """Thresholds and budgets for the sequential anchor test."""

    tau: float = 0.95
    delta: float = 0.1
    batch_size: int = 10
    max_samples: int = 100
    omega: float = 0.4
    tau_floor: float = 0.55

    def __post_init__(self):
        if not 0.0 < self.tau <= 1.0:
            raise ValueError(f"tau out of (0, 1]: {self.tau}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta out of (0, 1): {self.delta}")
        if self.batch_size < 1 or self.max_samples < 1:
            raise ValueError("batch_size and max_samples must be >= 1")
        if self.tau_floor > self.tau:
            raise ValueError(f"tau_floor {self.tau_floor} above tau {self.tau}")
        if self.omega < 0:
            raise ValueError(f"omega must be non-negative: {self.omega}")


@dataclass(frozen=True)
class PrecisionEstimate:
    """Success rate with two-sided Hoeffding bounds at level 1 - delta."""

    successes: int
    trials: int
    point: float
    lower: float
    upper: float


@dataclass(frozen=True)
class AnchorDecision:
    token: Token
    is_anchor: bool
    estimate: PrecisionEstimate | None
    samples_used: int
    tau_eff: float
    skipped: bool = field(default=False)

    def to_row(self, doc_id: str) -> dict:
        """The decision as one trace row of document ``doc_id``."""
        return {
            "doc": doc_id,
            "pos": self.token.position,
            "word": self.token.word,
            "anchor": self.is_anchor,
            "precision": None if self.estimate is None else self.estimate.point,
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


def adaptive_tau(cfg: AnchorConfig, pseudo_gpr: float, n_w: int) -> float:
    """Relax the precision threshold for words already seen as anchors.

    Returns tau - omega * pseudo_gpr / n_w, clamped to [tau_floor, tau].
    A zero pseudo-score leaves tau unchanged.
    """
    if n_w < 1:
        raise ValueError(f"n_w must be >= 1, got {n_w}")
    if pseudo_gpr < 0:
        raise ValueError(f"pseudo_gpr must be non-negative, got {pseudo_gpr}")
    relaxed = cfg.tau - cfg.omega * pseudo_gpr / n_w
    return min(cfg.tau, max(cfg.tau_floor, relaxed))


def estimate_token(doc: Document, position: int, predictor: Predictor,
                   perturbator: Perturbator, cfg: AnchorConfig, tau_eff: float,
                   rng: np.random.Generator,
                   target: str | None = None) -> AnchorDecision:
    """Sequentially test whether keeping one token preserves the prediction.

    Perturbation samples are drawn in batches with the token's position held
    fixed; a sample succeeds when the predictor assigns it the same class as
    the unperturbed document (``target``, predicted on the fly when absent).
    Stops early once the lower bound reaches ``tau_eff`` (anchor) or the
    upper bound falls below it (non-anchor); at budget exhaustion the point
    estimate against ``tau_eff`` decides.
    """
    if not 0 <= position < len(doc.words):
        raise ValueError(f"position {position} outside document {doc.id!r}")
    if not cfg.tau_floor <= tau_eff <= 1.0:
        raise ValueError(f"tau_eff {tau_eff} outside [{cfg.tau_floor}, 1]")
    if target is None:
        target = predictor.predict(doc)
    target_idx = predictor.class_index(target)

    successes = 0
    trials = 0
    lower = upper = None
    is_anchor = None
    while trials < cfg.max_samples:
        batch = min(cfg.batch_size, cfg.max_samples - trials)
        samples = perturbator.sample_batch(doc, (position,), batch, rng)
        probs = predictor.predict_proba_many(samples)
        successes += int(np.sum(np.argmax(probs, axis=1) == target_idx))
        trials += batch
        lower, upper = confidence_bounds(successes, trials, cfg.delta)
        if lower >= tau_eff:
            is_anchor = True
            break
        if upper < tau_eff:
            is_anchor = False
            break
    point = successes / trials
    if is_anchor is None:
        is_anchor = point >= tau_eff
    estimate = PrecisionEstimate(successes=successes, trials=trials, point=point,
                                 lower=lower, upper=upper)
    return AnchorDecision(token=Token(doc.words[position], position),
                          is_anchor=is_anchor, estimate=estimate,
                          samples_used=trials, tau_eff=tau_eff)


def _skipped_decision(doc: Document, position: int, tau_eff: float) -> AnchorDecision:
    return AnchorDecision(token=Token(doc.words[position], position),
                          is_anchor=False, estimate=None, samples_used=0,
                          tau_eff=tau_eff, skipped=True)


def anchors_of_document(doc: Document, predictor: Predictor,
                        perturbator: Perturbator, cfg: AnchorConfig,
                        threshold_for: Callable[[str], float],
                        rng_for: Callable[[int], np.random.Generator],
                        skip_word: Callable[[str], bool] | None = None,
                        target: str | None = None,
                        executor: Executor | None = None) -> list[AnchorDecision]:
    """One anchor decision per token of the document, in position order.

    ``threshold_for`` supplies the effective threshold per word (constant or
    adaptive); ``rng_for`` supplies the per-position generator so token
    estimations are independent and may run on ``executor`` workers without
    affecting results. Words for which ``skip_word`` is true are not sampled
    and are recorded as non-anchors.
    """
    if len(doc.words) == 0:
        raise ValueError(f"document {doc.id!r} is empty")
    if target is None:
        target = predictor.predict(doc)

    thresholds = {w: threshold_for(w) for w in set(doc.words)}

    def run(position: int) -> AnchorDecision:
        word = doc.words[position]
        tau_eff = thresholds[word]
        if skip_word is not None and skip_word(word):
            return _skipped_decision(doc, position, tau_eff)
        return estimate_token(doc, position, predictor, perturbator, cfg,
                              tau_eff, rng_for(position), target=target)

    positions = range(len(doc.words))
    if executor is None:
        return [run(p) for p in positions]
    return list(executor.map(run, positions))
