"""Losses and metrics for next-step prediction.

Cross-entropy, the Renyi-alpha family against the uniform step
distribution, and the observable-to-loss formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError

PROBABILITY_FLOOR = 1e-30


@dataclass(frozen=True)
class StepProbabilities:
    """Per-step prediction weights p_{j+1} with their normalization constants.

    ``values[j] / normalizers[j]`` is the probability assigned to the true
    token at step j+2; the ratio always lies in [0, 1] even though raw
    values may exceed 1 for multi-branch normalizers.
    """

    values: np.ndarray
    normalizers: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float).reshape(-1)
        norms = np.array(self.normalizers, dtype=float).reshape(-1)
        if vals.size != norms.size or vals.size == 0:
            raise ConfigurationError("values and normalizers must have equal nonzero length")
        if not (np.all(np.isfinite(vals)) and np.all(np.isfinite(norms))):
            raise ConfigurationError("step probabilities must be finite")
        if np.any(vals < -1e-12) or np.any(norms <= 0):
            raise ConfigurationError("values must be non-negative with positive normalizers")
        if np.any(vals > norms * (1.0 + 1e-9)):
            raise ConfigurationError("normalized step probabilities must not exceed 1")
        vals.setflags(write=False)
        norms.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "normalizers", norms)

    @property
    def num_steps(self) -> int:
        return self.values.size

    def ratios(self) -> np.ndarray:
        """Normalized probabilities, floored and capped for safe logarithms."""
        return np.clip(self.values / self.normalizers, PROBABILITY_FLOOR, 1.0)


def cross_entropy_loss(p: StepProbabilities) -> float:
    """Mean negative log of the normalized step probabilities."""
    return float(-np.mean(np.log(p.ratios())))


def renyi_alpha_loss(p: StepProbabilities, alpha: float) -> float:
    """Renyi-alpha divergence from the uniform step distribution, plus log T.

    Evaluates (alpha-1)^-1 log sum_j u_j^alpha (p_j/N_j)^(1-alpha) + log T
    with u uniform over the T steps; the alpha -> 1 limit is the
    cross-entropy, served by a separate branch.
    """
    if not np.isfinite(alpha) or alpha <= 0:
        raise ConfigurationError("alpha must be positive")
    if alpha == 1.0:
        return cross_entropy_loss(p)
    r = p.ratios()
    t = p.num_steps
    mix = np.sum(t ** (-alpha) * r ** (1.0 - alpha))
    return float(np.log(mix) / (alpha - 1.0) + np.log(t))


def renyi_half_from_expectation(expectation: float, num_steps: int) -> float:
    """-log(expectation) + log T, the observable-to-loss formula."""
    if num_steps < 1:
        raise ConfigurationError("num_steps must be at least 1")
    e = max(float(expectation), PROBABILITY_FLOOR)
    return -math.log(e) + math.log(num_steps)

