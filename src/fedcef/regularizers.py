"""The non-smooth penalty h and its proximal map.

The one penalty shipped is h(x) = lam * ||x||_1, and lam = 0 is h = 0. The
three-method surface (prox / evaluate / subgradient_bound) is the extension
point for anything richer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


def soft_threshold(x: np.ndarray, thresh: float) -> np.ndarray:
    """sign(x) * max(|x| - thresh, 0), computed as x - clip(x, -thresh, thresh)
    in three ufuncs and one new array. The values are equal on every input,
    +-inf and NaN included, and the bits too, except for the sign of zero: an
    entry thresholded to zero from a negative input is +0.0 here, where the
    sign formula gives -0.0."""
    out = np.maximum(x, -thresh)
    np.minimum(out, thresh, out=out)
    return np.subtract(x, out, out=out)


@dataclass(frozen=True)
class Regularizer:
    """Penalty h(x) = lam * ||x||_1; Regularizer() is h = 0."""

    lam: float = 0.0

    def __post_init__(self) -> None:
        if not 0 <= self.lam < math.inf:
            raise ValueError("regularizer weight must be nonnegative and finite")

    def prox(self, tau: float, x: np.ndarray) -> np.ndarray:
        """argmin_u h(u) + ||u - x||^2 / (2 tau); componentwise soft threshold,
        always a new array. tau == 0 (or lam == 0) thresholds at 0, which
        returns x's exact bits, the sign of zero, infinities and NaN included."""
        if not 0 <= tau < math.inf:
            raise ValueError("prox step size must be nonnegative and finite")
        return soft_threshold(np.asarray(x, dtype=np.float64), float(tau) * self.lam)

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.lam * np.sum(np.abs(x)))

    def subgradient_bound(self, p: int) -> float:
        """Tight bound B_h_sq on the squared norm of any subgradient in dimension p."""
        if p < 1:
            raise ValueError("dimension must be >= 1")
        return self.lam * self.lam * p
