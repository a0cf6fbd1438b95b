"""Non-smooth penalty terms and their proximal maps.

Only the zero penalty and the l1 penalty are shipped; the three-method
surface (prox / evaluate / subgradient_bound) is the extension point for
anything richer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

ZERO = "zero"
L1 = "l1"
KINDS = (ZERO, L1)


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
    """Penalty h(x): either identically zero or lam * ||x||_1."""

    kind: str = ZERO
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown regularizer kind {self.kind!r}")
        if not 0 <= self.lam < math.inf:
            raise ValueError("regularizer weight must be nonnegative and finite")
        if self.kind == ZERO:
            object.__setattr__(self, "lam", 0.0)

    @classmethod
    def zero(cls) -> "Regularizer":
        return cls(ZERO, 0.0)

    @classmethod
    def l1(cls, lam: float) -> "Regularizer":
        return cls(L1, float(lam))

    def prox(self, tau: float, x: np.ndarray) -> np.ndarray:
        """argmin_u h(u) + ||u - x||^2 / (2 tau); componentwise soft threshold.

        tau == 0 (or the zero penalty) returns a copy of x unchanged.
        """
        if not 0 <= tau < math.inf:
            raise ValueError("prox step size must be nonnegative and finite")
        thresh = float(tau) * self.lam
        x = np.asarray(x, dtype=np.float64)
        if thresh == 0.0:
            return x.copy()
        return soft_threshold(x, thresh)

    def evaluate(self, x: np.ndarray) -> float:
        return float(self.lam * np.sum(np.abs(x)))

    def subgradient_bound(self, p: int) -> float:
        """Tight bound B_h_sq on the squared norm of any subgradient in dimension p."""
        if p < 1:
            raise ValueError("dimension must be >= 1")
        return self.lam * self.lam * p
