"""Contractive compression operators, their payloads, and byte accounting.

The two operators, top-k and rand-k, have compression factor q^2 = 1 - k/p;
full retention (k = p) is the uncompressed uplink, with q^2 = 0. Top-k keeps
the k largest-magnitude coordinates and satisfies ||C(x) - x||^2 <=
q^2 ||x||^2 on every input. Rand-k keeps k uniformly chosen
coordinates without rescaling, which makes it biased rather than unbiased, and
meets the bound only in expectation over its draw: E||C(x) - x||^2 =
q^2 ||x||^2, while for a one-hot x the error is all of ||x||^2 on a share
1 - k/p of draws.

`compress` treats each row of a block as a vector of its own and ships the
block as one payload. No header is charged per message, so the payload
costs exactly what its rows would cost sent one by one. It returns the
decoded block C(x) beside the payload, so nothing decodes a payload.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

import numpy as np

from .core import ensure_finite

TOPK = "topk"
RANDK = "randk"
KINDS = (TOPK, RANDK)

# Accounting model: a retained sparse element costs 8 bytes (4-byte index +
# 4-byte single), a dense element costs 4 bytes. The charge assumes 4-byte
# singles on the wire, while the simulation applies the float64 values.
SPARSE_ENTRY_BYTES = 8
DENSE_ENTRY_BYTES = 4


@dataclass(frozen=True)
class CompressorSpec:
    """Which operator to apply and how much to retain.

    `retain` is an element count when given as an integer (>= 1; numpy
    integers are stored as int) and a ratio in (0, 1] when given as a float.
    Full retention, `retain = 1.0` or the count p, is the uncompressed uplink.
    """

    kind: str
    retain: int | float

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown compressor kind {self.kind!r}")
        if isinstance(self.retain, bool) or not isinstance(self.retain, numbers.Real):
            raise ValueError("retain must be an int count or float ratio")
        if isinstance(self.retain, numbers.Integral):
            if self.retain < 1:
                raise ValueError("retain count must be >= 1")
            object.__setattr__(self, "retain", int(self.retain))
        else:
            if not 0.0 < float(self.retain) <= 1.0:
                raise ValueError("retain ratio must lie in (0, 1]")

    def resolve_k(self, p: int) -> int:
        """Number of retained coordinates at dimension p."""
        if p < 1:
            raise ValueError("dimension must be >= 1")
        if isinstance(self.retain, int):
            if self.retain > p:
                raise ValueError(f"retain count {self.retain} exceeds dimension {p}")
            return self.retain
        # ceil(ratio * p), exact in the ratio's decimal value: in binary floating
        # point 0.07 * 100 is 7.000000000000001, which would round up to 8.
        return math.ceil(Fraction(repr(float(self.retain))) * p)


def contraction_factor(spec: CompressorSpec, p: int) -> float:
    """The factor q^2 in [0, 1) that bounds the compression error
    ||C(x) - x||^2 by q^2 ||x||^2: on every input for top-k, in expectation
    over the draw for rand-k. Full retention (k = p) gives exactly 0.0."""
    return 1.0 - spec.resolve_k(p) / p


@dataclass(frozen=True)
class SparsePayload:
    """What crosses the wire and is charged for: one compressed vector, or an
    (n, p) block flattened (dim = n*p, row i at indices [i*p, (i+1)*p))."""

    dim: int
    dense: bool
    # int64, strictly increasing and < dim, empty when dense: compress builds
    # both arrays so, and the payload stores them as given
    indices: np.ndarray
    values: np.ndarray  # float64; length dim when dense, else len(indices)


def payload_bytes(payload: SparsePayload) -> int:
    if payload.dense:
        return DENSE_ENTRY_BYTES * payload.dim
    return SPARSE_ENTRY_BYTES * payload.values.size


def compress(
    spec: CompressorSpec, x: np.ndarray, streams: Iterable[np.random.Generator] | None = None
) -> tuple[SparsePayload, np.ndarray]:
    """Apply the operator to each row of an (n, p) block or a (p,) vector;
    returns the flattened block's payload (see SparsePayload) and C(x), shaped
    like x. Rand-k at k < p draws row i from the i-th of `streams`, one per
    row, taken only as the row is drawn, so they may come lazily; a (p,)
    vector, the one-row case, takes [stream]. Top-k, and rand-k at k = p,
    draw nothing and take no stream.

    Full retention (k == p, under either kind) is the uncompressed uplink and
    is transmitted dense: it carries the whole vector anyway and dense
    elements are cheaper (4 vs 8 bytes), so every full-retention spelling
    sends the same bytes.
    """
    x = np.asarray(x, dtype=np.float64)
    ensure_finite(x, "compress input")
    n, p = np.atleast_2d(x).shape
    k = spec.resolve_k(p)
    if k == p:
        return SparsePayload(x.size, True, np.empty(0, dtype=np.int64), x.flatten()), x.copy()
    if spec.kind == TOPK:
        # Stable sort on negated magnitudes: ties keep original order, so the
        # lowest index wins and replay is deterministic.
        idx = np.sort(np.argsort(-np.abs(x.reshape(n, p)), axis=1, kind="stable")[:, :k], axis=1)
    else:  # RANDK
        rows = zip(range(n), streams or (), strict=True)
        try:
            picks = [s.choice(p, size=k, replace=False) for _, s in rows]
        except ValueError as exc:  # from the strict zip: choice cannot fail at k <= p
            raise ValueError(f"rand-k needs one rng stream per row of {n}: {exc}") from None
        idx = np.sort(picks, axis=1)
    flat = (idx + p * np.arange(n)[:, None]).ravel()  # strictly increasing: row by row, each sorted
    dense = np.zeros(n * p)
    dense[flat] = x.ravel()[flat]
    return SparsePayload(n * p, False, flat, dense[flat]), dense.reshape(x.shape)
