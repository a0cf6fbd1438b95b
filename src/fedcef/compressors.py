"""Contractive compression operators, their payloads, and byte accounting.

All shipped operators satisfy ||C(x) - x||^2 <= q^2 ||x||^2 with
q^2 = 1 - k/p (0 for identity). Top-k keeps the k largest-magnitude
coordinates, rand-k keeps k uniformly chosen coordinates without rescaling,
which keeps it contractive (biased) rather than unbiased.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import RngStream, ensure_finite

IDENTITY = "identity"
TOPK = "topk"
RANDK = "randk"
KINDS = (IDENTITY, TOPK, RANDK)

# Accounting model: a retained sparse element costs 8 bytes (4-byte index +
# 4-byte single), a dense element costs 4 bytes.
SPARSE_ENTRY_BYTES = 8
DENSE_ENTRY_BYTES = 4


@dataclass(frozen=True)
class CompressorSpec:
    """Which operator to apply and how much to retain.

    `retain` is an element count when given as an int (>= 1) and a ratio in
    (0, 1] when given as a float; identity takes no retain argument.
    """

    kind: str = IDENTITY
    retain: int | float | None = None

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown compressor kind {self.kind!r}")
        if self.kind == IDENTITY:
            if self.retain is not None:
                raise ValueError("identity compressor takes no retain argument")
            return
        if self.retain is None:
            raise ValueError(f"{self.kind} compressor needs a retain count or ratio")
        if isinstance(self.retain, bool):
            raise ValueError("retain must be an int count or float ratio")
        if isinstance(self.retain, int):
            if self.retain < 1:
                raise ValueError("retain count must be >= 1")
        else:
            if not 0.0 < float(self.retain) <= 1.0:
                raise ValueError("retain ratio must lie in (0, 1]")

    def resolve_k(self, p: int) -> int:
        """Number of retained coordinates at dimension p."""
        if p < 1:
            raise ValueError("dimension must be >= 1")
        if self.kind == IDENTITY:
            return p
        if isinstance(self.retain, int):
            if self.retain > p:
                raise ValueError(f"retain count {self.retain} exceeds dimension {p}")
            return self.retain
        return _ratio_count(float(self.retain), p)


@functools.lru_cache(maxsize=1024)
def _ratio_count(ratio: float, p: int) -> int:
    """ceil(ratio * p), exact in the ratio's decimal value: in binary floating
    point 0.07 * 100 is 7.000000000000001, which would round up to 8. Cached,
    since compress resolves k on every call."""
    return math.ceil(Fraction(repr(ratio)) * p)


def contraction_factor(spec: CompressorSpec, p: int) -> float:
    """The factor q^2 in [0, 1) such that compression error is <= q^2 ||x||^2."""
    k = spec.resolve_k(p)
    if spec.kind == IDENTITY or k == p:
        return 0.0
    return 1.0 - k / p


@dataclass(frozen=True)
class SparsePayload:
    """What actually crosses the wire for one compressed vector."""

    dim: int
    dense: bool
    # int64, strictly increasing and < dim, empty when dense: compress builds
    # them so and payload_from_bytes checks decoded ones, so they are not
    # re-checked here
    indices: np.ndarray
    values: np.ndarray  # float64; length dim when dense, else len(indices)

    def __post_init__(self) -> None:
        idx = np.asarray(self.indices, dtype=np.int64)
        vals = np.asarray(self.values, dtype=np.float64)
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "values", vals)
        if self.dense:
            if vals.shape != (self.dim,):
                raise ValueError("dense payload must carry exactly dim values")
        else:
            if idx.shape != vals.shape:
                raise ValueError("sparse payload indices/values length mismatch")

    def densify(self) -> np.ndarray:
        if self.dense:
            return self.values.copy()
        out = np.zeros(self.dim, dtype=np.float64)
        out[self.indices] = self.values
        return out


def dense_payload(values: np.ndarray) -> SparsePayload:
    values = np.asarray(values, dtype=np.float64)
    return SparsePayload(values.size, True, np.empty(0, dtype=np.int64), values.copy())


def payload_bytes(payload: SparsePayload) -> int:
    if payload.dense:
        return DENSE_ENTRY_BYTES * payload.dim
    return SPARSE_ENTRY_BYTES * payload.values.size


def compress(
    spec: CompressorSpec, x: np.ndarray, rng: RngStream | None = None
) -> tuple[SparsePayload, np.ndarray]:
    """Apply the operator; returns the payload and its densified vector C(x).

    Full retention (identity, or k == p) is transmitted dense: it carries the
    whole vector anyway and dense elements are cheaper (4 vs 8 bytes), so
    top-k at ratio 1.0 is byte-for-byte equivalent to identity.
    """
    x = np.asarray(x, dtype=np.float64)
    ensure_finite(x, "compress input")
    p = x.size
    k = spec.resolve_k(p)
    if spec.kind == IDENTITY or k == p:
        payload = dense_payload(x)
        return payload, payload.densify()
    if spec.kind == TOPK:
        # Stable sort on negated magnitudes: ties keep original order, so the
        # lowest index wins and replay is deterministic.
        order = np.argsort(-np.abs(x), kind="stable")[:k]
        idx = np.sort(order)
    else:  # RANDK
        if rng is None:
            raise ValueError("rand-k compression requires an rng stream")
        idx = np.sort(rng.gen.choice(p, size=k, replace=False))
    payload = SparsePayload(p, False, idx.astype(np.int64, copy=False), x[idx])  # x[idx] is a copy
    return payload, payload.densify()


_HEADER = struct.Struct("<QBQ")  # dim, dense flag, entry count
_PAIR = np.dtype([("i", "<u4"), ("v", "<f4")])  # one sparse entry


def payload_to_bytes(payload: SparsePayload) -> bytes:
    """Canonical wire form. Values are rounded to 32-bit singles here and only
    here; in-memory optimization state stays 64-bit. Indices are 4-byte
    unsigned, so serialized payloads support dimensions up to 2^32 - 1."""
    if payload.dense:
        body = payload.values.astype("<f4").tobytes()
        return _HEADER.pack(payload.dim, 1, payload.dim) + body
    idx = payload.indices.astype("<u4")
    vals = payload.values.astype("<f4")
    pairs = np.empty(idx.size, dtype=_PAIR)
    pairs["i"] = idx
    pairs["v"] = vals
    return _HEADER.pack(payload.dim, 0, idx.size) + pairs.tobytes()


def payload_from_bytes(buf: bytes) -> SparsePayload:
    """Decode payload_to_bytes output; raises ValueError on a buffer it cannot
    have written: a short header, a dense flag other than 0 or 1, a body
    shorter or longer than the entry count, or sparse indices that are not
    strictly increasing and < dim."""
    if len(buf) < _HEADER.size:
        raise ValueError(f"payload of {len(buf)} bytes is shorter than its {_HEADER.size}-byte header")
    dim, dense, count = _HEADER.unpack_from(buf, 0)
    if dense not in (0, 1):
        raise ValueError(f"payload dense flag must be 0 or 1, got {dense}")
    entry = 4 if dense else _PAIR.itemsize
    if len(buf) != _HEADER.size + entry * count:
        raise ValueError(f"payload of {len(buf)} bytes, its header declares {_HEADER.size + entry * count}")
    body = buf[_HEADER.size :]
    if dense:
        vals = np.frombuffer(body, dtype="<f4").astype(np.float64)
        return SparsePayload(dim, True, np.empty(0, dtype=np.int64), vals)
    pairs = np.frombuffer(body, dtype=_PAIR)
    idx = pairs["i"].astype(np.int64)
    if idx.size and (np.any(np.diff(idx) <= 0) or idx[-1] >= dim):
        raise ValueError("payload indices must be strictly increasing and < dim")
    return SparsePayload(dim, False, idx, pairs["v"].astype(np.float64))
