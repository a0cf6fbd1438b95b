"""Finiteness checks for float64 vectors and deterministic, labelled random streams.

Every other module builds on these two pieces: parameter vectors are plain
1-d numpy arrays whose finiteness is checked by the helpers here, and all
randomness is drawn from counter-based generators keyed by (seed, label) so
that any client/round/step stream can be re-derived independently of
execution order.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces or receives NaN/Inf entries."""


def ensure_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """Return `arr` unchanged, or raise naming the operation that produced it."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite result produced by {op}")
    return arr


def _label_words(label: str) -> tuple[int, ...]:
    # Stable 128-bit hash of the label, split into four uint32 words for the
    # SeedSequence spawn key. hashlib is platform independent, unlike hash().
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


@dataclass
class RngStream:
    """A named, replayable random stream.

    The underlying generator is Philox (counter based) keyed by the 64-bit
    seed plus a hash of the label, so streams with distinct labels are
    statistically independent and any stream can be re-derived from scratch.
    """

    seed: int
    label: str
    gen: np.random.Generator = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self.label:
            raise ValueError("rng stream label must be nonempty")
        ss = np.random.SeedSequence(
            entropy=int(self.seed) & ((1 << 64) - 1), spawn_key=_label_words(self.label)
        )
        self.gen = np.random.Generator(np.random.Philox(ss))

    def child(self, sublabel: str) -> "RngStream":
        """Derive an independent stream labelled `<label>/<sublabel>`."""
        return RngStream(self.seed, f"{self.label}/{sublabel}")


def derive_stream(seed: int, label: str) -> RngStream:
    return RngStream(seed, label)
