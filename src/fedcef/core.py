"""Finiteness and count checks, the ordered client sum and labelled random
streams.

Every other module builds on these pieces: parameter vectors are plain 1-d
numpy arrays whose finiteness is checked here, every sum over clients is
`client_sum`, and all randomness is drawn from counter-based generators keyed
by (seed, label) so that any client/round/step stream can be re-derived
independently of execution order.

Replay is bit-identical for a given BLAS library and thread count. The
oracles' matrix products are BLAS calls, and a BLAS may split a product
differently across threads, which changes the order of its additions.
"""

from __future__ import annotations

import hashlib
import numbers

import numpy as np


class NonFiniteError(FloatingPointError):
    """Raised when an operation produces or receives NaN/Inf entries."""


def ensure_finite(arr: np.ndarray, op: str) -> np.ndarray:
    """Return `arr` unchanged, or raise naming the operation that produced it."""
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"non-finite result produced by {op}")
    return arr


def count(n: object, message: str) -> int:
    """n as an int when it is an integer >= 1, numpy integers included and
    bools not; else ValueError(message)."""
    if isinstance(n, numbers.Integral) and not isinstance(n, bool) and n >= 1:
        return int(n)
    raise ValueError(message)


def client_sum(terms):
    """Add per-client terms, arrays or Python floats, to 0.0 one at a time in
    the order given: ascending client order from zero at every caller. Every
    cross-client sum goes through here, and its order is part of the replay
    contract.

    The loop is written out because no built-in sum keeps that order: np.sum
    and np.add.reduce add a 1-d run pairwise, which an (N, 1) block becomes
    (at N = 20, p = 1 they differed from this loop in 260 of 500 standard
    normal blocks), and the builtin sum() adds floats with compensation from
    Python 3.12 on, while fedcef supports 3.10. Starting from 0.0 gives +0.0
    for an all -0.0 column, as adding to np.zeros does, and makes the total a
    new array, so no term is written to."""
    total = 0.0
    for term in terms:
        total += term
    return total


def _entropy_words(seed: int, label: str) -> np.ndarray:
    """The eight uint32 words a stream's SeedSequence is built from: the seed
    mod 2^64 as two little-endian words, two zero words, then a stable 128-bit
    hash of the label as four. hashlib is platform independent, unlike hash()."""
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return np.frombuffer((int(seed) & ((1 << 64) - 1)).to_bytes(16, "little") + digest, dtype="<u4")


def derive_stream(seed: int, label: str) -> np.random.Generator:
    """A named, replayable random stream.

    The generator is Philox (counter based) keyed by the 64-bit seed plus a
    hash of the label, so streams with distinct labels are statistically
    independent and any stream can be re-derived from scratch. A sub-stream
    is the stream of the label `<label>/<sublabel>`.

    The SeedSequence gets one entropy array, [seed_lo, seed_hi, 0, 0,
    label_w0..label_w3]. That is the same pool, Philox key and draws as
    SeedSequence(entropy=seed, spawn_key=label words): numpy pads a run
    entropy shorter than its pool size of 4 words with zeros before it
    appends a spawn key, and the seed takes at most two words. numpy takes
    a uint32 array as it is, where it converts Python ints word by word.
    """
    if not label:
        raise ValueError("rng stream label must be nonempty")
    ss = np.random.SeedSequence(entropy=_entropy_words(seed, label))
    return np.random.Generator(np.random.Philox(ss))
