import struct

import numpy as np
import pytest

from fedcef.compressors import (
    CompressorSpec,
    compress,
    contraction_factor,
    dense_payload,
    payload_bytes,
    payload_from_bytes,
    payload_to_bytes,
)
from fedcef.core import derive_stream


def test_contraction_factor_examples():
    assert contraction_factor(CompressorSpec("topk", 3), 3) == 0.0
    assert contraction_factor(CompressorSpec("topk", 0.01), 400) == pytest.approx(0.99)
    assert contraction_factor(CompressorSpec("randk", 1), 2) == 0.5
    assert contraction_factor(CompressorSpec("identity"), 10) == 0.0


def test_ratio_resolution_clamps_to_one():
    assert CompressorSpec("topk", 0.01).resolve_k(20) == 1
    assert CompressorSpec("topk", 0.5).resolve_k(3) == 2  # ceil
    assert CompressorSpec("topk", 1.0).resolve_k(7) == 7


def test_ratio_resolution_is_exact_in_decimal():
    # 0.07 * 100 is 7.000000000000001 in binary floating point
    for j in range(1, 101):
        spec = CompressorSpec("topk", j / 100)
        assert [spec.resolve_k(p) for p in range(1, 2001)] == [-(-j * p // 100) for p in range(1, 2001)], j


def test_topk_keeps_largest_magnitude():
    x = np.array([1.0, -3.0, 2.0])
    payload, dense = compress(CompressorSpec("topk", 1), x)
    assert np.array_equal(dense, [0.0, -3.0, 0.0])
    err = float(np.sum((dense - x) ** 2))
    assert err == 5.0
    assert err <= (1 - 1 / 3) * float(np.sum(x * x)) + 1e-12


def test_topk_ties_break_to_lowest_index():
    payload, dense = compress(CompressorSpec("topk", 1), np.array([2.0, -2.0, 1.0]))
    assert np.array_equal(dense, [2.0, 0.0, 0.0])


def test_identity_is_lossless_dense():
    x = np.array([1.0, -0.5, 0.0, 9.0])
    payload, dense = compress(CompressorSpec("identity"), x)
    assert payload.dense
    assert np.array_equal(dense, x)
    assert payload_bytes(payload) == 4 * x.size


def test_full_retention_topk_equals_identity():
    x = np.arange(6, dtype=float) - 2.5
    pl_top, dense_top = compress(CompressorSpec("topk", 1.0), x)
    pl_id, dense_id = compress(CompressorSpec("identity"), x)
    assert pl_top.dense and np.array_equal(dense_top, dense_id)
    assert payload_bytes(pl_top) == payload_bytes(pl_id)


def test_topk_zero_count_on_distinct_magnitudes():
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.permutation(np.arange(1.0, 13.0)) * rng.choice([-1, 1], size=12)
        _, dense = compress(CompressorSpec("topk", 5), x)
        assert int(np.sum(dense == 0.0)) == 12 - 5


def test_topk_scale_equivariance():
    rng = np.random.default_rng(1)
    spec = CompressorSpec("topk", 3)
    for _ in range(50):
        x = rng.standard_normal(10)
        for a in (2.5, -1.25, 1e-3):
            _, cx = compress(spec, x)
            _, cax = compress(spec, a * x)
            assert np.allclose(cax, a * cx)


def test_randk_is_contractive_and_unscaled():
    # Per draw only the dropped-energy <= total-energy bound can hold (a
    # uniform subset may carry more than its proportional share); the q^2
    # factor 1 - k/p is the exact mean over draws.
    rng = np.random.default_rng(2)
    spec = CompressorSpec("randk", 2)
    x = rng.standard_normal(8)
    errs = []
    for i in range(2000):
        stream = derive_stream(9, f"draw/{i}")
        payload, dense = compress(spec, x, stream)
        assert payload.indices.size == 2
        assert np.array_equal(np.unique(payload.indices), payload.indices)
        # retained entries are copied verbatim, never rescaled
        assert np.array_equal(dense[payload.indices], x[payload.indices])
        err = float(np.sum((dense - x) ** 2))
        assert err <= float(np.sum(x * x)) + 1e-12
        errs.append(err)
    errs = np.array(errs)
    target = contraction_factor(spec, 8) * float(np.sum(x * x))
    se = errs.std(ddof=1) / np.sqrt(errs.size)
    assert errs.mean() <= target + 3 * se
    assert errs.mean() >= target - 3 * se  # the mean is exact for rand-k


def test_randk_requires_stream():
    with pytest.raises(ValueError):
        compress(CompressorSpec("randk", 1), np.zeros(3))


def test_retain_domain_errors():
    with pytest.raises(ValueError):
        CompressorSpec("topk", 0)
    with pytest.raises(ValueError):
        CompressorSpec("topk", 1.5)
    with pytest.raises(ValueError):
        CompressorSpec("topk", 5).resolve_k(3)
    with pytest.raises(ValueError):
        CompressorSpec("identity", 3)


def test_payload_bytes_rules():
    sparse = compress(CompressorSpec("topk", 3), np.arange(10.0) + 1)[0]
    assert payload_bytes(sparse) == 24
    assert payload_bytes(dense_payload(np.zeros(10))) == 40
    empty = type(sparse)(10, False, np.empty(0, dtype=np.int64), np.empty(0))
    assert payload_bytes(empty) == 0


def test_serialization_roundtrip():
    x = np.array([0.5, -1.25, 3.0, 0.0, 2.0])
    payload, _ = compress(CompressorSpec("topk", 2), x)
    buf = payload_to_bytes(payload)
    # dim (8) + flag (1) + count (8) + 8 bytes per retained entry
    assert len(buf) == 17 + 8 * 2
    back = payload_from_bytes(buf)
    assert back.dim == 5 and not back.dense
    assert np.array_equal(back.indices, payload.indices)
    # values chosen representable in float32 round-trip exactly
    assert np.array_equal(back.values, payload.values)

    dense = dense_payload(x)
    buf = payload_to_bytes(dense)
    assert len(buf) == 17 + 4 * 5
    back = payload_from_bytes(buf)
    assert back.dense and np.array_equal(back.values, x)


def test_serialization_rounds_to_single_precision():
    val = 1.0 + 1e-12  # not representable in float32
    payload = dense_payload(np.array([val]))
    back = payload_from_bytes(payload_to_bytes(payload))
    assert back.values[0] == np.float32(val)
    assert payload.values[0] == val  # in-memory state untouched


def _sparse_bytes(dim, pairs):
    """A sparse payload's wire form from raw (index, value) pairs, unchecked."""
    body = np.array(pairs, dtype=[("i", "<u4"), ("v", "<f4")]).tobytes()
    return struct.pack("<QBQ", dim, 0, len(pairs)) + body


def test_decode_accepts_increasing_in_range_indices():
    back = payload_from_bytes(_sparse_bytes(5, [(0, 1.0), (2, -2.0), (4, 3.0)]))
    assert np.array_equal(back.indices, [0, 2, 4]) and np.array_equal(back.values, [1.0, -2.0, 3.0])
    assert payload_from_bytes(_sparse_bytes(5, [])).indices.size == 0


@pytest.mark.parametrize(
    "pairs", [[(3, 1.0), (1, 2.0)], [(2, 1.0), (2, 2.0)], [(1, 1.0), (5, 2.0)], [(7, 1.0)]],
    ids=["unsorted", "duplicate", "out_of_range", "single_out_of_range"],
)
def test_decode_rejects_bad_indices(pairs):
    with pytest.raises(ValueError, match="strictly increasing and < dim"):
        payload_from_bytes(_sparse_bytes(5, pairs))


@pytest.mark.parametrize(
    "payload",
    [dense_payload(np.arange(4.0)), compress(CompressorSpec("topk", 2), np.arange(4.0))[0]],
    ids=["dense", "sparse"],
)
def test_decode_rejects_short_and_long_buffers(payload):
    buf = payload_to_bytes(payload)
    for bad in (buf[:10], buf[:-1], buf + b"junk", buf + b"\0"):
        with pytest.raises(ValueError, match="payload of"):
            payload_from_bytes(bad)


def test_decode_rejects_a_dense_flag_other_than_0_or_1():
    buf = bytearray(payload_to_bytes(dense_payload(np.ones(3))))
    buf[8] = 2
    with pytest.raises(ValueError, match="dense flag"):
        payload_from_bytes(bytes(buf))
