import numpy as np
import pytest

from fedcef.compressors import (
    CompressorSpec,
    compress,
    contraction_factor,
    payload_bytes,
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
        payload, dense = compress(spec, x, [stream])
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
    with pytest.raises(ValueError, match="count"):
        CompressorSpec("topk", np.int64(0))
    spec = CompressorSpec("topk", np.int64(3))
    assert spec == CompressorSpec("topk", 3) and type(spec.retain) is int and spec.resolve_k(10) == 3
    with pytest.raises(ValueError):
        CompressorSpec("topk", 1.5)
    with pytest.raises(ValueError):
        CompressorSpec("topk", 5).resolve_k(3)
    with pytest.raises(ValueError):
        CompressorSpec("identity", 3)


def test_payload_bytes_rules():
    sparse = compress(CompressorSpec("topk", 3), np.arange(10.0) + 1)[0]
    assert payload_bytes(sparse) == 24
    assert payload_bytes(compress(CompressorSpec("identity"), np.zeros(10))[0]) == 40
    empty = type(sparse)(10, False, np.empty(0, dtype=np.int64), np.empty(0))
    assert payload_bytes(empty) == 0


def assert_encodes(payload, dense):
    """The charged payload encodes exactly the block that is applied: a dense
    payload carries every entry of the block in order; a sparse one carries
    the block's entries at its indices, and the block is zero elsewhere."""
    flat = dense.ravel()
    assert payload.dim == flat.size
    if payload.dense:
        assert payload.indices.size == 0 and payload.values.tobytes() == flat.tobytes()
    else:
        assert payload.values.tobytes() == flat[payload.indices].tobytes()
        assert not np.delete(flat, payload.indices).any()


def _block_matches_rows(spec, x, streams=None, fresh_streams=None):
    """compress on the (n, p) block x against one call per row: the same
    bits in every row, indices of the flattened block strictly increasing
    and below n*p, a payload that encodes the block, and the bytes of the
    row payloads summed."""
    n, p = x.shape
    payload, dense = compress(spec, x, streams)
    assert dense.shape == x.shape and payload.dim == n * p
    assert np.all(np.diff(payload.indices) > 0) and np.all(payload.indices < n * p)
    assert_encodes(payload, dense)
    row_bytes = 0
    for i in range(n):
        row_payload, row_dense = compress(spec, x[i], None if fresh_streams is None else [fresh_streams[i]])
        assert row_dense.tobytes() == dense[i].tobytes()
        row_bytes += payload_bytes(row_payload)
    assert payload_bytes(payload) == row_bytes
    return payload


def test_block_identity_matches_rows():
    x = np.random.default_rng(3).standard_normal((4, 7))
    payload = _block_matches_rows(CompressorSpec("identity"), x)
    assert payload.dense and payload_bytes(payload) == 4 * x.size


def test_block_topk_matches_rows_and_ties_keep_the_lowest_index():
    rng = np.random.default_rng(4)
    x = rng.standard_normal((5, 40))
    # a row of tied magnitudes, long enough that an unstable sort reorders it
    x[2] = np.tile([1.0, -3.0, 3.0, 0.5], 10)
    for spec in (CompressorSpec("topk", 5), CompressorSpec("topk", 0.3)):
        payload = _block_matches_rows(spec, x)
        assert payload_bytes(payload) == 5 * spec.resolve_k(40) * 8
    _, dense = compress(CompressorSpec("topk", 5), x)
    assert np.flatnonzero(dense[2]).tolist() == [1, 2, 5, 6, 9]


def test_block_randk_draws_each_row_from_its_own_stream():
    x = np.random.default_rng(5).standard_normal((6, 11))
    labels = [f"client/{i}/round/2/compress" for i in range(6)]
    for spec in (CompressorSpec("randk", 3), CompressorSpec("randk", 0.25)):
        streams = [derive_stream(8, label) for label in labels]
        fresh = [derive_stream(8, label) for label in labels]
        payload = _block_matches_rows(spec, x, streams, fresh)
        assert payload.values.size == 6 * spec.resolve_k(11)


def test_block_randk_needs_one_stream_per_row():
    x = np.ones((3, 5))
    spec = CompressorSpec("randk", 2)
    for streams in (None, [], [derive_stream(0, f"r/{i}") for i in range(2)],
                    [derive_stream(0, f"r/{i}") for i in range(4)]):
        with pytest.raises(ValueError, match="stream"):
            compress(spec, x, streams)
    # a bare stream is not a sequence of them, even for a (p,) vector
    with pytest.raises(TypeError):
        compress(spec, x[0], derive_stream(0, "r"))
