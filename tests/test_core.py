import hashlib

import numpy as np
import pytest

from fedcef.core import NonFiniteError, RngStream, client_sum, derive_stream, ensure_finite


def test_non_finite_result_names_the_operation():
    finite = np.array([1.0, 2.0])
    assert ensure_finite(finite, "step") is finite
    with pytest.raises(NonFiniteError, match="local step"):
        ensure_finite(np.array([1.0, np.nan]), "local step")


def _loop_sum(rows):
    """The per-client loop client_sum must match bit for bit: add to zeros in order."""
    total = np.zeros(rows.shape[1])
    for row in rows:
        total += row
    return total


def test_client_sum_adds_rows_and_floats_in_order():
    rows = np.random.default_rng(0).standard_normal((9, 3)) * np.logspace(-8, 8, 9)[:, None]
    kept = rows.copy()
    total = client_sum(rows)
    assert total.tobytes() == _loop_sum(rows).tobytes()
    assert client_sum(row for row in rows).tobytes() == total.tobytes()
    assert np.array_equal(rows, kept)  # no term is written to
    floats = rows[:, 0].tolist()
    expected = 0.0
    for v in floats:
        expected += v
    assert client_sum(floats) == expected
    assert client_sum(iter(floats)) == expected


def test_client_sum_of_a_column_block_is_the_loop_not_np_sum():
    """An (N, 1) block is one 1-d run to np.sum, which adds it pairwise once
    N >= 8; client_sum keeps the loop's order on every draw."""
    rng = np.random.default_rng(1)
    reordered = 0
    for _ in range(50):
        block = rng.standard_normal((10, 1))
        total = client_sum(block)
        assert total.tobytes() == _loop_sum(block).tobytes()
        reordered += total.tobytes() != np.sum(block, axis=0).tobytes()
    assert reordered > 0


def test_client_sum_of_negative_zeros_is_positive_zero():
    block = np.full((10, 2), -0.0)
    block[:, 1] = 1.0
    total = client_sum(block)
    assert total.tobytes() == _loop_sum(block).tobytes()
    assert not np.signbit(total[0])


def test_stream_is_deterministic():
    draws_a = derive_stream(42, "a").gen.random(100)
    draws_b = derive_stream(42, "a").gen.random(100)
    assert np.array_equal(draws_a, draws_b)


def test_distinct_labels_give_distinct_streams():
    hits = 0
    for i in range(1000):
        x = derive_stream(42, f"pair/{i}/x").gen.random()
        y = derive_stream(42, f"pair/{i}/y").gen.random()
        hits += x != y
    assert hits == 1000


def test_distinct_seeds_give_distinct_streams():
    a = derive_stream(42, "a").gen.random(10)
    b = derive_stream(43, "a").gen.random(10)
    assert not np.array_equal(a, b)


def test_child_stream_matches_rederivation():
    parent = derive_stream(7, "client/3")
    child = parent.child("round/7")
    again = derive_stream(7, "client/3/round/7")
    assert np.array_equal(child.gen.random(16), again.gen.random(16))


def test_empty_label_rejected():
    with pytest.raises(ValueError):
        derive_stream(0, "")


def _label_words(label):
    digest = hashlib.blake2b(label.encode("utf-8"), digest_size=16).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def spawn_key_philox(seed, label):
    """The seed-plus-spawn-key construction RngStream replaced, kept as its oracle."""
    ss = np.random.SeedSequence(entropy=seed & (2**64 - 1), spawn_key=_label_words(label))
    return np.random.Philox(ss)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, -1])
@pytest.mark.parametrize(
    "label", ["a", "client/3/round/7/compress", "client/12/round/399/grad/" + "x" * 300, "é/漢字/🙂"]
)
def test_stream_equals_the_spawn_key_construction(seed, label):
    want = spawn_key_philox(seed, label)
    got = RngStream(seed, label).gen
    assert np.array_equal(got.bit_generator.state["state"]["key"], want.state["state"]["key"])
    assert np.array_equal(got.random(16), np.random.Generator(want).random(16))


def test_stream_keys_are_pinned():
    # fails loudly if numpy ever changes how SeedSequence mixes its entropy
    key = lambda label: RngStream(0, label).gen.bit_generator.state["state"]["key"].tolist()
    assert key("problem") == [16474797391453484009, 4287957084332759251]
    assert key("client/3/round/7/compress") == [2365003788389370405, 4735189110066603015]
