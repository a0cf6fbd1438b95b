import numpy as np
import pytest

from fedcef.core import NonFiniteError, derive_stream, ensure_finite, inf_norm


def test_basic_arithmetic():
    assert inf_norm(np.array([1.0, -7.0, 3.0])) == 7.0
    assert inf_norm(np.zeros(0)) == 0.0


def test_non_finite_result_names_the_operation():
    with pytest.raises(NonFiniteError, match="inf_norm"):
        inf_norm(np.array([1.0, np.inf]))
    finite = np.array([1.0, 2.0])
    assert ensure_finite(finite, "step") is finite
    with pytest.raises(NonFiniteError, match="local step"):
        ensure_finite(np.array([1.0, np.nan]), "local step")


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
