import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedcef.regularizers import Regularizer, soft_threshold


def grid_prox_l1(x, tau, lam, lo=-5.0, hi=5.0, step=1e-4):
    """Independent per-coordinate argmin of 0.5*(u-x)^2/tau + lam*|u| on a grid."""
    grid = np.arange(lo, hi + step, step)
    out = np.empty_like(np.asarray(x, dtype=float))
    for j, xj in enumerate(np.atleast_1d(x)):
        vals = 0.5 * (grid - xj) ** 2 + tau * lam * np.abs(grid)
        out[j] = grid[np.argmin(vals)]
    return out


def test_prox_identity_cases():
    x = np.array([1.0, -2.0])
    assert np.array_equal(Regularizer.zero().prox(0.5, x), x)
    assert np.array_equal(Regularizer.l1(1.0).prox(0.0, np.array([3.0, -1.0])), [3.0, -1.0])


def test_prox_soft_threshold_against_grid_argmin():
    x = np.array([3.0, -1.0, 0.5])
    got = Regularizer.l1(1.0).prox(1.0, x)
    assert np.array_equal(got, [2.0, 0.0, 0.0])
    oracle = grid_prox_l1(x, tau=1.0, lam=1.0)
    assert np.max(np.abs(got - oracle)) <= 1e-4

    rng = np.random.default_rng(0)
    for _ in range(5):
        x = rng.uniform(-4, 4, size=6)
        tau = rng.uniform(0.1, 2.0)
        lam = rng.uniform(0.1, 1.5)
        got = Regularizer.l1(lam).prox(tau, x)
        oracle = grid_prox_l1(x, tau, lam)
        assert np.max(np.abs(got - oracle)) <= 1e-4


@pytest.mark.parametrize("tau", [-0.1, np.nan, np.inf])
def test_tau_must_be_nonnegative_and_finite(tau):
    for reg in (Regularizer.l1(1.0), Regularizer.zero()):
        with pytest.raises(ValueError, match="^prox step size"):
            reg.prox(tau, np.zeros(2))


@pytest.mark.parametrize("lam", [-1.0, np.nan, np.inf])
def test_regularizer_weight_must_be_nonnegative_and_finite(lam):
    with pytest.raises(ValueError, match="^regularizer weight"):
        Regularizer.l1(lam)


def test_evaluate():
    assert Regularizer.l1(2.0).evaluate(np.array([1.0, -3.0])) == 8.0
    assert Regularizer.zero().evaluate(np.array([5.0, 5.0])) == 0.0
    rng = np.random.default_rng(1)
    x = rng.standard_normal(50)
    lam = 1e-5
    resummed = sum(lam * abs(float(v)) for v in x)
    assert Regularizer.l1(lam).evaluate(x) == pytest.approx(resummed, rel=1e-12)


def test_subgradient_bound_matches_corner_enumeration():
    assert Regularizer.zero().subgradient_bound(100) == 0.0
    assert Regularizer.l1(1.0).subgradient_bound(4) == 4.0
    assert Regularizer.l1(1e-5).subgradient_bound(20) == pytest.approx(2e-9)
    # brute force: max ||g||^2 over sign corners of [-lam, lam]^4
    lam = 0.7
    corners = np.array(np.meshgrid(*[[-lam, lam]] * 4)).reshape(4, -1).T
    brute = max(float(np.sum(c * c)) for c in corners)
    assert Regularizer.l1(lam).subgradient_bound(4) == pytest.approx(brute)


def test_prox_is_nonexpansive():
    rng = np.random.default_rng(2)
    reg = Regularizer.l1(0.8)
    for _ in range(1000):
        x = rng.standard_normal(8)
        y = rng.standard_normal(8)
        tau = rng.uniform(0.0, 2.0)
        du = np.linalg.norm(reg.prox(tau, x) - reg.prox(tau, y))
        assert du <= np.linalg.norm(x - y) + 1e-12


def test_prox_kkt_and_moreau():
    rng = np.random.default_rng(3)
    lam = 0.6
    reg = Regularizer.l1(lam)
    for _ in range(200):
        x = rng.uniform(-3, 3, size=10)
        tau = rng.uniform(1e-3, 2.0)
        u = reg.prox(tau, x)
        # per-coordinate optimality of soft thresholding
        resid = x - u
        assert np.all(np.abs(resid) <= tau * lam + 1e-12)
        nz = u != 0
        assert np.allclose(resid[nz], tau * lam * np.sign(u[nz]))
        # Moreau: x = u + tau * s for a subgradient s with |s_j| <= lam
        s = resid / tau
        assert np.all(np.abs(s) <= lam + 1e-12)


def test_zero_kind_forces_zero_weight():
    reg = Regularizer("zero", 3.0)
    assert reg.lam == 0.0
    assert np.array_equal(soft_threshold(np.array([2.0, -2.0]), 0.5), [1.5, -1.5])


def sign_soft_threshold(x, thresh):
    """The sign formula `soft_threshold` replaced, kept as its oracle."""
    return np.sign(x) * np.maximum(np.abs(x) - thresh, 0.0)


def assert_same_as_sign_formula(x, thresh):
    got, want = soft_threshold(x, thresh), sign_soft_threshold(x, thresh)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert np.array_equal(got[~nan], want[~nan])
    # bit-equal except for the sign of zero, which is + for any thresh > 0
    nonzero = ~nan & (want != 0)
    assert np.array_equal(got[nonzero].view(np.uint64), want[nonzero].view(np.uint64))
    if thresh > 0:
        assert not np.any(np.signbit(got[~nan & (want == 0)]))


@settings(max_examples=300, deadline=None)
@given(
    hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_nan=True, allow_infinity=True)),
    st.floats(0.0, 1e300, allow_subnormal=True),
)
def test_soft_threshold_equals_the_sign_formula(x, thresh):
    assert_same_as_sign_formula(x, thresh)


def test_soft_threshold_edge_values_equal_the_sign_formula():
    t = 0.75
    tiny = np.nextafter(0.0, 1.0)
    x = np.array([0.0, -0.0, t, -t, np.nextafter(t, 1), -np.nextafter(t, 1), np.nextafter(t, 0), tiny, -tiny,
                  np.inf, -np.inf, np.nan, 1e308, -1e308])
    assert_same_as_sign_formula(x, t)
    got = soft_threshold(x, t)
    assert np.array_equal(got[9:11], [np.inf, -np.inf]) and np.isnan(got[11])
