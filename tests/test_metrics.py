import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedcef.algorithms import HyperParams, RoundState
from fedcef.compressors import CompressorSpec, compress
from fedcef.core import NonFiniteError
from fedcef.metrics import (
    MetricsRow,
    StepConditionReport,
    check_step_conditions,
    lyapunov_diagnostic,
    measure_row,
    prox_gradient_mapping,
    theorem_residual_bound,
)
from fedcef.problems import (
    DIRICHLET,
    LOSS_VARIANTS,
    LossKind,
    PartitionSpec,
    full_global_gradient,
    generate_synthetic,
    objective_value,
)
from fedcef.regularizers import Regularizer
from tests._reference import client_loss, gradient_variance, row_gradient, stacked
from tests._transcripts import RoundTranscript
from tests.test_regularizers import grid_prox_l1


def logistic_problem(seed=3, p=6, samples=80, N=3):
    return generate_synthetic(
        "logistic", p, samples, N, PartitionSpec("iid"), seed
    )


def test_mapping_equals_gradient_without_regularizer():
    prob = logistic_problem()
    reg = Regularizer()
    rng = np.random.default_rng(0)
    for _ in range(100):
        z = rng.standard_normal(prob.dim)
        beta = rng.uniform(0.05, 2.0)
        G = prox_gradient_mapping(prob, reg, z, beta)
        assert np.max(np.abs(G - full_global_gradient(prob, z))) <= 1e-12


def test_mapping_one_dimensional_lasso():
    # f = 0.5*(z - 2)^2 as a single-sample squared error with a=1, b=2
    prob = stacked(
        LossKind("squared_error"), 1, [np.array([[1.0]])], [np.array([2.0])]
    )
    reg = Regularizer(1.0)
    G = prox_gradient_mapping(prob, reg, np.array([0.0]), 1.0)
    assert G[0] == pytest.approx(-1.0)
    for beta in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError, match="^beta must be positive$"):
            prox_gradient_mapping(prob, reg, np.array([0.0]), beta)
    # cross-check the inner prox against the grid argmin oracle
    inner = grid_prox_l1(np.array([2.0]), 1.0, 1.0)
    assert (0.0 - inner[0]) / 1.0 == pytest.approx(-1.0, abs=1e-4)


def test_mapping_vanishes_at_hetero_optimum():
    prob = generate_synthetic(
        "hetero_quadratic", 6, 4, 4, PartitionSpec("iid"), 8
    )
    H, m = prob.curvatures, prob.centers
    xstar = (H * m).sum(axis=0) / H.sum(axis=0)
    G = prox_gradient_mapping(prob, Regularizer(), xstar, 0.1)
    assert np.max(np.abs(G)) <= 1e-10


def test_mapping_invariant_to_objective_shift():
    # duplicating each sample with labels b +/- d shifts the objective by d^2/2
    # while leaving every gradient unchanged
    rng = np.random.default_rng(4)
    a = rng.standard_normal((30, 5))
    b = rng.standard_normal(30)
    d = 3.0
    base = stacked(LossKind("squared_error"), 5, [a], [b])
    shifted = stacked(
        LossKind("squared_error"),
        5,
        [np.vstack([a, a])],
        [np.concatenate([b + d, b - d])],
    )
    reg = Regularizer(0.2)
    z = rng.standard_normal(5)
    from fedcef.problems import objective_value

    assert objective_value(shifted, reg, z) == pytest.approx(
        objective_value(base, reg, z) + 0.5 * d * d, rel=1e-12
    )
    Ga = prox_gradient_mapping(base, reg, z, 0.3)
    Gb = prox_gradient_mapping(shifted, reg, z, 0.3)
    assert np.max(np.abs(Ga - Gb)) <= 1e-12


@pytest.mark.parametrize("variant", LOSS_VARIANTS)
def test_measure_row_matches_the_three_pass_reference(variant):
    # measure_row takes F and G from one client_values call; standalone,
    # objective_value and prox_gradient_mapping each read the shards anew
    prob = generate_synthetic(variant, 9, 120, 4, PartitionSpec(DIRICHLET, 0.5), 11)
    reg = Regularizer(0.05)
    rng = np.random.default_rng(2)
    for _ in range(5):
        z = rng.standard_normal(prob.dim) * (rng.random(prob.dim) < 0.6)
        row, _ = measure_row(prob, reg, 0.3, 4, z, 10, 20, True)
        G = prox_gradient_mapping(prob, reg, z, 0.3)
        assert row.F == objective_value(prob, reg, z)
        assert row.prox_grad_sq == float(np.sum(G * G))
        assert (row.t, row.uplink_bytes_cum, row.downlink_bytes_cum) == (4, 10, 20)
        assert row.nnz == np.count_nonzero(z)


def per_client_measure_row(prob, reg, beta, t, z, up, down, condition_ok):
    """measure_row as it was before it measured on the client block, one
    client at a time, kept as its oracle."""
    N = prob.n_clients
    total = np.zeros(prob.dim)
    for i in range(N):
        total += row_gradient(prob, i, z)
    g = total / N
    G = (z - reg.prox(beta, z - beta * g)) / beta
    F = 0.0
    for i in range(N):
        F += client_loss(prob, i, z)
    F = F / N + reg.evaluate(z)
    return MetricsRow(t, F, float(np.sum(G * G)), up, down, int(np.count_nonzero(z)), None, condition_ok)


def per_client_lyapunov(prob, reg, hp, q, z, z_prev, client_vs, client_cs):
    """lyapunov_diagnostic's per-client loop before it took blocks, kept as its oracle."""
    F = objective_value(prob, reg, z)
    N = prob.n_clients
    beta, eta = hp.beta, hp.eta
    local_est = 0.0
    feedback = 0.0
    vbar = np.zeros(prob.dim)
    gbar = np.zeros(prob.dim)
    for i in range(N):
        gi = row_gradient(prob, i, z_prev)
        local_est += float(np.sum((client_vs[i] - gi) ** 2))
        feedback += float(np.sum((client_vs[i] - client_cs[i]) ** 2))
        vbar += client_vs[i]
        gbar += gi
    vbar /= N
    gbar /= N
    global_est = float(np.sum((vbar - gbar) ** 2))
    return (
        F
        + (70.0 * eta * beta / (1.0 - q) ** 2) * (local_est / N)
        + (8.0 * beta / eta) * global_est
        + (17.0 * beta / (1.0 - q)) * (feedback / N)
    )


# ten clients: numpy sums eight or more values pairwise, not in order
BLOCK_PROBLEMS = {
    variant: generate_synthetic(variant, 9, 300, 10, PartitionSpec(DIRICHLET, 0.5), 11)
    for variant in LOSS_VARIANTS
}
_models = hnp.arrays(np.float64, 9, elements=st.floats(-20.0, 20.0) | st.just(0.0))


@pytest.mark.parametrize("variant", LOSS_VARIANTS)
@settings(max_examples=40, deadline=None)
@given(z=_models, z_prev=_models, seed=st.integers(0, 2**32 - 1))
def test_block_measurement_is_bitwise_the_per_client_loop(variant, z, z_prev, seed):
    prob = BLOCK_PROBLEMS[variant]
    reg = Regularizer(0.05)
    hp = HyperParams(alpha=0.01, eta_g=1.5, K=5, eta=0.6, B="full", T=1)
    rng = np.random.default_rng(seed)
    vs, cs = rng.standard_normal((2, prob.n_clients, prob.dim))
    with np.errstate(over="ignore"):
        row, grads = measure_row(prob, reg, 0.3, 4, z, 10, 20, True)
        assert row == per_client_measure_row(prob, reg, 0.3, 4, z, 10, 20, True)
        assert np.array_equal(grads, [row_gradient(prob, i, z) for i in range(prob.n_clients)])
        _, prev_grads = measure_row(prob, reg, 0.3, 3, z_prev, 0, 0, True)
        want = per_client_lyapunov(prob, reg, hp, 0.4, z, z_prev, vs, cs)
        assert lyapunov_diagnostic(hp, 0.4, row.F, vs, cs, prev_grads) == want


def test_measure_row_reads_each_shard_twice():
    # once by the model (the margins) and once by the weights (a.T @ w);
    # objective_value without the shared objectives would be a third pass
    passes = []

    class Shard(np.ndarray):
        def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
            if ufunc is np.matmul:
                passes.append(self.shape)
            return getattr(ufunc, method)(*(np.asarray(x) for x in inputs), **kwargs)

    prob = logistic_problem(N=4)
    prob.features = [a.view(Shard) for a in prob.features]
    measure_row(prob, Regularizer(0.01), 0.5, 1, np.linspace(-1.0, 1.0, prob.dim), 0, 0, True)
    assert len(passes) == 2 * prob.n_clients


def test_measure_row_names_the_first_non_finite_row_without_warnings():
    # the suite turns any warning into an error
    def problem(a):
        # built on unit rows, whose L is 1: a 1e200 shard overflows the estimate
        prob = stacked(LossKind("squared_error"), 1, [np.ones((1, 1))] * 2, [np.zeros(1)] * 2)
        prob.all_features[:] = a
        return prob

    # margins 1e110: F = 5e219 is finite, but each gradient a.T @ w overflows,
    # and the global gradient's inf reaches ||G||^2
    with pytest.raises(NonFiniteError, match=r"^non-finite measurement at row 7: F = 5e\+219, \|\|G\|\|\^2 = inf$"):
        measure_row(problem(1e200), Regularizer(), 0.5, 7, np.array([1e-90]), 0, 0, True)
    # margins 1e160: the gradient is finite, F and ||G||^2 are not
    with pytest.raises(NonFiniteError, match=r"^non-finite measurement at row 3: F = inf, \|\|G\|\|\^2 = inf$"):
        measure_row(problem(1.0), Regularizer(), 0.5, 3, np.array([1e160]), 0, 0, True)


def test_step_condition_bounds():
    hp = HyperParams(alpha=0.001, eta_g=3.0, K=10, eta=1.0, B="full", T=1)
    rep = check_step_conditions(hp, L=1.0, q=0.0)
    assert rep.beta_bound == pytest.approx(0.04)
    assert rep.eta_g_bound == pytest.approx(math.sqrt(177) / 5)
    rep2 = check_step_conditions(HyperParams(alpha=0.001, K=10, T=1), L=2.0, q=0.0)
    assert rep2.alpha_bound == pytest.approx(1.0 / 160.0)
    assert isinstance(rep, StepConditionReport)


def test_step_condition_bounds_are_positive():
    rng = np.random.default_rng(5)
    for _ in range(50):
        hp = HyperParams(
            alpha=float(rng.uniform(1e-5, 1.0)),
            eta_g=float(rng.uniform(0.1, 5.0)),
            K=int(rng.integers(1, 40)),
            eta=float(rng.uniform(1e-3, 1.0)),
            B="full",
            T=1,
        )
        rep = check_step_conditions(hp, L=float(rng.uniform(1e-3, 50.0)), q=float(rng.uniform(0, 0.99)))
        assert rep.beta_bound > 0 and rep.eta_g_bound > 0 and rep.alpha_bound > 0


def test_flat_objective_meets_every_step_condition():
    # L = 0: every f_i is affine, so no step size is too large
    hp = HyperParams(alpha=10.0, eta_g=0.1, K=10, eta=0.5, B="full", T=1)
    rep = check_step_conditions(hp, L=0.0, q=0.5)
    assert (rep.beta_bound, rep.eta_g_bound, rep.alpha_bound) == (math.inf, 0.0, math.inf)
    assert rep.beta_ok and rep.eta_g_ok and rep.alpha_ok and rep.all_ok
    for bad in (-1.0, -0.0 - 1e-300, math.nan):
        with pytest.raises(ValueError, match="smoothness"):
            check_step_conditions(hp, L=bad, q=0.5)
    for bad in (1.0, -0.1, math.nan):
        with pytest.raises(ValueError, match=r"^compression factor q must lie in \[0, 1\)$"):
            check_step_conditions(hp, L=1.0, q=bad)


def test_step_condition_flags():
    hp = HyperParams(alpha=0.0001, eta_g=3.0, K=10, eta=1.0, B="full", T=1)
    rep = check_step_conditions(hp, L=1.0, q=0.0)
    assert rep.beta_ok and rep.eta_g_ok and rep.alpha_ok and rep.all_ok
    hp_bad = HyperParams(alpha=0.1, eta_g=0.5, K=10, eta=1.0, B="full", T=1)
    rep = check_step_conditions(hp_bad, L=1.0, q=0.0)
    assert not rep.beta_ok and not rep.eta_g_ok and not rep.alpha_ok and not rep.all_ok


def test_residual_bound_structure():
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=1, eta=1.0, B=1, T=1)
    # sigma = 0, B_h = 0: pure Psi0 / (0.15 beta T)
    assert theorem_residual_bound(hp, 1.0, 0.0, 0.0, 0.0, 1, 3.0, 100) == pytest.approx(
        3.0 / (0.15 * 0.01 * 100)
    )
    # doubling T halves it
    b1 = theorem_residual_bound(hp, 1.0, 0.0, 0.0, 0.0, 1, 3.0, 100)
    b2 = theorem_residual_bound(hp, 1.0, 0.0, 0.0, 0.0, 1, 3.0, 200)
    assert b2 == pytest.approx(b1 / 2)
    # stochastic coefficient: eta=1, q=0, N=1 gives 6.7 * 171
    stoc = theorem_residual_bound(hp, 1.0, 0.0, 0.0, 1.0, 1, 0.0, 100)
    assert stoc == pytest.approx(6.7 * 171.0)
    # FULL batch drops the stochastic term regardless of sigma
    hp_full = HyperParams(alpha=0.01, eta_g=1.0, K=1, eta=1.0, B="full", T=1)
    assert theorem_residual_bound(hp_full, 1.0, 0.0, 0.0, 5.0, 1, 0.0, 100) == 0.0


def test_residual_bound_carries_the_squared_subgradient_bound_once():
    # B_h_sq is what Regularizer.subgradient_bound returns, lambda^2 p, and
    # enters unsquared: c_approx (L beta / eta_g)^2 B_h_sq
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=10, eta=0.3, B="full", T=1)
    B_h_sq = Regularizer(1e-5).subgradient_bound(20)
    term = theorem_residual_bound(hp, 1.0, 0.0, B_h_sq, 0.0, 1, 0.0, 100)
    c_approx = (18.4 / 0.15) * (16.0 + 161.0 * 0.3**2)
    assert term == pytest.approx(c_approx * (1.0 * 0.1 / 1.0) ** 2 * 2e-9)
    assert term == pytest.approx(7.48e-8, rel=1e-3)


def test_lyapunov_dominates_objective_and_degenerates_cleanly():
    prob = logistic_problem(seed=6)
    reg = Regularizer(0.01)
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=5, eta=0.5, B="full", T=1)
    rng = np.random.default_rng(2)
    from fedcef.problems import client_values, objective_value

    for _ in range(20):
        z = rng.standard_normal(prob.dim)
        zp = rng.standard_normal(prob.dim)
        vs = np.array([rng.standard_normal(prob.dim) for _ in range(prob.n_clients)])
        cs = np.array([rng.standard_normal(prob.dim) for _ in range(prob.n_clients)])
        F = objective_value(prob, reg, z)
        assert lyapunov_diagnostic(hp, 0.3, F, vs, cs, client_values(prob, zp)[1]) >= F
    # all penalty terms vanish when v_i = grad f_i(z_prev) = c_i and vbar = grad f
    z = rng.standard_normal(prob.dim)
    vs = client_values(prob, z)[1]
    psi = lyapunov_diagnostic(hp, 0.0, objective_value(prob, reg, z), vs, vs.copy(), vs.copy())
    assert psi == pytest.approx(objective_value(prob, reg, z), rel=1e-12)


def test_gradient_variance_estimate():
    # the reference's sigma^2, which theorem_residual_bound takes
    prob = logistic_problem(seed=10)
    z = np.zeros(prob.dim)
    sigma_sq = gradient_variance(prob, z)
    assert sigma_sq > 0
    hetero = generate_synthetic(
        "hetero_quadratic", 4, 3, 3, PartitionSpec("iid"), 1
    )
    assert gradient_variance(hetero, z[:4]) == 0.0


def test_gradient_variance_matches_closed_form_squared_error():
    """sigma^2 on squared error from the closed-form single-sample gradients
    a_s (a_s @ z - b_s), the worst client's mean squared deviation."""
    prob = generate_synthetic(
        "squared_error", 5, 40, 3, PartitionSpec("iid"), 6
    )
    z = np.random.default_rng(3).standard_normal(prob.dim)
    worst = 0.0
    for a, b in zip(prob.features, prob.labels):
        per_sample = a * (a @ z - b)[:, None]
        dev = per_sample - per_sample.mean(axis=0)
        worst = max(worst, float(np.mean(np.sum(dev * dev, axis=1))))
    assert worst > 0
    assert gradient_variance(prob, z) == pytest.approx(worst, rel=1e-10)


def comm_accounting(transcripts, dim, include_bootstrap=True):
    """Byte-accounting oracle: cumulative (uplink, downlink) byte series over
    recorded round transcripts, re-derived from the payloads the round loop
    sent without payload_bytes: a payload costs 8 bytes per retained value,
    or 4 per element when it is dense. Uplink is the round's one payload of
    every client's message; downlink is one dense broadcast of the model per
    round, plus the out-of-band round-0 bootstrap broadcast."""

    def cost(pl):
        return 4 * pl.dim if pl.dense else 8 * pl.values.size

    uplink = np.zeros(len(transcripts), dtype=np.int64)
    downlink = np.zeros(len(transcripts), dtype=np.int64)
    up_cum = 0
    down_cum = 4 * dim if include_bootstrap else 0
    for t, tr in enumerate(transcripts):
        up_cum += cost(tr.uplink_payload)
        down_cum += cost(tr.downlink_payload)
        uplink[t] = up_cum
        downlink[t] = down_cum
    return uplink, downlink


def _transcript(round_idx, payload, n, dim):
    st = RoundState.initial(np.zeros(dim), n)
    return RoundTranscript(
        round=round_idx,
        gradients=np.zeros((n, 1, dim)),
        local=st,
        end=st,
        uplink_payload=payload,
        downlink_payload=compress(CompressorSpec("topk", 1.0), np.zeros(dim))[0],
    )


def test_comm_accounting_formulas():
    p, N, k, T = 1000, 10, 10, 3
    rng = np.random.default_rng(0)
    spec = CompressorSpec("topk", 0.01)
    assert spec.resolve_k(p) == k
    transcripts = []
    for t in range(T):
        payload = compress(spec, rng.standard_normal((N, p)))[0]
        transcripts.append(_transcript(t, payload, N, p))
    up, down = comm_accounting(transcripts, p)
    assert np.array_equal(up, [800 * (t + 1) for t in range(T)])  # N * k * 8 per round
    # 4 bytes per element per round, plus the bootstrap broadcast
    assert np.array_equal(down, [4000 * (t + 1) + 4000 for t in range(T)])
    up_nb, down_nb = comm_accounting(transcripts, p, include_bootstrap=False)
    assert down_nb[0] == 4000
    # the full-retention uplink is dense: 4 bytes per element
    full_payload = compress(CompressorSpec("topk", 1.0), rng.standard_normal((N, p)))[0]
    up_full, _ = comm_accounting([_transcript(0, full_payload, N, p)], p)
    assert up_full[0] == N * p * 4
