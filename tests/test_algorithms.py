import copy
import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from fedcef import algorithms
from fedcef.algorithms import (
    HyperParams,
    RoundState,
    StepConditionWarning,
    _local_pass,
    client_downlink,
    client_uplink,
    decoupled_step,
    local_update,
    prox_sgd_step,
    run_centralized_pgd,
    run_fedcef,
    run_prox_fedavg,
    server_aggregate,
    server_finalize,
)
from fedcef.compressors import CompressorSpec
from fedcef.core import NonFiniteError, derive_stream
from fedcef.metrics import prox_gradient_mapping
from fedcef.problems import (
    FULL,
    FederatedProblem,
    LossKind,
    PartitionSpec,
    generate_synthetic,
    objective_value,
)
from fedcef.regularizers import Regularizer
from tests._reference import row_gradient, stacked
from tests._transcripts import PHASES, recorded, recording
from tests.test_compressors import assert_encodes


def lasso_problem(seed=7, p=20, samples=100, N=1):
    return generate_synthetic(
        "squared_error", p, samples, N, PartitionSpec("iid"), seed
    )


def zero_gradient_problem(p=4, N=2):
    """All feature rows are zero, so every stochastic gradient is exactly zero."""
    feats = [np.zeros((3, p)) for _ in range(N)]
    labs = [np.ones(3) for _ in range(N)]
    return stacked(LossKind("squared_error"), p, feats, labs)  # L = 0: the data has no curvature


@pytest.mark.parametrize(
    "field, value",
    [("K", 2.5), ("T", 2.5), ("B", True), ("K", True), ("T", True), ("K", np.int64(0)), ("B", np.bool_(True))],
)
def test_hyper_params_reject_non_integer_counts(field, value):
    with pytest.raises(ValueError, match=field):
        HyperParams(alpha=0.1, **{field: value})


@pytest.mark.parametrize("field", ["K", "B", "T"])
def test_hyper_params_store_numpy_integer_counts_as_int(field):
    value = getattr(HyperParams(alpha=0.1, **{field: np.int64(3)}), field)
    assert value == 3 and type(value) is int


@pytest.mark.parametrize(
    "steps, field",
    [
        ({"alpha": 0.0}, "alpha"),
        ({"alpha": -1.0}, "alpha"),
        ({"alpha": math.nan}, "alpha"),
        ({"alpha": math.inf}, "alpha"),
        ({"eta_g": math.inf}, "eta_g"),
        ({"alpha": 1e-200, "eta_g": 1e-200}, "beta"),  # beta underflows to 0.0
        ({"alpha": 1e200, "eta_g": 1e200}, "beta"),  # beta overflows to inf
    ],
)
def test_hyper_params_need_finite_steps_and_a_finite_positive_beta(steps, field):
    with pytest.raises(ValueError, match=f"^{field} "):
        HyperParams(**{"alpha": 0.1, **steps})


def test_local_update_single_gradient_step():
    prob = lasso_problem(p=6, samples=30)
    hp = HyperParams(alpha=0.05, eta_g=1.0, K=1, eta=1.0, B=FULL, T=1)
    z = np.linspace(-1, 1, 6)
    st = RoundState.initial(z, 1)
    gradients = {0: []}
    _local_pass(st, range(1), prob, Regularizer(), hp, 0, 0, recorded(decoupled_step, range(1), gradients))
    g = row_gradient(prob, 0, z)
    assert np.allclose(st.x_hat[0], z - 0.05 * g)
    assert np.array_equal(gradients[0][0], g)
    # first gradient is evaluated exactly at z: x^{t,0} = z
    assert np.array_equal(st.z, z)


def test_local_update_constant_correction_telescopes():
    prob = zero_gradient_problem()
    hp = HyperParams(alpha=0.1, eta_g=1.0, K=7, eta=1.0, B=FULL, T=1)
    z = np.array([1.0, -1.0, 2.0, 0.0])
    st = RoundState.initial(z, 1)
    st.c_local[0] = [0.5, 0.0, -0.5, 1.0]
    c_global = np.array([1.0, 1.0, 1.0, 1.0])
    st.c_known[:] = c_global
    local_update(st, 0, prob, Regularizer(), hp, seed=0, t=0)
    expected = z - 7 * 0.1 * (c_global - st.c_local[0])
    assert np.allclose(st.x_hat[0], expected, atol=1e-14)
    assert np.allclose(st.x[0], expected, atol=1e-14)


def test_local_update_rejects_nonfinite_state():
    prob = lasso_problem(p=4, samples=20)
    hp = HyperParams(alpha=1e300, eta_g=1.0, K=3, eta=1.0, B=FULL, T=1)
    z = np.ones(4)
    st = RoundState.initial(z, 1)
    with pytest.raises(FloatingPointError, match="local step"):
        local_update(st, 0, prob, Regularizer(), hp, seed=0, t=0)


def diverging_problem(closed_form, p=3, N=2, finite=()):
    """A problem on which, from z = ones with zero controls, every local step
    multiplies the model by about -1e100 at alpha = DIVERGING_ALPHA[closed_form]:
    xhat^{k+1} is about (-1e100)^(k+1), finite through step 2 and non-finite
    from step 3 on. The row oracle's shards repeat one all-ones row, so any
    minibatch gives the full gradient. The clients in `finite` have a
    gradient of (about) zero instead and stay at z."""
    if closed_form:
        curvatures = np.ones((N, p))
        curvatures[list(finite)] = 1e-200
        return FederatedProblem(LossKind("hetero_quadratic"), p, curvatures=curvatures, centers=np.zeros((N, p)))
    features = [np.zeros((4, p)) if i in finite else np.ones((4, p)) for i in range(N)]
    return stacked(LossKind("squared_error"), p, features, [np.zeros(4)] * N)


DIVERGING_ALPHA = {True: 1e100, False: 1e100 / 3}


@pytest.mark.parametrize("closed_form", [True, False], ids=["closed_form", "row_oracle"])
@pytest.mark.parametrize("step", [decoupled_step, prox_sgd_step])
def test_nonfinite_pass_names_the_first_bad_step_and_keeps_the_rows(step, closed_form, monkeypatch):
    prob = diverging_problem(closed_form)
    hp = HyperParams(alpha=DIVERGING_ALPHA[closed_form], K=6, B=FULL if closed_form else 2)
    st = RoundState.initial(np.ones(prob.dim), prob.n_clients)
    st.x_hat[1] = 5.0
    st.x[1] = 7.0
    before = copy.deepcopy(st)
    labels = []

    def counting_stream(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    monkeypatch.setattr(algorithms, "derive_stream", counting_stream)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^client 1: non-finite state at round 7, local step 3$"):
            _local_pass(st, range(1, 2), prob, Regularizer(1e-10), hp, 0, 7, step)
    for name in ("x_hat", "x", "c_local", "v", "z", "c_known", "c_global"):
        assert np.array_equal(getattr(st, name), getattr(before, name)), name
    # the replay steps from the indices the first run drew
    assert labels == ([] if closed_form else ["client/1/round/7/grad"])


@pytest.mark.parametrize("closed_form", [True, False], ids=["closed_form", "row_oracle"])
def test_block_pass_names_the_lowest_diverging_client_and_keeps_every_row(closed_form, monkeypatch):
    """prox_fedavg's block pass: client 0 stays finite, clients 1 and 2
    diverge. One finiteness check on the block, then client 1 alone is
    replayed with a check per step from the indices already drawn."""
    prob = diverging_problem(closed_form, N=3, finite=(0,))
    hp = HyperParams(alpha=DIVERGING_ALPHA[closed_form], K=6, B=FULL if closed_form else 2)
    st = RoundState.initial(np.ones(prob.dim), prob.n_clients)
    st.x_hat[:] = 5.0
    st.x[:] = 7.0
    before = copy.deepcopy(st)
    labels, checked = [], []
    isfinite = np.isfinite

    def counting_stream(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    def counting_isfinite(x, *args, **kwargs):
        checked.append(x.shape)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(algorithms, "derive_stream", counting_stream)
    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFiniteError, match=r"^client 1: non-finite state at round 7, local step 3$"):
            _local_pass(st, range(3), prob, Regularizer(1e-10), hp, 0, 7, prox_sgd_step)
    for name in ("x_hat", "x", "c_local", "v", "z", "c_known", "c_global"):
        assert np.array_equal(getattr(st, name), getattr(before, name)), name
    assert labels == ([] if closed_form else [f"client/{i}/round/7/grad" for i in range(3)])
    assert checked == [(3, prob.dim)] + [(1, prob.dim)] * 4  # the block once, then client 1's steps 0..3


@pytest.mark.parametrize("closed_form", [True, False], ids=["closed_form", "row_oracle"])
@pytest.mark.parametrize("run", [run_fedcef, run_prox_fedavg])
def test_a_diverging_local_pass_stops_the_run_naming_client_round_and_step(run, closed_form):
    """End to end: the local pass overflows in round 0, before any row can,
    and the run stops with the pass's message, warning-free. The problem is
    shifted so that z^0 = 0 is where the unshifted one starts to diverge,
    z = ones: the centers by -1, or the labels by -(a_s @ ones)."""
    prob = diverging_problem(closed_form)
    if closed_form:
        prob.centers = prob.centers - 1.0
    else:
        prob.all_labels -= prob.all_features.sum(axis=1)  # in place, so each shard's label view shifts too
    hp = HyperParams(alpha=DIVERGING_ALPHA[closed_form], K=6, B=FULL if closed_form else 2, T=3)
    args = (CompressorSpec("identity"),) if run is run_fedcef else ()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        warnings.simplefilter("ignore", StepConditionWarning)
        with pytest.raises(NonFiniteError, match=r"^client 0: non-finite state at round 0, local step 3$"):
            run(prob, Regularizer(1e-10), hp, *args, seed=0)


def test_finite_pass_checks_finiteness_once(monkeypatch):
    prob = lasso_problem(p=6, samples=30)
    hp = HyperParams(alpha=0.01, K=5, B=4)
    st = RoundState.initial(np.zeros(6), 1)
    calls = []
    isfinite = np.isfinite

    def counting_isfinite(x, *args, **kwargs):
        calls.append(x.shape)
        return isfinite(x, *args, **kwargs)

    monkeypatch.setattr(np, "isfinite", counting_isfinite)
    gradients = {0: []}
    _local_pass(st, range(1), prob, Regularizer(1e-3), hp, 0, 0, recorded(decoupled_step, range(1), gradients))
    assert len(gradients[0]) == hp.K and calls == [(1, 6)]


def test_block_pass_holds_one_gradient_block():
    """prox_fedavg's block pass on the hetero_drift benchmark's shape (N = 20,
    p = 200, K = 10) reuses one gradient block across its steps: the traced
    peak stays below what keeping every step's block, K * N * p * 8 bytes,
    would take."""
    N, p, K = 20, 200, 10
    prob = generate_synthetic("hetero_quadratic", p, N, N, PartitionSpec("iid"), 0)
    hp = HyperParams(alpha=1e-3, K=K)
    st = RoundState.initial(np.ones(p), N)
    tracemalloc.start()
    try:
        _local_pass(st, range(N), prob, Regularizer(1e-5), hp, 0, 0, prox_sgd_step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < K * N * p * 8


def test_uplink_momentum_and_error_feedback():
    hp = HyperParams(alpha=0.1, eta_g=1.0, K=2, eta=0.25, B=FULL, T=1)
    st = RoundState.initial(np.zeros(3), 1)
    st.z[:] = [1.0, 1.0, 1.0]  # xhat^{t,0}
    st.x_hat[0] = [0.8, 1.2, 0.6]
    st.v[0] = [1.0, -1.0, 0.0]
    st.c_local[0] = [0.1, 0.2, 0.3]
    st.c_known[:] = [0.0, 0.1, 0.0]
    drift = (st.z - st.x_hat[0]) / 0.2 + st.c_local[0] - st.c_known
    v_expected = 0.75 * st.v[0] + 0.25 * drift
    payload, dense = client_uplink(st, hp, CompressorSpec("identity"), seed=0, t=0)
    assert np.allclose(st.v[0], v_expected)
    # identity compression: c catches v up to float rounding
    assert np.allclose(st.c_local[0], v_expected, atol=1e-12)
    assert payload.dense
    assert np.allclose(payload.values, v_expected - [0.1, 0.2, 0.3], atol=1e-12)
    assert np.array_equal(dense[0], payload.values)


@pytest.mark.parametrize(
    "spec",
    [CompressorSpec("identity"), CompressorSpec("topk", 3), CompressorSpec("randk", 0.3)],
    ids=["identity", "topk", "randk"],
)
def test_uplink_charges_exactly_the_block_it_applies(spec):
    """The server sums the block client_uplink returns and never decodes the
    payload, so the charged payload must encode exactly that block, and the
    block must be what error feedback added to c_local."""
    rng = np.random.default_rng(11)
    hp = HyperParams(alpha=0.1, K=2, eta=0.5)
    st = RoundState.initial(rng.standard_normal(9), 4)
    st.x_hat = rng.standard_normal((4, 9))
    st.c_local = rng.standard_normal((4, 9))
    before = st.c_local.copy()
    payload, dense = client_uplink(st, hp, spec, seed=3, t=5)
    assert dense.shape == (4, 9)
    assert_encodes(payload, dense)
    assert np.array_equal(st.c_local, before + dense)
    assert payload.values.size == (36 if spec.kind == "identity" else 4 * spec.resolve_k(9))


def test_uplink_momentum_eta_one_equals_mean_gradient():
    prob = lasso_problem(p=5, samples=25, N=2)
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=4, eta=1.0, B=FULL, T=1)
    with recording() as transcripts:
        run_fedcef(prob, Regularizer(), hp, CompressorSpec("identity"), seed=2)
    tr = transcripts[0]
    for i in range(prob.n_clients):
        mean_grad = np.mean(tr.gradients[i], axis=0)
        assert np.max(np.abs(tr.end.v[i] - mean_grad)) <= 1e-12


def test_server_aggregate_cases():
    hp = HyperParams(alpha=0.1, eta_g=1.0, K=1, eta=1.0, B=FULL, T=1)
    z = np.array([1.0, 2.0])
    c = np.array([0.5, -0.5])
    st = RoundState.initial(z, 2)
    st.c_global = c.copy()
    z_tilde = server_aggregate(st, np.zeros((2, 2)), hp)
    assert np.allclose(z_tilde, z - hp.beta * c)
    assert np.allclose(st.c_global, c)
    # the uplink block must be (N, p); a rejected one changes nothing
    for wrong in (np.zeros(2), np.zeros(4), np.zeros((1, 2)), np.zeros((2, 3)), np.zeros((3, 2))):
        with pytest.raises(ValueError, match=r"expected \(N, p\) = \(2, 2\)"):
            server_aggregate(st, wrong, hp)
    assert np.array_equal(st.c_global, c)
    # N = 1 identity: control jumps to the transmitted v
    st1 = RoundState.initial(z, 1)
    v = np.array([[3.0, -1.0]])
    server_aggregate(st1, v, hp)
    assert np.array_equal(st1.c_global, v[0])


def test_client_downlink_reconstruction():
    hp = HyperParams(alpha=0.2, eta_g=1.0, K=5, eta=1.0, B=FULL, T=1)
    rng = np.random.default_rng(0)
    reg = Regularizer(0.05)
    for _ in range(200):
        z_prev = rng.standard_normal(6)
        c_true = rng.standard_normal(6)
        z_tilde = z_prev - hp.beta * c_true
        st = RoundState.initial(z_prev, 1)
        c_rec = client_downlink(st, z_tilde, hp)
        tol = 1e-10 * (1.0 + np.max(np.abs(c_true)))
        assert np.max(np.abs(c_rec - c_true)) <= tol
        server_finalize(st, z_tilde, reg, hp)
        assert np.array_equal(st.z, reg.prox(hp.beta, z_tilde))
    # h = 0: new global model is the broadcast itself
    st = RoundState.initial(np.ones(3), 1)
    server_finalize(st, np.full(3, 0.5), Regularizer(), hp)
    assert np.array_equal(st.z, np.full(3, 0.5))
    # unchanged broadcast reconstructs a zero control
    st = RoundState.initial(np.ones(3), 1)
    c_rec = client_downlink(st, np.ones(3), hp)
    assert np.array_equal(c_rec, np.zeros(3))


def test_topk_full_retention_equals_identity_series():
    prob = generate_synthetic(
        "logistic", 8, 60, 2, PartitionSpec("iid"), 19
    )
    reg = Regularizer(1e-3)
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=5, eta=0.6, B=4, T=8)
    a = run_fedcef(prob, reg, hp, CompressorSpec("topk", 1.0), seed=4)
    b = run_fedcef(prob, reg, hp, CompressorSpec("identity"), seed=4)
    assert [dataclasses.astuple(r) for r in a.series.rows] == [
        dataclasses.astuple(r) for r in b.series.rows
    ]


def test_zero_gradients_fixed_point():
    prob = zero_gradient_problem()
    hp = HyperParams(alpha=0.1, eta_g=1.0, K=3, eta=0.5, B=FULL, T=5)
    res = run_fedcef(prob, Regularizer(), hp, CompressorSpec("identity"), seed=1)
    for z in res.z_history:
        assert np.array_equal(z, np.zeros(prob.dim))


def test_determinism_bit_identical_series():
    prob = generate_synthetic(
        "logistic", 10, 80, 3, PartitionSpec("dirichlet", 0.6), 23
    )
    reg = Regularizer(1e-4)
    hp = HyperParams(alpha=0.02, eta_g=1.0, K=6, eta=0.3, B=2, T=10)
    spec = CompressorSpec("randk", 0.3)
    a = run_fedcef(prob, reg, hp, spec, seed=11)
    b = run_fedcef(prob, reg, hp, spec, seed=11)
    assert [dataclasses.astuple(r) for r in a.series.rows] == [
        dataclasses.astuple(r) for r in b.series.rows
    ]
    c = run_fedcef(prob, reg, hp, spec, seed=12)
    assert [dataclasses.astuple(r) for r in a.series.rows] != [
        dataclasses.astuple(r) for r in c.series.rows
    ]


def test_transcript_byte_counts_match_payloads():
    from fedcef.compressors import payload_bytes

    prob = generate_synthetic(
        "logistic", 10, 80, 4, PartitionSpec("iid"), 31
    )
    hp = HyperParams(alpha=0.02, eta_g=1.0, K=3, eta=0.5, B=FULL, T=5)
    with recording() as transcripts:
        res = run_fedcef(prob, Regularizer(), hp, CompressorSpec("topk", 3), seed=0)
    rows = res.series.rows
    for t, tr in enumerate(transcripts):
        up = payload_bytes(tr.uplink_payload)
        assert up == rows[t + 1].uplink_bytes_cum - rows[t].uplink_bytes_cum
        assert payload_bytes(tr.downlink_payload) == rows[t + 1].downlink_bytes_cum - rows[t].downlink_bytes_cum
        assert up == 4 * 3 * 8  # N clients, k entries, 8 bytes each


def test_transcripts_copy_the_state_and_leave_the_run_unchanged():
    prob = generate_synthetic(
        "logistic", 8, 60, 3, PartitionSpec("dirichlet", 0.5), 37
    )
    hp = HyperParams(alpha=0.05, eta_g=1.0, K=3, eta=0.5, B=4, T=5)
    reg, spec = Regularizer(1e-3), CompressorSpec("topk", 0.25)
    with recording() as transcripts:
        res = run_fedcef(prob, reg, hp, spec, seed=4)
    plain = run_fedcef(prob, reg, hp, spec, seed=4)
    assert len(transcripts) == hp.T
    for t, tr in enumerate(transcripts):
        assert tr.round == t
        assert tr.gradients.shape == (prob.n_clients, hp.K, prob.dim)
        assert np.array_equal(tr.local.z, res.z_history[t])
        assert np.array_equal(tr.end.z, res.z_history[t + 1])
    assert [dataclasses.astuple(r) for r in res.series.rows] == [
        dataclasses.astuple(r) for r in plain.series.rows
    ]
    assert all(np.array_equal(a, b) for a, b in zip(res.z_history, plain.z_history, strict=True))


def test_recording_puts_every_phase_back_when_the_block_raises():
    originals = [getattr(algorithms, name) for name in PHASES]
    with pytest.raises(RuntimeError, match="^body$"):
        with recording():
            assert all(getattr(algorithms, name) is not fn for name, fn in zip(PHASES, originals))
            raise RuntimeError("body")
    assert [getattr(algorithms, name) for name in PHASES] == originals


def test_step_condition_warning_emitted_and_recorded():
    prob = lasso_problem(p=5, samples=25)
    hp = HyperParams(alpha=10.0 / prob.smoothness / 8, eta_g=1.0, K=1, eta=1.0, B=FULL, T=1)
    with pytest.warns(StepConditionWarning):
        res = run_fedcef(prob, Regularizer(), hp, CompressorSpec("identity"), seed=0)
    assert not res.series.conditions.all_ok
    assert not res.series.rows[0].condition_ok


def test_sparsity_transfer_exact_zeros():
    prob = lasso_problem(p=20, samples=100)
    reg = Regularizer(0.5)
    beta = 1.0 / (25 * prob.smoothness)
    hp = HyperParams(alpha=beta / 5, eta_g=1.0, K=5, eta=1.0, B=FULL, T=300)
    res = run_fedcef(prob, reg, hp, CompressorSpec("identity"), seed=2)
    z = res.z_history[-1]
    pgd = run_centralized_pgd(prob, reg, HyperParams(alpha=beta, T=3000)).z_history[-1]
    assert np.count_nonzero(pgd) < prob.dim  # lambda was chosen to sparsify
    assert np.count_nonzero(z) < prob.dim
    assert np.all(z[pgd == 0.0] == 0.0) or np.count_nonzero(z) <= np.count_nonzero(pgd) + 2


def test_prox_fedavg_single_client_is_centralized_prox_sgd():
    prob = lasso_problem(p=6, samples=40, N=1)
    reg = Regularizer(0.01)
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=4, eta=1.0, B=FULL, T=15)
    res = run_prox_fedavg(prob, reg, hp, seed=3)
    z = np.zeros(6)
    for t in range(15):
        for _ in range(hp.K):
            z = reg.prox(hp.alpha, z - hp.alpha * row_gradient(prob, 0, z))
    assert np.max(np.abs(res.z_history[-1] - z)) <= 1e-12


def test_prox_fedavg_k1_full_is_parallel_gd():
    prob = generate_synthetic(
        "squared_error", 5, 40, 4, PartitionSpec("iid"), 37
    )
    hp = HyperParams(alpha=0.05, eta_g=1.0, K=1, eta=1.0, B=FULL, T=10)
    res = run_prox_fedavg(prob, Regularizer(), hp, seed=0)
    z = np.zeros(5)
    for t in range(10):
        grads = [row_gradient(prob, i, z) for i in range(4)]
        z = z - hp.alpha * np.mean(grads, axis=0)
        assert np.max(np.abs(res.z_history[t + 1] - z)) <= 1e-12


def test_prox_fedavg_hetero_fixed_point_matches_closed_form():
    prob = generate_synthetic(
        "hetero_quadratic", 6, 5, 5, PartitionSpec("iid"), 41,
        curvature_range=(0.5, 2.0),
    )
    H, m = prob.curvatures, prob.centers
    K, alpha = 10, 0.01
    hp = HyperParams(alpha=alpha, eta_g=1.0, K=K, eta=1.0, B=FULL, T=4000)
    res = run_prox_fedavg(prob, Regularizer(), hp, seed=0)
    w = 1.0 - (1.0 - alpha * H) ** K  # per-client averaging weights
    fixed = (w * m).sum(axis=0) / w.sum(axis=0)
    assert np.max(np.abs(res.z_history[-1] - fixed)) <= 1e-10
    xstar = (H * m).sum(axis=0) / H.sum(axis=0)
    assert np.linalg.norm(fixed - xstar) > 0  # averaging bias is real


def test_pgd_unit_quadratic_one_step():
    # f = 0.5 ||z - m||^2 via a single hetero client with H = 1: one unit step
    # from z^0 = 0 lands exactly on m
    H = np.ones((1, 3))
    m = np.array([[3.0, -2.0, 5.0]])
    prob = FederatedProblem(LossKind("hetero_quadratic"), 3, curvatures=H, centers=m)
    traj = run_centralized_pgd(prob, Regularizer(), HyperParams(alpha=1.0, T=1)).z_history
    assert np.array_equal(traj[1], m[0])


def test_pgd_lasso_converges_and_descends():
    prob = lasso_problem()
    reg = Regularizer(0.05)
    step = 1.0 / prob.smoothness
    traj = run_centralized_pgd(prob, reg, HyperParams(alpha=step, T=10_000)).z_history
    G = prox_gradient_mapping(prob, reg, traj[-1], step)
    assert np.linalg.norm(G) <= 1e-8
    objs = [objective_value(prob, reg, z) for z in traj[:200]]
    assert all(b <= a + 1e-12 for a, b in zip(objs, objs[1:]))
