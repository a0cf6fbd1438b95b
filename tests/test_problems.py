import numpy as np
import pytest

from fedcef.algorithms import run_centralized_pgd
from fedcef.core import derive_stream
from fedcef.problems import (
    DIRICHLET,
    FULL,
    HETERO_QUADRATIC,
    IID,
    FederatedProblem,
    LossKind,
    PartitionError,
    PartitionSpec,
    client_gradient,
    client_objective,
    dirichlet_partition,
    dump_dataset_csv,
    estimate_smoothness,
    full_global_gradient,
    generate_synthetic,
    load_dataset_csv,
    objective_value,
    per_sample_gradients,
    stochastic_gradient,
)
from fedcef.regularizers import Regularizer

DATA_VARIANTS = ("squared_error", "logistic", "sigmoid_nonconvex")


def small_problem(variant, seed=5, p=8, samples=60, N=3):
    return generate_synthetic(
        variant, p, samples, N, PartitionSpec(IID), derive_stream(seed, "problem")
    )


def hetero_problem(seed=5, p=6, N=4, curv=(0.1, 10.0)):
    return generate_synthetic(
        HETERO_QUADRATIC, p, N, N, PartitionSpec(IID), derive_stream(seed, "problem"),
        curvature_range=curv,
    )


def fd_gradient(f, x, h=1e-6):
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


@pytest.mark.parametrize("variant", DATA_VARIANTS + (HETERO_QUADRATIC,))
def test_gradient_matches_finite_differences(variant):
    prob = hetero_problem() if variant == HETERO_QUADRATIC else small_problem(variant)
    rng = np.random.default_rng(0)
    for _ in range(20):
        x = rng.standard_normal(prob.dim)
        for i in range(prob.n_clients):
            g = client_gradient(prob, i, x)
            fd = fd_gradient(lambda v: client_objective(prob, i, v), x)
            denom = max(np.linalg.norm(g), 1e-8)
            assert np.linalg.norm(g - fd) / denom <= 1e-5


def test_single_sample_squared_error_closed_form():
    a = np.array([[3.0, 4.0]])
    b = np.array([2.0])
    prob = FederatedProblem(LossKind("squared_error"), 2, [a], [b])
    x = np.array([1.0, -1.0])
    expected = a[0] * (a[0] @ x - b[0])
    assert np.allclose(stochastic_gradient(prob, 0, x, FULL, None), expected)
    assert estimate_smoothness(prob) == pytest.approx(25.0)


def test_hetero_gradient_and_stationary_point():
    prob = hetero_problem(seed=9)
    H, m = prob.loss.curvatures, prob.loss.centers
    x = np.linspace(-1, 1, prob.dim)
    for i in range(prob.n_clients):
        assert np.array_equal(client_gradient(prob, i, x), H[i] * (x - m[i]))
        # any batch size: the loss is deterministic
        assert np.array_equal(
            stochastic_gradient(prob, i, x, 4, derive_stream(0, "s")), H[i] * (x - m[i])
        )
    xstar = (H * m).sum(axis=0) / H.sum(axis=0)
    assert np.max(np.abs(full_global_gradient(prob, xstar))) <= 1e-12


def test_predrawn_indices_match_drawing_from_the_stream():
    prob = small_problem("logistic")
    x = np.linspace(-1, 1, prob.dim)
    n = prob.features[1].shape[0]
    drawn = derive_stream(4, "s").gen.integers(0, n, size=(3, 5))
    rng = derive_stream(4, "s")
    for row in drawn:
        assert np.array_equal(stochastic_gradient(prob, 1, x, 5, row), stochastic_gradient(prob, 1, x, 5, rng))


def test_hetero_smoothness_is_max_diagonal():
    H = np.array([[1.0, 2.0], [3.0, 1.0]])
    m = np.zeros((2, 2))
    prob = FederatedProblem(
        LossKind(HETERO_QUADRATIC, H, m), 2, [np.zeros((1, 2))] * 2, [np.zeros(1)] * 2
    )
    assert estimate_smoothness(prob) == 3.0


def test_logistic_smoothness_vs_dense_eigensolve():
    prob = generate_synthetic(
        "logistic", 10, 100, 1, PartitionSpec(IID), derive_stream(3, "problem")
    )
    a = prob.features[0]
    exact = 0.25 * float(np.linalg.eigvalsh(a.T @ a / a.shape[0])[-1])
    assert estimate_smoothness(prob) == pytest.approx(exact, rel=0.01)


@pytest.mark.parametrize("variant", DATA_VARIANTS + (HETERO_QUADRATIC,))
def test_smoothness_bounds_gradient_variation(variant):
    prob = hetero_problem() if variant == HETERO_QUADRATIC else small_problem(variant)
    L = prob.smoothness
    rng = np.random.default_rng(7)
    for _ in range(1000):
        x = rng.standard_normal(prob.dim)
        y = rng.standard_normal(prob.dim)
        i = rng.integers(prob.n_clients)
        lhs = np.linalg.norm(client_gradient(prob, i, x) - client_gradient(prob, i, y))
        assert lhs <= L * np.linalg.norm(x - y) * (1 + 1e-9)


def test_minibatch_unbiasedness_monte_carlo():
    prob = small_problem("logistic", seed=11, p=6, samples=40, N=1)
    x = np.linspace(-0.5, 0.5, 6)
    full = client_gradient(prob, 0, x)
    draws = 100_000
    B = 2
    rng = derive_stream(123, "mc")
    acc = np.zeros(6)
    for _ in range(draws):
        acc += stochastic_gradient(prob, 0, x, B, rng)
    mean = acc / draws
    # per-coordinate std of single-sample gradients
    sigma = per_sample_gradients(prob, 0, x).std(axis=0, ddof=0)
    tol = 3 * sigma / np.sqrt(draws * B)
    assert np.all(np.abs(mean - full) <= tol + 1e-12)


def test_minibatch_variance_scales_inversely_with_batch():
    prob = small_problem("squared_error", seed=13, p=5, samples=50, N=1)
    x = np.ones(5)
    full = client_gradient(prob, 0, x)
    draws = 40_000
    trace = {}
    for B in (1, 4, 16):
        rng = derive_stream(99, f"var/{B}")
        sq = 0.0
        for _ in range(draws):
            g = stochastic_gradient(prob, 0, x, B, rng)
            sq += float(np.sum((g - full) ** 2))
        trace[B] = sq / draws
    for B in (4, 16):
        assert trace[B] * B == pytest.approx(trace[1], rel=0.2)


def test_dirichlet_partition_basics():
    labels = np.repeat([0, 1], 50)
    assign = dirichlet_partition(labels, 1, 0.5, derive_stream(0, "part"))
    assert np.all(assign == 0)
    # per-class totals are conserved by largest-remainder rounding
    assign = dirichlet_partition(labels, 4, 0.7, derive_stream(1, "part"))
    for cls in (0, 1):
        assert np.sum(labels[assign >= 0] == cls) == 50
    assert np.bincount(assign, minlength=4).min() >= 1


def test_dirichlet_limits():
    labels = np.repeat(np.arange(4), 250)  # 4 classes x 250 samples
    # huge concentration: near-uniform split per class
    for seed in range(20):
        assign = dirichlet_partition(labels, 4, 1e6, derive_stream(seed, "hi"))
        for cls in range(4):
            counts = np.bincount(assign[labels == cls], minlength=4)
            assert np.all(np.abs(counts - 62.5) <= 0.10 * 250)
    # tiny concentration: some client hoards a class
    hoarded = 0
    for seed in range(20):
        assign = dirichlet_partition(labels, 4, 0.01, derive_stream(seed, "lo"))
        for cls in range(4):
            counts = np.bincount(assign[labels == cls], minlength=4)
            if counts.max() >= 0.9 * 250:
                hoarded += 1
                break
    assert hoarded == 20


def test_partition_failure_raises():
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(PartitionError):
        dirichlet_partition(labels, 4, 1e-8, derive_stream(5, "bad"))


def test_iid_single_client_gets_everything():
    prob = generate_synthetic(
        "squared_error", 4, 30, 1, PartitionSpec(IID), derive_stream(2, "problem")
    )
    assert prob.features[0].shape == (30, 4)
    # with one client the global gradient is that client's full gradient
    x = np.ones(4)
    assert np.array_equal(
        full_global_gradient(prob, x), stochastic_gradient(prob, 0, x, FULL, None)
    )


def test_dirichlet_generation_produces_nonempty_shards():
    prob = generate_synthetic(
        "logistic", 6, 200, 5, PartitionSpec(DIRICHLET, 0.6), derive_stream(4, "problem")
    )
    assert sorted(f.shape[0] for f in prob.features)[0] >= 1
    assert sum(f.shape[0] for f in prob.features) == 200


def test_objective_additivity_and_resummation():
    prob = small_problem("logistic", seed=17)
    reg = Regularizer.l1(0.3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prob.dim)
    f_only = objective_value(prob, Regularizer.zero(), x)
    assert objective_value(prob, reg, x) - f_only == pytest.approx(reg.evaluate(x))
    # two-pass recomputation
    total = 0.0
    for i in range(prob.n_clients):
        total += client_objective(prob, i, x)
    assert f_only == pytest.approx(total / prob.n_clients, rel=1e-12)


def test_hetero_objective_zero_at_center():
    H = np.array([[2.0, 3.0]])
    m = np.array([[1.0, -1.0]])
    prob = FederatedProblem(
        LossKind(HETERO_QUADRATIC, H, m), 2, [np.zeros((1, 2))], [np.zeros(1)]
    )
    assert objective_value(prob, Regularizer.zero(), m[0]) == 0.0


def test_planted_model_recovery_via_pgd():
    prob = generate_synthetic(
        "logistic", 20, 500, 1, PartitionSpec(IID), derive_stream(31, "problem")
    )
    reg = Regularizer.l1(1e-3)
    step = 1.0 / prob.smoothness
    traj = run_centralized_pgd(prob, reg, step, 25_000)
    z = traj[-1]
    G = (traj[-2] - z) / step  # fixed-point residual of the prox-gradient map
    assert np.linalg.norm(G) <= 1e-8
    true_support = set(np.flatnonzero(prob.ground_truth))
    found_support = set(np.flatnonzero(z))
    assert true_support <= found_support


def test_dataset_csv_roundtrip(tmp_path):
    prob = small_problem("logistic", seed=23, p=5, samples=40, N=3)
    path = tmp_path / "data.csv"
    dump_dataset_csv(prob, str(path))
    back = load_dataset_csv(str(path), "logistic")
    assert back.n_clients == prob.n_clients
    for i in range(prob.n_clients):
        assert np.array_equal(back.features[i], prob.features[i])
        assert np.array_equal(back.labels[i], prob.labels[i])
    with pytest.raises(ValueError):
        dump_dataset_csv(hetero_problem(), str(tmp_path / "nope.csv"))


def test_generate_preconditions():
    with pytest.raises(ValueError):
        generate_synthetic("logistic", 4, 2, 3, PartitionSpec(IID), derive_stream(0, "x"))
    with pytest.raises(ValueError):
        stochastic_gradient(small_problem("logistic"), 99, np.zeros(8), FULL, None)
