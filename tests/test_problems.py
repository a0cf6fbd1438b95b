import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fedcef import problems
from fedcef.algorithms import HyperParams, run_centralized_pgd
from fedcef.core import NonFiniteError, derive_stream
from fedcef.problems import (
    DIRICHLET,
    FULL,
    HETERO_QUADRATIC,
    IID,
    FederatedProblem,
    LossKind,
    PartitionError,
    PartitionSpec,
    _gram_top_eigenvalue,
    _iid_partition,
    _largest_remainder_counts,
    _permute_rows,
    _sigmoid,
    client_gradient,
    client_values,
    dirichlet_partition,
    estimate_smoothness,
    full_global_gradient,
    generate_synthetic,
    objective_value,
    stochastic_gradient,
)
from fedcef.regularizers import Regularizer
from tests._reference import LOSSES, client_loss, draw, masked_sigmoid, row_gradient, stacked

DATA_VARIANTS = ("squared_error", "logistic", "sigmoid_nonconvex")


def small_problem(variant, seed=5, p=8, samples=60, N=3):
    return generate_synthetic(
        variant, p, samples, N, PartitionSpec(IID), seed
    )


def hetero_problem(seed=5, p=6, N=4, curv=(0.1, 10.0)):
    return generate_synthetic(
        HETERO_QUADRATIC, p, N, N, PartitionSpec(IID), seed,
        curvature_range=curv,
    )


def test_single_sample_squared_error_closed_form():
    a = np.array([[3.0, 4.0]])
    b = np.array([2.0])
    prob = stacked(LossKind("squared_error"), 2, [a], [b])
    x = np.array([1.0, -1.0])
    expected = a[0] * (a[0] @ x - b[0])
    assert np.allclose(stochastic_gradient(prob, 0, x, FULL, None), expected)
    assert estimate_smoothness(prob) == pytest.approx(25.0)


def test_hetero_gradient_and_stationary_point():
    prob = hetero_problem(seed=9)
    H, m = prob.curvatures, prob.centers
    x = np.linspace(-1, 1, prob.dim)
    for i in range(prob.n_clients):
        assert np.array_equal(client_gradient(prob, i, x), H[i] * (x - m[i]))
        # any batch size: the loss is deterministic and reads no indices
        assert np.array_equal(stochastic_gradient(prob, i, x, 4, None), H[i] * (x - m[i]))
    xstar = (H * m).sum(axis=0) / H.sum(axis=0)
    assert np.max(np.abs(full_global_gradient(prob, xstar))) <= 1e-12


def test_oracle_takes_exactly_b_drawn_indices():
    prob = small_problem("logistic")
    x = np.linspace(-1, 1, prob.dim)
    idx = np.array([1, 2])
    # the reference's mean over the indices given
    expected = row_gradient(prob, 0, x, idx)
    assert np.allclose(stochastic_gradient(prob, 0, x, 2, idx), expected, rtol=1e-14, atol=0)
    for B, bad in ((5, idx), (1, idx), (2, np.array([[1, 2], [2, 1]])), (4, np.array([[1, 2], [2, 1]])),
                   (2, np.array(1)), (2, None)):
        message = f"batch size {B} needs an index array of shape ({B},), got shape {np.shape(bad)}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            stochastic_gradient(prob, 0, x, B, bad)
    # B = FULL and the closed form read no sample, so they ignore idx
    hetero = hetero_problem()
    for bad in (idx, np.array([[1, 2], [2, 1]]), None):
        assert np.array_equal(stochastic_gradient(prob, 0, x, FULL, bad), client_gradient(prob, 0, x))
        assert np.array_equal(stochastic_gradient(hetero, 0, x[:6], 5, bad), client_gradient(hetero, 0, x[:6]))


@pytest.mark.parametrize("B", [FULL, 5])
@pytest.mark.parametrize("variant", DATA_VARIANTS + (HETERO_QUADRATIC,))
def test_oracle_writes_the_same_bits_into_a_row_of_a_block(variant, B):
    prob = hetero_problem() if variant == HETERO_QUADRATIC else small_problem(variant)
    x = np.linspace(-1, 1, prob.dim)
    block = np.full((prob.n_clients, prob.dim), np.nan)
    for i in range(prob.n_clients):
        idx = draw(derive_stream(4, f"s{i}"), prob, i, B)
        plain = stochastic_gradient(prob, i, x, B, idx)
        row = block[i]
        assert stochastic_gradient(prob, i, x, B, idx, out=row) is row
        assert row.tobytes() == plain.tobytes()


def test_numpy_integer_batch_size_gives_the_same_bits():
    prob = small_problem("logistic")
    x = np.linspace(-1, 1, prob.dim)
    idx = draw(derive_stream(4, "s"), prob, 0, 2)
    assert np.array_equal(stochastic_gradient(prob, 0, x, np.int64(2), idx), stochastic_gradient(prob, 0, x, 2, idx))


@pytest.mark.parametrize("B", [0, -1, 2.0, True, np.bool_(True)])
def test_batch_size_must_be_a_positive_integer(B):
    with pytest.raises(ValueError, match="^batch size must be a positive integer or FULL$"):
        stochastic_gradient(small_problem("logistic"), 0, np.zeros(8), B, np.zeros(2, dtype=np.int64))


def test_hetero_smoothness_is_max_diagonal():
    H = np.array([[1.0, 2.0], [3.0, 1.0]])
    m = np.zeros((2, 2))
    prob = FederatedProblem(LossKind(HETERO_QUADRATIC), 2, curvatures=H, centers=m)
    assert prob.n_clients == 2 and prob.features == prob.labels == []
    assert estimate_smoothness(prob) == 3.0


SHAPE = r"^hetero_quadratic needs curvatures and centers of one shape \(N, 4\), N >= 1$"
POSITIVE = "^hetero_quadratic curvatures must be strictly positive$"
FINITE = "^hetero_quadratic curvatures and centers must be finite$"


@pytest.mark.parametrize(
    "curvatures, centers, message",
    [
        (None, np.zeros((2, 4)), SHAPE),
        (np.ones((2, 4)), None, SHAPE),
        (np.ones((3, 4)), np.zeros((2, 4)), SHAPE),
        (np.ones((2, 5)), np.zeros((2, 5)), SHAPE),
        (np.ones(4), np.zeros(4), SHAPE),
        (np.ones((2, 4, 1)), np.zeros((2, 4, 1)), SHAPE),
        (np.ones((0, 4)), np.zeros((0, 4)), SHAPE),
        (np.array([[1.0, 1.0, 0.0, 1.0], [1.0] * 4]), np.zeros((2, 4)), POSITIVE),
        (np.array([[1.0, 1.0, np.nan, 1.0], [1.0] * 4]), np.zeros((2, 4)), POSITIVE),
        (np.array([[1.0, 1.0, np.inf, 1.0], [1.0] * 4]), np.zeros((2, 4)), FINITE),
        (np.ones((2, 4)), np.array([[0.0, np.nan, 0.0, 0.0], [0.0] * 4]), FINITE),
        (np.ones((2, 4)), np.array([[0.0] * 4, [0.0, 0.0, 0.0, -np.inf]]), FINITE),
    ],
    ids=["no_curvatures", "no_centers", "different_shapes", "five_coordinates", "one_row_vector", "three_axes",
         "no_rows", "zero_curvature", "nan_curvature", "inf_curvature", "nan_center", "inf_center"],
)
def test_a_hetero_problem_refuses_client_data_of_the_wrong_shape(curvatures, centers, message):
    # p = 4: curvatures and centers are one (N, 4) block each, and N >= 1
    with pytest.raises(ValueError, match=message):
        FederatedProblem(LossKind(HETERO_QUADRATIC), 4, curvatures=curvatures, centers=centers)


def test_a_hetero_problem_refuses_shards():
    message = "^hetero_quadratic takes no shards: its clients are the rows of curvatures and centers$"
    H, m = np.ones((2, 4)), np.zeros((2, 4))
    a, y, offsets = np.zeros((2, 4)), np.zeros(2), np.array([0, 1, 2])
    for data in ((a, y, offsets), (a, None, None), (None, y, None), (None, None, offsets), (a, y, None)):
        with pytest.raises(ValueError, match=message):
            FederatedProblem(LossKind(HETERO_QUADRATIC), 4, *data, curvatures=H, centers=m)


@pytest.mark.parametrize("curvatures, centers", [(np.ones((1, 2)), None), (None, np.zeros((1, 2)))])
def test_a_data_problem_refuses_curvatures_and_centers(curvatures, centers):
    with pytest.raises(ValueError, match="^a squared_error problem takes no curvatures or centers$"):
        stacked(LossKind("squared_error"), 2, [np.ones((3, 2))], [np.ones(3)], curvatures=curvatures, centers=centers)


def test_labels_are_one_value_per_row():
    a = np.random.default_rng(0).standard_normal((5, 3))
    y = np.where(a[:, 0] >= 0, 1.0, -1.0)
    offsets = np.array([0, 2, 5])
    FederatedProblem(LossKind("logistic"), 3, a, y, offsets)
    for feats, labs in ((a, y.reshape(-1, 1)), (a, y.reshape(1, -1)), (a, y[:4]), (a, None), (None, y),
                        (a[:, :2], y), (np.hstack([a, a]), y), (a[None], y)):
        with pytest.raises(ValueError, match="^feature rows must have length dim and labels one value per row$"):
            FederatedProblem(LossKind("logistic"), 3, feats, labs, offsets)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValueError, match="^labels must be finite$"):
            FederatedProblem(LossKind("logistic"), 3, a, np.where(np.arange(5) == 3, bad, y), offsets)


def test_a_problem_has_at_least_one_coordinate():
    # p = 0 would be a data loss with L = 0.0, and a hetero problem whose
    # smoothness is the maximum of an empty array
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        FederatedProblem(LossKind("logistic"), 0, np.ones((2, 0)), np.ones(2), np.array([0, 1, 2]))
    with pytest.raises(ValueError, match="^dim must be >= 1$"):
        FederatedProblem(LossKind(HETERO_QUADRATIC), 0, curvatures=np.ones((2, 0)), centers=np.zeros((2, 0)))


@pytest.mark.parametrize(
    "offsets",
    [None, [1, 2, 5], [0, 2, 4], [0, 2, 6], [0, 2, 2, 5], [0, 3, 2, 5], [[0, 2, 5]], [0], [], [0.0, 2.0, 5.0]],
    ids=["none", "not_from_zero", "short_of_n", "past_n", "repeated", "falling", "two_axes", "no_clients", "empty",
         "floats"],
)
def test_offsets_cut_the_rows_into_one_nonempty_shard_per_client(offsets):
    a, y = np.ones((5, 3)), np.ones(5)
    FederatedProblem(LossKind("squared_error"), 3, a, y, np.array([0, 2, 5]))
    with pytest.raises(ValueError, match=r"^offsets must be N \+ 1 >= 2 integers rising strictly from 0 to 5$"):
        FederatedProblem(LossKind("squared_error"), 3, a, y, None if offsets is None else np.array(offsets))


def test_smoothness_is_always_the_estimate_of_the_client_data():
    # all-zero shards: L = 0 is the estimate and is kept
    feats, labs = [np.zeros((3, 4))] * 2, [np.ones(3)] * 2
    prob = stacked(LossKind("squared_error"), 4, feats, labs)
    assert prob.smoothness == estimate_smoothness(prob) == 0.0
    a = [np.ones((3, 4))] * 2  # a^T a / 3 is the all-ones 4 x 4 matrix, top eigenvalue 4
    prob = stacked(LossKind("squared_error"), 4, a, labs)
    assert prob.smoothness == estimate_smoothness(prob) == pytest.approx(4.0)
    # L is what the step conditions scale with, so no caller may swap in another number
    with pytest.raises(TypeError, match="smoothness"):
        stacked(LossKind("squared_error"), 4, a, labs, smoothness=7.5)


def test_logistic_smoothness_vs_dense_eigensolve():
    prob = generate_synthetic(
        "logistic", 10, 100, 1, PartitionSpec(IID), 3
    )
    a = prob.features[0]
    exact = 0.25 * float(np.linalg.eigvalsh(a.T @ a / a.shape[0])[-1])
    assert estimate_smoothness(prob) == pytest.approx(exact, rel=1e-8)


def _gram_shard(shape: str) -> np.ndarray:
    rng = np.random.default_rng(17)
    if shape == "tall":
        return rng.standard_normal((500, 20))
    if shape == "wide":
        return rng.standard_normal((30, 400))
    if shape == "rank_deficient":
        return rng.standard_normal((200, 5)) @ rng.standard_normal((5, 50))
    if shape == "duplicate_rows":
        rows = rng.standard_normal((20, 15))
        return np.vstack([rows, rows, rows[:5]])
    if shape == "p1":
        return rng.standard_normal((40, 1))
    if shape == "p2":
        return rng.standard_normal((40, 2))
    if shape == "n1":
        return rng.standard_normal((1, 30))
    if shape == "zero":
        return np.zeros((10, 6))
    # top gap 1e-9: singular values sqrt(n * lambda) between two rotations
    n = 60
    lam = np.concatenate([[4.0, 4.0 - 1e-9], np.linspace(3.0, 0.1, n - 2)])
    u = np.linalg.qr(rng.standard_normal((n, n)))[0]
    vt = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (u * np.sqrt(n * lam)) @ vt


@pytest.mark.parametrize(
    "shape", ["tall", "wide", "rank_deficient", "duplicate_rows", "p1", "p2", "n1", "zero", "top_gap_1e-9"]
)
def test_gram_top_eigenvalue_matches_eigvalsh(shape):
    a = _gram_shard(shape)
    exact = float(np.linalg.eigvalsh(a.T @ a / a.shape[0])[-1])
    assert _gram_top_eigenvalue(a) == pytest.approx(exact, rel=1e-8, abs=0.0)


def _closing_shard(name):
    """Shards on which Lanczos from the fixed start vector v0 = linspace(1, 2, p)
    closes inside an invariant subspace that misses the top eigenvector."""
    if name == "v0_eigvec_p2":
        # a^T a / 2 = 9 u1 u1^T + u2 u2^T with u2 = v0
        u1, u2 = np.array([2.0, -1.0]) / np.sqrt(5.0), np.array([1.0, 2.0]) / np.sqrt(5.0)
        return np.sqrt(2.0) * np.vstack([3.0 * u1, u2])
    if name == "v0_null_p2":
        return np.array([[2.0, -1.0], [4.0, -2.0]])  # v0 spans the null space
    # p = 40: v0 an eigenvector of eigenvalue 1, the rest of the spectrum 2..5
    p = 40
    v0 = np.linspace(1.0, 2.0, p)
    q = np.linalg.qr(np.column_stack([v0, np.random.default_rng(3).standard_normal((p, p - 1))]))[0]
    return (q * np.sqrt(p * np.concatenate([[1.0], np.linspace(2.0, 5.0, p - 1)]))) @ q.T


@pytest.mark.parametrize("name", ["v0_eigvec_p2", "v0_null_p2", "v0_eigvec_p40"])
def test_gram_top_eigenvalue_when_the_krylov_space_closes_early(name):
    a = _closing_shard(name)
    exact = float(np.linalg.eigvalsh(a.T @ a / a.shape[0])[-1])
    assert _gram_top_eigenvalue(a) == pytest.approx(exact, rel=1e-12, abs=0.0)
    assert _gram_top_eigenvalue(np.zeros_like(a)) == 0.0


def test_gram_top_eigenvalue_keeps_no_basis():
    # 1000-dimensional shard: a k x p Lanczos basis would cost 8 kB per step
    a = np.random.default_rng(2).standard_normal((300, 1000))
    tracemalloc.start()
    try:
        _gram_top_eigenvalue(a)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 16 * a.shape[1] * 8


def test_overflowing_shard_raises_naming_the_client():
    prob = small_problem("squared_error", N=2)
    feats = [prob.features[0], prob.features[1] * 1e160]
    with pytest.warns(RuntimeWarning):
        with pytest.raises(NonFiniteError, match="client 1"):
            stacked(LossKind("squared_error"), prob.dim, feats, prob.labels)


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
    full = row_gradient(prob, 0, x)
    draws = 100_000
    B = 2
    rng = derive_stream(123, "mc")
    acc = np.zeros(6)
    for _ in range(draws):
        acc += stochastic_gradient(prob, 0, x, B, draw(rng, prob, 0, B))
    mean = acc / draws
    # per-coordinate std of the single-sample logistic gradients -y sigmoid(-y a @ x) a
    a, y = prob.features[0], prob.labels[0]
    sigma = (a * LOSSES["logistic"][1](a @ x, y)[:, None]).std(axis=0, ddof=0)
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
            g = stochastic_gradient(prob, 0, x, B, draw(rng, prob, 0, B))
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
    with pytest.raises(ValueError, match="^need at least one client$"):
        dirichlet_partition(labels, 0, 0.5, derive_stream(0, "part"))
    with pytest.raises(ValueError, match="^dirichlet concentration must be positive$"):
        dirichlet_partition(labels, 4, 0.0, derive_stream(0, "part"))


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
        "squared_error", 4, 30, 1, PartitionSpec(IID), 2
    )
    assert prob.features[0].shape == (30, 4)
    # with one client the global gradient is that client's full gradient
    x = np.ones(4)
    assert np.array_equal(
        full_global_gradient(prob, x), stochastic_gradient(prob, 0, x, FULL, None)
    )


def loop_iid_partition(n, N, rng):
    """_iid_partition as a loop over the clients, kept as its oracle."""
    perm = rng.permutation(n)
    assign = np.empty(n, dtype=np.int64)
    for client in range(N):
        assign[perm[client::N]] = client
    return assign


def loop_dirichlet_partition(labels, N, alpha_d, rng):
    """dirichlet_partition with a slice per client, kept as its oracle."""
    classes = np.unique(labels)
    assign = np.empty(labels.shape[0], dtype=np.int64)
    for _ in range(100):
        for cls in classes:
            idx = np.flatnonzero(labels == cls)
            props = rng.dirichlet(np.full(N, alpha_d))
            counts = _largest_remainder_counts(props, idx.size)
            shuffled = rng.permutation(idx)
            start = 0
            for client, cnt in enumerate(counts):
                assign[shuffled[start : start + cnt]] = client
                start += cnt
        if np.all(np.bincount(assign, minlength=N) > 0):
            return assign
    raise PartitionError("empty client")


@settings(max_examples=60, deadline=None)
@given(
    labels=st.lists(st.integers(0, 3), min_size=1, max_size=60),
    N=st.integers(1, 8),
    alpha_d=st.sampled_from([0.05, 0.6, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
def test_array_partitions_equal_the_per_client_loops(labels, N, alpha_d, seed):
    labels = np.array(labels)
    n = labels.size
    assert np.array_equal(
        _iid_partition(n, N, np.random.default_rng(seed)), loop_iid_partition(n, N, np.random.default_rng(seed))
    )
    try:
        want = loop_dirichlet_partition(labels, N, alpha_d, np.random.default_rng(seed))
    except PartitionError:
        with pytest.raises(PartitionError):
            dirichlet_partition(labels, N, alpha_d, np.random.default_rng(seed))
    else:
        assert np.array_equal(dirichlet_partition(labels, N, alpha_d, np.random.default_rng(seed)), want)


def test_dirichlet_generation_produces_nonempty_shards():
    prob = generate_synthetic(
        "logistic", 6, 200, 5, PartitionSpec(DIRICHLET, 0.6), 4
    )
    assert sorted(f.shape[0] for f in prob.features)[0] >= 1
    assert sum(f.shape[0] for f in prob.features) == 200


def test_objective_additivity_and_resummation():
    prob = small_problem("logistic", seed=17)
    reg = Regularizer(0.3)
    rng = np.random.default_rng(1)
    x = rng.standard_normal(prob.dim)
    f_only = objective_value(prob, Regularizer(), x)
    assert objective_value(prob, reg, x) - f_only == pytest.approx(reg.evaluate(x))
    # two-pass recomputation
    per_client = [client_loss(prob, i, x) for i in range(prob.n_clients)]
    assert client_values(prob, x)[0] == per_client
    total = 0.0
    for f_i in per_client:
        total += f_i
    assert f_only == pytest.approx(total / prob.n_clients, rel=1e-12)


@pytest.mark.parametrize("variant", DATA_VARIANTS + (HETERO_QUADRATIC,))
def test_block_oracles_match_the_per_client_oracles(variant):
    prob = hetero_problem() if variant == HETERO_QUADRATIC else small_problem(variant)
    x = np.random.default_rng(2).standard_normal(prob.dim)
    objectives, grads = client_values(prob, x)
    assert len(objectives) == prob.n_clients
    expected = [client_loss(prob, i, x) for i in range(prob.n_clients)]
    assert objectives == pytest.approx(expected, rel=1e-12)
    assert grads.shape == (prob.n_clients, prob.dim)
    for i in range(prob.n_clients):
        assert np.array_equal(grads[i], client_gradient(prob, i, x))
    # precomputed objectives give the same F as objective_value's own pass
    reg = Regularizer(0.3)
    assert objective_value(prob, reg, x, objectives) == objective_value(prob, reg, x)


def test_hetero_objective_zero_at_center():
    H = np.array([[2.0, 3.0]])
    m = np.array([[1.0, -1.0]])
    prob = FederatedProblem(LossKind(HETERO_QUADRATIC), 2, curvatures=H, centers=m)
    assert objective_value(prob, Regularizer(), m[0]) == 0.0


def test_planted_model_recovery_via_pgd():
    prob = generate_synthetic(
        "logistic", 20, 500, 1, PartitionSpec(IID), 31
    )
    reg = Regularizer(1e-3)
    step = 1.0 / prob.smoothness
    traj = run_centralized_pgd(prob, reg, HyperParams(alpha=step, T=25_000)).z_history
    z = traj[-1]
    G = (traj[-2] - z) / step  # fixed-point residual of the prox-gradient map
    assert np.linalg.norm(G) <= 1e-8
    true_support = set(np.flatnonzero(prob.ground_truth))
    found_support = set(np.flatnonzero(z))
    assert true_support <= found_support


def test_an_unknown_variant_is_refused_before_any_draw(monkeypatch):
    labels = []

    def counting_stream(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    monkeypatch.setattr(problems, "derive_stream", counting_stream)
    with pytest.raises(ValueError, match="^unknown loss variant 'hinge'$"):
        generate_synthetic("hinge", 8, 60, 3, PartitionSpec(IID), 0)
    assert labels == []
    # the same counter sees a known variant's draws
    generate_synthetic("logistic", 8, 60, 3, PartitionSpec(IID), 0)
    assert labels[0] == "problem/features"


@pytest.mark.parametrize("label_noise", [np.nan, np.inf, -0.1])
def test_label_noise_must_be_finite_and_nonnegative_before_any_draw(label_noise, monkeypatch):
    labels = []

    def counting_stream(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    monkeypatch.setattr(problems, "derive_stream", counting_stream)
    with pytest.raises(ValueError, match="^label noise must be finite and >= 0$"):
        generate_synthetic("logistic", 5, 60, 2, PartitionSpec(IID), 0, label_noise=label_noise)
    assert labels == []
    # no noise is a valid setting: the labels are the planted model's signs
    prob = generate_synthetic("logistic", 5, 60, 2, PartitionSpec(IID), 0, label_noise=0.0)
    assert {float(v) for y in prob.labels for v in y} == {-1.0, 1.0}


def test_generate_preconditions():
    with pytest.raises(ValueError):
        generate_synthetic("logistic", 4, 2, 3, PartitionSpec(IID), 0)
    with pytest.raises(ValueError, match="^dimension must be >= 1$"):
        generate_synthetic("logistic", 0, 20, 2, PartitionSpec(IID), 0)
    with pytest.raises(ValueError, match="^need at least one client$"):
        generate_synthetic("logistic", 4, 20, 0, PartitionSpec(IID), 0)
    for curv in ((0.0, 1.0), (2.0, 1.0), (0.1, math.inf), (0.1, math.nan)):
        with pytest.raises(ValueError, match="^curvature range must be positive and finite$"):
            generate_synthetic(HETERO_QUADRATIC, 3, 1, 2, PartitionSpec(IID), 0, curvature_range=curv)
    with pytest.raises(ValueError):
        stochastic_gradient(small_problem("logistic"), 99, np.zeros(8), FULL, None)


@pytest.mark.parametrize("alpha_d", [0.0, -1.0, np.nan, np.inf])
def test_dirichlet_concentration_must_be_positive_and_finite(alpha_d):
    with pytest.raises(ValueError, match="^dirichlet concentration"):
        PartitionSpec(DIRICHLET, alpha_d)


def test_dirichlet_partition_refuses_a_draw_that_overflows():
    # PartitionSpec refuses inf, a direct call does not: numpy's draw at inf
    # is all NaN, as it is all zero at a finite 1e308 over 10 clients
    labels = np.tile([1.0, -1.0], 20)
    for alpha_d in (np.inf, 1e308):
        with pytest.raises(ValueError, match=f"^dirichlet concentration alpha_d={re.escape(repr(alpha_d))} "):
            dirichlet_partition(labels, 10, alpha_d, derive_stream(0, "part"))


@settings(max_examples=300, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 64), elements=st.floats(allow_nan=False)))
def test_sigmoid_is_bitwise_the_masked_formula(u):
    assert np.array_equal(_sigmoid(u).view(np.uint64), masked_sigmoid(u).view(np.uint64))


def test_sigmoid_edge_values_are_bitwise_the_masked_formula():
    tiny = np.nextafter(0.0, 1.0)
    u = np.array([0.0, -0.0, np.inf, -np.inf, 1e308, -1e308, tiny, -tiny, 36.7, -36.7, 745.2, -745.2])
    assert np.array_equal(_sigmoid(u).view(np.uint64), masked_sigmoid(u).view(np.uint64))


@pytest.mark.parametrize("n", [1, 2, 7, 100])
def test_permute_rows_in_place_equals_fancy_indexing(n):
    rng = np.random.default_rng(n)
    for order in (np.arange(n), rng.permutation(n), np.roll(np.arange(n), 1)):
        a = rng.standard_normal((n, 3))
        want = a[order]
        _permute_rows(a, order)
        assert np.array_equal(a, want)


SHARD_CASES = [
    ("squared_error", PartitionSpec(IID)),
    ("logistic", PartitionSpec(DIRICHLET, 0.4)),
    ("sigmoid_nonconvex", PartitionSpec(DIRICHLET, 0.8)),
]


@pytest.mark.parametrize("variant, part", SHARD_CASES)
def test_shards_are_consecutive_row_views_of_one_matrix(variant, part):
    prob = generate_synthetic(variant, 7, 150, 5, part, 2)
    for shards in (prob.features, prob.labels):
        base = shards[0].base
        assert base is not None and base.shape[0] == 150
        offset = 0
        for s in shards:
            assert s.flags.c_contiguous and np.shares_memory(s, base)
            assert s.__array_interface__["data"][0] == base.ctypes.data + offset * s.strides[0]
            offset += s.shape[0]
        assert offset == 150


@pytest.mark.parametrize("variant, part", SHARD_CASES)
def test_shards_equal_the_masked_rows_of_the_drawn_data(variant, part):
    # recomputed from the streams generate_synthetic draws from, which pins
    # their labels
    seed = 4
    p, samples, N = 7, 150, 5
    prob = generate_synthetic(variant, p, samples, N, part, seed)
    a = derive_stream(seed, "problem/features").standard_normal((samples, p))
    noise = derive_stream(seed, "problem/labels").standard_normal(samples)
    if variant == "squared_error":
        y, classes = noise, np.where(noise >= 0, 1.0, -1.0)
    else:
        support = np.sort(derive_stream(seed, "problem/model").choice(p, size=max(1, p // 5), replace=False))
        assert np.array_equal(np.flatnonzero(prob.ground_truth), support)
        y = classes = np.where(a @ prob.ground_truth + 0.1 * noise >= 0, 1.0, -1.0)
    if part.mode == DIRICHLET:
        assign = dirichlet_partition(classes, N, part.alpha_d, derive_stream(seed, "problem/partition"))
    else:
        assign = _iid_partition(samples, N, derive_stream(seed, "problem/partition"))
    for i in range(N):
        assert np.array_equal(prob.features[i], a[assign == i])
        assert np.array_equal(prob.labels[i], y[assign == i])
        assert np.shares_memory(prob.features[i], prob.all_features)  # no copy of the drawn rows


def test_hetero_quadratic_draws_from_its_problem_stream():
    prob = generate_synthetic(HETERO_QUADRATIC, 6, 4, 4, PartitionSpec(IID), 9)
    hstream = derive_stream(9, "problem/hetero")
    H = np.exp(hstream.uniform(math.log(0.1), math.log(10.0), size=(4, 6)))
    assert np.array_equal(prob.curvatures, H)
    assert np.array_equal(prob.centers, hstream.uniform(-10.0, 10.0, size=(4, 6)))
    assert prob.n_clients == 4 and prob.features == prob.labels == []  # no placeholder shards


def test_generation_holds_one_copy_of_the_features():
    # the drawn 16 MB matrix is the only full copy: no per-client copies of
    # its rows exist next to it, not even for a moment
    p, samples = 500, 4000
    tracemalloc.start()
    try:
        generate_synthetic("logistic", p, samples, 10, PartitionSpec(DIRICHLET, 0.6), 0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * samples * p * 8
