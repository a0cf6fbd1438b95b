"""Synthetic federated problems: data generation, non-IID partitioning,
gradient oracles, and smoothness-constant estimation.

Four smooth loss families are provided. `squared_error`, `logistic` and
`sigmoid_nonconvex` are finite-sum losses over (feature row, label) samples;
`hetero_quadratic` gives each client its own diagonal quadratic
f_i(x) = 0.5 * sum_j H_ij (x_j - m_ij)^2, which makes naive-averaging drift
large and measurable while keeping the optimum in closed form.

The smoothness constant L that the step-size conditions scale with is the
loss's curvature factor times the largest lambda_max(A_i^T A_i)/n_i over
client shards, computed by plain Lanczos to about 1e-10 relative (the
closed-form largest curvature for hetero_quadratic).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .core import client_sum, count, derive_stream, ensure_finite

SQUARED_ERROR = "squared_error"
LOGISTIC = "logistic"
SIGMOID_NONCONVEX = "sigmoid_nonconvex"
HETERO_QUADRATIC = "hetero_quadratic"
LOSS_VARIANTS = (SQUARED_ERROR, LOGISTIC, SIGMOID_NONCONVEX, HETERO_QUADRATIC)

IID = "iid"
DIRICHLET = "dirichlet"

# Batch-size sentinel: use the exact local gradient instead of sampling.
FULL = "full"

# Lanczos stops once the top Ritz pair's residual is below this share of its value.
_LANCZOS_RESIDUAL_RTOL = 1e-5
# A Lanczos beta at or below this share of the top Ritz value means the Krylov
# space has closed up to rounding (the golden and benchmark shards that do not
# close stay above 1e-2).
_LANCZOS_CLOSED_RTOL = 1e-10


class PartitionError(ValueError):
    """Raised when a nonempty-per-client partition cannot be produced."""


@dataclass(frozen=True)
class PartitionSpec:
    mode: str = IID
    alpha_d: float = 0.6

    def __post_init__(self) -> None:
        if self.mode not in (IID, DIRICHLET):
            raise ValueError(f"unknown partition mode {self.mode!r}")
        if not 0 < self.alpha_d < math.inf:
            raise ValueError("dirichlet concentration alpha_d must be positive and finite")


@dataclass(frozen=True)
class LossKind:
    """A loss variant, the one thing checked here; FederatedProblem holds and checks its data."""

    variant: str

    def __post_init__(self) -> None:
        if self.variant not in LOSS_VARIANTS:
            raise ValueError(f"unknown loss variant {self.variant!r}")


@dataclass
class FederatedProblem:
    """N clients plus a smooth loss, whose data is checked here; gradient oracles live below."""

    loss: LossKind
    dim: int
    all_features: np.ndarray | None = None  # data losses: (n, p), client-major
    all_labels: np.ndarray | None = None  # data losses: (n,), one label per row
    offsets: np.ndarray | None = None  # (N + 1,): client i's rows are offsets[i]:offsets[i + 1]
    smoothness: float = field(init=False)  # L, estimated here from the client data
    ground_truth: np.ndarray | None = None  # planted model, when labels came from one
    curvatures: np.ndarray | None = None  # hetero_quadratic, which holds no sample data: (N, p), > 0
    centers: np.ndarray | None = None  # hetero_quadratic: (N, p), row i is client i
    features: list[np.ndarray] = field(init=False, default_factory=list)  # client i's row view of all_features
    labels: list[np.ndarray] = field(init=False, default_factory=list)  # client i's view of all_labels

    def __post_init__(self) -> None:
        if self.closed_form:
            if any(v is not None for v in (self.all_features, self.all_labels, self.offsets)):
                raise ValueError("hetero_quadratic takes no shards: its clients are the rows of curvatures and centers")
            shape = np.shape(self.centers)
            if not np.shape(self.curvatures) == shape == shape[:1] + (self.dim,) or shape[0] == 0:
                raise ValueError(f"hetero_quadratic needs curvatures and centers of one shape (N, {self.dim}), N >= 1")
            if not np.all(self.curvatures > 0):
                raise ValueError("hetero_quadratic curvatures must be strictly positive")
        elif self.curvatures is not None or self.centers is not None:
            raise ValueError(f"a {self.loss.variant} problem takes no curvatures or centers")
        elif np.ndim(self.all_labels) != 1 or np.shape(self.all_features) != np.shape(self.all_labels) + (self.dim,):
            raise ValueError("feature rows must have length dim and labels one value per row")
        elif (np.asarray(self.offsets).dtype.kind != "i" or np.ndim(self.offsets) != 1 or len(self.offsets) < 2
              or self.offsets[0] != 0 or self.offsets[-1] != len(self.all_labels) or np.diff(self.offsets).min() < 1):
            raise ValueError(f"offsets must be N + 1 >= 2 integers rising strictly from 0 to {len(self.all_labels)}")
        else:
            self.features = np.split(self.all_features, self.offsets[1:-1])
            self.labels = np.split(self.all_labels, self.offsets[1:-1])
        self.smoothness = estimate_smoothness(self)

    @property
    def n_clients(self) -> int:
        return len(self.features) or len(self.centers)  # hetero_quadratic holds no shards

    @property
    def closed_form(self) -> bool:
        """True when the gradient oracle reads no sample rows."""
        return self.loss.variant == HETERO_QUADRATIC


def _sigmoid(u: np.ndarray) -> np.ndarray:
    # exp only ever sees -|u| <= 0, so it cannot overflow; for u < 0 this is
    # exp(u) / (1 + exp(u)), the same bits as a branch per sign
    e = np.exp(-np.abs(u))
    return np.where(u >= 0, 1.0, e) / (1.0 + e)


def _sigmoid_grad_weights(z: np.ndarray, y: np.ndarray) -> np.ndarray:
    s = _sigmoid(-y * z)
    return -y * s * (1.0 - s)


# Each data loss from the margins z = a @ x: (per-sample losses, weights w
# with per-sample gradient w_s * a_s, curvature factor multiplying the data
# spectral norm lambda_max(A^T A)/n).
# logistic: max sigmoid' = 1/4; sigmoid_nonconvex: max |sigmoid''| = 1/(6*sqrt(3)).
_DATA_LOSSES = {
    SQUARED_ERROR: (lambda z, y: 0.5 * (z - y) ** 2, lambda z, y: z - y, 1.0),
    LOGISTIC: (lambda z, y: np.logaddexp(0.0, -y * z), lambda z, y: -y * _sigmoid(-y * z), 0.25),
    SIGMOID_NONCONVEX: (lambda z, y: _sigmoid(-y * z), _sigmoid_grad_weights, 1.0 / (6.0 * math.sqrt(3.0))),
}


def client_gradient(
    prob: FederatedProblem, client: int, x: np.ndarray, margins: np.ndarray | None = None, out: np.ndarray | None = None
) -> np.ndarray:
    """Exact gradient of f_i at x; `margins` is client i's a_i @ x on a data
    loss when already computed. With `out`, the gradient is written there and
    `out` is returned, the same bits."""
    if prob.closed_form:
        return np.multiply(prob.curvatures[client], x - prob.centers[client], out=out)
    a = prob.features[client]
    if margins is None:
        margins = a @ x
    w = _DATA_LOSSES[prob.loss.variant][1](margins, prob.labels[client])
    return np.divide(a.T @ w, a.shape[0], out=out)


def client_values(prob: FederatedProblem, x: np.ndarray) -> tuple[list[float], np.ndarray]:
    """([f_1(x), ..., f_N(x)], the (N, p) block whose row i is grad f_i(x)),
    from one read of the client data. hetero_quadratic forms d = x - m, the
    gradients H * d and the objectives 0.5 * sum(H * d * d), one operation
    each on the (N, p) block. A data loss takes each shard's margins a_i @ x
    once, for f_i, the mean of its per-sample losses, and for gradient row
    i, which client_gradient fills: the same bits as calling it per client."""
    if prob.closed_form:
        d = x - prob.centers
        grads = prob.curvatures * d
        return (0.5 * np.sum(grads * d, axis=1)).tolist(), grads
    loss = _DATA_LOSSES[prob.loss.variant][0]
    objectives = []
    grads = np.empty((prob.n_clients, prob.dim))
    for i, (a, y) in enumerate(zip(prob.features, prob.labels)):
        margins = a @ x
        objectives.append(float(np.mean(loss(margins, y))))
        client_gradient(prob, i, x, margins, out=grads[i])
    return objectives, grads


def stochastic_gradient(
    prob: FederatedProblem,
    client: int,
    x: np.ndarray,
    B: int | str,
    idx: np.ndarray | None,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Mini-batch gradient estimate over `idx`, the B sample indices the
    caller drew from the client's shard; the oracle draws nothing.

    B = FULL returns the exact gradient. hetero_quadratic is deterministic,
    so any B returns the exact gradient there too; both ignore `idx`, which
    may be None. Otherwise `idx` must have shape (B,). With `out`, the
    estimate is written there and `out` is returned, the same bits.
    """
    if not 0 <= client < prob.n_clients:
        raise ValueError(f"client index {client} out of range")
    if prob.closed_form or B == FULL:
        return client_gradient(prob, client, x, out=out)
    if type(B) is not int or B < 1:  # count's Integral test costs 1 us a call
        B = count(B, "batch size must be a positive integer or FULL")
    if np.shape(idx) != (B,):
        raise ValueError(f"batch size {B} needs an index array of shape ({B},), got shape {np.shape(idx)}")
    rows = prob.features[client][idx]
    w = _DATA_LOSSES[prob.loss.variant][1](rows @ x, prob.labels[client][idx])
    return np.divide(rows.T @ w, B, out=out)


def full_global_gradient(prob: FederatedProblem, x: np.ndarray, grads: np.ndarray | None = None) -> np.ndarray:
    """(1/N) sum_i grad f_i(x), the rows added by client_sum; `grads` is
    client_values(prob, x)[1], which every caller in the package already
    has. Without it, client_values forms the block and its objectives are dropped."""
    if grads is None:
        grads = client_values(prob, x)[1]
    return client_sum(grads) / prob.n_clients


def objective_value(prob: FederatedProblem, reg, x: np.ndarray, objectives: Sequence[float] | None = None) -> float:
    """F(x) = (1/N) sum_i f_i(x) + h(x), the N objectives added by client_sum;
    `objectives` is client_values(prob, x)[0] when already computed. Without
    it, client_values also forms the gradient block, which is dropped."""
    if objectives is None:
        objectives = client_values(prob, x)[0]
    return client_sum(objectives) / prob.n_clients + reg.evaluate(x)


def _exact_gram_top_eigenvalue(a: np.ndarray, op: str) -> float:
    """lambda_max(a^T a) / n by eigvalsh of a^T a / n or a a^T / n, whichever
    is smaller: both have the same nonzero eigenvalues."""
    n, p = a.shape
    gram = a.T @ a if p <= n else a @ a.T
    return float(np.linalg.eigvalsh(ensure_finite(gram / n, op))[-1])


def _gram_top_eigenvalue(a: np.ndarray, op: str = "the Gram product") -> float:
    """lambda_max(a^T a) / n by plain three-term Lanczos on the p x p operator
    v -> a^T (a v) / n. Keeps no basis: the top Ritz value stays accurate
    without reorthogonalization (Paige, 1976). A Krylov space that closes
    (beta ~ 0) before p steps is an invariant subspace the fixed start
    vector chose, which may miss the top eigenvector; the exact eigvalsh
    value of the smaller Gram matrix is returned then, unless the Ritz value
    agrees with it to 1e-12. Raises NonFiniteError, naming `op`, when a Gram
    product overflows."""
    n, p = a.shape
    v = np.linspace(1.0, 2.0, p)
    v /= np.linalg.norm(v)
    v_prev = np.zeros(p)
    alphas: list[float] = []
    betas: list[float] = []
    beta = 0.0
    while True:
        w = ensure_finite(a.T @ (a @ v) / n, op)
        w -= beta * v_prev
        alpha = float(v @ w)
        w -= alpha * v
        alphas.append(alpha)
        beta = float(np.linalg.norm(w))
        values, vectors = np.linalg.eigh(np.diag(alphas) + np.diag(betas, 1) + np.diag(betas, -1))
        theta = float(values[-1])
        if beta <= _LANCZOS_CLOSED_RTOL * theta:
            # closed: theta is exact on the space, which before p steps may
            # miss the top eigenvector; a theta within rounding of eigvalsh is kept
            if len(alphas) < p:
                exact = _exact_gram_top_eigenvalue(a, op)
                if exact > theta * (1.0 + 1e-12):
                    return exact
            return theta
        if beta * abs(vectors[-1, -1]) <= _LANCZOS_RESIDUAL_RTOL * theta:
            return theta
        betas.append(beta)
        v_prev, v = v, w / beta


def estimate_smoothness(prob: FederatedProblem) -> float:
    """L such that every f_i is L-smooth: the curvature factor times the
    largest lambda_max(A_i^T A_i)/n_i over clients, or the largest curvature
    for hetero_quadratic. Lanczos stops when the top Ritz pair's residual is
    at most 1e-5 of its value, or the Krylov space closes, where the value
    is exact (an early close falls back to eigvalsh). A Ritz value
    never exceeds lambda_max, and its error is then of the order of the
    squared residual over the spectral gap. Measured against eigvalsh: low by
    1.6e-10 relative on the p = 2000, 20000-sample benchmark problem (38 to
    69 steps per shard), by at most 1.2e-11 on the golden configs."""
    if prob.closed_form:
        return float(np.max(prob.curvatures))
    return _DATA_LOSSES[prob.loss.variant][2] * max(
        _gram_top_eigenvalue(a, f"the smoothness estimate of client {i}") for i, a in enumerate(prob.features)
    )


def _largest_remainder_counts(props: np.ndarray, n: int) -> np.ndarray:
    raw = props * n
    counts = np.floor(raw).astype(int)
    short = n - int(counts.sum())
    if short > 0:
        order = np.argsort(-(raw - counts), kind="stable")
        counts[order[:short]] += 1
    return counts


def dirichlet_partition(labels: np.ndarray, N: int, alpha_d: float, rng: np.random.Generator) -> np.ndarray:
    """Per-sample shard index: class proportions drawn Dir(alpha_d) per class,
    rounded by largest remainder. Resamples until every client is nonempty
    (up to 100 tries)."""
    if N < 1:
        raise ValueError("need at least one client")
    if not alpha_d > 0:
        raise ValueError("dirichlet concentration must be positive")
    labels = np.asarray(labels)
    classes = np.unique(labels)
    assign = np.empty(labels.shape[0], dtype=np.int64)
    for _ in range(100):
        for cls in classes:
            idx = np.flatnonzero(labels == cls)
            props = rng.dirichlet(np.full(N, alpha_d))
            # a huge alpha_d overflows numpy's gamma sum: all-zero or NaN proportions
            if not abs(props.sum() - 1.0) < 1e-6:
                raise ValueError(f"dirichlet concentration alpha_d={alpha_d!r} overflows the draw: sum {props.sum()}")
            counts = _largest_remainder_counts(props, idx.size)
            assign[rng.permutation(idx)] = np.repeat(np.arange(N), counts)
        if np.all(np.bincount(assign, minlength=N) > 0):
            return assign
    raise PartitionError(f"dirichlet partition left a client empty after 100 tries (N={N})")


def _iid_partition(n: int, N: int, rng: np.random.Generator) -> np.ndarray:
    assign = np.empty(n, dtype=np.int64)
    assign[rng.permutation(n)] = np.arange(n) % N
    return assign


def generate_synthetic(
    variant: str,
    p: int,
    samples: int,
    N: int,
    part: PartitionSpec,
    seed: int,
    label_noise: float = 0.1,
    curvature_range: tuple[float, float] = (0.1, 10.0),
) -> FederatedProblem:
    """Build a desk-scale problem instance.

    Features are standard normal. Classification labels come from a planted
    sparse model (support size max(1, p//5)); squared-error labels are pure
    noise. hetero_quadratic ignores `samples` and draws per-client diagonal
    curvatures log-uniform over curvature_range and centers uniform in
    [-10, 10]. Each draw comes from the stream of `seed`
    labelled problem/hetero, /features, /labels, /model or /partition.
    """
    loss = LossKind(variant)  # checks the variant before any draw
    if p < 1:
        raise ValueError("dimension must be >= 1")
    if N < 1:
        raise ValueError("need at least one client")
    if not 0 <= label_noise < math.inf:
        raise ValueError("label noise must be finite and >= 0")

    if variant == HETERO_QUADRATIC:
        lo, hi = curvature_range
        if not 0 < lo <= hi < math.inf:
            raise ValueError("curvature range must be positive and finite")
        hstream = derive_stream(seed, "problem/hetero")
        H = np.exp(hstream.uniform(math.log(lo), math.log(hi), size=(N, p)))
        m = hstream.uniform(-10.0, 10.0, size=(N, p))
        return FederatedProblem(loss, p, curvatures=H, centers=m)

    if samples < N:
        raise ValueError("need at least one sample per client")
    a = derive_stream(seed, "problem/features").standard_normal((samples, p))
    x_true = None
    if variant == SQUARED_ERROR:
        y = derive_stream(seed, "problem/labels").standard_normal(samples)
        classes = np.where(y >= 0, 1.0, -1.0)  # partition key for continuous labels
    else:  # LOGISTIC, SIGMOID_NONCONVEX
        mstream = derive_stream(seed, "problem/model")
        support = np.sort(mstream.choice(p, size=max(1, p // 5), replace=False))
        x_true = np.zeros(p)
        x_true[support] = mstream.uniform(1.0, 2.0, size=support.size) * mstream.choice([-1.0, 1.0], size=support.size)
        margins = a @ x_true + label_noise * derive_stream(seed, "problem/labels").standard_normal(samples)
        y = np.where(margins >= 0, 1.0, -1.0)
        classes = y

    if part.mode == DIRICHLET:
        assign = dirichlet_partition(classes, N, part.alpha_d, derive_stream(seed, "problem/partition"))
    else:
        assign = _iid_partition(samples, N, derive_stream(seed, "problem/partition"))

    # One matrix, client-major: a stable sort keeps each client's rows in
    # drawn order, so shard i is bitwise a[assign == i], a row view of a.
    order = np.argsort(assign, kind="stable")
    _permute_rows(a, order)
    offsets = np.concatenate(([0], np.cumsum(np.bincount(assign, minlength=N))))
    return FederatedProblem(loss, p, a, y[order], offsets, ground_truth=x_true)


def _permute_rows(a: np.ndarray, order: np.ndarray) -> None:
    """a[:] = a[order] without a second copy of a: follows each cycle of the
    permutation, holding one spare row."""
    order = order.tolist()
    done = [False] * len(order)
    spare = np.empty_like(a[0])
    for start in range(len(order)):
        if done[start] or order[start] == start:
            continue
        spare[...] = a[start]
        j = start
        while order[j] != start:
            done[j] = True
            a[j] = a[order[j]]
            j = order[j]
        done[j] = True
        a[j] = spare
