"""Client/server round engine.

Three optimizers are implemented over the same problem/regularizer surface,
each taking (prob, reg, hp, ...) and returning a RunResult:

* run_fedcef: compressed proximal federated optimization with decoupled
  pre/post-proximal local states, momentum error-feedback uplink compression,
  control-variate drift correction, and pre-proximal downlink broadcasts from
  which clients reconstruct the global control without extra traffic.
* run_prox_fedavg: the naive baseline; clients run local proximal SGD and the
  server averages their post-proximal models (dense, uncompressed).
* run_centralized_pgd: exact proximal gradient descent on the global
  objective, kept outside the engine as the independent reduction oracle.

The first two are a local step rule and an aggregation rule on one engine,
`_run`. State lives in a RoundState, updated in place: (N, p) arrays, one
row per client, for what differs between clients, and single (p,) vectors
for the global model z and the controls every client shares. Each round
every client runs its K local steps from z, the algorithm's aggregation rule
(client_uplink -> server_aggregate -> client_downlink -> server_finalize for
fedcef, model averaging for prox_fedavg) yields z^{t+1} and its uplink
bytes, _run charges the dense broadcast, and the row is measured.
_local_pass steps the block of a range of clients: one gradient oracle call
per client and step, written into that client's row of one gradient block,
then the step rule and the prox once on the block. It is the one place a
minibatch is drawn: K x B indices per client and pass. prox_fedavg steps all
N rows at once. fedcef's local_update steps one client's one-row block after
another: the benchmark's call-count test pins local_update at one call per
client and round, so fedcef's all-client pass waits for that test to count
oracle work instead. The all-client block has a cost on large shards: each
step reads every client's shard, where a client's K steps in a row reuse its
own shard from cache. On the wide_p2000 benchmark problem (p = 2000, 20000
samples, 320 MB of shards) prox_fedavg's run rose from 4.0 to 4.8 s in
alternating runs on a 2-vCPU shared host.

Local update, per client i, round t, local steps k = 0..K-1:

    xhat_i^{t,0} = z^t,  x_i^{t,0} = z^t
    fedcef:       xhat_i^{t,k+1} = xhat_i^{t,k} - alpha * (g_i(x_i^{t,k}) + c^t - c_i^t)
                  x_i^{t,k+1}    = prox_{(k+1) alpha h}(xhat_i^{t,k+1})
    prox_fedavg:  x_i^{t,k+1}    = prox_{alpha h}(x_i^{t,k} - alpha * g_i(x_i^{t,k}))

The pre-proximal state is a linear accumulator:
(xhat^{t,0} - xhat^{t,K}) / (alpha K) + c_i^t - c^t equals the round's mean
stochastic gradient up to float rounding, which is what the momentum
estimator v_i tracks and the compressor transmits as a deviation from c_i.

The uplink compresses all rows in one call and sends one payload; the
server sums the block that payload encodes, which compress returns. Every
batched operation is row-wise and every cross-client sum is
core.client_sum, so the results are bit-identical to handling the clients
one at a time; the correction is evaluated as (g + c) - c_i. Every client
receives the same broadcast z_tilde and knows the same z^t, so the control
(z^t - z_tilde) / beta is reconstructed once, and prox_{beta h}(z_tilde),
the new model of every client and of the server, is computed once.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compressors import (
    DENSE_ENTRY_BYTES,
    CompressorSpec,
    SparsePayload,
    compress,
    contraction_factor,
    payload_bytes,
)
from .core import NonFiniteError, client_sum, count, derive_stream
from .metrics import MetricsRow, MetricsSeries, check_step_conditions, lyapunov_diagnostic, measure_row
from .problems import FULL, FederatedProblem, full_global_gradient, stochastic_gradient
from .regularizers import Regularizer


class StepConditionWarning(UserWarning):
    """Step sizes violate the sufficient convergence conditions."""


@dataclass(frozen=True)
class HyperParams:
    """Round-level hyper parameters. The effective global step
    beta = alpha * eta_g * K is derived, finite and positive: the downlink divides by it."""

    alpha: float
    eta_g: float = 1.0
    K: int = 1
    eta: float = 1.0
    B: int | str = FULL
    T: int = 1

    def __post_init__(self) -> None:
        if not 0 < self.alpha < math.inf:
            raise ValueError("alpha must be positive and finite")
        if not 0 < self.eta_g < math.inf:
            raise ValueError("eta_g must be positive and finite")
        object.__setattr__(self, "K", count(self.K, "K must be an integer >= 1"))
        if not 0 < self.beta < math.inf:
            raise ValueError(f"beta = alpha * eta_g * K = {self.beta!r} must be positive and finite")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.B != FULL:
            object.__setattr__(self, "B", count(self.B, "B must be a positive integer or FULL"))
        object.__setattr__(self, "T", count(self.T, "T must be an integer >= 1"))

    @property
    def beta(self) -> float:
        return self.alpha * self.eta_g * self.K


@dataclass
class RoundState:
    """Engine state, updated in place. Per-client arrays hold one row per
    client, shape (N, p); the global model and the two copies of the global
    control, which every client shares, have shape (p,)."""

    x_hat: np.ndarray  # pre-proximal accumulators, xhat_i^{t,K} after a round
    x: np.ndarray  # post-proximal local models
    c_local: np.ndarray  # local controls c_i
    v: np.ndarray  # momentum estimators v_i
    z: np.ndarray  # global model z^t; every local pass starts from it
    c_known: np.ndarray  # the clients' control, reconstructed from the broadcast
    c_global: np.ndarray  # the server's control

    @classmethod
    def initial(cls, z: np.ndarray, n_clients: int) -> "RoundState":
        rows = np.tile(z, (n_clients, 1))
        zeros = np.zeros_like(rows)
        return cls(rows, rows.copy(), zeros, zeros.copy(), z.copy(), np.zeros_like(z), np.zeros_like(z))

    @property
    def n_clients(self) -> int:
        return self.x_hat.shape[0]


@dataclass
class RunResult:
    series: MetricsSeries
    z_history: list[np.ndarray]


def decoupled_step(
    hp: HyperParams,
    k: int,
    x_hat: np.ndarray,
    x: np.ndarray,
    g: np.ndarray,
    c_known: np.ndarray,
    c_local: np.ndarray,
    work: np.ndarray,
) -> float:
    """fedcef: the pre-proximal accumulator takes the corrected gradient step
    x_hat -= alpha * ((g + c) - c_i) in place, through `work`, and returns the
    prox step size. That grows with k, so it is zero at k = 0 and the first
    gradient is evaluated at x_i^{t,0} = z exactly."""
    np.add(g, c_known, out=work)
    work -= c_local
    work *= hp.alpha
    x_hat -= work
    return (k + 1) * hp.alpha


def prox_sgd_step(
    hp: HyperParams,
    k: int,
    x_hat: np.ndarray,
    x: np.ndarray,
    g: np.ndarray,
    c_known: np.ndarray,
    c_local: np.ndarray,
    work: np.ndarray,
) -> float:
    """prox_fedavg: a plain proximal SGD step from the post-proximal model,
    x_hat = x - alpha * g written in place; returns the prox step size."""
    np.multiply(g, hp.alpha, out=work)
    np.subtract(x, work, out=x_hat)
    return hp.alpha


def _local_pass(
    st: RoundState,
    rows: range,
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    seed: int,
    t: int,
    step: Callable[..., float],
    batches: dict[int, np.ndarray] | None = None,
    checked: bool = False,
) -> None:
    """Run K local steps from z on the (len(rows), p) block of the clients in
    `rows` and store their xhat and x. The step rule writes the next xhat
    into its x_hat argument, given (hp, k, xhat, x, g, c_known, c_local,
    work), and returns the prox step size. Each step writes each client's
    stochastic_gradient into its row of one gradient block, reused across
    the steps, then runs the step rule and the prox once on the block: both
    are elementwise, so every row gets the bits it gets when stepped alone.
    A client's K x B sample indices are drawn from
    client/{i}/round/{t}/grad in one call, into `batches`. x never aliases
    x_hat: it starts as a copy of z per row, which no step writes, and then
    holds what prox returns, always a new array.

    Finiteness is checked once, on xhat^K. That is exact: a non-finite
    accumulator stays non-finite under both step rules (inf - finite = inf,
    inf - inf = NaN, NaN absorbs everything) and under the soft threshold
    (+-inf to +-inf, NaN to NaN), so a row of xhat^K is finite exactly when
    every xhat^k of that row was. When a row is non-finite, the lowest such
    client's pass is replayed alone, `checked` after every step, from the
    same z and controls and with the `batches` already drawn, so the error
    names the client and its first bad step, and no stream is drawn twice.
    All runs ignore overflow and invalid operations, which would otherwise
    surface as RuntimeWarnings before the error. The rows are written only
    after the check, so a failed pass leaves every row as it was."""
    if batches is None and hp.B != FULL and not prob.closed_form:
        batches = {
            i: derive_stream(seed, f"client/{i}/round/{t}/grad").integers(
                0, prob.features[i].shape[0], size=(hp.K, hp.B)
            )
            for i in rows
        }
    x_hat = st.z[None].repeat(len(rows), axis=0)
    x = x_hat.copy()
    g = np.empty_like(x_hat)
    work = np.empty_like(x_hat)
    c_local = st.c_local[rows.start : rows.stop]
    c_known = st.c_known[None]  # (1, p): a (p,) operand puts a one-row block's ufuncs on numpy's slower broadcast path
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(hp.K):
            for j, i in enumerate(rows):
                stochastic_gradient(prob, i, x[j], hp.B, None if batches is None else batches[i][k], out=g[j])
            tau = step(hp, k, x_hat, x, g, c_known, c_local, work)
            if checked and not np.isfinite(x_hat).all():
                raise NonFiniteError(f"client {rows[0]}: non-finite state at round {t}, local step {k}")
            x = reg.prox(tau, x_hat)
    finite = np.isfinite(x_hat)
    if not finite.all():
        bad = rows[int(np.argmin(finite.all(axis=1)))]
        _local_pass(st, range(bad, bad + 1), prob, reg, hp, seed, t, step, batches, True)
        raise NonFiniteError(f"client {bad}: non-finite state at round {t}, local step {hp.K - 1}")
    st.x_hat[rows.start : rows.stop] = x_hat
    st.x[rows.start : rows.stop] = x


def local_update(
    st: RoundState, client: int, prob: FederatedProblem, reg: Regularizer, hp: HyperParams, seed: int, t: int
) -> None:
    """fedcef's local update of one client: K decoupled proximal steps with
    the control-variate correction, on that client's one-row block."""
    _local_pass(st, range(client, client + 1), prob, reg, hp, seed, t, decoupled_step)


def client_uplink(
    st: RoundState, hp: HyperParams, spec: CompressorSpec, seed: int, t: int
) -> tuple[SparsePayload, np.ndarray]:
    """Momentum update of every v_i, one compress call on the (N, p) deviation
    block, and error feedback c_i <- c_i + C(v_i - c_i). Returns the payload,
    which the bytes are charged for, and the (N, p) block C(v - c_local) it
    encodes, which the server sums. compress is handed client i's stream
    client/{i}/round/{t}/compress lazily, so it is derived only when compress
    draws row i: under rand-k at k < p. Reads z^t, so it runs before finalize."""
    drift = (st.z - st.x_hat) / (hp.alpha * hp.K) + st.c_local - st.c_known
    st.v = (1.0 - hp.eta) * st.v + hp.eta * drift
    streams = (derive_stream(seed, f"client/{i}/round/{t}/compress") for i in range(st.n_clients))
    payload, dense = compress(spec, st.v - st.c_local, streams)
    st.c_local += dense
    return payload, dense


def server_aggregate(st: RoundState, dense: np.ndarray, hp: HyperParams) -> np.ndarray:
    """c <- c + (1/N) sum_i dense_i over the rows of the (N, p) uplink block,
    then the pre-proximal broadcast z_tilde = z - beta * c. The server's z
    stays at z^t until finalize."""
    if dense.shape != st.c_local.shape:
        raise ValueError(f"uplink block has shape {dense.shape}, expected (N, p) = {st.c_local.shape}")
    st.c_global = st.c_global + client_sum(dense) / st.n_clients
    return st.z - hp.beta * st.c_global


def client_downlink(st: RoundState, z_tilde: np.ndarray, hp: HyperParams) -> np.ndarray:
    """The clients reconstruct the global control from the pre-proximal
    broadcast, c = (z^t - z_tilde) / beta, and return it. Every client holds
    the same z^t and receives the same broadcast, so this is one (p,) vector.
    It reads z^t from st.z, so it runs before server_finalize."""
    st.c_known = (st.z - z_tilde) / hp.beta
    return st.c_known


def server_finalize(st: RoundState, z_tilde: np.ndarray, reg: Regularizer, hp: HyperParams) -> None:
    """z^{t+1} = prox_{beta h}(z_tilde): the global proximal step every client
    and the server apply to the same broadcast, computed once."""
    st.z = reg.prox(hp.beta, z_tilde)


def _run(
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    local: Callable[[RoundState, int], None],
    aggregate: Callable[[RoundState, int], int],
    condition_ok: bool,
    q: float | None,
) -> tuple[list[MetricsRow], list[np.ndarray]]:
    """The round loop both federated algorithms share: row t of 0..T is
    measured after round t - 1's local phase (every client's K steps) and
    aggregation rule, which returns the round's uplink bytes. Row t is
    charged t + 1 dense (p,) broadcasts: z^0's, then one a round. Returns
    rows 0..T and z^0 = 0, ..., z^T. Given the compression factor q, rows
    record the Lyapunov potential: F(z^0) at row 0, then the diagnostic of
    the row's F, the v_i and c_i, and the client gradients the previous row
    measured, where the round started. q = None leaves the column empty."""
    st = RoundState.initial(np.zeros(prob.dim), prob.n_clients)
    uplink_cum = 0
    rows, z_hist = [], []
    for t in range(hp.T + 1):
        if t:
            local(st, t - 1)
            uplink_cum += aggregate(st, t - 1)
        downlink_cum = DENSE_ENTRY_BYTES * prob.dim * (t + 1)
        row, next_grads = measure_row(prob, reg, hp.beta, t, st.z, uplink_cum, downlink_cum, condition_ok)
        if q is not None:
            row.lyapunov = lyapunov_diagnostic(hp, q, row.F, st.v, st.c_local, grads) if t else row.F
        grads = next_grads
        rows.append(row)
        z_hist.append(st.z.copy())
    return rows, z_hist


def run_fedcef(
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    spec: CompressorSpec,
    seed: int,
    lyapunov: bool = False,
) -> RunResult:
    """Run T rounds; fully deterministic per seed.

    The emitted series has T + 1 rows: row 0 measures the initial model right
    after the out-of-band bootstrap broadcast (charged to downlink), row t
    measures the model produced by round t - 1. The running mean of
    prox_grad_sq over rows 0..T-1 is therefore exactly the quantity bounded by
    the convergence theorem.
    """
    q = float(np.sqrt(contraction_factor(spec, prob.dim)))
    report = check_step_conditions(hp, prob.smoothness, q)
    if not report.all_ok:
        warnings.warn(
            "step sizes violate the sufficient convergence conditions; proceeding",
            StepConditionWarning,
            stacklevel=2,
        )

    def local(st: RoundState, t: int) -> None:
        for i in range(st.n_clients):
            local_update(st, i, prob, reg, hp, seed, t)

    def aggregate(st: RoundState, t: int) -> int:
        payload, dense = client_uplink(st, hp, spec, seed, t)
        z_tilde = server_aggregate(st, dense, hp)
        client_downlink(st, z_tilde, hp)
        server_finalize(st, z_tilde, reg, hp)
        return payload_bytes(payload)

    rows, z_hist = _run(prob, reg, hp, local, aggregate, report.all_ok, q if lyapunov else None)
    series = MetricsSeries("fedcef", prob.smoothness, q * q, hp.beta, report, rows)
    return RunResult(series, z_hist)


def run_prox_fedavg(
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    seed: int,
) -> RunResult:
    """Naive baseline: K local proximal SGD steps per client, all clients
    stepped together on the (N, p) block, then the server averages the
    post-proximal models. Transmits dense models both ways."""
    report = check_step_conditions(hp, prob.smoothness, 0.0)

    def local(st: RoundState, t: int) -> None:
        _local_pass(st, range(st.n_clients), prob, reg, hp, seed, t, prox_sgd_step)

    def average(st: RoundState, t: int) -> int:
        st.z = client_sum(st.x) / st.n_clients
        return DENSE_ENTRY_BYTES * st.x.size

    rows, z_hist = _run(prob, reg, hp, local, average, report.all_ok, None)
    series = MetricsSeries("prox_fedavg", prob.smoothness, 0.0, hp.beta, report, rows)
    return RunResult(series, z_hist)


def run_centralized_pgd(prob: FederatedProblem, reg: Regularizer, hp: HyperParams) -> RunResult:
    """T steps z <- prox_{beta h}(z - beta grad f(z)) from z^0 = 0. Each step
    takes grad f from the block that row t measured at z^t, so each iterate
    reads the clients once. No broadcast, local phase or bytes: it stays
    outside `_run`, the oracle the engine is checked against."""
    report = check_step_conditions(hp, prob.smoothness, 0.0)
    z = np.zeros(prob.dim)
    rows, z_hist = [], []
    for t in range(hp.T + 1):
        if t:
            z = reg.prox(hp.beta, z - hp.beta * full_global_gradient(prob, z, grads))
        row, grads = measure_row(prob, reg, hp.beta, t, z, 0, 0, report.all_ok)
        rows.append(row)
        z_hist.append(z)
    series = MetricsSeries("pgd", prob.smoothness, 0.0, hp.beta, report, rows)
    return RunResult(series, z_hist)
