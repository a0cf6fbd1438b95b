"""Client/server round engine.

Three optimizers are implemented over the same problem/regularizer surface:

* run_fedcef: compressed proximal federated optimization with decoupled
  pre/post-proximal local states, momentum error-feedback uplink compression,
  control-variate drift correction, and pre-proximal downlink broadcasts from
  which clients reconstruct the global control without extra traffic.
* run_prox_fedavg: the naive baseline; clients run local proximal SGD and the
  server averages their post-proximal models (dense, uncompressed).
* run_centralized_pgd: exact proximal gradient descent on the global
  objective, kept outside the engine as the independent reduction oracle.

The first two are a local step rule and an aggregation rule on one engine,
`_run`. Client state lives in a RoundState as (N, p) arrays, one row per
client, updated in place. Each round every client runs its K local steps,
one client after another, the algorithm's aggregation rule (client_uplink ->
server_aggregate -> client_downlink -> server_finalize for fedcef, model
averaging for prox_fedavg) yields z^{t+1}, and the row is measured.
local_update is fedcef's local pass; prox_fedavg's runs the same loop with
its own step rule.

Local update, per client i, round t, local steps k = 0..K-1:

    xhat_i^{t,0} = z^t,  x_i^{t,0} = z^t
    fedcef:       xhat_i^{t,k+1} = xhat_i^{t,k} - alpha * (g_i(x_i^{t,k}) + c^t - c_i^t)
                  x_i^{t,k+1}    = prox_{(k+1) alpha h}(xhat_i^{t,k+1})
    prox_fedavg:  x_i^{t,k+1}    = prox_{alpha h}(x_i^{t,k} - alpha * g_i(x_i^{t,k}))

The pre-proximal state is a linear accumulator:
(xhat^{t,0} - xhat^{t,K}) / (alpha K) + c_i^t - c^t equals the round's mean
stochastic gradient up to float rounding, which is what the momentum
estimator v_i tracks and the compressor transmits as a deviation from c_i.

The uplink and downlink act on all rows at once. Every batched operation is
elementwise and cross-client sums run in ascending client order, so the
results are bit-identical to handling the clients one at a time; the
correction is evaluated as (g + c) - c_i.
"""

from __future__ import annotations

import warnings
from copy import deepcopy
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .compressors import (
    DENSE_ENTRY_BYTES,
    RANDK,
    CompressorSpec,
    SparsePayload,
    compress,
    contraction_factor,
    dense_payload,
    payload_bytes,
)
from .core import NonFiniteError, derive_stream
from .metrics import MetricsRow, MetricsSeries, check_step_conditions, lyapunov_diagnostic, measure_row
from .problems import FULL, FederatedProblem, full_global_gradient, stochastic_gradient
from .regularizers import Regularizer


class StepConditionWarning(UserWarning):
    """Step sizes violate the sufficient convergence conditions."""


@dataclass(frozen=True)
class HyperParams:
    """Round-level hyper parameters. The effective global step
    beta = alpha * eta_g * K is always derived, never set independently."""

    alpha: float
    eta_g: float = 1.0
    K: int = 1
    eta: float = 1.0
    B: int | str = FULL
    T: int = 1

    def __post_init__(self) -> None:
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if not self.eta_g > 0:
            raise ValueError("eta_g must be positive")
        if self.K < 1:
            raise ValueError("K must be >= 1")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.B != FULL and (not isinstance(self.B, int) or self.B < 1):
            raise ValueError("B must be a positive integer or FULL")
        if self.T < 1:
            raise ValueError("T must be >= 1")

    @property
    def beta(self) -> float:
        return self.alpha * self.eta_g * self.K


@dataclass
class RoundState:
    """Engine state, updated in place. Client arrays hold one row per client,
    shape (N, p); the server's model and control have shape (p,)."""

    x_hat: np.ndarray  # pre-proximal accumulators, xhat_i^{t,K} after a round
    x: np.ndarray  # post-proximal local models
    c_local: np.ndarray  # local controls c_i
    v: np.ndarray  # momentum estimators v_i
    z_prev: np.ndarray  # last global model each client knows; xhat_i^{t,0}
    c_known: np.ndarray  # each client's reconstructed copy of the global control
    z: np.ndarray
    c_global: np.ndarray

    @classmethod
    def initial(cls, z0: np.ndarray, n_clients: int) -> "RoundState":
        rows = np.tile(z0, (n_clients, 1))
        zeros = np.zeros_like(rows)
        return cls(rows.copy(), rows.copy(), zeros.copy(), zeros.copy(), rows, zeros, z0.copy(), np.zeros_like(z0))

    @property
    def n_clients(self) -> int:
        return self.z_prev.shape[0]


@dataclass
class RoundTranscript:
    """One fedcef round for replay in tests: the K gradients of every client,
    copies of the state after the local passes (before the uplink) and after
    the downlink, and the payloads sent."""

    round: int
    gradients: np.ndarray  # (N, K, p)
    local: RoundState
    end: RoundState
    uplink_payloads: list[SparsePayload]
    downlink_payload: SparsePayload


@dataclass
class RunResult:
    series: MetricsSeries
    z_history: list[np.ndarray]
    transcripts: list[RoundTranscript] | None


def decoupled_step(
    hp: HyperParams, k: int, x_hat: np.ndarray, x: np.ndarray, g: np.ndarray, c_known: np.ndarray, c_local: np.ndarray
) -> tuple[np.ndarray, float]:
    """fedcef: the pre-proximal accumulator takes the corrected gradient step
    and the prox step grows with k, so it is zero at k = 0 and the first
    gradient is evaluated at x_i^{t,0} = z exactly."""
    return x_hat - hp.alpha * (g + c_known - c_local), (k + 1) * hp.alpha


def prox_sgd_step(
    hp: HyperParams, k: int, x_hat: np.ndarray, x: np.ndarray, g: np.ndarray, c_known: np.ndarray, c_local: np.ndarray
) -> tuple[np.ndarray, float]:
    """prox_fedavg: a plain proximal SGD step from the post-proximal model."""
    return x - hp.alpha * g, hp.alpha


def _local_pass(
    st: RoundState,
    client: int,
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    seed: int,
    t: int,
    step: Callable[..., tuple[np.ndarray, float]],
) -> list[np.ndarray]:
    """Run one client's K local steps from z_prev and store its xhat and x;
    returns the K gradients. The step rule maps (hp, k, xhat, x, g, c_known,
    c_local) to the next xhat and the prox step size. A sampling oracle draws
    the client's K x B indices from client/{i}/round/{t}/grad in one call."""
    x_hat = st.z_prev[client].copy()
    x = x_hat.copy()
    c_known, c_local = st.c_known[client], st.c_local[client]
    batches = None
    if hp.B != FULL and not prob.closed_form:
        n = prob.features[client].shape[0]
        batches = derive_stream(seed, f"client/{client}/round/{t}/grad").gen.integers(0, n, size=(hp.K, hp.B))
    gradients = []
    for k in range(hp.K):
        g = stochastic_gradient(prob, client, x, hp.B, None if batches is None else batches[k])
        gradients.append(g)
        x_hat, tau = step(hp, k, x_hat, x, g, c_known, c_local)
        if not np.isfinite(x_hat).all():
            raise NonFiniteError(f"client {client}: non-finite state at round {t}, local step {k}")
        x = reg.prox(tau, x_hat)
    st.x_hat[client] = x_hat
    st.x[client] = x
    return gradients


def local_update(
    st: RoundState, client: int, prob: FederatedProblem, reg: Regularizer, hp: HyperParams, seed: int, t: int
) -> list[np.ndarray]:
    """fedcef's local update of one client: K decoupled proximal steps with
    the control-variate correction; returns the K gradients. prox_fedavg
    calls _local_pass with its own step rule, not this phase."""
    return _local_pass(st, client, prob, reg, hp, seed, t, decoupled_step)


def client_uplink(st: RoundState, hp: HyperParams, spec: CompressorSpec, seed: int, t: int) -> list[SparsePayload]:
    """Momentum update of every v_i, then per client the deviation compression
    and the error feedback step c_i <- c_i + densify(payload). Rand-k draws
    from client/{i}/round/{t}/compress."""
    drift = (st.z_prev - st.x_hat) / (hp.alpha * hp.K) + st.c_local - st.c_known
    st.v = (1.0 - hp.eta) * st.v + hp.eta * drift
    deviation = st.v - st.c_local
    payloads = []
    for i in range(st.n_clients):
        rng = derive_stream(seed, f"client/{i}/round/{t}/compress") if spec.kind == RANDK else None
        payload, dense = compress(spec, deviation[i], rng)
        st.c_local[i] += dense
        payloads.append(payload)
    return payloads


def server_aggregate(st: RoundState, payloads: list[SparsePayload], hp: HyperParams) -> np.ndarray:
    """c <- c + (1/N) sum_i densify(payload_i), then the pre-proximal broadcast
    z_tilde = z - beta * c. The server's z stays at z^t until finalize."""
    if len(payloads) != st.n_clients:
        raise ValueError(f"expected {st.n_clients} payloads, got {len(payloads)}")
    total = np.zeros_like(st.z)
    for pl in payloads:  # ascending client order, part of the replay contract
        total += pl.densify()
    st.c_global = st.c_global + total / st.n_clients
    return st.z - hp.beta * st.c_global


def client_downlink(st: RoundState, z_tilde: np.ndarray, reg: Regularizer, hp: HyperParams) -> np.ndarray:
    """Every client reconstructs the global control from the pre-proximal
    broadcast and applies the global proximal step; returns the (N, p)
    reconstructed controls."""
    if hp.beta == 0:
        raise ValueError("beta must be nonzero for downlink reconstruction")
    st.c_known = (st.z_prev - z_tilde) / hp.beta
    st.z_prev[:] = reg.prox(hp.beta, z_tilde)
    return st.c_known


def server_finalize(st: RoundState, z_tilde: np.ndarray, reg: Regularizer, hp: HyperParams) -> None:
    """Mirror the client-side prox so the server holds z^{t+1} for the next
    broadcast baseline."""
    st.z = reg.prox(hp.beta, z_tilde)


def _run(
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    z0: np.ndarray | None,
    local: Callable[[RoundState, int, int], None],
    aggregate: Callable[[RoundState, int], tuple[int, int]],
    q: float,
    condition_ok: bool,
    lyapunov: bool,
) -> tuple[list[MetricsRow], list[np.ndarray]]:
    """The round loop both federated algorithms share: each client's local
    pass, the algorithm's aggregation rule (which returns the round's uplink
    and downlink bytes), measurement. Returns rows 0..T and z^0..z^T.

    Clients run one at a time, each one's K steps in a row: interleaving
    clients step by step streams every shard through the cache once per step,
    which made a p = 2000, 20000-sample problem (320 MB of shards, 300 MB of
    L3) 20% slower."""
    z = np.zeros(prob.dim) if z0 is None else np.array(z0, dtype=np.float64, copy=True)
    st = RoundState.initial(z, prob.n_clients)
    uplink_cum = 0
    downlink_cum = DENSE_ENTRY_BYTES * prob.dim  # bootstrap broadcast of z^0

    def measure(t: int, z_prev: np.ndarray | None) -> MetricsRow:
        row = measure_row(prob, reg, hp.beta, t, st.z, uplink_cum, downlink_cum, condition_ok)
        if lyapunov:
            row.lyapunov = lyapunov_diagnostic(prob, reg, hp, q, st.z, z_prev, st.v, st.c_local, row.F)
        return row

    rows = [measure(0, None)]
    z_hist = [st.z.copy()]
    for t in range(hp.T):
        z_round = st.z
        for i in range(prob.n_clients):
            local(st, i, t)
        up, down = aggregate(st, t)
        uplink_cum += up
        downlink_cum += down
        rows.append(measure(t + 1, z_round))
        z_hist.append(st.z.copy())
    return rows, z_hist


def run_fedcef(
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    spec: CompressorSpec,
    seed: int,
    z0: np.ndarray | None = None,
    record_transcripts: bool = False,
    lyapunov: bool = False,
) -> RunResult:
    """Run T rounds; fully deterministic per seed.

    The emitted series has T + 1 rows: row 0 measures the initial model right
    after the out-of-band bootstrap broadcast (charged to downlink), row t
    measures the model produced by round t - 1. The running mean of
    prox_grad_sq over rows 0..T-1 is therefore exactly the quantity bounded by
    the convergence theorem.
    """
    p = prob.dim
    q = float(np.sqrt(contraction_factor(spec, p)))
    report = check_step_conditions(hp, prob.smoothness, q)
    if not report.all_ok:
        warnings.warn(
            "step sizes violate the sufficient convergence conditions; proceeding",
            StepConditionWarning,
            stacklevel=2,
        )
    transcripts: list[RoundTranscript] = []
    gradients = np.empty((prob.n_clients, hp.K, p)) if record_transcripts else None

    def local(st: RoundState, i: int, t: int) -> None:
        g = local_update(st, i, prob, reg, hp, seed, t)
        if record_transcripts:
            gradients[i] = g

    def aggregate(st: RoundState, t: int) -> tuple[int, int]:
        before = deepcopy(st) if record_transcripts else None
        payloads = client_uplink(st, hp, spec, seed, t)
        z_tilde = server_aggregate(st, payloads, hp)
        client_downlink(st, z_tilde, reg, hp)
        server_finalize(st, z_tilde, reg, hp)
        if record_transcripts:
            transcripts.append(
                RoundTranscript(t, gradients.copy(), before, deepcopy(st), payloads, dense_payload(z_tilde))
            )
        return sum(payload_bytes(pl) for pl in payloads), DENSE_ENTRY_BYTES * p

    rows, z_hist = _run(prob, reg, hp, z0, local, aggregate, q, report.all_ok, lyapunov)
    series = MetricsSeries("fedcef", seed, prob.smoothness, q * q, hp.beta, report, rows)
    return RunResult(series, z_hist, transcripts if record_transcripts else None)


def run_prox_fedavg(
    prob: FederatedProblem,
    reg: Regularizer,
    hp: HyperParams,
    seed: int,
    z0: np.ndarray | None = None,
) -> RunResult:
    """Naive baseline: K local proximal SGD steps per client, then the server
    averages the post-proximal models. Transmits dense models both ways."""
    p = prob.dim
    report = check_step_conditions(hp, prob.smoothness, 0.0)

    def local(st: RoundState, i: int, t: int) -> None:
        _local_pass(st, i, prob, reg, hp, seed, t, prox_sgd_step)

    def average(st: RoundState, t: int) -> tuple[int, int]:
        total = np.zeros(p)
        for x in st.x:  # ascending client order
            total += x
        st.z = total / st.n_clients
        st.z_prev[:] = st.z
        return st.n_clients * DENSE_ENTRY_BYTES * p, DENSE_ENTRY_BYTES * p

    rows, z_hist = _run(prob, reg, hp, z0, local, average, 0.0, report.all_ok, False)
    series = MetricsSeries("prox_fedavg", seed, prob.smoothness, 0.0, hp.beta, report, rows)
    return RunResult(series, z_hist, None)


def run_centralized_pgd(
    prob: FederatedProblem,
    reg: Regularizer,
    step: float,
    T: int,
    z0: np.ndarray | None = None,
) -> list[np.ndarray]:
    """z <- prox_{step h}(z - step grad f(z)) with the exact global gradient;
    returns the whole trajectory [z^0, ..., z^T]."""
    if not step > 0:
        raise ValueError("step must be positive")
    z = np.zeros(prob.dim) if z0 is None else np.array(z0, dtype=np.float64, copy=True)
    traj = [z.copy()]
    for _ in range(T):
        g = full_global_gradient(prob, z)
        z = reg.prox(step, z - step * g)
        traj.append(z.copy())
    return traj
