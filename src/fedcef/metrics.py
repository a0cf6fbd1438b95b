"""Optimality and diagnostic measurements.

Stationarity is measured by the proximal gradient mapping
G_beta(z) = (z - prox_{beta h}(z - beta grad f(z))) / beta, which vanishes
exactly at stationary points of the composite objective. This module also
evaluates the step-size conditions and residual bound of the convergence
theorem and the Lyapunov potential used as a descent diagnostic, and builds
the measured row every algorithm emits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .core import NonFiniteError, client_sum
from .problems import FULL, FederatedProblem, client_values, full_global_gradient, objective_value

if TYPE_CHECKING:  # pragma: no cover
    from .algorithms import HyperParams


@dataclass
class MetricsRow:
    """One measurement of the global model; t = 0 is the initial model."""

    t: int
    F: float
    prox_grad_sq: float
    uplink_bytes_cum: int
    downlink_bytes_cum: int
    nnz: int
    lyapunov: float | None
    condition_ok: bool


@dataclass
class MetricsSeries:
    algorithm: str
    smoothness: float
    contraction: float  # q^2 of the uplink compressor (0 when uncompressed)
    beta: float
    conditions: StepConditionReport
    rows: list[MetricsRow]


@dataclass(frozen=True)
class StepConditionReport:
    """The three sufficient step-size conditions of the convergence analysis,
    each as its verdict then its bound: the order of the CSV's tokens."""

    beta_ok: bool
    beta_bound: float
    eta_g_ok: bool
    eta_g_bound: float
    alpha_ok: bool
    alpha_bound: float

    @property
    def all_ok(self) -> bool:
        return self.beta_ok and self.eta_g_ok and self.alpha_ok


def prox_gradient_mapping(
    prob: FederatedProblem, reg, z: np.ndarray, beta: float, grads: np.ndarray | None = None
) -> np.ndarray:
    """G_beta(z), computed with the exact full global gradient; `grads` is
    client_values(prob, z)[1] when already computed."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    g = full_global_gradient(prob, z, grads)
    return (z - reg.prox(beta, z - beta * g)) / beta


def measure_row(
    prob: FederatedProblem, reg, beta: float, t: int, z: np.ndarray, up: int, down: int, condition_ok: bool
) -> tuple[MetricsRow, np.ndarray]:
    """Row t, which measures the model z that round t - 1 produced (the
    initial model at t = 0): F, ||G_beta(z)||^2, the cumulative byte counters
    and nnz, and the (N, p) block of client gradients at z.

    F and the gradient block come from one client_values call, so each shard
    is read twice (a_i @ z, then a_i^T w); on hetero_quadratic z - m, the
    gradients and the N objectives are each one operation on the block. The
    Lyapunov column is left to the caller, and the block is returned: the
    next row's diagnostic and PGD's next step need exactly these gradients,
    at the model the next round or step starts from.

    A diverging run stops at its first non-finite row: with overflow and
    invalid-operation warnings off, a non-finite F or ||G||^2 raises
    NonFiniteError naming row t. That test covers the gradients too: with z
    finite, a non-finite global gradient makes G non-finite, and a non-finite
    z makes F non-finite (h's lam * sum|z| is NaN even at lam = 0)."""
    with np.errstate(over="ignore", invalid="ignore"):
        objectives, grads = client_values(prob, z)
        F = objective_value(prob, reg, z, objectives)
        G = prox_gradient_mapping(prob, reg, z, beta, grads)
        G_sq = float(np.sum(G * G))
    if not (math.isfinite(F) and math.isfinite(G_sq)):
        raise NonFiniteError(f"non-finite measurement at row {t}: F = {F}, ||G||^2 = {G_sq}")
    row = MetricsRow(t, F, G_sq, up, down, int(np.count_nonzero(z)), None, condition_ok)
    return row, grads


def check_step_conditions(hp: "HyperParams", L: float, q: float) -> StepConditionReport:
    """Evaluate beta <= min(eta^2, (1-q)^2) / (25 L),
    eta_g >= sqrt(16 (1-q)^2 + 161 eta^2) / (5 eta (1-q)),
    alpha <= 1 / (8 K L). Never aborts; callers decide what to do.

    L = 0 means every f_i is affine, and then no condition binds: the upper
    bounds on beta and alpha are inf, the lower bound on eta_g is 0 (not
    inf, which eta_g_ok would contradict), and every condition holds. A
    negative or NaN L raises."""
    if not L >= 0:
        raise ValueError("smoothness constant must be non-negative")
    if not 0.0 <= q < 1.0:
        raise ValueError("compression factor q must lie in [0, 1)")
    eta = hp.eta
    if L == 0:
        return StepConditionReport(True, math.inf, True, 0.0, True, math.inf)
    beta_bound = min(eta * eta, (1.0 - q) ** 2) / (25.0 * L)
    eta_g_bound = math.sqrt(16.0 * (1.0 - q) ** 2 + 161.0 * eta * eta) / (5.0 * eta * (1.0 - q))
    alpha_bound = 1.0 / (8.0 * hp.K * L)
    return StepConditionReport(
        beta_ok=hp.beta <= beta_bound,
        beta_bound=beta_bound,
        eta_g_ok=hp.eta_g >= eta_g_bound,
        eta_g_bound=eta_g_bound,
        alpha_ok=hp.alpha <= alpha_bound,
        alpha_bound=alpha_bound,
    )


def lyapunov_diagnostic(
    hp: "HyperParams", q: float, F: float, vs: np.ndarray, cs: np.ndarray, grads: np.ndarray
) -> float:
    """Single-trajectory Lyapunov potential after a round, from its inputs.

    Psi = F(z) + (70 eta beta / (1-q)^2) * avg_i ||v_i - grad f_i(z_prev)||^2
            + (8 beta / eta) * ||vbar - grad f(z_prev)||^2
            + (17 beta / (1-q)) * avg_i ||v_i - c_i||^2

    with expectations replaced by realized values. F is F(z) at the new
    model; vs and cs are the (N, p) blocks of the v_i and c_i; grads is the
    (N, p) block of grad f_i(z_prev) at the round's starting model, which the
    previous row's measure_row returned. Before the first round only F(z) is
    defined, and the engine records it as Psi.

    The per-client squared norms are taken on (N, p) blocks, one row each,
    and every sum over clients is client_sum, so gbar is the fold
    full_global_gradient makes: the same bits as a loop over the clients.
    """
    N = grads.shape[0]
    beta, eta = hp.beta, hp.eta
    # np.sum along the rows of a C-contiguous block reduces each row as it
    # would the row alone, pairwise: each client's squared norm, bit for bit
    local_est = client_sum(np.sum((vs - grads) ** 2, axis=1).tolist())
    feedback = client_sum(np.sum((vs - cs) ** 2, axis=1).tolist())
    vbar = client_sum(vs) / N
    gbar = client_sum(grads) / N
    global_est = float(np.sum((vbar - gbar) ** 2))
    return (
        F
        + (70.0 * eta * beta / (1.0 - q) ** 2) * (local_est / N)
        + (8.0 * beta / eta) * global_est
        + (17.0 * beta / (1.0 - q)) * (feedback / N)
    )


def theorem_residual_bound(
    hp: "HyperParams",
    L: float,
    q: float,
    B_h_sq: float,
    sigma_sq: float,
    N: int,
    Psi0: float,
    T: int,
) -> float:
    """Right-hand side of the convergence theorem: the ceiling on the running
    mean of ||G_beta||^2 after T rounds. gamma = 0.15. B_h_sq bounds the
    squared norm of h's subgradients, as Regularizer.subgradient_bound does."""
    gamma = 0.15
    eta = hp.eta
    beta = hp.beta
    c_stoc = 6.7 * (17.0 * eta / N + 14.0 * eta**2 / (1.0 - q) + 140.0 * eta**3 / (1.0 - q) ** 2)
    c_approx = (18.4 / gamma) * (16.0 + 161.0 * eta**2 / (1.0 - q) ** 2)
    bound = Psi0 / (gamma * beta * T)
    if hp.B != FULL and sigma_sq > 0:
        bound += c_stoc * sigma_sq / (hp.K * hp.B)
    bound += c_approx * (L * beta / hp.eta_g) ** 2 * B_h_sq
    return bound

