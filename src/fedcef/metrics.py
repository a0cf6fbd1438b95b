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
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .problems import (
    FULL,
    HETERO_QUADRATIC,
    FederatedProblem,
    client_gradient,
    client_margins,
    full_global_gradient,
    objective_value,
    per_sample_gradients,
)

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
    seed: int
    smoothness: float
    contraction: float  # q^2 of the uplink compressor (0 when uncompressed)
    beta: float
    conditions: "StepConditionReport | None"
    rows: list[MetricsRow]


@dataclass(frozen=True)
class StepConditionReport:
    """The three sufficient step-size conditions of the convergence analysis."""

    beta_bound: float
    beta_ok: bool
    eta_g_bound: float
    eta_g_ok: bool
    alpha_bound: float
    alpha_ok: bool

    @property
    def all_ok(self) -> bool:
        return self.beta_ok and self.eta_g_ok and self.alpha_ok


def prox_gradient_mapping(
    prob: FederatedProblem, reg, z: np.ndarray, beta: float, margins: Sequence[np.ndarray] | None = None
) -> np.ndarray:
    """G_beta(z), computed with the exact full global gradient; `margins` holds
    client_margins(prob, i, z) per client when already computed."""
    if not beta > 0:
        raise ValueError("beta must be positive")
    g = full_global_gradient(prob, z, margins)
    return (z - reg.prox(beta, z - beta * g)) / beta


def measure_row(
    prob: FederatedProblem, reg, beta: float, t: int, z: np.ndarray, up: int, down: int, condition_ok: bool
) -> MetricsRow:
    """The row of model z after round t: F, ||G_beta(z)||^2, the cumulative
    byte counters and nnz. The Lyapunov column is left to the caller. F and
    the gradient share one margin pass over the shards."""
    margins = [client_margins(prob, i, z) for i in range(prob.n_clients)]
    G = prox_gradient_mapping(prob, reg, z, beta, margins)
    F = objective_value(prob, reg, z, margins)
    return MetricsRow(t, F, float(np.sum(G * G)), up, down, int(np.count_nonzero(z)), None, condition_ok)


def check_step_conditions(hp: "HyperParams", L: float, q: float) -> StepConditionReport:
    """Evaluate beta <= min(eta^2, (1-q)^2) / (25 L),
    eta_g >= sqrt(16 (1-q)^2 + 161 eta^2) / (5 eta (1-q)),
    alpha <= 1 / (8 K L). Never aborts; callers decide what to do."""
    if not L > 0:
        raise ValueError("smoothness constant must be positive")
    if not 0.0 <= q < 1.0:
        raise ValueError("compression factor q must lie in [0, 1)")
    eta = hp.eta
    beta_bound = min(eta * eta, (1.0 - q) ** 2) / (25.0 * L)
    eta_g_bound = math.sqrt(16.0 * (1.0 - q) ** 2 + 161.0 * eta * eta) / (5.0 * eta * (1.0 - q))
    alpha_bound = 1.0 / (8.0 * hp.K * L)
    return StepConditionReport(
        beta_bound=beta_bound,
        beta_ok=hp.beta <= beta_bound,
        eta_g_bound=eta_g_bound,
        eta_g_ok=hp.eta_g >= eta_g_bound,
        alpha_bound=alpha_bound,
        alpha_ok=hp.alpha <= alpha_bound,
    )


def lyapunov_diagnostic(
    prob: FederatedProblem,
    reg,
    hp: "HyperParams",
    q: float,
    z: np.ndarray,
    z_prev: np.ndarray | None,
    client_vs: Sequence[np.ndarray],
    client_cs: Sequence[np.ndarray],
    F: float | None = None,
) -> float:
    """Single-trajectory Lyapunov potential at the current round.

    Psi = F(z) + (70 eta beta / (1-q)^2) * avg_i ||v_i - grad f_i(z_prev)||^2
            + (8 beta / eta) * ||vbar - grad f(z_prev)||^2
            + (17 beta / (1-q)) * avg_i ||v_i - c_i||^2

    with expectations replaced by realized values. z_prev = None marks the
    initial round, where only F(z) is available. F, when given, is F(z)
    already evaluated by the caller.
    """
    if F is None:
        F = objective_value(prob, reg, z)
    if z_prev is None:
        return F
    N = prob.n_clients
    beta, eta = hp.beta, hp.eta
    local_est = 0.0
    feedback = 0.0
    vbar = np.zeros(prob.dim)
    gbar = np.zeros(prob.dim)
    for i in range(N):
        gi = client_gradient(prob, i, z_prev)
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


def theorem_residual_bound(
    hp: "HyperParams",
    L: float,
    q: float,
    B_h: float,
    sigma_sq: float,
    N: int,
    Psi0: float,
    T: int,
) -> float:
    """Right-hand side of the convergence theorem: the ceiling on the running
    mean of ||G_beta||^2 after T rounds. gamma = 0.15."""
    gamma = 0.15
    eta = hp.eta
    beta = hp.beta
    c_stoc = 6.7 * (17.0 * eta / N + 14.0 * eta**2 / (1.0 - q) + 140.0 * eta**3 / (1.0 - q) ** 2)
    c_approx = (18.4 / gamma) * (16.0 + 161.0 * eta**2 / (1.0 - q) ** 2)
    bound = Psi0 / (gamma * beta * T)
    if hp.B != FULL and sigma_sq > 0:
        bound += c_stoc * sigma_sq / (hp.K * hp.B)
    bound += c_approx * (L * beta / hp.eta_g) ** 2 * B_h**2
    return bound


def estimate_gradient_variance(prob: FederatedProblem, z: np.ndarray) -> float:
    """Empirical sigma^2: max over clients of per-sample gradient variance at z
    (mean squared deviation of single-sample gradients from the full one)."""
    if prob.loss.variant == HETERO_QUADRATIC:
        return 0.0
    worst = 0.0
    for i in range(prob.n_clients):
        dev = per_sample_gradients(prob, i, z) - client_gradient(prob, i, z)[None, :]
        worst = max(worst, float(np.mean(np.sum(dev * dev, axis=1))))
    return worst
