"""Acceptance suite: every checkable claim at desk scale, one criterion per test.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
PASS/FAIL lines. Shared deterministic runs are built once per module.
"""

import math
import time

import numpy as np
import pytest

from fedcef.algorithms import HyperParams, run_centralized_pgd, run_fedcef, run_prox_fedavg
from fedcef.compressors import CompressorSpec, compress, contraction_factor
from fedcef.core import derive_stream
from fedcef.harness import compare_runs, write_metrics_csv
from fedcef.metrics import (
    lyapunov_diagnostic,
    prox_gradient_mapping,
    theorem_residual_bound,
)
from fedcef.problems import (
    FULL,
    PartitionSpec,
    client_gradient,
    client_values,
    generate_synthetic,
    objective_value,
)
from fedcef.regularizers import Regularizer
from tests._reference import client_loss, fd_gradient, gradient_variance
from tests._transcripts import recording
from tests.test_metrics import comm_accounting


def report(num: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    print(f"criterion {num} ({name}): {status}  {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


# --- shared deterministic hetero-quadratic testbed (criteria 4, 5, 8, 9) ---

HETERO_T = 1050


def _condition_satisfying_steps(L: float, q: float, K: int, eta: float) -> tuple[float, float]:
    """Largest alpha and smallest eta_g meeting the sufficient conditions."""
    eta_g = math.sqrt(16 * (1 - q) ** 2 + 161 * eta * eta) / (5 * eta * (1 - q)) * 1.001
    beta_cap = min(eta * eta, (1 - q) ** 2) / (25 * L)
    alpha = min(beta_cap / (eta_g * K), 1 / (8 * K * L)) * 0.999
    return alpha, eta_g


@pytest.fixture(scope="module")
def hetero_bundle():
    prob = generate_synthetic(
        "hetero_quadratic", 10, 10, 5, PartitionSpec("iid"),
        11, curvature_range=(0.3, 3.0),
    )
    reg = Regularizer()
    alpha, eta_g = _condition_satisfying_steps(prob.smoothness, 0.0, 10, 1.0)
    hp = HyperParams(alpha=alpha, eta_g=eta_g, K=10, eta=1.0, B=FULL, T=HETERO_T)
    fed = run_fedcef(prob, reg, hp, CompressorSpec("topk", 1.0), seed=1, lyapunov=True)
    avg = run_prox_fedavg(prob, reg, hp, seed=1)
    return prob, reg, hp, fed, avg


def test_criterion_1_pgd_reduction():
    t0 = time.time()
    reg = Regularizer(0.01)
    worst = 0.0
    for variant, samples, seed in (("squared_error", 100, 7), ("sigmoid_nonconvex", 200, 8)):
        prob = generate_synthetic(
            variant, 20, samples, 1, PartitionSpec("iid"), seed
        )
        beta = 1.0 / (25 * prob.smoothness)
        hp = HyperParams(alpha=beta, eta_g=1.0, K=1, eta=1.0, B=FULL, T=50)
        fed = run_fedcef(prob, reg, hp, CompressorSpec("topk", 1.0), seed=3)
        pgd = run_centralized_pgd(prob, reg, HyperParams(alpha=beta, T=50)).z_history
        assert len(fed.z_history) == len(pgd) == 51
        worst = max(worst, max(np.max(np.abs(a - b)) for a, b in zip(fed.z_history, pgd)))
    elapsed = time.time() - t0
    report(
        1,
        "PGD reduction",
        worst <= 1e-10 and elapsed < 1.0,
        f"max traj gap {worst:.2e}, {elapsed:.2f}s",
    )


def test_criterion_2_accumulator_and_reconstruction_identities():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    specs = [
        CompressorSpec("topk", 1.0),
        CompressorSpec("topk", 0.2),
        CompressorSpec("topk", 0.05),
        CompressorSpec("randk", 0.3),
        CompressorSpec("randk", 0.15),
    ]
    assert [spec.resolve_k(12) for spec in specs] == [12, 3, 1, 4, 2]
    prob_cache = {}
    worst_acc = worst_rec = worst_mean = 0.0
    for cfg_idx in range(20):
        N = int(rng.choice([2, 5, 10]))
        K = int(rng.choice([1, 5, 30]))
        spec = specs[cfg_idx % len(specs)]
        B = int(rng.choice([1, 4])) if rng.random() < 0.5 else FULL
        eta = float(rng.uniform(0.1, 1.0))
        if N not in prob_cache:
            prob_cache[N] = generate_synthetic(
                "logistic", 12, 240, N, PartitionSpec("dirichlet", 0.5),
                100 + N,
            )
        prob = prob_cache[N]
        hp = HyperParams(alpha=0.02, eta_g=1.0, K=K, eta=eta, B=B, T=6)
        with recording() as transcripts:
            run_fedcef(prob, Regularizer(1e-4), hp, spec, seed=cfg_idx)
        for tr in transcripts:
            local, end = tr.local, tr.end
            c_sum = np.zeros(prob.dim)
            for i in range(N):
                lhs = (local.z - local.x_hat[i]) / (hp.alpha * hp.K)
                lhs = lhs + local.c_local[i] - local.c_known
                rhs = np.mean(tr.gradients[i], axis=0)
                worst_acc = max(worst_acc, float(np.max(np.abs(lhs - rhs))))
                scale = 1e-10 * (1.0 + float(np.max(np.abs(end.c_global))))
                gap = float(np.max(np.abs(end.c_known - end.c_global)))
                worst_rec = max(worst_rec, gap / scale * 1e-10)
                assert gap <= scale
                c_sum += end.c_local[i]
            mean_gap = float(np.max(np.abs(end.c_global - c_sum / N)))
            worst_mean = max(worst_mean, mean_gap)
    elapsed = time.time() - t0
    ok = worst_acc <= 1e-10 and worst_mean <= 1e-10 and elapsed < 10.0
    report(
        2,
        "accumulator and reconstruction identities",
        ok,
        f"acc {worst_acc:.2e}, recon(scaled) {worst_rec:.2e}, mean {worst_mean:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_contraction_property():
    t0 = time.time()
    rng = np.random.default_rng(7)
    dims = {3: 4000, 50: 4000, 1000: 2000}  # 10^4 random vectors in total
    ok = True
    details = []
    for p, n_draws in dims.items():
        specs = [
            CompressorSpec("topk", 1.0),
            CompressorSpec("topk", 0.001),
            CompressorSpec("topk", 0.5),
            CompressorSpec("randk", 0.001),
            CompressorSpec("randk", 0.5),
        ]
        assert specs[1].resolve_k(p) == specs[3].resolve_k(p) == 1
        for spec in specs:
            q2 = contraction_factor(spec, p)
            diffs = np.empty(n_draws)
            stream = derive_stream(55, f"{p}/{spec.kind}/{spec.retain}")
            for i in range(n_draws):
                x = rng.standard_normal(p)
                _, dense = compress(spec, x, [stream])
                err = float(np.sum((dense - x) ** 2))
                total = float(np.sum(x * x))
                if spec.kind == "topk":
                    ok &= err <= q2 * total + 1e-12
                else:
                    # uniform subsets can drop more than their proportional
                    # share; per draw only total energy bounds the error,
                    # the q^2 factor is the exact mean over draws
                    ok &= err <= total + 1e-12
                diffs[i] = err - q2 * total
            if spec.kind == "randk":
                se = diffs.std(ddof=1) / math.sqrt(n_draws)
                ok &= diffs.mean() <= 3 * se
                details.append(f"randk p={p} mean-dev {diffs.mean():+.3e} (3se {3*se:.1e})")
    elapsed = time.time() - t0
    report(3, "contraction property", ok and elapsed < 5.0, f"{'; '.join(details[:2])}, {elapsed:.1f}s")


def test_criterion_4_heterogeneity_robustness(hetero_bundle):
    t0 = time.time()
    prob, reg, hp, fed, avg = hetero_bundle
    assert fed.series.conditions.all_ok, "testbed step sizes must satisfy the theorem conditions"
    final_fed = fed.series.rows[-1].prox_grad_sq
    final_avg = avg.series.rows[-1].prox_grad_sq
    # independent oracle for the baseline's plateau: the fixed point of the
    # averaged K-step affine map, in closed form for diagonal quadratics
    H, m = prob.curvatures, prob.centers
    w = 1.0 - (1.0 - hp.alpha * H) ** hp.K
    z_bar = (w * m).sum(axis=0) / w.sum(axis=0)
    floor = float(np.sum(prox_gradient_mapping(prob, reg, z_bar, hp.beta) ** 2))
    elapsed = time.time() - t0
    ok = (
        final_fed <= 1e-8
        and floor >= 10 * final_fed  # the averaging bias alone exceeds 10x
        and final_avg >= 10 * final_fed
        and final_avg >= floor * (1 - 1e-6)  # baseline approaches the floor from above
        and elapsed < 30.0
    )
    report(
        4,
        "heterogeneity robustness",
        ok,
        f"fedcef {final_fed:.2e} vs baseline {final_avg:.2e} (floor {floor:.2e}, {final_avg/final_fed:.1e}x), {elapsed:.1f}s",
    )


def test_criterion_5_sublinear_trend_and_theorem_bound(hetero_bundle):
    t0 = time.time()
    prob, reg, hp, fed, _ = hetero_bundle
    g2 = np.array([r.prox_grad_sq for r in fed.series.rows])
    min200 = g2[: 200 + 1].min()
    min800 = g2[: 800 + 1].min()
    # Psi^0 with v = c = 0 and z^{-1} = z^0
    z0 = np.zeros(prob.dim)
    zeros = np.zeros((prob.n_clients, prob.dim))
    grads0 = client_values(prob, z0)[1]
    psi0 = lyapunov_diagnostic(hp, 0.0, objective_value(prob, reg, z0), zeros, zeros, grads0)
    bound_ok = True
    for T in range(1, hp.T + 1):
        mean_g2 = g2[:T].mean()  # rows 0..T-1 hold z^0..z^{T-1}
        bound = theorem_residual_bound(hp, prob.smoothness, 0.0, 0.0, 0.0, prob.n_clients, psi0, T)
        bound_ok &= mean_g2 <= bound
    elapsed = time.time() - t0
    ok = min800 <= 0.7 * min200 and bound_ok and elapsed < 30.0
    report(
        5,
        "sublinear trend and residual bound",
        ok,
        f"min@800/min@200 {min800/min200:.2e}, bound holds for all prefixes: {bound_ok}, {elapsed:.1f}s",
    )


# Chosen before the first run: every data loss and hetero_quadratic,
# full retention, top-k and rand-k, B = full and a minibatch, h = 0 and l1.
# (loss, lambda of h, compressor, B); p = 20, N = 5, 500 samples,
# Dirichlet 0.5, K = 10, eta = 0.5, the largest condition-satisfying steps
# at the compressor's q, T = 400, seed 0.
BOUND_GRID = (
    ("logistic", 1e-2, CompressorSpec("topk", 0.25), 1),
    ("sigmoid_nonconvex", 1e-2, CompressorSpec("randk", 0.25), 4),
    ("squared_error", 1e-1, CompressorSpec("topk", 0.1), 2),
    ("squared_error", 0.0, CompressorSpec("topk", 1.0), FULL),
    ("hetero_quadratic", 1e-2, CompressorSpec("randk", 0.25), FULL),
    ("logistic", 0.0, CompressorSpec("topk", 1.0), 4),
)


def test_criterion_5_theorem_bound_with_every_term_live():
    """The running mean of ||G||^2 stays under theorem_residual_bound at every
    prefix T with the compression (q > 0), noise (B < full) and h
    (B_h_sq > 0) terms live. sigma^2 is an estimate, the largest
    `gradient_variance` of tests/_reference.py at 11 visited points, not the
    uniform bound the theorem assumes."""
    t0 = time.time()
    K, eta, T = 10, 0.5, 400
    ratios = {}
    for loss, lam, spec, B in BOUND_GRID:
        prob = generate_synthetic(loss, 20, 500, 5, PartitionSpec("dirichlet", 0.5), 0)
        reg = Regularizer(lam)
        q = math.sqrt(contraction_factor(spec, prob.dim))
        alpha, eta_g = _condition_satisfying_steps(prob.smoothness, q, K, eta)
        hp = HyperParams(alpha=alpha, eta_g=eta_g, K=K, eta=eta, B=B, T=T)
        res = run_fedcef(prob, reg, hp, spec, seed=0)
        g2 = np.array([r.prox_grad_sq for r in res.series.rows])
        sigma_sq = max(gradient_variance(prob, res.z_history[t]) for t in range(0, T + 1, T // 10))
        # Psi^0 with v = c = 0 and z^{-1} = z^0, as in criterion 5
        z0 = res.z_history[0]
        zeros = np.zeros((prob.n_clients, prob.dim))
        grads0 = client_values(prob, z0)[1]
        psi0 = lyapunov_diagnostic(hp, q, objective_value(prob, reg, z0), zeros, zeros, grads0)
        B_h_sq = reg.subgradient_bound(prob.dim)
        worst = 0.0
        for t in range(1, T + 1):
            mean_g2 = g2[:t].mean()  # rows 0..t-1 hold z^0..z^{t-1}
            bound = theorem_residual_bound(hp, prob.smoothness, q, B_h_sq, sigma_sq, prob.n_clients, psi0, t)
            worst = max(worst, mean_g2 / bound if bound > 0 else math.inf)
        ratios[f"{loss}/{'l1' if lam else 'h0'}/{spec.kind}/B={B}"] = worst
    elapsed = time.time() - t0
    report(
        5,
        "theorem bound with every term live",
        max(ratios.values()) <= 1.0 and elapsed < 30.0,
        "max over T of mean ||G||^2 / bound: "
        + "; ".join(f"{k}: {v:.1e}" for k, v in ratios.items())
        + f", {elapsed:.1f}s",
    )


def test_criterion_6_residual_control_via_batch_size(logistic_bundle):
    t0 = time.time()
    prob, reg, alpha = logistic_bundle
    plateaus = {}
    for B in (1, 4, 16):
        vals = []
        for seed in range(5):
            hp = HyperParams(alpha=alpha, eta_g=1.0, K=10, eta=0.5, B=B, T=500)
            res = run_fedcef(prob, reg, hp, CompressorSpec("topk", 0.1), seed=seed)
            g2 = np.array([r.prox_grad_sq for r in res.series.rows])
            vals.append(float(g2[-100:].mean()))
        plateaus[B] = float(np.mean(vals))
    elapsed = time.time() - t0
    ok = plateaus[1] > plateaus[4] > plateaus[16] and elapsed < 120.0
    report(
        6,
        "residual control via batch size",
        ok,
        f"plateaus B=1:{plateaus[1]:.3e} > B=4:{plateaus[4]:.3e} > B=16:{plateaus[16]:.3e}, {elapsed:.1f}s",
    )


@pytest.fixture(scope="module")
def logistic_bundle():
    prob = generate_synthetic(
        "logistic", 20, 1000, 5, PartitionSpec("dirichlet", 0.5),
        42, label_noise=0.5,
    )
    reg = Regularizer(1e-5)
    alpha = 1.0 / (8 * 10 * prob.smoothness)
    return prob, reg, alpha


def test_criterion_7_compression_robustness_and_byte_accounting(logistic_bundle, tmp_path):
    t0 = time.time()
    prob, reg, alpha = logistic_bundle
    T, N, p, k = 500, 5, 20, 1  # topk r=0.01 on p=20 retains one coordinate
    hp = HyperParams(alpha=alpha, eta_g=1.0, K=10, eta=0.5, B=FULL, T=T)
    run_full = run_fedcef(prob, reg, hp, CompressorSpec("topk", 1.0), seed=0)
    with recording() as transcripts_tk:
        run_tk = run_fedcef(prob, reg, hp, CompressorSpec("topk", 0.01), seed=0)
    F_full = run_full.series.rows[-1].F
    F_tk = run_tk.series.rows[-1].F
    rel_gap = abs(F_tk - F_full) / abs(F_full)
    up_full = run_full.series.rows[-1].uplink_bytes_cum
    up_tk = run_tk.series.rows[-1].uplink_bytes_cum
    # formula-exact accounting, recomputed from the transcripts
    up_series_tk, down_series_tk = comm_accounting(transcripts_tk, p)
    formulas = (
        up_tk == T * N * k * 8
        and up_full == T * N * p * 4
        and up_series_tk[-1] == up_tk
        and down_series_tk[-1] == run_tk.series.rows[-1].downlink_bytes_cum
        and down_series_tk[-1] == (T + 1) * p * 4
    )
    # same comparison through the CSV surface
    path_tk, path_full = str(tmp_path / "tk.csv"), str(tmp_path / "full.csv")
    write_metrics_csv(path_tk, run_tk.series, {})
    write_metrics_csv(path_full, run_full.series, {})
    summary = compare_runs(path_tk, path_full)
    elapsed = time.time() - t0
    ok = (
        rel_gap <= 0.05
        and up_tk <= 0.10 * up_full
        and formulas
        and summary.uplink_savings_pct >= 90.0
        and elapsed < 120.0
    )
    report(
        7,
        "compression robustness and byte accounting",
        ok,
        f"objective gap {rel_gap:.3%}, uplink ratio {up_tk/up_full:.3f}, savings {summary.uplink_savings_pct:.0f}%, "
        f"formulas exact: {formulas}, {elapsed:.1f}s",
    )


def test_criterion_8_vanishing_transmitted_signal(hetero_bundle):
    t0 = time.time()
    prob, reg, hp, _, _ = hetero_bundle
    with recording() as transcripts:
        run_fedcef(prob, reg, hp, CompressorSpec("topk", 0.5), seed=1)
    signal = [
        max(float(np.linalg.norm(v - c)) for v, c in zip(tr.end.v, tr.end.c_local))
        for tr in transcripts
    ]
    ratio = signal[-1] / signal[0]
    elapsed = time.time() - t0
    report(
        8,
        "vanishing transmitted signal",
        ratio <= 0.01 and elapsed < 30.0,
        f"max_i ||v_i - c_i||: t=1 {signal[0]:.3e} -> t=T {signal[-1]:.3e} (ratio {ratio:.1e}), {elapsed:.1f}s",
    )


def test_criterion_9_lyapunov_descent(hetero_bundle):
    t0 = time.time()
    _, _, hp, fed, _ = hetero_bundle
    psi = np.array([r.lyapunov for r in fed.series.rows])
    lag = 10
    violations = [t for t in range(1, hp.T - lag + 1) if not psi[t + lag] < psi[t]]
    elapsed = time.time() - t0
    report(
        9,
        "Lyapunov descent trend",
        not violations and elapsed < 30.0,
        f"0 violations over t in [1, {hp.T - lag}]" if not violations else f"violations at {violations[:5]}",
    )


def test_criterion_10_gradient_correctness():
    t0 = time.time()
    rng = np.random.default_rng(99)
    worst = 0.0
    for variant in ("squared_error", "logistic", "sigmoid_nonconvex", "hetero_quadratic"):
        if variant == "hetero_quadratic":
            prob = generate_synthetic(
                variant, 8, 4, 4, PartitionSpec("iid"), 1
            )
        else:
            prob = generate_synthetic(
                variant, 8, 60, 3, PartitionSpec("iid"), 2
            )
        for _ in range(20):
            x = rng.standard_normal(prob.dim)
            for i in range(prob.n_clients):
                g = client_gradient(prob, i, x)
                fd = fd_gradient(lambda v: client_loss(prob, i, v), x)
                rel = np.linalg.norm(g - fd) / max(np.linalg.norm(g), 1e-8)
                worst = max(worst, float(rel))
    elapsed = time.time() - t0
    report(
        10,
        "gradient correctness",
        worst <= 1e-5 and elapsed < 5.0,
        f"worst relative deviation {worst:.2e}, {elapsed:.1f}s",
    )


# Criterion 11, fixed before its first run: logistic, p = 100, 4000 samples,
# N = 5 clients, Dirichlet 0.5, lambda = 1e-2, K = 10, eta = 0.5, B = 32,
# T = 200, alpha = 1/(8KL), eta_g = 1, stream seed 0, uncompressed uplink, problem
# seeds 0 and 1. PGD runs at the same beta = alpha * K. fedcef's nnz(z^T) may
# be at most SPARSITY_RATIO times PGD's.
SPARSITY_RATIO = 2.0


def test_criterion_11_fedcef_keeps_a_sparse_model_where_prox_fedavg_cannot():
    # prox_fedavg averages the clients' post-prox models, and a coordinate is
    # zero in the average only if it is zero at every client; fedcef applies
    # prox_{beta h} once, at the server (the curse of primal averaging)
    t0 = time.time()
    reg = Regularizer(1e-2)
    details, ok = [], True
    for problem_seed in (0, 1):
        prob = generate_synthetic("logistic", 100, 4000, 5, PartitionSpec("dirichlet", 0.5), problem_seed)
        hp = HyperParams(alpha=1.0 / (8 * 10 * prob.smoothness), eta_g=1.0, K=10, eta=0.5, B=32, T=200)
        fed = run_fedcef(prob, reg, hp, CompressorSpec("topk", 1.0), seed=0).series.rows[-1].nnz
        avg = run_prox_fedavg(prob, reg, hp, seed=0).series.rows[-1].nnz
        pgd = run_centralized_pgd(prob, reg, hp).series.rows[-1].nnz
        ok = ok and fed < avg and fed <= SPARSITY_RATIO * pgd
        details.append(f"seed {problem_seed}: nnz fedcef {fed}, pgd {pgd}, prox_fedavg {avg} of p = {prob.dim}")
    report(11, "sparse model under averaging", ok, f"{'; '.join(details)}, {time.time() - t0:.1f}s")
