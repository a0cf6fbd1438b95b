"""The round engine against the per-client loop it replaced, and its call counts.

The reference loops below are the per-client round loop the engine
replaced, which wrote the golden CSVs in tests/golden: one client at a time,
on the tests' own per-row gradient oracle (tests/_reference.py), kept here
as the oracle the engine must match bit for bit on hand-picked and on
random small runs.
"""

import dataclasses
import importlib.util
import math
import os
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fedcef.algorithms as algorithms
from fedcef.algorithms import HyperParams, run_fedcef, run_prox_fedavg
from fedcef.compressors import KINDS, CompressorSpec, compress, contraction_factor, payload_bytes
from fedcef.core import NonFiniteError, derive_stream
from fedcef.harness import parse_config, run_experiment
from fedcef.metrics import lyapunov_diagnostic
from fedcef.problems import (
    FULL,
    LOSS_VARIANTS,
    LossKind,
    PartitionSpec,
    generate_synthetic,
    objective_value,
)
from fedcef.regularizers import Regularizer
from tests._reference import draw, row_gradient, stacked

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def reference_fedcef(prob, reg, hp, spec, seed):
    """local_update -> client_uplink -> server_aggregate -> client_downlink,
    one client at a time; returns z^0..z^T, per-round uplink bytes and the
    Lyapunov value of rows 1..T, from F and client gradients computed here."""
    N, p = prob.n_clients, prob.dim
    q = float(np.sqrt(contraction_factor(spec, p)))
    z, c = np.zeros(p), np.zeros(p)
    clients = [
        {"c_local": np.zeros(p), "v": np.zeros(p), "z_prev": z.copy(), "c_known": np.zeros(p)} for _ in range(N)
    ]
    z_hist, up, lyap = [z.copy()], [], []
    for t in range(hp.T):
        payloads = []
        for i, cs in enumerate(clients):
            gstream = derive_stream(seed, f"client/{i}/round/{t}/grad")
            x_hat = cs["z_prev"].copy()
            x = x_hat.copy()
            for k in range(hp.K):
                g = row_gradient(prob, i, x, draw(gstream, prob, i, hp.B))
                x_hat = x_hat - hp.alpha * (g + cs["c_known"] - cs["c_local"])
                x = reg.prox((k + 1) * hp.alpha, x_hat)
            drift = (cs["z_prev"] - x_hat) / (hp.alpha * hp.K) + cs["c_local"] - cs["c_known"]
            cs["v"] = (1.0 - hp.eta) * cs["v"] + hp.eta * drift
            cstream = derive_stream(seed, f"client/{i}/round/{t}/compress")
            payload, dense = compress(spec, cs["v"] - cs["c_local"], [cstream])
            cs["c_local"] = cs["c_local"] + dense
            payloads.append(payload)
        total = np.zeros(p)  # decoded here from the payloads, not taken from compress
        for pl in payloads:
            if pl.dense:
                total += pl.values
            else:
                total[pl.indices] += pl.values
        c = c + total / N
        z_tilde = z - hp.beta * c
        for cs in clients:
            cs["c_known"] = (cs["z_prev"] - z_tilde) / hp.beta
            cs["z_prev"] = reg.prox(hp.beta, z_tilde)
        z_round, z = z, reg.prox(hp.beta, z_tilde)
        z_hist.append(z.copy())
        up.append(sum(payload_bytes(pl) for pl in payloads))
        vs, cl = np.array([cs["v"] for cs in clients]), np.array([cs["c_local"] for cs in clients])
        grads = np.array([row_gradient(prob, i, z_round) for i in range(N)])
        lyap.append(lyapunov_diagnostic(hp, q, objective_value(prob, reg, z), vs, cl, grads))
    return z_hist, up, lyap


def reference_prox_fedavg(prob, reg, hp, seed):
    z = np.zeros(prob.dim)
    z_hist = [z.copy()]
    for t in range(hp.T):
        acc = np.zeros(prob.dim)
        for i in range(prob.n_clients):
            rng = derive_stream(seed, f"client/{i}/round/{t}/grad")
            x = z.copy()
            for k in range(hp.K):
                x = reg.prox(hp.alpha, x - hp.alpha * row_gradient(prob, i, x, draw(rng, prob, i, hp.B)))
            acc += x
        z = acc / prob.n_clients
        z_hist.append(z.copy())
    return z_hist


def _logistic_topk():
    prob = generate_synthetic(
        "logistic", 10, 120, 4, PartitionSpec("dirichlet", 0.5), 5
    )
    hp = HyperParams(alpha=0.02, eta_g=1.0, K=6, eta=0.4, B=8, T=12)
    return prob, Regularizer(1e-3), hp, CompressorSpec("topk", 0.3)


def _hetero_randk():
    prob = generate_synthetic(
        "hetero_quadratic", 9, 9, 5, PartitionSpec("iid"), 6
    )
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=4, eta=0.7, B=4, T=12)  # any B is exact here
    return prob, Regularizer(0.01), hp, CompressorSpec("randk", 0.3)


def _logistic_p1():
    # p = 1: every cross-client sum adds an (N, 1) block, which np.sum would
    # add pairwise, not in client order
    prob = generate_synthetic("logistic", 1, 200, 10, PartitionSpec("iid"), 5)
    hp = HyperParams(alpha=0.02, eta_g=1.0, K=6, eta=0.4, B=8, T=12)
    return prob, Regularizer(1e-3), hp, CompressorSpec("topk", 0.5)


def _hetero_p1():
    prob = generate_synthetic("hetero_quadratic", 1, 10, 10, PartitionSpec("iid"), 6)
    hp = HyperParams(alpha=0.01, eta_g=1.0, K=4, eta=0.7, B=4, T=12)
    return prob, Regularizer(0.01), hp, CompressorSpec("randk", 1.0)


def _stacked_shards():
    # hand-made shards of different lengths, stacked into one client-major matrix
    rng = np.random.default_rng(11)
    p = 6
    features = [rng.standard_normal((n, p)) for n in (7, 10, 12)]
    labels = [np.where(rng.standard_normal(a.shape[0]) > 0, 1.0, -1.0) for a in features]
    prob = stacked(LossKind("logistic"), p, features, labels)
    hp = HyperParams(alpha=0.05, eta_g=1.0, K=5, eta=0.5, B=3, T=10)
    return prob, Regularizer(1e-3), hp, CompressorSpec("topk", 0.5)


@st.composite
def engine_cases(draw):
    """A small random run: any loss on shards of their own lengths, any
    compressor kind with k = p included, B = full or a minibatch (which may
    exceed a shard: the draw is with replacement), h = 0 or l1, eta = 1 or
    below, N >= 1, p >= 1, T <= 5. The step keeps beta L <= 1/2, so no run
    overflows in five rounds."""
    N, p, K = draw(st.integers(1, 10)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    variant, seed = draw(st.sampled_from(LOSS_VARIANTS)), draw(st.integers(0, 2**32 - 1))
    if variant == "hetero_quadratic":
        prob = generate_synthetic(variant, p, 1, N, PartitionSpec("iid"), seed)
    else:
        rng = np.random.default_rng(seed)
        features = [rng.standard_normal((draw(st.integers(1, 12)), p)) for _ in range(N)]
        labels = [rng.standard_normal(a.shape[0]) for a in features]
        if variant != "squared_error":
            labels = [np.where(y >= 0, 1.0, -1.0) for y in labels]
        prob = stacked(LossKind(variant), p, features, labels)
    spec = CompressorSpec(draw(st.sampled_from(KINDS)), draw(st.integers(1, 100).map(lambda j: j / 100)))
    hp = HyperParams(
        alpha=draw(st.sampled_from((0.1, 0.5))) / (prob.smoothness * K),
        K=K,
        eta=draw(st.sampled_from((0.5, 1.0))),
        B=draw(st.just(FULL) | st.integers(1, 5)),
        T=draw(st.integers(1, 5)),
    )
    return prob, Regularizer(draw(st.sampled_from((0.0, 0.01)))), hp, spec


@settings(max_examples=200, deadline=None)
@given(case=engine_cases())
@example(case=_logistic_topk())
@example(case=_hetero_randk())
@example(case=_logistic_p1())
@example(case=_hetero_p1())
@example(case=_stacked_shards())
def test_engine_matches_per_client_loop_bitwise(case):
    prob, reg, hp, spec = case
    z_ref, up_ref, lyap_ref = reference_fedcef(prob, reg, hp, spec, seed=9)
    res = run_fedcef(prob, reg, hp, spec, seed=9, lyapunov=True)
    assert len(res.z_history) == len(z_ref)
    for a, b in zip(res.z_history, z_ref):
        assert np.array_equal(a, b)
    cum = [r.uplink_bytes_cum for r in res.series.rows]
    assert np.diff(cum).tolist() == up_ref
    assert [r.lyapunov for r in res.series.rows[1:]] == lyap_ref
    assert res.series.rows[0].lyapunov == res.series.rows[0].F

    base = run_prox_fedavg(prob, reg, hp, seed=9)
    for a, b in zip(base.z_history, reference_prox_fedavg(prob, reg, hp, seed=9), strict=True):
        assert np.array_equal(a, b)


def _load_tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer", os.path.join(ROOT, "bench", "tracer.py"))
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


# the benchmark's set-up and CSV spans, which no engine run enters
SETUP_SPANS = (
    "problems.generate_synthetic",
    "problems.estimate_smoothness",
    "harness.parse_config",
    "harness.build_problem",
    "harness.write_metrics_csv",
)


def test_every_engine_phase_the_benchmark_traces_runs():
    """The benchmark's tracer wraps functions by name; a renamed or bypassed
    phase function must fail here, not only in a traced benchmark run. Every
    span it traces but set-up and the CSV runs in one of the two cases."""
    bench_tracer = _load_tracer()
    tracer = bench_tracer.Tracer()
    ran = set()
    with tracer:
        for case in (_logistic_topk, _hetero_randk):
            prob, reg, hp, spec = case()
            with tracer.span("run") as root:  # called through the module, where the wrappers are
                algorithms.run_fedcef(prob, reg, hp, spec, seed=1, lyapunov=True)
                algorithms.run_prox_fedavg(prob, reg, hp, seed=1)
            summary = tracer.summarize(root.idx)
            ran.update(summary)
            # rows 0..T of both runs, each F evaluated once
            assert summary["problems.objective_value"]["calls"] == 2 * (hp.T + 1)
    assert bench_tracer.installed_wrappers() == []
    assert [span for _, _, span, _ in bench_tracer.TARGETS if span not in ran and span not in SETUP_SPANS] == []


@pytest.mark.parametrize("case", [_logistic_topk, _hetero_randk])
def test_measurement_gradients_are_computed_once_per_row(case):
    """The Lyapunov term takes the client gradients the previous row measured
    at its z_prev, and a row reads the shards twice (gradient and objective),
    not three times. measure_row and client_values are untraced, so the
    client_gradient spans whose parent is the runner's are the measured
    rows' calls, whatever the local phase calls: one per client and row on
    the data losses, none on the closed form."""
    prob, reg, hp, spec = case()
    tracer = _load_tracer().Tracer()
    runs = (
        lambda: algorithms.run_fedcef(prob, reg, hp, spec, seed=1, lyapunov=True),
        lambda: algorithms.run_prox_fedavg(prob, reg, hp, seed=1),
    )
    for run in runs:
        tracer.reset_counts()
        with tracer, tracer.span("run") as root:
            run()
        runner = root.idx + 1  # the first span under the root
        assert tracer.names[tracer.name_id[runner]] in ("algorithms.run_fedcef", "algorithms.run_prox_fedavg")
        gradient = tracer.ids["problems.client_gradient"]
        spans = range(runner, len(tracer.start))
        measured = sum(tracer.name_id[i] == gradient and tracer.parent[i] == runner for i in spans)
        assert measured == (0 if prob.closed_form else prob.n_clients * (hp.T + 1))
        assert tracer.counts["measure.shard_passes"] == 2 * (hp.T + 1)


def test_pgd_reads_the_clients_once_per_iterate(tmp_path):
    """Each PGD step takes grad f from the block its row measured: T steps
    on demo.ini make the N (T + 1) client_gradient calls of rows 0..T and
    no more, and evaluate F once per row."""
    with open(os.path.join(ROOT, "configs", "demo.ini")) as fh:
        cfg = parse_config(fh.read(), {"algorithm.name": "pgd"})
    tracer = _load_tracer().Tracer()
    with tracer, tracer.span("run") as root:
        run_experiment(cfg, str(tmp_path / "pgd.csv"))
    summary = tracer.summarize(root.idx)
    assert summary["problems.client_gradient"]["calls"] == cfg.clients * (cfg.T + 1) == 330
    assert summary["problems.objective_value"]["calls"] == cfg.T + 1


@pytest.mark.parametrize("case", [_logistic_topk, _hetero_randk])
def test_broadcast_prox_runs_once_per_round(case, monkeypatch):
    """One prox row per client and local step, one for the broadcast
    (server_finalize) and one per measured row: every client holds the same
    z^{t+1}, so the prox of the broadcast is computed once, not again per
    client. Rows, not calls, are counted, so a pass that steps the clients
    together keeps the count."""
    prob, reg, hp, spec = case()
    rows = []
    prox = Regularizer.prox

    def counting_prox(self, tau, x):
        rows.append(np.atleast_2d(x).shape[0])
        return prox(self, tau, x)

    monkeypatch.setattr(Regularizer, "prox", counting_prox)
    algorithms.run_fedcef(prob, reg, hp, spec, seed=1, lyapunov=True)
    assert sum(rows) == prob.n_clients * hp.K * hp.T + 2 * hp.T + 1


@pytest.mark.parametrize("case", [_logistic_topk, _hetero_randk, _hetero_p1])
def test_streams_are_derived_only_when_drawn_from(case, monkeypatch):
    prob, reg, hp, spec = case()
    labels = []

    def recording_stream(seed, label):
        labels.append(label)
        return derive_stream(seed, label)

    monkeypatch.setattr(algorithms, "derive_stream", recording_stream)
    algorithms.run_fedcef(prob, reg, hp, spec, seed=1)
    algorithms.run_fedcef(prob, reg, dataclasses.replace(hp, B=FULL), spec, seed=1)
    grad = 0 if prob.closed_form else prob.n_clients * hp.T  # only the sampled run draws
    # rand-k draws only below full retention; at k = p it sends the block dense
    drawn = spec.kind == "randk" and spec.resolve_k(prob.dim) < prob.dim
    assert len(labels) == grad + (2 * prob.n_clients * hp.T if drawn else 0)

    # prox_fedavg's block pass derives each client's grad stream once per
    # round, and only when the oracle samples
    labels.clear()
    algorithms.run_prox_fedavg(prob, reg, hp, seed=1)
    algorithms.run_prox_fedavg(prob, reg, dataclasses.replace(hp, B=FULL), seed=1)
    drawn = [f"client/{i}/round/{t}/grad" for t in range(hp.T) for i in range(prob.n_clients)]
    assert labels == ([] if prob.closed_form else drawn)


@pytest.mark.parametrize("run", [run_fedcef, run_prox_fedavg])
@pytest.mark.parametrize("variant", ["squared_error", "hetero_quadratic"])
def test_divergence_stops_at_the_first_non_finite_row(run, variant):
    """F overflows rows before any local pass does. The run stops at that row,
    without a RuntimeWarning (the suite turns warnings into errors), and
    every earlier row is finite: T one round shorter completes."""
    prob = generate_synthetic(variant, 20, 100, 3, PartitionSpec("iid"), 7)
    hp = HyperParams(alpha=5.0, eta_g=1.0, K=10, eta=1.0, B=FULL, T=100)
    args = (CompressorSpec("topk", 1.0),) if run is run_fedcef else ()
    with pytest.raises(NonFiniteError, match=r"^non-finite measurement at row \d+: F = inf, ") as exc:
        run(prob, Regularizer(), hp, *args, seed=0)
    row = int(re.match(r"non-finite measurement at row (\d+)", str(exc.value))[1])
    assert row > 1
    rows = run(prob, Regularizer(), dataclasses.replace(hp, T=row - 1), *args, seed=0).series.rows
    assert all(math.isfinite(r.F) and math.isfinite(r.prox_grad_sq) for r in rows)
