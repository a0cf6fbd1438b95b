import dataclasses
import math
import os
import re
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

import fedcef
from fedcef import compressors, regularizers
from fedcef.algorithms import HyperParams, StepConditionWarning, run_fedcef
from fedcef.cli import main as cli_main
from fedcef.harness import (
    ALGORITHMS,
    ConfigError,
    RunConfig,
    compare_runs,
    parse_config,
    read_metrics_csv,
    run_experiment,
    write_metrics_csv,
)
from fedcef.metrics import MetricsRow, MetricsSeries, StepConditionReport
from fedcef.problems import DIRICHLET, FULL, IID, LOSS_VARIANTS, LossKind
from tests._reference import stacked

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")

BASE_CONFIG = """
[problem]
loss = logistic
p = 8
samples = 60
clients = 3
partition = dirichlet
alpha_d = 0.6

[algorithm]
name = fedcef

[hyper]
alpha = 0.02
eta_g = 1.0
K = 4
eta = 0.5
B = 2
T = 6

[regularizer]
lambda = 1e-4

[compressor]
kind = topk
retain = 0.25

[run]
seed = 3
"""


def test_defaults_are_the_larger_setting():
    cfg = parse_config("")
    assert (cfg.alpha, cfg.eta_g, cfg.K, cfg.eta, cfg.B, cfg.T) == (0.06, 1.0, 30, 0.1, 64, 400)
    assert cfg.loss == "logistic" and cfg.partition == "dirichlet" and cfg.alpha_d == 0.6
    assert cfg.reg_lambda == 1e-5


def test_full_batch_parse():
    cfg = parse_config("[hyper]\nB = full\n")
    assert cfg.B == "full"
    assert cfg.hyper().B == "full"


def test_unknown_keys_are_hard_errors():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[hyper]\nlearning_rate = 0.1\n")
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[network]\nlatency = 5\n")
    with pytest.raises(ConfigError, match=r"^unknown section \[network\]$"):
        parse_config("[network]\n")  # no key to fail on
    # an override is checked as a config line is
    with pytest.raises(ConfigError, match=r"^unknown key 'pp' in section \[problem\]$"):
        parse_config(BASE_CONFIG, {"problem.pp": "3"})
    with pytest.raises(ConfigError, match=r"^unknown section \[bogus\]$"):
        parse_config(BASE_CONFIG, {"bogus.x": "1"})
    # h = 0 is written lambda = 0: the regularizer has no kind
    for kind in ("l1", "zero"):
        with pytest.raises(ConfigError, match=r"^unknown key 'kind' in section \[regularizer\]$"):
            parse_config(f"[regularizer]\nkind = {kind}\n")


@pytest.mark.parametrize("other", ["[problem]\nloss = logistic\n", "[run]\nlyapunov = true\n"])
def test_default_section_keys_are_rejected(other):
    # configparser merges [DEFAULT] into every section: with [problem] the key
    # would be misreported as unknown there, with [run] alone silently applied
    with pytest.raises(ConfigError, match=r"\[DEFAULT\] keys are not supported: seed"):
        parse_config("[DEFAULT]\nseed = 1\n" + other)


def test_domain_errors():
    with pytest.raises(ConfigError):
        parse_config("[compressor]\nkind = topk\nretain = 1.5\n")
    with pytest.raises(ConfigError):
        parse_config("[hyper]\nK = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[hyper]\neta = 0\n")
    with pytest.raises(ConfigError):
        parse_config("[problem]\nsamples = 2\nclients = 5\n")
    with pytest.raises(ConfigError, match="malformed"):
        parse_config("[problem\nloss=logistic\n")
    with pytest.raises(ConfigError):
        parse_config("[algorithm]\nname = sgd\n")


RATIO = "is a ratio in (0, 1], written with a decimal point: 1.0 keeps every coordinate"


def test_retain_is_a_ratio_and_integer_text_is_refused():
    # an integer was once read as a count, so `retain = 1` kept one
    # coordinate: it is refused rather than read as another ratio
    for raw in ("1", "4", "20"):
        with pytest.raises(ConfigError, match=f"^{re.escape(f'[compressor] retain = {raw!r}: {RATIO}')}$"):
            parse_config(f"[compressor]\nkind = topk\nretain = {raw}\n")
    for retain in (3, np.int64(3), True):
        with pytest.raises(ValueError, match=r"^retain must be a float ratio in \(0, 1\]$"):
            compressors.CompressorSpec("topk", retain)
    assert parse_config("[compressor]\nkind = topk\nretain = 0.5\n").comp_retain == 0.5
    assert parse_config("[compressor]\nkind = randk\nretain = 1.0\n").compressor() == compressors.CompressorSpec("randk", 1.0)
    with pytest.raises(ConfigError, match=r"^\[compressor\] kind = 'identity': expected one of topk, randk$"):
        parse_config("[compressor]\nkind = identity\n")
    # an exponent makes a ratio, as a decimal point does
    assert parse_config("[compressor]\nkind = topk\nretain = 1e-1\n").comp_retain == 0.1
    with pytest.raises(ConfigError, match=r"^\[compressor\] retain must be a float ratio in \(0, 1\]$"):
        parse_config("[compressor]\nkind = topk\nretain = 5e2\n")


# The golden CSVs, one per config and algorithm: the six configs cover all
# four loss families and both partition modes, hetero_drift_p200 is the
# benchmark's hetero_drift workload cut to T = 20, and logistic_l1_sparse is
# the one whose final rows have nnz < p, pinning the l1 prox's zeroing.
# configs/demo.ini is the shipped demo; the other configs sit beside their goldens.
@pytest.mark.parametrize(
    "name, algorithm",
    [(name, algorithm) for name in ("demo", "hetero_randk", "logistic_l1_sparse") for algorithm in ALGORITHMS]
    + [
        (name, algorithm)
        for name in ("squared_iid", "sigmoid_dirichlet_b8", "hetero_drift_p200")
        for algorithm in ("fedcef", "prox_fedavg")
    ],
)
def test_csv_matches_golden_bytes(name, algorithm, tmp_path):
    config = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "configs", "demo.ini")
    with open(config if name == "demo" else os.path.join(GOLDEN, f"{name}.ini")) as fh:
        cfg = dataclasses.replace(parse_config(fh.read()), algorithm=algorithm)
    out = tmp_path / "run.csv"
    run_experiment(cfg, str(out))
    with open(os.path.join(GOLDEN, f"{name}-{algorithm}.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


@pytest.mark.parametrize("kind, retain", [("topk", "0.1"), ("randk", "0.2"), ("randk", "0.25"), ("topk", "0.3")])
def test_csv_echoes_the_contraction_factor(kind, retain, tmp_path):
    # at p = 20 these are q^2 = 0.9, 0.8, 0.75 and 0.7, each of which the
    # square of its square root misses by 1 ulp
    cfg = parse_config(BASE_CONFIG, {"problem.p": "20", "compressor.kind": kind, "compressor.retain": retain})
    run_experiment(cfg, str(tmp_path / "run.csv"))
    meta, _ = read_metrics_csv(str(tmp_path / "run.csv"))
    assert float(meta["contraction_q2"]) == compressors.contraction_factor(cfg.compressor(), cfg.p)


def test_run_experiment_deterministic_csv(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg, str(a))
    run_experiment(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()
    # changing the seed changes a stochastic (B=2) run
    run_experiment(parse_config(BASE_CONFIG, {"run.seed": "4"}), str(tmp_path / "c.csv"))
    assert a.read_bytes() != (tmp_path / "c.csv").read_bytes()


def test_csv_roundtrip_lossless(tmp_path):
    cfg = parse_config(BASE_CONFIG, {"run.lyapunov": "true"})
    path = tmp_path / "run.csv"
    series = run_experiment(cfg, str(path))
    meta, rows = read_metrics_csv(str(path))
    assert len(rows) == len(series.rows)
    for got, want in zip(rows, series.rows):
        assert got.t == want.t
        assert got.F == want.F  # exact: 17 significant digits round-trip
        assert got.prox_grad_sq == want.prox_grad_sq
        assert got.uplink_bytes_cum == want.uplink_bytes_cum
        assert got.downlink_bytes_cum == want.downlink_bytes_cum
        assert got.nnz == want.nnz
        assert got.lyapunov == want.lyapunov
        assert got.condition_ok == want.condition_ok
    assert meta["problem.loss"] == "logistic"
    rep = series.conditions
    for name in ("beta", "eta_g", "alpha"):
        assert meta[f"{name}_ok"] == str(int(getattr(rep, f"{name}_ok")))
        assert float(meta[f"{name}_bound"]) == getattr(rep, f"{name}_bound")
    # a new key after the rows, such as a status footer, is read
    with open(path, "a") as fh:
        fh.write("# status = diverged row=3\n")
    assert read_metrics_csv(str(path)) == ({**meta, "status": "diverged row=3"}, rows)


def test_config_echo_reruns_identically(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    path = tmp_path / "orig.csv"
    run_experiment(cfg, str(path))
    meta, _ = read_metrics_csv(str(path))
    cfg2 = parse_config("", config_keys(meta))
    path2 = tmp_path / "rerun.csv"
    run_experiment(cfg2, str(path2))
    assert path.read_bytes() == path2.read_bytes()


def test_csv_columns_match_metricsrow_fields(tmp_path):
    # the written column line and `# conditions:` keys are the two dataclasses'
    # fields in declaration order
    path = tmp_path / "run.csv"
    series = run_experiment(parse_config(BASE_CONFIG), str(path))
    lines = path.read_text().splitlines()
    assert lines[len(lines) - len(series.rows) - 1].split(",") == [f.name for f in dataclasses.fields(MetricsRow)]
    tokens = next(line for line in lines if line.startswith("# conditions: ")).split()[2:]
    assert [t.split("=")[0] for t in tokens] == [f.name for f in dataclasses.fields(StepConditionReport)]


def test_byte_counters_are_nondecreasing(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    path = tmp_path / "run.csv"
    run_experiment(cfg, str(path))
    _, rows = read_metrics_csv(str(path))
    ups = [r.uplink_bytes_cum for r in rows]
    downs = [r.downlink_bytes_cum for r in rows]
    assert ups == sorted(ups) and downs == sorted(downs)


def test_pgd_ignores_compressor(tmp_path, caplog):
    # an override written in another case beats the file's line for its key
    cfg = parse_config(BASE_CONFIG, {"algorithm.name": "pgd", "hyper.t": "5"})
    assert cfg.T == 5
    import logging

    with caplog.at_level(logging.INFO, logger="fedcef.harness"):
        series = run_experiment(cfg, str(tmp_path / "pgd.csv"))
    assert series.algorithm == "pgd"
    assert all(r.uplink_bytes_cum == 0 for r in series.rows)
    assert any("compressor" in rec.message for rec in caplog.records)
    # run.lyapunov is fedcef's too: the other algorithms log that they ignore it
    assert not any("lyapunov" in rec.message for rec in caplog.records)
    for name in ("pgd", "prox_fedavg"):
        caplog.clear()
        with caplog.at_level(logging.INFO, logger="fedcef.harness"):
            series = run_experiment(dataclasses.replace(cfg, algorithm=name, lyapunov=True), str(tmp_path / "x.csv"))
        assert all(r.lyapunov is None for r in series.rows)
        assert any(rec.message.startswith("run.lyapunov is fedcef's") for rec in caplog.records)


def test_prox_fedavg_via_harness(tmp_path):
    cfg = parse_config(BASE_CONFIG, {"algorithm.name": "prox_fedavg"})
    series = run_experiment(cfg, str(tmp_path / "avg.csv"))
    assert series.algorithm == "prox_fedavg"
    p, N, T = cfg.p, cfg.clients, cfg.T
    assert series.rows[-1].uplink_bytes_cum == T * N * 4 * p


def test_compare_identical_runs_zero_savings(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg, str(a))
    run_experiment(cfg, str(b))
    summary = compare_runs(str(a), str(b))
    assert summary.uplink_savings_pct == 0.0
    assert summary.a.last == summary.b.last


def test_compare_says_n_a_when_only_run_b_sent_no_uplink_bytes():
    fedcef, pgd = (os.path.join(GOLDEN, f"demo-{name}.csv") for name in ("fedcef", "pgd"))
    summary = compare_runs(fedcef, pgd)
    assert summary.a.last.uplink_bytes_cum > 0 and summary.b.last.uplink_bytes_cum == 0
    assert summary.uplink_savings_pct is None
    assert f"uplink bytes:    A={summary.a.last.uplink_bytes_cum} B=0 (A saves n/a vs B: B sent none)" in summary.render()
    # the other way round the saving is defined: all of A's bytes
    assert compare_runs(pgd, fedcef).uplink_savings_pct == 100.0


def test_compare_threshold_not_reached(tmp_path):
    cfg = parse_config(BASE_CONFIG)
    a = tmp_path / "a.csv"
    run_experiment(cfg, str(a))
    summary = compare_runs(str(a), str(a), threshold=-1.0)
    assert summary.a.bytes_to_threshold is None
    assert summary.b.bytes_to_threshold is None
    assert "not reached" in summary.render()


def test_cli_run_sweep_compare(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    out = tmp_path / "run.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 0
    assert out.exists()

    sweep_dir = tmp_path / "sweep"
    rc = cli_main(
        [
            "sweep",
            "--config",
            str(cfg_path),
            "--key",
            "compressor.retain",
            "--values",
            "0.25,1.0",
            "--out-dir",
            str(sweep_dir),
        ]
    )
    assert rc == 0
    assert (sweep_dir / "compressor.retain=0.25.csv").exists()
    assert (sweep_dir / "compressor.retain=1.0.csv").exists()

    rc = cli_main(
        [
            "compare",
            str(sweep_dir / "compressor.retain=0.25.csv"),
            str(sweep_dir / "compressor.retain=1.0.csv"),
            "--threshold",
            "0.5",
        ]
    )
    assert rc == 0
    assert "uplink bytes" in capsys.readouterr().out

    # seed override changes the output
    out2 = tmp_path / "run2.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out2), "--seed", "9"]) == 0
    assert out.read_bytes() != out2.read_bytes()


def test_cli_reports_errors(tmp_path, capsys):
    bad = tmp_path / "bad.ini"
    bad.write_text("[hyper]\nK = 0\n")
    rc = cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x.csv")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_cli_refuses_a_missing_out_directory_before_the_run(tmp_path, capsys, monkeypatch):
    def no_run(cfg, out_path):
        raise AssertionError("the run started")

    monkeypatch.setattr("fedcef.cli.run_experiment", no_run)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    missing = tmp_path / "missing"
    for out, message in (
        (missing / "x.csv", f"--out directory {str(missing)!r} does not exist"),
        (tmp_path, f"--out {str(tmp_path)!r} is a directory"),
    ):
        assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
    assert list(tmp_path.iterdir()) == [cfg_path]


def test_cli_reports_a_memory_error_in_one_line(tmp_path, capsys, monkeypatch):
    def out_of_memory(cfg, out_path):  # what numpy raises for [hyper] B = 100000000000
        raise MemoryError("Unable to allocate 745. GiB for an array with shape (100000000000,) and data type int64")

    monkeypatch.setattr("fedcef.cli.run_experiment", out_of_memory)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")]) == 1
    assert capsys.readouterr().err == (
        "error: Unable to allocate 745. GiB for an array with shape (100000000000,) and data type int64\n"
    )


def test_python_dash_m_runs_the_cli():
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedcef.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    a, b = (os.path.join(GOLDEN, f"demo-{name}.csv") for name in ("fedcef", "prox_fedavg"))
    proc = subprocess.run(
        [sys.executable, "-m", "fedcef", "compare", a, b], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == compare_runs(a, b).render() + "\n"
    assert "uplink bytes" in proc.stdout


def test_demo_on_one_blas_thread_writes_the_golden_bytes(tmp_path):
    # the replay contract holds per BLAS library and thread count; the goldens
    # are checked in-process under the host's setting, this run pins one thread
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedcef.__file__)))
    config = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "configs", "demo.ini")
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    )
    out = tmp_path / "demo.csv"
    proc = subprocess.run(
        [sys.executable, "-m", "fedcef", "run", "--config", config, "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    with open(os.path.join(GOLDEN, "demo-fedcef.csv"), "rb") as fh:
        assert out.read_bytes() == fh.read()


def test_a_flat_problem_runs_and_its_infinite_bounds_round_trip(tmp_path):
    # all-zero shards: every f_i is constant, so L = 0 and no step condition binds
    prob = stacked(LossKind("squared_error"), 4, [np.zeros((3, 4))] * 2, [np.ones(3)] * 2)
    assert prob.smoothness == 0.0
    hp = HyperParams(alpha=0.1, eta_g=1.0, K=2, eta=1.0, B=FULL, T=3)
    series = run_fedcef(prob, regularizers.Regularizer(0.1), hp, compressors.CompressorSpec("topk", 0.5), 0).series
    assert series.conditions.all_ok and series.conditions.beta_bound == math.inf
    path = tmp_path / "flat.csv"
    write_metrics_csv(str(path), series, {})
    assert "beta_bound=inf " in path.read_text()
    meta, rows = read_metrics_csv(str(path))
    assert (meta["beta_bound"], meta["alpha_bound"], meta["beta_ok"]) == ("inf", "inf", "1")
    assert float(meta["beta_bound"]) == math.inf
    assert rows == series.rows
    assert [r.F for r in rows] == [0.5] * (hp.T + 1)


def test_runconfig_helpers_validate():
    cfg = RunConfig(comp_kind="topk", comp_retain=2.0)
    with pytest.raises(ValueError):
        cfg.compressor()


@pytest.mark.parametrize("lam, reg", [("0", regularizers.Regularizer()), ("3", regularizers.Regularizer(3.0))])
def test_regularizer_lambda_builds_its_weight(lam, reg):
    # lambda = 0 is h = 0; a negative lambda is rejected (see
    # test_rejected_configs_stay_rejected)
    cfg = parse_config(f"[regularizer]\nlambda = {lam}\n")
    assert cfg.reg_lambda == float(lam) and cfg.echo()["regularizer.lambda"] == lam
    assert cfg.regularizer() == reg


def test_hetero_quadratic_via_config(tmp_path):
    # samples is ignored by this loss, so samples < clients must not trip
    # the sample-count validation
    cfg = parse_config(
        "[problem]\nloss = hetero_quadratic\np = 6\nsamples = 1\nclients = 4\n"
        "[hyper]\nalpha = 0.001\nK = 5\nT = 8\nB = full\n"
        "[regularizer]\nlambda = 0\n"
        "[compressor]\nkind = topk\nretain = 1.0\n"
    )
    series = run_experiment(cfg, str(tmp_path / "hetero.csv"))
    assert len(series.rows) == 9
    assert series.rows[-1].F < series.rows[0].F


def test_randk_via_config(tmp_path):
    cfg = parse_config(BASE_CONFIG, {"compressor.kind": "randk", "compressor.retain": "0.25"})
    assert cfg.compressor().resolve_k(cfg.p) == 2
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(cfg, str(a))
    run_experiment(cfg, str(b))
    assert a.read_bytes() == b.read_bytes()  # compressor draws replay per seed


def test_dimension_one_pipeline(tmp_path):
    cfg = parse_config(
        "[problem]\nloss = squared_error\np = 1\nsamples = 12\nclients = 2\npartition = iid\n"
        "[hyper]\nalpha = 0.05\nK = 2\nT = 5\nB = full\n"
        "[compressor]\nkind = topk\nretain = 0.5\n"
    )
    series = run_experiment(cfg, str(tmp_path / "p1.csv"))
    # any ratio is full retention at p = 1, which transmits dense: 4 bytes per
    # client per round
    assert series.rows[-1].uplink_bytes_cum == 5 * 2 * 4


def test_compare_rejects_foreign_csv(tmp_path):
    bad = tmp_path / "foreign.csv"
    bad.write_text("a,b,c\n1,2,3\n")
    good = tmp_path / "good.csv"
    cfg = parse_config("[hyper]\nalpha = 0.01\nK = 1\nT = 2\nB = full\n[problem]\nsamples = 30\nclients = 2\n")
    run_experiment(cfg, str(good))
    with pytest.raises(ConfigError, match="schema"):
        compare_runs(str(good), str(bad))
    # the writer's header lines over a column line it never writes, or over none
    head, _ = _header_and_rows(good)
    for columns, message in ((["t,F\n"], "unexpected column header 't,F'"), ([], "missing column header")):
        bad.write_text("".join(head[:-1] + columns))
        with pytest.raises(ConfigError, match=f"^{re.escape(str(bad))}: {message}$"):
            read_metrics_csv(str(bad))


@pytest.mark.parametrize(
    "text",
    [
        "[compressor]\nkind = topk\nretain = 1.5\n",
        "[compressor]\nkind = identity\n",
        "[compressor]\nkind = randk\nretain = 0\n",
        "[compressor]\nkind = randk\nretain = 0.0\n",
        "[compressor]\nkind = randk\nretain = 21\n",
        "[compressor]\nkind = sign\n",
        "[compressor]\nretain = 10%\n",
        "[compressor]\nretain = 1e999\n",
        "[hyper]\nK = 0\n",
        "[hyper]\nT = 0\n",
        "[hyper]\neta = 0\n",
        "[hyper]\neta = 1.5\n",
        "[hyper]\nalpha = 0\n",
        "[hyper]\nalpha = inf\n",
        "[hyper]\neta_g = nan\n",
        "[hyper]\neta = nan\n",
        "[hyper]\neta_g = -1\n",
        "[hyper]\nB = 0\n",
        "[hyper]\nB = abc\n",
        "[hyper]\npreset = mnist-like\n",
        "[regularizer]\nlambda = -1\n",
        "[regularizer]\nlambda = nan\n",
        "[regularizer]\nkind = l1\n",
        "[regularizer]\nkind = zero\n",
        "[problem]\npartition = iid\nalpha_d = 0\n",
        "[problem]\nalpha_d = inf\n",
        "[problem]\npartition = shards\n",
        "[problem]\nsamples = 2\nclients = 5\n",
        "[problem]\np = 0\n",
        "[problem]\nloss = hinge\n",
        "[algorithm]\nname = sgd\n",
        "[run]\nseed = x\n",
        "[run]\nlyapunov = maybe\n",
    ],
)
def test_rejected_configs_stay_rejected(text):
    with pytest.raises(ConfigError):
        parse_config(text)


def config_keys(meta):
    """The `section.key -> value` overrides of a CSV header; keys without a
    dot (derived header facts) are not config."""
    return {key: value for key, value in meta.items() if "." in key}


_positive = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)


@st.composite
def run_configs(draw):
    clients, p = draw(st.integers(1, 50)), draw(st.integers(1, 10**6))
    alpha, eta_g, K = draw(_positive), draw(_positive), draw(st.integers(1, 10**4))
    assume(0 < alpha * eta_g * K < math.inf)  # beta, which HyperParams requires finite and positive
    return RunConfig(
        loss=draw(st.sampled_from(LOSS_VARIANTS)),
        p=p,
        samples=draw(st.integers(clients, 10**7)),
        clients=clients,
        partition=draw(st.sampled_from((IID, DIRICHLET))),
        alpha_d=draw(_positive),
        algorithm=draw(st.sampled_from(ALGORITHMS)),
        alpha=alpha,
        eta_g=eta_g,
        K=K,
        eta=draw(st.floats(min_value=0.0, max_value=1.0, exclude_min=True)),
        B=draw(st.just("full") | st.integers(1, 10**4)),
        T=draw(st.integers(1, 10**5)),
        reg_lambda=draw(st.floats(min_value=0.0, allow_infinity=False)),
        comp_kind=draw(st.sampled_from(compressors.KINDS)),
        comp_retain=draw(
            st.integers(1, 100).map(lambda j: j / 100) | st.floats(min_value=0.0, max_value=1.0, exclude_min=True)
        ),
        seed=draw(st.integers(0, 2**64 - 1)),  # the seeds a config accepts
        lyapunov=draw(st.booleans()),
    )


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cfg=run_configs())
def test_echo_round_trips_through_the_table_and_the_csv(cfg, tmp_path):
    assert parse_config("", cfg.echo()) == cfg
    rep = StepConditionReport(False, 1e-4, True, 49.5, True, 0.016)
    row = MetricsRow(0, 1.0, 0.5, 0, 80, 3, None, False)
    path = tmp_path / "echo.csv"
    write_metrics_csv(str(path), MetricsSeries("fedcef", 1.0, 0.0, 1.0, rep, [row]), cfg.echo())
    meta, rows = read_metrics_csv(str(path))
    assert parse_config("", config_keys(meta)) == cfg
    assert rows == [row]


# every float class a cell must carry: signed zeros, subnormals, the largest
# finite values and the infinities; NaN is left out, as it equals nothing
_cell_floats = st.floats(allow_nan=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072009e-308, sys.float_info.max, -sys.float_info.max]
)
_cell_ints = st.integers(0, 2**63 - 1)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    cells=st.lists(
        st.tuples(_cell_floats, _cell_floats, _cell_ints, _cell_ints, _cell_ints, st.none() | _cell_floats, st.booleans()),
        min_size=1,
        max_size=4,
    ),
    verdicts=st.tuples(st.booleans(), st.booleans(), st.booleans()),
    bounds=st.tuples(_cell_floats, _cell_floats, _cell_floats),
)
def test_rows_round_trip_through_the_csv_bit_for_bit(cells, verdicts, bounds, tmp_path):
    rows = [MetricsRow(t, *c) for t, c in enumerate(cells)]
    rep = StepConditionReport(*(v for pair in zip(verdicts, bounds) for v in pair))
    path = tmp_path / "rows.csv"
    write_metrics_csv(str(path), MetricsSeries("fedcef", 1.0, 0.0, 1.0, rep, rows), {})
    meta, got = read_metrics_csv(str(path))
    # repr tells -0.0 from 0.0 and prints each float's shortest round-trip digits
    assert repr(got) == repr(rows)
    for f in dataclasses.fields(StepConditionReport):
        value = getattr(rep, f.name)
        if f.type == "bool":
            assert meta[f.name] == str(int(value))
        else:
            assert repr(float(meta[f.name])) == repr(value)


def test_sweep_key_goes_through_the_table(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    out_dir = tmp_path / "sweep"
    args = ["sweep", "--config", str(cfg_path), "--values", "2,3", "--out-dir"]
    assert cli_main(args + [str(out_dir), "--key", "hyper.k"]) == 0
    two, three = out_dir / "hyper.K=2.csv", out_dir / "hyper.K=3.csv"
    assert "# cfg hyper.K = 2\n" in two.read_text()
    assert two.read_bytes() != three.read_bytes()
    for key in ("problem.pp", "bogus.x", "hyper"):
        bad_dir = tmp_path / key
        assert cli_main(args + [str(bad_dir), "--key", key]) == 1
        assert not bad_dir.exists()
    assert "unknown" in capsys.readouterr().err


def test_a_refused_retain_is_rejected_before_running(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    out_dir = tmp_path / "sweep"
    args = ["sweep", "--config", str(cfg_path), "--key", "compressor.retain", "--values", "0.5,2"]
    assert cli_main(args + ["--out-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: [compressor] retain = '2': {RATIO}\n"
    assert not out_dir.exists()
    cfg_path.write_text(BASE_CONFIG.replace("retain = 0.25", "retain = 4"))
    out = tmp_path / "x.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: [compressor] retain = '4': {RATIO}\n"
    assert not out.exists()


@pytest.mark.parametrize("seed", ["-1", str(2**64)])
def test_a_seed_outside_the_stream_range_is_rejected_before_running(seed, tmp_path, capsys):
    # derive_stream folds a seed mod 2**64, so -1 would replay 2**64 - 1 and
    # 2**64 would replay 0, each under its own echo
    message = f"[run] seed = '{seed}': must lie in [0, 2**64)"
    with pytest.raises(ConfigError, match=re.escape(message)):
        parse_config(BASE_CONFIG.replace("seed = 3", f"seed = {seed}"))
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    out, out_dir = tmp_path / "x.csv", tmp_path / "sweep"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out), f"--seed={seed}"]) == 1
    sweep = ["sweep", "--config", str(cfg_path), "--key", "run.seed", "--values", f"1,{seed}", "--out-dir"]
    assert cli_main(sweep + [str(out_dir)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n" * 2
    assert not out.exists() and not out_dir.exists()


def test_sweep_rejects_a_repeated_value_before_running(tmp_path, capsys):
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    out_dir = tmp_path / "sweep"
    args = ["sweep", "--config", str(cfg_path), "--key", "run.seed", "--values", "1, 2,1", "--out-dir", str(out_dir)]
    assert cli_main(args) == 1
    assert capsys.readouterr().err == "error: --values repeats '1'\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("threshold", [math.nan, math.inf, -math.inf])
def test_compare_rejects_a_non_finite_threshold(threshold, capsys):
    a = os.path.join(GOLDEN, "demo-fedcef.csv")
    with pytest.raises(ConfigError, match="^threshold .* must be finite$"):
        compare_runs(a, a, threshold)
    assert cli_main(["compare", a, a, f"--threshold={threshold}"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: threshold {threshold!r} must be finite\n" and not captured.out


STEP_WARNING = "warning: step sizes violate the sufficient convergence conditions; proceeding\n"


def _run_cli(*args):
    """`python -m fedcef <args>` on demo.ini in a fresh interpreter, whose
    warning filters are Python's defaults."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(fedcef.__file__)))
    config = os.path.join(os.path.dirname(os.path.dirname(GOLDEN)), "configs", "demo.ini")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-m", "fedcef", args[0], "--config", config, *args[1:]],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_cli_prints_the_step_condition_warning_as_one_line(tmp_path):
    out = tmp_path / "demo.csv"
    proc = _run_cli("run", "--out", str(out))
    assert proc.returncode == 0
    assert proc.stderr == STEP_WARNING
    assert proc.stdout == f"wrote {out}\n"


def test_cli_sweep_prints_the_step_condition_warning_once_per_run(tmp_path):
    """Every run of demo.ini violates the step conditions, so a sweep over
    three values warns three times, although Python's default filter shows
    a warning once per source line."""
    values = ["0.01", "0.1", "1.0"]
    proc = _run_cli("sweep", "--key", "compressor.retain", "--values", ",".join(values), "--out-dir", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stderr == STEP_WARNING * 3
    assert proc.stdout == "".join(f"wrote {tmp_path / f'compressor.retain={v}.csv'}\n" for v in values)


def test_cli_prints_no_step_warning_for_the_baselines(tmp_path):
    """Only fedcef warns about its step sizes: prox_fedavg and pgd runs of
    demo.ini, which violate the conditions too, print nothing on stderr and
    record the report in the `# conditions:` header line."""
    values = ["prox_fedavg", "pgd"]
    proc = _run_cli("sweep", "--key", "algorithm.name", "--values", ",".join(values), "--out-dir", str(tmp_path))
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout == "".join(f"wrote {tmp_path / f'algorithm.name={v}.csv'}\n" for v in values)
    for v in values:
        meta, _ = read_metrics_csv(str(tmp_path / f"algorithm.name={v}.csv"))
        assert (meta["beta_ok"], meta["eta_g_ok"], meta["alpha_ok"]) == ("0", "0", "0")


def test_cli_leaves_other_warnings_to_the_filters(tmp_path, monkeypatch, capsys):
    # the suite's "ignore" filter for the step-condition warning still wins,
    # and its "error" filter still turns any other warning into an error
    def warn_and_run(cfg, out):
        warnings.warn("step sizes violate", StepConditionWarning)
        warnings.warn("some other warning", UserWarning)

    monkeypatch.setattr("fedcef.cli.run_experiment", warn_and_run)
    cfg_path = tmp_path / "exp.ini"
    cfg_path.write_text(BASE_CONFIG)
    with pytest.raises(UserWarning, match="^some other warning$"):
        cli_main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")])
    assert capsys.readouterr().err == ""


def test_compare_rejects_runs_of_different_rounds(tmp_path):
    long_csv, short_csv = tmp_path / "long.csv", tmp_path / "short.csv"
    run_experiment(parse_config(BASE_CONFIG), str(long_csv))
    run_experiment(parse_config(BASE_CONFIG, {"hyper.T": "3"}), str(short_csv))
    with pytest.raises(ConfigError, match="long.csv.*short.csv"):
        compare_runs(str(long_csv), str(short_csv))


@pytest.mark.parametrize("algorithm, T, row", [("fedcef", 40, 18), ("prox_fedavg", 40, 17), ("pgd", 200, 81)])
def test_cli_reports_a_diverging_run(tmp_path, capsys, algorithm, T, row):
    cfg_path = tmp_path / "diverge.ini"
    cfg_path.write_text(
        "[problem]\nloss = squared_error\np = 20\nsamples = 200\nclients = 2\npartition = iid\n"
        f"[algorithm]\nname = {algorithm}\n[hyper]\nalpha = 5\nK = 10\nB = full\nT = {T}\n"
        "[compressor]\nkind = topk\nretain = 1.0\n"
    )
    out = tmp_path / "x.csv"
    # F overflows at `row`, before any local pass does; the suite's "error"
    # filter fails this test on any RuntimeWarning a step or measurement lets out
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert re.fullmatch(rf"error: non-finite measurement at row {row}: F = inf, \|\|G\|\|\^2 = \S+\n", err), err
    assert not out.exists()


def test_cli_rejects_a_beta_that_underflows_before_writing(tmp_path, capsys):
    cfg_path = tmp_path / "tiny.ini"
    cfg_path.write_text("[hyper]\nalpha = 1e-200\neta_g = 1e-200\n")
    with pytest.raises(ConfigError, match=r"^\[hyper\] beta "):
        parse_config(cfg_path.read_text())
    out = tmp_path / "x.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: [hyper] beta ")
    assert not out.exists()


@pytest.mark.parametrize(
    "samples, clients, alpha_d, err",
    [
        ("12", "12", "0.05", "error: dirichlet partition left a client empty"),
        # finite, but numpy's gamma sum overflows: the proportions come back all zero
        ("240", "10", "1e308", "error: dirichlet concentration alpha_d=1e+308 "),
    ],
    ids=["starved", "overflow"],
)
def test_cli_reports_a_partition_failure(tmp_path, capsys, samples, clients, alpha_d, err):
    cfg_path = tmp_path / "starved.ini"
    cfg_path.write_text(
        f"[problem]\nloss = logistic\np = 5\nsamples = {samples}\nclients = {clients}\n"
        f"partition = dirichlet\nalpha_d = {alpha_d}\n\n[hyper]\nK = 1\nT = 2\n"
    )
    out = tmp_path / "x.csv"
    assert cli_main(["run", "--config", str(cfg_path), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(err)
    assert not out.exists()


def _header_and_rows(path):
    lines = path.read_text().splitlines(keepends=True)
    split = next(i for i, line in enumerate(lines) if not line.startswith("#")) + 1
    return lines[:split], lines[split:]


@pytest.mark.parametrize("cut", ["truncated", "unparsable"])
def test_cli_compare_reports_a_malformed_row(tmp_path, capsys, cut):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    run_experiment(parse_config(BASE_CONFIG), str(good))
    head, rows = _header_and_rows(good)
    last = rows[-1].split(",")
    last = last[:3] if cut == "truncated" else ["x"] + last[1:]
    bad.write_text("".join(head + rows[:-1]) + ",".join(last))
    assert cli_main(["compare", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    column = ", column t: " if cut == "unparsable" else ": expected 8 columns, got 3"
    assert err.startswith("error:") and f"{bad}, line {len(head) + len(rows)}{column}" in err


@pytest.mark.parametrize(
    "fault",
    ["condition_token", "round_order", "conditions_meta", "blank_line", "seed_set_twice", "bare_comment"]
    # header values no writer produces, as a value and as a condition token
    + ["beta_value", "beta_ok_token"]
    # cells Python's int() or float() would take, but no writer produces
    + [
        pytest.param((column, cell), id=f"{column}={cell!r}")
        for column in ("nnz", "F")
        for cell in (" 80 ", "1_7", "+3", "3.0")
    ],
)
def test_cli_compare_rejects_a_row_no_writer_produces(tmp_path, capsys, fault):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    run_experiment(parse_config(BASE_CONFIG), str(good))
    head, rows = _header_and_rows(good)
    if fault == "condition_token":
        rows[-1] = rows[-1].rstrip("\n").rsplit(",", 1)[0] + ",yes\n"
        lineno = len(head) + len(rows)
    elif isinstance(fault, tuple):
        column, cell = fault
        cells = rows[-1].rstrip("\n").split(",")
        cells[head[-1].rstrip("\n").split(",").index(column)] = cell
        rows[-1] = ",".join(cells) + "\n"
        lineno = len(head) + len(rows)
    elif fault == "conditions_meta":
        j = next(j for j, line in enumerate(head) if line.startswith("# conditions:"))
        head[j] = "# conditions: beta_ok\n"
        lineno = j + 1
    elif fault in ("beta_value", "beta_ok_token"):
        j = next(j for j, line in enumerate(head) if line.startswith("# beta =" if fault == "beta_value" else "# conditions:"))
        head[j] = "# beta = banana\n" if fault == "beta_value" else re.sub(r"beta_ok=[01]", "beta_ok=yes", head[j])
        lineno = j + 1
    elif fault == "blank_line":
        rows.insert(1, "\n")
        lineno = len(head) + 2
    elif fault in ("seed_set_twice", "bare_comment"):
        # appended after the rows, a second run.seed would change the run the echo re-runs
        rows.append("# cfg run.seed = 5\n" if fault == "seed_set_twice" else "# note\n")
        lineno = len(head) + len(rows)
    else:
        rows[1] = "7," + rows[1].split(",", 1)[1]
        lineno = len(head) + 2
    bad.write_text("".join(head + rows))
    assert cli_main(["compare", str(good), str(bad)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and f"{bad}, line {lineno}" in err
    if fault == "condition_token":
        assert f"{bad}, line {lineno}, column condition_ok: 'yes' is not a value the writer writes" in err
    if isinstance(fault, tuple):
        assert f"{bad}, line {lineno}, column {fault[0]}: " in err
    if fault == "beta_value":
        assert f"{bad}, line {lineno}, beta: could not convert string to float: 'banana'" in err
    if fault == "beta_ok_token":
        assert f"{bad}, line {lineno}, beta_ok: 'yes' is not a value the writer writes" in err
    if fault == "blank_line":
        assert f"{bad}, line {lineno}: expected 8 columns, got 1" in err
    if fault == "seed_set_twice":
        assert f"{bad}, line {lineno}: run.seed was already set" in err
    if fault == "bare_comment":
        assert f"{bad}, line {lineno}: 'note' is not key=value" in err


def test_cli_compare_reports_header_only_csvs(tmp_path, capsys):
    full, a, b = tmp_path / "full.csv", tmp_path / "a.csv", tmp_path / "b.csv"
    run_experiment(parse_config(BASE_CONFIG), str(full))
    head, _ = _header_and_rows(full)
    a.write_text("".join(head))
    b.write_text("".join(head))
    assert cli_main(["compare", str(a), str(b)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and str(a) in err
