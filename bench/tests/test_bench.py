"""Tests of the benchmark itself: tracing is invisible in the outputs, the
tracer leaves nothing behind, and the output check catches wrong values.

    python3 -m pytest bench/tests -q
"""

import dataclasses
import json
import os
import shutil
import statistics
import subprocess
import sys

import pytest

import fedcef
import run_bench
import workloads as W
from fedcef.regularizers import Regularizer
from tracer import TARGETS, Tracer, installed_wrappers


def _short(name: str, T: int = 4):
    wl = W.WORKLOADS[name]
    cfg, prob = W.setup(wl.config(0))
    return wl, dataclasses.replace(cfg, T=T), prob


def _run(wl, cfg, prob, out_dir, tag):
    out = W.run(cfg, prob, wl, str(out_dir), tag)
    W.read_csvs(out, str(out_dir), tag)
    return out


def _namespaces():
    mods = [m for n, m in sys.modules.items() if n == "fedcef" or n.startswith("fedcef.")]
    snap = {(m.__name__, k): v for m in mods for k, v in vars(m).items() if callable(v)}
    snap[("Regularizer", "prox")] = Regularizer.__dict__["prox"]
    return snap


@pytest.mark.parametrize("name", ["cifar_default", "hetero_drift"])
def test_traced_csv_is_bit_identical(name, tmp_path):
    wl, cfg, prob = _short(name)
    plain = _run(wl, cfg, prob, tmp_path, "plain")
    tracer = Tracer()
    with tracer, tracer.span("bench.run") as root:
        traced = W.run(cfg, prob, wl, str(tmp_path), "traced")
    W.read_csvs(traced, str(tmp_path), "traced")
    assert traced.csv_bytes == plain.csv_bytes
    assert set(plain.csv_bytes) == ({"fedcef", "prox_fedavg"} if wl.baseline else {"fedcef"})
    summary = tracer.summarize(root.idx)
    for span in ("algorithms.local_update", "problems.stochastic_gradient", "regularizers.prox",
                 "compressors.compress", "core.derive_stream", "harness.write_metrics_csv"):
        assert summary[span]["calls"] > 0, span
    assert summary["algorithms.local_update"]["calls"] == prob.n_clients * cfg.T
    assert summary["problems.stochastic_gradient"]["calls"] == len(plain.series) * prob.n_clients * cfg.K * cfg.T


def test_self_times_add_up(tmp_path):
    wl, cfg, prob = _short("cifar_default")
    tracer = Tracer()
    with tracer, tracer.span("bench.run") as root:
        W.run(cfg, prob, wl, str(tmp_path), "t")
    s = tracer.summarize(root.idx)
    total_self = sum(v["self_s"] for k, v in s.items())
    assert total_self == pytest.approx(s["_root"]["s"], rel=1e-9)
    for v in s.values():
        assert v["self_s"] >= -1e-9 and v["self_s"] <= v["s"] + 1e-12


def test_wrappers_are_gone_afterwards(tmp_path):
    before = _namespaces()
    wl, cfg, prob = _short("hetero_drift", T=2)
    tracer = Tracer()
    with tracer:
        patched = _namespaces()
        assert installed_wrappers(), "install must patch something"
        # every target is wrapped in each namespace that binds it
        assert fedcef.algorithms.stochastic_gradient is not before[("fedcef.algorithms", "stochastic_gradient")]
        assert fedcef.metrics.objective_value is not before[("fedcef.metrics", "objective_value")]
        assert Regularizer.__dict__["prox"] is not before[("Regularizer", "prox")]
        W.run(cfg, prob, wl, str(tmp_path), "t")
    assert installed_wrappers() == []
    after = _namespaces()
    assert after.keys() == before.keys()
    for key, value in before.items():
        assert after[key] is value, key
    assert len(patched) == len(before)
    assert len({t[2] for t in TARGETS}) == len(TARGETS)


def test_wrappers_are_gone_after_an_exception():
    before = _namespaces()
    tracer = Tracer()
    with pytest.raises(ValueError):
        with tracer:
            fedcef.algorithms.derive_stream(0, "")  # empty label raises
    assert installed_wrappers() == []
    assert _namespaces() == before


def test_check_accepts_its_own_outputs_and_rejects_wrong_references(tmp_path):
    wl, cfg, prob = _short("hetero_drift", T=6)
    out = _run(wl, cfg, prob, tmp_path, "a")
    ref = W.outputs(out)
    assert W.check(out, ref, None) == []
    assert W.check(out, ref, out.csv_bytes) == []
    for key, wrong in (
        ("wire_bytes", ref["wire_bytes"] + 1),
        ("nnz", ref["nnz"] - 1),
        ("final_F", ref["final_F"] * (1 + 1e-6)),
        ("final_prox_grad_sq", ref["final_prox_grad_sq"] * (1 - 1e-6)),
    ):
        problems = W.check(out, dict(ref, **{key: wrong}), None)
        assert len(problems) == 1 and problems[0].startswith(key), problems
    within = dict(ref, final_F=ref["final_F"] * (1 + W.RTOL / 10))
    assert W.check(out, within, None) == []
    other = dict(out.csv_bytes, fedcef=out.csv_bytes["fedcef"] + b"x")
    assert any("CSV differs" in p for p in W.check(out, ref, other))


def test_check_rejects_baseline_beating_fedcef(tmp_path):
    wl, cfg, prob = _short("hetero_drift", T=6)
    out = _run(wl, cfg, prob, tmp_path, "a")
    out.series["prox_fedavg"].rows[-1].prox_grad_sq = 0.0
    assert any("not below prox_fedavg" in p for p in W.check(out, W.outputs(out), None))


def test_check_rejects_non_finite_rows(tmp_path):
    wl, cfg, prob = _short("cifar_default")
    out = _run(wl, cfg, prob, tmp_path, "a")
    ref = W.outputs(out)
    out.series["fedcef"].rows[1].F = float("nan")
    assert any("non-finite" in p for p in W.check(out, ref, None))


def test_reference_covers_every_stream_seed():
    ref = W.load_reference()
    assert ref["rtol"] == W.RTOL and ref["stream_seeds"] == W.STREAM_SEEDS
    assert ref["problem_seed"] == W.PROBLEM_SEED
    for name in W.WORKLOADS:
        assert sorted(ref["workloads"][name], key=int) == [str(i) for i in range(W.STREAM_SEEDS)]
    assert W.stream_seed(W.STREAM_SEEDS + 3) == 3 and W.stream_seed(-1) == W.STREAM_SEEDS - 1


def test_tail_percentile():
    assert run_bench.tail([3.0, 1.0, 2.0]) == ("max", 3.0)
    name, value = run_bench.tail([float(i) for i in range(1, 101)])
    assert name == "p90" and value == 90.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run_bench.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run_bench.py", "--workload", "cifar_default", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def _short_main(name, trace, tmp_path, monkeypatch, capsys, corrupt=None):
    """Run the real command on a 3-round version of a workload, against a
    reference recorded for that version (optionally corrupted)."""
    setup = W.setup

    def short_setup(text):
        cfg, prob = setup(text)
        return dataclasses.replace(cfg, T=3), prob

    wl = W.WORKLOADS[name]
    cfg, prob = short_setup(wl.config(5))
    ref = W.outputs(_run(wl, cfg, prob, tmp_path, "ref"))
    if corrupt:
        ref.update(corrupt)
    monkeypatch.setattr(W, "setup", short_setup)
    monkeypatch.setattr(W, "load_reference", lambda: {"workloads": {name: {"5": ref}}})
    monkeypatch.setattr(run_bench, "OUT_DIR", str(tmp_path))
    argv = ["--workload", name, "--seed", str(W.STREAM_SEEDS + 5), "--seconds", "0.01", "--trace", str(trace)]
    assert run_bench.main(argv) == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", ["cifar_default", "hetero_drift"])
def test_prints_every_declared_metric(name, trace, tmp_path, monkeypatch, capsys):
    result = _short_main(name, trace, tmp_path, monkeypatch, capsys)
    with open(os.path.join(run_bench.ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)["per_layer" if trace else "end_to_end"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= (4 if trace else 3)
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert installed_wrappers() == []
    if not trace:
        with open(tmp_path / f"result-{name}-seed{W.STREAM_SEEDS + 5}-trace0.json") as fh:
            detail = json.load(fh)["detail"]
        assert detail["host_scale"] == run_bench.HOST_KERNEL_REF_S / detail["host_kernel_s"]
        wall = statistics.median(detail["run_wall_s_samples"])
        assert result["metrics"]["run_s"]["value"] == pytest.approx(wall * detail["host_scale"], rel=1e-12)


def test_wrong_outputs_are_reported_not_hidden(tmp_path, monkeypatch, capsys):
    result = _short_main("cifar_default", 0, tmp_path, monkeypatch, capsys, corrupt={"nnz": -1})
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 3
