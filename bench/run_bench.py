#!/usr/bin/env python3
"""fedcef benchmark: one workload, one seed, one process.

    python3 bench/run_bench.py --workload hetero_drift --seed 3 --seconds 55 --trace 0

Run from the repository root; fedcef is imported from ``src/`` next to this
directory. The workload config is generated from the seed (see
``workloads.py``), set up several times (the median is ``setup_s``), warmed
up with a short run, then run repeatedly for ``--seconds``; every run's
outputs are checked against ``reference.json`` and against the first run's
CSV bytes. A fixed pure-Python loop, ``host_kernel``, is timed before every
run, and ``run_s`` and ``setup_s`` are rescaled by it to a fixed host speed
(see ``HOST_KERNEL_REF_S``); the wall times are printed and saved alongside.

``--trace 0`` prints the end-to-end metrics. ``--trace 1`` alternates
untraced and traced runs and prints the per-layer metrics from the traced
ones (see ``tracer.py``); the spans are saved under ``bench/_out``.

The last line of stdout is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``.
Earlier lines describe the environment and label each metric as measured or
computed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
import warnings

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(BENCH_DIR, "_out")

# A set-up batch repeats the set-up until it has taken this long (or
# SETUP_BATCH_MAX times), so cheap set-ups give many samples per batch.
SETUP_BATCH_S = 0.05
SETUP_BATCH_MAX = 50

# On a shared 2-vCPU host the speed of the same code swings by up to 50% over
# minutes with the neighbours' load (process CPU time swings with wall time,
# so this is not descheduling). host_kernel, a fixed pure-Python loop that no
# fedcef change touches, is timed HOST_KERNEL_REPS times before every run,
# and the reported times are multiplied by HOST_KERNEL_REF_S / (median kernel
# time of the invocation): they are seconds at the host speed where the
# kernel takes HOST_KERNEL_REF_S. In two ten-run sets at 55 s per run, the
# wall-time medians of wide_p2000 were 11% apart between the sets and the
# rescaled ones 1% (hetero_drift: 5% and 6%); within a set, rescaling moved
# the spread of the ten medians from 0.12 and 0.13 of their median to 0.09
# and 0.11 on hetero_drift, and from 0.09 and 0.08 to 0.07 and 0.10 on
# wide_p2000. Over a 10-minute trace of hetero_drift runs it cut the spread
# of 55 s windows' medians from 0.23 to 0.10, where a small-array numpy
# kernel gave 0.17.
HOST_KERNEL_REF_S = 0.035
HOST_KERNEL_REPS = 4


def host_kernel() -> int:
    s = 0
    d = {}
    for i in range(300_000):
        s += i * i % 7
        d[i & 63] = s
    return s


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _limit_blas_threads() -> None:
    # must run before numpy is imported; an explicit setting in the
    # environment wins
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, str(nproc()))


def _import_fedcef() -> None:
    if not os.path.isfile(os.path.join(SRC, "fedcef", "__init__.py")):
        raise SystemExit(f"run_bench: no fedcef sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import fedcef

    if not os.path.abspath(fedcef.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"run_bench: imported fedcef from {fedcef.__file__}, not from {SRC}")


def git_sha(root: str) -> str | None:
    """HEAD commit read from the .git directory; None outside a git checkout."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
    except OSError:
        return None
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        with open(os.path.join(git, ref)) as fh:
            return fh.read().strip()
    except OSError:
        pass
    try:
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def blas_info() -> dict:
    import ctypes
    import glob

    import numpy as np

    info = {"threads_requested": os.environ.get("OPENBLAS_NUM_THREADS")}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (KeyError, TypeError):
        pass
    libdir = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libdir, "*openblas*")):
        try:
            lib = ctypes.CDLL(path)
            fn = getattr(lib, "scipy_openblas_get_num_threads64_", None) or getattr(
                lib, "openblas_get_num_threads", None
            )
        except OSError:
            continue
        if fn is not None:
            fn.restype = ctypes.c_int
            fn.argtypes = []
            info["threads"] = fn()
    return info


def environment(args, stream_seed: int, problem_seed: int) -> dict:
    import numpy as np

    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": nproc(),
        "machine": platform.machine(),
        "workload": args.workload,
        "seed": args.seed,
        "run_seed": stream_seed,
        "problem_seed": problem_seed,
        "run_seconds": args.seconds,
    }


def tail(samples: list[float]) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it (nearest
    rank), or the maximum when there are too few samples for one."""
    n = len(samples)
    ordered = sorted(samples)
    if n < 11:
        return "max", ordered[-1]
    pct = int(100 * (n - 10) / n)
    rank = max(1, -(-pct * n // 100))
    return f"p{pct}", ordered[rank - 1]


class Bench:
    def __init__(self, args) -> None:
        import workloads as W

        self.W = W
        self.args = args
        self.wl = W.WORKLOADS[args.workload]
        self.stream_seed = W.stream_seed(args.seed)
        self.text = self.wl.config(self.stream_seed)
        self.ref = W.load_reference()["workloads"][args.workload][str(self.stream_seed)]
        self.attempted = 0
        self.failed = 0
        self.first_csvs = None
        self.rep = 0
        self.outputs = None
        self.setup_times: list[float] = []
        self.kernel_times: list[float] = []
        self.setup_summaries: list[dict] = []
        self.plain: list[tuple[float, None]] = []  # untraced runs: (seconds, None)
        self.traced: list[tuple[float, dict]] = []  # traced runs: (seconds, span summary)

    def setup_batch(self, tracer=None):
        """Set up at least once and for at least SETUP_BATCH_S; returns (cfg, problem)."""
        cfg = prob = None
        start = time.perf_counter()
        for _ in range(SETUP_BATCH_MAX):
            prob = None  # release the previous problem before building the next
            if tracer is None:
                t0 = time.perf_counter()
                cfg, prob = self.W.setup(self.text)
                self.setup_times.append(time.perf_counter() - t0)
            else:
                with tracer, tracer.span("bench.setup") as root:
                    cfg, prob = self.W.setup(self.text)
                summary = tracer.summarize(root.idx)
                self.setup_times.append(summary["_root"]["s"])
                self.setup_summaries.append(summary)
            if time.perf_counter() - start >= SETUP_BATCH_S:
                break
        return cfg, prob

    def measure(self, seconds: float, tracer=None) -> None:
        """Runs for ``seconds``, with set-up batches between the first runs.

        Spreading the set-ups over the window, not bunching them at the
        start, lets their median see the same machine conditions as the
        runs'. With a tracer, runs alternate untraced and traced and every
        set-up is traced.
        """
        start = time.perf_counter()
        cfg = prob = None
        while True:
            enough = min(len(self.plain), len(self.traced)) >= 2 if tracer else len(self.plain) >= 3
            if enough:
                # stop when the next run would end more than half a run past
                # the window, so that an invocation lasts about ``seconds``
                typical = statistics.median(t for t, _ in self.plain + self.traced)
                if time.perf_counter() - start + typical / 2 >= seconds:
                    break
            if self.attempted >= 3 and not (self.plain or self.traced):
                break  # every run so far raised; do not spin for the whole window
            if prob is None or len(self.setup_times) < 3 or sum(self.setup_times) < seconds / 10:
                cfg = prob = None  # release the current problem before building the next
                cfg, prob = self.setup_batch(tracer)
                if self.attempted == 0:
                    self.warm_up(cfg, prob)
            for _ in range(HOST_KERNEL_REPS):
                t0 = time.perf_counter()
                host_kernel()
                self.kernel_times.append(time.perf_counter() - t0)
            use = tracer if tracer is not None and len(self.traced) < len(self.plain) else None
            got = self.one_run(cfg, prob, use)
            if got is not None:
                (self.plain if use is None else self.traced).append(got)

    def warm_up(self, cfg, prob) -> None:
        """A short untimed run, so that first-call costs stay out of the samples."""
        import dataclasses

        short = dataclasses.replace(cfg, T=min(cfg.T, 3))
        tag = f"{self.args.workload}-seed{self.args.seed}-warmup"
        out = self.W.run(short, prob, self.wl, OUT_DIR, tag)
        for name in out.series:
            os.remove(os.path.join(OUT_DIR, f"{tag}-{name}.csv"))

    def one_run(self, cfg, prob, tracer=None):
        """One checked run; returns (seconds, tracer summary), or None if it
        raised. A run whose outputs fail the check still returns its timing."""
        W = self.W
        self.attempted += 1
        self.rep += 1
        tag = f"{self.args.workload}-seed{self.args.seed}-rep{self.rep}"
        summary = None
        try:
            if tracer is None:
                t0 = time.perf_counter()
                out = W.run(cfg, prob, self.wl, OUT_DIR, tag)
                elapsed = time.perf_counter() - t0
            else:
                tracer.reset_counts()
                with tracer, tracer.span("bench.run") as root:
                    out = W.run(cfg, prob, self.wl, OUT_DIR, tag)
                summary = tracer.summarize(root.idx)
                summary["_counts"] = dict(tracer.counts)
                summary["_rows"] = sum(len(s.rows) for s in out.series.values())
                summary["_T"] = cfg.T
                elapsed = summary["_root"]["s"]
            W.read_csvs(out, OUT_DIR, tag)
            problems = W.check(out, self.ref, self.first_csvs)
        except Exception:  # a run that raises is counted, reported and survived
            traceback.print_exc()
            self.failed += 1
            return None
        finally:
            for name in ("fedcef", "prox_fedavg"):
                path = os.path.join(OUT_DIR, f"{tag}-{name}.csv")
                if os.path.exists(path):
                    os.remove(path)
        if problems:
            self.failed += 1
            for msg in problems:
                print(f"# check failed (run {self.rep}): {msg}", file=sys.stderr)
        if self.first_csvs is None:
            self.first_csvs = out.csv_bytes
        self.outputs = out
        return elapsed, summary

    def result(self, metrics: dict) -> dict:
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
        }


def end_to_end(bench: Bench, args) -> tuple[dict, dict]:
    bench.measure(args.seconds)
    if not bench.plain:
        raise SystemExit("run_bench: every run raised")
    kernel_s = statistics.median(bench.kernel_times)
    scale = HOST_KERNEL_REF_S / kernel_s
    timed = "measured, rescaled to host_kernel speed"
    run_times = [t * scale for t, _ in bench.plain]
    setup_times = [t * scale for t in bench.setup_times]
    out = bench.W.outputs(bench.outputs)
    run_s = statistics.median(run_times)
    steps = bench.outputs.local_steps
    tail_name, tail_val = tail(run_times)
    metrics = {
        "run_s": (run_s, "s", timed),
        "local_steps_per_s": (steps / run_s, "steps/s", "computed from run_s"),
        "setup_s": (statistics.median(setup_times), "s", timed),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", "measured"),
        "final_F": (out["final_F"], "1", "output"),
        "final_prox_grad_sq": (out["final_prox_grad_sq"], "1", "output"),
        "wire_bytes": (out["wire_bytes"], "B", "output"),
    }
    extra = {
        "host_kernel_s": kernel_s,
        "host_scale": scale,
        "run_wall_s_samples": [t for t, _ in bench.plain],
        "setup_wall_s_samples": bench.setup_times,
        "run_s_samples": run_times,
        "run_s_tail": {"percentile": tail_name, "value": tail_val, "n": len(run_times)},
        "setup_s_samples": setup_times,
        "error_rate": bench.failed / bench.attempted,
        "local_steps_per_run": steps,
        "outputs": out,
    }
    print(
        f"# host_kernel median {kernel_s:.6f} s over {len(bench.kernel_times)} timings; "
        f"times x {scale:.6f}; run wall median {statistics.median(t for t, _ in bench.plain):.6f} s"
    )
    print(f"# run_s median {run_s:.6f} s, {tail_name} {tail_val:.6f} s, n={len(run_times)}")
    print(f"# setup_s median over {len(setup_times)} set-ups")
    print(f"# error_rate {extra['error_rate']:.6g} ({bench.failed}/{bench.attempted})")
    return metrics, extra


def _get(summary: dict, name: str, field: str) -> float:
    return summary.get(name, {}).get(field, 0)


def per_layer(bench: Bench, args) -> tuple[dict, dict]:
    from tracer import Tracer, installed_wrappers

    tracer = Tracer()
    bench.measure(args.seconds, tracer)
    plain, traced, setup_sums = bench.plain, bench.traced, bench.setup_summaries
    leftover = installed_wrappers()
    if leftover:
        raise SystemExit(f"run_bench: tracer wrappers left installed: {leftover}")
    if not plain or not traced:
        raise SystemExit("run_bench: every run raised")
    tracer.save(os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}.npz"))

    def med(fn, sums):
        return float(statistics.median(fn(s) for s in sums))

    runs = [s for _, s in traced]
    sg = "problems.stochastic_gradient"
    M = {}

    def put(name, fn, unit, kind="measured", sums=runs):
        M[name] = (med(fn, sums), unit, kind)

    put(f"{sg}.calls", lambda s: _get(s, sg, "calls"), "count", "computed")
    put(f"{sg}.s", lambda s: _get(s, sg, "s"), "s")
    put(f"{sg}.us_per_call", lambda s: 1e6 * _get(s, sg, "s") / max(1, _get(s, sg, "calls")), "us")
    put(f"{sg}.samples", lambda s: s["_counts"]["sg.samples"], "count", "computed")
    put(f"{sg}.gather_bytes", lambda s: s["_counts"]["sg.gather_bytes"], "B", "computed")
    put(
        "problems.gradient_gflops",
        lambda s: s["_counts"]["sg.flops"] / _get(s, sg, "s") / 1e9 if _get(s, sg, "s") else 0.0,
        "GFLOP/s",
        "computed (4*B*p flops per call over measured busy time)",
    )
    put("algorithms.local_update.calls", lambda s: _get(s, "algorithms.local_update", "calls"), "count", "computed")
    put("algorithms.local_update.self_s", lambda s: _get(s, "algorithms.local_update", "self_s"), "s")
    for name in (
        "metrics.prox_gradient_mapping",
        "problems.full_global_gradient",
        "problems.objective_value",
        "compressors.compress",
        "core.derive_stream",
        "regularizers.prox",
    ):
        put(f"{name}.calls", lambda s, n=name: _get(s, n, "calls"), "count", "computed")
        put(f"{name}.s", lambda s, n=name: _get(s, n, "s"), "s")
    put(
        "metrics.shard_passes_per_row",
        lambda s: s["_counts"]["measure.shard_passes"] / s["_rows"],
        "passes/row",
        "computed",
    )
    put("compressors.retained_entries", lambda s: s["_counts"]["compress.retained"], "count", "computed")
    put(
        "compressors.retained_frac",
        lambda s: s["_counts"]["compress.retained"] / max(1, s["_counts"]["compress.dim"]),
        "fraction",
        "computed",
    )
    put(
        "compressors.uplink_bytes_per_round",
        lambda s: s["_counts"]["compress.bytes"] / s["_T"],
        "B",
        "computed",
    )
    put("algorithms.client_uplink.self_s", lambda s: _get(s, "algorithms.client_uplink", "self_s"), "s")
    for name in (
        "algorithms.server_aggregate",
        "algorithms.client_downlink",
        "algorithms.server_finalize",
        "metrics.lyapunov_diagnostic",
        "harness.write_metrics_csv",
    ):
        put(f"{name}.s", lambda s, n=name: _get(s, n, "s"), "s")
    put(
        "algorithms.run.self_s",
        lambda s: _get(s, "algorithms.run_fedcef", "self_s") + _get(s, "algorithms.run_prox_fedavg", "self_s"),
        "s",
    )
    put("problems.client_gradient.calls", lambda s: _get(s, "problems.client_gradient", "calls"), "count", "computed")
    for name in (
        "problems.generate_synthetic",
        "problems.estimate_smoothness",
        "harness.build_problem",
        "harness.parse_config",
    ):
        put(f"{name}.s", lambda s, n=name: _get(s, n, "s"), "s", sums=setup_sums)
    overhead = statistics.median(t for t, _ in traced) - statistics.median(t for t, _ in plain)
    M["trace.overhead_s"] = (overhead, "s", "measured (traced run_s minus untraced run_s)")
    put(
        "trace.coverage",
        lambda s: (s["_root"]["s"] - s["_root"]["self_s"]) / s["_root"]["s"],
        "fraction",
        "measured (summed span self times over traced wall time)",
    )
    extra = {
        "untraced_run_s": [t for t, _ in plain],
        "traced_run_s": [t for t, _ in traced],
        "traced_setups": len(setup_sums),
        "error_rate": bench.failed / bench.attempted,
    }
    print(f"# traced runs {len(traced)}, untraced runs {len(plain)}, traced set-ups {len(setup_sums)}")
    print(f"# trace.overhead_s {overhead:.6f} s, trace.coverage {M['trace.coverage'][0]:.4f}")
    return M, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    _limit_blas_threads()
    _import_fedcef()
    import workloads as W
    from fedcef.algorithms import StepConditionWarning

    if args.workload not in W.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(W.WORKLOADS)}")
    warnings.filterwarnings("ignore", category=StepConditionWarning)
    warnings.filterwarnings("ignore", message="power iteration hit the iteration cap")
    os.makedirs(OUT_DIR, exist_ok=True)

    bench = Bench(args)
    env = environment(args, bench.stream_seed, W.PROBLEM_SEED)
    print("# env " + json.dumps(env, sort_keys=True))
    metrics, extra = (per_layer if args.trace else end_to_end)(bench, args)
    for name, (value, unit, kind) in metrics.items():
        print(f"# {name:45s} {value:>18.9g} {unit:10s} {kind}")
    result = bench.result(metrics)
    record = {"env": env, "result": result, "kinds": {k: m[2] for k, m in metrics.items()}, "detail": extra}
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
