"""Outside-in span tracer for fedcef.

The tracer never edits the package. It replaces public functions with timing
wrappers in every ``fedcef`` module namespace that binds them (a module that
did ``from .problems import stochastic_gradient`` looks the name up in its own
globals, so that is where the wrapper has to go), plus ``Regularizer.prox`` on
its class. ``uninstall`` puts every original object back.

Each call records one span: name, start, end and parent span. Spans live in
flat in-memory arrays and are written out once, by ``save``. Work counters
(samples gathered, retained entries, ...) are computed from call arguments and
results, not measured.
"""

from __future__ import annotations

import functools
import sys
from array import array
from time import perf_counter

import numpy as np

from fedcef.compressors import payload_bytes
from fedcef.regularizers import Regularizer

MARKER = "__bench_span__"


def _sg_work(tracer, args, out):
    # stochastic_gradient(prob, client, x, B, rng): rows of shard data gathered
    prob, client, _x, B = args[:4]
    if prob.loss.variant == "hetero_quadratic":
        rows = 0  # closed-form oracle, no sample rows
    elif B == "full":
        rows = prob.features[client].shape[0]
    else:
        rows = B
    c = tracer.counts
    c["sg.samples"] += rows
    c["sg.flops"] += 4 * rows * prob.dim
    c["sg.gather_bytes"] += 8 * rows * prob.dim


def _compress_work(tracer, args, out):
    payload = out[0]
    c = tracer.counts
    c["compress.retained"] += payload.values.size
    c["compress.dim"] += payload.dim
    c["compress.bytes"] += payload_bytes(payload)


def _client_gradient_work(tracer, args, out):
    # a client gradient called from the Lyapunov diagnostic is 1/N of a full
    # pass over the shards; the others are local training or already counted
    caller = tracer._stack[-1]
    if caller >= 0 and tracer.name_id[caller] == tracer.ids.get("metrics.lyapunov_diagnostic"):
        tracer.counts["measure.shard_passes"] += 1.0 / args[0].n_clients


def _full_pass_work(tracer, args, out):
    tracer.counts["measure.shard_passes"] += 1.0


# (module, attribute, span name, work counter)
TARGETS = (
    ("fedcef.core", "derive_stream", "core.derive_stream", None),
    ("fedcef.problems", "generate_synthetic", "problems.generate_synthetic", None),
    ("fedcef.problems", "estimate_smoothness", "problems.estimate_smoothness", None),
    ("fedcef.problems", "stochastic_gradient", "problems.stochastic_gradient", _sg_work),
    ("fedcef.problems", "client_gradient", "problems.client_gradient", _client_gradient_work),
    ("fedcef.problems", "full_global_gradient", "problems.full_global_gradient", _full_pass_work),
    ("fedcef.problems", "objective_value", "problems.objective_value", _full_pass_work),
    ("fedcef.regularizers", "Regularizer.prox", "regularizers.prox", None),
    ("fedcef.compressors", "compress", "compressors.compress", _compress_work),
    ("fedcef.algorithms", "local_update", "algorithms.local_update", None),
    ("fedcef.algorithms", "client_uplink", "algorithms.client_uplink", None),
    ("fedcef.algorithms", "server_aggregate", "algorithms.server_aggregate", None),
    ("fedcef.algorithms", "client_downlink", "algorithms.client_downlink", None),
    ("fedcef.algorithms", "server_finalize", "algorithms.server_finalize", None),
    ("fedcef.algorithms", "run_fedcef", "algorithms.run_fedcef", None),
    ("fedcef.algorithms", "run_prox_fedavg", "algorithms.run_prox_fedavg", None),
    ("fedcef.metrics", "prox_gradient_mapping", "metrics.prox_gradient_mapping", None),
    ("fedcef.metrics", "lyapunov_diagnostic", "metrics.lyapunov_diagnostic", None),
    ("fedcef.harness", "parse_config", "harness.parse_config", None),
    ("fedcef.harness", "build_problem", "harness.build_problem", None),
    ("fedcef.harness", "write_metrics_csv", "harness.write_metrics_csv", None),
)


def _fedcef_modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "fedcef" or name.startswith("fedcef.")]


class Tracer:
    """Span recorder; ``install`` patches, ``uninstall`` restores."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        self._extent: dict[int, int] = {}  # root span -> index one past its last child
        self._patches: list[tuple[object, str, object]] = []
        self.reset_counts()

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
        return self.ids[name]

    def _open(self, name: str) -> int:
        idx = len(self.start)
        self.name_id.append(self._id(name))
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def span(self, name: str):
        """Context manager recording one span; used for the benchmark's roots."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(name)
                return self

            def __exit__(self, *exc):
                tracer._close(self.idx)
                tracer._extent[self.idx] = len(tracer.start)
                return False

        return _Span()

    def _wrap(self, fn, name: str, work):
        tracer = self
        nid = self._id(name)
        name_id, parent, start, end, stack = self.name_id, self.parent, self.start, self.end, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                work(tracer, args, out)
            return out

        setattr(wrapper, MARKER, name)
        return wrapper

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = _fedcef_modules()
        try:
            for mod_name, attr, span_name, work in TARGETS:
                if attr == "Regularizer.prox":
                    original = Regularizer.__dict__["prox"]
                    self._patches.append((Regularizer, "prox", original))
                    setattr(Regularizer, "prox", self._wrap(original, span_name, work))
                    continue
                original = getattr(sys.modules[mod_name], attr)
                wrapper = self._wrap(original, span_name, work)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> None:
        while self._patches:
            owner, key, original = self._patches.pop()
            setattr(owner, key, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> bool:
        self.uninstall()
        return False

    def reset_counts(self) -> None:
        self.counts = {
            "sg.samples": 0,
            "sg.flops": 0,
            "sg.gather_bytes": 0,
            "compress.retained": 0,
            "compress.dim": 0,
            "compress.bytes": 0,
            "measure.shard_passes": 0.0,
        }

    def summarize(self, root: int) -> dict[str, dict[str, float]]:
        """Per-name calls, inclusive seconds and self seconds of the spans
        recorded under root span ``root`` (opened with ``span``); the root
        itself is reported as ``_root``."""
        lo, hi = root, self._extent[root]
        # slicing an array.array copies it, so no buffer export outlives this call
        names = np.frombuffer(self.name_id[lo:hi], dtype=np.int32)
        parents = np.frombuffer(self.parent[lo:hi], dtype=np.int32) - lo
        dur = np.frombuffer(self.end[lo:hi], dtype=np.float64) - np.frombuffer(self.start[lo:hi], dtype=np.float64)
        child = np.zeros_like(dur)
        inside = parents >= 0  # false only for the root
        np.add.at(child, parents[inside], dur[inside])
        self_t = dur - child
        out: dict[str, dict[str, float]] = {}
        for nid in np.unique(names[1:]):
            mask = names == nid
            mask[0] = False
            out[self.names[nid]] = {
                "calls": int(mask.sum()),
                "s": float(dur[mask].sum()),
                "self_s": float(self_t[mask].sum()),
            }
        out["_root"] = {"calls": 1, "s": float(dur[0]), "self_s": float(self_t[0])}
        return out

    def save(self, path: str) -> None:
        """Write every span once: name, start, end, parent (-1 for roots)."""
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id, dtype=np.int32),
            start=np.array(self.start, dtype=np.float64),
            end=np.array(self.end, dtype=np.float64),
            parent=np.array(self.parent, dtype=np.int32),
        )


def installed_wrappers() -> list[str]:
    """Every tracer wrapper still reachable from a fedcef namespace."""
    found = []
    for mod in _fedcef_modules():
        for key, value in vars(mod).items():
            if hasattr(value, MARKER):
                found.append(f"{mod.__name__}.{key}")
    if hasattr(Regularizer.__dict__["prox"], MARKER):
        found.append("fedcef.regularizers.Regularizer.prox")
    return found
