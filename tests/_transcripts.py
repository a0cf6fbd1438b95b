"""Round transcripts of fedcef runs, recorded from outside the engine.

`recording()` wraps the local pass `_local_pass` and the phase functions
`client_uplink`, `server_aggregate` and `server_finalize` in the
`fedcef.algorithms` namespace, where the engine looks them up at call time,
as `bench/tracer.py` does. A transcript therefore comes from a real engine
run: the wrappers pass every argument and result through unchanged and only
copy what they see. The local pass is handed a `recorded` step rule, which
copies row j of the gradient block into the list of client rows[j] before
the real rule runs; how the engine groups the clients into passes, and how
it fills the block, does not matter. Only fedcef rounds end in
server_finalize, which takes the round's gradients, so record fedcef runs
alone. The originals are put back on exit, also when the body raises.
"""

from __future__ import annotations

import contextlib
import copy
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from fedcef import algorithms
from fedcef.algorithms import RoundState
from fedcef.compressors import SparsePayload

PHASES = ("_local_pass", "client_uplink", "server_aggregate", "server_finalize")


@dataclass
class RoundTranscript:
    """One fedcef round: the K gradients of every client, copies of the state
    after the local passes (before the uplink) and after the downlink, and
    the round's uplink and downlink payloads."""

    round: int
    gradients: np.ndarray  # (N, K, p)
    local: RoundState
    end: RoundState
    uplink_payload: SparsePayload  # every client's message, one row each
    downlink_payload: SparsePayload


def recorded(step, rows, gradients):
    """The step rule `step` of a pass over the clients in `rows`, which first
    appends a copy of row j of its gradient block g to gradients[rows[j]]."""

    def recording_step(hp, k, x_hat, x, g, *args):
        for j, i in enumerate(rows):
            gradients[i].append(g[j].copy())
        return step(hp, k, x_hat, x, g, *args)

    return recording_step


@contextlib.contextmanager
def recording():
    """Yield a list that gets one RoundTranscript per fedcef round run in
    the block, in order."""
    transcripts: list[RoundTranscript] = []
    originals = {name: getattr(algorithms, name) for name in PHASES}
    gradients: defaultdict[int, list[np.ndarray]] = defaultdict(list)
    pending: dict[str, object] = {}

    def _local_pass(st, rows, prob, reg, hp, seed, t, step, *args):
        originals["_local_pass"](st, rows, prob, reg, hp, seed, t, recorded(step, rows, gradients), *args)

    def client_uplink(st, hp, spec, seed, t):
        local = copy.deepcopy(st)
        payload, dense = originals["client_uplink"](st, hp, spec, seed, t)
        pending.update(round=t, local=local, uplink=payload)
        return payload, dense

    def server_aggregate(st, dense, hp):
        z_tilde = originals["server_aggregate"](st, dense, hp)
        pending["downlink"] = SparsePayload(z_tilde.size, True, np.empty(0, dtype=np.int64), z_tilde.copy())
        return z_tilde

    def server_finalize(st, z_tilde, reg, hp):
        originals["server_finalize"](st, z_tilde, reg, hp)
        counts = {i: len(gradients[i]) for i in sorted(gradients)}
        if counts != {i: hp.K for i in range(st.n_clients)}:
            raise AssertionError(f"round {pending['round']}: expected {hp.K} gradients per client, got {counts}")
        grads = np.array([gradients[i] for i in range(st.n_clients)])
        transcripts.append(
            RoundTranscript(
                pending["round"], grads, pending["local"], copy.deepcopy(st), pending["uplink"], pending["downlink"]
            )
        )
        gradients.clear()

    try:
        for wrapper in (_local_pass, client_uplink, server_aggregate, server_finalize):
            setattr(algorithms, wrapper.__name__, wrapper)
        yield transcripts
    finally:
        for name, fn in originals.items():
            setattr(algorithms, name, fn)
