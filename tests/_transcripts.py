"""Round transcripts of fedcef runs, recorded from outside the engine.

`recording()` wraps the phase functions `local_update`, `client_uplink`,
`server_aggregate` and `server_finalize`, and the gradient oracle
`stochastic_gradient`, in the `fedcef.algorithms` namespace, where the engine
looks them up at call time, as `bench/tracer.py` does. A transcript
therefore comes from a real engine run: the wrappers pass every argument and
result through unchanged and only copy what they see. The oracle writes into
a gradient block the pass reuses, so each gradient is copied when it is
returned. The originals are put back on exit, also when the body raises.
"""

from __future__ import annotations

import contextlib
import copy
from dataclasses import dataclass

import numpy as np

from fedcef import algorithms
from fedcef.algorithms import RoundState
from fedcef.compressors import SparsePayload

PHASES = ("local_update", "stochastic_gradient", "client_uplink", "server_aggregate", "server_finalize")


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


@contextlib.contextmanager
def recording():
    """Yield a list that gets one RoundTranscript per fedcef round run in
    the block, in order."""
    transcripts: list[RoundTranscript] = []
    originals = {name: getattr(algorithms, name) for name in PHASES}
    gradients: dict[int, list[np.ndarray]] = {}
    pending: dict[str, object] = {}

    def local_update(st, client, *args):
        gradients[client] = []
        originals["local_update"](st, client, *args)

    def stochastic_gradient(prob, client, *args, **kwargs):
        g = originals["stochastic_gradient"](prob, client, *args, **kwargs)
        if client in gradients:  # inside fedcef's local_update of that client
            gradients[client].append(g.copy())
        return g

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
        grads = np.array([gradients[i] for i in range(st.n_clients)])
        transcripts.append(
            RoundTranscript(
                pending["round"], grads, pending["local"], copy.deepcopy(st), pending["uplink"], pending["downlink"]
            )
        )
        gradients.clear()

    try:
        for wrapper in (local_update, stochastic_gradient, client_uplink, server_aggregate, server_finalize):
            setattr(algorithms, wrapper.__name__, wrapper)
        yield transcripts
    finally:
        for name, fn in originals.items():
            setattr(algorithms, name, fn)
