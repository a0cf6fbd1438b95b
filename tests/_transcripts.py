"""Round transcripts of fedcef runs, recorded from outside the engine.

`recording()` wraps the gradient oracle `stochastic_gradient` and the phase
functions `client_uplink`, `server_aggregate` and `server_finalize` in the
`fedcef.algorithms` namespace, where the engine looks them up at call time,
as `bench/tracer.py` does. A transcript therefore comes from a real engine
run: the wrappers pass every argument and result through unchanged and only
copy what they see. The oracle writes into a gradient block the pass reuses,
so each gradient is copied when it is returned, into the list of the client
it names; how the engine groups the clients into passes does not matter.
Only fedcef rounds end in server_finalize, which takes the round's
gradients, so record fedcef runs alone. The originals are put back on exit,
also when the body raises.
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

PHASES = ("stochastic_gradient", "client_uplink", "server_aggregate", "server_finalize")


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
    gradients: defaultdict[int, list[np.ndarray]] = defaultdict(list)
    pending: dict[str, object] = {}

    def stochastic_gradient(prob, client, *args, **kwargs):
        g = originals["stochastic_gradient"](prob, client, *args, **kwargs)
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
        for wrapper in (stochastic_gradient, client_uplink, server_aggregate, server_finalize):
            setattr(algorithms, wrapper.__name__, wrapper)
        yield transcripts
    finally:
        for name, fn in originals.items():
            setattr(algorithms, name, fn)
