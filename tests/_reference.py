"""The tests' own per-row oracle: each loss, its gradient, the batch draws
and the sigma^2 estimate, written one client and one row at a time; and
`stacked`, which builds a data-loss problem from hand-made shards.

src's oracles and engine are checked against these functions, not against
themselves. Each gradient is computed in the order src's oracle computes
it, so the bits match and an assertion can be `array_equal` or `==`. Only
the tests of src's oracles import `client_gradient`, `stochastic_gradient`
or `_sigmoid` from `fedcef.problems`.
"""

import numpy as np

from fedcef.problems import FULL, FederatedProblem


def stacked(loss, dim, features, labels, **fields):
    """The data-loss problem whose client i holds the rows features[i] and
    the labels labels[i]: both lists stacked client-major into one matrix
    and one vector, with the offsets of their lengths, the layout
    generate_synthetic builds. `fields` are FederatedProblem's other fields."""
    offsets = np.cumsum([0] + [len(a) for a in features])
    return FederatedProblem(loss, dim, np.concatenate(features), np.concatenate(labels), offsets, **fields)


def masked_sigmoid(u):
    """1 / (1 + e^-u) by a mask per sign, so exp never overflows: the formula
    `problems._sigmoid` replaced, whose bits it must keep."""
    out = np.empty_like(u)
    pos = u >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-u[pos]))
    eu = np.exp(u[~pos])
    out[~pos] = eu / (1.0 + eu)
    return out


def _sigmoid_weights(z, y):
    s = masked_sigmoid(-y * z)
    return -y * s * (1.0 - s)


# Each data loss as (per-sample loss, per-sample gradient weight w) of the
# margins z = a @ x and the labels y: sample s's gradient is w_s * a_s.
LOSSES = {
    "squared_error": (lambda z, y: 0.5 * (z - y) ** 2, lambda z, y: z - y),
    "logistic": (lambda z, y: np.logaddexp(0.0, -y * z), lambda z, y: -y * masked_sigmoid(-y * z)),
    "sigmoid_nonconvex": (lambda z, y: masked_sigmoid(-y * z), _sigmoid_weights),
}


def draw(stream, prob, i, B):
    """One step's B sample indices of client i's shard, drawn with
    replacement from the stream step by step, not as the engine's one (K, B)
    draw; None under B = FULL and on hetero_quadratic, which has no shard."""
    return None if B == FULL or prob.closed_form else stream.integers(0, prob.features[i].shape[0], size=B)


def row_gradient(prob, i, x, idx=None):
    """Client i's gradient at the (p,) row x: the mean over its samples idx,
    or over its whole shard when idx is None. hetero_quadratic reads no
    sample, so it ignores idx."""
    if prob.closed_form:
        return prob.curvatures[i] * (x - prob.centers[i])
    a, y = prob.features[i], prob.labels[i]
    if idx is not None:
        a, y = a[idx], y[idx]
    return (a.T @ LOSSES[prob.loss.variant][1](a @ x, y)) / a.shape[0]


def client_loss(prob, i, x):
    """f_i(x): the mean of client i's per-sample losses, or
    0.5 sum_j H_ij (x_j - m_ij)^2 on hetero_quadratic."""
    if prob.closed_form:
        d = x - prob.centers[i]
        return float(0.5 * np.sum(prob.curvatures[i] * d * d))
    a, y = prob.features[i], prob.labels[i]
    return float(np.mean(LOSSES[prob.loss.variant][0](a @ x, y)))


def fd_gradient(f, x, h=1e-6):
    """The central difference (f(x + h e_j) - f(x - h e_j)) / 2h in every coordinate j."""
    g = np.zeros_like(x)
    for j in range(x.size):
        e = np.zeros_like(x)
        e[j] = h
        g[j] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def gradient_variance(prob, z):
    """Empirical sigma^2 at z: the largest over clients of the mean squared
    deviation of the single-sample gradients w_s * a_s from the client's
    full gradient. hetero_quadratic is deterministic, so its sigma^2 is 0."""
    if prob.closed_form:
        return 0.0
    weight = LOSSES[prob.loss.variant][1]
    worst = 0.0
    for i, (a, y) in enumerate(zip(prob.features, prob.labels)):
        dev = a * weight(a @ z, y)[:, None] - row_gradient(prob, i, z)
        worst = max(worst, float(np.mean(np.sum(dev * dev, axis=1))))
    return worst
