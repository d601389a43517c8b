"""Cross-domain information-gain estimation and redistribution.

Three probability heads score a positive (user, item) pair: one from the
user's source-domain view, one from the target view, and a joint head that
fuses both views through a small feed-forward estimator network. The gain
of a group is the mean log ratio log(p_joint / (p_source * p_target)) over
the group's overlapping-user positives, and the redistribution penalty is
the squared difference of the two group gains.

The estimator is trained once per epoch against a self-supervised target:
map the previous epoch's (target, source) user embeddings to the current
target embedding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import G0, G1, group_means
from .errors import DataError
from .numerics import PROB_CEIL, PROB_FLOOR, clamp_prob, distinct_rows, sigmoid
from .seeding import make_rng


class GainEstimator:
    """Feed-forward map from concatenated [target; source] user vectors to a
    fused d-vector. ReLU hidden layers, linear output; dropout applies only
    while the estimator itself is being trained.
    """

    def __init__(self, d: int, hidden=(128, 64), dropout: float = 0.2, seed: int = 0):
        if d < 1:
            raise DataError("embedding dimension must be >= 1")
        if not 0.0 <= dropout < 1.0:
            raise DataError("dropout must lie in [0, 1)")
        self.d = d
        self.hidden = tuple(int(h) for h in hidden)
        self.dropout = dropout
        rng = make_rng(seed, "gain-estimator-init")
        sizes = [2 * d, *self.hidden, d]
        self.weights = []
        self.biases = []
        for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
            limit = np.sqrt(6.0 / (fan_in + fan_out))
            self.weights.append(rng.uniform(-limit, limit, size=(fan_out, fan_in)))
            self.biases.append(np.zeros(fan_out))
        # Zero final layer: the fused vector starts at 0, so the joint head
        # starts at probability 1/2 for every pair.
        self.weights[-1][:] = 0.0

    @property
    def n_layers(self) -> int:
        return len(self.weights)

    def forward(self, x: np.ndarray, dropout_rng=None):
        """Batched forward pass. Returns (output, cache) where the cache
        holds inputs and hidden activations for backprop. Dropout (inverted,
        on hidden activations) is applied only when a dropout RNG is given.
        """
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acts = [x]
        masks = []
        h = x
        for layer in range(self.n_layers - 1):
            a = h @ self.weights[layer].T + self.biases[layer]
            h = np.maximum(a, 0.0)
            if dropout_rng is not None and self.dropout > 0.0:
                keep = 1.0 - self.dropout
                mask = (dropout_rng.random(h.shape) < keep) / keep
                h = h * mask
                masks.append(mask)
            else:
                masks.append(None)
            acts.append(h)
        out = h @ self.weights[-1].T + self.biases[-1]
        return out, {"acts": acts, "masks": masks}

    def _back(self, cache, g: np.ndarray, layer: int) -> np.ndarray:
        """Gradient ``g`` of layer ``layer``'s output carried to its input: times
        its weights, then, above layer 0, the input's dropout mask and ReLU gate."""
        g = g @ self.weights[layer]
        if layer > 0:
            mask = cache["masks"][layer - 1]
            if mask is not None:
                g = g * mask
            g = g * (cache["acts"][layer] > 0)
        return g

    def input_gradient(self, cache, upstream: np.ndarray) -> np.ndarray:
        """Gradient of (output . upstream) with respect to the input rows."""
        g = np.atleast_2d(upstream)
        for layer in range(self.n_layers - 1, -1, -1):
            g = self._back(cache, g, layer)
        return g

    def weight_gradients(self, cache, d_out: np.ndarray):
        """Backprop d_out (batch x d) to per-layer weight/bias gradients."""
        grads_w = [None] * self.n_layers
        grads_b = [None] * self.n_layers
        g = np.atleast_2d(d_out)
        for layer in range(self.n_layers - 1, -1, -1):
            grads_w[layer] = g.T @ cache["acts"][layer]
            grads_b[layer] = g.sum(axis=0)
            if layer > 0:
                g = self._back(cache, g, layer)
        return grads_w, grads_b

    def parameters(self) -> dict:
        out = {}
        for k in range(self.n_layers):
            out[f"w{k}"] = self.weights[k]
            out[f"b{k}"] = self.biases[k]
        return out


@dataclass
class GainReport:
    delta_i: dict
    redistribution_loss: float
    n_samples: dict


# -- probability heads --------------------------------------------------------


def _gain_terms(backbone, estimator, users, items, groups, with_cache=False):
    """Probability heads over the overlapping-user samples of a batch, with
    the inputs (and, ``with_cache``, the forward cache) their gradients
    need; the per-sample log(p_joint / (p_source * p_target)) terms; and the
    samples' groups.

    The estimator's input depends only on the user, so without ``with_cache``
    it runs once per distinct user and its output is gathered per sample.
    ``with_cache``, which the penalty's backward needs, runs it on the
    samples' own rows: OpenBLAS computes a product of fewer than about 1,200
    entries with another kernel, so a forward over the distinct users could
    change a small batch's trained bits."""
    users = np.asarray(users, dtype=np.int64)
    s_slots = backbone.linked_row[users]
    mask = s_slots >= 0
    users, items, s_slots = users[mask], np.asarray(items, dtype=np.int64)[mask], s_slots[mask]
    u_t = backbone.user_pool[users]
    u_s = backbone.user_pool[s_slots]
    i_t = backbone.item_target[items]
    if with_cache:
        fused, cache = estimator.forward(estimator_inputs(backbone, users))
    else:
        distinct, slot = distinct_rows(users, len(backbone.linked_row))
        fused, _ = estimator.forward(estimator_inputs(backbone, distinct))
        fused, cache = fused[slot], None
    heads = {
        "users": users, "items": items, "u_t": u_t, "u_s": u_s, "i_t": i_t,
        "s_slots": s_slots, "fused": fused, "cache": cache,
        "p_s": clamp_prob(sigmoid(np.einsum("bd,bd->b", u_s, i_t))),
        "p_t": clamp_prob(sigmoid(np.einsum("bd,bd->b", u_t, i_t))),
        "p_j": clamp_prob(sigmoid(np.einsum("bd,bd->b", fused, i_t))),
    }
    terms = np.log(heads["p_j"]) - np.log(heads["p_s"]) - np.log(heads["p_t"])
    return heads, terms, np.asarray(groups)[mask]


def estimate_gain(backbone, estimator: GainEstimator, users, items, groups) -> GainReport:
    """Per-group mean log(p_joint / (p_source * p_target)) over the
    overlapping-user positives in the batch. A group without qualifying
    samples contributes gain 0 and is flagged by n_samples.
    """
    if np.size(users) == 0:
        raise DataError("empty batch")
    _, terms, sample_groups = _gain_terms(backbone, estimator, users, items, groups)
    counts, means = group_means(terms, sample_groups)
    delta = {g: 0.0 if mean is None else mean for g, mean in means.items()}
    gap = delta[G0] - delta[G1]
    return GainReport(delta_i=delta, redistribution_loss=float(gap * gap), n_samples=counts)


def redistribution_grads(backbone, estimator: GainEstimator, users, items, groups):
    """Redistribution penalty value and its analytic gradients with respect
    to the backbone embeddings, holding the estimator's weights fixed
    (gradients still flow through its forward pass).

    Returns (value, grads) where grads lists (table, rows, grad_rows)
    contributions for the pool and target item table. Batches where fewer
    than two groups are represented contribute zero.
    """
    heads, terms, sample_groups = _gain_terms(backbone, estimator, users, items, groups,
                                              with_cache=True)
    counts, means = group_means(terms, sample_groups)
    if min(counts.values()) == 0:
        return 0.0, []
    gap = means[G0] - means[G1]
    value = gap * gap

    # d value / d term_k: 2*gap * (+1/n0 for g0, -1/n1 for g1)
    coeff = np.where(sample_groups == G0, 2.0 * gap / counts[G0], -2.0 * gap / counts[G1])

    # Clamped probabilities are flat; zero those samples' head gradients.
    def live(p):
        return (p > PROB_FLOOR) & (p < PROB_CEIL)

    c_j = coeff * (1.0 - heads["p_j"]) * live(heads["p_j"])
    c_s = -coeff * (1.0 - heads["p_s"]) * live(heads["p_s"])
    c_t = -coeff * (1.0 - heads["p_t"]) * live(heads["p_t"])

    i_t, u_t, u_s, fused = heads["i_t"], heads["u_t"], heads["u_s"], heads["fused"]
    d_x = estimator.input_gradient(heads["cache"], c_j[:, None] * i_t)
    d = backbone.d

    g_ut = c_t[:, None] * i_t + d_x[:, :d]
    g_us = c_s[:, None] * i_t + d_x[:, d:]
    g_it = c_j[:, None] * fused + c_s[:, None] * u_s + c_t[:, None] * u_t

    grads = [
        ("user_pool", heads["users"], g_ut),
        ("user_pool", heads["s_slots"], g_us),
        ("item_target", heads["items"], g_it),
    ]
    return value, grads


# -- estimator training --------------------------------------------------------


def estimator_inputs(backbone, overlap_targets) -> np.ndarray:
    """The estimator's input rows, [target; source] user vectors, of the
    overlapping target users ``overlap_targets``, refusing any other user."""
    rows = np.asarray(overlap_targets, dtype=np.int64)
    linked = backbone.linked_row[rows]
    if (linked < 0).any():
        raise DataError(f"target user {rows[linked < 0][0]} has no source identity")
    return np.concatenate([backbone.user_pool[rows], backbone.user_pool[linked]], axis=1)


def estimator_step(estimator: GainEstimator, x_all: np.ndarray, y_all: np.ndarray,
                   optimizer, rng, batch_size: int = 2048) -> float:
    """One optimizer sweep, dropout active, fitting fused(``x_all``) to
    ``y_all``: each overlapping user's [target; source] vectors from the
    epoch start (``estimator_inputs``) to their current target vector.
    Returns the mean per-user squared-error loss."""
    n = len(x_all)
    if n == 0:
        raise DataError("gain module requires overlapping users")
    total = 0.0
    for lo in range(0, n, batch_size):
        x = x_all[lo: lo + batch_size]
        y = y_all[lo: lo + batch_size]
        out, cache = estimator.forward(x, dropout_rng=rng)
        resid = out - y
        loss = float((resid ** 2).sum() / len(x))
        total += loss * len(x)
        d_out = 2.0 * resid / len(x)
        grads_w, grads_b = estimator.weight_gradients(cache, d_out)
        for k in range(estimator.n_layers):
            optimizer.step(f"w{k}", estimator.weights[k], grads_w[k])
            optimizer.step(f"b{k}", estimator.biases[k], grads_b[k])
    return total / n
