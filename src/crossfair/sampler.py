"""Group-aware negative sampling.

Per-group recommendation losses are smoothed across epochs with momentum;
the relative gap between a user's group and the group average sets a
softmax temperature, and negatives are drawn from a small random candidate
set of the user's non-interacted items with probability proportional to
exp(score / temperature). A disadvantaged group (above-average loss) gets a
temperature below one and therefore harder negatives.
"""

from __future__ import annotations

import math

import numpy as np

from .data import GROUPS
from .errors import DataError, NumericalError
from .numerics import softmax

ALPHA_EPS = 1e-12


class GroupLossTracker:
    """Momentum-smoothed per-group mean training losses.

    Per-sample losses are accumulated during an epoch; ``end_epoch`` folds
    the epoch means into the running exponential moving average with
    coefficient ``beta``. A group with no samples in a later epoch keeps its
    previous smoothed value.
    """

    def __init__(self, beta: float = 0.9):
        if not 0.0 <= beta < 1.0:
            raise DataError("beta must lie in [0, 1)")
        self.beta = beta
        self.ema = None  # smoothed loss by group id, from the first completed epoch on
        self._sums = np.zeros(len(GROUPS))
        self._counts = np.zeros(len(GROUPS), np.int64)
        self.epochs_completed = 0

    def accumulate_many(self, groups, losses):
        groups = np.asarray(groups)
        losses = np.asarray(losses, dtype=np.float64)
        if not np.all(np.isfinite(losses)):
            raise NumericalError("non-finite loss in batch")
        known = np.isin(groups, GROUPS)
        if not np.all(known):
            raise DataError(f"unknown group {groups[~known][0].item()!r}")
        self._sums += [losses[groups == g].sum() for g in GROUPS]
        self._counts += [np.count_nonzero(groups == g) for g in GROUPS]

    def end_epoch(self) -> dict:
        seen = self._counts > 0
        if self.ema is None:
            if not seen.all():
                raise DataError(f"group {GROUPS[np.argmin(seen)]!r} has no samples "
                                "in the first epoch")
            self.ema = self._sums / self._counts
        else:
            current = np.divide(self._sums, self._counts, out=self.ema.copy(), where=seen)
            self.ema = self.beta * self.ema + (1.0 - self.beta) * current
        self._sums, self._counts = np.zeros_like(self._sums), np.zeros_like(self._counts)
        self.epochs_completed += 1
        return dict(zip(GROUPS, self.ema.tolist()))

    def alpha(self, group) -> float:
        """Relative gap of the group's smoothed loss against the group average."""
        if group not in GROUPS:
            raise DataError(f"unknown group {group!r}")
        if self.ema is None:
            raise DataError("alpha undefined before the first completed epoch")
        avg = self.ema.mean()  # (e0 + e1) / 2
        if abs(avg) <= ALPHA_EPS:
            raise NumericalError("degenerate losses: group average is ~0")
        return float((self.ema[group] - avg) / avg)

    def state(self) -> dict:
        ema = [None] * len(GROUPS) if self.ema is None else self.ema.tolist()
        return {
            "beta": self.beta,
            "ema": {str(g): ema[g] for g in GROUPS},
            "epochs_completed": self.epochs_completed,
        }


def temperature(alpha: float, epsilon: float) -> float:
    """Softmax temperature exp(-epsilon * alpha); 1 when epsilon is 0."""
    if epsilon < 0:
        raise DataError("epsilon must be >= 0")
    try:
        return math.exp(-epsilon * alpha)
    except OverflowError:
        raise NumericalError(f"temperature exp(-epsilon * alpha) overflows at epsilon "
                             f"{epsilon:g}, alpha {alpha:g}") from None


class NegativePool:
    """Per-user arrays of items eligible as negatives (training positives
    excluded; validation/test positives stay in, being unknown at train time).

    Eligible arrays are stored back to back as int32 item ids, with int64
    offsets, so batched draws stay vectorized; each user's items are in
    ascending order.
    """

    def __init__(self, n_items: int, train_pairs: np.ndarray, n_users: int):
        eligible = np.ones((n_users, n_items), dtype=bool)
        eligible[train_pairs[:, 0], train_pairs[:, 1]] = False
        self.lengths = eligible.sum(axis=1, dtype=np.int64)
        self.starts = np.zeros(n_users, dtype=np.int64)
        np.cumsum(self.lengths[:-1], out=self.starts[1:])
        # the item id of every eligible cell, in row-major order
        self.flat = np.broadcast_to(np.arange(n_items, dtype=np.int32), eligible.shape)[eligible]


def _rows_with_duplicates(idx: np.ndarray) -> np.ndarray:
    s = np.sort(idx, axis=1)
    return (s[:, 1:] == s[:, :-1]).any(axis=1)


def batch_candidates(pool: NegativePool, users: np.ndarray, size: int, rng):
    """Vectorized candidate draw for a batch of users.

    Returns (items, counts): an (n, size) matrix of item ids (-1 padding for
    shrunk rows) and the per-row candidate count. Each row is a uniform
    subset without replacement of the user's eligible items; the order
    within a row carries no meaning. Rows fall in three bands by their
    eligible count L:

    - L <= size: every eligible item, in ascending order;
    - L > size * (size - 1): index tuples drawn uniformly, and rows holding
      a duplicate redrawn whole; by the union bound a row has a duplicate
      with chance below 1/2, so fewer than two rounds are expected;
    - otherwise: Floyd's subset algorithm (Bentley & Floyd, CACM 1987), one
      column at a time for all rows at once. Column c draws t uniformly
      from [0, j] with j = L - size + c and keeps j instead when t is
      already taken, so every row gets exactly ``size`` distinct indices.
    """
    users = np.asarray(users, dtype=np.int64)
    lens = pool.lengths[users]
    if np.any(lens == 0):
        bad = users[lens == 0][0]
        raise DataError(f"user {bad} has no eligible negative items")
    n = len(users)
    items = np.full((n, size), -1, dtype=np.int64)
    counts = np.minimum(lens, size)

    take_all = lens <= size
    redraw = lens > size * (size - 1)
    floyd = ~take_all & ~redraw

    if np.any(redraw):
        highs = lens[redraw][:, None]
        idx = rng.integers(0, highs, size=(int(redraw.sum()), size))
        bad = _rows_with_duplicates(idx)
        while np.any(bad):
            idx[bad] = rng.integers(0, highs[bad], size=(int(bad.sum()), size))
            bad = _rows_with_duplicates(idx)
        items[redraw] = pool.flat[pool.starts[users[redraw]][:, None] + idx]

    if np.any(take_all):
        cols = np.arange(size)
        short = lens[take_all][:, None]
        idx = pool.starts[users[take_all]][:, None] + np.minimum(cols, short - 1)
        items[take_all] = np.where(cols < short, pool.flat[idx], -1)

    if np.any(floyd):
        band = lens[floyd]
        m, width = len(band), int(band.max())
        # column c draws from [0, j_c]: one call, consumed column by column
        j = band - size + np.arange(size)[:, None]
        t = rng.integers(0, j + 1)
        # taken[r * width + i]: index i is already in row r; width <= size * (size - 1)
        taken = np.zeros(m * width, dtype=bool)
        base = np.arange(m) * width
        for c in range(size):
            # every earlier pick in the row is below j_c, so j_c is always free
            np.copyto(t[c], j[c], where=taken[base + t[c]])
            taken[base + t[c]] = True
        items[floyd] = pool.flat[pool.starts[users[floyd]][:, None] + t.T]
    return items, counts


def _draw_rows(probs: np.ndarray, rng) -> np.ndarray:
    """Inverse-CDF draw of one column index per row."""
    c = np.cumsum(probs, axis=1)
    r = rng.random(probs.shape[0])
    j = (c < r[:, None]).sum(axis=1)
    return np.minimum(j, probs.shape[1] - 1)


def batch_sample_negatives(backbone, pool: NegativePool, users: np.ndarray,
                           taus: np.ndarray | None, size: int, rng) -> np.ndarray:
    """One negative per row, drawn from a fresh candidate set per row.

    With ``taus`` None the candidate scores are ignored (plain random
    sampling); otherwise a softmax at the per-row temperature is used.
    """
    users = np.asarray(users, dtype=np.int64)
    items, counts = batch_candidates(pool, users, size, rng)
    if taus is None:
        j = (rng.random(len(users)) * counts).astype(np.int64)
        j = np.minimum(j, counts - 1)
        return items[np.arange(len(users)), j]
    vecs = backbone.user_pool[users]
    safe_items = np.maximum(items, 0)
    scores = np.einsum("bd,bkd->bk", vecs, backbone.item_target[safe_items])
    scores[items < 0] = -np.inf
    probs = softmax(scores / taus[:, None])
    j = _draw_rows(probs, rng)
    return items[np.arange(len(users)), j]
