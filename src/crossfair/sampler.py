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
import multiprocessing
import os
import signal
from contextlib import suppress

import numpy as np

from .data import GROUPS
from .errors import CrossfairError, DataError, NumericalError
from .numerics import softmax

ALPHA_EPS = 1e-12
# How far ahead a ``DrawAhead`` child may run, in pipe bytes: 1 MB, Linux's
# default ceiling for an unprivileged process. At 2048 rows a batch that is
# dozens of batches of uniform negatives, so the child keeps drawing while
# training ranks, reports and fits between its batch loops; at the 64 KB
# default the training process waited out most of each draw.
PIPE_BYTES = 1 << 20


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


def draw_candidates(pool: NegativePool, users: np.ndarray, size: int, rng):
    """The parameter-free part of a negative draw: the candidate sets of
    ``batch_candidates``, then one uniform per row for the pick. Returns
    (items, counts, u)."""
    items, counts = batch_candidates(pool, users, size, rng)
    return items, counts, rng.random(len(counts))


def pick_negatives(backbone, users: np.ndarray, taus: np.ndarray | None, items: np.ndarray,
                   counts: np.ndarray, u: np.ndarray) -> np.ndarray:
    """One negative per row of drawn candidates, at the row's uniform ``u``.

    With ``taus`` None the pick is uniform over the row's ``counts``
    candidates and reads no parameters; otherwise it inverts, at ``u``, the
    CDF of the softmax of the candidates' current scores at the row's
    temperature. Neither passes the row's last real candidate, so a -1 pad is
    never picked, even where a row's cumulative sum ends just below one.
    """
    if taus is None:
        j = (u * counts).astype(np.int64)
    else:
        vecs = backbone.user_pool[users]
        scores = np.einsum("bd,bkd->bk", vecs, backbone.item_target[np.maximum(items, 0)])
        scores[items < 0] = -np.inf
        cdf = np.cumsum(softmax(scores / taus[:, None]), axis=1)
        j = (cdf < u[:, None]).sum(axis=1)
    return items[np.arange(len(items)), np.minimum(j, counts - 1)]


def batch_sample_negatives(backbone, pool: NegativePool, users: np.ndarray,
                           taus: np.ndarray | None, size: int, rng) -> np.ndarray:
    """One negative per row, drawn from a fresh candidate set per row.

    With ``taus`` None the candidate scores are ignored (plain random
    sampling, and ``backbone`` may be None); otherwise a softmax at the
    per-row temperature is used.
    """
    users = np.asarray(users, dtype=np.int64)
    return pick_negatives(backbone, users, taus, *draw_candidates(pool, users, size, rng))


def _threads() -> int | None:
    """How many OS threads this process runs, or None where that cannot be
    read (no ``/proc``)."""
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


def _fork_context():
    """multiprocessing's ``fork`` context, or None where this process should
    not fork a child: no ``fork`` start method, a daemonic multiprocessing
    process, which may not have children, or a process that runs more than
    one OS thread or whose threads cannot be counted. A thread that holds a
    lock at the fork leaves it held for good in the child, and Python 3.12
    warns on such a fork. BLAS pools count: OpenBLAS at its default thread
    count runs one thread per core, so a child is forked only where the BLAS
    pools are pinned to one thread (say, ``OPENBLAS_NUM_THREADS=1``)."""
    if "fork" not in multiprocessing.get_all_start_methods() \
            or multiprocessing.current_process().daemon or _threads() != 1:
        return None
    return multiprocessing.get_context("fork")


def _produce(producer, conn, reader):
    """The child's loop: send each message of ``producer`` as it is made.
    ``reader``, the pipe's read end the fork copied, is closed first, so the
    parent holds the only one: once the parent is gone, however it ended, a
    send fails and the child ends."""
    reader.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the parent's, which kills this child
    try:
        for message in producer:
            conn.send(message)
    except Exception as exc:  # the parent raises it where this message was due
        with suppress(OSError):  # unless the parent has gone
            conn.send(exc)


class DrawAhead:
    """The messages of ``producer``, an iterator that reads no model
    parameters, made ahead of their use in a forked child.

    The first ``next`` forks the child, which runs the producer and sends
    each message down a pipe as soon as it is made, on its own core. The
    pipe's buffer bounds how far ahead it runs: a send blocks while the pipe
    holds ``PIPE_BYTES``, or the system's default size where that cannot be
    set. Where ``_fork_context`` gives no context, the producer runs
    in-process. It is the same iterator either way, so ``next`` returns the
    same messages, and an exception the producer raises in the child comes
    out of the ``next`` that was due its message. A child that dies ends
    ``next`` with a ``CrossfairError`` naming how it ended. ``close`` (also
    on leaving a ``with`` block) kills and reaps the child.
    """

    def __init__(self, producer):
        self._producer = producer
        self._started = False
        self._proc = self._conn = None

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()

    def __next__(self):
        if not self._started:
            self._started = True
            ctx = _fork_context()
            if ctx is not None:
                self._conn, send = ctx.Pipe(duplex=False)
                import fcntl  # a Unix module, as fork is Unix only
                with suppress(AttributeError, OSError):  # Linux only; else the default size
                    fcntl.fcntl(send.fileno(), fcntl.F_SETPIPE_SZ, PIPE_BYTES)
                self._proc = ctx.Process(target=_produce,
                                         args=(self._producer, send, self._conn), daemon=True)
                self._proc.start()
                send.close()  # the child now holds the only write end: its exit is EOF here
        if self._proc is None:
            return next(self._producer)
        try:
            message = self._conn.recv()
        except (EOFError, OSError):
            self._proc.join()
            code = self._proc.exitcode
            how = f"was killed by signal {-code}" if code < 0 else f"exited with code {code}"
            raise CrossfairError(f"the negative-sampling process {how} before it sent "
                                 "all its draws") from None
        if isinstance(message, Exception):
            raise message
        return message

    def close(self):
        if self._proc is not None:
            self._proc.kill()
            self._proc.join()
            self._conn.close()
            self._proc = self._conn = None
