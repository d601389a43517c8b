"""Small numerically-stable primitives used across modules."""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import fields

import numpy as np

from .errors import DataError

PROB_FLOOR = 1e-7
PROB_CEIL = 1.0 - 1e-7


def sigmoid(x):
    """Stable logistic function, elementwise."""
    x = np.asarray(x, dtype=np.float64)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softplus(x):
    """log(1 + exp(x)) without overflow; softplus(-gap) is the BPR rank loss."""
    return np.logaddexp(0.0, x)


def softmax(logits, axis=-1):
    """Max-subtracted softmax; every row needs a finite logit (an all -inf row gives NaN)."""
    logits = np.asarray(logits, dtype=np.float64)
    m = np.max(logits, axis=axis, keepdims=True)
    z = np.exp(logits - m)
    return z / np.sum(z, axis=axis, keepdims=True)


def clamp_prob(p):
    """Clamp probabilities away from {0, 1} before taking logarithms."""
    return np.clip(p, PROB_FLOOR, PROB_CEIL)


def require_finite(cfg):
    """Refuse a config dataclass with a NaN or infinite float field; the range
    checks that follow can then compare without NaN slipping through."""
    for f in fields(cfg):
        value = getattr(cfg, f.name)
        if isinstance(value, float) and not np.isfinite(value):
            raise DataError(f"{f.name} must be finite, got {value!r}")


def distinct_rows(rows, n: int):
    """``np.unique(rows)`` for integer rows in ``[0, n)``, and each row's slot in it."""
    seen = np.zeros(n, dtype=bool)
    seen[rows] = True
    return np.flatnonzero(seen), (np.cumsum(seen) - 1)[rows]


@contextmanager
def read_only(arrays):
    """Clear each array's ``writeable`` flag for the block, so a write to one
    raises ``ValueError`` at the write; the flags are restored on exit."""
    flags = [(arr, arr.flags.writeable) for arr in arrays]
    try:
        for arr, _ in flags:
            arr.flags.writeable = False
        yield
    finally:
        for arr, writeable in flags:
            arr.flags.writeable = writeable
