"""Full-ranking top-K evaluation, per-group aggregation, the group-gap
disparity measure, and paired significance testing.

All metrics use binary relevance. Overall values are simple means over
users with a nonempty relevant set; per-group means are taken over the same
population split by group. The disparity of a metric is the absolute gap
between the two group means (smaller is fairer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .data import G0, G1, json_text, write_csv
from .errors import DataError

DEFAULT_KS = (10, 20)
# Users ranked at once after the one score product: each block's top-K and
# relevance mask are its only further users x items arrays. Ranking is per
# row, so the blocks give the bits of one whole-matrix pass; the product is
# not split, because BLAS does not give a row block of ``U @ I.T`` the bits
# of the same rows of the whole product.
RANK_BLOCK = 256


def ugf(group_means) -> float:
    """Absolute gap between the two group-mean metric values."""
    if G0 not in group_means or G1 not in group_means:
        raise DataError("both group means are required")
    for g in (G0, G1):
        if group_means[g] is None:
            raise DataError(f"group {g} has no evaluable users")
    return abs(group_means[G0] - group_means[G1])


def paired_ttest(values_a, values_b):
    """Two-sided paired t test. Zero-variance differences follow the
    documented convention: p=1 when the means agree, else p=0."""
    a = np.asarray(values_a, dtype=np.float64)
    b = np.asarray(values_b, dtype=np.float64)
    if a.shape != b.shape:
        raise DataError("paired samples must have equal length")
    n = len(a)
    if n < 2:
        raise DataError("paired t test needs n >= 2")
    diff = a - b
    mean = diff.mean()
    sd = diff.std(ddof=1)
    if sd == 0.0:
        return (0.0, 1.0) if mean == 0.0 else (math.copysign(math.inf, mean), 0.0)
    t = mean / (sd / math.sqrt(n))
    df = n - 1
    # two-sided p via the regularized incomplete beta function
    p = float(betainc(df / 2.0, 0.5, df / (df + t * t)))
    return float(t), p


@dataclass
class EvaluationReport:
    ks: tuple
    overall: dict
    per_group: dict
    ugf: dict
    n_users: dict
    per_user: dict = field(default_factory=dict, repr=False)

    def metric_names(self):
        names = []
        for k in self.ks:
            names.append(f"recall@{k}")
        for k in self.ks:
            names.append(f"ndcg@{k}")
        return names

    def to_dict(self) -> dict:
        return {
            "ks": list(self.ks),
            "overall": self.overall,
            "per_group": {f"g{g}": self.per_group[g] for g in sorted(self.per_group)},
            "ugf": self.ugf,
            "n_users": {str(k): v for k, v in self.n_users.items()},
        }

    def to_json(self) -> str:
        return json_text(self.to_dict(), indent=2)

    def write_csv(self, path):
        """One row per (metric, scope); scopes are overall, g0, g1, ugf."""
        rows = []
        for name in self.metric_names():
            rows.append([name, "overall", self.overall[name]])
            for g in (G0, G1):
                rows.append([name, f"g{g}", self.per_group[g][name]])
            rows.append([name, "ugf", self.ugf[name]])
        write_csv(path, ["metric", "scope", "value"], rows)


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's column ids of the min(k, n_cols) highest scores, by
    descending score with ties broken by ascending id: the first columns of
    a stable argsort of ``-scores``.

    Each row's scores are partitioned for the k largest, and only the kept
    columns are negated and sorted. A row is sorted in full when its k-th
    score is shared by a column the partition left out, so that it could
    have kept the wrong tied ids, or when it kept a NaN, which the partition
    ranks above every score.
    """
    n = scores.shape[1]
    k = min(k, n)
    part = np.argpartition(scores, n - k, axis=1)[:, n - k:]
    vals = -np.take_along_axis(scores, part, axis=1)
    order = np.lexsort((part, vals), axis=1)
    top = np.take_along_axis(part, order, axis=1)
    kth = np.take_along_axis(vals, order[:, -1:], axis=1)
    redo = ((scores == -kth).sum(axis=1) > (vals == kth).sum(axis=1)) | np.isnan(kth[:, 0])
    if np.any(redo):
        top[redo] = np.argsort(-scores[redo], axis=1, kind="stable")[:, :k]
    return top


def evaluate(backbone, split, ds, ks=DEFAULT_KS, phase: str = "test") -> EvaluationReport:
    """Full-ranking evaluation over every user with relevant items in the
    requested phase. During validation only training positives are excluded
    from the candidate ranking; during test, validation positives too.
    """
    ks = tuple(sorted(ks))
    if phase == "val":
        relevant = split.target_val
        excluded = [split.target_train]
    elif phase == "test":
        relevant = split.target_test
        excluded = [split.target_train, split.target_val]
    else:
        raise DataError(f"unknown phase {phase!r}")
    users = np.unique(relevant[:, 0])
    if len(users) == 0:
        raise DataError(f"no users with {phase} positives")

    row_of = np.full(ds.n_users_target, -1, dtype=np.int64)
    row_of[users] = np.arange(len(users))
    scores = backbone.user_target_vectors(users) @ backbone.item_target.T
    for pairs in excluded:
        rows = row_of[pairs[:, 0]]
        kept = rows >= 0
        scores[rows[kept], pairs[kept, 1]] = -np.inf

    kmax = max(ks)
    rel_rows = row_of[relevant[:, 0]]
    rel_counts = np.bincount(rel_rows, minlength=len(users))
    order = np.argsort(rel_rows, kind="stable")
    rel_rows, rel_items = rel_rows[order], relevant[order, 1]
    hits = np.zeros((len(users), min(kmax, ds.n_items_target)), dtype=bool)
    for lo in range(0, len(users), RANK_BLOCK):
        hi = min(lo + RANK_BLOCK, len(users))
        a, b = np.searchsorted(rel_rows, (lo, hi))
        rel_mask = np.zeros((hi - lo, ds.n_items_target), dtype=bool)
        rel_mask[rel_rows[a:b] - lo, rel_items[a:b]] = True
        hits[lo:hi] = rel_mask[np.arange(hi - lo)[:, None], top_k(scores[lo:hi], kmax)]

    log_weights = 1.0 / np.log2(np.arange(2, kmax + 2))
    per_user = {}
    for k in ks:
        hk = hits[:, :k]  # fewer than k columns when k exceeds the catalogue
        per_user[f"recall@{k}"] = hk.sum(axis=1) / rel_counts
        dcg = (hk * log_weights[: hk.shape[1]]).sum(axis=1)
        ideal_cum = np.concatenate([[0.0], np.cumsum(log_weights[:k])])
        idcg = ideal_cum[np.minimum(rel_counts, k)]
        per_user[f"ndcg@{k}"] = dcg / idcg

    user_groups = ds.target_group[users]
    overall, group_vals, gaps = {}, {G0: {}, G1: {}}, {}
    for name, vals in per_user.items():
        overall[name] = float(vals.mean())
        means = {}
        for g in (G0, G1):
            sel = user_groups == g
            means[g] = float(vals[sel].mean()) if np.any(sel) else None
            group_vals[g][name] = means[g]
        gaps[name] = ugf(means)
    n_users = {
        "overall": int(len(users)),
        "g0": int((user_groups == G0).sum()),
        "g1": int((user_groups == G1).sum()),
    }
    return EvaluationReport(
        ks=ks, overall=overall, per_group=group_vals, ugf=gaps, n_users=n_users,
        per_user={"users": users, **per_user},
    )


def quick_ndcg_at_10(backbone, split, ds) -> float:
    """Validation NDCG@10 used for early stopping."""
    return evaluate(backbone, split, ds, ks=(10,), phase="val").overall["ndcg@10"]
