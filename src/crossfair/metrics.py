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

from .data import G0, G1, GROUPS, group_means, json_text, write_csv
from .errors import DataError

DEFAULT_KS = (10, 20)
# Relevant pairs placed at once after the one score product: each block's
# comparison against its rows' scores is its only further users x items
# array. Placing is per row, so the blocks give the bits of one whole-matrix
# pass; the product is not split, because BLAS does not give a row block of
# ``U @ I.T`` the bits of the same rows of the whole product.
RANK_BLOCK = 256


def rank_positions(scores: np.ndarray, rows: np.ndarray, cols: np.ndarray,
                   width: int) -> np.ndarray:
    """Where each (row, col) pair lands in its row of a stable argsort of
    ``-scores`` (higher score first, ties by ascending column, NaN last), as
    a 0-based position; any position from ``width`` on reads ``width``.

    A pair's position is the count of its row's scores above its own plus
    the count of equal scores in lower columns. The first count is one ``>``
    pass over the rows of ``RANK_BLOCK`` pairs at a time; the second, and
    the NaN case, where ``>`` counts nothing, are taken only for the few
    pairs whose first count is below ``width``.
    """
    vals = scores[rows, cols]
    pos = np.full(len(rows), width, dtype=np.int64)
    columns = np.arange(scores.shape[1])
    for lo in range(0, len(rows), RANK_BLOCK):
        r, v, c = rows[lo:lo + RANK_BLOCK], vals[lo:lo + RANK_BLOCK], cols[lo:lo + RANK_BLOCK]
        # a run of consecutive rows is read in place, any other set is copied
        block = scores[r[0]:r[-1] + 1] if np.all(np.diff(r) == 1) else scores[r]
        above = np.count_nonzero(block > v[:, None], axis=1)
        near = np.flatnonzero(above < width)
        row, v, c = block[near], v[near], c[near]
        nan = np.isnan(v)
        same = row == v[:, None]
        same[nan] = np.isnan(row[nan])
        placed = above[near] + np.count_nonzero(same & (columns < c[:, None]), axis=1)
        # a NaN ranks after every other score, none of which ``>`` counted
        placed[nan] += np.count_nonzero(~same[nan], axis=1)
        pos[lo + near] = np.minimum(placed, width)
    return pos


def ugf(means) -> float:
    """Absolute gap between the two group-mean metric values."""
    if G0 not in means or G1 not in means:
        raise DataError("both group means are required")
    for g in GROUPS:
        if means[g] is None:
            raise DataError(f"group {g} has no evaluable users")
    return abs(means[G0] - means[G1])


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
    from scipy.special import betainc  # imported here, so no command pays for it

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
            for g in GROUPS:
                rows.append([name, f"g{g}", self.per_group[g][name]])
            rows.append([name, "ugf", self.ugf[name]])
        write_csv(path, ["metric", "scope", "value"], rows)


def evaluate(user_emb, item_emb, split, ds, ks=DEFAULT_KS,
             phase: str = "test") -> EvaluationReport:
    """Full-ranking evaluation of the target user table ``user_emb`` against
    the target item table ``item_emb``, over every user with relevant items
    in the requested phase. During validation only training positives are
    excluded from the candidate ranking; during test, validation positives too.
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
    scores = user_emb[users] @ item_emb.T
    for pairs in excluded:
        rows = row_of[pairs[:, 0]]
        kept = rows >= 0
        scores[rows[kept], pairs[kept, 1]] = -np.inf

    kmax = max(ks)
    width = min(kmax, ds.n_items_target)
    rel_rows = row_of[relevant[:, 0]]
    rel_counts = np.bincount(rel_rows, minlength=len(users))
    # by row, so a block of one positive per user reads its rows in place
    order = np.argsort(rel_rows, kind="stable")
    rel_rows = rel_rows[order]
    pos = rank_positions(scores, rel_rows, relevant[order, 1], width)
    hits = np.zeros((len(users), width), dtype=bool)
    kept = pos < width
    hits[rel_rows[kept], pos[kept]] = True

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
    overall, group_vals, gaps = {}, {g: {} for g in GROUPS}, {}
    for name, vals in per_user.items():
        overall[name] = float(vals.mean())
        counts, means = group_means(vals, user_groups)
        for g in GROUPS:
            group_vals[g][name] = means[g]
        gaps[name] = ugf(means)
    n_users = {"overall": int(len(users)), **{f"g{g}": counts[g] for g in GROUPS}}
    return EvaluationReport(
        ks=ks, overall=overall, per_group=group_vals, ugf=gaps, n_users=n_users,
        per_user={"users": users, **per_user},
    )


def quick_ndcg_at_10(backbone, split, ds) -> float:
    """Validation NDCG@10 used for early stopping."""
    return evaluate(backbone.user_emb_target(), backbone.item_target, split, ds,
                    ks=(10,), phase="val").overall["ndcg@10"]
