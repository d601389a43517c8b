"""Full-ranking top-K evaluation, per-group aggregation, the group-gap
disparity measure, and paired significance testing.

All metrics use binary relevance. Overall values are simple means over
users with a nonempty relevant set; per-group means are taken over the same
population split by group. The disparity of a metric is the absolute gap
between the two group means (smaller is fairer).
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betainc

from .data import G0, G1
from .errors import DataError

DEFAULT_KS = (10, 20)


def rank_items(backbone, user: int, exclude=()) -> np.ndarray:
    """All target items sorted by descending score, excluded ids dropped;
    ties break by ascending item id."""
    scores = backbone.item_target @ backbone.user_target_vector(user)
    order = np.argsort(-scores, kind="stable")
    if len(exclude) == 0:
        return order
    mask = np.ones(len(scores), dtype=bool)
    mask[np.asarray(list(exclude), dtype=np.int64)] = False
    return order[mask[order]]


def recall_at_k(ranked, relevant, k: int) -> float:
    if k < 1:
        raise DataError("k must be >= 1")
    if len(relevant) == 0:
        raise DataError("relevant set must be nonempty")
    rel = set(relevant)
    hits = sum(1 for item in list(ranked)[:k] if item in rel)
    return hits / len(rel)


def ndcg_at_k(ranked, relevant, k: int) -> float:
    if k < 1:
        raise DataError("k must be >= 1")
    if len(relevant) == 0:
        raise DataError("relevant set must be nonempty")
    rel = set(relevant)
    dcg = 0.0
    for rank, item in enumerate(list(ranked)[:k], start=1):
        if item in rel:
            dcg += 1.0 / math.log2(rank + 1)
    ideal = sum(1.0 / math.log2(r + 1) for r in range(1, min(k, len(rel)) + 1))
    return dcg / ideal


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
    baseline_name: str = ""
    improvement: dict = field(default_factory=dict)
    p_values: dict = field(default_factory=dict)

    def metric_names(self):
        names = []
        for k in self.ks:
            names.append(f"recall@{k}")
        for k in self.ks:
            names.append(f"ndcg@{k}")
        return names

    def to_dict(self) -> dict:
        out = {
            "ks": list(self.ks),
            "overall": self.overall,
            "per_group": {f"g{g}": self.per_group[g] for g in sorted(self.per_group)},
            "ugf": self.ugf,
            "n_users": {str(k): v for k, v in self.n_users.items()},
        }
        if self.baseline_name:
            out["baseline"] = self.baseline_name
            out["improvement"] = self.improvement
            out["p_values"] = self.p_values
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    def write_csv(self, path):
        """One row per (metric, scope); scopes are overall, g0, g1, ugf."""
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["metric", "scope", "value"])
            for name in self.metric_names():
                writer.writerow([name, "overall", repr(self.overall[name])])
                for g in (G0, G1):
                    writer.writerow([name, f"g{g}", repr(self.per_group[g][name])])
                writer.writerow([name, "ugf", repr(self.ugf[name])])


def top_k(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's column ids of the min(k, n_cols) highest scores, by
    descending score with ties broken by ascending id: the first columns of
    a stable argsort of ``-scores``.

    Rows are partitioned first and only the kept columns are sorted. A row
    whose k-th score is shared by columns the partition left out (or is
    NaN) could have kept the wrong tied ids, so it is sorted in full.
    """
    neg = -scores
    k = min(k, scores.shape[1])
    part = np.argpartition(neg, k - 1, axis=1)[:, :k]
    vals = np.take_along_axis(neg, part, axis=1)
    order = np.lexsort((part, vals), axis=1)
    top = np.take_along_axis(part, order, axis=1)
    kth = np.take_along_axis(vals, order[:, -1:], axis=1)
    redo = ((neg == kth).sum(axis=1) > (vals == kth).sum(axis=1)) | np.isnan(kth[:, 0])
    if np.any(redo):
        top[redo] = np.argsort(neg[redo], axis=1, kind="stable")[:, :k]
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
    top = top_k(scores, kmax)

    rel_rows = row_of[relevant[:, 0]]
    rel_mask = np.zeros((len(users), ds.n_items_target), dtype=bool)
    rel_mask[rel_rows, relevant[:, 1]] = True
    rel_counts = np.bincount(rel_rows, minlength=len(users))
    hits = rel_mask[np.arange(len(users))[:, None], top]

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
    try:
        report = evaluate(backbone, split, ds, ks=(10,), phase="val")
    except DataError:
        return 0.0
    return report.overall["ndcg@10"]


def compare_reports(report: EvaluationReport, baseline: EvaluationReport,
                    baseline_name: str = "baseline") -> EvaluationReport:
    """Attach relative improvements and paired t tests against a baseline
    evaluated on the same user population.

    Accuracy improvement is the arithmetic mean over metrics of the relative
    change; fairness improvement is the mean relative reduction of the
    per-metric group gaps.
    """
    if list(report.per_user["users"]) != list(baseline.per_user["users"]):
        raise DataError("reports evaluate different user populations")
    improvement = {}
    acc_changes, fair_changes = [], []
    p_values = {}
    for name in report.metric_names():
        base = baseline.overall[name]
        if base > 0:
            change = 100.0 * (report.overall[name] - base) / base
            improvement[name] = change
            acc_changes.append(change)
        base_gap = baseline.ugf[name]
        if base_gap > 0:
            fair_changes.append(100.0 * (base_gap - report.ugf[name]) / base_gap)
        _, p = paired_ttest(report.per_user[name], baseline.per_user[name])
        p_values[name] = p
    improvement["acc_impr_mean_pct"] = float(np.mean(acc_changes)) if acc_changes else 0.0
    improvement["fair_impr_mean_pct"] = float(np.mean(fair_changes)) if fair_changes else 0.0
    report.baseline_name = baseline_name
    report.improvement = improvement
    report.p_values = p_values
    return report
