"""Correctness checks on one run's artifacts, made apart from the program.

Ranking metrics are recomputed per user from ``snapshot.bin`` with the
benchmark's own snapshot reader and ranking; only the dataset load and the
train/validation/test split come from ``crossfair.data``, because they are
the data the run was evaluated on. Each check returns (name, ok, detail).
"""

from __future__ import annotations

import json
import math
import struct
from collections import defaultdict

import numpy as np

REL_TOL = 1e-9
RANDOM_MULTIPLE = 3.0  # test recall@10 must beat random ranking by this factor
TABLES = ("user_emb_source", "user_emb_target", "item_emb_source", "item_emb_target")


def read_snapshot(path) -> dict:
    """``CDFA`` magic, u32 version, then four (u64 rows, u64 cols, f32 data) tables."""
    blob = path.read_bytes()
    if blob[:4] != b"CDFA":
        raise ValueError(f"{path}: bad magic")
    off, out = 8, {}
    for name in TABLES:
        rows, cols = struct.unpack_from("<QQ", blob, off)
        off += 16
        arr = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=off)
        out[name] = arr.reshape(rows, cols).astype(np.float64)
        off += 4 * rows * cols
    return out


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(a), abs(b))


def _per_user_metrics(snapshot, split, ks):
    """Recall@K and NDCG@K per test user by full ranking, train and
    validation positives excluded, ties broken by ascending item id."""
    users_emb, items_emb = snapshot["user_emb_target"], snapshot["item_emb_target"]
    relevant, excluded = defaultdict(set), defaultdict(set)
    for u, i in split.target_test:
        relevant[int(u)].add(int(i))
    for pairs in (split.target_train, split.target_val):
        for u, i in pairs:
            excluded[int(u)].add(int(i))
    kmax = max(ks)
    weights = [1.0 / math.log2(r + 2) for r in range(kmax)]
    users = sorted(relevant)
    values = {f"{m}@{k}": [] for m in ("recall", "ndcg") for k in ks}
    random_recall = []
    for u in users:
        scores = items_emb @ users_emb[u]
        scores[list(excluded[u])] = -np.inf
        top = np.argsort(-scores, kind="stable")[:kmax]
        hits = [int(i) in relevant[u] for i in top]
        n_rel = len(relevant[u])
        for k in ks:
            values[f"recall@{k}"].append(sum(hits[:k]) / n_rel)
            dcg = sum(w for w, h in zip(weights[:k], hits[:k]) if h)
            values[f"ndcg@{k}"].append(dcg / sum(weights[: min(k, n_rel)]))
        candidates = len(items_emb) - len(excluded[u])
        random_recall.append(min(10, candidates) / candidates)
    return np.array(users), {m: np.array(v) for m, v in values.items()}, float(np.mean(random_recall))


def check_eval(run_dir, eval_dir, ds, split):
    report = json.loads((eval_dir / "report.json").read_text(encoding="utf-8"))
    ks = tuple(report["ks"])
    users, values, random_recall = _per_user_metrics(read_snapshot(run_dir / "snapshot.bin"),
                                                     split, ks)
    groups = ds.group_array()[users]
    mismatches = []
    for name, vals in values.items():
        means = {"overall": vals.mean(), "g0": vals[groups == 0].mean(),
                 "g1": vals[groups == 1].mean()}
        expected = {"overall": report["overall"][name], "g0": report["per_group"]["g0"][name],
                    "g1": report["per_group"]["g1"][name]}
        for scope in means:
            if not _close(means[scope], expected[scope]):
                mismatches.append(f"{name}/{scope} {means[scope]!r} != {expected[scope]!r}")
        if not _close(abs(means["g0"] - means["g1"]), report["ugf"][name]):
            mismatches.append(f"{name}/ugf")
    recall10 = report["overall"]["recall@10"]
    return [
        ("eval_matches_recomputed_ranking", not mismatches,
         "; ".join(mismatches[:3]) or f"{len(values)} metrics x 3 scopes, {len(users)} users"),
        ("recall_beats_random", recall10 >= RANDOM_MULTIPLE * random_recall,
         f"recall@10 {recall10:.4f} vs random {random_recall:.4f}"),
    ]


def check_runlog(path, variant: str, gamma: float, epochs: int):
    lines = [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines()]
    bad = []
    for rec in lines:
        if not _close(rec["loss_total"], rec["loss_rec"] + gamma * rec["loss_redist"]):
            bad.append(f"epoch {rec['epoch']}: loss_total")
        if variant == "full" and not (rec["loss_redist"] > 0 and rec["estimator_loss"] is not None):
            bad.append(f"epoch {rec['epoch']}: fairness terms missing")
        if variant == "plain" and not (rec["loss_redist"] == 0 and rec["estimator_loss"] is None):
            bad.append(f"epoch {rec['epoch']}: fairness terms present")
    if len(lines) != epochs:
        bad.append(f"{len(lines)} epochs logged, expected {epochs}")
    return [("runlog_loss_identity", not bad, "; ".join(bad[:3]) or f"{len(lines)} epochs")]


def check_bound(theory_dir, run_dir, ds):
    bound = json.loads((theory_dir / "bound.json").read_text(encoding="utf-8"))
    terms = (bound["w1_source_gap"] + bound["delta_t_g0"] + bound["delta_t_g1"]
             + bound["delta_s_g0"] + bound["delta_s_g1"] + 2 * bound["domain_shift"])
    rhs = bound["l_o"] * bound["l_f"] * terms
    emb = read_snapshot(run_dir / "snapshot.bin")["user_emb_target"]
    groups = ds.group_array()
    mean_gap = float(np.linalg.norm(emb[groups == 0].mean(axis=0) - emb[groups == 1].mean(axis=0)))
    return [
        ("bound_rhs_is_scaled_sum", _close(bound["rhs"], rhs), f"rhs {bound['rhs']!r}"),
        ("bound_preserved_flag", bound["preserved"] == (bound["rhs"] <= bound["baseline_ugf"]),
         f"preserved {bound['preserved']}"),
        ("w1_target_gap_above_mean_gap", bound["w1_target_gap"] >= mean_gap,
         f"{bound['w1_target_gap']:.4f} >= {mean_gap:.4f}"),
    ]
