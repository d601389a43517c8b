"""Scalar references for the package's batched code paths.

The split and pool functions are the per-pair Python loops the package used
before its interactions became arrays; ``batch_candidates_before_floyd`` is
the candidate draw used before the Floyd band existed. The tests require
the current code to reproduce these outputs exactly, order included, where
the two are meant to agree.

The per-user functions (one BPR triple, one candidate set, one softmax
draw, one probability head, one ranking) and the brute-force enumerations
(W1 over all matchings, Rademacher complexity over all sign vectors) are
the per-sample definitions the batched trainer, sampler, gain heads,
evaluator and bound code must agree with. ``lipschitz_sampled`` is the
sampled pair search ``theory --lf auto`` used for L_f before it computed the
spectral norm; the exact constant must bound every ratio it finds.
``matching_cost_unreduced`` is the matching ``theory`` solved before it
reduced the distance matrix by its row and column minima; W1 must keep its
bits wherever the optimal matching is unique.
``rademacher_estimate`` (Monte-Carlo over sign vectors) and
``deviation_bound`` (the uniform-convergence deviation built on it) were
library functions of ``crossfair.theory`` that no command called; they live
here with the exhaustive enumeration they are checked against.

``plan_batch_masked`` and ``batch_objective_masked`` are the batch path the
trainer had before a batch became one (users, pos, neg) triple per domain:
a ``BatchPlan`` keeps the shuffled rows with a domain column, the objective
masks them again, and the penalty rows are filtered to overlapping users
before the gain module filters them once more. Its sampler still takes a
``uniform`` flag next to ``taus = None``. The trainer must draw the same
negatives and return the same values and gradient fragments bit for bit.

``gain_terms_per_sample`` is the gain heads' body before the gain report
ran the estimator once per distinct overlapping user: one forward row per
sample. The gain estimates and the penalty's value and gradient fragments
must match it bit for bit.

``adam_step_add_at`` is the body ``Adam.step`` had before its sparse
branch summed duplicate rows with one ``np.bincount``: ``np.unique`` plus
``np.add.at``. The optimiser must reproduce it bit for bit.

``evaluate_whole_matrix`` is the full-ranking evaluation the package had
before it ranked users in blocks: one ``top_items_argsort`` over the whole
users x items score matrix and one users x items relevance mask. The
evaluator must return the same report and per-user arrays bit for bit.

``top_items_argsort`` is the per-user top-item pick the synthetic
generator had before it partitioned each row: the first columns of a
stable argsort of each whole row. The generator's ``_top_items`` must keep
the same set of ids, and so give the same dataset.

``generate_synthetic_direct`` is the synthetic generator the package had
before it handed its pairs, raw ids and groups to ``build_dataset``: it
wrote the dataset record and the overlap map (target user t is source user
t for the first ``n_overlap`` users) itself. ``generate_synthetic`` must
return an equal dataset, field for field, and refuse the same configs with
the same error.

``read_tsv_rows_loop`` and the loaders built on it are the line-by-line TSV
parse the package used before it split whole files at once; the loaders
must return the same values and raise the same messages. ``densify_dict``
is the first-seen ``dict`` the reader numbered a column of ``str`` cells
with before it sorted packed byte keys; ``TsvTable.densify`` must return the
same codes and ids.

``resolve_config_tables`` is the config resolver the package had before its
keys and types came from the config dataclasses: hand-kept key tables and
special cases. Its tables lack the three flags the package dropped,
``use_alpha`` and ``use_redistribution`` (now ``epsilon = 0`` and
``gamma = 0``) and ``partition_checks`` (the partition is now always held
read-only), and it keeps the root seed in TrainConfig, the seed's one
field since ``RunConfig.seed`` went. The resolver must return the same
configuration and raise the same errors on the same input, except that
the package refuses a synthetic setting next to ``synth = false``, which
these tables let override the flag. The remaining
helpers read artifacts back (``read_state_bundle``) or measure the
synthetic generator (``synthetic_rank_quality``) for tests only.
"""

import itertools
import math
import struct
from pathlib import Path

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from crossfair.cli import RunConfig
from crossfair.data import (G0, G1, CrossDomainDataset, LoadedInteractions, SynthConfig,
                            _pairs_from_top, _synth_internals, _top_items)
from crossfair.errors import DataError, NumericalError, UsageError
from crossfair.numerics import clamp_prob, sigmoid, softmax
from crossfair.gain import redistribution_grads
from crossfair.metrics import DEFAULT_KS, EvaluationReport, ugf
from crossfair.sampler import batch_candidates, temperature
from crossfair.seeding import make_rng
from crossfair.trainer import bpr_terms


def adam_step_add_at(adam, name, param, grad, rows=None):
    """One ``Adam.step`` with duplicate rows summed by ``np.add.at``; it has
    the method's signature, so it can stand in for it."""
    if name not in adam.m:
        adam.register(name, param.shape)
    if rows is None:
        rows = slice(None)
    else:
        rows, inv = np.unique(np.asarray(rows, dtype=np.int64), return_inverse=True)
        agg = np.zeros((len(rows),) + param.shape[1:])
        np.add.at(agg, inv, grad)
        grad = agg
    adam.t[name] += 1
    t = adam.t[name]
    m, v = adam.m[name], adam.v[name]
    m[rows] = adam.beta1 * m[rows] + (1 - adam.beta1) * grad
    v[rows] = adam.beta2 * v[rows] + (1 - adam.beta2) * grad * grad
    m_hat = m[rows] / (1 - adam.beta1 ** t)
    v_hat = v[rows] / (1 - adam.beta2 ** t)
    param[rows] -= adam.lr * m_hat / (np.sqrt(v_hat) + adam.eps)


def _per_user_lists(pairs):
    by_user = {}
    for u, i in pairs:
        by_user.setdefault(u, []).append(i)
    return by_user


def split_per_user_loop(ds, seed):
    """(source_train, source_val, target_train, target_val, target_test) as
    lists of (user, item) tuples."""
    rng = make_rng(seed, "split")
    src_train, src_val = [], []
    by_user_source = _per_user_lists(ds.interactions_source.tolist())
    for u in sorted(by_user_source):
        items = list(by_user_source[u])
        rng.shuffle(items)
        n = len(items)
        n_val = int(np.floor(0.2 * n))
        src_train += [(u, i) for i in items[: n - n_val]]
        src_val += [(u, i) for i in items[n - n_val:]]
    tgt_train, tgt_val, tgt_test = [], [], []
    by_user_target = _per_user_lists(ds.interactions_target.tolist())
    for u in sorted(by_user_target):
        items = list(by_user_target[u])
        rng.shuffle(items)
        n = len(items)
        n_val = int(np.floor(0.1 * n))
        n_test = int(np.floor(0.1 * n))
        n_train = n - n_val - n_test
        tgt_train += [(u, i) for i in items[:n_train]]
        tgt_val += [(u, i) for i in items[n_train: n_train + n_val]]
        tgt_test += [(u, i) for i in items[n_train + n_val:]]
    return src_train, src_val, tgt_train, tgt_val, tgt_test


def negative_pool_loop(n_items, train_pairs, n_users):
    """(lengths, starts, flat) of the per-user eligible-item store, built
    with one set difference per user."""
    positives = [[] for _ in range(n_users)]
    for u, i in train_pairs:
        positives[u].append(i)
    all_items = np.arange(n_items, dtype=np.int64)
    chunks = [np.setdiff1d(all_items, np.asarray(p, dtype=np.int64)) for p in positives]
    lengths = np.array([len(c) for c in chunks], dtype=np.int64)
    starts = np.zeros(n_users, dtype=np.int64)
    np.cumsum(lengths[:-1], out=starts[1:])
    return lengths, starts, np.concatenate(chunks)


def batch_candidates_before_floyd(pool, users, size, rng):
    """Candidate draw with whole-row redraws for rows of at least
    ``2 * size`` eligible items and one ``rng.choice`` per row between
    ``size`` and that."""
    users = np.asarray(users, dtype=np.int64)
    lens = pool.lengths[users]
    n = len(users)
    items = np.full((n, size), -1, dtype=np.int64)
    counts = np.minimum(lens, size)

    take_all = lens <= size
    fast = lens >= 2 * size
    slow = ~take_all & ~fast

    if np.any(fast):
        highs = lens[fast][:, None]
        idx = rng.integers(0, highs, size=(int(fast.sum()), size))
        bad = _rows_with_duplicates(idx)
        while np.any(bad):
            idx[bad] = rng.integers(0, highs[bad], size=(int(bad.sum()), size))
            bad = _rows_with_duplicates(idx)
        items[fast] = pool.flat[pool.starts[users[fast]][:, None] + idx]

    if np.any(take_all):
        cols = np.arange(size)
        short = lens[take_all][:, None]
        idx = pool.starts[users[take_all]][:, None] + np.minimum(cols, short - 1)
        items[take_all] = np.where(cols < short, pool.flat[idx], -1)
    for row in np.nonzero(slow)[0]:
        items[row] = rng.choice(eligible(pool, users[row]), size=size, replace=False)
    return items, counts


def _rows_with_duplicates(idx):
    s = np.sort(idx, axis=1)
    return (s[:, 1:] == s[:, :-1]).any(axis=1)


# -- trainer -------------------------------------------------------------------


def bpr_loss(backbone, user, pos_item, neg_item, l2_reg=0.0, domain="target"):
    """Single-triple BPR loss and gradients (target or source domain).

    Returns (loss, grads) with grads keyed by (table, row).
    """
    if domain == "target":
        u = backbone.user_pool[[user]]
        slot = user
        table, item_name = backbone.item_target, "item_target"
    elif domain == "source":
        slot = backbone.source_slot[user]
        u = backbone.user_pool[[slot]]
        table, item_name = backbone.item_source, "item_source"
    else:
        raise DataError(f"unknown domain {domain!r}")
    for item in (pos_item, neg_item):
        if not 0 <= item < len(table):
            raise DataError(f"{domain} item {item} out of range")
    loss, _, g_u, g_i, g_j = bpr_terms(u, table[[pos_item]], table[[neg_item]], l2_reg)
    grads = {
        ("user_pool", int(slot)): g_u[0],
        (item_name, int(pos_item)): g_i[0],
    }
    key = (item_name, int(neg_item))
    grads[key] = grads.get(key, 0.0) + g_j[0]
    return float(loss[0]), grads


# -- batch path with masks -------------------------------------------------------


def batch_sample_negatives_flagged(backbone, pool, users, taus, size, rng, uniform=False):
    """``batch_sample_negatives`` with its former ``uniform`` flag."""
    users = np.asarray(users, dtype=np.int64)
    items, counts = batch_candidates(pool, users, size, rng)
    if uniform:
        j = (rng.random(len(users)) * counts).astype(np.int64)
        j = np.minimum(j, counts - 1)
        return items[np.arange(len(users)), j]
    vecs = backbone.user_pool[users]
    safe_items = np.maximum(items, 0)
    scores = np.einsum("bd,bkd->bk", vecs, backbone.item_target[safe_items])
    scores[items < 0] = -np.inf
    cdf = np.cumsum(softmax(scores / taus[:, None]), axis=1)
    j = (cdf < rng.random(len(users))[:, None]).sum(axis=1)
    return items[np.arange(len(users)), np.minimum(j, counts - 1)]


class BatchPlan:
    """Concrete triples for one mini-batch in shuffled order, a domain per
    row (1 target, 0 source), and the overlapping target rows picked out for
    the penalty."""

    __slots__ = ("domains", "users", "pos", "neg", "penalty_users", "penalty_items",
                 "penalty_groups")

    def __init__(self, domains, users, pos, neg, penalty_users, penalty_items, penalty_groups):
        self.domains = domains
        self.users = users
        self.pos = pos
        self.neg = neg
        self.penalty_users = penalty_users
        self.penalty_items = penalty_items
        self.penalty_groups = penalty_groups


def plan_batch_masked(backbone, pools, domains, users, pos, groups_arr, tracker, cfg, rng):
    """Draw negatives for a shuffled batch and collect the penalty samples."""
    tgt = domains == 1
    neg = np.empty(len(users), dtype=np.int64)
    fair_draws = 0
    if np.any(tgt):
        t_users = users[tgt]
        fair = cfg.use_fair_sampling and tracker.epochs_completed >= 1
        taus = None
        if fair:
            taus = np.array(
                [
                    temperature(tracker.alpha(G0), cfg.epsilon),
                    temperature(tracker.alpha(G1), cfg.epsilon),
                ]
            )[groups_arr[t_users]]
            fair_draws = len(t_users)
        neg[tgt] = batch_sample_negatives_flagged(
            backbone, pools["target"], t_users, taus, cfg.candidate_size, rng,
            uniform=not fair,
        )
    if np.any(~tgt):
        s_users = users[~tgt]
        neg[~tgt] = batch_sample_negatives_flagged(
            backbone, pools["source"], s_users, None,
            cfg.candidate_size, rng, uniform=True,
        )

    overlap_tgt = tgt & (backbone.linked_row[users] >= 0)
    plan = BatchPlan(
        domains=domains,
        users=users,
        pos=pos,
        neg=neg,
        penalty_users=users[overlap_tgt],
        penalty_items=pos[overlap_tgt],
        penalty_groups=groups_arr[users[overlap_tgt]],
    )
    return plan, fair_draws


def batch_objective_masked(backbone, estimator, plan, cfg):
    """Objective value and gradients of a ``BatchPlan``: returns (total,
    rec_sum, penalty, rank_losses_target, grads), target domain first."""
    tgt = plan.domains == 1
    grads = []
    rec_sum = 0.0
    rank_target = np.empty(int(tgt.sum()))
    for mask, slot_of, item_name in (
        (tgt, np.arange(len(backbone.linked_row)), "item_target"),
        (~tgt, backbone.source_slot, "item_source"),
    ):
        if not np.any(mask):
            continue
        users, pos, neg = plan.users[mask], plan.pos[mask], plan.neg[mask]
        table = backbone.parameters()[item_name]
        loss, rank, g_u, g_i, g_j = bpr_terms(
            backbone.user_pool[slot_of[users]], table[pos], table[neg], cfg.l2_reg
        )
        rec_sum += float(loss.sum())
        if item_name == "item_target":
            rank_target = rank
        grads += [("user_pool", slot_of[users], g_u), (item_name, pos, g_i),
                  (item_name, neg, g_j)]

    penalty = 0.0
    scale = float(len(plan.users))
    if cfg.gamma > 0 and len(plan.penalty_users) > 0:
        raw, pgrads = redistribution_grads(
            backbone, estimator, plan.penalty_users, plan.penalty_items, plan.penalty_groups
        )
        penalty = scale * raw
        for table, rows, g in pgrads:
            grads.append((table, rows, cfg.gamma * scale * g))

    total = rec_sum + cfg.gamma * penalty
    return total, rec_sum, penalty, rank_target, grads


# -- sampler -------------------------------------------------------------------


def eligible(pool, user):
    """The user's eligible negative items, ascending."""
    s = pool.starts[user]
    return pool.flat[s: s + pool.lengths[user]]


def build_candidates(pool, user, size, rng):
    """Uniform sample without replacement from the user's eligible items;
    shrinks to all eligible items when fewer than ``size`` remain.
    """
    elig = eligible(pool, user)
    if len(elig) == 0:
        raise DataError(f"user {user} has no eligible negative items")
    if len(elig) <= size:
        return elig.copy()
    return rng.choice(elig, size=size, replace=False)


def sampling_distribution(backbone, user, candidates, tau):
    """Softmax over the candidate scores at temperature tau."""
    if tau <= 0:
        raise NumericalError("temperature must be positive")
    candidates = np.asarray(candidates, dtype=np.int64)
    if candidates.size == 0:
        raise DataError("empty candidate set")
    scores = backbone.item_target[candidates] @ backbone.user_pool[user]
    return softmax(scores / tau)


def sample_negative(backbone, tracker, cfg, pool, user, group, rng):
    """Draw one negative for the user.

    Before the first completed epoch the draw is uniform over the candidate
    set; afterwards candidates are weighted by exp(score / tau) with tau set
    by the user's group gap.
    """
    candidates = build_candidates(pool, user, cfg.candidate_size, rng)
    if tracker.epochs_completed < 1:
        return int(candidates[rng.integers(0, len(candidates))])
    tau = temperature(tracker.alpha(group), cfg.epsilon)
    probs = sampling_distribution(backbone, user, candidates, tau)
    j = int((np.cumsum(probs) < rng.random()).sum())
    return int(candidates[min(j, len(candidates) - 1)])


# -- gain heads ----------------------------------------------------------------


def _source_view(backbone, target_user):
    row = backbone.linked_row[target_user]
    if row < 0:
        raise DataError("source view requested for a non-overlapping user")
    return backbone.user_pool[row]


def prob_source(backbone, target_user, target_item):
    """sigmoid(score of the user's source view against the target item)."""
    u = _source_view(backbone, target_user)
    return float(clamp_prob(sigmoid(float(u @ backbone.item_target[target_item]))))


def prob_target(backbone, target_user, target_item):
    u = backbone.user_pool[target_user]
    return float(clamp_prob(sigmoid(float(u @ backbone.item_target[target_item]))))


def prob_joint(backbone, estimator, target_user, target_item):
    """sigmoid(fused(target view, source view) . target item), dropout off."""
    x = np.concatenate([backbone.user_pool[target_user],
                        _source_view(backbone, target_user)])
    fused = estimator.forward(x)[0][0]
    return float(clamp_prob(sigmoid(float(fused @ backbone.item_target[target_item]))))


def gain_terms_per_sample(backbone, estimator, users, items, groups, with_cache=False):
    """``gain._gain_terms`` as it was before the gain report ran the
    estimator once per distinct user: one forward row per overlapping-user
    sample, with its cache, whatever ``with_cache`` asks for."""
    users = np.asarray(users, dtype=np.int64)
    mask = backbone.linked_row[users] >= 0
    users, items = users[mask], np.asarray(items, dtype=np.int64)[mask]
    u_t = backbone.user_pool[users]
    s_slots = backbone.linked_row[users]
    u_s = backbone.user_pool[s_slots]
    i_t = backbone.item_target[items]
    fused, cache = estimator.forward(np.concatenate([u_t, u_s], axis=1))
    heads = {
        "users": users, "items": items, "u_t": u_t, "u_s": u_s, "i_t": i_t,
        "s_slots": s_slots, "fused": fused, "cache": cache,
        "p_s": clamp_prob(sigmoid(np.einsum("bd,bd->b", u_s, i_t))),
        "p_t": clamp_prob(sigmoid(np.einsum("bd,bd->b", u_t, i_t))),
        "p_j": clamp_prob(sigmoid(np.einsum("bd,bd->b", fused, i_t))),
    }
    terms = np.log(heads["p_j"]) - np.log(heads["p_s"]) - np.log(heads["p_t"])
    return heads, terms, np.asarray(groups)[mask]


# -- metrics -------------------------------------------------------------------


def rank_items(backbone, user, exclude=()):
    """All target items sorted by descending score, excluded ids dropped;
    ties break by ascending item id."""
    scores = backbone.item_target @ backbone.user_pool[user]
    order = np.argsort(-scores, kind="stable")
    if len(exclude) == 0:
        return order
    mask = np.ones(len(scores), dtype=bool)
    mask[np.asarray(list(exclude), dtype=np.int64)] = False
    return order[mask[order]]


def evaluate_whole_matrix(backbone, split, ds, ks=DEFAULT_KS, phase="test"):
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
    scores = backbone.user_pool[users] @ backbone.item_target.T
    for pairs in excluded:
        rows = row_of[pairs[:, 0]]
        kept = rows >= 0
        scores[rows[kept], pairs[kept, 1]] = -np.inf

    kmax = max(ks)
    top = top_items_argsort(scores, kmax)

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


def recall_at_k(ranked, relevant, k):
    if k < 1:
        raise DataError("k must be >= 1")
    if len(relevant) == 0:
        raise DataError("relevant set must be nonempty")
    rel = set(relevant)
    hits = sum(1 for item in list(ranked)[:k] if item in rel)
    return hits / len(rel)


def ndcg_at_k(ranked, relevant, k):
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


# -- theory --------------------------------------------------------------------


def wasserstein1_exhaustive(cloud_a, cloud_b):
    """Brute-force matching over all permutations; for tiny equal-size sets."""
    a = np.atleast_2d(np.asarray(cloud_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=np.float64))
    if len(a) != len(b):
        raise DataError("exhaustive matching needs equal sizes")
    if len(a) > 8:
        raise DataError("exhaustive matching is factorial; use <= 8 points")
    d = cdist(a, b)
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = sum(d[i, j] for i, j in enumerate(perm))
        best = min(best, cost)
    return best / len(a)


def matching_cost_unreduced(a, b):
    """Minimum-cost perfect matching solved on the distances themselves,
    as ``theory._matching_cost`` did before it solved on row- and
    column-reduced costs: the cost of the matching, summed from ``d``."""
    d = cdist(a, b)
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].sum())


def rademacher_exhaustive(sample_values):
    """Exact empirical Rademacher complexity over all 2**n sign vectors
    (n <= 20), and the factor-2 difference-class bound, as returned by
    ``rademacher_estimate``."""
    values = np.atleast_2d(np.asarray(sample_values, dtype=np.float64))
    n = values.shape[1]
    if n > 20:
        raise DataError("exhaustive sign enumeration limited to n <= 20")
    total = 0.0
    for bits in range(2 ** n):
        signs = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])
        total += np.max(values @ signs) / n
    estimate = total / (2 ** n)
    return float(estimate), float(2.0 * estimate)


def rademacher_estimate(sample_values, n_sign_draws: int = 200, seed: int = 0):
    """Empirical Rademacher complexity of a finite function class given its
    evaluations (one row per function, one column per sample point).

    Returns (estimate, difference_class_estimate); the latter applies the
    factor-2 closure bound for classes of pairwise differences. The
    expectation over sign vectors is estimated from ``n_sign_draws`` draws.
    """
    values = np.atleast_2d(np.asarray(sample_values, dtype=np.float64))
    n_funcs, n = values.shape
    if n_funcs < 1 or n < 1:
        raise DataError("need at least one function and one sample")
    if n_sign_draws < 1:
        raise DataError("n_sign_draws must be >= 1")
    rng = make_rng(seed, "rademacher-signs")
    signs = rng.choice([-1.0, 1.0], size=(n_sign_draws, n))
    estimate = float((np.max(signs @ values.T, axis=1) / n).mean())
    return estimate, 2.0 * estimate


def deviation_bound(rademacher: float, b: float, n: int, delta: float) -> float:
    """Uniform-convergence deviation: 2R + B*sqrt(log(2/delta) / (2n))."""
    if b <= 0:
        raise DataError("B must be positive")
    if n < 1:
        raise DataError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise DataError("delta must lie in (0, 1)")
    return 2.0 * rademacher + b * np.sqrt(np.log(2.0 / delta) / (2.0 * n))


def lipschitz_sampled(fn, points, n_pairs: int = 10000, seed: int = 0) -> float:
    """Empirical lower bound on the Lipschitz constant of a vector map: max
    over sampled point pairs of |f(a)-f(b)| / |a-b|."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) < 2:
        raise DataError("need at least two points")
    rng = make_rng(seed, "lipschitz-pairs")
    ia = rng.integers(0, len(pts), size=n_pairs)
    ib = rng.integers(0, len(pts), size=n_pairs)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    a, b = pts[ia], pts[ib]
    denom = np.linalg.norm(a - b, axis=1)
    keep = denom > 0
    if not np.any(keep):
        raise DataError("all sampled pairs are degenerate")
    fa = np.atleast_2d(np.asarray(fn(a[keep]), dtype=np.float64))
    fb = np.atleast_2d(np.asarray(fn(b[keep]), dtype=np.float64))
    num = np.linalg.norm(fa - fb, axis=1)
    return float(np.max(num / denom[keep]))


def read_tsv_rows_loop(path):
    """(header cells, [(line number, cells)]) with blank lines skipped."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split("\t")
    rows = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        if len(cols) < len(header) or any(c == "" for c in cols[: len(header)]):
            raise DataError(f"{path}:{lineno}: malformed row {line!r}")
        rows.append((lineno, cols))
    return header, rows


def densify_dict(column):
    """First-seen dense codes of a column of raw ids, and the ids by code."""
    ids = list(dict.fromkeys(column))
    lookup = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(lookup.__getitem__, column), np.int64, len(column)), ids


def load_interactions_loop(path):
    header, rows = read_tsv_rows_loop(path)
    try:
        ucol = header.index("user_id")
        icol = header.index("item_id")
    except ValueError:
        raise DataError(f"{path}: header must name user_id and item_id columns")
    if not rows:
        raise DataError(f"{path}: no interactions")
    user_map, item_map = {}, {}
    users = [user_map.setdefault(cols[ucol], len(user_map)) for _, cols in rows]
    items = [item_map.setdefault(cols[icol], len(item_map)) for _, cols in rows]
    pairs = np.array([users, items], dtype=np.int64).T
    _, first = np.unique(pairs, axis=0, return_index=True)
    return LoadedInteractions(pairs=pairs[np.sort(first)], user_ids=list(user_map),
                              item_ids=list(item_map))


def load_attributes_loop(path):
    header, rows = read_tsv_rows_loop(path)
    try:
        ucol = header.index("user_id")
        acol = header.index("attribute")
    except ValueError:
        raise DataError(f"{path}: header must name user_id and attribute columns")
    raw = {}
    for lineno, cols in rows:
        ru, attr = cols[ucol], cols[acol]
        if ru in raw and raw[ru] != attr:
            raise DataError(f"{path}:{lineno}: conflicting attribute for user {ru!r}")
        raw[ru] = attr
    values = sorted(set(raw.values()))
    if len(values) != 2:
        raise DataError(
            f"{path}: expected exactly 2 distinct attribute values, found {len(values)}"
        )
    mapping = {ru: (G0 if attr == values[0] else G1) for ru, attr in raw.items()}
    return mapping, (values[0], values[1])


def int_ids_loop(path, values):
    out = np.empty(len(values), dtype=np.int64)
    for k, value in enumerate(values):
        try:
            out[k] = int(value)
        except (ValueError, OverflowError):
            raise DataError(f"{path}: user id {value!r} is not a dense integer id") from None
    return out


def read_overlap_loop(path):
    header, rows = read_tsv_rows_loop(path)
    try:
        cols = header.index("target_user_id"), header.index("source_user_id")
    except ValueError:
        raise DataError(f"{path}: header must name target_user_id and source_user_id")
    return tuple(int_ids_loop(path, [row[c] for _, row in rows]) for c in cols)


def read_state_bundle(path) -> dict:
    """Read back the named-array bundle ``train`` writes to ``optstate.bin``."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"CFOS":
        raise DataError(f"{path}: bad state bundle magic")
    (count,) = struct.unpack_from("<I", blob, 4)
    off = 8
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off: off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack_from("<I", blob, off)
        off += 4
        shape = struct.unpack_from("<" + "Q" * ndim, blob, off)
        off += 8 * ndim
        n = int(np.prod(shape)) if ndim else 1
        out[name] = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        off += 8 * n
    return out


def top_items_argsort(scores, count):
    # Deterministic top-count per row; ties broken by ascending item id.
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, :count]


def synthetic_rank_quality(cfg):
    """Oracle source-domain ranking quality per group.

    For each overlapping user, measures the mean rank position (0-based,
    smaller is better) of the user's true top-``interactions_per_user``
    source items within the noisy ordering that generated the positives.
    Returns (mean over g0 users, mean over g1 users).
    """
    internals = _synth_internals(cfg)
    n_overlap = internals["n_overlap"]
    groups = internals["groups"]
    ipu = cfg.interactions_per_user
    true_top = top_items_argsort(internals["true_s"][:n_overlap], ipu)
    noisy_order = np.argsort(-internals["noisy_s"][:n_overlap], axis=1, kind="stable")
    ranks = np.empty_like(noisy_order)
    rows = np.arange(n_overlap)[:, None]
    ranks[rows, noisy_order] = np.arange(noisy_order.shape[1])[None, :]
    mean_rank = ranks[rows, true_top].mean(axis=1)
    g = groups[:n_overlap]
    if not (np.any(g == G0) and np.any(g == G1)):
        raise DataError("both groups must appear among overlapping users")
    return float(mean_rank[g == G0].mean()), float(mean_rank[g == G1].mean())


def generate_synthetic_direct(cfg: SynthConfig) -> CrossDomainDataset:
    """Generate a two-domain dataset whose positives are each user's top
    items under a noisy latent score; see SynthConfig for the knobs.
    """
    internals = _synth_internals(cfg)
    ipu = cfg.interactions_per_user
    top_t = _top_items(internals["noisy_t"], ipu)
    top_s = _top_items(internals["noisy_s"], ipu * cfg.source_density_ratio)

    n_overlap = internals["n_overlap"]
    target_to_source = np.full(cfg.n_users_target, -1, dtype=np.int64)
    target_to_source[:n_overlap] = np.arange(n_overlap)

    raw_users_target = [f"u{t}" for t in range(cfg.n_users_target)]
    raw_users_source = [f"u{t}" for t in range(n_overlap)] + [
        f"s{j}" for j in range(cfg.n_users_source - n_overlap)
    ]
    ds = CrossDomainDataset(
        n_users_source=cfg.n_users_source,
        n_users_target=cfg.n_users_target,
        n_items_source=cfg.n_items_source,
        n_items_target=cfg.n_items_target,
        interactions_source=_pairs_from_top(top_s),
        interactions_target=_pairs_from_top(top_t),
        target_to_source=target_to_source,
        target_group=internals["groups"],
        group_labels=("A", "B"),
        raw_ids={
            "users_source": raw_users_source,
            "users_target": raw_users_target,
            "items_source": [f"si{j}" for j in range(cfg.n_items_source)],
            "items_target": [f"ti{j}" for j in range(cfg.n_items_target)],
        },
    )
    return ds.validate()


SYNTH_KEYS = (
    "n_users_source", "n_users_target", "overlap_fraction", "n_items_source",
    "n_items_target", "latent_dim", "group_split", "source_disparity",
    "domain_shift", "interactions_per_user", "source_density_ratio", "rng_seed",
)
SYNTH_FLOAT_KEYS = ("overlap_fraction", "group_split", "source_disparity", "domain_shift")


def _as_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {value!r}")


def _int_list(value: str) -> tuple:
    return tuple(int(x) for x in value.split(",") if x.strip())


_EXPECTED = {int: "an integer", float: "a number", _int_list: "comma-separated integers"}


def _convert(key: str, value: str, conv):
    try:
        return conv(value)
    except ValueError:
        raise UsageError(f"{key}: expected {_EXPECTED[conv]}, got {value!r}") from None


def resolve_config_tables(values: dict) -> RunConfig:
    cfg = RunConfig()
    synth_wanted = "synth" in values and _as_bool(values.pop("synth"), "synth")
    synth_kwargs = {}
    handlers = {
        "source_interactions": ("source_interactions", str),
        "target_interactions": ("target_interactions", str),
        "attributes": ("attributes", str),
        "embedding_dim": ("embedding_dim", int),
        "sharing_mode": ("sharing_mode", str),
    }
    train_handlers = {
        "seed": int, "learning_rate": float, "batch_size": int, "l2_reg": float, "epochs": int,
        "gamma": float, "beta": float, "patience": int, "estimator_dropout": float,
        "estimator_lr": float, "snapshot_every": int, "include_source": None,
        "use_fair_sampling": None, "use_estimator_loss": None,
        "epsilon": float, "candidate_size": int, "negatives_per_positive": int,
    }
    for key, value in values.items():
        if key in handlers:
            attr, conv = handlers[key]
            setattr(cfg, attr, _convert(key, value, conv))
        elif key in train_handlers:
            conv = train_handlers[key]
            parsed = _as_bool(value, key) if conv is None else _convert(key, value, conv)
            setattr(cfg.train, key, parsed)
        elif key == "estimator_hidden":
            cfg.train.estimator_hidden = _convert(key, value, _int_list)
        elif key == "eval_ks":
            cfg.eval_ks = _convert(key, value, _int_list)
        elif key in SYNTH_KEYS:
            conv = float if key in SYNTH_FLOAT_KEYS else int
            synth_kwargs[key] = _convert(key, value, conv)
        else:
            raise UsageError(f"unknown config key {key!r}")
    if synth_wanted or synth_kwargs:
        cfg.synth = SynthConfig(**synth_kwargs)
    if cfg.synth is not None and "rng_seed" not in synth_kwargs:
        cfg.synth.rng_seed = cfg.train.seed
    return cfg
