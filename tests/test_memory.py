"""Memory guards: full-ranking evaluation and the negative pool hold no more
users x items copies than they need, and the gain report holds no
per-sample hidden activations."""

import tracemalloc
from types import SimpleNamespace

import numpy as np

from crossfair.backbone import init
from crossfair.data import SplitDataset
from crossfair.gain import GainEstimator, estimate_gain
from crossfair.metrics import evaluate
from crossfair.sampler import NegativePool

N_USERS, N_ITEMS, D = 2000, 3000, 32


def wide_arrays():
    """A split of 16 training, 2 validation and 2 test items per target
    user, all distinct within a user, and random target user and item
    tables."""
    users = np.repeat(np.arange(N_USERS), 20)
    items = (users * 7 + np.tile(np.arange(20) * 151, N_USERS)) % N_ITEMS
    pairs = np.column_stack([users, items]).reshape(N_USERS, 20, 2)
    empty = np.empty((0, 2), dtype=np.int64)
    split = SplitDataset(
        source_train=empty, source_val=empty,
        target_train=pairs[:, :16].reshape(-1, 2),
        target_val=pairs[:, 16:18].reshape(-1, 2),
        target_test=pairs[:, 18:].reshape(-1, 2),
    )
    ds = SimpleNamespace(n_users_target=N_USERS, n_items_target=N_ITEMS,
                         target_group=np.arange(N_USERS) % 2)
    rng = np.random.default_rng(0)
    user_vecs = rng.normal(size=(N_USERS, D))
    backbone = SimpleNamespace(item_target=rng.normal(size=(N_ITEMS, D)), user_target=user_vecs)
    return backbone, split, ds


def test_evaluate_peak_below_score_matrix_and_a_half():
    backbone, split, ds = wide_arrays()
    score_bytes = N_USERS * N_ITEMS * 8
    tracemalloc.start()
    try:
        evaluate(backbone.user_target, backbone.item_target, split, ds, ks=(10, 20, 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * score_bytes


def test_pool_holds_four_bytes_per_eligible_item():
    _, split, _ = wide_arrays()
    pool = NegativePool(N_ITEMS, split.target_train, N_USERS)
    assert pool.flat.nbytes == 4 * pool.lengths.sum()
    assert pool.lengths.sum() == N_USERS * (N_ITEMS - 16)


def test_gain_report_holds_no_per_sample_hidden_activations():
    # 14 positives for each of 1000 overlapping users, half the target users
    n_overlap, per_user, d, hidden = 1000, 14, 32, (128, 64)
    ds = SimpleNamespace(n_users_source=n_overlap, n_users_target=2 * n_overlap,
                         n_items_source=1000, n_items_target=1000,
                         target_to_source=np.concatenate([np.arange(n_overlap),
                                                          np.full(n_overlap, -1)]))
    backbone = init(ds, d, "shared", seed=0)
    estimator = GainEstimator(d, hidden=hidden, seed=0)
    estimator.weights[-1] = np.random.default_rng(1).normal(0, 0.1, estimator.weights[-1].shape)
    rng = np.random.default_rng(2)
    users = rng.permutation(np.repeat(np.arange(n_overlap), per_user))
    items = rng.integers(0, ds.n_items_target, len(users))
    groups = users % 2
    hidden_bytes = len(users) * sum(hidden) * 8
    tracemalloc.start()
    try:
        estimate_gain(backbone, estimator, users, items, groups)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < hidden_bytes
