"""Memory guards: full-ranking evaluation and the negative pool hold no more
users x items copies than they need."""

import tracemalloc
from types import SimpleNamespace

import numpy as np

from crossfair.data import SplitDataset
from crossfair.metrics import evaluate
from crossfair.sampler import NegativePool

N_USERS, N_ITEMS, D = 2000, 3000, 32


def wide_arrays():
    """A split of 16 training, 2 validation and 2 test items per target
    user, all distinct within a user, and a backbone view with random
    vectors."""
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
    backbone = SimpleNamespace(item_target=rng.normal(size=(N_ITEMS, D)),
                               user_target_vectors=lambda u: user_vecs[u])
    return backbone, split, ds


def test_evaluate_peak_below_score_matrix_and_a_half():
    backbone, split, ds = wide_arrays()
    score_bytes = N_USERS * N_ITEMS * 8
    tracemalloc.start()
    try:
        evaluate(backbone, split, ds, ks=(10, 20, 50))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.6 * score_bytes


def test_pool_holds_four_bytes_per_eligible_item():
    _, split, _ = wide_arrays()
    pool = NegativePool(N_ITEMS, split.target_train, N_USERS)
    assert pool.flat.nbytes == 4 * pool.lengths.sum()
    assert pool.lengths.sum() == N_USERS * (N_ITEMS - 16)
