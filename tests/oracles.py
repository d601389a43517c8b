"""Loop references for the vectorized data paths.

Each function is the per-pair Python loop the package used before its
interactions became arrays; the tests require the array code to reproduce
these outputs exactly, order included.
"""

import numpy as np

from crossfair.seeding import make_rng


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
