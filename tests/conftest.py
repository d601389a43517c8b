import os

# One thread per BLAS pool, as the benchmark runs, set before numpy loads:
# only a process with one OS thread draws its negatives in a forked child
# (``crossfair.sampler._fork_context``), which is the path the suite should
# take. Subprocesses the tests start inherit it.
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from crossfair.data import (  # noqa: E402
    CrossDomainDataset, SynthConfig, generate_synthetic, split_per_user)


def micro_dataset():
    """Hand-built 6-user/8-item two-domain dataset with 3 overlapping users."""
    interactions_target = np.array([
        (0, 0), (0, 1), (0, 2),
        (1, 1), (1, 3), (1, 4),
        (2, 2), (2, 5), (2, 6),
        (3, 0), (3, 4), (3, 7),
        (4, 3), (4, 5), (4, 6),
        (5, 1), (5, 2), (5, 7),
    ])
    interactions_source = np.array([
        (0, 0), (0, 3), (0, 5),
        (1, 1), (1, 2), (1, 6),
        (2, 4), (2, 5), (2, 7),
        (3, 0), (3, 1), (3, 2),
    ])
    ds = CrossDomainDataset(
        n_users_source=4,
        n_users_target=6,
        n_items_source=8,
        n_items_target=8,
        interactions_source=interactions_source,
        interactions_target=interactions_target,
        target_to_source=np.array([0, -1, 1, -1, 3, -1]),
        target_group=np.array([0, 0, 1, 1, 0, 1]),
    )
    return ds.validate()


@pytest.fixture
def micro_ds():
    return micro_dataset()


@pytest.fixture
def micro_split(micro_ds):
    return split_per_user(micro_ds, seed=11)


def small_synth(seed=0, **overrides):
    kwargs = dict(
        n_users_source=60,
        n_users_target=80,
        overlap_fraction=0.5,
        n_items_source=50,
        n_items_target=50,
        latent_dim=8,
        group_split=0.5,
        source_disparity=1.0,
        domain_shift=0.1,
        interactions_per_user=10,
        rng_seed=seed,
    )
    kwargs.update(overrides)
    return generate_synthetic(SynthConfig(**kwargs))


def target_tables(backbone):
    """The target user and item tables that ``metrics.evaluate`` ranks with."""
    return backbone.user_emb_target(), backbone.item_target


@pytest.fixture
def synth_ds():
    return small_synth()
