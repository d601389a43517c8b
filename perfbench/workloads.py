"""Workload definitions shared by the input generator (gen.py), the
measured worker (worker.py) and run.py.

Each workload fixes the shape of the synthetic two-domain inputs, the
training config handed to ``crossfair train``, and the validation NDCG@10
target that ``time_to_target_s`` waits for.
"""

from __future__ import annotations

# Shape of the acceptance disparity fixture: 2000 target users, 1000 source
# users (all of them overlapping), dense source histories, and group g1's
# source signal corrupted four times more than g0's.
_FIXTURE = dict(
    n_users_target=2000,
    n_users_source=1000,
    overlap_fraction=0.5,
    n_items_target=1000,
    n_items_source=1000,
    latent_dim=8,
    group_split=0.5,
    source_disparity=4.0,
    domain_shift=0.2,
    interactions_per_user=16,
    source_density_ratio=4,
)

_TRAIN = dict(
    embedding_dim=32,
    learning_rate=0.01,
    batch_size=2048,
    l2_reg=0.0001,
    gamma=1.0,
    beta=0.9,
    epsilon=1.0,
    candidate_size=8,
    eval_ks="10,20",
)

WORKLOADS = {
    # The paper's main use: fairness-aware training, time spread over many
    # layers (Adam, ranking, BPR + penalty, sampler, gain report).
    "fair-train": dict(
        data=dict(_FIXTURE),
        train=dict(_TRAIN, sharing_mode="shared"),
        variant="full",
        epochs=6,
        target_ndcg=0.03,
    ),
    # Four times the items per domain with the fairness machinery off:
    # full ranking and the O(users x items) negative pool dominate.
    "wide-catalogue": dict(
        data=dict(_FIXTURE, n_items_target=4000, n_items_source=4000),
        train=dict(_TRAIN, sharing_mode="shared"),
        variant="plain",
        epochs=3,
        target_ndcg=0.026,
    ),
    # 100 target items with a candidate set covering most eligible items:
    # every target draw takes the sampler's per-row path; dual mode.
    "dense-catalogue": dict(
        data=dict(_FIXTURE, n_items_target=100),
        train=dict(_TRAIN, sharing_mode="dual", candidate_size=64),
        variant="full",
        epochs=2,
        target_ndcg=0.18,
    ),
}

INPUT_FILES = ("interactions_source.tsv", "interactions_target.tsv", "attributes.tsv")


def config_text(name: str, data_dir) -> str:
    """The ``key = value`` config file the worker passes to ``crossfair``."""
    wl = WORKLOADS[name]
    lines = [
        f"source_interactions = {data_dir}/interactions_source.tsv",
        f"target_interactions = {data_dir}/interactions_target.tsv",
        f"attributes = {data_dir}/attributes.tsv",
        f"epochs = {wl['epochs']}",
        # patience above the epoch count: early stopping never ends a run
        f"patience = {wl['epochs'] + 1}",
    ]
    lines += [f"{key} = {value}" for key, value in wl["train"].items()]
    return "\n".join(lines) + "\n"
