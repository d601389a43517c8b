"""Write one workload's TSV inputs from a seed.

    python3 perfbench/gen.py <workload> <seed> <out_dir>

Runs in its own process so that the dense score matrices built here never
count towards the measured process's memory peak. The model follows the
disparity fixture of the acceptance suite: Gaussian user and item latents,
each user's positives are the top items under a noisy latent score, source
items are rotated and translated away from the target's, and group g1's
source-domain noise is ``source_disparity`` times that of g0. The generator
is the benchmark's own, so a change to the program's synthetic generator
does not change the benchmark's inputs.
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

from workloads import WORKLOADS

NOISE_TARGET = 0.5
NOISE_SOURCE = 0.75


def _rotation(rng, k: int, strength: float) -> np.ndarray:
    skew = rng.standard_normal((k, k))
    skew = 0.5 * strength * (skew - skew.T)
    eye = np.eye(k)
    return np.linalg.solve(eye + skew, eye - skew)  # Cayley map: orthogonal


def _top(scores: np.ndarray, count: int) -> np.ndarray:
    """Each row's ``count`` highest-scoring item ids, ascending."""
    return np.sort(np.argpartition(-scores, count - 1, axis=1)[:, :count], axis=1)


def generate(shape: dict, seed: int):
    rng = np.random.default_rng([seed, 0x5EED])
    k = shape["latent_dim"]
    n_t, n_s = shape["n_users_target"], shape["n_users_source"]
    n_overlap = int(round(shape["overlap_fraction"] * n_t))
    user_t = rng.standard_normal((n_t, k))
    user_s = np.vstack([user_t[:n_overlap], rng.standard_normal((n_s - n_overlap, k))])
    item_t = rng.standard_normal((shape["n_items_target"], k))
    item_s = rng.standard_normal((shape["n_items_source"], k))
    shift = shape["domain_shift"]
    item_s = item_s @ _rotation(rng, k, shift).T + shift * rng.standard_normal(k)

    groups = np.ones(n_t, dtype=np.int64)
    groups[rng.permutation(n_t)[: int(round(shape["group_split"] * n_t))]] = 0

    noisy_t = user_t @ item_t.T
    noisy_t += NOISE_TARGET * np.sqrt(k) * rng.standard_normal(noisy_t.shape)
    sigma_s = np.full(n_s, NOISE_SOURCE * np.sqrt(k))
    sigma_s[:n_overlap] *= np.where(groups[:n_overlap] == 1, shape["source_disparity"], 1.0)
    noisy_s = user_s @ item_s.T
    noisy_s += sigma_s[:, None] * rng.standard_normal(noisy_s.shape)

    ipu = shape["interactions_per_user"]
    return {
        "n_overlap": n_overlap,
        "groups": groups,
        "target": _top(noisy_t, ipu),
        "source": _top(noisy_s, ipu * shape["source_density_ratio"]),
    }


def _write_pairs(path: Path, user_ids, item_prefix: str, top: np.ndarray):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("user_id\titem_id\n")
        for u, items in enumerate(top):
            ru = user_ids[u]
            fh.write("".join(f"{ru}\t{item_prefix}{i}\n" for i in items))


def write_inputs(name: str, seed: int, out: Path):
    data = generate(WORKLOADS[name]["data"], seed)
    n_overlap = data["n_overlap"]
    users_t = [f"u{t}" for t in range(len(data["groups"]))]
    users_s = users_t[:n_overlap] + [
        f"s{j}" for j in range(len(data["source"]) - n_overlap)
    ]
    out.mkdir(parents=True, exist_ok=True)
    _write_pairs(out / "interactions_target.tsv", users_t, "ti", data["target"])
    _write_pairs(out / "interactions_source.tsv", users_s, "si", data["source"])
    with open(out / "attributes.tsv", "w", encoding="utf-8") as fh:
        fh.write("user_id\tattribute\n")
        fh.write("".join(f"{ru}\t{'AB'[g]}\n" for ru, g in zip(users_t, data["groups"])))


if __name__ == "__main__":
    write_inputs(sys.argv[1], int(sys.argv[2]), Path(sys.argv[3]))
