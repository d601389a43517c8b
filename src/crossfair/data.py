"""Two-domain implicit-feedback data model, TSV ingestion, per-user splits,
and a synthetic generator with controllable group-disparity knobs.

Interaction files are TSV with a header naming ``user_id`` and ``item_id``
columns (extra columns ignored). Attribute files are TSV with ``user_id``
and ``attribute`` columns carrying exactly two distinct values; the
lexicographically smaller value becomes group 0. Raw identifiers are
densified in first-seen order and the mapping is retained for reports.
Users appearing in both domains' interaction files (same raw id) are the
overlapping users.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .seeding import make_rng

G0 = 0
G1 = 1

# Base ranking-noise scales of the synthetic generator, as multiples of the
# latent score standard deviation sqrt(latent_dim). Group g1's source-domain
# noise is additionally multiplied by SynthConfig.source_disparity.
SYNTH_NOISE_TARGET = 0.5
SYNTH_NOISE_SOURCE = 0.75


@dataclass
class LoadedInteractions:
    """Deduplicated (user, item) pairs as an (n, 2) int64 array, plus
    dense-index -> raw-id maps."""

    pairs: np.ndarray
    user_ids: list
    item_ids: list


def _read_tsv_rows(path):
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


def load_interactions(path, id_remap: bool = True) -> LoadedInteractions:
    """Parse an interactions TSV into deduplicated dense (user, item) pairs.

    With ``id_remap`` raw ids are densified in first-seen order; otherwise
    the raw ids must already be integers and are used as-is. Duplicate pairs
    keep their first occurrence.
    """
    header, rows = _read_tsv_rows(path)
    try:
        ucol = header.index("user_id")
        icol = header.index("item_id")
    except ValueError:
        raise DataError(f"{path}: header must name user_id and item_id columns")
    if not rows:
        raise DataError(f"{path}: no interactions")

    user_map: dict = {}
    item_map: dict = {}
    users, items = [], []
    for lineno, cols in rows:
        ru, ri = cols[ucol], cols[icol]
        if id_remap:
            users.append(user_map.setdefault(ru, len(user_map)))
            items.append(item_map.setdefault(ri, len(item_map)))
        else:
            try:
                users.append(int(ru))
                items.append(int(ri))
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-integer id with id_remap off")
    pairs = np.array([users, items], dtype=np.int64).T
    negative = np.flatnonzero((pairs < 0).any(axis=1))
    if len(negative):
        raise DataError(f"{path}:{rows[negative[0]][0]}: negative id")
    _, first = np.unique(pairs, axis=0, return_index=True)
    pairs = pairs[np.sort(first)]
    if id_remap:
        user_ids, item_ids = list(user_map), list(item_map)
    else:
        user_ids = [str(u) for u in range(pairs[:, 0].max() + 1)]
        item_ids = [str(i) for i in range(pairs[:, 1].max() + 1)]
    return LoadedInteractions(pairs=pairs, user_ids=user_ids, item_ids=item_ids)


def load_attributes(path):
    """Parse an attributes TSV into {raw user id -> group} plus label names.

    The file must carry exactly two distinct attribute values; the
    lexicographically smaller one becomes group 0. A user listed twice with
    conflicting values is an error.
    """
    header, rows = _read_tsv_rows(path)
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


@dataclass
class CrossDomainDataset:
    """Users, items, and implicit positives for a source and target domain.

    Index spaces are dense per domain. Interactions are (n, 2) int64 arrays
    with users in column 0 and items in column 1. ``target_to_source`` holds
    each target user's source user id, or -1 for users with no source
    identity. ``target_group`` labels every target user with 0 or 1.
    """

    n_users_source: int
    n_users_target: int
    n_items_source: int
    n_items_target: int
    interactions_source: np.ndarray
    interactions_target: np.ndarray
    target_to_source: np.ndarray
    target_group: np.ndarray
    group_labels: tuple = ("g0", "g1")
    raw_ids: dict = field(default_factory=dict, repr=False)

    def validate(self):
        for domain, pairs, n_users, n_items in (
            ("source", self.interactions_source, self.n_users_source, self.n_items_source),
            ("target", self.interactions_target, self.n_users_target, self.n_items_target),
        ):
            if pairs.ndim != 2 or pairs.shape[1] != 2:
                raise DataError(f"{domain} interactions must be an (n, 2) array")
            bad = (pairs < 0).any(axis=1) | (pairs[:, 0] >= n_users) | (pairs[:, 1] >= n_items)
            if np.any(bad):
                u, i = pairs[np.argmax(bad)]
                raise DataError(f"{domain} interaction ({u},{i}) out of range")
            if len(np.unique(pairs[:, 0] * n_items + pairs[:, 1])) != len(pairs):
                raise DataError(f"duplicate (user, item) pair in {domain} domain")
        t2s = self.target_to_source
        if t2s.shape != (self.n_users_target,):
            raise DataError("overlap must hold one entry per target user")
        linked = t2s[t2s >= 0]
        if len(np.unique(linked)) != len(linked):
            raise DataError("overlap map is not injective")
        bad = (t2s < -1) | (t2s >= self.n_users_source)
        if np.any(bad):
            raise DataError(f"overlap value {t2s[np.argmax(bad)]} not a source user")
        groups = self.target_group
        if groups.shape != (self.n_users_target,):
            raise DataError("groups must hold one label per target user")
        missing = np.flatnonzero((groups != G0) & (groups != G1))
        if len(missing):
            raise DataError(
                f"{len(missing)} target users lack a group label (first: {missing[0]})"
            )
        if not (np.any(groups == G0) and np.any(groups == G1)):
            raise DataError("expected exactly two distinct group labels among target users")
        return self

    def group_array(self) -> np.ndarray:
        """Group label per target user as an int array."""
        return self.target_group

    def overlap_arrays(self):
        """Overlap as parallel (target ids, source ids) arrays, sorted by target id."""
        t = np.flatnonzero(self.target_to_source >= 0)
        return t, self.target_to_source[t]

    def sha256(self) -> str:
        """Hex digest over the shapes and little-endian int64 bytes of the
        interaction, overlap and group arrays, in that order."""
        h = hashlib.sha256()
        for arr in (self.interactions_source, self.interactions_target,
                    self.target_to_source, self.target_group):
            h.update(repr(tuple(arr.shape)).encode("ascii"))
            h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
        return h.hexdigest()


def build_dataset(source: LoadedInteractions, target: LoadedInteractions,
                  attrs: dict, group_labels=("g0", "g1")) -> CrossDomainDataset:
    """Assemble a validated dataset from loaded files.

    Overlap is derived from raw user ids shared between the two interaction
    files. Every target user must appear in ``attrs`` (keyed by raw id);
    attribute entries for unknown users are ignored.
    """
    source_users = {ru: idx for idx, ru in enumerate(source.user_ids)}
    for ru in target.user_ids:
        if ru not in attrs:
            raise DataError(f"target user {ru!r} missing from the attribute file")
    ds = CrossDomainDataset(
        n_users_source=len(source.user_ids),
        n_users_target=len(target.user_ids),
        n_items_source=len(source.item_ids),
        n_items_target=len(target.item_ids),
        interactions_source=source.pairs,
        interactions_target=target.pairs,
        target_to_source=np.array(
            [source_users.get(ru, -1) for ru in target.user_ids], dtype=np.int64
        ),
        target_group=np.array([attrs[ru] for ru in target.user_ids], dtype=np.int64),
        group_labels=tuple(group_labels),
        raw_ids={
            "users_source": list(source.user_ids),
            "users_target": list(target.user_ids),
            "items_source": list(source.item_ids),
            "items_target": list(target.item_ids),
        },
    )
    return ds.validate()


def load_dataset(source_path, target_path, attrs_path) -> CrossDomainDataset:
    source = load_interactions(source_path)
    target = load_interactions(target_path)
    attrs, labels = load_attributes(attrs_path)
    return build_dataset(source, target, attrs, group_labels=labels)


def write_tsv(path, names, first, second):
    """Write two equal-length columns (any values with a ``str`` form) as
    TSV under a header naming them."""
    lines = np.char.add(
        np.char.add(np.asarray(first).astype(str), "\t"),
        np.char.add(np.asarray(second).astype(str), "\n"),
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(names) + "\n")
        fh.write("".join(lines.tolist()))


def write_interactions(path, pairs, user_ids=None, item_ids=None):
    """Write pairs as TSV, mapping dense ids through the given raw-id lists."""
    users, items = pairs[:, 0], pairs[:, 1]
    if user_ids is not None:
        users = np.asarray(user_ids, dtype=str)[users]
    if item_ids is not None:
        items = np.asarray(item_ids, dtype=str)[items]
    write_tsv(path, ("user_id", "item_id"), users, items)


def write_attributes(path, groups, user_ids=None, group_labels=("A", "B")):
    """Write one attribute row per user from a per-user group array."""
    users = np.arange(len(groups)) if user_ids is None else np.asarray(user_ids, dtype=str)
    write_tsv(path, ("user_id", "attribute"), users,
              np.asarray(group_labels, dtype=str)[groups])


@dataclass
class SplitDataset:
    """Per-user interaction splits, each an (n, 2) int64 array: 8:2 for
    source, 8:1:1 for target."""

    source_train: np.ndarray
    source_val: np.ndarray
    target_train: np.ndarray
    target_val: np.ndarray
    target_test: np.ndarray


def _split_by_user(pairs, fractions, rng):
    """Group pairs by ascending user (items keep their order), shuffle each
    user's items in place, then cut each user's list into consecutive parts:
    part k >= 1 takes floor(fractions[k-1] * n) items and part 0 the
    remainder, which is at least one item while the fractions sum below 1.
    """
    order = np.argsort(pairs[:, 0], kind="stable")
    users, items = pairs[order, 0], pairs[order, 1]
    _, starts, counts = np.unique(users, return_index=True, return_counts=True)
    for start, n in zip(starts.tolist(), counts.tolist()):
        rng.shuffle(items[start: start + n])
    sizes = [np.floor(f * counts).astype(np.int64) for f in fractions]
    ends = np.cumsum([counts - sum(sizes), *sizes], axis=0)
    pos = np.arange(len(users)) - np.repeat(starts, counts)
    part = (pos >= np.repeat(ends, counts, axis=1)).sum(axis=0)
    shuffled = np.column_stack([users, items])
    return [shuffled[part == k] for k in range(len(fractions) + 1)]


def split_per_user(ds: CrossDomainDataset, seed: int) -> SplitDataset:
    """Shuffle each user's items with a seeded RNG, then split by ratio with
    floor rounding; the training portion takes the remainder, so every user
    with at least one interaction keeps at least one training pair.
    """
    rng = make_rng(seed, "split")
    source = _split_by_user(ds.interactions_source, (0.2,), rng)
    target = _split_by_user(ds.interactions_target, (0.1, 0.1), rng)
    return SplitDataset(*source, *target)


@dataclass
class SynthConfig:
    """Knobs of the synthetic two-domain generator.

    ``source_disparity`` multiplies the ranking-noise scale of group g1's
    source-domain signal (1 means both groups are treated identically).
    ``domain_shift`` in [0, 1] rotates and translates the source item latent
    space away from the target's. ``source_density_ratio`` mirrors the
    density asymmetry of real two-domain logs, where source histories are
    several times longer than target ones: source users receive
    ``source_density_ratio * interactions_per_user`` positives.
    """

    n_users_source: int = 1000
    n_users_target: int = 2000
    overlap_fraction: float = 0.5
    n_items_source: int = 1000
    n_items_target: int = 1000
    latent_dim: int = 16
    group_split: float = 0.5
    source_disparity: float = 1.0
    domain_shift: float = 0.2
    interactions_per_user: int = 20
    source_density_ratio: int = 1
    rng_seed: int = 0

    def validate(self):
        if min(self.n_users_source, self.n_users_target,
               self.n_items_source, self.n_items_target,
               self.latent_dim, self.interactions_per_user) <= 0:
            raise DataError("all synthetic counts must be positive")
        if not 0.0 <= self.overlap_fraction <= 1.0:
            raise DataError("overlap_fraction must lie in [0, 1]")
        if not 0.0 < self.group_split < 1.0:
            raise DataError("group_split must lie in (0, 1)")
        if self.source_disparity < 1.0:
            raise DataError("source_disparity must be >= 1")
        if not 0.0 <= self.domain_shift <= 1.0:
            raise DataError("domain_shift must lie in [0, 1]")
        if self.source_density_ratio < 1:
            raise DataError("source_density_ratio must be >= 1")
        if self.interactions_per_user > self.n_items_target:
            raise DataError("interactions_per_user exceeds the item count")
        if self.interactions_per_user * self.source_density_ratio > self.n_items_source:
            raise DataError("interactions_per_user exceeds the item count")
        n_overlap = int(round(self.overlap_fraction * self.n_users_target))
        if n_overlap > self.n_users_source:
            raise DataError("overlap_fraction implies more overlapping users than source users")
        return self


def _cayley_rotation(skew: np.ndarray, strength: float) -> np.ndarray:
    # Orthogonal for any strength, identity at strength 0.
    k = skew.shape[0]
    b = 0.5 * strength * skew
    eye = np.eye(k)
    return np.linalg.solve(eye + b, eye - b)


def _synth_internals(cfg: SynthConfig):
    cfg.validate()
    rng = make_rng(cfg.rng_seed, "synth")
    k = cfg.latent_dim
    n_overlap = int(round(cfg.overlap_fraction * cfg.n_users_target))

    user_t = rng.standard_normal((cfg.n_users_target, k))
    user_s_extra = rng.standard_normal((cfg.n_users_source - n_overlap, k))
    item_t = rng.standard_normal((cfg.n_items_target, k))
    item_s = rng.standard_normal((cfg.n_items_source, k))

    skew = rng.standard_normal((k, k))
    skew = skew - skew.T
    rot = _cayley_rotation(skew, cfg.domain_shift)
    translation = cfg.domain_shift * rng.standard_normal(k)
    item_s = item_s @ rot.T + translation

    perm = rng.permutation(cfg.n_users_target)
    n_g0 = int(round(cfg.group_split * cfg.n_users_target))
    groups = np.full(cfg.n_users_target, G1, dtype=np.int64)
    groups[perm[:n_g0]] = G0

    # Source user latents: overlapping target users keep their preference
    # vector (identity mapping t -> s for t < n_overlap); the rest are fresh.
    user_s = np.vstack([user_t[:n_overlap], user_s_extra])

    true_t = user_t @ item_t.T
    noisy_t = true_t + SYNTH_NOISE_TARGET * np.sqrt(k) * rng.standard_normal(true_t.shape)

    true_s = user_s @ item_s.T
    noise_mult = np.ones(cfg.n_users_source)
    noise_mult[:n_overlap] = np.where(groups[:n_overlap] == G1, cfg.source_disparity, 1.0)
    sigma_s = SYNTH_NOISE_SOURCE * np.sqrt(k) * noise_mult
    noisy_s = true_s + sigma_s[:, None] * rng.standard_normal(true_s.shape)

    return {
        "n_overlap": n_overlap,
        "groups": groups,
        "true_t": true_t,
        "noisy_t": noisy_t,
        "true_s": true_s,
        "noisy_s": noisy_s,
    }


def _top_items(scores: np.ndarray, count: int) -> np.ndarray:
    # Deterministic top-count per row; ties broken by ascending item id.
    order = np.argsort(-scores, axis=1, kind="stable")
    return order[:, :count]


def _pairs_from_top(top: np.ndarray) -> np.ndarray:
    # (user, item) pairs from per-user rows of item ids, items ascending per user
    users = np.repeat(np.arange(len(top), dtype=np.int64), top.shape[1])
    return np.column_stack([users, np.sort(top, axis=1).ravel()])


def generate_synthetic(cfg: SynthConfig) -> CrossDomainDataset:
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


def synthetic_rank_quality(cfg: SynthConfig):
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
    true_top = _top_items(internals["true_s"][:n_overlap], ipu)
    noisy_order = np.argsort(-internals["noisy_s"][:n_overlap], axis=1, kind="stable")
    ranks = np.empty_like(noisy_order)
    rows = np.arange(n_overlap)[:, None]
    ranks[rows, noisy_order] = np.arange(noisy_order.shape[1])[None, :]
    mean_rank = ranks[rows, true_top].mean(axis=1)
    g = groups[:n_overlap]
    if not (np.any(g == G0) and np.any(g == G1)):
        raise DataError("both groups must appear among overlapping users")
    return float(mean_rank[g == G0].mean()), float(mean_rank[g == G1].mean())
