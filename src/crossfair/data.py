"""Two-domain implicit-feedback data model, TSV ingestion, per-user splits,
and a synthetic generator with controllable group-disparity knobs.

Interaction files are TSV with a header naming ``user_id`` and ``item_id``
columns (extra columns ignored). Attribute files are TSV with ``user_id``
and ``attribute`` columns carrying exactly two distinct values; the
lexicographically smaller value becomes group 0. Raw identifiers are
densified in first-seen order and the mapping is retained for reports.
Users appearing in both domains' interaction files (same raw id) are the
overlapping users.

The encoders of every file crossfair writes live here too: ``json_text``,
``write_csv`` and ``write_tsv``.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
from dataclasses import dataclass, field
from itertools import islice
from operator import not_
from pathlib import Path

import numpy as np

from .errors import DataError
from .numerics import require_finite, top_k
from .seeding import make_rng

G0 = 0
G1 = 1
# The two groups, in the order every per-group loop and report takes them.
GROUPS = (G0, G1)


def group_means(values: np.ndarray, groups: np.ndarray):
    """Each group's count of ``values`` and their mean, by group; the mean of
    a group without values is None. ``groups`` labels each value."""
    counts, means = {}, {}
    for g in GROUPS:
        sel = groups == g
        counts[g] = int(sel.sum())
        means[g] = float(values[sel].mean()) if counts[g] else None
    return counts, means


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


def _row_widths(text: str) -> np.ndarray:
    """Cells per row of newline-joined rows: one more than the row's tabs,
    counted over the UTF-8 bytes, where no multi-byte character holds a tab
    or newline byte."""
    codes = np.frombuffer(text.encode("utf-8"), np.uint8)
    seps = codes[(codes == 9) | (codes == 10)]
    return np.diff(np.flatnonzero(seps == 10), prepend=-1, append=len(seps))


class TsvTable:
    """A TSV file split into cells once.

    ``header`` holds the first line's cells. The body is every later line
    that is not blank or whitespace-only, as one flat ``fields`` list: body
    row ``r`` owns the cells from ``starts[r]`` up to the next row's start.
    """

    def __init__(self, path, lines, body):
        self.path = path
        self.header = lines[0].split("\t")
        self._lines = lines
        if body:
            text = "\n".join(body)
            widths = _row_widths(text)
            self.fields = text.replace("\n", "\t").split("\t")
        else:
            widths, self.fields = np.zeros(0, np.int64), []
        self.starts = np.cumsum(widths) - widths
        bad = widths < len(self.header)
        if "" in self.fields:
            empty = np.flatnonzero(np.fromiter(map(not_, self.fields), bool, len(self.fields)))
            row = np.searchsorted(self.starts, empty, side="right") - 1
            bad[row[empty - self.starts[row] < len(self.header)]] = True
        if bad.any():
            row = int(np.argmax(bad))
            raise DataError(f"{path}:{self.lineno(row)}: malformed row {body[row]!r}")

    def columns(self, names, missing: str) -> list:
        """The body cells under each named header column, as lists; the
        ``missing`` message ends the load when the header lacks a name."""
        try:
            index = [self.header.index(name) for name in names]
        except ValueError:
            raise DataError(f"{self.path}: {missing}") from None
        width = len(self.header)
        if len(self.fields) == width * len(self.starts):
            # no row is narrower than the header, so here each is as wide
            return [self.fields[c::width] for c in index]
        return [list(map(self.fields.__getitem__, (self.starts + c).tolist())) for c in index]

    def lineno(self, row: int) -> int:
        """1-based file line of body row ``row``, skipped lines counted."""
        kept = (n for n, line in enumerate(self._lines[1:], start=2) if line.strip())
        return next(islice(kept, row, None))


def read_tsv(path) -> TsvTable:
    """Read a UTF-8 TSV file. Any ``str.splitlines`` separator ends a line.
    Every body row needs at least as many cells as the header, none of them
    empty within the header's width; cells past it are kept but unchecked."""
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not lines:
        raise DataError(f"{path}: empty file")
    return TsvTable(path, lines, list(filter(str.strip, islice(lines, 1, None))))


def _densify(column):
    """First-seen dense codes of a column of raw ids, and the ids by code."""
    ids = list(dict.fromkeys(column))
    lookup = dict(zip(ids, range(len(ids))))
    return np.fromiter(map(lookup.__getitem__, column), np.int64, len(column)), ids


def load_interactions(path) -> LoadedInteractions:
    """Parse an interactions TSV into deduplicated dense (user, item) pairs.

    Raw ids are densified in first-seen order. Duplicate pairs keep their
    first occurrence.
    """
    users, items = read_tsv(path).columns(
        ("user_id", "item_id"), "header must name user_id and item_id columns")
    if not users:
        raise DataError(f"{path}: no interactions")
    u, user_ids = _densify(users)
    i, item_ids = _densify(items)
    _, first = np.unique(u * len(item_ids) + i, return_index=True)
    first.sort()
    return LoadedInteractions(pairs=np.column_stack([u[first], i[first]]),
                              user_ids=user_ids, item_ids=item_ids)


def load_attributes(path):
    """Parse an attributes TSV into {raw user id -> group} plus label names.

    The file must carry exactly two distinct attribute values; the
    lexicographically smaller one becomes group 0. A user listed twice with
    conflicting values is an error.
    """
    table = read_tsv(path)
    users, attrs = table.columns(
        ("user_id", "attribute"), "header must name user_id and attribute columns")
    codes, user_ids = _densify(users)
    values, labels = _densify(attrs)
    _, first = np.unique(codes, return_index=True)  # each user's first row
    conflict = values != values[first[codes]]
    if conflict.any():
        row = int(np.argmax(conflict))
        raise DataError(f"{path}:{table.lineno(row)}: conflicting attribute for user "
                        f"{users[row]!r}")
    names = sorted(labels)
    if len(names) != 2:
        raise DataError(
            f"{path}: expected exactly 2 distinct attribute values, found {len(names)}"
        )
    groups = np.where(values[first] == labels.index(names[0]), G0, G1)
    return dict(zip(user_ids, groups.tolist())), (names[0], names[1])


def arrays_sha256(*arrays) -> str:
    """Hex digest over the shapes and little-endian int64 bytes of integer
    arrays, in order."""
    h = hashlib.sha256()
    for arr in arrays:
        h.update(repr(np.shape(arr)).encode("ascii"))
        h.update(np.ascontiguousarray(arr, dtype="<i8").tobytes())
    return h.hexdigest()


def _has_repeat(values: np.ndarray) -> bool:
    """Whether any value occurs twice: equal neighbours in a sorted copy."""
    ordered = np.sort(values)
    return bool(np.any(ordered[1:] == ordered[:-1]))


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
            if _has_repeat(pairs[:, 0] * n_items + pairs[:, 1]):
                raise DataError(f"duplicate (user, item) pair in {domain} domain")
        t2s = self.target_to_source
        if t2s.shape != (self.n_users_target,):
            raise DataError("overlap must hold one entry per target user")
        if _has_repeat(t2s[t2s >= 0]):
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
        """``arrays_sha256`` of the interaction, overlap and group arrays, in
        that order."""
        return arrays_sha256(self.interactions_source, self.interactions_target,
                             self.target_to_source, self.target_group)


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
    Path(path).write_text("\t".join(names) + "\n" + "".join(lines.tolist()), encoding="utf-8")


def json_text(obj, indent=None) -> str:
    """``obj`` as JSON with sorted keys and a final newline."""
    return json.dumps(obj, sort_keys=True, indent=indent) + "\n"


def write_csv(path, header, rows):
    """Write a header and rows in ``csv``'s default dialect: CRLF line ends,
    float cells by ``repr``."""
    text = io.StringIO()
    writer = csv.writer(text)
    writer.writerow(header)
    writer.writerows(rows)
    Path(path).write_text(text.getvalue(), encoding="utf-8", newline="")


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
        require_finite(self)
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
        "noisy_t": noisy_t,
        "true_s": true_s,
        "noisy_s": noisy_s,
    }


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
    top_t = top_k(internals["noisy_t"], ipu)
    top_s = top_k(internals["noisy_s"], ipu * cfg.source_density_ratio)

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
