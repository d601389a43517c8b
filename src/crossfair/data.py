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
from pathlib import Path

import numpy as np

from .errors import DataError
from .numerics import require_finite
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


# Whether a byte, leading a line, makes the line not blank: ASCII and not
# whitespace. A line led by any other byte is decided by ``str.strip``.
_SOLID = np.arange(256) < 128
_SOLID[[9, 10, 11, 12, 13, 28, 29, 30, 31, 32]] = False
# _LOW[k] keeps the k low bytes of a little-endian word.
_LOW = np.array([(1 << 8 * k) - 1 for k in range(8)], np.uint64)


def _line_bounds(codes: np.ndarray, n: int):
    """Start and end byte offsets of the lines ``str.splitlines`` finds in
    the first ``n`` UTF-8 bytes of ``codes``, which holds at least two more.
    The breaks are the bytes \\n \\v \\f \\r \\x1c \\x1d \\x1e, with \\r\\n one
    break, and the encodings of U+0085, U+2028 and U+2029; there is no line
    after a final break. In valid UTF-8 an ASCII byte is never inside a
    multi-byte character, and C2 and E2 only lead one."""
    pos = np.flatnonzero((codes[:n] - 10 < 4) | (codes[:n] - 28 < 3)
                         | (codes[:n] == 0xC2) | (codes[:n] == 0xE2))
    byte, after = codes[pos], codes[pos + 1]
    width = np.where(byte == 0xC2, 2 * (after == 0x85),
                     np.where(byte == 0xE2, 3 * ((after == 0x80) & (codes[pos + 2] - 0xA8 < 2)),
                              1 + ((byte == 13) & (after == 10))))
    keep = (width > 0) & ~((byte == 10) & (codes[pos - 1] == 13))
    starts = np.concatenate([[0], pos[keep] + width[keep]])
    lines = len(starts) - (starts[-1] == n)  # no line after a final break
    return starts[:lines], np.append(pos[keep], n)[:lines]


def _first_seen(key: np.ndarray):
    """Codes numbering the distinct values of ``key`` in order of first
    occurrence, and the row where each code first occurs."""
    order = np.argsort(key)
    ordered = key[order]
    head = np.ones(len(key), bool)  # each sorted position that starts a value's run
    head[1:] = ordered[1:] != ordered[:-1]
    first = np.minimum.reduceat(order, np.flatnonzero(head))
    seen = np.argsort(first)
    rank = np.empty_like(seen)
    rank[seen] = np.arange(len(seen))
    codes = np.empty_like(order)
    codes[order] = rank[np.cumsum(head) - 1]
    return codes, first[seen]


class TsvTable:
    """A TSV file's lines and cells, as byte offsets into the file.

    ``header`` holds the first line's cells. The body is every later line
    that is not blank or whitespace-only. Cell ``c < len(header)`` of body
    row ``r`` is the file's bytes ``_begins[r, c]`` up to ``_stops[r, c]``.
    """

    def __init__(self, path, raw: bytes):
        self.path = path
        self._raw = raw
        n = len(raw)
        # eight zero bytes past the end: room for a word read at any offset
        codes = np.frombuffer(raw + bytes(8), np.uint8)
        self._words = np.ndarray((n + 1,), "<u8", codes, 0, (1,))
        self._starts, self._ends = _line_bounds(codes, n)
        if not len(self._starts):
            raise DataError(f"{path}: empty file")
        self.header = self._line(0).split("\t")
        keep = _SOLID[codes[self._starts]]
        for k in np.flatnonzero(~keep).tolist():
            keep[k] = bool(self._line(k).strip())
        self._body = np.flatnonzero(keep[1:]) + 1  # file line index of each body row
        first, last = self._starts[self._body], self._ends[self._body]
        tabs = np.append(np.flatnonzero(codes == 9), n)
        # Cell c ends at the row's tab number c + 1, or at the line's end. A
        # row narrower than the header ends its last cell at the line's end,
        # so every later cell begins past its end: the empty-cell check
        # below is the width check too.
        cut = tabs.take(np.searchsorted(tabs, first)[:, None] + np.arange(len(self.header)),
                        mode="clip")
        self._stops = np.minimum(cut, last[:, None])
        self._begins = np.column_stack([first, self._stops[:, :-1] + 1])
        bad = (self._stops <= self._begins).any(axis=1)
        if bad.any():
            row = int(np.argmax(bad))
            raise DataError(f"{path}:{self.lineno(row)}: malformed row "
                            f"{self._line(self._body[row])!r}")

    def _line(self, k) -> str:
        return self._raw[self._starts[k]:self._ends[k]].decode("utf-8")

    def _key_chunk(self, begins, sizes, j):
        """Bytes 7j to 7j + 7 of each cell, zeroed past its end, with their
        count in the top byte: no two cells share all of their chunks, not
        even ``a`` and ``a\\x00``."""
        size = np.clip(sizes - 7 * j, 0, 7)
        word = self._words[np.minimum(begins + 7 * j, len(self._raw))]
        return word & _LOW[size] | size.astype(np.uint64) << 56

    def densify(self, names, missing: str) -> list:
        """Each named column as (dense codes, raw ids by code): the distinct
        cells numbered in first-seen order. The ``missing`` message ends the
        load when the header lacks a name."""
        try:
            index = [self.header.index(name) for name in names]
        except ValueError:
            raise DataError(f"{self.path}: {missing}") from None
        out = []
        for c in index:
            begins, stops = self._begins[:, c], self._stops[:, c]
            sizes = stops - begins
            key = self._key_chunk(begins, sizes, 0)
            for j in range(1, -(-int(sizes.max(initial=1)) // 7)):  # ids past 7 bytes
                # two codes, each below the row count, make one key
                key = _first_seen(key)[0] * len(key) + _first_seen(
                    self._key_chunk(begins, sizes, j))[0]
            codes, first = _first_seen(key)
            ids = [self._raw[b:e].decode("utf-8")
                   for b, e in zip(begins[first].tolist(), stops[first].tolist())]
            out.append((codes, ids))
        return out

    def lineno(self, row: int) -> int:
        """1-based file line of body row ``row``, skipped lines counted."""
        return int(self._body[row]) + 1


def read_tsv(path) -> TsvTable:
    """Read a UTF-8 TSV file. Any ``str.splitlines`` separator ends a line.
    Every body row needs at least as many cells as the header, none of them
    empty within the header's width; cells past it are kept but unchecked."""
    try:
        raw = Path(path).read_bytes()
        raw.decode("utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    return TsvTable(path, raw)


def load_interactions(path) -> LoadedInteractions:
    """Parse an interactions TSV into deduplicated dense (user, item) pairs.

    Raw ids are densified in first-seen order. Duplicate pairs keep their
    first occurrence.
    """
    (u, user_ids), (i, item_ids) = read_tsv(path).densify(
        ("user_id", "item_id"), "header must name user_id and item_id columns")
    if not len(u):
        raise DataError(f"{path}: no interactions")
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
    (codes, user_ids), (values, labels) = table.densify(
        ("user_id", "attribute"), "header must name user_id and attribute columns")
    _, first = np.unique(codes, return_index=True)  # each user's first row
    conflict = values != values[first[codes]]
    if conflict.any():
        row = int(np.argmax(conflict))
        raise DataError(f"{path}:{table.lineno(row)}: conflicting attribute for user "
                        f"{user_ids[codes[row]]!r}")
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
    identity. ``target_group`` labels every target user with 0 or 1. A
    dataset is validated when made; ``validate()`` re-checks one changed since.
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

    def __post_init__(self):
        self.validate()

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
        if len(self.group_labels) != 2 or not self.group_labels[0] < self.group_labels[1]:
            raise DataError(f"group labels must be two distinct names in ascending order, "
                            f"got {list(map(str, self.group_labels))}")
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
    """Assemble a dataset from two domains' pairs and raw ids.

    Overlap is derived from raw user ids shared between the two interaction
    files. Every target user must appear in ``attrs`` (keyed by raw id);
    attribute entries for unknown users are ignored.
    """
    source_users = {ru: idx for idx, ru in enumerate(source.user_ids)}
    for ru in target.user_ids:
        if ru not in attrs:
            raise DataError(f"target user {ru!r} missing from the attribute file")
    return CrossDomainDataset(
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


def _top_items(scores: np.ndarray, k: int) -> np.ndarray:
    """Each row's ids of its k highest scores, ascending: the set the first k
    columns of a stable argsort of ``-scores`` give. A row whose k-th score
    is tied across the cut, where the partition may keep the wrong ids, is
    sorted in full."""
    top = np.sort(np.argpartition(scores, -k, axis=1)[:, -k:], axis=1)
    kth = np.take_along_axis(scores, top, axis=1).min(axis=1, keepdims=True)
    redo = (scores >= kth).sum(axis=1) > k
    if redo.any():
        top[redo] = np.sort(np.argsort(-scores[redo], axis=1, kind="stable")[:, :k], axis=1)
    return top


def _pairs_from_top(top: np.ndarray) -> np.ndarray:
    # (user, item) pairs from per-user rows of ascending item ids
    users = np.repeat(np.arange(len(top), dtype=np.int64), top.shape[1])
    return np.column_stack([users, top.ravel()])


def generate_synthetic(cfg: SynthConfig) -> CrossDomainDataset:
    """Generate a two-domain dataset whose positives are each user's top
    items under a noisy latent score; see SynthConfig for the knobs. The
    pairs and raw ids go through ``build_dataset`` as loaded files would.
    """
    internals = _synth_internals(cfg)
    ipu = cfg.interactions_per_user
    top_t = _top_items(internals["noisy_t"], ipu)
    top_s = _top_items(internals["noisy_s"], ipu * cfg.source_density_ratio)
    n_overlap = internals["n_overlap"]
    users_target = [f"u{t}" for t in range(cfg.n_users_target)]
    source = LoadedInteractions(
        _pairs_from_top(top_s),
        users_target[:n_overlap] + [f"s{j}" for j in range(cfg.n_users_source - n_overlap)],
        [f"si{j}" for j in range(cfg.n_items_source)])
    target = LoadedInteractions(_pairs_from_top(top_t), users_target,
                                [f"ti{j}" for j in range(cfg.n_items_target)])
    attrs = dict(zip(users_target, internals["groups"].tolist()))
    return build_dataset(source, target, attrs, group_labels=("A", "B"))
