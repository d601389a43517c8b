"""Pluggable embedding backbones.

Two sharing modes are supported. In ``shared`` mode every overlapping user
owns a single latent row used for both the source and target view (joint
factorization); in ``dual`` mode the two domains keep independent user
tables and overlap is exploited only by the gain machinery.

Storage is a single user pool: target user ``t`` owns row ``t``, and
``source_slot`` maps each source user to its row, so shared-mode aliasing is
real: a gradient applied through either view moves the one underlying row.
``linked_row[t]`` is target user ``t``'s source-view row, or -1 for a user
without a source identity.
"""

from __future__ import annotations

import hashlib
import struct
from pathlib import Path

import numpy as np

from .data import CrossDomainDataset
from .errors import DataError
from .seeding import make_rng

SNAPSHOT_MAGIC = b"CDFA"
SNAPSHOT_VERSION = 1
INIT_STD = 0.1


class Backbone:
    def __init__(self, ds: CrossDomainDataset, d: int, mode: str, seed: int):
        if d < 1:
            raise DataError("embedding dimension must be >= 1")
        if mode not in ("shared", "dual"):
            raise DataError(f"unknown sharing mode {mode!r}")
        self.mode = mode
        self.d = d

        t_ids = np.flatnonzero(ds.target_to_source >= 0)
        s_ids = ds.target_to_source[t_ids]
        self.source_slot = np.full(ds.n_users_source, -1, dtype=np.int64)
        if mode == "shared":
            self.source_slot[s_ids] = t_ids
        # Source users without a shared row get fresh slots after the target block.
        fresh = self.source_slot < 0
        n_fresh = int(fresh.sum())
        self.source_slot[fresh] = ds.n_users_target + np.arange(n_fresh)
        self.linked_row = np.full(ds.n_users_target, -1, dtype=np.int64)
        self.linked_row[t_ids] = self.source_slot[s_ids]

        rng = make_rng(seed, "backbone-init")
        self.user_pool = rng.normal(0.0, INIT_STD, size=(ds.n_users_target + n_fresh, d))
        self.item_source = rng.normal(0.0, INIT_STD, size=(ds.n_items_source, d))
        self.item_target = rng.normal(0.0, INIT_STD, size=(ds.n_items_target, d))

    # -- materialized tables ---------------------------------------------------

    def user_emb_target(self) -> np.ndarray:
        return self.user_pool[:len(self.linked_row)].copy()

    def user_emb_source(self) -> np.ndarray:
        return self.user_pool[self.source_slot]

    # -- bookkeeping -----------------------------------------------------------

    def parameters(self) -> dict:
        return {
            "user_pool": self.user_pool,
            "item_source": self.item_source,
            "item_target": self.item_target,
        }

    def copy(self) -> "Backbone":
        clone = object.__new__(Backbone)
        clone.__dict__.update(self.__dict__)
        clone.user_pool = self.user_pool.copy()
        clone.item_source = self.item_source.copy()
        clone.item_target = self.item_target.copy()
        return clone


def init(ds: CrossDomainDataset, d: int, mode: str, seed: int) -> Backbone:
    """Gaussian(0, 0.1) initialized backbone, deterministic under the seed."""
    return Backbone(ds, d, mode, seed)


def save_snapshot(backbone: Backbone, path) -> str:
    """Write the four embedding tables as little-endian float32 and return
    the sha256 hex digest of the bytes written.

    Layout: magic ``CDFA``, u32 version, then per table (user source, user
    target, item source, item target): u64 rows, u64 cols, row-major f32.
    """
    tables = [
        backbone.user_emb_source(),
        backbone.user_emb_target(),
        backbone.item_source,
        backbone.item_target,
    ]
    parts = [SNAPSHOT_MAGIC, struct.pack("<I", SNAPSHOT_VERSION)]
    for arr in tables:
        parts += [struct.pack("<QQ", *arr.shape), np.ascontiguousarray(arr, dtype="<f4")]
    blob = b"".join(parts)
    Path(path).write_bytes(blob)
    return hashlib.sha256(blob).hexdigest()


def load_snapshot(path) -> tuple[dict, str]:
    """Read a snapshot file back into float64 arrays. Returns the tables by
    name and the sha256 hex digest of the bytes parsed."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if blob[:4] != SNAPSHOT_MAGIC:
        raise DataError(f"{path}: bad snapshot magic")
    if len(blob) < 8:
        raise DataError(f"{path}: truncated snapshot")
    (version,) = struct.unpack_from("<I", blob, 4)
    if version != SNAPSHOT_VERSION:
        raise DataError(f"{path}: unsupported snapshot version {version}")
    off = 8
    out = {}
    for name in ("user_emb_source", "user_emb_target", "item_emb_source", "item_emb_target"):
        if off + 16 > len(blob):
            raise DataError(f"{path}: truncated snapshot")
        rows, cols = struct.unpack_from("<QQ", blob, off)
        off += 16
        nbytes = rows * cols * 4
        if off + nbytes > len(blob):
            raise DataError(f"{path}: truncated snapshot table {name}")
        arr = np.frombuffer(blob, dtype="<f4", count=rows * cols, offset=off)
        out[name] = arr.reshape(rows, cols).astype(np.float64)
        off += nbytes
    return out, hashlib.sha256(blob).hexdigest()
