import hashlib

import numpy as np
import pytest

from crossfair.backbone import init, load_snapshot, save_snapshot
from crossfair.errors import DataError

from conftest import micro_dataset, small_synth
from oracles import bpr_loss


def target_view(bb, t):
    return bb.user_pool[t]


def source_view(bb, t):
    assert bb.linked_row[t] >= 0
    return bb.user_pool[bb.linked_row[t]]


def score(bb, user, item):
    return float(target_view(bb, user) @ bb.item_target[item])


class TestInit:
    def test_deterministic(self, micro_ds):
        a = init(micro_ds, 8, "shared", seed=4)
        b = init(micro_ds, 8, "shared", seed=4)
        assert np.array_equal(a.user_pool, b.user_pool)
        assert np.array_equal(a.item_target, b.item_target)

    def test_shared_mode_aliases_overlap_rows(self, micro_ds):
        bb = init(micro_ds, 8, "shared", seed=0)
        for t, s in zip(*micro_ds.overlap_arrays()):
            assert np.array_equal(target_view(bb, t), source_view(bb, t))
            assert t == bb.source_slot[s]

    def test_gaussian_init_moments(self):
        ds = micro_dataset()
        ds.n_users_target = 1000
        ds.target_to_source = np.pad(ds.target_to_source, (0, 994), constant_values=-1)
        ds.target_group = np.arange(1000) % 2
        bb = init(ds, 64, "dual", seed=12)
        vals = bb.user_pool[:ds.n_users_target].ravel()
        assert abs(vals.mean()) < 0.01
        assert abs(vals.std() - 0.1) < 0.01

    @pytest.mark.parametrize("d, mode, message", [
        (0, "shared", "^embedding dimension must be >= 1$"),
        (4, "mirror", "^unknown sharing mode 'mirror'$"),
    ], ids=["zero-dim", "unknown-mode"])
    def test_bad_shape_refused(self, micro_ds, d, mode, message):
        with pytest.raises(DataError, match=message):
            init(micro_ds, d, mode, seed=0)


class TestRowLayout:
    @pytest.mark.parametrize("mode", ["shared", "dual"])
    @pytest.mark.parametrize("make_ds", [micro_dataset, small_synth], ids=["micro", "synth"])
    def test_target_user_owns_its_row(self, make_ds, mode):
        ds = make_ds()
        bb = init(ds, 4, mode, seed=1)
        n = ds.n_users_target
        linked = ds.target_to_source >= 0
        assert bb.linked_row.shape == (n,)
        np.testing.assert_array_equal(bb.linked_row[linked],
                                      bb.source_slot[ds.target_to_source[linked]])
        assert np.all(bb.linked_row[~linked] == -1)
        if mode == "shared":
            np.testing.assert_array_equal(bb.linked_row[linked], np.flatnonzero(linked))
        else:
            assert np.all(bb.linked_row[linked] >= n)
        n_fresh = ds.n_users_source - (int(linked.sum()) if mode == "shared" else 0)
        assert bb.user_pool.shape == (n + n_fresh, 4)
        pool = bb.user_pool.copy()
        table = bb.user_emb_target()
        np.testing.assert_array_equal(table, pool[:n])
        table += 1.0  # a copy: the pool does not move
        np.testing.assert_array_equal(bb.user_pool, pool)
        np.testing.assert_array_equal(bb.user_emb_source(), bb.user_pool[bb.source_slot])


class TestScore:
    def test_orthogonal_zero(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        bb.item_target[0] = [0.0, 1.0]
        assert score(bb, 0, 0) == 0.0

    def test_hand_inner_product(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 2.0]
        bb.item_target[3] = [3.0, 4.0]
        assert score(bb, 0, 3) == pytest.approx(11.0, abs=1e-12)

    def test_self_inner_product_is_squared_norm(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        v = np.array([0.5, -1.0, 2.0, 0.25])
        bb.user_pool[1] = v
        bb.item_target[2] = v
        assert score(bb, 1, 2) == pytest.approx(float(v @ v), abs=1e-12)

    def test_bilinearity(self, micro_ds):
        bb = init(micro_ds, 6, "dual", seed=3)
        base = score(bb, 2, 4)
        bb.user_pool[2] *= 3.0
        assert score(bb, 2, 4) == pytest.approx(3.0 * base, rel=1e-12)


class TestViews:
    def test_shared_views_identical(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        assert np.array_equal(target_view(bb, 2), source_view(bb, 2))

    def test_dual_views_diverge_after_asymmetric_step(self, micro_ds):
        bb = init(micro_ds, 4, "dual", seed=0)
        s = micro_ds.target_to_source[2]
        bb.user_pool[bb.source_slot[s]] += 1.0
        assert not np.allclose(target_view(bb, 2), source_view(bb, 2))

    def test_non_overlap_user_has_no_linked_row(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        assert bb.linked_row[1] == -1

    def test_shared_aliasing_survives_value_updates(self, micro_ds):
        # perturb through the source view, observe the target view move identically
        bb = init(micro_ds, 4, "shared", seed=0)
        before = target_view(bb, 0).copy()
        s = micro_ds.target_to_source[0]
        bb.user_pool[bb.source_slot[s]] += 0.25
        after = target_view(bb, 0)
        assert np.allclose(after - before, 0.25)

    def test_shared_aliasing_survives_training_steps(self, micro_ds):
        # a source-domain loss step must move the target view identically
        from crossfair.trainer import Adam

        bb = init(micro_ds, 4, "shared", seed=0)
        adam = Adam(lr=0.05)
        t, s = 2, micro_ds.target_to_source[2]
        for step in range(5):
            before_t = target_view(bb, t).copy()
            before_s = source_view(bb, t).copy()
            _, grads = bpr_loss(bb, s, 1, 5, l2_reg=1e-3, domain="source")
            for (table, row), g in grads.items():
                adam.step(table, bb.parameters()[table], g[None, :], rows=[row])
            moved_t = target_view(bb, t) - before_t
            moved_s = source_view(bb, t) - before_s
            assert np.any(moved_s != 0.0)
            np.testing.assert_array_equal(moved_t, moved_s)


class TestSnapshotFile:
    def test_roundtrip(self, tmp_path, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=5)
        path = tmp_path / "snap.bin"
        written = save_snapshot(bb, path)
        blob = path.read_bytes()
        assert blob[:4] == b"CDFA"
        tables, digest = load_snapshot(path)
        assert digest == written == hashlib.sha256(blob).hexdigest()
        assert tables["user_emb_target"].shape == (6, 4)
        assert tables["user_emb_source"].shape == (4, 4)
        np.testing.assert_allclose(
            tables["user_emb_target"], bb.user_emb_target(), atol=1e-6
        )
        np.testing.assert_allclose(tables["item_emb_source"], bb.item_source, atol=1e-6)

    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_loaded_tables_equal_trained_after_float32_rounding(self, tmp_path, synth_ds, mode):
        # eval ranks with these tables, so they must be the trained views
        from crossfair.trainer import TrainConfig, train

        trained = train(synth_ds, TrainConfig(epochs=1, batch_size=256, seed=2,
                                              estimator_hidden=(8,)), d=8, mode=mode).backbone
        path = tmp_path / "snap.bin"
        save_snapshot(trained, path)
        tables, _ = load_snapshot(path)
        want = {"user_emb_target": trained.user_emb_target(),
                "user_emb_source": trained.user_emb_source(),
                "item_emb_source": trained.item_source,
                "item_emb_target": trained.item_target}
        assert tables.keys() == want.keys()
        for name, table in want.items():
            rounded = table.astype(np.float32).astype(np.float64)
            np.testing.assert_array_equal(tables[name], rounded, err_msg=name)

    def test_truncated_rejected(self, tmp_path, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=5)
        path = tmp_path / "snap.bin"
        save_snapshot(bb, path)
        path.write_bytes(path.read_bytes()[:40])
        with pytest.raises(DataError, match="truncated"):
            load_snapshot(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(DataError, match="magic"):
            load_snapshot(path)
