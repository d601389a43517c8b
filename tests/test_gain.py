import math

import numpy as np
import pytest

from crossfair import gain as gain_mod
from crossfair.backbone import init
from crossfair.data import G0, G1
from crossfair.errors import DataError
from crossfair.gain import (
    GainEstimator,
    estimate_gain,
    estimator_inputs,
    estimator_step,
    redistribution_grads,
)
from crossfair.numerics import clamp_prob, sigmoid
from crossfair.seeding import make_rng
from crossfair.trainer import Adam

from conftest import micro_dataset, small_synth
from oracles import gain_terms_per_sample, prob_joint, prob_source, prob_target


def zeroed_estimator(d, hidden=(8, 4), seed=0):
    est = GainEstimator(d, hidden=hidden, dropout=0.2, seed=seed)
    return est


class TestProbHeads:
    def test_zero_score_half(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0, 0.0, 0.0]
        bb.item_target[1] = [0.0, 1.0, 0.0, 0.0]
        assert prob_target(bb, 0, 1) == pytest.approx(0.5, abs=1e-12)
        assert prob_source(bb, 0, 1) == pytest.approx(0.5, abs=1e-12)

    def test_ln3_gives_three_quarters(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [math.log(3.0), 0.0]
        bb.item_target[2] = [1.0, 0.0]
        assert prob_target(bb, 0, 2) == pytest.approx(0.75, abs=1e-12)

    def test_large_score_clamped(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [40.0, 0.0]
        bb.item_target[2] = [1.0, 0.0]
        p = prob_target(bb, 0, 2)
        assert p == pytest.approx(1.0 - 1e-7, abs=1e-12)
        assert p < 1.0

    def test_sigma_11(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 2.0]
        bb.item_target[0] = [3.0, 4.0]
        assert prob_target(bb, 0, 0) == pytest.approx(0.999983298578152, abs=1e-12)

    def test_non_overlap_source_errors(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        with pytest.raises(DataError):
            prob_source(bb, 1, 0)
        est = zeroed_estimator(2)
        with pytest.raises(DataError):
            prob_joint(bb, est, 1, 0)

    def test_shared_mode_source_equals_target(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=2)
        for t in micro_ds.overlap_arrays()[0].tolist():
            for item in range(4):
                assert prob_source(bb, t, item) == pytest.approx(
                    prob_target(bb, t, item), abs=1e-15
                )


class TestJointHead:
    def test_zero_final_layer_gives_half(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=1)
        est = zeroed_estimator(4, seed=1)  # final layer zero at init
        for t in micro_ds.overlap_arrays()[0].tolist():
            for item in range(3):
                assert prob_joint(bb, est, t, item) == pytest.approx(0.5, abs=1e-12)

    def test_hand_forward_pass(self, micro_ds):
        # d=2, one hidden layer of width 2, weights set by hand
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 2.0]  # overlap user 0
        s_slot = bb.source_slot[micro_ds.target_to_source[0]]
        assert s_slot == 0  # shared mode aliases
        bb.item_target[5] = [1.0, -1.0]
        est = GainEstimator(2, hidden=(2,), dropout=0.0, seed=0)
        est.weights[0] = np.array([[1.0, 0.0, 0.5, 0.0],
                                   [0.0, -1.0, 0.0, 0.25]])
        est.biases[0] = np.array([0.5, 0.0])
        est.weights[1] = np.array([[1.0, 2.0],
                                   [-1.0, 1.0]])
        est.biases[1] = np.array([0.0, 0.1])
        # x = [1, 2, 1, 2]; a1 = [1*1 + 0.5*1 + 0.5, -2 + 0.25*2] = [2.0, -1.5]
        # h = [2.0, 0.0]; out = [2.0, -1.9]; z = out . [1, -1] = 3.9
        x = np.array([1.0, 2.0, 1.0, 2.0])
        out, _ = est.forward(x)
        np.testing.assert_allclose(out[0], [2.0, -1.9], atol=1e-12)
        want = 1.0 / (1.0 + math.exp(-3.9))
        assert prob_joint(bb, est, 0, 5) == pytest.approx(want, abs=1e-12)

    def test_deterministic_without_dropout(self, micro_ds):
        bb = init(micro_ds, 4, "dual", seed=3)
        est = GainEstimator(4, hidden=(16, 8), dropout=0.2, seed=3)
        est.weights[-1] += 0.05  # make the head non-constant
        a = prob_joint(bb, est, 0, 1)
        b = prob_joint(bb, est, 0, 1)
        assert a == b


class TestEstimateGain:
    def manual_backbone(self, micro_ds, d=4):
        bb = init(micro_ds, d, "dual", seed=7)
        return bb

    def test_empty_batch_refused(self, micro_ds):
        bb = self.manual_backbone(micro_ds)
        with pytest.raises(DataError, match="^empty batch$"):
            estimate_gain(bb, zeroed_estimator(4), [], [], [])

    def test_log_ratio_value(self, micro_ds):
        # force p_joint=0.9, p_s=0.6, p_t=0.5 on a single sample
        bb = self.manual_backbone(micro_ds, d=2)
        est = GainEstimator(2, hidden=(2,), dropout=0.0, seed=0)
        u = 0
        s = micro_ds.target_to_source[u]
        bb.item_target[0] = [1.0, 0.0]
        bb.user_pool[u] = [0.0, 0.0]  # p_t = 0.5
        logit_s = math.log(0.6 / 0.4)
        bb.user_pool[bb.source_slot[s]] = [logit_s, 0.0]  # p_s = 0.6
        logit_j = math.log(0.9 / 0.1)
        # single hidden unit path delivering logit_j regardless of x
        est.weights[0][:] = 0.0
        est.biases[0][:] = [1.0, 0.0]
        est.weights[1][:] = 0.0
        est.weights[1][0, 0] = logit_j
        est.biases[1][:] = 0.0
        assert prob_joint(bb, est, u, 0) == pytest.approx(0.9, abs=1e-12)
        report = estimate_gain(bb, est, [u], [0], [G0])
        assert report.delta_i[G0] == pytest.approx(math.log(3.0), abs=1e-9)
        assert report.n_samples == {G0: 1, G1: 0}
        assert report.delta_i[G1] == 0.0

    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_matches_scalar_heads(self, mode):
        ds = small_synth(seed=3)
        bb = init(ds, 8, mode, seed=3)
        est = GainEstimator(8, hidden=(16, 8), dropout=0.2, seed=3)
        est.weights[-1] = make_rng(3, "w").normal(0, 0.3, est.weights[-1].shape)
        rng = make_rng(3, "samples")
        users = rng.integers(0, ds.n_users_target, 60)
        items = rng.integers(0, ds.n_items_target, 60)
        groups = ds.target_group[users]
        terms = {G0: [], G1: []}
        for u, i, g in zip(users.tolist(), items.tolist(), groups.tolist()):
            if ds.target_to_source[u] < 0:
                continue
            want = math.log(prob_joint(bb, est, u, i)
                            / (prob_source(bb, u, i) * prob_target(bb, u, i)))
            single = estimate_gain(bb, est, [u], [i], [g])
            assert single.delta_i[g] == pytest.approx(want, rel=1e-12, abs=1e-12)
            terms[g].append(want)
        report = estimate_gain(bb, est, users, items, groups)
        for g in (G0, G1):
            assert report.n_samples[g] == len(terms[g]) > 0
            assert report.delta_i[g] == pytest.approx(np.mean(terms[g]), rel=1e-12, abs=1e-12)

    def test_independence_baseline_zero(self, micro_ds):
        # p_joint == p_s * p_t pointwise: fused vector chosen per-pair is
        # impossible with one network, so force all three heads to 0.5 with
        # p_joint = 0.25 equivalent: instead use p_s = 1/2, p_t = 1/2 and a
        # head that outputs logit(1/4).
        bb = self.manual_backbone(micro_ds, d=2)
        est = GainEstimator(2, hidden=(2,), dropout=0.0, seed=0)
        users = micro_ds.overlap_arrays()[0].tolist()
        for u in users:
            bb.user_pool[u] = [0.0, 0.0]
            bb.user_pool[bb.source_slot[micro_ds.target_to_source[u]]] = [0.0, 0.0]
        bb.item_target[:] = 0.0
        bb.item_target[:, 0] = 1.0
        logit_quarter = math.log(0.25 / 0.75)
        est.weights[0][:] = 0.0
        est.biases[0][:] = [1.0, 0.0]
        est.weights[1][:] = 0.0
        est.weights[1][0, 0] = logit_quarter
        est.biases[1][:] = 0.0
        groups = [micro_ds.target_group[u] for u in users]
        report = estimate_gain(bb, est, users, [0] * len(users), groups)
        assert report.delta_i[G0] == pytest.approx(0.0, abs=1e-9)
        assert report.delta_i[G1] == pytest.approx(0.0, abs=1e-9)
        assert report.redistribution_loss == pytest.approx(0.0, abs=1e-12)

    def test_equal_gains_zero_penalty(self, micro_ds):
        bb = self.manual_backbone(micro_ds)
        est = zeroed_estimator(4, seed=0)
        users = micro_ds.overlap_arrays()[0].tolist()
        groups = [micro_ds.target_group[u] for u in users]
        report = estimate_gain(bb, est, users, [1] * len(users), groups)
        gap = report.delta_i[G0] - report.delta_i[G1]
        assert report.redistribution_loss == pytest.approx(gap * gap, abs=1e-15)

    def test_non_overlapping_users_skipped(self, micro_ds):
        bb = self.manual_backbone(micro_ds)
        est = zeroed_estimator(4)
        report = estimate_gain(bb, est, [1, 2, 5], [0, 0, 0],
                               [micro_ds.target_group[u] for u in [1, 2, 5]])
        # users 1 and 5 are non-overlapping; 2 is overlapping with group 1
        assert report.n_samples[G0] == 0
        assert report.n_samples[G1] == 1

    def test_finite_under_extreme_params(self, micro_ds):
        bb = self.manual_backbone(micro_ds)
        bb.user_pool[:] = 100.0
        bb.item_target[:] = 100.0
        est = zeroed_estimator(4)
        est.weights[-1][:] = 50.0
        users = micro_ds.overlap_arrays()[0].tolist()
        report = estimate_gain(bb, est, users, [0] * len(users),
                               [micro_ds.target_group[u] for u in users])
        assert math.isfinite(report.delta_i[G0])
        assert math.isfinite(report.redistribution_loss)


def per_user_fixture(data, mode):
    """A backbone, an estimator with a non-zero output layer, and named
    batches of (users, items, groups): repeated users in both groups, every
    training positive, 19 rows of 18 overlapping users (with the synth
    shapes, 18 x 64 hidden entries fall under OpenBLAS's small-product kernel
    and 19 x 64 do not), one overlapping user among non-overlapping ones, and
    no overlapping user at all."""
    ds = micro_dataset() if data == "micro" else small_synth(seed=5)
    d = 4 if data == "micro" else 32
    bb = init(ds, d, mode, seed=5)
    hidden = (8, 4) if data == "micro" else (128, 64)
    est = GainEstimator(d, hidden=hidden, dropout=0.2, seed=5)
    est.weights[-1] = make_rng(5, "w").normal(0, 0.3, est.weights[-1].shape)
    rng = make_rng(5, "batches")
    overlapping = np.flatnonzero(ds.target_to_source >= 0)
    alone = np.flatnonzero(ds.target_to_source < 0)
    users = rng.integers(0, ds.n_users_target, 300)
    one = np.concatenate([np.repeat(overlapping[1], 5), alone])
    batches = {
        "repeated": users,
        "all positives": ds.interactions_target[:, 0],
        "19 rows of 18 users": np.concatenate([overlapping[:18], overlapping[:1]]),
        "one overlapping user": rng.permutation(one),
        "no overlapping user": alone,
    }
    out = {}
    for name, u in batches.items():
        items = (ds.interactions_target[:, 1] if name == "all positives"
                 else rng.integers(0, ds.n_items_target, len(u)))
        out[name] = (u, items, ds.target_group[u])
    return bb, est, out


class TestForwardOncePerUser:
    @pytest.mark.parametrize("data", ["micro", "synth"])
    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_matches_per_sample_oracle(self, data, mode, monkeypatch):
        bb, est, batches = per_user_fixture(data, mode)
        for name, batch in batches.items():
            got = estimate_gain(bb, est, *batch)
            got_value, got_grads = redistribution_grads(bb, est, *batch)
            with monkeypatch.context() as m:
                m.setattr(gain_mod, "_gain_terms", gain_terms_per_sample)
                want = estimate_gain(bb, est, *batch)
                want_value, want_grads = redistribution_grads(bb, est, *batch)
            assert got.n_samples == want.n_samples, name
            assert np.array_equal([got.delta_i[G0], got.delta_i[G1], got.redistribution_loss],
                                  [want.delta_i[G0], want.delta_i[G1],
                                   want.redistribution_loss]), name
            assert np.array_equal(got_value, want_value), name
            assert len(got_grads) == len(want_grads), name
            for (table, rows, grad), (want_table, want_rows, want_grad) in zip(got_grads,
                                                                               want_grads):
                assert table == want_table
                assert np.array_equal(rows, want_rows), name
                assert np.array_equal(grad, want_grad), name
        assert batches["repeated"][0].size > np.unique(batches["repeated"][0]).size
        assert redistribution_grads(bb, est, *batches["repeated"])[0] > 0

    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_forward_rows(self, mode, monkeypatch):
        """The report runs the estimator on one row per distinct overlapping
        user; the penalty on every overlapping sample's row, in batch order."""
        bb, est, batches = per_user_fixture("synth", mode)
        seen = []
        forward = est.forward

        def recording_forward(x, dropout_rng=None):
            seen.append(np.array(x))
            return forward(x, dropout_rng)

        def rows_of(users):
            return np.concatenate([bb.user_pool[users], bb.user_pool[bb.linked_row[users]]],
                                  axis=1)

        monkeypatch.setattr(est, "forward", recording_forward)
        for name, (users, items, groups) in batches.items():
            overlapping = users[bb.linked_row[users] >= 0]
            for fn, want in ((estimate_gain, rows_of(np.unique(overlapping))),
                             (redistribution_grads, rows_of(overlapping))):
                seen.clear()
                fn(bb, est, users, items, groups)
                assert len(seen) == 1, (name, fn.__name__)
                assert np.array_equal(seen[0], want), (name, fn.__name__)


class TestRedistributionGradient:
    def test_matches_central_differences(self, micro_ds):
        bb = init(micro_ds, 4, "dual", seed=9)
        est = GainEstimator(4, hidden=(8, 4), dropout=0.2, seed=9)
        est.weights[-1] = make_rng(1, "w").normal(0, 0.3, est.weights[-1].shape)
        users = micro_ds.overlap_arrays()[0].tolist()
        items = [1, 4, 6]
        groups = [micro_ds.target_group[u] for u in users]

        value, grads = redistribution_grads(bb, est, users, items, groups)
        assert value > 0

        dense = {
            "user_pool": np.zeros_like(bb.user_pool),
            "item_target": np.zeros_like(bb.item_target),
        }
        for table, rows, g in grads:
            np.add.at(dense[table], rows, g)

        h = 1e-5
        worst = 0.0
        for table in ("user_pool", "item_target"):
            arr = getattr(bb, table) if table != "user_pool" else bb.user_pool
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, _ = redistribution_grads(bb, est, users, items, groups)
                arr[idx] = orig - h
                dn, _ = redistribution_grads(bb, est, users, items, groups)
                arr[idx] = orig
                fd = (up - dn) / (2 * h)
                an = dense[table][idx]
                scale = max(abs(fd), abs(an), 1e-6)
                worst = max(worst, abs(fd - an) / scale)
        assert worst < 1e-4

    def test_single_group_contributes_zero(self, micro_ds):
        bb = init(micro_ds, 4, "dual", seed=9)
        est = zeroed_estimator(4)
        users = [0, 4]  # both group 0 overlapping
        value, grads = redistribution_grads(bb, est, users, [0, 1], [G0, G0])
        assert value == 0.0
        assert grads == []

    def test_shared_mode_well_defined(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=9)
        est = GainEstimator(4, hidden=(8, 4), dropout=0.0, seed=9)
        est.weights[-1] += 0.1
        users = micro_ds.overlap_arrays()[0].tolist()
        value, grads = redistribution_grads(
            bb, est, users, [0] * len(users), [micro_ds.target_group[u] for u in users]
        )
        assert math.isfinite(value)
        for _, _, g in grads:
            assert np.all(np.isfinite(g))


class TestEstimatorStep:
    def test_inputs_are_target_then_source_rows(self):
        ds = small_synth(seed=3)
        bb = init(ds, 4, "dual", seed=3)
        t_ids, s_ids = ds.overlap_arrays()
        want = np.concatenate([bb.user_emb_target()[t_ids], bb.user_emb_source()[s_ids]],
                              axis=1)
        assert np.array_equal(estimator_inputs(bb, t_ids), want)

    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_user_without_source_identity_refused(self, micro_ds, mode):
        bb = init(micro_ds, 4, mode, seed=0)
        assert bb.linked_row[1] == -1 and bb.linked_row[0] >= 0
        with pytest.raises(DataError, match="^target user 1 has no source identity$"):
            estimator_inputs(bb, [0, 1, 3])

    def test_exact_fit_is_fixed_point(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        est = zeroed_estimator(4, seed=0)  # outputs exactly 0
        t_ids, _ = micro_ds.overlap_arrays()
        live = np.zeros((len(t_ids), 4))  # target equals output
        adam = Adam(0.01)
        weights_before = [w.copy() for w in est.weights]
        loss = estimator_step(est, estimator_inputs(bb, t_ids), live, adam,
                              make_rng(0, "do"))
        assert loss == pytest.approx(0.0, abs=1e-18)
        for w, before in zip(est.weights, weights_before):
            np.testing.assert_array_equal(w, before)

    def test_loss_decreases_over_steps(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=1)
        est = GainEstimator(4, hidden=(16, 8), dropout=0.2, seed=1)
        live = make_rng(2, "live").normal(0, 0.1, bb.user_emb_target().shape)
        t_ids, _ = micro_ds.overlap_arrays()
        x, y = estimator_inputs(bb, t_ids), live[t_ids]
        adam = Adam(0.01)
        rng = make_rng(3, "do")
        first = estimator_step(est, x, y, adam, rng)
        last = None
        for _ in range(199):
            last = estimator_step(est, x, y, adam, rng)
        assert last < first

    def test_requires_overlap(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        est = zeroed_estimator(4)
        with pytest.raises(DataError, match="overlap"):
            estimator_step(est, estimator_inputs(bb, []), bb.user_pool[:0],
                           Adam(0.01), make_rng(0, "do"))

    def test_backbone_untouched(self, micro_ds):
        bb = init(micro_ds, 4, "dual", seed=4)
        est = GainEstimator(4, hidden=(8,), dropout=0.2, seed=4)
        t_ids, _ = micro_ds.overlap_arrays()
        before = {name: arr.copy() for name, arr in bb.parameters().items()}
        estimator_step(est, estimator_inputs(bb, t_ids), bb.user_pool[t_ids],
                       Adam(0.01), make_rng(5, "do"))
        for name, arr in bb.parameters().items():
            np.testing.assert_array_equal(arr, before[name])


class TestEstimatorShape:
    @pytest.mark.parametrize("d, dropout, message", [
        (0, 0.2, "^embedding dimension must be >= 1$"),
        (4, 1.0, r"^dropout must lie in \[0, 1\)$"),
        (4, -0.1, r"^dropout must lie in \[0, 1\)$"),
    ], ids=["zero-dim", "dropout-one", "dropout-negative"])
    def test_bad_shape_refused(self, d, dropout, message):
        with pytest.raises(DataError, match=message):
            GainEstimator(d, dropout=dropout)


class TestEstimatorWeightGradients:
    def test_weight_gradients_match_fd(self):
        est = GainEstimator(3, hidden=(5,), dropout=0.0, seed=2)
        est.weights[-1] = make_rng(0, "w").normal(0, 0.4, est.weights[-1].shape)
        x = make_rng(1, "x").normal(0, 1, (4, 6))
        y = make_rng(2, "y").normal(0, 1, (4, 3))

        def loss_value():
            out, _ = est.forward(x)
            return float(((out - y) ** 2).sum() / len(x))

        out, cache = est.forward(x)
        grads_w, grads_b = est.weight_gradients(cache, 2.0 * (out - y) / len(x))

        h = 1e-6
        for k in range(est.n_layers):
            for arr, g in ((est.weights[k], grads_w[k]), (est.biases[k], grads_b[k])):
                it = np.nditer(arr, flags=["multi_index"])
                for _ in it:
                    idx = it.multi_index
                    orig = arr[idx]
                    arr[idx] = orig + h
                    up = loss_value()
                    arr[idx] = orig - h
                    dn = loss_value()
                    arr[idx] = orig
                    fd = (up - dn) / (2 * h)
                    scale = max(abs(fd), abs(g[idx]), 1e-6)
                    assert abs(fd - g[idx]) / scale < 1e-4
