import json
import math
from contextlib import closing
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crossfair.metrics as metrics_mod
import crossfair.trainer as trainer_mod
from crossfair.backbone import init
from crossfair.data import G0, G1, GROUPS, split_per_user
from crossfair.errors import DataError
from crossfair.gain import GainEstimator
from crossfair.sampler import GroupLossTracker, NegativePool, draw_ahead, temperature
from crossfair.seeding import make_rng
from crossfair.trainer import (
    Adam,
    TrainConfig,
    _draw_batch,
    _draws,
    _pick_target,
    ablation_config,
    batch_objective,
    train,
    train_epoch,
    write_run_log,
)

from conftest import small_synth
from oracles import adam_step_add_at, batch_objective_masked, bpr_loss, plan_batch_masked


class TestBprLoss:
    def test_equal_scores_ln2(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=0)
        bb.item_target[0] = bb.item_target[1]
        loss, _ = bpr_loss(bb, 0, 0, 1, l2_reg=0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_large_gap_tiny_loss(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        bb.item_target[0] = [10.0, 0.0]
        bb.item_target[1] = [0.0, 0.0]
        loss, _ = bpr_loss(bb, 0, 0, 1, l2_reg=0.0)
        assert loss == pytest.approx(4.539889921686465e-05, rel=1e-9)

    def test_l2_term(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 1.0]
        bb.item_target[0] = [2.0, 0.0]
        bb.item_target[1] = [0.0, 1.0]
        lam = 0.01
        loss, _ = bpr_loss(bb, 0, 0, 1, l2_reg=lam)
        gap = (1 * 2 + 1 * 0) - (1 * 0 + 1 * 1)
        want = math.log1p(math.exp(-gap)) + lam * (2.0 + 4.0 + 1.0)
        assert loss == pytest.approx(want, abs=1e-12)

    def test_gradients_match_fd(self, micro_ds):
        bb = init(micro_ds, 8, "dual", seed=13)
        user, pos, neg = 2, 1, 6
        lam = 1e-3
        _, grads = bpr_loss(bb, user, pos, neg, l2_reg=lam)
        h = 1e-6
        for (table, row), g in grads.items():
            arr = bb.parameters()[table]
            for col in range(arr.shape[1]):
                orig = arr[row, col]
                arr[row, col] = orig + h
                up, _ = bpr_loss(bb, user, pos, neg, l2_reg=lam)
                arr[row, col] = orig - h
                dn, _ = bpr_loss(bb, user, pos, neg, l2_reg=lam)
                arr[row, col] = orig
                fd = (up - dn) / (2 * h)
                scale = max(abs(fd), abs(g[col]), 1e-6)
                assert abs(fd - g[col]) / scale < 1e-4

    def test_source_domain_variant(self, micro_ds):
        bb = init(micro_ds, 4, "dual", seed=1)
        loss, grads = bpr_loss(bb, 1, 2, 3, l2_reg=0.0, domain="source")
        assert math.isfinite(loss)
        assert ("item_source", 2) in grads

    def test_same_pos_neg_item_accumulates(self, micro_ds):
        bb = init(micro_ds, 4, "shared", seed=1)
        loss, grads = bpr_loss(bb, 0, 2, 2, l2_reg=0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)
        # pos and neg gradients cancel except the l2 part (zero here)
        np.testing.assert_allclose(grads[("item_target", 2)], 0.0, atol=1e-15)


class TestAdam:
    def test_first_step_magnitude(self):
        adam = Adam(lr=0.001)
        param = np.array([1.0])
        adam.step("p", param, np.array([1.0]))
        assert param[0] == pytest.approx(1.0 - 0.001, abs=1e-9)

    def test_hand_recurrence_two_steps(self):
        adam = Adam(lr=0.1)
        param = np.array([0.0])
        m = v = 0.0
        ref = 0.0
        for t, g in enumerate([0.5, -0.25], start=1):
            adam.step("p", param, np.array([g]))
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            ref -= 0.1 * (m / (1 - 0.9 ** t)) / (math.sqrt(v / (1 - 0.999 ** t)) + 1e-8)
            assert param[0] == pytest.approx(ref, abs=1e-12)

    def test_zero_gradient_unchanged(self):
        adam = Adam(lr=0.01)
        param = np.array([[1.0, 2.0], [3.0, 4.0]])
        adam.step("p", param, np.array([[1.0, 1.0]]), rows=[0])
        before = param[1].copy()
        m_before = adam.m["p"][1].copy()
        adam.step("p", param, np.array([[1.0, 1.0]]), rows=[0])
        np.testing.assert_array_equal(param[1], before)
        np.testing.assert_array_equal(adam.m["p"][1], m_before)

    def test_duplicate_rows_match_dense(self):
        dense = Adam(lr=0.01)
        sparse = Adam(lr=0.01)
        p_dense = np.ones((3, 2))
        p_sparse = np.ones((3, 2))
        g_rows = np.array([[0.5, 0.5], [0.25, -0.5]])
        dense_grad = np.zeros((3, 2))
        dense_grad[1] = g_rows.sum(axis=0)
        dense.step("p", p_dense, dense_grad)
        sparse.step("p", p_sparse, g_rows, rows=[1, 1])
        np.testing.assert_allclose(p_sparse[1], p_dense[1], atol=1e-12)

    def test_shape_mismatch_errors(self):
        adam = Adam(lr=0.01)
        with pytest.raises(DataError):
            adam.step("p", np.ones((2, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize("rows", [[-1, 3], [7], [1.7]],
                             ids=["negative", "past-end", "non-integer"])
    def test_bad_rows_rejected(self, rows):
        adam = Adam(lr=0.01)
        param = np.ones((4, 2))
        with pytest.raises(DataError, match=r"sparse rows must be integers in \[0, 4\)"):
            adam.step("p", param, np.ones((len(rows), 2)), rows=rows)
        np.testing.assert_array_equal(param, 1.0)
        np.testing.assert_array_equal(adam.m["p"], 0.0)
        assert adam.t["p"] == 0


ADAM_SHAPES = st.tuples(st.integers(1, 5), st.lists(st.integers(1, 3), max_size=2))


@st.composite
def adam_runs(draw):
    """A parameter shape and a sequence of steps: None for a whole-table
    step, else a list of rows that may repeat."""
    n, trailing = draw(ADAM_SHAPES)
    steps = draw(st.lists(
        st.one_of(st.none(), st.lists(st.integers(0, n - 1), max_size=9)),
        min_size=1, max_size=8,
    ))
    return (n, *trailing), steps, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=200, deadline=None)
@given(adam_runs())
def test_adam_step_bit_identical_to_add_at(run):
    shape, steps, seed = run
    rng = np.random.default_rng(seed)
    shipped, oracle = Adam(lr=0.05), Adam(lr=0.05)
    p_shipped = rng.normal(size=shape)
    p_oracle = p_shipped.copy()
    for rows in steps:
        lead = shape[0] if rows is None else len(rows)
        grad = rng.normal(size=(lead, *shape[1:])) * 10.0 ** rng.integers(-3, 4)
        shipped.step("p", p_shipped, grad.copy(), rows=rows)
        adam_step_add_at(oracle, "p", p_oracle, grad.copy(), rows=rows)
        assert np.array_equal(p_shipped, p_oracle)
        assert np.array_equal(shipped.m["p"], oracle.m["p"])
        assert np.array_equal(shipped.v["p"], oracle.v["p"])
    assert shipped.t == oracle.t


def run_config(**overrides):
    base = dict(
        learning_rate=0.01, batch_size=64, l2_reg=1e-4, epochs=3, gamma=0.5,
        epsilon=1.0, candidate_size=4, seed=5, patience=10,
        estimator_hidden=(16, 8),
    )
    base.update(overrides)
    return TrainConfig(**base)


def record_batches(monkeypatch):
    """Wrap the trainer's ``batch_objective``; every call appends its batch
    and its total, rec and penalty to the returned list."""
    record = []
    inner = trainer_mod.batch_objective

    def recording(backbone, estimator, batch, groups, cfg):
        out = inner(backbone, estimator, batch, groups, cfg)
        record.append({"batch": batch, "total": out[0], "rec": out[1], "penalty": out[2]})
        return out

    monkeypatch.setattr(trainer_mod, "batch_objective", recording)
    return record


class TestTrainEpochOracle:
    @pytest.fixture(autouse=True)
    def no_validation_ranking(self, monkeypatch):
        # the micro split holds no validation positives, which the epoch's
        # validation ranking refuses; these tests check the objective only
        monkeypatch.setattr(metrics_mod, "quick_ndcg_at_10", lambda backbone, split, ds: 0.0)

    def test_no_training_interactions_refused(self, micro_ds, micro_split):
        cfg = run_config(include_source=False)
        pools = {
            "target": NegativePool(8, micro_split.target_train, 6),
            "source": NegativePool(8, micro_split.source_train, 4),
        }
        micro_split.target_train = micro_split.target_train[:0]
        with pytest.raises(DataError, match="^no training interactions$"), \
                closing(draw_ahead(_draws(micro_split, pools, cfg, make_rng(5, "train")))) as draws:
            train_epoch(
                micro_ds, micro_split, init(micro_ds, 4, "shared", seed=5),
                GainEstimator(4, hidden=(8,), seed=5), GroupLossTracker(), cfg,
                draws, Adam(cfg.learning_rate), Adam(cfg.estimator_lr),
                epoch=0, est_rng=make_rng(5, "estimator-dropout"),
            )

    def test_replay_oracle_single_batch(self, micro_ds, micro_split, monkeypatch):
        # batch covers the whole pool, so every loss is computed at the
        # initial parameters and can be recomputed independently
        cfg = run_config(batch_size=4096, gamma=0.0, use_estimator_loss=False)
        bb = init(micro_ds, 4, "shared", seed=5)
        frozen = bb.copy()
        est = GainEstimator(4, hidden=(8,), seed=5)
        tracker = GroupLossTracker()
        pools = {
            "target": NegativePool(8, micro_split.target_train, 6),
            "source": NegativePool(8, micro_split.source_train, 4),
        }
        record = record_batches(monkeypatch)
        with closing(draw_ahead(_draws(micro_split, pools, cfg, make_rng(5, "train")))) as draws:
            stats = train_epoch(
                micro_ds, micro_split, bb, est, tracker, cfg, draws,
                Adam(cfg.learning_rate), Adam(cfg.estimator_lr), epoch=0,
                est_rng=make_rng(5, "estimator-dropout"),
            )
        assert len(record) == 1
        batch = record[0]["batch"]
        total = 0.0
        for domain in ("target", "source"):
            for user, pos, neg in zip(*batch[domain]):
                loss, _ = bpr_loss(frozen, int(user), int(pos), int(neg),
                                   l2_reg=cfg.l2_reg, domain=domain)
                total += loss
        assert stats.loss_rec == pytest.approx(total, abs=1e-10)
        assert stats.loss_total == pytest.approx(total, abs=1e-10)

    def test_objective_decomposition_every_batch(self, micro_ds, micro_split, monkeypatch):
        cfg = run_config(batch_size=5, gamma=0.7)
        bb = init(micro_ds, 4, "shared", seed=5)
        est = GainEstimator(4, hidden=(8,), seed=5)
        est.weights[-1] += 0.1
        tracker = GroupLossTracker()
        pools = {
            "target": NegativePool(8, micro_split.target_train, 6),
            "source": NegativePool(8, micro_split.source_train, 4),
        }
        record = record_batches(monkeypatch)
        with closing(draw_ahead(_draws(micro_split, pools, cfg, make_rng(6, "train")))) as draws:
            train_epoch(
                micro_ds, micro_split, bb, est, tracker, cfg, draws,
                Adam(cfg.learning_rate), Adam(cfg.estimator_lr), epoch=0,
                est_rng=make_rng(6, "estimator-dropout"),
            )
        assert len(record) >= 3
        for entry in record:
            assert entry["total"] == pytest.approx(
                entry["rec"] + cfg.gamma * entry["penalty"], abs=1e-10
            )


def _batch_setup(ds, mode, fair, gamma):
    """Parameters, pools, tracker and config for comparing batch paths."""
    split = split_per_user(ds, seed=2)
    cfg = run_config(gamma=gamma, use_fair_sampling=fair)
    bb = init(ds, 8, mode, seed=2)
    est = GainEstimator(8, hidden=(16, 8), seed=2)
    est.weights[-1] = make_rng(3, "w").normal(0, 0.3, est.weights[-1].shape)
    pools = {
        "target": NegativePool(ds.n_items_target, split.target_train, ds.n_users_target),
        "source": NegativePool(ds.n_items_source, split.source_train, ds.n_users_source),
    }
    tracker = GroupLossTracker()
    tracker.accumulate_many([G0, G1], [1.4, 0.9])
    tracker.end_epoch()
    return split, cfg, bb, est, pools, tracker


def _assert_same_batch(ds, bb, est, pools, tracker, cfg, domains, users, pos, seed):
    """The batch path and the masked oracle draw the same negatives and give
    bit-identical values and gradient fragments, in the same order."""
    groups = ds.target_group
    plan, want_drew = plan_batch_masked(bb, pools, domains, users, pos, groups, tracker, cfg,
                                        make_rng(seed, "plan"))
    fair = cfg.use_fair_sampling and tracker.epochs_completed >= 1
    batch, candidates = _draw_batch(pools, domains == 1, users, pos, fair,
                                    cfg.candidate_size, make_rng(seed, "plan"))
    assert (candidates is not None) == fair
    drew = 0
    if fair:
        # the epoch's temperatures, as ``train_epoch`` takes them from the tracker
        group_taus = np.array([temperature(tracker.alpha(g), cfg.epsilon) for g in GROUPS])
        batch = _pick_target(bb, batch, candidates, group_taus, groups)
        drew = len(batch["target"][0])
    assert drew == want_drew
    for domain, mask in (("target", domains == 1), ("source", domains == 0)):
        for got, want in zip(batch[domain], (plan.users[mask], plan.pos[mask], plan.neg[mask])):
            assert got.dtype == np.int64 and np.array_equal(got, want)
    want = batch_objective_masked(bb, est, plan, cfg)
    got = batch_objective(bb, est, batch, groups, cfg)
    for value, ref in zip(got[:4], want[:4]):
        assert np.array_equal(value, ref)
    assert [(t, len(r)) for t, r, _ in got[4]] == [(t, len(r)) for t, r, _ in want[4]]
    for (_, rows, g), (_, ref_rows, ref_g) in zip(got[4], want[4]):
        assert np.array_equal(rows, ref_rows) and np.array_equal(g, ref_g)
    return got


class TestBatchPathMatchesMaskedOracle:
    @pytest.mark.parametrize("gamma", [0.0, 0.8])
    @pytest.mark.parametrize("fair", [False, True])
    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_shuffled_batches(self, synth_ds, mode, fair, gamma):
        split, cfg, bb, est, pools, tracker = _batch_setup(synth_ds, mode, fair, gamma)
        domains = np.repeat([1, 0], [len(split.target_train), len(split.source_train)])
        users, pos = np.concatenate([split.target_train, split.source_train]).T
        order = make_rng(4, "order").permutation(len(users))
        domains, users, pos = domains[order], users[order], pos[order]
        adam = Adam(cfg.learning_rate)
        for seed, lo in enumerate(range(0, 6 * 64, 64)):
            hi = lo + 64
            _, _, penalty, _, grads = _assert_same_batch(
                synth_ds, bb, est, pools, tracker, cfg, domains[lo:hi], users[lo:hi],
                pos[lo:hi], seed,
            )
            assert (penalty > 0) == (gamma > 0)
            # later batches see moved parameters
            params = bb.parameters()
            for table, rows, g in grads:
                adam.step(table, params[table], g, rows=rows)

    @pytest.mark.parametrize("edge", ["no_target", "no_source", "no_overlap"])
    @pytest.mark.parametrize("fair", [False, True])
    def test_edge_batches(self, synth_ds, edge, fair):
        split, cfg, bb, est, pools, tracker = _batch_setup(synth_ds, "dual", fair, 0.8)
        tgt, src = split.target_train, split.source_train[:20]
        if edge == "no_target":
            tgt = tgt[:0]
        elif edge == "no_source":
            tgt, src = tgt[::7], src[:0]
        else:
            tgt = tgt[synth_ds.target_to_source[tgt[:, 0]] < 0][:30]
        domains = np.repeat([1, 0], [len(tgt), len(src)])
        users, pos = np.concatenate([tgt, src]).T
        order = make_rng(5, "order").permutation(len(users))
        _, _, penalty, _, grads = _assert_same_batch(
            synth_ds, bb, est, pools, tracker, cfg, domains[order], users[order],
            pos[order], 9,
        )
        # only the batch with overlapping target rows has a penalty
        assert (penalty > 0) == (edge == "no_source")
        assert len(grads) == {"no_target": 3, "no_source": 6, "no_overlap": 6}[edge]


class TestFullObjectiveGradient:
    def test_matches_central_differences(self, micro_ds, micro_split):
        # d=4, 6 users, 8 items; penalty flows through the frozen estimator
        cfg = run_config(gamma=0.8, l2_reg=1e-3)
        bb = init(micro_ds, 4, "shared", seed=3)
        est = GainEstimator(4, hidden=(8, 4), dropout=0.2, seed=3)
        est.weights[-1] = make_rng(7, "w").normal(0, 0.3, est.weights[-1].shape)

        pairs = np.concatenate([micro_split.target_train[:8], micro_split.source_train[:4]])
        users, pos = pairs.T
        neg = (pos + 3) % 8
        groups_arr = micro_ds.group_array()
        batch = {"target": (users[:8], pos[:8], neg[:8]),
                 "source": (users[8:], pos[8:], neg[8:])}

        total, _, penalty, _, grads = batch_objective(bb, est, batch, groups_arr, cfg)
        assert penalty > 0
        dense = {name: np.zeros_like(arr) for name, arr in bb.parameters().items()}
        for table, rows, g in grads:
            np.add.at(dense[table], rows, g)

        h = 1e-5
        worst = 0.0
        for name, arr in bb.parameters().items():
            it = np.nditer(arr, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                orig = arr[idx]
                arr[idx] = orig + h
                up, *_ = batch_objective(bb, est, batch, groups_arr, cfg)
                arr[idx] = orig - h
                dn, *_ = batch_objective(bb, est, batch, groups_arr, cfg)
                arr[idx] = orig
                fd = (up - dn) / (2 * h)
                an = dense[name][idx]
                scale = max(abs(fd), abs(an), 1e-6)
                worst = max(worst, abs(fd - an) / scale)
        assert worst < 1e-4


def writable(*models):
    """Each parameter array's ``writeable`` flag, backbone tables then
    estimator layers."""
    return [arr.flags.writeable for model in models for arr in model.parameters().values()]


@pytest.fixture
def watch_partition(monkeypatch):
    """Record the backbone and estimator that ``train`` builds and the
    writeable flags of both at every objective call and every estimator fit.
    A test sets ``write_in_loop`` or ``write_in_fit`` to make that step write
    across the partition first."""
    seen = {"loop": [], "fit": [], "write_in_loop": False, "write_in_fit": False}
    init_backbone, objective, fit = (trainer_mod.init_backbone, trainer_mod.batch_objective,
                                     trainer_mod.estimator_step)

    def init_recording(*args, **kwargs):
        seen["backbone"] = init_backbone(*args, **kwargs)
        return seen["backbone"]

    def objective_recording(backbone, estimator, batch, groups, cfg):
        seen["estimator"] = estimator
        seen["loop"].append((writable(backbone), writable(estimator)))
        if seen["write_in_loop"]:
            estimator.weights[0][0, 0] += 1.0
        return objective(backbone, estimator, batch, groups, cfg)

    def fit_recording(estimator, *args, **kwargs):
        seen["fit"].append((writable(seen["backbone"]), writable(estimator)))
        if seen["write_in_fit"]:
            seen["backbone"].user_pool[0, 0] += 1.0
        return fit(estimator, *args, **kwargs)

    monkeypatch.setattr(trainer_mod, "init_backbone", init_recording)
    monkeypatch.setattr(trainer_mod, "batch_objective", objective_recording)
    monkeypatch.setattr(trainer_mod, "estimator_step", fit_recording)
    return seen


class TestParameterPartition:
    def test_read_only_across_run(self, synth_ds, watch_partition):
        model = train(synth_ds, run_config(epochs=3), d=8, mode="shared")
        assert len(model.log) == 3 and len(watch_partition["fit"]) == 3
        # the objective sees a writable backbone and a read-only estimator,
        # the estimator fit the reverse
        loop = watch_partition["loop"]
        assert loop and all(flags == ([True] * 3, [False] * 6) for flags in loop)
        assert watch_partition["fit"] == [([False] * 3, [True] * 6)] * 3
        assert writable(model.final_backbone, model.estimator) == [True] * 9

    def test_estimator_write_in_batch_loop_raises(self, synth_ds, watch_partition):
        watch_partition["write_in_loop"] = True
        with pytest.raises(ValueError, match="read-only"):
            train(synth_ds, run_config(epochs=2), d=8, mode="shared")
        assert len(watch_partition["loop"]) == 1 and watch_partition["fit"] == []
        assert writable(watch_partition["backbone"], watch_partition["estimator"]) == [True] * 9

    def test_backbone_write_in_fit_raises(self, synth_ds, watch_partition):
        watch_partition["write_in_fit"] = True
        with pytest.raises(ValueError, match="read-only"):
            train(synth_ds, run_config(epochs=2), d=8, mode="shared")
        assert len(watch_partition["fit"]) == 1
        assert writable(watch_partition["backbone"], watch_partition["estimator"]) == [True] * 9

    def test_no_overlap_refused_before_first_epoch(self, monkeypatch):
        ds = small_synth(overlap_fraction=0.0)
        epochs = []
        inner = trainer_mod.train_epoch

        def counting(*args, **kwargs):
            epochs.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_epoch", counting)
        with pytest.raises(DataError, match="^gain module requires overlapping users$"):
            train(ds, run_config(epochs=2), d=8, mode="shared")
        assert epochs == []
        # without the estimator fit no overlap is needed
        for variant in ("plain", "target_only", "no_estimator_loss"):
            model = train(ds, ablation_config(run_config(epochs=1), variant), d=8,
                          mode="shared")
            assert len(model.log) == 1
        assert len(epochs) == 3

    @pytest.mark.parametrize("phase", ["validation", "test"])
    def test_group_without_heldout_positives_refused_before_first_epoch(self, monkeypatch,
                                                                         phase):
        ds = small_synth()
        split = split_per_user(ds, 5)
        # drop group 1's positives of one held-out phase from the split
        held = {"validation": "target_val", "test": "target_test"}[phase]
        pairs = getattr(split, held)
        setattr(split, held, pairs[ds.target_group[pairs[:, 0]] == G0])
        monkeypatch.setattr(trainer_mod, "split_per_user", lambda *args: split)
        epochs = []
        inner = trainer_mod.train_epoch

        def counting(*args, **kwargs):
            epochs.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_epoch", counting)
        with pytest.raises(DataError, match=f"^the split has no target {phase} positives "
                                            f"in group 1 \\(B\\): "):
            train(ds, run_config(epochs=2), d=8, mode="shared")
        assert epochs == []


class TestHandedSplitChecked:
    """``train`` runs ``preflight`` on a split it is handed, as on one it makes."""

    @staticmethod
    def count_epochs(monkeypatch):
        epochs = []
        inner = trainer_mod.train_epoch

        def counting(*args, **kwargs):
            epochs.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_epoch", counting)
        return epochs

    def test_bad_config_refused(self, synth_ds, monkeypatch):
        epochs = self.count_epochs(monkeypatch)
        with pytest.raises(DataError, match="^learning rates must be positive$"):
            train(synth_ds, run_config(learning_rate=-0.01, epochs=1), d=4,
                  split=split_per_user(synth_ds, 5))
        assert epochs == []

    def test_split_without_group_validation_positives_refused(self, synth_ds, monkeypatch):
        split = split_per_user(synth_ds, 5)
        val = split.target_val
        split.target_val = val[synth_ds.target_group[val[:, 0]] == G0]
        epochs = self.count_epochs(monkeypatch)
        with pytest.raises(DataError, match="^the split has no target validation positives "
                                            "in group 1 \\(B\\): "):
            train(synth_ds, run_config(epochs=2), d=8, mode="shared", split=split)
        assert epochs == []


class TestVariantTable:
    @pytest.mark.parametrize("variant", list(trainer_mod.VARIANTS))
    def test_variant_changes_exactly_its_overrides(self, variant):
        base = TrainConfig()
        cfg = ablation_config(base, variant)
        overrides = trainer_mod.VARIANTS[variant][1]
        changed = {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)
                   if getattr(cfg, f.name) != getattr(base, f.name)}
        assert changed == overrides

    def test_unknown_variant_refused(self):
        with pytest.raises(DataError, match="^unknown variant 'nope'$"):
            ablation_config(TrainConfig(), "nope")


class TestTrainRuns:
    def test_epochs_zero_returns_init(self, synth_ds):
        cfg = run_config(epochs=0)
        model = train(synth_ds, cfg, d=8, mode="shared")
        assert model.log == []
        ref = init(synth_ds, 8, "shared", cfg.seed)
        np.testing.assert_array_equal(model.backbone.user_pool, ref.user_pool)

    def test_determinism_bitwise(self, synth_ds):
        cfg = run_config(epochs=3)
        a = train(synth_ds, cfg, d=8, mode="shared")
        b = train(synth_ds, cfg, d=8, mode="shared")
        np.testing.assert_array_equal(a.backbone.user_pool, b.backbone.user_pool)
        np.testing.assert_array_equal(a.backbone.item_target, b.backbone.item_target)
        assert [s.log_record() for s in a.log] == [s.log_record() for s in b.log]

    def test_gamma_zero_equals_flag_off(self, synth_ds, monkeypatch):
        # gamma = 0 is the no_redistribution variant: the penalty is never computed
        off = train(synth_ds, ablation_config(run_config(epochs=2), "no_redistribution"),
                    d=8, mode="shared")

        def no_penalty(*args):
            raise AssertionError("penalty computed at gamma = 0")

        monkeypatch.setattr(trainer_mod, "redistribution_grads", no_penalty)
        on = train(synth_ds, run_config(epochs=2, gamma=0.0), d=8, mode="shared")
        np.testing.assert_array_equal(on.backbone.user_pool, off.backbone.user_pool)

    def test_learning_happens(self):
        for seed in (0, 1, 2):
            ds = small_synth(seed=seed, interactions_per_user=12)
            cfg = run_config(epochs=12, seed=seed, batch_size=256,
                             learning_rate=0.02)
            model = train(ds, cfg, d=8, mode="shared")
            assert model.best_val_ndcg10 > model.log[0].val_ndcg10

    def test_plain_variant_matches_manual_flags(self, synth_ds):
        via_helper = ablation_config(run_config(epochs=2), "plain")
        manual = run_config(epochs=2, epsilon=0.0, candidate_size=4,
                            use_fair_sampling=False, gamma=0.0, use_estimator_loss=False)
        a = train(synth_ds, via_helper, d=8, mode="shared")
        b = train(synth_ds, manual, d=8, mode="shared")
        np.testing.assert_array_equal(a.backbone.user_pool, b.backbone.user_pool)

    def test_target_only_ignores_source(self, synth_ds):
        cfg = ablation_config(run_config(epochs=2), "target_only")
        model = train(synth_ds, cfg, d=8, mode="shared")
        ref = init(synth_ds, 8, "shared", cfg.seed)
        # source-only user rows never touched
        overlap_sources = set(synth_ds.overlap_arrays()[1].tolist())
        for s in range(synth_ds.n_users_source):
            if s not in overlap_sources:
                slot = model.backbone.source_slot[s]
                np.testing.assert_array_equal(
                    model.backbone.user_pool[slot], ref.user_pool[slot]
                )

    def test_fair_draw_counter_zero_without_fs(self, synth_ds):
        model = train(synth_ds, run_config(epochs=3, use_fair_sampling=False),
                      d=8, mode="shared")
        assert sum(s.fair_draws for s in model.log) == 0
        model_fs = train(synth_ds, run_config(epochs=3), d=8, mode="shared")
        assert sum(s.fair_draws for s in model_fs.log) > 0

    def test_lattice_estimator_toggle_isolated(self, synth_ds):
        # with redistribution off the estimator is decoupled from the main
        # objective, so toggling its fit must not move the backbone
        base = run_config(epochs=3, gamma=0.0)
        on = train(synth_ds, base, d=8, mode="shared")
        off = train(synth_ds, run_config(epochs=3, gamma=0.0,
                                         use_estimator_loss=False), d=8, mode="shared")
        np.testing.assert_array_equal(on.backbone.user_pool, off.backbone.user_pool)

    def test_lattice_alpha_toggle_isolated(self, synth_ds):
        # alpha only matters when fair sampling is active
        a = train(synth_ds, run_config(epochs=3, use_fair_sampling=False), d=8,
                  mode="shared")
        b = train(synth_ds, run_config(epochs=3, use_fair_sampling=False,
                                       epsilon=0.0, candidate_size=4),
                  d=8, mode="shared")
        np.testing.assert_array_equal(a.backbone.user_pool, b.backbone.user_pool)

    def test_multiple_negatives_per_positive(self, synth_ds):
        cfg = run_config(epochs=2, epsilon=1.0, candidate_size=4,
                         negatives_per_positive=3)
        model = train(synth_ds, cfg, d=8, mode="shared")
        single = run_config(epochs=2)
        ref = train(synth_ds, single, d=8, mode="shared")
        assert model.log[0].n_samples == 3 * ref.log[0].n_samples

    def test_dual_mode_trains_end_to_end(self, synth_ds):
        model = train(synth_ds, run_config(epochs=3), d=8, mode="dual")
        assert len(model.log) == 3
        assert all(np.isfinite(s.loss_total) for s in model.log)
        # overlap views stay independent storage in dual mode
        t = synth_ds.overlap_arrays()[0][0]
        s = synth_ds.target_to_source[t]
        assert t != model.backbone.source_slot[s]

    @pytest.mark.parametrize("scores, epochs, best_epoch, best_val", [
        # two epochs without a gain on epoch 1's 0.3 end the run after epoch 3
        ([0.1, 0.3, 0.2, 0.25], [0, 1, 2, 3], 1, 0.3),
        # with no epoch ever best, the count starts before the first: the run
        # ends after epoch 1 and keeps its last tables, its final backbone's
        ([math.nan] * 10, [0, 1], -1, math.nan),
    ], ids=["gain", "nan"])
    def test_early_stopping_keeps_the_best_epoch(self, synth_ds, monkeypatch, scores, epochs,
                                                 best_epoch, best_val):
        scores = iter(scores)
        monkeypatch.setattr(metrics_mod, "quick_ndcg_at_10",
                            lambda backbone, split, ds: next(scores))
        model = train(synth_ds, run_config(epochs=10, patience=2), d=8, mode="shared")
        assert [s.epoch for s in model.log] == epochs
        assert model.best_epoch == best_epoch
        assert np.array_equal(model.best_val_ndcg10, best_val, equal_nan=True)
        monkeypatch.undo()
        # epoch 1's tables in either case
        two = train(synth_ds, run_config(epochs=2), d=8, mode="shared")
        for name, table in model.backbone.parameters().items():
            assert np.array_equal(table, two.final_backbone.parameters()[name]), name

    def test_run_log_schema(self, synth_ds, tmp_path):
        model = train(synth_ds, run_config(epochs=2), d=8, mode="shared")
        path = tmp_path / "runlog.jsonl"
        write_run_log(path, model.log)
        lines = path.read_text().splitlines()
        assert len(lines) == 2
        record = json.loads(lines[0])
        assert set(record) == {
            "epoch", "loss_total", "loss_rec", "loss_redist", "ema_g0", "ema_g1",
            "alpha_g0", "gain_g0", "gain_g1", "estimator_loss", "val_ndcg10",
        }
        assert record["loss_total"] == pytest.approx(
            record["loss_rec"] + 0.5 * record["loss_redist"], abs=1e-9
        )
