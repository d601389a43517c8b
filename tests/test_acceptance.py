"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s``. The directional
experiments (criteria 4-6) share one 25-run training matrix computed once
per session on the high-disparity synthetic fixture.
"""

import itertools
import json
import math
import struct

import numpy as np
import pytest

from crossfair.backbone import init
from crossfair.cli import main as cli_main
from crossfair.data import G0, G1, SplitDataset, SynthConfig, generate_synthetic
from crossfair.gain import GainEstimator, estimate_gain
from crossfair.metrics import evaluate, ugf
from crossfair.numerics import softmax
from crossfair.sampler import (
    GroupLossTracker,
    NegativePool,
    batch_sample_negatives,
    temperature,
)
from crossfair.seeding import make_rng
from crossfair.theory import rademacher_estimate, wasserstein1
from crossfair.trainer import Adam, TrainConfig, ablation_config, bpr_terms, train

from conftest import micro_dataset
from oracles import (
    bpr_loss,
    ndcg_at_k,
    rademacher_exhaustive,
    rank_items,
    recall_at_k,
    sampling_distribution,
    wasserstein1_exhaustive,
)
from test_theory import gaussian_cloud
from crossfair.theory import probe_group_gap, theorem1_bound


def say(criterion, message):
    print(f"\nACCEPTANCE {criterion} PASS: {message}")


# -- fixture shared by criteria 4-6 -------------------------------------------

SEEDS = (0, 1, 2, 3, 4)
VARIANTS = ("target_only", "plain", "full", "no_fair_sampling", "no_redistribution")


def disparity_fixture(seed):
    """High-disparity two-domain testbed: dense source histories, group g1's
    source signal heavily corrupted."""
    return SynthConfig(
        n_users_source=1000, n_users_target=2000, overlap_fraction=0.5,
        n_items_source=1000, n_items_target=1000, latent_dim=8,
        group_split=0.5, source_disparity=4.0, domain_shift=0.2,
        interactions_per_user=16, source_density_ratio=4, rng_seed=seed,
    )


def disparity_train_config(seed):
    return TrainConfig(
        learning_rate=0.01, batch_size=2048, l2_reg=1e-4, epochs=30,
        gamma=1.0, epsilon=1.0, candidate_size=8,
        seed=seed, patience=10,
    )


@pytest.fixture(scope="session")
def experiment_matrix():
    results = {v: {"ugf": [], "recall": []} for v in VARIANTS}
    for seed in SEEDS:
        ds = generate_synthetic(disparity_fixture(seed))
        for variant in VARIANTS:
            cfg = ablation_config(disparity_train_config(seed), variant)
            model = train(ds, cfg, d=32, mode="shared")
            report = evaluate(model.backbone, model.split, ds)
            results[variant]["ugf"].append(report.ugf["recall@10"])
            results[variant]["recall"].append(report.overall["recall@10"])
    return {
        v: {key: np.array(vals) for key, vals in per.items()}
        for v, per in results.items()
    }


# -- criterion 1: unit oracles -------------------------------------------------


class TestCriterion1UnitOracles:
    def test_ema_recurrence(self):
        rng = make_rng(0, "acc-ema")
        beta = 0.9
        tracker = GroupLossTracker(beta=beta)
        ref = {G0: None, G1: None}
        for k in range(12):
            m0, m1 = rng.uniform(0.1, 3.0, 2)
            tracker.accumulate_many([G0, G1], [m0, m1])
            emas = tracker.end_epoch()
            for g, m in ((G0, m0), (G1, m1)):
                ref[g] = m if k == 0 else beta * ref[g] + (1 - beta) * m
            assert abs(emas[G0] - ref[G0]) < 1e-12
            assert abs(emas[G1] - ref[G1]) < 1e-12
        assert abs(tracker.alpha(G0) + tracker.alpha(G1)) < 1e-12
        avg = (ref[G0] + ref[G1]) / 2
        assert abs(tracker.alpha(G0) - (ref[G0] - avg) / avg) < 1e-12

    def test_temperature_formula(self):
        for alpha in (-0.5, 0.0, 4.0 / 15.0, 1.0):
            for eps in (0.0, 0.3, 1.0):
                assert abs(temperature(alpha, eps) - math.exp(-eps * alpha)) < 1e-12
        assert abs(temperature(4.0 / 15.0, 1.0) - 0.7659283383646487) < 1e-9

    def test_softmax_distribution(self):
        ds = micro_dataset()
        bb = init(ds, 2, "shared", seed=0)
        bb.user_pool[bb.target_slot[0]] = [1.0, 0.0]
        for idx, s in enumerate([2.0, 1.0, 0.0]):
            bb.item_target[idx] = [s, 0.0]
        for tau in (0.5, 1.0, 2.0):
            p = sampling_distribution(bb, 0, [0, 1, 2], tau)
            z = np.exp(np.array([2.0, 1.0, 0.0]) / tau)
            want = z / z.sum()
            assert np.abs(p - want).max() < 1e-9
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.abs(softmax(np.array([2.0, 1.0, 0.0]) / tau) - want).max() < 1e-9

    def test_bpr_and_adam(self):
        ds = micro_dataset()
        bb = init(ds, 2, "shared", seed=0)
        bb.item_target[0] = bb.item_target[1]
        loss, _ = bpr_loss(bb, 0, 0, 1, l2_reg=0.0)
        assert abs(loss - math.log(2.0)) < 1e-9
        u = bb.user_target_vectors([0])
        shipped = bpr_terms(u, bb.item_target[[0]], bb.item_target[[1]], 0.0)[0]
        assert abs(shipped[0] - math.log(2.0)) < 1e-9
        bb.user_pool[bb.target_slot[0]] = [1.0, 0.0]
        bb.item_target[0] = [10.0, 0.0]
        bb.item_target[1] = [0.0, 0.0]
        loss, _ = bpr_loss(bb, 0, 0, 1, l2_reg=0.0)
        assert abs(loss - math.log1p(math.exp(-10.0))) < 1e-9
        u = bb.user_target_vectors([0])
        shipped = bpr_terms(u, bb.item_target[[0]], bb.item_target[[1]], 0.0)[0]
        assert abs(shipped[0] - math.log1p(math.exp(-10.0))) < 1e-9

        adam = Adam(lr=0.001)
        param = np.array([0.5])
        adam.step("p", param, np.array([1.0]))
        assert abs((0.5 - param[0]) - 0.001 * 1.0 / (1.0 + 1e-8)) < 1e-9
        # the sparse form takes the same first step on the rows it is given
        table = np.full((3, 1), 0.5)
        adam.step("table", table, np.array([[1.0]]), rows=[1])
        assert abs((0.5 - table[1, 0]) - 0.001 * 1.0 / (1.0 + 1e-8)) < 1e-9
        assert table[0, 0] == table[2, 0] == 0.5

    def test_gain_and_redistribution(self):
        ds = micro_dataset()
        bb = init(ds, 2, "dual", seed=0)
        est = GainEstimator(2, hidden=(2,), dropout=0.0, seed=0)
        bb.item_target[0] = [1.0, 0.0]
        bb.user_pool[bb.target_slot[0]] = [0.0, 0.0]
        bb.user_pool[bb.source_slot[ds.target_to_source[0]]] = [math.log(0.6 / 0.4), 0.0]
        est.weights[0][:] = 0.0
        est.biases[0][:] = [1.0, 0.0]
        est.weights[1][:] = 0.0
        est.weights[1][0, 0] = math.log(0.9 / 0.1)
        report = estimate_gain(bb, est, [0], [0], [G0])
        assert abs(report.delta_i[G0] - math.log(0.9 / (0.6 * 0.5))) < 1e-9
        gap = report.delta_i[G0] - report.delta_i[G1]
        assert abs(report.redistribution_loss - gap * gap) < 1e-12

    def test_metrics_oracles(self):
        assert recall_at_k([1, 2, 3], [1, 9], 10) == 0.5
        assert abs(ndcg_at_k([5, 6, 3], [3], 10) - 0.5) < 1e-12
        assert abs(ugf({G0: 0.3, G1: 0.2}) - 0.1) < 1e-12
        items = list(range(5))
        relevant = {0, 3}
        for perm in itertools.permutations(items):
            want = len(set(perm[:3]) & relevant) / 2
            assert abs(recall_at_k(perm, relevant, 3) - want) < 1e-12

        # the shipped evaluator on a known ranking: user 0 ranks items
        # 5, 6, 3, 0, 1, 2, 4, 7 and holds out items 3 and 7
        ds = micro_dataset()
        bb = init(ds, 2, "shared", seed=0)
        bb.user_pool[bb.target_slot[0]] = [1.0, 0.0]
        bb.item_target[:] = [[5.0, 0.0], [4.0, 0.0], [3.0, 0.0], [6.0, 0.0],
                             [2.0, 0.0], [8.0, 0.0], [7.0, 0.0], [1.0, 0.0]]
        empty = np.empty((0, 2), dtype=np.int64)
        split = SplitDataset(empty, empty, empty, empty, np.array([[0, 3], [0, 7], [2, 1]]))
        report = evaluate(bb, split, ds, ks=(3, 10))
        ranked = rank_items(bb, 0)
        assert list(ranked) == [5, 6, 3, 0, 1, 2, 4, 7]
        assert report.per_user["recall@3"][0] == 0.5 == recall_at_k(ranked, {3, 7}, 3)
        want = (1.0 / math.log2(4)) / (1.0 + 1.0 / math.log2(3))
        assert abs(report.per_user["ndcg@3"][0] - want) < 1e-12
        assert abs(ndcg_at_k(ranked, {3, 7}, 3) - want) < 1e-12

    def test_w1_vs_permutation_enumeration(self):
        for n in (2, 3, 5, 7):
            rng = make_rng(n, "acc-w1")
            a = rng.normal(0, 1, (n, 3))
            b = rng.normal(0, 1, (n, 3))
            assert abs(wasserstein1(a, b) - wasserstein1_exhaustive(a, b)) < 1e-9

    def test_summary(self):
        say(1, "unit oracles match brute-force references within tolerance")


# -- criterion 2: gradient suite ------------------------------------------------


class TestCriterion2Gradients:
    def test_full_objective_fd(self):
        from crossfair.trainer import batch_objective
        from crossfair.data import split_per_user

        ds = micro_dataset()
        split = split_per_user(ds, seed=11)
        cfg = TrainConfig(gamma=0.8, l2_reg=1e-3)
        bb = init(ds, 4, "shared", seed=3)
        est = GainEstimator(4, hidden=(8, 4), dropout=0.2, seed=3)
        est.weights[-1] = make_rng(7, "w").normal(0, 0.3, est.weights[-1].shape)

        pairs = np.concatenate([split.target_train[:8], split.source_train[:4]])
        users, pos = pairs.T
        neg = (pos + 3) % 8
        groups_arr = ds.group_array()
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
                worst = max(worst, abs(fd - an) / max(abs(fd), abs(an), 1e-6))
        assert worst < 1e-4
        say(2, f"full-objective gradients match central differences (max rel err {worst:.2e})")


# -- criterion 3: sampler statistics --------------------------------------------


class TestCriterion3SamplerStats:
    def test_mc_frequencies_and_sharpening(self):
        scores = np.array([1.6, 0.8, 0.2, -0.4, -1.0, 0.5, 1.1, -0.2])
        ds = micro_dataset()
        bb = init(ds, 2, "shared", seed=0)
        bb.user_pool[bb.target_slot[0]] = [1.0, 0.0]
        for idx, s in enumerate(scores):
            bb.item_target[idx] = [s, 0.0]
        candidates = list(range(8))
        rng = make_rng(1, "acc-mc")
        # every item is eligible and the candidate set holds all 8, so the
        # shipped sampler draws from the softmax over the whole catalogue
        pool = NegativePool(8, np.empty((0, 2), dtype=np.int64), ds.n_users_target)
        users = np.zeros(100_000, dtype=np.int64)
        batch_rng = make_rng(1, "acc-mc-batch")
        argmax_masses = []
        for tau in (0.5, 1.0, 2.0):
            p = sampling_distribution(bb, 0, candidates, tau)
            draws = rng.choice(8, size=100_000, p=p)
            freqs = np.bincount(draws, minlength=8) / 100_000
            l1 = np.abs(freqs - p).sum()
            assert l1 < 0.02
            draws = batch_sample_negatives(bb, pool, users, np.full(len(users), tau), 8,
                                           batch_rng)
            freqs = np.bincount(draws, minlength=8) / 100_000
            assert np.abs(freqs - p).sum() < 0.02
            argmax_masses.append(p[0])
        assert argmax_masses[0] >= argmax_masses[1] >= argmax_masses[2]
        say(3, "empirical draw frequencies match the softmax law; argmax mass "
               "non-increasing in temperature")


# -- criteria 4-6: directional experiments ---------------------------------------


class TestCriterion4DisparityTransfer:
    def test_cdr_transfers_disparity(self, experiment_matrix):
        plain = float(np.median(experiment_matrix["plain"]["ugf"]))
        target_only = float(np.median(experiment_matrix["target_only"]["ugf"]))
        assert plain > target_only
        say(4, f"CDR-without-mitigation group gap {plain:.4f} exceeds "
               f"target-only {target_only:.4f} (median over {len(SEEDS)} seeds)")


class TestCriterion5Efficacy:
    def test_fairness_improves_accuracy_held(self, experiment_matrix):
        plain_ugf = float(np.median(experiment_matrix["plain"]["ugf"]))
        full_ugf = float(np.median(experiment_matrix["full"]["ugf"]))
        cut = 1.0 - full_ugf / plain_ugf
        assert cut >= 0.30
        per_seed_cut = float(np.median(
            1.0 - experiment_matrix["full"]["ugf"] / experiment_matrix["plain"]["ugf"]
        ))
        assert per_seed_cut >= 0.30
        plain_recall = float(np.median(experiment_matrix["plain"]["recall"]))
        full_recall = float(np.median(experiment_matrix["full"]["recall"]))
        change = full_recall / plain_recall - 1.0
        assert change >= -0.05
        say(5, f"group gap cut {100 * cut:.1f}% (per-seed median {100 * per_seed_cut:.1f}%), "
               f"recall change {100 * change:+.1f}%")


class TestCriterion6AblationOrdering:
    def test_ordering(self, experiment_matrix):
        full = float(np.median(experiment_matrix["full"]["ugf"]))
        no_fs = float(np.median(experiment_matrix["no_fair_sampling"]["ugf"]))
        no_redist = float(np.median(experiment_matrix["no_redistribution"]["ugf"]))
        assert full <= no_fs
        assert full <= no_redist
        say(6, f"full {full:.4f} <= w/o sampling {no_fs:.4f} and "
               f"w/o redistribution {no_redist:.4f}")

    def test_harness_emits_csv(self, tmp_path):
        cfg = tmp_path / "ablate.cfg"
        cfg.write_text(
            "synth = true\nn_users_source = 40\nn_users_target = 60\n"
            "overlap_fraction = 0.5\nn_items_source = 40\nn_items_target = 40\n"
            "latent_dim = 8\ninteractions_per_user = 10\nembedding_dim = 8\n"
            "epochs = 2\nbatch_size = 128\nseed = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "ablate"
        assert cli_main(["--config", str(cfg), "--out", str(out), "--quiet",
                         "ablate"]) == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 6
        assert all(len(line.split(",")) == 9 for line in lines)


# -- criterion 7: theory bounds ---------------------------------------------------


class TestCriterion7TheoryBounds:
    def test_chain_and_probe_relations(self):
        for seed in range(20):
            cloud = gaussian_cloud(seed)
            report = theorem1_bound(cloud, l_o=1.0, l_f=1.0, subsample_n=40, seed=seed)
            scale = float(np.abs(cloud.points).std())
            slack = 0.05 * scale
            decomposition = (
                report.w1_source_gap + report.delta_t_g0 + report.delta_t_g1
                + report.delta_s_g0 + report.delta_s_g1 + 2 * report.domain_shift
            )
            assert report.w1_target_gap <= decomposition + slack
            assert report.probe_gap_target <= report.l_o * report.l_f * report.w1_target_gap + slack

    def test_w1_metric_axioms(self):
        rng = make_rng(17, "acc-axioms")
        a = rng.normal(0, 1, (24, 4))
        b = rng.normal(0.4, 1, (24, 4))
        c = rng.normal(-0.3, 1.5, (24, 4))
        assert wasserstein1(a, a) < 1e-9
        assert abs(wasserstein1(a, b) - wasserstein1(b, a)) < 1e-9
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9

    def test_exhaustive_rademacher_exact(self):
        for n in (2, 6, 12):
            values = make_rng(n, "acc-rad").normal(0, 1, (3, n))
            est, _ = rademacher_exhaustive(values)
            total = 0.0
            for signs in itertools.product([-1.0, 1.0], repeat=n):
                total += max(float(np.dot(row, signs)) for row in values) / n
            assert abs(est - total / 2 ** n) < 1e-12
            mc, _ = rademacher_estimate(values, n_sign_draws=20000, seed=4)
            assert abs(mc - est) < 0.02
        say(7, "transport chain inequality, probe-vs-W1 relation, metric axioms, "
               "and exhaustive-sign complexity all hold")


# -- criterion 8: determinism ------------------------------------------------------


class TestCriterion8Determinism:
    def test_byte_identical_artifacts(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "synth = true\nn_users_source = 40\nn_users_target = 60\n"
            "overlap_fraction = 0.5\nn_items_source = 40\nn_items_target = 40\n"
            "latent_dim = 8\ninteractions_per_user = 10\nembedding_dim = 8\n"
            "epochs = 3\nbatch_size = 128\nseed = 9\n",
            encoding="utf-8",
        )
        outs = []
        for tag in ("a", "b"):
            data = tmp_path / f"data_{tag}"
            run = tmp_path / f"run_{tag}"
            theory = tmp_path / f"theory_{tag}"
            assert cli_main(["--config", str(cfg), "--out", str(data), "--quiet",
                             "synth"]) == 0
            assert cli_main(["--config", str(cfg), "--out", str(run), "--quiet",
                             "train"]) == 0
            assert cli_main(["--out", str(theory), "--quiet", "theory",
                             "--snapshot", str(run / "snapshot.bin"),
                             "--attrs", str(run / "groups.tsv"),
                             "--overlap", str(run / "overlap.tsv"),
                             "--baseline-ugf", "0.5"]) == 0
            outs.append((data, run, theory))
        (data_a, run_a, th_a), (data_b, run_b, th_b) = outs
        for name in ("interactions_source.tsv", "interactions_target.tsv",
                     "attributes.tsv", "manifest.txt"):
            assert (data_a / name).read_bytes() == (data_b / name).read_bytes()
        for name in ("runlog.jsonl", "snapshot.bin", "state.json", "optstate.bin",
                     "report.json", "report.csv"):
            if (run_a / name).exists():
                assert (run_a / name).read_bytes() == (run_b / name).read_bytes(), name
        assert (th_a / "bound.json").read_bytes() == (th_b / "bound.json").read_bytes()
        say(8, "synth, train, and theory artifacts are byte-identical across reruns")


# -- criterion 9: parameter partition ----------------------------------------------


class TestCriterion9ParameterPartition:
    def test_partition_over_ten_epochs(self):
        ds = generate_synthetic(SynthConfig(
            n_users_source=80, n_users_target=120, overlap_fraction=0.5,
            n_items_source=60, n_items_target=60, latent_dim=8,
            interactions_per_user=10, rng_seed=2,
        ))
        cfg = TrainConfig(
            learning_rate=0.01, batch_size=256, epochs=10, gamma=1.0,
            candidate_size=4, seed=2,
        )
        model = train(ds, cfg, d=8, mode="shared")
        assert len(model.log) == 10
        assert all(s.estimator_loss is not None for s in model.log)
        say(9, "estimator and backbone parameter partitions held read-only "
               "across a 10-epoch run")
