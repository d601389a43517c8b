import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfair.backbone import init
from crossfair.data import G0, G1
from crossfair.errors import DataError
from crossfair.metrics import (
    compare_reports,
    evaluate,
    ndcg_at_k,
    paired_ttest,
    rank_items,
    recall_at_k,
    top_k,
    ugf,
)
from crossfair.trainer import TrainConfig, train

from conftest import small_synth


class TestRankItems:
    def scored_backbone(self, micro_ds, scores):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[bb.target_slot[0]] = [1.0, 0.0]
        bb.item_target[:] = 0.0
        for idx, s in enumerate(scores):
            bb.item_target[idx] = [s, 0.0]
        return bb

    def test_sorted_descending(self, micro_ds):
        bb = self.scored_backbone(micro_ds, [0.5, 0.9, 0.1])
        order = rank_items(bb, 0)
        assert list(order[:3]) == [1, 0, 2]

    def test_exclusions_dropped(self, micro_ds):
        bb = self.scored_backbone(micro_ds, [0.5, 0.9, 0.1])
        order = rank_items(bb, 0, exclude={1})
        assert 1 not in order
        assert list(order[:2]) == [0, 2]

    def test_ties_break_by_ascending_id(self, micro_ds):
        bb = self.scored_backbone(micro_ds, [0.3, 0.3, 0.3, 0.3])
        order = rank_items(bb, 0)
        tied = [i for i in order if bb.item_target[i, 0] == 0.3]
        assert tied == sorted(tied)


def stable_argsort_top(scores, k):
    return np.argsort(-scores, axis=1, kind="stable")[:, :k]


class TestTopK:
    """``top_k`` must give exactly the first columns of the stable argsort."""

    def test_ties_at_cutoff(self):
        rng = np.random.default_rng(0)
        scores = np.round(rng.normal(size=(300, 200)), 1)
        for k in (1, 10, 50, 199):
            np.testing.assert_array_equal(top_k(scores, k), stable_argsort_top(scores, k))
        # the k-th score shared inside and outside the kept columns
        row = np.array([[3.0, 1.0, 2.0, 1.0, 1.0, 0.0]])
        np.testing.assert_array_equal(top_k(row, 3), [[0, 2, 1]])

    def test_all_scores_tied(self):
        scores = np.full((7, 40), 0.25)
        np.testing.assert_array_equal(top_k(scores, 10), np.tile(np.arange(10), (7, 1)))

    def test_cutoff_beyond_non_excluded_items(self):
        rng = np.random.default_rng(1)
        scores = rng.normal(size=(50, 30))
        scores[rng.random(scores.shape) < 0.8] = -np.inf
        scores[0] = -np.inf
        for k in (5, 20, 30, 45):
            np.testing.assert_array_equal(top_k(scores, k),
                                          stable_argsort_top(scores, k))


class TestRecall:
    def test_half(self):
        assert recall_at_k([1, 2, 3], [1, 9], k=10) == 0.5

    def test_all_hit(self):
        assert recall_at_k([4, 5, 6], [5, 6], k=3) == 1.0

    def test_k1_miss(self):
        assert recall_at_k([7, 3], [3], k=1) == 0.0

    def test_brute_force_small_instances(self):
        # exhaustive check on every ranking of 5 items against an oracle
        items = list(range(5))
        relevant = {1, 4}
        for perm in itertools.permutations(items):
            for k in (1, 2, 3, 5):
                want = len(set(perm[:k]) & relevant) / len(relevant)
                assert recall_at_k(perm, relevant, k) == pytest.approx(want)


class TestNdcg:
    def test_rank1_is_one(self):
        assert ndcg_at_k([3, 1, 2], [3], k=10) == pytest.approx(1.0)

    def test_rank3_half(self):
        assert ndcg_at_k([5, 6, 3], [3], k=10) == pytest.approx(0.5, abs=1e-12)

    def test_miss_is_zero(self):
        assert ndcg_at_k([5, 6], [7], k=2) == 0.0

    def test_brute_force_small_instances(self):
        items = list(range(5))
        relevant = {0, 2, 3}
        for perm in itertools.permutations(items):
            for k in (1, 3, 5):
                dcg = sum(
                    1.0 / math.log2(r + 2)
                    for r, item in enumerate(perm[:k])
                    if item in relevant
                )
                idcg = sum(1.0 / math.log2(r + 2) for r in range(min(k, 3)))
                assert ndcg_at_k(perm, relevant, k) == pytest.approx(dcg / idcg)

    @given(st.integers(1, 8), st.integers(1, 8))
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, k1, k2):
        ranked = [0, 1, 2, 3, 4, 5, 6, 7]
        relevant = {2, 5, 7}
        lo, hi = min(k1, k2), max(k1, k2)
        assert ndcg_at_k(ranked, relevant, lo) <= ndcg_at_k(ranked, relevant, hi) + 1e-12
        assert recall_at_k(ranked, relevant, lo) <= recall_at_k(ranked, relevant, hi) + 1e-12


class TestUgf:
    def test_absolute_gap(self):
        assert ugf({G0: 0.3, G1: 0.2}) == pytest.approx(0.1, abs=1e-12)

    def test_symmetric(self):
        assert ugf({G0: 0.2, G1: 0.3}) == ugf({G0: 0.3, G1: 0.2})

    def test_equal_means_zero(self):
        assert ugf({G0: 0.25, G1: 0.25}) == 0.0

    def test_missing_group_errors(self):
        with pytest.raises(DataError):
            ugf({G0: 0.3, G1: None})


class TestPairedTTest:
    def test_identical_samples(self):
        t, p = paired_ttest([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
        assert t == 0.0 and p == 1.0

    def test_constant_shift_zero_variance(self):
        t, p = paired_ttest([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert p == 0.0

    def test_known_value(self):
        # diffs [1..5]: t = 4.242640687, p = 0.013235599563 (quadrature oracle)
        a = [2.0, 4.0, 6.0, 8.0, 10.0]
        b = [1.0, 2.0, 3.0, 4.0, 5.0]
        t, p = paired_ttest(a, b)
        assert t == pytest.approx(4.242640687119285, rel=1e-12)
        assert p == pytest.approx(0.013235599563682698, rel=1e-9)

    def test_needs_two(self):
        with pytest.raises(DataError):
            paired_ttest([1.0], [2.0])


class TestEvaluate:
    def trained(self, seed=0):
        ds = small_synth(seed=seed, interactions_per_user=12)
        cfg = TrainConfig(epochs=4, batch_size=256, learning_rate=0.02, seed=seed)
        model = train(ds, cfg, d=8, mode="shared")
        return ds, model

    def test_report_shapes_and_bounds(self):
        ds, model = self.trained()
        report = evaluate(model.backbone, model.split, ds, ks=(10, 20))
        for name in report.metric_names():
            assert 0.0 <= report.overall[name] <= 1.0
            assert report.ugf[name] >= 0.0
            for g in (G0, G1):
                assert 0.0 <= report.per_group[g][name] <= 1.0
        assert report.n_users["overall"] == report.n_users["g0"] + report.n_users["g1"]

    def test_determinism(self):
        ds, model = self.trained()
        a = evaluate(model.backbone, model.split, ds).to_json()
        b = evaluate(model.backbone, model.split, ds).to_json()
        assert a == b

    def test_matches_per_user_functions(self):
        ds, model = self.trained()
        report = evaluate(model.backbone, model.split, ds, ks=(10,))
        users = report.per_user["users"]
        train_pos = {}
        for u, i in model.split.target_train:
            train_pos.setdefault(u, set()).add(i)
        val_pos = {}
        for u, i in model.split.target_val:
            val_pos.setdefault(u, set()).add(i)
        test_pos = {}
        for u, i in model.split.target_test:
            test_pos.setdefault(u, set()).add(i)
        for row, u in enumerate(users[:20]):
            exclude = train_pos.get(u, set()) | val_pos.get(u, set())
            ranked = rank_items(model.backbone, int(u), exclude)
            assert report.per_user["recall@10"][row] == pytest.approx(
                recall_at_k(ranked, test_pos[u], 10)
            )
            assert report.per_user["ndcg@10"][row] == pytest.approx(
                ndcg_at_k(ranked, test_pos[u], 10)
            )

    def test_compare_reports(self):
        ds, model = self.trained()
        base = evaluate(model.backbone, model.split, ds)
        better = evaluate(model.backbone, model.split, ds)
        compared = compare_reports(better, base, "self")
        assert compared.improvement["acc_impr_mean_pct"] == pytest.approx(0.0, abs=1e-12)
        for name in compared.metric_names():
            assert compared.p_values[name] == 1.0

    def test_cutoff_beyond_catalogue(self):
        from crossfair.data import split_per_user

        ds = small_synth(n_items_target=12, interactions_per_user=10)
        report = evaluate(init(ds, 8, "shared", seed=0), split_per_user(ds, 0), ds, ks=(5, 20))
        # every item is ranked inside the top 20, so each test positive is a hit
        assert report.overall["recall@20"] == 1.0
        assert 0.0 < report.overall["ndcg@20"] <= 1.0

    def test_csv_layout(self, tmp_path):
        ds, model = self.trained()
        report = evaluate(model.backbone, model.split, ds, ks=(10, 20))
        path = tmp_path / "report.csv"
        report.write_csv(path)
        lines = path.read_text().splitlines()
        assert lines[0] == "metric,scope,value"
        assert len(lines) == 1 + 4 * len(report.metric_names())
