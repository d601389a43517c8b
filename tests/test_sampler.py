import math
import multiprocessing
import threading
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chisquare

from crossfair.backbone import init
from crossfair.data import G0, G1, split_per_user
from crossfair.errors import CrossfairError, DataError, NumericalError
from crossfair.numerics import softmax
from crossfair.sampler import (
    DrawAhead,
    GroupLossTracker,
    NegativePool,
    _fork_context,
    batch_candidates,
    batch_sample_negatives,
    pick_negatives,
    temperature,
)
from crossfair.seeding import make_rng
from crossfair.trainer import TrainConfig

from conftest import micro_dataset, small_synth
from oracles import (
    batch_candidates_before_floyd,
    build_candidates,
    negative_pool_loop,
    sample_negative,
    sampling_distribution,
)


class TestTracker:
    def test_epoch_mean(self):
        tr = GroupLossTracker(beta=0.9)
        tr.accumulate_many([G0], [1.0])
        tr.accumulate_many([G0], [3.0])
        tr.accumulate_many([G1], [2.0])
        emas = tr.end_epoch()
        assert emas[G0] == pytest.approx(2.0, abs=1e-12)

    def test_recurrence_trajectory(self):
        tr = GroupLossTracker(beta=0.9)
        expected = [1.0, 0.95, 0.905]
        for mean, want in zip([1.0, 0.5, 0.5], expected):
            tr.accumulate_many([G0], [mean])
            tr.accumulate_many([G1], [mean])
            emas = tr.end_epoch()
            assert emas[G0] == pytest.approx(want, abs=1e-12)

    def test_beta_zero_no_smoothing(self):
        tr = GroupLossTracker(beta=0.0)
        for mean in (5.0, 1.0, 0.25):
            tr.accumulate_many([G0], [mean])
            tr.accumulate_many([G1], [1.0])
            assert tr.end_epoch()[G0] == pytest.approx(mean, abs=1e-12)

    def test_constant_fixed_point(self):
        tr = GroupLossTracker(beta=0.9)
        for _ in range(5):
            tr.accumulate_many([G0], [0.7])
            tr.accumulate_many([G1], [0.7])
            assert tr.end_epoch()[G0] == pytest.approx(0.7, abs=1e-12)

    @pytest.mark.parametrize("beta", [1.0, -0.1])
    def test_beta_outside_unit_interval_rejected(self, beta):
        with pytest.raises(DataError, match=r"^beta must lie in \[0, 1\)$"):
            GroupLossTracker(beta=beta)

    def test_nan_rejected(self):
        tr = GroupLossTracker()
        with pytest.raises(NumericalError):
            tr.accumulate_many([G0], [float("nan")])

    def test_unknown_group_rejected(self):
        tr = GroupLossTracker()
        with pytest.raises(DataError):
            tr.accumulate_many([7], [1.0])

    def test_unknown_group_in_batch_leaves_tracker_unchanged(self):
        tr = GroupLossTracker(beta=0.9)
        tr.accumulate_many([G0, G1], [1.0, 2.0])
        tr.end_epoch()
        tr.accumulate_many([G0, G1, G1], [0.5, 1.5, 2.5])
        before = (tr.state(), tr._sums.tolist(), tr._counts.tolist())
        with pytest.raises(DataError, match="unknown group 7"):
            tr.accumulate_many([G0, 7, G1], [3.0, 4.0, 5.0])
        assert (tr.state(), tr._sums.tolist(), tr._counts.tolist()) == before

    def test_first_epoch_empty_group_errors(self):
        tr = GroupLossTracker()
        tr.accumulate_many([G0], [1.0])
        with pytest.raises(DataError, match="first epoch"):
            tr.end_epoch()

    def test_empty_group_retains_prior_ema(self):
        tr = GroupLossTracker(beta=0.9)
        tr.accumulate_many([G0], [1.0])
        tr.accumulate_many([G1], [2.0])
        tr.end_epoch()
        tr.accumulate_many([G0], [1.0])
        emas = tr.end_epoch()
        assert emas[G1] == pytest.approx(2.0, abs=1e-12)

    @given(
        st.lists(
            st.tuples(
                st.floats(0.01, 10.0, allow_nan=False),
                st.floats(0.01, 10.0, allow_nan=False),
            ),
            min_size=1,
            max_size=12,
        ),
        st.floats(0.0, 0.99),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_direct_recurrence(self, means, beta):
        tr = GroupLossTracker(beta=beta)
        ref = {G0: None, G1: None}
        for k, (m0, m1) in enumerate(means):
            tr.accumulate_many([G0], [m0])
            tr.accumulate_many([G1], [m1])
            emas = tr.end_epoch()
            for g, m in ((G0, m0), (G1, m1)):
                ref[g] = m if k == 0 else beta * ref[g] + (1 - beta) * m
            assert emas[G0] == pytest.approx(ref[G0], abs=1e-12, rel=1e-12)
            assert emas[G1] == pytest.approx(ref[G1], abs=1e-12, rel=1e-12)


class TestAlpha:
    def tracker_with(self, e0, e1):
        tr = GroupLossTracker(beta=0.9)
        tr.accumulate_many([G0], [e0])
        tr.accumulate_many([G1], [e1])
        tr.end_epoch()
        return tr

    def test_direct_substitution(self):
        tr = self.tracker_with(0.95, 0.55)
        assert tr.alpha(G0) == pytest.approx((0.95 - 0.75) / 0.75, abs=1e-12)
        assert tr.alpha(G1) == pytest.approx(-(0.95 - 0.75) / 0.75, abs=1e-12)

    def test_equal_emas_zero(self):
        tr = self.tracker_with(0.4, 0.4)
        assert tr.alpha(G0) == 0.0
        assert tr.alpha(G1) == 0.0

    def test_extreme_case(self):
        tr = self.tracker_with(2.0, 0.0)
        assert tr.alpha(G0) == pytest.approx(1.0, abs=1e-12)
        assert tr.alpha(G1) == pytest.approx(-1.0, abs=1e-12)

    def test_degenerate_losses_error(self):
        tr = self.tracker_with(0.0, 0.0)
        with pytest.raises(NumericalError, match="degenerate"):
            tr.alpha(G0)

    def test_unknown_group_error(self):
        with pytest.raises(DataError, match="^unknown group 7$"):
            self.tracker_with(0.95, 0.55).alpha(7)

    def test_before_first_epoch_error(self):
        with pytest.raises(DataError, match="^alpha undefined before the first completed epoch$"):
            GroupLossTracker().alpha(G0)

    @given(st.floats(0.01, 5.0), st.floats(0.01, 5.0))
    @settings(max_examples=50, deadline=None)
    def test_antisymmetry(self, e0, e1):
        tr = self.tracker_with(e0, e1)
        assert tr.alpha(G0) + tr.alpha(G1) == pytest.approx(0.0, abs=1e-12)


class TestTemperature:
    def test_epsilon_zero_is_one(self):
        for alpha in (-2.0, 0.0, 0.5, 3.0):
            assert temperature(alpha, 0.0) == 1.0

    def test_derived_value(self):
        alpha = (0.95 - 0.75) / 0.75
        assert temperature(alpha, 1.0) == pytest.approx(math.exp(-alpha), abs=1e-12)
        assert temperature(alpha, 1.0) == pytest.approx(0.7659283383646487, abs=1e-9)

    def test_zero_alpha_is_one(self):
        assert temperature(0.0, 0.7) == 1.0

    def test_negative_epsilon_rejected(self):
        with pytest.raises(DataError, match="^epsilon must be >= 0$"):
            temperature(0.5, -0.1)

    def test_monotone_decreasing_in_alpha(self):
        alphas = np.linspace(-1, 1, 9)
        taus = [temperature(a, 0.8) for a in alphas]
        assert all(t1 > t2 for t1, t2 in zip(taus, taus[1:]))


def make_pool(n_items, train_pairs, n_users):
    return NegativePool(n_items, np.array(train_pairs, dtype=np.int64).reshape(-1, 2), n_users)


class TestPoolMatchesLoopReference:
    @pytest.mark.parametrize("make_ds, seed", [
        (micro_dataset, 11),
        (lambda: small_synth(seed=0), 0),
        (lambda: small_synth(seed=1, interactions_per_user=13), 1),
        (lambda: small_synth(seed=2, n_items_target=12, interactions_per_user=11), 2),
    ])
    def test_same_arrays(self, make_ds, seed):
        ds = make_ds()
        split = split_per_user(ds, seed)
        for pairs, n_items, n_users in (
            (split.target_train, ds.n_items_target, ds.n_users_target),
            (split.source_train, ds.n_items_source, ds.n_users_source),
        ):
            # one extra user without positives
            pool = NegativePool(n_items, pairs, n_users + 1)
            want = negative_pool_loop(n_items, pairs.tolist(), n_users + 1)
            for got, ref, dtype in zip((pool.lengths, pool.starts, pool.flat), want,
                                       (np.int64, np.int64, np.int32)):
                assert got.dtype == dtype
                np.testing.assert_array_equal(got, ref)


class TestCandidates:
    def test_shrinks_to_single_leftover(self):
        pool = make_pool(5, [(0, i) for i in range(4)], 1)
        rng = make_rng(0, "t")
        cand = build_candidates(pool, 0, size=4, rng=rng)
        assert list(cand) == [4]

    def test_deterministic_under_seed(self):
        pool = make_pool(100, [(0, 0)], 1)
        a = build_candidates(pool, 0, 4, make_rng(3, "c"))
        b = build_candidates(pool, 0, 4, make_rng(3, "c"))
        assert np.array_equal(a, b)

    def test_zero_eligible_errors(self):
        pool = make_pool(3, [(0, 0), (0, 1), (0, 2)], 1)
        with pytest.raises(DataError):
            build_candidates(pool, 0, 2, make_rng(0, "c"))

    @pytest.mark.parametrize("n_elig", [3, 6, 40])
    def test_batch_matches_scalar_reference(self, n_elig):
        # size 4: take-all (L <= 4), Floyd (4 < L <= 12) and redraw (L > 12) rows
        size, n = 4, 20_000
        pool = make_pool(n_elig + 2, [(0, 0), (0, 1)], 1)
        items, counts = batch_candidates(pool, np.zeros(n, dtype=np.int64), size,
                                         make_rng(n_elig, "batch"))
        rng = make_rng(n_elig, "scalar")
        ref = np.array([np.pad(build_candidates(pool, 0, size, rng), (0, size - min(n_elig, size)),
                               constant_values=-1) for _ in range(n)])
        np.testing.assert_array_equal(counts, min(n_elig, size))
        if n_elig <= size:
            np.testing.assert_array_equal(items, ref)
        else:
            # each eligible item is a candidate with chance size / L on both paths
            got = np.bincount(items.ravel(), minlength=n_elig + 2) / n
            want = np.bincount(ref.ravel(), minlength=n_elig + 2) / n
            assert np.abs(got - want).max() < 0.02
            assert np.abs(got[2:] - size / n_elig).max() < 0.02

    def test_uniformity_frequency(self):
        pool = make_pool(12, [(0, 10), (0, 11)], 1)
        rng = make_rng(1, "freq")
        counts = np.zeros(12)
        n = 100_000
        users = np.zeros(n, dtype=np.int64)
        items, _ = batch_candidates(pool, users, 1, rng)
        for item in items[:, 0]:
            counts[item] += 1
        freqs = counts[:10] / n
        assert np.all(freqs >= 0.09) and np.all(freqs <= 0.11)

    def test_batch_no_duplicates_within_row(self):
        pool = make_pool(20, [(0, 0), (1, 1)], 2)
        users = np.array([0, 1] * 50)
        items, counts = batch_candidates(pool, users, 6, make_rng(2, "dup"))
        for row in items:
            assert len(set(row.tolist())) == 6
        assert np.all(counts == 6)

    def test_batch_excludes_train_positives(self):
        train = [(0, i) for i in range(15)]
        pool = make_pool(20, train, 1)
        users = np.zeros(200, dtype=np.int64)
        items, counts = batch_candidates(pool, users, 5, make_rng(4, "ex"))
        assert np.all(counts == 5)
        assert items.min() >= 15


def mixed_band_pool(size, rng):
    """Users whose eligible counts span the take-all, Floyd and redraw bands,
    band edges included; returns the pool and a users x items positive mask."""
    edge = size * (size - 1)
    n_items = edge + 8
    lengths = sorted({1, size, size + 1, 2 * size, edge, edge + 1, n_items,
                      *rng.integers(1, n_items + 1, 12).tolist()})
    positive = np.zeros((len(lengths), n_items), dtype=bool)
    for u, n_elig in enumerate(lengths):
        positive[u, rng.permutation(n_items)[: n_items - n_elig]] = True
    pool = NegativePool(n_items, np.argwhere(positive), len(lengths))
    np.testing.assert_array_equal(pool.lengths, lengths)
    return pool, positive


class TestCandidateBands:
    @pytest.mark.parametrize("n_items", [4, 5, 6])
    def test_floyd_subsets_uniform(self, n_items):
        # 3 of 4..6 eligible items lies in the Floyd band (size < L <= 6)
        pool = make_pool(n_items, [], 1)
        n = 30_000
        items, counts = batch_candidates(pool, np.zeros(n, dtype=np.int64), 3,
                                         make_rng(n_items, "floyd-chi2"))
        assert np.all(counts == 3)
        subsets = {s: k for k, s in enumerate(combinations(range(n_items), 3))}
        codes = np.array([subsets[tuple(sorted(row))] for row in items.tolist()])
        observed = np.bincount(codes, minlength=len(subsets))
        assert chisquare(observed).pvalue > 0.001

    @pytest.mark.parametrize("size", [2, 8, 32, 64])
    def test_mixed_bands_distinct_and_eligible(self, size):
        rng = make_rng(size, "bands")
        pool, positive = mixed_band_pool(size, rng)
        users = rng.integers(0, len(positive), 2000)
        items, counts = batch_candidates(pool, users, size, rng)
        np.testing.assert_array_equal(counts, np.minimum(pool.lengths[users], size))
        cols = np.arange(size)
        drawn = cols < counts[:, None]
        assert np.all(items[~drawn] == -1)
        assert np.all(items[drawn] >= 0)
        assert not np.any(positive[users[:, None], np.maximum(items, 0)] & drawn)
        s = np.sort(np.where(drawn, items, -1 - cols), axis=1)
        assert not np.any(s[:, 1:] == s[:, :-1])

    @pytest.mark.parametrize("size, n_items, per_user", [(1, 5, 3), (2, 9, 5), (8, 120, 40),
                                                         (8, 1000, 16)])
    def test_redraw_band_matches_previous_draw(self, size, n_items, per_user):
        rng = make_rng(size, "redraw")
        pairs = [(u, int(i)) for u in range(50)
                 for i in rng.choice(n_items, per_user, replace=False)]
        pool = make_pool(n_items, pairs, 50)
        assert np.all(pool.lengths > size * (size - 1))
        users = rng.integers(0, 50, 500)
        got = batch_candidates(pool, users, size, make_rng(0, "same"))
        want = batch_candidates_before_floyd(pool, users, size, make_rng(0, "same"))
        for a, b in zip(got, want):
            np.testing.assert_array_equal(a, b)


class TestDistribution:
    def fixed_backbone(self, micro_ds, scores):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        for idx, s in enumerate(scores):
            bb.item_target[idx] = [s, 0.0]
        return bb

    def test_softmax_tau1(self, micro_ds):
        bb = self.fixed_backbone(micro_ds, [2.0, 1.0, 0.0])
        p = sampling_distribution(bb, 0, [0, 1, 2], tau=1.0)
        np.testing.assert_allclose(p, [0.66524096, 0.24472847, 0.09003057], atol=1e-8)

    def test_softmax_tau_half(self, micro_ds):
        bb = self.fixed_backbone(micro_ds, [2.0, 1.0, 0.0])
        p = sampling_distribution(bb, 0, [0, 1, 2], tau=0.5)
        np.testing.assert_allclose(p, [0.86681333, 0.11731043, 0.01587624], atol=1e-8)

    def test_equal_scores_uniform(self, micro_ds):
        bb = self.fixed_backbone(micro_ds, [0.5, 0.5, 0.5, 0.5])
        p = sampling_distribution(bb, 0, [0, 1, 2, 3], tau=2.0)
        np.testing.assert_allclose(p, 0.25, atol=1e-12)

    def test_sums_to_one_and_positive(self, micro_ds):
        rng = make_rng(5, "scores")
        bb = init(micro_ds, 8, "shared", seed=5)
        for tau in (0.25, 1.0, 4.0):
            p = sampling_distribution(bb, 3, list(range(8)), tau)
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.all(p > 0)

    def test_sharpening_monotone_in_tau(self, micro_ds):
        bb = self.fixed_backbone(micro_ds, [2.0, 1.0, 0.0])
        taus = [0.25, 0.5, 1.0, 2.0, 4.0]
        masses = [sampling_distribution(bb, 0, [0, 1, 2], t)[0] for t in taus]
        assert all(a >= b - 1e-12 for a, b in zip(masses, masses[1:]))

    def test_overflow_safe(self, micro_ds):
        bb = self.fixed_backbone(micro_ds, [800.0, 0.0])
        p = sampling_distribution(bb, 0, [0, 1], tau=1.0)
        assert np.isfinite(p).all()
        assert p[0] == pytest.approx(1.0, abs=1e-12)


class TestSampleNegative:
    def test_single_candidate_certain(self, micro_ds):
        pool = make_pool(8, [(0, i) for i in range(7)], micro_ds.n_users_target)
        bb = init(micro_ds, 4, "shared", seed=0)
        tr = GroupLossTracker()
        tr.accumulate_many([G0], [1.0])
        tr.accumulate_many([G1], [1.5])
        tr.end_epoch()
        cfg = TrainConfig(epsilon=0.5, candidate_size=4)
        item = sample_negative(bb, tr, cfg, pool, 0, G0, make_rng(0, "s"))
        assert item == 7

    def test_epoch0_uniform_fallback(self, micro_ds):
        pool = make_pool(8, [], micro_ds.n_users_target)
        bb = init(micro_ds, 4, "shared", seed=0)
        tr = GroupLossTracker()
        cfg = TrainConfig(epsilon=1.0, candidate_size=8)
        rng = make_rng(9, "u")
        counts = np.zeros(8)
        for _ in range(4000):
            counts[sample_negative(bb, tr, cfg, pool, 0, G0, rng)] += 1
        freqs = counts / 4000
        assert np.all(np.abs(freqs - 0.125) < 0.03)

    def test_draw_frequencies_match_distribution(self, micro_ds):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        for idx in range(8):
            bb.item_target[idx] = [idx * 0.4, 0.0]
        pool = make_pool(8, [], micro_ds.n_users_target)
        users = np.zeros(100_000, dtype=np.int64)
        taus = np.ones(len(users))
        rng = make_rng(2, "mc")
        draws = batch_sample_negatives(bb, pool, users, taus, size=8, rng=rng)
        counts = np.bincount(draws, minlength=8) / len(users)
        expected = sampling_distribution(bb, 0, list(range(8)), tau=1.0)
        assert np.abs(counts - expected).sum() < 0.02

    def test_fair_draws_skip_padding_of_a_short_candidate_row(self, micro_ds):
        # 3 eligible items and 8 candidates: the row's five -1 pads score -inf
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        for idx in range(8):
            bb.item_target[idx] = [idx * 0.4, 0.0]
        pool = make_pool(8, [(0, i) for i in (0, 2, 3, 5, 6)], micro_ds.n_users_target)
        eligible = [1, 4, 7]
        users = np.zeros(100_000, dtype=np.int64)
        taus = np.full(len(users), 0.7)
        draws = batch_sample_negatives(bb, pool, users, taus, size=8, rng=make_rng(6, "pad"))
        assert np.unique(draws).tolist() == eligible
        counts = np.bincount(draws, minlength=8)[eligible] / len(users)
        expected = sampling_distribution(bb, 0, eligible, tau=0.7)
        assert np.abs(counts - expected).sum() < 0.02

    @pytest.mark.parametrize("fair", [False, True])
    def test_batch_draws_match_scalar_reference(self, micro_ds, fair):
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        for idx in range(8):
            bb.item_target[idx] = [idx * 0.4, 0.0]
        pool = make_pool(8, [(0, 1), (0, 5)], micro_ds.n_users_target)
        cfg = TrainConfig(epsilon=1.0, candidate_size=4)
        tr = GroupLossTracker()
        if fair:
            tr.accumulate_many([G0, G1], [1.5, 1.0])
            tr.end_epoch()
        n = 20_000
        rng = make_rng(4, "scalar")
        ref = [sample_negative(bb, tr, cfg, pool, 0, G0, rng) for _ in range(n)]
        taus = np.full(n, temperature(tr.alpha(G0), cfg.epsilon)) if fair else None
        draws = batch_sample_negatives(bb, pool, np.zeros(n, dtype=np.int64), taus, 4,
                                       make_rng(4, "batch"))
        got = np.bincount(draws, minlength=8) / n
        want = np.bincount(ref, minlength=8) / n
        assert got[1] == got[5] == 0.0
        assert np.abs(got - want).sum() < 0.05

    def test_disadvantaged_gets_harder_negatives(self, micro_ds):
        # tau < 1 puts at least as much mass on the top-scoring candidate
        bb = init(micro_ds, 2, "shared", seed=0)
        bb.user_pool[0] = [1.0, 0.0]
        for idx in range(4):
            bb.item_target[idx] = [idx * 1.0, 0.0]
        p_base = sampling_distribution(bb, 0, [0, 1, 2, 3], tau=1.0)
        p_hard = sampling_distribution(bb, 0, [0, 1, 2, 3], tau=temperature(0.3, 1.0))
        assert p_hard[3] >= p_base[3]


def test_fair_pick_never_returns_a_pad():
    # three real candidates whose softmax sums to 0.9999999999999998: at the
    # largest uniform below one, the inverse CDF runs past every column
    bb = SimpleNamespace(user_pool=np.array([[1.0]]),
                         item_target=np.array([[0.0], [0.6], [0.1]]))
    items = np.array([[0, 1, 2, -1, -1, -1, -1, -1]])
    u = np.array([np.nextafter(1.0, 0.0)])
    assert np.cumsum(softmax(np.array([0.0, 0.6, 0.1])))[-1] < u[0]
    for taus in (np.array([1.0]), None):
        got = pick_negatives(bb, np.array([0]), taus, items, np.array([3]), u)
        assert got.tolist() == [2]


def messages(n, fail_at=None):
    for i in range(n):
        if i == fail_at:
            raise DataError(f"message {i} refused")
        yield {"i": i, "draw": make_rng(i, "msg").random(3)}


class TestDrawAhead:
    @pytest.mark.parametrize("fork", [True, False])
    def test_messages_in_order(self, monkeypatch, fork):
        if not fork:
            monkeypatch.setattr("crossfair.sampler._fork_context", lambda: None)
        with DrawAhead(messages(5)) as ahead:
            got = [next(ahead) for _ in range(5)]
            assert len(multiprocessing.active_children()) <= int(fork)
        for i, message in enumerate(got):
            assert message["i"] == i
            assert np.array_equal(message["draw"], make_rng(i, "msg").random(3))
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("fork", [True, False])
    def test_producer_error_comes_out_where_its_message_was_due(self, monkeypatch, fork):
        if not fork:
            monkeypatch.setattr("crossfair.sampler._fork_context", lambda: None)
        with DrawAhead(messages(5, fail_at=2)) as ahead:
            assert [next(ahead)["i"] for _ in range(2)] == [0, 1]
            with pytest.raises(DataError, match="^message 2 refused$"):
                next(ahead)
        assert multiprocessing.active_children() == []

    def test_no_child_before_the_first_message(self):
        with DrawAhead(messages(1)):
            assert multiprocessing.active_children() == []

    def test_a_killed_child_is_named(self):
        def endless():
            while True:
                yield None

        with DrawAhead(endless()) as ahead:
            next(ahead)
            ahead._proc.kill()
            with pytest.raises(CrossfairError, match="^the negative-sampling process was "
                                                     "killed by signal 9 before it sent"):
                while True:
                    next(ahead)
        assert multiprocessing.active_children() == []

    def test_in_process_in_a_threaded_process(self):
        assert _fork_context() is not None
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            assert _fork_context() is None
            with DrawAhead(messages(2)) as ahead:
                assert [next(ahead)["i"] for _ in range(2)] == [0, 1]
                assert multiprocessing.active_children() == []
        finally:
            release.set()
            other.join()

    def test_in_process_where_no_child_can_be_forked(self, monkeypatch):
        assert _fork_context() is not None
        ctx = multiprocessing.get_context("fork")
        recv, send = ctx.Pipe(duplex=False)
        daemon = ctx.Process(target=lambda: send.send(_fork_context()), daemon=True)
        daemon.start()
        assert recv.poll(30) and recv.recv() is None
        daemon.join(30)
        assert daemon.exitcode == 0
        monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: ["spawn"])
        assert _fork_context() is None
