import itertools
import math
from typing import NamedTuple

import numpy as np
import pytest

import crossfair.theory
from crossfair.data import G0, G1
from crossfair.errors import DataError
from crossfair.seeding import make_rng
from crossfair.theory import (
    cloud_from_snapshot,
    lipschitz_estimate,
    probe_group_gap,
    theorem1_bound,
    wasserstein1,
)

from oracles import (deviation_bound, lipschitz_sampled, matching_cost_unreduced,
                     rademacher_estimate, rademacher_exhaustive, wasserstein1_exhaustive)


def _shifted(rng, n_a, n_b):
    return rng.normal(0, 1, (n_a, 4)), rng.normal(0.5, 1.3, (n_b, 4))


def _shared(rng, n_a, n_b):
    # the smaller cloud lies inside the larger, as a group cell lies in its
    # domain; clouds of one size share half their points
    common = rng.normal(0, 1, (min(n_a, n_b) if n_a != n_b else n_a // 2, 3))
    a = np.vstack([common, rng.normal(0, 1, (n_a - len(common), 3))])
    b = np.vstack([common, rng.normal(0.2, 1, (n_b - len(common), 3))])
    return rng.permutation(a), rng.permutation(b)


def _float32(rng, n_a, n_b):
    a, b = _shifted(rng, n_a, n_b)
    return a.astype(np.float32).astype(np.float64), b.astype(np.float32).astype(np.float64)


def _one_dim(rng, n_a, n_b):
    return rng.normal(0, 1, (n_a, 1)), rng.normal(0.3, 1, (n_b, 1))


def _grid(rng, n_a, n_b):
    return (rng.integers(0, 5, (n_a, 2)).astype(np.float64),
            rng.integers(1, 6, (n_b, 2)).astype(np.float64))


class TestWasserstein:
    def test_identical_sets_zero(self):
        pts = make_rng(0, "w").normal(0, 1, (12, 3))
        assert wasserstein1(pts, pts) == pytest.approx(0.0, abs=1e-12)

    def test_two_point_1d(self):
        a = np.array([[0.0], [2.0]])
        b = np.array([[1.0], [3.0]])
        assert wasserstein1(a, b) == pytest.approx(1.0, abs=1e-12)

    def test_singletons(self):
        p = np.array([[1.0, 2.0]])
        q = np.array([[4.0, 6.0]])
        assert wasserstein1(p, q) == pytest.approx(5.0, abs=1e-12)

    def test_empty_errors(self):
        with pytest.raises(DataError):
            wasserstein1(np.empty((0, 2)), np.ones((3, 2)))

    @pytest.mark.parametrize("n", [2, 3, 5, 7])
    def test_matches_permutation_enumeration(self, n):
        rng = make_rng(n, "enum")
        a = rng.normal(0, 1, (n, 3))
        b = rng.normal(0, 1, (n, 3))
        assert wasserstein1(a, b) == pytest.approx(
            wasserstein1_exhaustive(a, b), abs=1e-9
        )

    def test_metric_axioms_full_sample(self):
        rng = make_rng(3, "axioms")
        a = rng.normal(0, 1, (20, 4))
        b = rng.normal(0.5, 1, (20, 4))
        c = rng.normal(-0.5, 2, (20, 4))
        assert wasserstein1(a, a) == pytest.approx(0.0, abs=1e-9)
        assert wasserstein1(a, b) == pytest.approx(wasserstein1(b, a), abs=1e-9)
        assert wasserstein1(a, c) <= wasserstein1(a, b) + wasserstein1(b, c) + 1e-9

    def test_kantorovich_consistency(self):
        # every 1-Lipschitz probe's mean gap is below the transport distance
        rng = make_rng(4, "kanto")
        a = rng.normal(0, 1, (30, 3))
        b = rng.normal(1, 1.5, (30, 3))
        w = wasserstein1(a, b)
        assert probe_group_gap(a, b, n_projections=32, seed=1) <= w + 1e-9

    def test_subsampled_close_to_full(self):
        rng = make_rng(5, "sub")
        a = rng.normal(0, 1, (120, 3))
        b = rng.normal(0.3, 1, (120, 3))
        full = wasserstein1(a, b, subsample_n=120)
        sub = wasserstein1(a, b, subsample_n=60, repetitions=12, seed=2)
        scale = max(np.linalg.norm(a.std(axis=0)), 1.0)
        assert abs(full - sub) < 0.2 * scale

    @pytest.mark.parametrize("path, n_a, n_b, subsample", [
        ("exact", 256, 256, 256), ("exact", 40, 40, 256),
        ("subsampled", 300, 200, 128), ("subsampled", 180, 400, 256),
    ])
    @pytest.mark.parametrize("make, tied", [
        (_shifted, False), (_shared, False), (_float32, False),
        (_one_dim, True), (_grid, True),
    ], ids=["shifted", "shared-points", "float32", "one-dim", "integer-grid"])
    def test_reduced_costs_keep_unreduced_matching(self, monkeypatch, make, tied, path,
                                                   n_a, n_b, subsample):
        a, b = make(make_rng(n_a + n_b, "reduced"), n_a, n_b)
        got = wasserstein1(a, b, subsample_n=subsample, repetitions=3, seed=7)
        monkeypatch.setattr(crossfair.theory, "_matching_cost", matching_cost_unreduced)
        want = wasserstein1(a, b, subsample_n=subsample, repetitions=3, seed=7)
        # the same bits where the optimal matching is unique (continuous
        # clouds in d >= 2); the same cost to rounding where several tie
        assert got == (pytest.approx(want, rel=1e-12) if tied else want)


class Cloud(NamedTuple):
    """Labelled points in the order ``theorem1_bound`` takes them."""

    target: np.ndarray
    target_group: np.ndarray
    source: np.ndarray
    source_group: np.ndarray

    @property
    def points(self) -> np.ndarray:
        return np.concatenate([self.source, self.target])


def gaussian_cloud(seed, n_per_cell=40, d=4, group_shift=0.4, domain_shift=0.6):
    rng = make_rng(seed, "cloud")
    points = {}
    for dom, dshift in (("s", 0.0), ("t", domain_shift)):
        cells = []
        for gshift in (0.0, group_shift):  # G0's cell, then G1's
            pts = rng.normal(0, 1, (n_per_cell, d))
            pts[:, 0] += dshift
            pts[:, 1] += gshift
            cells.append(pts)
        points[dom] = np.concatenate(cells)
    groups = np.repeat([G0, G1], n_per_cell)
    return Cloud(points["t"], groups, points["s"], groups.copy())


def identical_cloud():
    """20 copies of one point in each domain, alternating between the groups."""
    pts = np.tile(np.array([[1.0, 2.0]]), (20, 1))
    return Cloud(pts, np.array([G0, G1] * 10), pts, np.array([G0, G1] * 10))


class TestTheoremOneBound:
    def test_degenerate_all_identical(self):
        cloud = identical_cloud()
        report = theorem1_bound(*cloud, l_o=1.0, l_f=1.0)
        assert report.rhs == pytest.approx(0.0, abs=1e-12)
        assert report.w1_target_gap == pytest.approx(0.0, abs=1e-12)

    def test_chain_inequality_random_clouds(self):
        for seed in range(20):
            cloud = gaussian_cloud(seed)
            report = theorem1_bound(*cloud, l_o=1.0, l_f=1.0, subsample_n=40, seed=seed)
            scale = float(np.abs(cloud.points).std())
            slack = 0.05 * scale
            decomposition = (
                report.w1_source_gap + report.delta_t_g0 + report.delta_t_g1
                + report.delta_s_g0 + report.delta_s_g1 + 2 * report.domain_shift
            )
            assert report.w1_target_gap <= decomposition + slack
            assert report.rhs == pytest.approx(decomposition, rel=1e-12)

    def test_probe_gap_below_scaled_target_w1(self):
        for seed in range(20):
            cloud = gaussian_cloud(seed)
            report = theorem1_bound(*cloud, l_o=1.0, l_f=1.0, subsample_n=40, seed=seed)
            scale = float(np.abs(cloud.points).std())
            assert report.probe_gap_target <= report.w1_target_gap + 0.05 * scale

    def test_lf_scales_rhs_linearly(self):
        cloud = gaussian_cloud(1)
        a = theorem1_bound(*cloud, l_o=1.0, l_f=1.0, seed=1)
        b = theorem1_bound(*cloud, l_o=1.0, l_f=2.0, seed=1)
        assert b.rhs == pytest.approx(2.0 * a.rhs, rel=1e-12)

    def test_empty_cell_errors(self):
        cloud = gaussian_cloud(0)
        cloud.source_group[:] = G0
        with pytest.raises(DataError, match="cell"):
            theorem1_bound(*cloud)

    def test_labels_and_coordinates_checked(self):
        cloud = gaussian_cloud(0)
        with pytest.raises(DataError, match="^cloud labels must parallel the point set$"):
            theorem1_bound(cloud.target, cloud.target_group, cloud.source,
                           cloud.source_group[1:])
        cloud.target[3, 1] = np.nan
        with pytest.raises(DataError, match="^cloud contains non-finite coordinates$"):
            theorem1_bound(*cloud)


class TestPreservation:
    def bound(self, cloud, baseline_ugf):
        return theorem1_bound(*cloud, subsample_n=40, seed=1, baseline_ugf=baseline_ugf)

    def test_zero_rhs_always_holds(self):
        report = self.bound(identical_cloud(), 0.5)
        assert report.rhs == 0.0
        assert report.preserved and report.margin == 0.5

    def test_boundary_holds(self):
        rhs = self.bound(gaussian_cloud(1), None).rhs
        report = self.bound(gaussian_cloud(1), rhs)
        assert report.preserved and report.margin == 0.0

    def test_violation_margin(self):
        rhs = self.bound(gaussian_cloud(1), None).rhs
        report = self.bound(gaussian_cloud(1), rhs - 0.1)
        assert report.preserved is False
        assert report.margin == pytest.approx(-0.1)

    def test_no_baseline_no_verdict(self):
        report = self.bound(gaussian_cloud(1), None)
        assert report.preserved is None and report.margin is None


class TestRademacher:
    def test_singleton_class_near_zero(self):
        values = make_rng(0, "h").uniform(-1, 1, (1, 400))
        est, _ = rademacher_estimate(values, n_sign_draws=400, seed=1)
        assert abs(est) < 3.0 / math.sqrt(400 * 400 / 400)  # 3/sqrt(n)

    def test_two_constants_exhaustive(self):
        c = 0.8
        values = np.array([[c, c], [-c, -c]])
        est, gain_est = rademacher_exhaustive(values)
        assert est == pytest.approx(0.5 * c, abs=1e-12)
        assert gain_est == pytest.approx(c, abs=1e-12)

    def test_positive_homogeneity(self):
        values = make_rng(2, "h").normal(0, 1, (5, 10))
        a, _ = rademacher_estimate(values, n_sign_draws=64, seed=3)
        b, _ = rademacher_estimate(3.5 * values, n_sign_draws=64, seed=3)
        assert b == pytest.approx(3.5 * a, rel=1e-12)

    @pytest.mark.parametrize("n", [2, 4, 8, 12])
    def test_exhaustive_matches_exact_expectation(self, n):
        rng = make_rng(n, "exact")
        values = rng.normal(0, 1, (3, n))
        est, _ = rademacher_exhaustive(values)
        # independent exact computation over all sign vectors
        total = 0.0
        for signs in itertools.product([-1.0, 1.0], repeat=n):
            total += max(float(np.dot(row, signs)) for row in values) / n
        assert est == pytest.approx(total / 2 ** n, abs=1e-12)

    def test_monte_carlo_converges_to_exhaustive(self):
        values = make_rng(9, "mc").normal(0, 1, (4, 10))
        exact, _ = rademacher_exhaustive(values)
        mc, mc_diff = rademacher_estimate(values, n_sign_draws=20000, seed=4)
        assert mc == pytest.approx(exact, abs=0.02)
        assert mc_diff == 2.0 * mc


class TestDeviationBound:
    def test_hand_value(self):
        assert deviation_bound(0.0, 1.0, 2, 2.0 / math.e) == pytest.approx(0.5, abs=1e-12)

    def test_sqrt_scaling(self):
        base = deviation_bound(0.0, 1.0, 10, 0.1)
        quad = deviation_bound(0.0, 1.0, 40, 0.1)
        assert quad == pytest.approx(base / 2.0, rel=1e-12)

    def test_domain_guard(self):
        with pytest.raises(DataError):
            deviation_bound(0.1, 1.0, 10, 1.0)
        with pytest.raises(DataError):
            deviation_bound(0.1, 1.0, 10, 0.0)
        assert deviation_bound(0.1, 1.0, 10, 0.999) > 0.2


class TestLipschitz:
    def test_linear_map_exact(self):
        assert lipschitz_estimate(2.0 * np.eye(3)) == pytest.approx(2.0, abs=1e-12)

    def test_constant_map_zero(self):
        assert lipschitz_estimate(np.zeros((3, 3))) == 0.0
        assert lipschitz_estimate(np.zeros((0, 3))) == 0.0

    def test_non_finite_map_is_nan(self):
        a = np.eye(3)
        a[0, 1] = np.nan
        assert math.isnan(lipschitz_estimate(a))

    def test_matrix_map_equals_spectral_norm(self):
        rng = make_rng(2, "lip")
        a = rng.normal(0, 1, (3, 3))
        # power iteration as the independent oracle for the spectral norm
        v = rng.normal(0, 1, 3)
        for _ in range(200):
            v = a.T @ (a @ v)
            v /= np.linalg.norm(v)
        sigma = float(np.linalg.norm(a @ v))
        assert lipschitz_estimate(a) == pytest.approx(sigma, rel=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    def test_exact_bounds_every_sampled_ratio(self, seed):
        rng = make_rng(seed, "lip")
        a = rng.normal(0, 1, (5, 4))
        pts = rng.normal(0, 1, (300, 4))
        sampled = lipschitz_sampled(lambda z: z @ a.T, pts, n_pairs=20_000, seed=seed)
        assert sampled <= lipschitz_estimate(a) * (1 + 1e-12)
        assert sampled >= 0.9 * lipschitz_estimate(a)


class TestCloudFromSnapshot:
    def test_labels_and_selection(self, micro_ds):
        from crossfair.backbone import init, load_snapshot, save_snapshot

        bb = init(micro_ds, 4, "dual", seed=0)
        target, _, source, _ = cloud_from_snapshot(
            {
                "user_emb_target": bb.user_emb_target(),
                "user_emb_source": bb.user_emb_source(),
            },
            np.arange(micro_ds.n_users_target), micro_ds.target_group,
            *micro_ds.overlap_arrays(),
        )
        assert len(target) + len(source) == micro_ds.n_users_target + 3
        assert len(target) == micro_ds.n_users_target
        np.testing.assert_allclose(
            source,
            bb.user_emb_source()[[0, 1, 3]],
        )

    @pytest.mark.parametrize("labels, message", [
        (([1, 0, 2], [0, 1, 1], [0, 2], [0, 1]),
         "target user ids must be listed in ascending order"),
        (([0, 1, 2], [0, 1, 1], [2, 0], [1, 0]),
         "overlap target ids must be listed in ascending order"),
        (([0, 1, 1], [0, 1, 1], [0], [0]), "a target user id is listed twice"),
        (([0, 1, 2], [0, 1, 1], [2, 2], [0, 1]), "a target user id is listed twice"),
    ], ids=["unordered-targets", "unordered-overlap", "repeated-target", "repeated-overlap"])
    def test_labels_must_ascend(self, labels, message):
        """The labels come ordered; an unordered list is refused, not sorted."""
        snapshot = {"user_emb_target": np.zeros((3, 2)), "user_emb_source": np.zeros((2, 2))}
        with pytest.raises(DataError) as info:
            cloud_from_snapshot(snapshot, *map(np.array, labels))
        assert str(info.value) == message
