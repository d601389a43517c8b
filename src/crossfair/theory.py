"""Numerical verification of the transport-based fairness bounds.

Wasserstein-1 between embedding clouds is computed exactly on equal-size
subsamples via minimum-cost perfect matching under the Euclidean ground
metric. The target-domain group gap is bounded by the Lipschitz-scaled sum
of the source group gap, four group-vs-domain shift terms, and twice the
domain shift; a sufficient-condition check compares that bound against a
supplied baseline gap. Uniform-convergence constants come from an empirical
Rademacher complexity estimate over a finite probe function class.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment
from scipy.spatial.distance import cdist

from .data import G0, G1
from .errors import DataError
from .seeding import derive_seed, make_rng

DEFAULT_SUBSAMPLE = 256
DEFAULT_REPETITIONS = 8


@dataclass
class EmbeddingCloud:
    """Labeled user-representation points: domain 's'/'t' and group 0/1."""

    points: np.ndarray
    domain: np.ndarray
    group: np.ndarray

    def __post_init__(self):
        self.points = np.asarray(self.points, dtype=np.float64)
        self.domain = np.asarray(self.domain)
        self.group = np.asarray(self.group, dtype=np.int64)
        if len(self.points) != len(self.domain) or len(self.points) != len(self.group):
            raise DataError("cloud labels must parallel the point set")
        if not np.all(np.isfinite(self.points)):
            raise DataError("cloud contains non-finite coordinates")

    def select(self, domain=None, group=None) -> np.ndarray:
        mask = np.ones(len(self.points), dtype=bool)
        if domain is not None:
            mask &= self.domain == domain
        if group is not None:
            mask &= self.group == group
        return self.points[mask]


def _matching_cost(a: np.ndarray, b: np.ndarray) -> float:
    d = cdist(a, b)
    rows, cols = linear_sum_assignment(d)
    return float(d[rows, cols].sum())


def wasserstein1(cloud_a, cloud_b, subsample_n: int = DEFAULT_SUBSAMPLE,
                 repetitions: int = DEFAULT_REPETITIONS, seed: int = 0) -> float:
    """Mean over repetitions of (matching cost / n) on equal-size subsamples
    drawn without replacement; exact when both clouds fit in the budget."""
    a = np.atleast_2d(np.asarray(cloud_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=np.float64))
    if len(a) == 0 or len(b) == 0:
        raise DataError("empty cloud")
    n = min(len(a), len(b), subsample_n)
    if n == len(a) == len(b):
        return _matching_cost(a, b) / n
    rng = make_rng(seed, "wasserstein-subsample")
    total = 0.0
    for _ in range(repetitions):
        sa = a if len(a) == n else a[rng.choice(len(a), size=n, replace=False)]
        sb = b if len(b) == n else b[rng.choice(len(b), size=n, replace=False)]
        total += _matching_cost(sa, sb) / n
    return total / repetitions


def wasserstein1_exhaustive(cloud_a, cloud_b) -> float:
    """Brute-force matching over all permutations; oracle for tiny sets."""
    a = np.atleast_2d(np.asarray(cloud_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(cloud_b, dtype=np.float64))
    if len(a) != len(b):
        raise DataError("exhaustive matching needs equal sizes")
    if len(a) > 8:
        raise DataError("exhaustive matching is factorial; use <= 8 points")
    d = cdist(a, b)
    best = np.inf
    for perm in itertools.permutations(range(len(b))):
        cost = sum(d[i, j] for i, j in enumerate(perm))
        best = min(best, cost)
    return best / len(a)


@dataclass
class BoundReport:
    w1_source_gap: float
    delta_t_g0: float
    delta_t_g1: float
    delta_s_g0: float
    delta_s_g1: float
    domain_shift: float
    l_o: float
    l_f: float
    rhs: float
    w1_target_gap: float
    probe_gap_target: float
    measured_ugf: float | None
    baseline_ugf: float | None
    preserved: bool | None
    margin: float | None
    subsample_n: int
    repetitions: int

    def to_json(self) -> str:
        out = {k: v for k, v in self.__dict__.items()}
        return json.dumps(out, sort_keys=True, indent=2) + "\n"


def theorem1_bound(cloud: EmbeddingCloud, l_o: float = 1.0, l_f: float = 1.0,
                   subsample_n: int = DEFAULT_SUBSAMPLE,
                   repetitions: int = DEFAULT_REPETITIONS, seed: int = 0,
                   measured_ugf: float | None = None,
                   baseline_ugf: float | None = None) -> BoundReport:
    """Assemble the upper bound L_o*L_f*(source group gap + four shift terms
    + 2*domain shift) from empirical transport distances, alongside the
    directly-computed target group gap for the chain check."""
    if l_o <= 0 or l_f <= 0:
        raise DataError("Lipschitz constants must be positive")
    cells = {}
    for dom in ("s", "t"):
        for g in (G0, G1):
            cells[(dom, g)] = cloud.select(domain=dom, group=g)
            if len(cells[(dom, g)]) == 0:
                raise DataError(f"no users in cell (domain={dom}, group={g})")
    full_s = cloud.select(domain="s")
    full_t = cloud.select(domain="t")

    def w1(a, b, tag):
        return wasserstein1(a, b, subsample_n, repetitions,
                            seed=derive_seed(seed, f"bound-{tag}"))

    w1_source_gap = w1(cells[("s", G0)], cells[("s", G1)], "sgap")
    delta_t0 = w1(cells[("t", G0)], full_t, "dt0")
    delta_t1 = w1(cells[("t", G1)], full_t, "dt1")
    delta_s0 = w1(cells[("s", G0)], full_s, "ds0")
    delta_s1 = w1(cells[("s", G1)], full_s, "ds1")
    shift = w1(full_t, full_s, "shift")
    rhs = l_o * l_f * (w1_source_gap + delta_t0 + delta_t1 + delta_s0 + delta_s1 + 2 * shift)
    w1_target_gap = w1(cells[("t", G0)], cells[("t", G1)], "tgap")
    probe = probe_group_gap(cells[("t", G0)], cells[("t", G1)], seed=seed)

    report = BoundReport(
        w1_source_gap=w1_source_gap,
        delta_t_g0=delta_t0,
        delta_t_g1=delta_t1,
        delta_s_g0=delta_s0,
        delta_s_g1=delta_s1,
        domain_shift=shift,
        l_o=l_o,
        l_f=l_f,
        rhs=rhs,
        w1_target_gap=w1_target_gap,
        probe_gap_target=probe,
        measured_ugf=measured_ugf,
        baseline_ugf=baseline_ugf,
        preserved=None,
        margin=None,
        subsample_n=subsample_n,
        repetitions=repetitions,
    )
    if baseline_ugf is not None:
        report.preserved, report.margin = preservation_check(report, baseline_ugf)
    return report


def preservation_check(bound: BoundReport, gamma_ugf_baseline: float):
    """True when the bound's right-hand side does not exceed the baseline
    group gap; returns (verdict, margin)."""
    margin = float(gamma_ugf_baseline - bound.rhs)
    return bool(bound.rhs <= gamma_ugf_baseline), margin


def probe_group_gap(points_a, points_b, n_projections: int = 64, seed: int = 0) -> float:
    """Surrogate for the sup over 1-Lipschitz test functions: the largest
    absolute mean gap over coordinate projections and random unit-direction
    projections. Always a lower bound on W1 between the clouds."""
    a = np.atleast_2d(np.asarray(points_a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(points_b, dtype=np.float64))
    d = a.shape[1]
    rng = make_rng(seed, "probe-directions")
    dirs = rng.standard_normal((n_projections, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    probes = np.vstack([np.eye(d), dirs])
    gaps = np.abs(probes @ a.mean(axis=0) - probes @ b.mean(axis=0))
    return float(gaps.max())


def rademacher_estimate(sample_values, n_sign_draws: int = 200, seed: int = 0,
                        exhaustive: bool = False):
    """Empirical Rademacher complexity of a finite function class given its
    evaluations (one row per function, one column per sample point).

    Returns (estimate, difference_class_estimate); the latter applies the
    factor-2 closure bound for classes of pairwise differences. Exhaustive
    mode enumerates all sign vectors (n <= 20 enforced).
    """
    values = np.atleast_2d(np.asarray(sample_values, dtype=np.float64))
    n_funcs, n = values.shape
    if n_funcs < 1 or n < 1:
        raise DataError("need at least one function and one sample")
    if exhaustive:
        if n > 20:
            raise DataError("exhaustive sign enumeration limited to n <= 20")
        total = 0.0
        for bits in range(2 ** n):
            signs = np.array([1.0 if bits & (1 << i) else -1.0 for i in range(n)])
            total += np.max(values @ signs) / n
        estimate = total / (2 ** n)
    else:
        if n_sign_draws < 1:
            raise DataError("n_sign_draws must be >= 1")
        rng = make_rng(seed, "rademacher-signs")
        signs = rng.choice([-1.0, 1.0], size=(n_sign_draws, n))
        sups = np.max(signs @ values.T, axis=1) / n
        estimate = float(sups.mean())
    return float(estimate), float(2.0 * estimate)


def deviation_bound(rademacher: float, b: float, n: int, delta: float) -> float:
    """Uniform-convergence deviation: 2R + B*sqrt(log(2/delta) / (2n))."""
    if b <= 0:
        raise DataError("B must be positive")
    if n < 1:
        raise DataError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise DataError("delta must lie in (0, 1)")
    return 2.0 * rademacher + b * np.sqrt(np.log(2.0 / delta) / (2.0 * n))


def lipschitz_estimate(fn, points, n_pairs: int = 10000, seed: int = 0) -> float:
    """Empirical lower bound on the Lipschitz constant of a vector map:
    max over sampled point pairs of |f(a)-f(b)| / |a-b|."""
    pts = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if len(pts) < 2:
        raise DataError("need at least two points")
    rng = make_rng(seed, "lipschitz-pairs")
    ia = rng.integers(0, len(pts), size=n_pairs)
    ib = rng.integers(0, len(pts), size=n_pairs)
    keep = ia != ib
    ia, ib = ia[keep], ib[keep]
    a, b = pts[ia], pts[ib]
    denom = np.linalg.norm(a - b, axis=1)
    keep = denom > 0
    if not np.any(keep):
        raise DataError("all sampled pairs are degenerate")
    fa = np.atleast_2d(np.asarray(fn(a[keep]), dtype=np.float64))
    fb = np.atleast_2d(np.asarray(fn(b[keep]), dtype=np.float64))
    num = np.linalg.norm(fa - fb, axis=1)
    return float(np.max(num / denom[keep]))


def cloud_from_snapshot(snapshot: dict, groups: dict, overlap: dict) -> EmbeddingCloud:
    """Build the labeled two-domain cloud used by the bound report.

    Target points are all labeled target users; source points are the
    source-view rows of overlapping users, labeled via their target identity.
    """
    emb_t = snapshot["user_emb_target"]
    emb_s = snapshot["user_emb_source"]
    t_ids = sorted(groups)
    points = [emb_t[t_ids]]
    domain = ["t"] * len(t_ids)
    group = [groups[t] for t in t_ids]
    o_ts = sorted(overlap.items())
    if o_ts:
        s_rows = np.array([s for _, s in o_ts], dtype=np.int64)
        points.append(emb_s[s_rows])
        domain += ["s"] * len(o_ts)
        group += [groups[t] for t, _ in o_ts]
    return EmbeddingCloud(
        points=np.concatenate(points, axis=0),
        domain=np.array(domain),
        group=np.array(group, dtype=np.int64),
    )
