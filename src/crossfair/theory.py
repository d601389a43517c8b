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

from dataclasses import dataclass

import numpy as np

from .data import G0, G1, GROUPS, _has_repeat, json_text
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
    # scipy is imported where it is used, so only ``theory`` pays for it
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

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
    if subsample_n < 1 or repetitions < 1:
        raise DataError("W1 subsample size and repetitions must be >= 1")
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
        return json_text(vars(self), indent=2)


def theorem1_bound(cloud: EmbeddingCloud, l_o: float = 1.0, l_f: float = 1.0,
                   subsample_n: int = DEFAULT_SUBSAMPLE,
                   repetitions: int = DEFAULT_REPETITIONS, seed: int = 0,
                   measured_ugf: float | None = None,
                   baseline_ugf: float | None = None) -> BoundReport:
    """Assemble the upper bound L_o*L_f*(source group gap + four shift terms
    + 2*domain shift) from empirical transport distances, alongside the
    directly-computed target group gap for the chain check."""
    if not (0 < l_o < np.inf and 0 < l_f < np.inf):
        raise DataError("Lipschitz constants must be positive and finite")
    for name, value in (("measured_ugf", measured_ugf), ("baseline_ugf", baseline_ugf)):
        if value is not None and not 0 <= value < np.inf:
            raise DataError(f"{name} must be finite and >= 0, got {value!r}")
    cells = {}
    for dom in ("s", "t"):
        for g in GROUPS:
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

    return BoundReport(
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
        preserved=None if baseline_ugf is None else bool(rhs <= baseline_ugf),
        margin=None if baseline_ugf is None else float(baseline_ugf - rhs),
        subsample_n=subsample_n,
        repetitions=repetitions,
    )


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


def rademacher_estimate(sample_values, n_sign_draws: int = 200, seed: int = 0):
    """Empirical Rademacher complexity of a finite function class given its
    evaluations (one row per function, one column per sample point).

    Returns (estimate, difference_class_estimate); the latter applies the
    factor-2 closure bound for classes of pairwise differences. The
    expectation over sign vectors is estimated from ``n_sign_draws`` draws.
    """
    values = np.atleast_2d(np.asarray(sample_values, dtype=np.float64))
    n_funcs, n = values.shape
    if n_funcs < 1 or n < 1:
        raise DataError("need at least one function and one sample")
    if n_sign_draws < 1:
        raise DataError("n_sign_draws must be >= 1")
    rng = make_rng(seed, "rademacher-signs")
    signs = rng.choice([-1.0, 1.0], size=(n_sign_draws, n))
    estimate = float((np.max(signs @ values.T, axis=1) / n).mean())
    return estimate, 2.0 * estimate


def deviation_bound(rademacher: float, b: float, n: int, delta: float) -> float:
    """Uniform-convergence deviation: 2R + B*sqrt(log(2/delta) / (2n))."""
    if b <= 0:
        raise DataError("B must be positive")
    if n < 1:
        raise DataError("n must be >= 1")
    if not 0.0 < delta < 1.0:
        raise DataError("delta must lie in (0, 1)")
    return 2.0 * rademacher + b * np.sqrt(np.log(2.0 / delta) / (2.0 * n))


def lipschitz_estimate(matrix) -> float:
    """Euclidean Lipschitz constant of the linear map z -> matrix @ z: the
    largest singular value of ``matrix``. An empty matrix gives 0; one with
    a non-finite entry gives NaN, which ``theorem1_bound`` refuses."""
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        return float("nan")  # where the SVD behind the norm would raise LinAlgError
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def cloud_from_snapshot(snapshot: dict, target_ids, target_groups,
                        overlap_targets, overlap_sources) -> EmbeddingCloud:
    """Build the labeled two-domain cloud used by the bound report.

    Target points are the listed target users' rows, with their groups;
    source points are the source-view rows of the overlapping (target,
    source) pairs, labeled with the target user's group. Both lists come in
    ascending target id (``cli._read_labels`` orders them). Every id must
    index the snapshot's user tables, no target or source id may repeat, and
    every overlap target must be a listed target user.
    """
    emb_t, emb_s = snapshot["user_emb_target"], snapshot["user_emb_source"]
    t_ids = np.asarray(target_ids, dtype=np.int64)
    o_t = np.asarray(overlap_targets, dtype=np.int64)
    o_s = np.asarray(overlap_sources, dtype=np.int64)
    for name, ids, n_rows in (("target", t_ids, len(emb_t)),
                              ("overlap target", o_t, len(emb_t)),
                              ("overlap source", o_s, len(emb_s))):
        bad = (ids < 0) | (ids >= n_rows)
        if np.any(bad):
            raise DataError(f"{name} user id {ids[bad][0]} is not a row of the "
                            f"snapshot's {n_rows}-row user table")
    for name, step in (("target user", np.diff(t_ids)), ("overlap target", np.diff(o_t))):
        if np.any(step == 0):
            raise DataError("a target user id is listed twice")
        if np.any(step < 0):
            raise DataError(f"{name} ids must be listed in ascending order")
    groups = np.asarray(target_groups, dtype=np.int64)
    if _has_repeat(o_s):
        ids, counts = np.unique(o_s, return_counts=True)
        raise DataError(f"overlap source user id {ids[counts > 1][0]} is listed twice")
    listed = np.isin(o_t, t_ids)
    if not np.all(listed):
        raise DataError(f"overlap target user {o_t[~listed][0]} has no group attribute")
    return EmbeddingCloud(
        points=np.concatenate([emb_t[t_ids], emb_s[o_s]], axis=0),
        domain=np.repeat(["t", "s"], [len(t_ids), len(o_t)]),
        group=np.concatenate([groups, groups[np.searchsorted(t_ids, o_t)]]),
    )
