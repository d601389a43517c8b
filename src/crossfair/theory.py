"""Numerical verification of the transport-based fairness bounds.

Wasserstein-1 between embedding clouds is computed exactly on equal-size
subsamples via minimum-cost perfect matching under the Euclidean ground
metric. The target-domain group gap is bounded by the Lipschitz-scaled sum
of the source group gap, four group-vs-domain shift terms, and twice the
domain shift; a sufficient-condition check compares that bound against a
supplied baseline gap.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import G0, G1, GROUPS, _has_repeat, json_text
from .errors import DataError
from .seeding import derive_seed, make_rng

DEFAULT_SUBSAMPLE = 256
DEFAULT_REPETITIONS = 8


def _matching_cost(a: np.ndarray, b: np.ndarray) -> float:
    # scipy is imported where it is used, so only ``theory`` pays for it
    from scipy.optimize import linear_sum_assignment
    from scipy.spatial.distance import cdist

    d = cdist(a, b)
    # Subtracting each row's and then each column's minimum changes every
    # perfect matching's cost by the same constant, so the optimal matchings
    # stay the same and the solver's augmenting-path search gets shorter; the
    # cost is summed from the unreduced distances
    r = d - d.min(axis=1)[:, None]
    rows, cols = linear_sum_assignment(r - r.min(axis=0))
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
    baseline_ugf: float | None
    preserved: bool | None
    margin: float | None
    subsample_n: int
    repetitions: int
    # the exact L_f of the map the caller bounds, when it has one (``theory``
    # records its probe map's; null when that constant is not finite)
    l_f_probe: float | None = None

    def to_json(self) -> str:
        return json_text(vars(self), indent=2)


def theorem1_bound(target, target_group, source, source_group, l_o: float = 1.0,
                   l_f: float = 1.0, subsample_n: int = DEFAULT_SUBSAMPLE,
                   repetitions: int = DEFAULT_REPETITIONS, seed: int = 0,
                   baseline_ugf: float | None = None) -> BoundReport:
    """Assemble the upper bound L_o*L_f*(source group gap + four shift terms
    + 2*domain shift) from empirical transport distances, alongside the
    directly-computed target group gap for the chain check. ``target`` and
    ``source`` hold each domain's points, one per row, and ``target_group``
    and ``source_group`` the points' groups."""
    full = {"t": np.asarray(target, dtype=np.float64), "s": np.asarray(source, dtype=np.float64)}
    group = {"t": np.asarray(target_group, dtype=np.int64),
             "s": np.asarray(source_group, dtype=np.int64)}
    if any(len(full[dom]) != len(group[dom]) for dom in full):
        raise DataError("cloud labels must parallel the point set")
    if not all(np.all(np.isfinite(points)) for points in full.values()):
        raise DataError("cloud contains non-finite coordinates")
    if not (0 < l_o < np.inf and 0 < l_f < np.inf):
        raise DataError("Lipschitz constants must be positive and finite")
    if baseline_ugf is not None and not 0 <= baseline_ugf < np.inf:
        raise DataError(f"baseline_ugf must be finite and >= 0, got {baseline_ugf!r}")
    cells = {}
    for dom in ("s", "t"):
        for g in GROUPS:
            cells[(dom, g)] = full[dom][group[dom] == g]
            if len(cells[(dom, g)]) == 0:
                raise DataError(f"no users in cell (domain={dom}, group={g})")
    full_s, full_t = full["s"], full["t"]

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


def lipschitz_estimate(matrix) -> float:
    """Euclidean Lipschitz constant of the linear map z -> matrix @ z: the
    largest singular value of ``matrix``. An empty matrix gives 0; one with
    a non-finite entry gives NaN, which ``theorem1_bound`` refuses."""
    m = np.asarray(matrix, dtype=np.float64)
    if not np.all(np.isfinite(m)):
        return float("nan")  # where the SVD behind the norm would raise LinAlgError
    return float(np.linalg.norm(m, 2)) if m.size else 0.0


def cloud_from_snapshot(snapshot: dict, target_ids, target_groups,
                        overlap_targets, overlap_sources) -> tuple:
    """The bound report's labelled points: (target points, their groups,
    source points, their groups), as ``theorem1_bound`` takes them.

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
    return emb_t[t_ids], groups, emb_s[o_s], groups[np.searchsorted(t_ids, o_t)]
