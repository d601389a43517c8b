"""Training loop: BPR objective, sparse-friendly Adam, group-aware negative
sampling, per-batch gain redistribution penalty, and the once-per-epoch
estimator fit.

The main objective updates the backbone only; the estimator fit updates the
estimator only. Each holds the other's arrays read-only while it runs.
"""

from __future__ import annotations

import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from . import backbone as backbone_mod
from . import metrics as metrics_mod
from .backbone import Backbone, init as init_backbone
from .data import G0, G1, GROUPS, CrossDomainDataset, SplitDataset, json_text, split_per_user
from .errors import DataError, NumericalError
from .gain import (GainEstimator, estimate_gain, estimator_inputs, estimator_step,
                   redistribution_grads)
from .numerics import distinct_rows, read_only, require_finite, sigmoid, softplus
from .sampler import (
    DrawAhead,
    GroupLossTracker,
    NegativePool,
    batch_sample_negatives,
    draw_candidates,
    pick_negatives,
    temperature,
)
from .seeding import make_rng


@dataclass
class TrainConfig:
    learning_rate: float = 0.001
    batch_size: int = 2048
    l2_reg: float = 1e-4
    epochs: int = 30
    gamma: float = 0.5
    beta: float = 0.9
    use_fair_sampling: bool = True
    use_estimator_loss: bool = True
    include_source: bool = True
    seed: int = 0
    patience: int = 10
    estimator_hidden: tuple = (128, 64)
    estimator_dropout: float = 0.2
    estimator_lr: float = 0.001
    snapshot_every: int = 0
    epsilon: float = 1.0
    candidate_size: int = 8
    negatives_per_positive: int = 1

    def validate(self):
        require_finite(self)
        if self.learning_rate <= 0 or self.estimator_lr <= 0:
            raise DataError("learning rates must be positive")
        if self.batch_size < 1:
            raise DataError("batch_size must be >= 1")
        if self.l2_reg < 0 or self.gamma < 0:
            raise DataError("l2_reg and gamma must be >= 0")
        for key in ("beta", "estimator_dropout"):
            if not 0.0 <= getattr(self, key) < 1.0:
                raise DataError(f"{key} must lie in [0, 1)")
        for key in ("epochs", "snapshot_every"):
            if getattr(self, key) < 0:
                raise DataError(f"{key} must be >= 0")
        if self.patience < 1:
            raise DataError("patience must be >= 1")
        if min(self.estimator_hidden, default=1) < 1:
            raise DataError("estimator_hidden sizes must be >= 1")
        if self.epsilon < 0:
            raise DataError("epsilon must be >= 0")
        for key in ("candidate_size", "negatives_per_positive"):
            if getattr(self, key) < 1:
                raise DataError(f"{key} must be >= 1")
        return self


class Adam:
    """Adam with lazy row updates for embedding tables.

    Rows with zero gradient in a step are untouched: their moments do not
    decay. Duplicate rows in a sparse gradient are summed first, matching
    the dense computation: one ``np.bincount`` adds each gradient row into
    its touched row in input order, the same additions, bit for bit, as
    ``np.add.at`` on a zeroed buffer. Rows must be integers in
    ``[0, len(param))``; ``rows=None`` steps every row through that update.
    """

    def __init__(self, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = {}
        self.v = {}
        self.t = {}

    def register(self, name: str, shape):
        self.m[name] = np.zeros(shape)
        self.v[name] = np.zeros(shape)
        self.t[name] = 0

    def step(self, name: str, param: np.ndarray, grad: np.ndarray, rows=None):
        if name not in self.m:
            self.register(name, param.shape)
        rows = np.arange(len(param)) if rows is None else np.asarray(rows)
        if rows.ndim != 1 or grad.shape != (len(rows),) + param.shape[1:]:
            raise DataError(f"gradient shape {grad.shape} != {len(rows)} rows of {param.shape}")
        if len(rows) and (rows.dtype.kind not in "iu"
                          or rows.min() < 0 or rows.max() >= len(param)):
            raise DataError(f"sparse rows must be integers in [0, {len(param)})")
        rows, inv = distinct_rows(rows.astype(np.int64, copy=False), len(param))
        width = math.prod(param.shape[1:])
        bins = (inv[:, None] * width + np.arange(width)).ravel()
        grad = np.bincount(bins, weights=grad.ravel(), minlength=len(rows) * width)
        grad = grad.reshape((len(rows),) + param.shape[1:])
        self.t[name] += 1
        t = self.t[name]
        m, v = self.m[name], self.v[name]
        m_rows = self.beta1 * m[rows] + (1 - self.beta1) * grad
        v_rows = self.beta2 * v[rows] + (1 - self.beta2) * grad * grad
        m[rows] = m_rows
        v[rows] = v_rows
        m_hat = m_rows / (1 - self.beta1 ** t)
        v_hat = v_rows / (1 - self.beta2 ** t)
        param[rows] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def state_arrays(self) -> dict:
        out = {}
        for name in sorted(self.m):
            out[f"m:{name}"] = self.m[name]
            out[f"v:{name}"] = self.v[name]
        return out


def bpr_terms(user_vecs, pos_vecs, neg_vecs, l2_reg: float):
    """Vectorized BPR loss and analytic gradients.

    loss = softplus(-(u.(i - j))) + l2 * (|u|^2 + |i|^2 + |j|^2), per row.
    Returns (loss, rank_loss, g_user, g_pos, g_neg).
    """
    diff = pos_vecs - neg_vecs
    gap = np.einsum("bd,bd->b", user_vecs, diff)
    rank_loss = softplus(-gap)
    s = -sigmoid(-gap)
    g_user = s[:, None] * diff + 2.0 * l2_reg * user_vecs
    g_pos = s[:, None] * user_vecs + 2.0 * l2_reg * pos_vecs
    g_neg = -s[:, None] * user_vecs + 2.0 * l2_reg * neg_vecs
    loss = rank_loss + l2_reg * (
        np.einsum("bd,bd->b", user_vecs, user_vecs)
        + np.einsum("bd,bd->b", pos_vecs, pos_vecs)
        + np.einsum("bd,bd->b", neg_vecs, neg_vecs)
    )
    return loss, rank_loss, g_user, g_pos, g_neg


@dataclass
class EpochStats:
    epoch: int
    loss_total: float
    loss_rec: float
    loss_redist: float
    ema_g0: float
    ema_g1: float
    alpha_g0: float
    gain_g0: float
    gain_g1: float
    estimator_loss: float | None
    val_ndcg10: float
    n_samples: int = 0
    fair_draws: int = 0
    seconds: float = 0.0

    def log_record(self) -> dict:
        """The run-log fields: all but the sample and draw counts and the time."""
        record = asdict(self)
        for name in ("n_samples", "fair_draws", "seconds"):
            del record[name]
        return record


@dataclass
class TrainedModel:
    backbone: Backbone
    estimator: GainEstimator
    tracker: GroupLossTracker
    log: list
    best_epoch: int
    best_val_ndcg10: float
    split: SplitDataset
    optimizer: Adam = None
    estimator_optimizer: Adam = None
    final_backbone: Backbone = None
    # sha256 hex digest of each epoch snapshot written, by file name
    snapshot_sha256: dict = field(default_factory=dict)


def batch_objective(backbone: Backbone, estimator: GainEstimator, batch: dict, groups,
                    cfg: TrainConfig):
    """Objective value (sum of per-sample BPR losses plus gamma times the
    redistribution penalty) and its analytic gradients for a batch from
    ``_draw_batch``, whose negatives are all drawn.

    Returns (total, rec_sum, penalty, rank_losses_target, grads), where grads
    lists (table, rows, grad_rows) contributions, target domain first.
    """
    grads = []
    rec_sum = 0.0
    rank_target = np.empty(0)
    for domain in ("target", "source"):
        users, pos, neg = batch[domain]
        if len(users) == 0:
            continue  # an empty domain takes no Adam step
        # a target user's pool row is its id
        rows = users if domain == "target" else backbone.source_slot[users]
        item_name = f"item_{domain}"
        table = backbone.parameters()[item_name]
        loss, rank, g_u, g_i, g_j = bpr_terms(
            backbone.user_pool[rows], table[pos], table[neg], cfg.l2_reg
        )
        rec_sum += float(loss.sum())
        if domain == "target":
            rank_target = rank
        grads += [("user_pool", rows, g_u), (item_name, pos, g_i), (item_name, neg, g_j)]

    # The recommendation part sums per-sample losses, so the squared gain gap
    # is weighted by the batch sample count to keep gamma on the scale of the
    # per-sample objective.
    penalty = 0.0
    if cfg.gamma > 0:
        users, pos, _ = batch["target"]
        scale = float(len(users) + len(batch["source"][0]))
        raw, pgrads = redistribution_grads(backbone, estimator, users, pos, groups[users])
        penalty = scale * raw
        for table, rows, g in pgrads:
            grads.append((table, rows, cfg.gamma * scale * g))

    total = rec_sum + cfg.gamma * penalty
    return total, rec_sum, penalty, rank_target, grads


def _draw_batch(pools, is_target, users, pos, fair: bool, size: int, rng):
    """Split a shuffled slice by domain and draw its negatives, target rows
    first. Returns (batch, candidates): ``batch`` maps each domain to its
    (users, pos, neg); with ``fair``, the target rows' neg is None and
    ``candidates`` their drawn (items, counts, u), for ``_pick_target``.
    A domain without rows draws nothing from ``rng``."""
    batch, candidates = {}, None
    for domain, mask in (("target", is_target), ("source", ~is_target)):
        d_users, neg = users[mask], None
        if fair and domain == "target":
            candidates = draw_candidates(pools[domain], d_users, size, rng)
        else:
            neg = batch_sample_negatives(None, pools[domain], d_users, None, size, rng)
        batch[domain] = (d_users, pos[mask], neg)
    return batch, candidates


def _draws(split: SplitDataset, pools, cfg: TrainConfig, rng):
    """Every batch of ``cfg.epochs`` epochs as ``_draw_batch`` returns it,
    and None after each epoch's last. ``rng`` draws each epoch's shuffle,
    then each batch's negatives. None of it reads the model, so ``train``
    runs it ahead in a ``DrawAhead``.

    An epoch's rows are the target positives, then the source ones unless
    excluded, each repeated ``negatives_per_positive`` times so that every
    copy draws its own candidate set. Target negatives are drawn at group
    temperatures (``fair``) from the second epoch on, once the tracker holds
    smoothed losses.
    """
    tgt_pairs = split.target_train
    src_pairs = split.source_train if cfg.include_source else split.source_train[:0]
    n = len(tgt_pairs) + len(src_pairs)
    if n == 0:
        raise DataError("no training interactions")
    rows = (np.arange(n) < len(tgt_pairs), *np.concatenate([tgt_pairs, src_pairs]).T)
    rows = [np.repeat(a, cfg.negatives_per_positive) for a in rows]
    for epoch in range(cfg.epochs):
        order = rng.permutation(len(rows[0]))
        is_target, users, pos = (a[order] for a in rows)
        fair = cfg.use_fair_sampling and epoch >= 1
        for lo in range(0, len(order), cfg.batch_size):
            hi = lo + cfg.batch_size
            yield _draw_batch(pools, is_target[lo:hi], users[lo:hi], pos[lo:hi], fair,
                              cfg.candidate_size, rng)
        yield None


def _pick_target(backbone, batch, candidates, group_taus, groups):
    """``batch`` with its target negatives picked from their drawn
    ``candidates`` at the current tables and each row's group temperature
    in ``group_taus``."""
    users, pos, _ = batch["target"]
    neg = pick_negatives(backbone, users, group_taus[groups[users]], *candidates)
    return {**batch, "target": (users, pos, neg)}


def train_epoch(ds: CrossDomainDataset, split: SplitDataset, backbone: Backbone,
                estimator: GainEstimator, tracker: GroupLossTracker, cfg: TrainConfig,
                draws, adam: Adam, est_adam: Adam, epoch: int, est_rng) -> EpochStats:
    """One pass over the shuffled training pool, then the tracker epoch fold,
    the epoch-level gain report, and (if enabled) the estimator fit, whose
    dropout draws from ``est_rng``. ``draws`` yields the messages of
    ``_draws``; the epoch takes its batches up to the None after them, and
    picks the negatives of any fair target rows with ``_pick_target``.
    """
    started = time.perf_counter()
    groups_arr = ds.target_group
    if cfg.use_estimator_loss:
        t_ids = ds.overlap_arrays()[0]
        x_fit = estimator_inputs(backbone, t_ids)

    n = 0
    group_taus = None
    sum_rec = 0.0
    sum_penalty = 0.0
    fair_draws = 0
    with read_only(estimator.parameters().values()):
        while (drawn := next(draws)) is not None:
            batch, candidates = drawn
            if candidates is not None:
                if group_taus is None:
                    # the group losses are smoothed once per epoch, so its
                    # temperatures hold throughout
                    group_taus = np.array([temperature(tracker.alpha(g), cfg.epsilon)
                                           for g in GROUPS])
                batch = _pick_target(backbone, batch, candidates, group_taus, groups_arr)
                fair_draws += len(batch["target"][0])
            n += len(batch["target"][0]) + len(batch["source"][0])
            total, rec, penalty, rank_target, grads = batch_objective(
                backbone, estimator, batch, groups_arr, cfg
            )
            if not np.isfinite(total):
                raise NumericalError(f"non-finite batch loss at epoch {epoch}")
            sum_rec += rec
            sum_penalty += penalty

            tracker.accumulate_many(groups_arr[batch["target"][0]], rank_target)
            params = backbone.parameters()
            for table, rows, g in grads:
                adam.step(table, params[table], g, rows=rows)

    emas = tracker.end_epoch()
    alpha0 = tracker.alpha(G0)

    # Epoch-level gain report over every overlapping target training positive.
    all_users, all_items = split.target_train.T
    report = estimate_gain(backbone, estimator, all_users, all_items, groups_arr[all_users])

    est_loss = None
    if cfg.use_estimator_loss:
        with read_only(backbone.parameters().values()):
            est_loss = estimator_step(estimator, x_fit, backbone.user_pool[t_ids],
                                      est_adam, est_rng, batch_size=cfg.batch_size)

    val_ndcg = metrics_mod.quick_ndcg_at_10(backbone, split, ds)
    return EpochStats(
        epoch=epoch,
        loss_total=sum_rec + cfg.gamma * sum_penalty,
        loss_rec=sum_rec,
        loss_redist=sum_penalty,
        ema_g0=emas[G0],
        ema_g1=emas[G1],
        alpha_g0=alpha0,
        gain_g0=report.delta_i[G0],
        gain_g1=report.delta_i[G1],
        estimator_loss=est_loss,
        val_ndcg10=val_ndcg,
        n_samples=n,
        fair_draws=fair_draws,
        seconds=time.perf_counter() - started,
    )


def preflight(ds: CrossDomainDataset, cfg: TrainConfig,
              split: SplitDataset | None = None) -> SplitDataset:
    """The split ``train`` uses, after every refusal that needs no training:
    an invalid config, a group without target validation or test positives,
    and an estimator fit without overlapping users. A caller that holds
    ``split_per_user(ds, cfg.seed)`` already passes it as ``split``."""
    cfg.validate()
    if split is None:
        split = split_per_user(ds, cfg.seed)
    for phase, pairs in (("validation", split.target_val), ("test", split.target_test)):
        if len(pairs) == 0:
            raise DataError(f"the split has no target {phase} positives: a target user "
                            f"needs at least 10 interactions for a validation or test positive")
        present = np.bincount(ds.target_group[pairs[:, 0]], minlength=len(GROUPS))
        if not present.all():
            g = int(np.argmin(present))
            raise DataError(f"the split has no target {phase} positives in group {g} "
                            f"({ds.group_labels[g]}): a user of that group needs at least 10 "
                            f"interactions for a validation or test positive")
    if cfg.use_estimator_loss and len(ds.overlap_arrays()[0]) == 0:
        raise DataError("gain module requires overlapping users")
    return split


def train(ds: CrossDomainDataset, cfg: TrainConfig, d: int = 32, mode: str = "shared",
          snapshot_dir=None, split: SplitDataset | None = None) -> TrainedModel:
    """Full training run with early stopping on validation NDCG@10, after
    ``preflight(ds, cfg, split)``.

    With ``cfg.snapshot_every`` > 0 and a snapshot directory, embedding
    snapshots are written every that many epochs; ``snapshot_sha256`` of the
    returned model holds their digests.
    """
    split = preflight(ds, cfg, split)
    backbone = init_backbone(ds, d, mode, cfg.seed)
    estimator = GainEstimator(
        d, hidden=cfg.estimator_hidden, dropout=cfg.estimator_dropout, seed=cfg.seed
    )
    tracker = GroupLossTracker(beta=cfg.beta)
    pools = {
        "target": NegativePool(ds.n_items_target, split.target_train, ds.n_users_target),
        "source": NegativePool(ds.n_items_source, split.source_train, ds.n_users_source),
    }
    adam = Adam(cfg.learning_rate)
    est_adam = Adam(cfg.estimator_lr)
    rng = make_rng(cfg.seed, "train")
    est_rng = make_rng(cfg.seed, "estimator-dropout")

    log = []
    snapshots = {}
    best_epoch = -1
    best_val = -np.inf
    since_best = 0
    # the child, if one can be forked, starts at the first draw and is reaped on every exit
    with DrawAhead(_draws(split, pools, cfg, rng)) as draws:
        for epoch in range(cfg.epochs):
            stats = train_epoch(
                ds, split, backbone, estimator, tracker, cfg, draws, adam, est_adam,
                epoch, est_rng,
            )
            log.append(stats)
            if cfg.snapshot_every > 0 and snapshot_dir is not None \
                    and (epoch + 1) % cfg.snapshot_every == 0:
                name = f"snapshot_epoch_{epoch}.bin"
                snapshots[name] = backbone_mod.save_snapshot(backbone, Path(snapshot_dir) / name)
            if stats.val_ndcg10 > best_val:
                best_val = stats.val_ndcg10
                best_epoch = epoch
                best_backbone = backbone.copy()
                since_best = 0
            else:
                since_best += 1
                if since_best >= cfg.patience:
                    break
    if best_epoch < 0:
        best_backbone = backbone.copy()
        best_val = float("nan")
    return TrainedModel(
        backbone=best_backbone,
        estimator=estimator,
        tracker=tracker,
        log=log,
        best_epoch=best_epoch,
        best_val_ndcg10=float(best_val),
        split=split,
        optimizer=adam,
        estimator_optimizer=est_adam,
        final_backbone=backbone,
        snapshot_sha256=snapshots,
    )


def write_run_log(path, log):
    """Newline-delimited JSON, one record per epoch, stable key order."""
    Path(path).write_text("".join(json_text(stats.log_record()) for stats in log),
                          encoding="utf-8")


# Every fairness mechanism off: ``epsilon = 0`` makes each sampling
# temperature exp(0) = 1, and ``gamma = 0`` drops the redistribution penalty.
_PLAIN = {"epsilon": 0.0, "use_fair_sampling": False, "gamma": 0.0,
          "use_estimator_loss": False}
# Named training variants: the row label in the ``ablate`` table (None for a
# variant that table leaves out) and the TrainConfig fields it overrides.
VARIANTS = {
    "full": ("full", {}),
    "no_alpha": ("w/o alpha", {"epsilon": 0.0}),
    "no_fair_sampling": ("w/o fair sampling", {"use_fair_sampling": False}),
    "no_redistribution": ("w/o redistribution loss", {"gamma": 0.0}),
    "no_estimator_loss": ("w/o estimator loss", {"use_estimator_loss": False}),
    "plain": (None, _PLAIN),
    "target_only": (None, {**_PLAIN, "include_source": False}),
}


def ablation_config(base: TrainConfig, variant: str) -> TrainConfig:
    """``base`` with the overrides of the named variant in ``VARIANTS``."""
    if variant not in VARIANTS:
        raise DataError(f"unknown variant {variant!r}")
    return replace(base, **VARIANTS[variant][1])
