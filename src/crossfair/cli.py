"""Command-line surface: dataset synthesis, training, evaluation, ablation
and sweep harnesses, and the bound-report command.

Configuration is a flat ``key = value`` file with ``#`` comments; command
line flags override file values. Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import csv
import json
import struct
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import backbone as backbone_mod
from . import metrics as metrics_mod
from . import theory as theory_mod
from .data import (
    CrossDomainDataset,
    SynthConfig,
    generate_synthetic,
    load_attributes,
    load_dataset,
    split_per_user,
    write_attributes,
    write_interactions,
    write_tsv,
)
from .errors import CrossfairError, DataError, UsageError
from .trainer import (
    ABLATION_VARIANTS,
    TrainConfig,
    ablation_config,
    train,
    write_run_log,
)

SYNTH_KEYS = (
    "n_users_source", "n_users_target", "overlap_fraction", "n_items_source",
    "n_items_target", "latent_dim", "group_split", "source_disparity",
    "domain_shift", "interactions_per_user", "source_density_ratio", "rng_seed",
)
SYNTH_FLOAT_KEYS = ("overlap_fraction", "group_split", "source_disparity", "domain_shift")


@dataclass
class RunConfig:
    """Resolved experiment configuration: one data source, backbone shape,
    training knobs, and evaluation Ks."""

    source_interactions: str = ""
    target_interactions: str = ""
    attributes: str = ""
    synth: SynthConfig | None = None
    embedding_dim: int = 32
    sharing_mode: str = "shared"
    eval_ks: tuple = (10, 20)
    seed: int = 0
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        files = bool(self.source_interactions or self.target_interactions or self.attributes)
        if files and self.synth is not None:
            raise UsageError("specify either data files or synthetic settings, not both")
        if files:
            missing = [
                name
                for name, val in (
                    ("source_interactions", self.source_interactions),
                    ("target_interactions", self.target_interactions),
                    ("attributes", self.attributes),
                )
                if not val
            ]
            if missing:
                raise UsageError(f"missing data settings: {', '.join(missing)}")
        elif self.synth is None:
            raise UsageError("no data source: set file paths or synth = true")
        if self.sharing_mode not in ("shared", "dual"):
            raise UsageError(f"unknown sharing_mode {self.sharing_mode!r}")
        _check_cutoffs(self.eval_ks, "eval_ks")
        self.train.validate()
        return self

    def dataset(self) -> CrossDomainDataset:
        if self.synth is not None:
            return generate_synthetic(self.synth)
        return load_dataset(self.source_interactions, self.target_interactions, self.attributes)


def parse_config_file(path) -> dict:
    values = {}
    try:
        lines = Path(path).read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key = value")
        key, value = line.split("=", 1)
        values[key.strip()] = value.strip()
    return values


def _as_bool(value: str, key: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise UsageError(f"{key}: expected a boolean, got {value!r}")


def _int_list(value: str) -> tuple:
    return tuple(int(x) for x in value.split(",") if x.strip())


_EXPECTED = {int: "an integer", float: "a number", _int_list: "comma-separated integers"}


def _convert(key: str, value: str, conv):
    try:
        return conv(value)
    except ValueError:
        raise UsageError(f"{key}: expected {_EXPECTED[conv]}, got {value!r}") from None


def _check_cutoffs(ks: tuple, what: str):
    if not ks or min(ks) < 1:
        raise UsageError(f"{what}: expected positive cutoffs, got {ks!r}")


def resolve_config(values: dict) -> RunConfig:
    cfg = RunConfig()
    synth_wanted = "synth" in values and _as_bool(values.pop("synth"), "synth")
    synth_kwargs = {}
    handlers = {
        "source_interactions": ("source_interactions", str),
        "target_interactions": ("target_interactions", str),
        "attributes": ("attributes", str),
        "embedding_dim": ("embedding_dim", int),
        "sharing_mode": ("sharing_mode", str),
        "seed": ("seed", int),
    }
    train_handlers = {
        "learning_rate": float, "batch_size": int, "l2_reg": float, "epochs": int,
        "gamma": float, "beta": float, "patience": int, "estimator_dropout": float,
        "estimator_lr": float, "snapshot_every": int, "include_source": None,
        "use_alpha": None, "use_fair_sampling": None, "use_redistribution": None,
        "use_estimator_loss": None, "partition_checks": None,
    }
    sampler_handlers = {"epsilon": float, "candidate_size": int, "negatives_per_positive": int}
    for key, value in values.items():
        if key in handlers:
            attr, conv = handlers[key]
            setattr(cfg, attr, _convert(key, value, conv))
        elif key in train_handlers:
            conv = train_handlers[key]
            parsed = _as_bool(value, key) if conv is None else _convert(key, value, conv)
            setattr(cfg.train, key, parsed)
        elif key in sampler_handlers:
            setattr(cfg.train.sampler, key, _convert(key, value, sampler_handlers[key]))
        elif key == "estimator_hidden":
            cfg.train.estimator_hidden = _convert(key, value, _int_list)
        elif key == "eval_ks":
            cfg.eval_ks = _convert(key, value, _int_list)
        elif key in SYNTH_KEYS:
            conv = float if key in SYNTH_FLOAT_KEYS else int
            synth_kwargs[key] = _convert(key, value, conv)
        else:
            raise UsageError(f"unknown config key {key!r}")
    if synth_wanted or synth_kwargs:
        cfg.synth = SynthConfig(**synth_kwargs)
    cfg.train.seed = cfg.seed
    if cfg.synth is not None and "rng_seed" not in synth_kwargs:
        cfg.synth.rng_seed = cfg.seed
    return cfg


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="crossfair", description=__doc__)
    parser.add_argument("--config", help="key = value config file")
    parser.add_argument("--seed", type=int, help="root seed override")
    parser.add_argument("--out", help="output directory")
    parser.add_argument("--quiet", action="store_true")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("synth", help="write synthetic dataset files")

    p_train = sub.add_parser("train", help="train a model and evaluate on the test split")
    p_train.add_argument("--ablate", default="none",
                         help="none|no_alpha|no_fair_sampling|no_redistribution|"
                              "no_estimator_loss|plain|target_only")

    p_eval = sub.add_parser("eval", help="evaluate a stored checkpoint")
    p_eval.add_argument("--run", required=True, help="run directory produced by train")
    p_eval.add_argument("--k", help="comma-separated cutoff list, default 10,20")

    sub.add_parser("ablate", help="run the five-variant comparison table")

    p_sweep = sub.add_parser("sweep", help="single-axis hyperparameter sweep")
    p_sweep.add_argument("--axis", required=True, choices=["candidate_size", "epsilon", "gamma"])
    p_sweep.add_argument("--values", required=True, help="comma-separated axis values")

    p_theory = sub.add_parser("theory", help="bound report from an embedding snapshot")
    p_theory.add_argument("--snapshot", required=True)
    p_theory.add_argument("--attrs", required=True,
                          help="TSV user_id/attribute with dense target ids")
    p_theory.add_argument("--overlap", required=True,
                          help="TSV target_user_id/source_user_id with dense ids")
    p_theory.add_argument("--baseline-ugf", type=float, default=None)
    p_theory.add_argument("--measured-ugf", type=float, default=None)
    p_theory.add_argument("--lo", type=float, default=1.0)
    p_theory.add_argument("--lf", default="1.0", help="auto or a positive number")
    p_theory.add_argument("--subsample", type=int, default=theory_mod.DEFAULT_SUBSAMPLE)
    p_theory.add_argument("--repetitions", type=int, default=theory_mod.DEFAULT_REPETITIONS)
    return parser


def _load_run_config(args) -> RunConfig:
    values = parse_config_file(args.config) if args.config else {}
    cfg = resolve_config(values)
    if args.seed is not None:
        cfg.seed = args.seed
        cfg.train.seed = args.seed
        if cfg.synth is not None:
            cfg.synth.rng_seed = args.seed
    return cfg


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if args.out else Path(default)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _say(args, message: str):
    if not args.quiet:
        print(message)


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    if cfg.synth is None:
        cfg.synth = SynthConfig(rng_seed=cfg.seed)
    ds = generate_synthetic(cfg.synth)
    out = _out_dir(args, "synth_out")
    write_interactions(out / "interactions_source.tsv", ds.interactions_source,
                       ds.raw_ids["users_source"], ds.raw_ids["items_source"])
    write_interactions(out / "interactions_target.tsv", ds.interactions_target,
                       ds.raw_ids["users_target"], ds.raw_ids["items_target"])
    write_attributes(out / "attributes.tsv", ds.target_group, ds.raw_ids["users_target"],
                     ds.group_labels)
    n_overlap = len(ds.overlap_arrays()[0])
    counts = np.bincount(ds.target_group, minlength=2)
    with open(out / "manifest.txt", "w", encoding="utf-8") as fh:
        for key in SYNTH_KEYS:
            fh.write(f"{key} = {getattr(cfg.synth, key)}\n")
        fh.write(f"n_overlap = {n_overlap}\n")
        fh.write(f"n_interactions_source = {len(ds.interactions_source)}\n")
        fh.write(f"n_interactions_target = {len(ds.interactions_target)}\n")
        fh.write(f"n_group0 = {counts[0]}\nn_group1 = {counts[1]}\n")
    _say(args, f"wrote 4 dataset files to {out}")
    _say(args, f"  source: {ds.n_users_source} users, {ds.n_items_source} items, "
               f"{len(ds.interactions_source)} interactions")
    _say(args, f"  target: {ds.n_users_target} users, {ds.n_items_target} items, "
               f"{len(ds.interactions_target)} interactions; overlap {n_overlap}")
    return 0


def _write_sidecars(out: Path, ds: CrossDomainDataset):
    write_attributes(out / "groups.tsv", ds.target_group, group_labels=ds.group_labels)
    write_tsv(out / "overlap.tsv", ("target_user_id", "source_user_id"), *ds.overlap_arrays())
    if ds.raw_ids:
        with open(out / "id_maps.json", "w", encoding="utf-8") as fh:
            json.dump(ds.raw_ids, fh, sort_keys=True)
            fh.write("\n")


def _write_optimizer_state(path, arrays: dict):
    with open(path, "wb") as fh:
        fh.write(b"CFOS")
        fh.write(struct.pack("<I", len(arrays)))
        for name in sorted(arrays):
            arr = np.ascontiguousarray(arrays[name], dtype="<f8")
            blob = name.encode("utf-8")
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            fh.write(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                fh.write(struct.pack("<Q", dim))
            fh.write(arr.tobytes())


def read_state_bundle(path) -> dict:
    """Read back a named-array bundle written next to a checkpoint."""
    blob = Path(path).read_bytes()
    if blob[:4] != b"CFOS":
        raise DataError(f"{path}: bad state bundle magic")
    (count,) = struct.unpack_from("<I", blob, 4)
    off = 8
    out = {}
    for _ in range(count):
        (name_len,) = struct.unpack_from("<I", blob, off)
        off += 4
        name = blob[off: off + name_len].decode("utf-8")
        off += name_len
        (ndim,) = struct.unpack_from("<I", blob, off)
        off += 4
        shape = struct.unpack_from("<" + "Q" * ndim, blob, off)
        off += 8 * ndim
        n = int(np.prod(shape)) if ndim else 1
        out[name] = np.frombuffer(blob, dtype="<f8", count=n, offset=off).reshape(shape)
        off += 8 * n
    return out


def _run_and_report(ds, run_cfg: RunConfig, out: Path, args, variant: str = "full"):
    cfg = ablation_config(run_cfg.train, variant) if variant != "none" else run_cfg.train
    model = train(ds, cfg, d=run_cfg.embedding_dim, mode=run_cfg.sharing_mode,
                  snapshot_dir=out)
    write_run_log(out / "runlog.jsonl", model.log)
    backbone_mod.save_snapshot(model.backbone, out / "snapshot.bin")
    backbone_mod.save_snapshot(model.final_backbone, out / "snapshot_final.bin")
    state = {
        "best_epoch": model.best_epoch,
        "best_val_ndcg10": model.best_val_ndcg10,
        "tracker": model.tracker.state(),
        "embedding_dim": run_cfg.embedding_dim,
        "sharing_mode": run_cfg.sharing_mode,
        "seed": run_cfg.seed,
        "epochs_run": len(model.log),
        "dataset_sha256": ds.sha256(),
    }
    with open(out / "state.json", "w", encoding="utf-8") as fh:
        json.dump(state, fh, sort_keys=True, indent=2)
        fh.write("\n")
    arrays = {f"opt:{k}": v for k, v in model.optimizer.state_arrays().items()}
    arrays.update({f"estopt:{k}": v for k, v in model.estimator_optimizer.state_arrays().items()})
    arrays.update({f"est:{k}": v for k, v in model.estimator.parameters().items()})
    _write_optimizer_state(out / "optstate.bin", arrays)
    _write_sidecars(out, ds)
    report = metrics_mod.evaluate(model.backbone, model.split, ds, ks=run_cfg.eval_ks)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    report.write_csv(out / "report.csv")
    _say(args, f"run complete: best epoch {model.best_epoch}, "
               f"test recall@10 {report.overall['recall@10']:.4f}, "
               f"ugf(recall@10) {report.ugf['recall@10']:.4f}")
    return model, report


def cmd_train(args) -> int:
    run_cfg = _load_run_config(args).validate()
    ds = run_cfg.dataset()
    out = _out_dir(args, "run_out")
    variant = args.ablate if args.ablate != "none" else "none"
    _run_and_report(ds, run_cfg, out, args, variant=variant)
    return 0


def cmd_eval(args) -> int:
    run_cfg = _load_run_config(args).validate()
    ks = run_cfg.eval_ks
    if args.k:
        ks = _convert("--k", args.k, _int_list)
        _check_cutoffs(ks, "--k")
    ds = run_cfg.dataset()
    run_dir = Path(args.run)
    try:
        state = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
    except OSError as exc:
        raise DataError(f"cannot read run state: {exc}") from exc
    snapshot = backbone_mod.load_snapshot(run_dir / "snapshot.bin")
    d = state["embedding_dim"]
    for name, rows in (("user_emb_source", ds.n_users_source),
                       ("user_emb_target", ds.n_users_target),
                       ("item_emb_source", ds.n_items_source),
                       ("item_emb_target", ds.n_items_target)):
        if snapshot[name].shape != (rows, d):
            raise DataError(
                f"snapshot table {name} has shape {snapshot[name].shape} but the dataset "
                f"needs {(rows, d)}: evaluate with the dataset the run was trained on"
            )
    # runs written before the fingerprint existed get the shape check only
    stored = state.get("dataset_sha256")
    if stored is not None and stored != ds.sha256():
        raise DataError("the dataset differs from the one the run was trained on "
                        "(dataset_sha256 mismatch): evaluate with that dataset")
    bb = backbone_mod.init(ds, d, state["sharing_mode"], state["seed"])
    # Restore from the stored tables; dual slots first, shared pool rebuilt
    # from the target table plus non-overlapping source rows.
    emb_t, emb_s = snapshot["user_emb_target"], snapshot["user_emb_source"]
    bb.user_pool[bb.target_slot] = emb_t
    bb.user_pool[bb.source_slot] = emb_s
    bb.item_source = snapshot["item_emb_source"]
    bb.item_target = snapshot["item_emb_target"]
    split = split_per_user(ds, state["seed"])
    report = metrics_mod.evaluate(bb, split, ds, ks=ks)
    out = _out_dir(args, "eval_out")
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    report.write_csv(out / "report.csv")
    _say(args, f"test recall@10 {report.overall['recall@10']:.4f}, "
               f"ugf(recall@10) {report.ugf['recall@10']:.4f}")
    return 0


_ABLATE_LABELS = {
    "full": "full",
    "no_alpha": "w/o alpha",
    "no_fair_sampling": "w/o fair sampling",
    "no_redistribution": "w/o redistribution loss",
    "no_estimator_loss": "w/o estimator loss",
}


def _metric_row(report) -> list:
    row = []
    for name in ("recall@10", "recall@20", "ndcg@10", "ndcg@20"):
        row.append(repr(report.overall[name]))
    for name in ("recall@10", "recall@20", "ndcg@10", "ndcg@20"):
        row.append(repr(report.ugf[name]))
    return row


def cmd_ablate(args) -> int:
    run_cfg = _load_run_config(args).validate()
    ds = run_cfg.dataset()
    out = _out_dir(args, "ablate_out")
    rows = []
    for variant in ABLATION_VARIANTS:
        sub = out / variant
        sub.mkdir(parents=True, exist_ok=True)
        _, report = _run_and_report(ds, run_cfg, sub, args, variant=variant)
        rows.append([_ABLATE_LABELS[variant]] + _metric_row(report))
    with open(out / "ablation.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "variant", "recall@10", "recall@20", "ndcg@10", "ndcg@20",
            "ugf_recall@10", "ugf_recall@20", "ugf_ndcg@10", "ugf_ndcg@20",
        ])
        writer.writerows(rows)
    _say(args, f"wrote {out / 'ablation.csv'}")
    return 0


def cmd_sweep(args) -> int:
    run_cfg = _load_run_config(args).validate()
    ds = run_cfg.dataset()
    out = _out_dir(args, "sweep_out")
    try:
        if args.axis == "candidate_size":
            values = [int(v) for v in args.values.split(",")]
        else:
            values = [float(v) for v in args.values.split(",")]
    except ValueError as exc:
        raise UsageError(f"bad sweep values: {exc}") from exc
    rows = []
    for value in values:
        cfg = run_cfg.train
        if args.axis == "candidate_size":
            cfg = replace(cfg, sampler=replace(cfg.sampler, candidate_size=int(value)))
        elif args.axis == "epsilon":
            cfg = replace(cfg, sampler=replace(cfg.sampler, epsilon=float(value)))
        else:
            cfg = replace(cfg, gamma=float(value))
        model = train(ds, cfg, d=run_cfg.embedding_dim, mode=run_cfg.sharing_mode)
        report = metrics_mod.evaluate(model.backbone, model.split, ds, ks=run_cfg.eval_ks)
        rows.append([
            repr(value),
            repr(report.overall["recall@10"]),
            repr(report.overall["ndcg@10"]),
            repr(report.ugf["recall@10"]),
            repr(report.ugf["ndcg@10"]),
        ])
        _say(args, f"{args.axis}={value}: recall@10 {report.overall['recall@10']:.4f}, "
                   f"ugf {report.ugf['recall@10']:.4f}")
    with open(out / "sweep.csv", "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([args.axis, "recall@10", "ndcg@10", "ugf_recall@10", "ugf_ndcg@10"])
        writer.writerows(rows)
    return 0


def _read_two_column_tsv(path, a_col, b_col):
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    if not lines:
        raise DataError(f"{path}: empty file")
    header = lines[0].split("\t")
    try:
        ai, bi = header.index(a_col), header.index(b_col)
    except ValueError:
        raise DataError(f"{path}: header must name {a_col} and {b_col}")
    out = {}
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        cols = line.split("\t")
        try:
            out[int(cols[ai])] = cols[bi]
        except (ValueError, IndexError):
            raise DataError(f"{path}:{lineno}: malformed row")
    return out


def cmd_theory(args) -> int:
    snapshot = backbone_mod.load_snapshot(args.snapshot)
    attr_map, _labels = load_attributes(args.attrs)
    groups = {}
    for raw, g in attr_map.items():
        try:
            groups[int(raw)] = g
        except ValueError:
            raise DataError("theory attrs must use dense integer target user ids")
    overlap = {t: int(s) for t, s in _read_two_column_tsv(
        args.overlap, "target_user_id", "source_user_id").items()}
    cloud = theory_mod.cloud_from_snapshot(snapshot, groups, overlap)
    if args.lf == "auto":
        items = snapshot["item_emb_target"]
        rng_items = min(64, len(items))
        probe = items[:rng_items]
        l_f = theory_mod.lipschitz_estimate(lambda z: z @ probe.T, cloud.points, seed=0)
    else:
        try:
            l_f = float(args.lf)
        except ValueError:
            raise UsageError(f"--lf expects 'auto' or a number, got {args.lf!r}")
    bound = theory_mod.theorem1_bound(
        cloud, l_o=args.lo, l_f=l_f, subsample_n=args.subsample,
        repetitions=args.repetitions, seed=args.seed or 0,
        measured_ugf=args.measured_ugf, baseline_ugf=args.baseline_ugf,
    )
    out = _out_dir(args, "theory_out")
    (out / "bound.json").write_text(bound.to_json(), encoding="utf-8")
    _say(args, f"rhs {bound.rhs:.4f}; direct target gap {bound.w1_target_gap:.4f}; "
               f"probe gap {bound.probe_gap_target:.4f}")
    if bound.preserved is not None:
        _say(args, f"preservation: {'holds' if bound.preserved else 'violated'} "
                   f"(margin {bound.margin:.4f})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        handler = {
            "synth": cmd_synth,
            "train": cmd_train,
            "eval": cmd_eval,
            "ablate": cmd_ablate,
            "sweep": cmd_sweep,
            "theory": cmd_theory,
        }[args.command]
        return handler(args)
    except CrossfairError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
