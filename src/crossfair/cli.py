"""Command-line surface: dataset synthesis, training, evaluation, ablation
and sweep harnesses, and the bound-report command.

Configuration is a flat ``key = value`` file with ``#`` comments; command
line flags override file values. Exit codes: 0 success, 1 usage error,
2 data error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import struct
import sys
from contextlib import suppress
from dataclasses import dataclass, field, fields, is_dataclass, replace
from functools import reduce
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np

from . import backbone as backbone_mod
from . import metrics as metrics_mod
from . import theory as theory_mod
from .data import (
    CrossDomainDataset,
    SynthConfig,
    arrays_sha256,
    generate_synthetic,
    json_text,
    load_attributes,
    load_dataset,
    read_tsv,
    split_per_user,
    write_attributes,
    write_csv,
    write_interactions,
    write_tsv,
)
from .errors import CrossfairError, DataError, NumericalError, UsageError
from .trainer import VARIANTS, TrainConfig, ablation_config, preflight, train, write_run_log

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
    train: TrainConfig = field(default_factory=TrainConfig)

    def validate(self):
        missing = [name for name in ("source_interactions", "target_interactions", "attributes")
                   if not getattr(self, name)]
        files = len(missing) < 3
        if files and self.synth is not None:
            raise UsageError("specify either data files or synthetic settings, not both")
        if files and missing:
            raise UsageError(f"missing data settings: {', '.join(missing)}")
        if not files and self.synth is None:
            raise UsageError("no data source: set file paths or synth = true")
        if self.sharing_mode not in ("shared", "dual"):
            raise UsageError(f"unknown sharing_mode {self.sharing_mode!r}")
        _check_cutoffs(self.eval_ks, "eval_ks")
        self.train.validate()
        if self.embedding_dim < 1:
            raise DataError("embedding dimension must be >= 1")
        return self

    def dataset(self) -> CrossDomainDataset:
        if self.synth is not None:
            return generate_synthetic(self.synth)
        return load_dataset(self.source_interactions, self.target_interactions, self.attributes)


def _schema(cls, path=(), schema=None) -> dict:
    """Config key -> (attribute path, declared type) of each leaf field of
    config dataclass ``cls`` and of the configs nested in it."""
    schema = {} if schema is None else schema
    hints = get_type_hints(cls, globals())
    for f in fields(cls):
        inner = [t for t in (hints[f.name], *get_args(hints[f.name])) if is_dataclass(t)]
        if inner:
            _schema(inner[0], path + (f.name,), schema)
        elif f.name in schema:
            raise TypeError(f"config field name {f.name!r} is used twice")
        else:
            schema[f.name] = (path + (f.name,), hints[f.name])
    return schema


CONFIG_SCHEMA = _schema(RunConfig)


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


def _as_bool(value: str) -> bool:
    low = value.lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ValueError(value)


def _int_list(value: str) -> tuple:
    return tuple(int(x) for x in value.split(",") if x.strip())


# declared field type -> (parser of a config value, what a malformed value was expected to be)
_PARSERS = {bool: (_as_bool, "a boolean"), int: (int, "an integer"),
            float: (float, "a number"), tuple: (_int_list, "comma-separated integers"),
            str: (str, "a string")}


def _convert(key: str, value: str, kind: type):
    parse, expected = _PARSERS[kind]
    try:
        return parse(value)
    except ValueError:
        raise UsageError(f"{key}: expected {expected}, got {value!r}") from None


def _check_cutoffs(ks: tuple, what: str):
    if not ks or min(ks) < 1:
        raise UsageError(f"{what}: expected positive cutoffs, got {ks!r}")
    if len(set(ks)) < len(ks):
        raise UsageError(f"{what}: expected distinct cutoffs, got {ks!r}")


def _require_cutoffs(ks: tuple, needed: tuple, command: str):
    """Refuse, before any training, an ``eval_ks`` that lacks a CSV column's K."""
    if not set(needed) <= set(ks):
        raise UsageError(f"{command} writes columns at K = {', '.join(map(str, needed))}: "
                         f"eval_ks must include them, got {','.join(map(str, ks))}")


def _summary(report, ks: tuple) -> str:
    """Test recall and its group gap at the smallest evaluated cutoff."""
    name = f"recall@{min(ks)}"
    return f"test {name} {report.overall[name]:.4f}, ugf({name}) {report.ugf[name]:.4f}"


def resolve_config(values: dict, seed: int | None = None) -> RunConfig:
    """Run configuration from ``key = value`` strings. ``seed``, when given,
    overrides the ``seed`` key. The seed also drives synthesis unless
    ``rng_seed`` is set and ``seed`` is not given. A synthetic setting asks
    for synthetic data, so it is a usage error next to ``synth = false``."""
    synth_flag = _convert("synth", values["synth"], bool) if "synth" in values else None
    cfg = RunConfig(synth=SynthConfig())
    synth_keys = []
    for key, value in values.items():
        if key == "synth":
            continue
        if key not in CONFIG_SCHEMA:
            raise UsageError(f"unknown config key {key!r}")
        path, kind = CONFIG_SCHEMA[key]
        setattr(reduce(getattr, path[:-1], cfg), path[-1], _convert(key, value, kind))
        if path[0] == "synth":
            synth_keys.append(key)
    if synth_flag is False and synth_keys:
        raise UsageError(f"synth = false conflicts with synthetic setting {synth_keys[0]!r}")
    if not (synth_flag or synth_keys):
        cfg.synth = None
    if seed is not None:
        cfg.train.seed = seed
    if cfg.synth is not None and (seed is not None or "rng_seed" not in values):
        cfg.synth.rng_seed = cfg.train.seed
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
    p_train.add_argument("--ablate", default="full", choices=list(VARIANTS),
                         help="training variant, default full")

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
    p_theory.add_argument("--baseline-ugf", type=float, default=None,
                          help="the gap rhs is compared with; sets preserved and margin")
    p_theory.add_argument("--lo", type=float, default=1.0,
                          help="L_o in rhs = L_o * L_f * (sum of W1 terms), default %(default)s")
    p_theory.add_argument("--lf", default="1.0",
                          help="auto (the exact constant of the probe map) or a positive "
                               "number, default %(default)s")
    p_theory.add_argument("--subsample", type=int, default=theory_mod.DEFAULT_SUBSAMPLE,
                          help="points per cloud in each W1 matching, default %(default)s")
    p_theory.add_argument("--repetitions", type=int, default=theory_mod.DEFAULT_REPETITIONS,
                          help="subsamples averaged per W1 term when a cloud exceeds "
                               "--subsample, default %(default)s")
    return parser


def _load_run_config(args) -> RunConfig:
    return resolve_config(parse_config_file(args.config) if args.config else {}, args.seed)


def _mkdir(args, path: Path):
    """``path.mkdir(parents=True)``, after noting in ``args.made`` each directory it makes."""
    args.made += [p for p in (*reversed(path.parents), path) if not p.exists()]
    path.mkdir(parents=True, exist_ok=True)


def _out_dir(args, default: str) -> Path:
    out = Path(args.out) if args.out else Path(default)
    try:
        _mkdir(args, out)
    except OSError as exc:
        raise UsageError(f"cannot create output directory {out}: {exc.strerror}") from exc
    return out


def _say(args, message: str):
    if not args.quiet:
        print(message)


def cmd_synth(args) -> int:
    cfg = _load_run_config(args)
    if cfg.synth is None:
        cfg.synth = SynthConfig(rng_seed=cfg.train.seed)
    else:
        cfg.validate()  # refuses data files next to synthetic settings, as train does
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
    manifest = [f"{f.name} = {getattr(cfg.synth, f.name)}\n" for f in fields(cfg.synth)]
    manifest += [f"n_overlap = {n_overlap}\n",
                 f"n_interactions_source = {len(ds.interactions_source)}\n",
                 f"n_interactions_target = {len(ds.interactions_target)}\n",
                 f"n_group0 = {counts[0]}\nn_group1 = {counts[1]}\n"]
    (out / "manifest.txt").write_text("".join(manifest), encoding="utf-8")
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
        (out / "id_maps.json").write_text(json_text(ds.raw_ids), encoding="utf-8")


def _write_optimizer_state(path, arrays: dict):
    parts = [b"CFOS", struct.pack("<I", len(arrays))]
    for name in sorted(arrays):
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        blob = name.encode("utf-8")
        parts += [struct.pack("<I", len(blob)), blob, struct.pack("<I", arr.ndim),
                  *(struct.pack("<Q", dim) for dim in arr.shape), arr]
    Path(path).write_bytes(b"".join(parts))


def _run_and_report(ds, run_cfg: RunConfig, cfg: TrainConfig, split, out: Path, args):
    """Train ``cfg`` on ``split``, write the artifacts and test it."""
    model = train(ds, cfg, d=run_cfg.embedding_dim, mode=run_cfg.sharing_mode,
                  snapshot_dir=out, split=split)
    write_run_log(out / "runlog.jsonl", model.log)
    snapshots = dict(model.snapshot_sha256)
    for name, bb in (("snapshot.bin", model.backbone),
                     ("snapshot_final.bin", model.final_backbone)):
        snapshots[name] = backbone_mod.save_snapshot(bb, out / name)
    state = {
        "best_epoch": model.best_epoch,
        # no validation score when no epoch ran; NaN is not JSON
        "best_val_ndcg10": model.best_val_ndcg10 if model.log else None,
        "tracker": model.tracker.state(),
        "embedding_dim": run_cfg.embedding_dim,
        "sharing_mode": run_cfg.sharing_mode,
        "seed": run_cfg.train.seed,
        "epochs_run": len(model.log),
        "dataset_sha256": ds.sha256(),
        "labels_sha256": arrays_sha256(np.arange(ds.n_users_target), ds.target_group,
                                      *ds.overlap_arrays()),
        "snapshot_sha256": snapshots,
    }
    (out / "state.json").write_text(json_text(state, indent=2), encoding="utf-8")
    arrays = {f"opt:{k}": v for k, v in model.optimizer.state_arrays().items()}
    arrays.update({f"estopt:{k}": v for k, v in model.estimator_optimizer.state_arrays().items()})
    arrays.update({f"est:{k}": v for k, v in model.estimator.parameters().items()})
    _write_optimizer_state(out / "optstate.bin", arrays)
    _write_sidecars(out, ds)
    report = metrics_mod.evaluate(model.backbone.user_emb_target(), model.backbone.item_target,
                                  model.split, ds, ks=run_cfg.eval_ks)
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    report.write_csv(out / "report.csv")
    _say(args, f"run {out} complete: best epoch {model.best_epoch}, "
               f"{_summary(report, run_cfg.eval_ks)}")
    return report


def cmd_train(args) -> int:
    run_cfg = _load_run_config(args).validate()
    ds = run_cfg.dataset()
    cfg = ablation_config(run_cfg.train, args.ablate)
    split = preflight(ds, cfg)
    out = _out_dir(args, "run_out")
    _run_and_report(ds, run_cfg, cfg, split, out, args)
    return 0


def _read_run(state_path, snapshot_path):
    """A run's ``state.json`` and a snapshot it wrote. The state must hold the
    settings ``eval`` rebuilds the run from and the digests of its dataset,
    its labels and its snapshots; the snapshot, once parsed, must be one of
    those snapshots."""
    try:
        state = json.loads(Path(state_path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read run state: {exc}") from exc
    if not (isinstance(state, dict) and isinstance(state.get("embedding_dim"), int)
            and isinstance(state.get("sharing_mode"), str) and isinstance(state.get("seed"), int)):
        raise DataError(f"{state_path}: run state must hold an integer embedding_dim and seed "
                        f"and a sharing_mode")
    for key in ("dataset_sha256", "labels_sha256", "snapshot_sha256"):
        if key not in state:
            raise DataError(f"{state_path}: run state has no {key}, so it cannot vouch for "
                            f"the run's inputs: train the run again")
    if not isinstance(state["snapshot_sha256"], dict):
        raise DataError(f"{state_path}: snapshot_sha256 must map file names to digests")
    snapshot, digest = backbone_mod.load_snapshot(snapshot_path)
    if digest not in state["snapshot_sha256"].values():
        raise DataError(f"{snapshot_path} is not a snapshot the run in "
                        f"{Path(state_path).parent} wrote (snapshot_sha256 mismatch)")
    return state, snapshot


def cmd_eval(args) -> int:
    run_cfg = _load_run_config(args).validate()
    ks = run_cfg.eval_ks
    if args.k:
        ks = _convert("--k", args.k, tuple)
        _check_cutoffs(ks, "--k")
    ds = run_cfg.dataset()
    run_dir = Path(args.run)
    state, snapshot = _read_run(run_dir / "state.json", run_dir / "snapshot.bin")
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
    if state["dataset_sha256"] != ds.sha256():
        raise DataError("the dataset differs from the one the run was trained on "
                        "(dataset_sha256 mismatch): evaluate with that dataset")
    split = split_per_user(ds, state["seed"])
    report = metrics_mod.evaluate(snapshot["user_emb_target"], snapshot["item_emb_target"],
                                  split, ds, ks=ks)
    out = _out_dir(args, "eval_out")
    (out / "report.json").write_text(report.to_json(), encoding="utf-8")
    report.write_csv(out / "report.csv")
    _say(args, _summary(report, ks))
    return 0


def _run_all(args, run_cfg: RunConfig, runs: dict, column: str, names: tuple,
             csv_name: str) -> Path:
    """Train each ``name: (label, TrainConfig)`` of ``runs`` into ``--out/<name>/``
    once every config has passed ``preflight``, then write ``csv_name`` with one
    row per run: its label, its test ``names`` and their group gaps."""
    ds = run_cfg.dataset()
    # no variant or sweep axis is the seed, so every run trains on one split
    split = split_per_user(ds, run_cfg.train.seed)
    for _, cfg in runs.values():
        preflight(ds, cfg, split)
    out = _out_dir(args, f"{args.command}_out")
    rows = []
    for name, (label, cfg) in runs.items():
        _mkdir(args, out / name)
        report = _run_and_report(ds, run_cfg, cfg, split, out / name, args)
        rows.append([label] + [report.overall[m] for m in names] + [report.ugf[m] for m in names])
    write_csv(out / csv_name, [column, *names, *(f"ugf_{m}" for m in names)], rows)
    return out / csv_name


def cmd_ablate(args) -> int:
    run_cfg = _load_run_config(args).validate()
    _require_cutoffs(run_cfg.eval_ks, (10, 20), "ablate")
    runs = {variant: (label, ablation_config(run_cfg.train, variant))
            for variant, (label, _) in VARIANTS.items() if label is not None}
    table = _run_all(args, run_cfg, runs, "variant",
                     ("recall@10", "recall@20", "ndcg@10", "ndcg@20"), "ablation.csv")
    _say(args, f"wrote {table}")
    return 0


def cmd_sweep(args) -> int:
    run_cfg = _load_run_config(args).validate()
    _require_cutoffs(run_cfg.eval_ks, (10,), "sweep")
    # each value overrides TrainConfig as a variant does; all are checked before the first run
    # and compared as parsed, since "-0" repeats "0" under a directory name of its own
    points = []
    for text in args.values.split(","):
        value = _convert(args.axis, text, CONFIG_SCHEMA[args.axis][1])
        points.append((value, replace(run_cfg.train, **{args.axis: value}).validate()))
    if len({value for value, _ in points}) < len(points):
        raise UsageError(f"--values: expected distinct {args.axis} values, got {args.values}")
    _run_all(args, run_cfg, {f"{args.axis}={value}": (value, cfg) for value, cfg in points},
             args.axis, ("recall@10", "ndcg@10"), "sweep.csv")
    return 0


def _int_ids(path, values) -> np.ndarray:
    """Dense integer user ids from TSV cells; an error names the first cell
    that is not an int64."""
    ids = np.empty(len(values), np.int64)
    for k, value in enumerate(values):
        try:
            ids[k] = int(value)
        except (ValueError, OverflowError):
            raise DataError(f"{path}: user id {value!r} is not a dense integer id") from None
    return ids


def _read_overlap(path):
    """(target ids, source ids) from an overlap TSV, each distinct id parsed once."""
    columns = read_tsv(path).densify(("target_user_id", "source_user_id"),
                                     "header must name target_user_id and source_user_id")
    return tuple(_int_ids(path, ids)[codes] for codes, ids in columns)


def _read_labels(attrs, overlap):
    """Target ids and their groups by ascending id, then the overlap's target
    and source ids by ascending target id, whatever the files' row order."""
    attr_map, _ = load_attributes(attrs)
    t_ids = _int_ids(attrs, list(attr_map))
    groups = np.fromiter(attr_map.values(), np.int64, len(attr_map))
    o_t, o_s = _read_overlap(overlap)
    by_id, by_target = np.argsort(t_ids), np.argsort(o_t)
    return t_ids[by_id], groups[by_id], o_t[by_target], o_s[by_target]


def cmd_theory(args) -> int:
    # a state.json beside the snapshot vouches for the snapshot and the labels
    state_path = Path(args.snapshot).with_name("state.json")
    if state_path.exists():
        state, snapshot = _read_run(state_path, args.snapshot)
    else:
        state, snapshot = None, backbone_mod.load_snapshot(args.snapshot)[0]
    labels = _read_labels(args.attrs, args.overlap)
    points = theory_mod.cloud_from_snapshot(snapshot, *labels)
    if state is not None and state["labels_sha256"] != arrays_sha256(*labels):
        raise DataError("--attrs and --overlap differ from the labels the run was trained "
                        "with (labels_sha256 mismatch): use the run's groups.tsv and "
                        "overlap.tsv")
    # f(z) = P z with P the first 64 target item rows; --lf auto uses its exact constant
    l_f_probe = theory_mod.lipschitz_estimate(snapshot["item_emb_target"][:64])
    if args.lf == "auto":
        l_f = l_f_probe
    else:
        try:
            l_f = float(args.lf)
        except ValueError:
            raise UsageError(f"--lf expects 'auto' or a number, got {args.lf!r}")
    bound = theory_mod.theorem1_bound(
        *points, l_o=args.lo, l_f=l_f, subsample_n=args.subsample,
        repetitions=args.repetitions, seed=args.seed or 0,
        baseline_ugf=args.baseline_ugf,
    )
    bound.l_f_probe = l_f_probe if np.isfinite(l_f_probe) else None
    out = _out_dir(args, "theory_out")
    (out / "bound.json").write_text(bound.to_json(), encoding="utf-8")
    if l_f < l_f_probe:
        _say(args, f"warning: L_f {l_f:g} is below {l_f_probe:.4f}, the probe map's exact "
                   "Lipschitz constant, so rhs may understate the bound for that map")
    _say(args, f"rhs {bound.rhs:.4f}; direct target gap {bound.w1_target_gap:.4f}; "
               f"probe gap {bound.probe_gap_target:.4f}")
    if bound.preserved is not None:
        _say(args, f"preservation: {'holds' if bound.preserved else 'violated'} "
                   f"(margin {bound.margin:.4f})")
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    made = []  # directories this call made, outermost first
    try:
        args = parser.parse_args(argv)
        args.made = made
        handler = {
            "synth": cmd_synth,
            "train": cmd_train,
            "eval": cmd_eval,
            "ablate": cmd_ablate,
            "sweep": cmd_sweep,
            "theory": cmd_theory,
        }[args.command]
        # an overflow or invalid value ends the command instead of warning
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return handler(args)
    except FloatingPointError as exc:
        error = NumericalError(f"numerical failure: {exc}")
    except OSError as exc:
        # every read turns its OSError into a DataError where it happens, so
        # this one comes from writing an output path
        error = UsageError(f"cannot write {exc.filename}: {exc.strerror}")
    except CrossfairError as exc:
        error = exc
    for path in reversed(made):  # a failed command takes back each directory it made
        with suppress(OSError):  # unless it holds a file the run wrote
            path.rmdir()
    print(f"error: {error}", file=sys.stderr)
    return error.exit_code


if __name__ == "__main__":
    sys.exit(main())
