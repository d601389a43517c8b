import errno
import json
import multiprocessing
import os
import re
import shutil
import signal
import struct
import subprocess
import sys
import textwrap
import time
from dataclasses import dataclass, field, fields
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import crossfair.cli
import crossfair.sampler
import crossfair.trainer as trainer_mod
from crossfair.backbone import SNAPSHOT_MAGIC, load_snapshot
from crossfair.cli import (CONFIG_SCHEMA, _read_labels, _schema, main, parse_config_file,
                           resolve_config)
from crossfair.data import (SynthConfig, arrays_sha256, generate_synthetic, load_dataset,
                            split_per_user)
from crossfair.errors import CrossfairError, DataError, UsageError

from oracles import (SYNTH_KEYS, adam_step_add_at, lipschitz_sampled, read_state_bundle,
                     resolve_config_tables)

README = Path(__file__).resolve().parents[1] / "README.md"
# ``synth = true`` asks for the synthetic data block with default settings.
CONFIG_KEYS = ("synth", *CONFIG_SCHEMA)
FLOAT_KEYS = [key for key, (_, kind) in CONFIG_SCHEMA.items() if kind is float]
DATA_FILE_KEYS = ("source_interactions", "target_interactions", "attributes")

SYNTH_CFG = """
# small synthetic fixture
synth = true
n_users_source = 40
n_users_target = 60
overlap_fraction = 0.5
n_items_source = 40
n_items_target = 40
latent_dim = 8
group_split = 0.5
source_disparity = 1.0
domain_shift = 0.1
interactions_per_user = 10
embedding_dim = 8
epochs = 3
batch_size = 128
learning_rate = 0.01
candidate_size = 4
epsilon = 1.0
gamma = 0.5
seed = 3
"""


@pytest.fixture
def cfg_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(SYNTH_CFG, encoding="utf-8")
    return path


def run(*argv):
    return main([str(a) for a in argv])


def assert_same_files(got: Path, want: Path):
    """``got`` holds the files of ``want``, byte for byte, and no others."""
    names = sorted(p.name for p in want.iterdir())
    assert sorted(p.name for p in got.iterdir()) == names
    for name in names:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def write_tables(path, tables):
    """A snapshot file holding ``tables``, in the order ``load_snapshot`` reads."""
    with open(path, "wb") as fh:
        fh.write(SNAPSHOT_MAGIC + struct.pack("<I", 1))
        for name in ("user_emb_source", "user_emb_target", "item_emb_source",
                     "item_emb_target"):
            fh.write(struct.pack("<QQ", *tables[name].shape))
            fh.write(tables[name].astype("<f4").tobytes())


class TestSynthCommand:
    def test_writes_four_files(self, tmp_path, cfg_file):
        out = tmp_path / "data"
        assert run("--config", cfg_file, "--out", out, "--quiet", "synth") == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "attributes.tsv", "interactions_source.tsv",
            "interactions_target.tsv", "manifest.txt",
        ]

    def test_byte_identical_across_runs(self, tmp_path, cfg_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("--config", cfg_file, "--out", out_a, "--quiet", "synth")
        run("--config", cfg_file, "--out", out_b, "--quiet", "synth")
        for name in ("interactions_source.tsv", "interactions_target.tsv",
                     "attributes.tsv", "manifest.txt"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_files_load_back_as_the_dataset(self, tmp_path, cfg_file):
        """``load_dataset`` on the written files gives the generated pairs,
        in order, the overlap and the groups, all named by raw id."""
        out = tmp_path / "data"
        assert run("--config", cfg_file, "--out", out, "--quiet", "synth") == 0
        loaded = load_dataset(out / "interactions_source.tsv", out / "interactions_target.tsv",
                              out / "attributes.tsv")
        generated = generate_synthetic(resolve_config(parse_config_file(cfg_file)).synth)

        def by_raw_id(ds):
            ids = ds.raw_ids
            pairs = [[(ids[f"users_{d}"][u], ids[f"items_{d}"][i])
                      for u, i in getattr(ds, f"interactions_{d}").tolist()]
                     for d in ("source", "target")]
            overlap = [(ids["users_target"][t], ids["users_source"][s])
                       for t, s in zip(*(a.tolist() for a in ds.overlap_arrays()))]
            groups = dict(zip(ids["users_target"],
                              np.array(ds.group_labels)[ds.target_group].tolist()))
            return pairs, overlap, groups

        want = by_raw_id(generated)
        assert by_raw_id(loaded) == want
        assert len(want[1]) == 30  # overlap_fraction 0.5 of 60 target users

    def test_capacity_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth = true\nn_items_source = 4\nn_items_target = 4\n"
                       "interactions_per_user = 9\n", encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "x", "--quiet", "synth") == 2

    def test_data_files_next_to_synthetic_settings_refused(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("source_interactions = x\ntarget_interactions = y\nattributes = z\n"
                       "n_users_target = 50\n", encoding="utf-8")
        out = tmp_path / "data"
        assert run("--config", cfg, "--out", out, "--quiet", "synth") == 1
        assert capsys.readouterr().err == \
            "error: specify either data files or synthetic settings, not both\n"
        assert not out.exists()

    @pytest.mark.parametrize("text", ["seed = 5\n",
                                      "seed = 5\nsource_interactions = x\nattributes = z\n"],
                             ids=["no-data-keys", "data-files"])
    def test_no_synthetic_setting_writes_default_dataset(self, tmp_path, text):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "data"
        assert run("--config", cfg, "--out", out, "--quiet", "synth") == 0
        manifest = (out / "manifest.txt").read_text(encoding="utf-8").splitlines()
        default = SynthConfig(rng_seed=5)
        assert manifest[:len(fields(default))] == [
            f"{f.name} = {getattr(default, f.name)}" for f in fields(default)]


class TestTrainCommand:
    def test_run_artifacts(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        assert run("--config", cfg_file, "--out", out, "--quiet", "train") == 0
        for name in ("runlog.jsonl", "snapshot.bin", "state.json", "optstate.bin",
                     "report.json", "report.csv", "groups.tsv", "overlap.tsv",
                     "id_maps.json"):
            assert (out / name).exists(), name
        lines = (out / "runlog.jsonl").read_text().splitlines()
        assert len(lines) == 3
        state = json.loads((out / "state.json").read_text())
        assert state["epochs_run"] == 3

    def test_state_bundle_roundtrip(self, tmp_path, cfg_file):
        out = tmp_path / "run"
        run("--config", cfg_file, "--out", out, "--quiet", "train")
        bundle = read_state_bundle(out / "optstate.bin")
        assert any(k.startswith("opt:m:") for k in bundle)
        assert any(k.startswith("est:w") for k in bundle)
        for arr in bundle.values():
            assert np.all(np.isfinite(arr))

    def test_byte_identical_reruns(self, tmp_path, cfg_file):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("--config", cfg_file, "--out", out_a, "--quiet", "train")
        run("--config", cfg_file, "--out", out_b, "--quiet", "train")
        for name in ("runlog.jsonl", "snapshot.bin", "snapshot_final.bin",
                     "report.json", "report.csv", "state.json", "optstate.bin"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes(), name

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_run_log_total_is_rec_plus_gamma_redist(self, tmp_path, cfg_file, seed):
        out = tmp_path / "run"
        assert run("--config", cfg_file, "--seed", seed, "--out", out, "--quiet", "train") == 0
        records = [json.loads(line) for line in (out / "runlog.jsonl").read_text().splitlines()]
        assert len(records) == 3
        for record in records:  # gamma = 0.5
            assert record["loss_total"] == record["loss_rec"] + 0.5 * record["loss_redist"]

    def test_epoch_snapshots_when_configured(self, tmp_path, cfg_file):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text(SYNTH_CFG + "snapshot_every = 1\n", encoding="utf-8")
        out = tmp_path / "run"
        run("--config", cfg, "--out", out, "--quiet", "train")
        for epoch in range(3):
            assert (out / f"snapshot_epoch_{epoch}.bin").exists()

    def test_ablate_flag_matches_flags_off(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text(SYNTH_CFG + "epsilon = 0\nuse_fair_sampling = false\n"
                        "gamma = 0\nuse_estimator_loss = false\n",
                        encoding="utf-8")
        plain_cfg = tmp_path / "plain.cfg"
        plain_cfg.write_text(SYNTH_CFG, encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("--config", base, "--out", out_a, "--quiet", "train")
        run("--config", plain_cfg, "--out", out_b, "--quiet", "train", "--ablate", "plain")
        assert (out_a / "runlog.jsonl").read_bytes() == (out_b / "runlog.jsonl").read_bytes()
        assert (out_a / "snapshot.bin").read_bytes() == (out_b / "snapshot.bin").read_bytes()

    def test_unknown_variant_refused_before_loading(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "run"
        assert run("--config", cfg_file, "--out", out, "--quiet", "train",
                   "--ablate", "bogus") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: argument --ablate: invalid choice: 'bogus'")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_artifacts_match_add_at_adam(self, tmp_path, mode, monkeypatch):
        cfg = tmp_path / "two.cfg"
        cfg.write_text(SYNTH_CFG.replace("epochs = 3", "epochs = 2")
                       + f"sharing_mode = {mode}\n", encoding="utf-8")
        shipped, oracle = tmp_path / "shipped", tmp_path / "oracle"
        assert run("--config", cfg, "--out", shipped, "--quiet", "train",
                   "--ablate", "full") == 0
        monkeypatch.setattr(trainer_mod.Adam, "step", adam_step_add_at)
        assert run("--config", cfg, "--out", oracle, "--quiet", "train",
                   "--ablate", "full") == 0
        for name in ("runlog.jsonl", "snapshot.bin", "optstate.bin"):
            assert (shipped / name).read_bytes() == (oracle / name).read_bytes(), name

    def test_summary_at_smallest_cutoff(self, tmp_path, capsys):
        cfg = tmp_path / "ks.cfg"
        cfg.write_text(SYNTH_CFG + "eval_ks = 5,20\n", encoding="utf-8")
        capsys.readouterr()
        assert run("--config", cfg, "--out", tmp_path / "run", "train") == 0
        line = capsys.readouterr().out.strip()
        report = json.loads((tmp_path / "run" / "report.json").read_text())
        assert line.endswith(f"test recall@5 {report['overall']['recall@5']:.4f}, "
                             f"ugf(recall@5) {report['ugf']['recall@5']:.4f}")

    def test_missing_attributes_fails_before_outputs(self, tmp_path, cfg_file):
        data = tmp_path / "data"
        run("--config", cfg_file, "--out", data, "--quiet", "synth")
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            f"source_interactions = {data / 'interactions_source.tsv'}\n"
            f"target_interactions = {data / 'interactions_target.tsv'}\n"
            f"attributes = {data / 'missing.tsv'}\n"
            "epochs = 1\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 2
        assert not (out / "runlog.jsonl").exists()

    def test_train_from_files_roundtrip(self, tmp_path, cfg_file):
        data = tmp_path / "data"
        run("--config", cfg_file, "--out", data, "--quiet", "synth")
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            f"source_interactions = {data / 'interactions_source.tsv'}\n"
            f"target_interactions = {data / 'interactions_target.tsv'}\n"
            f"attributes = {data / 'attributes.tsv'}\n"
            "embedding_dim = 8\nepochs = 2\nbatch_size = 128\nseed = 3\n",
            encoding="utf-8",
        )
        out = tmp_path / "run"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 0


class TestEvalCommand:
    def test_eval_determinism_and_match(self, tmp_path, cfg_file):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        out_a, out_b = tmp_path / "ea", tmp_path / "eb"
        assert run("--config", cfg_file, "--out", out_a, "--quiet", "eval",
                   "--run", run_dir) == 0
        run("--config", cfg_file, "--out", out_b, "--quiet", "eval", "--run", run_dir)
        assert (out_a / "report.json").read_bytes() == (out_b / "report.json").read_bytes()
        trained = json.loads((run_dir / "report.json").read_text())
        evaluated = json.loads((out_a / "report.json").read_text())
        assert trained["overall"] == pytest.approx(evaluated["overall"], abs=1e-6)

    @pytest.mark.parametrize("key", ["n_items_target", "n_users_source"])
    def test_dataset_of_another_size_refused(self, tmp_path, cfg_file, capsys, key):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        other = tmp_path / "other.cfg"
        other.write_text(SYNTH_CFG + f"{key} = 50\n", encoding="utf-8")
        capsys.readouterr()
        assert run("--config", other, "--out", tmp_path / "e", "--quiet", "eval",
                   "--run", run_dir) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: snapshot table") and "\n" not in err
        assert not (tmp_path / "e" / "report.json").exists()

    def test_same_size_other_dataset_refused(self, tmp_path, cfg_file, capsys):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        state = json.loads((run_dir / "state.json").read_text())
        assert len(state["dataset_sha256"]) == 64
        other = tmp_path / "other.cfg"
        other.write_text(SYNTH_CFG + "rng_seed = 4\n", encoding="utf-8")
        capsys.readouterr()
        assert run("--config", other, "--out", tmp_path / "e", "--quiet", "eval",
                   "--run", run_dir) == 2
        err = capsys.readouterr().err.strip()
        assert err.startswith("error: the dataset differs") and "\n" not in err
        assert not (tmp_path / "e" / "report.json").exists()

    def test_summary_at_smallest_cutoff(self, tmp_path, cfg_file, capsys):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        capsys.readouterr()
        assert run("--config", cfg_file, "--out", tmp_path / "e", "eval",
                   "--run", run_dir, "--k", "5,20") == 0
        report = json.loads((tmp_path / "e" / "report.json").read_text())
        assert capsys.readouterr().out == (
            f"test recall@5 {report['overall']['recall@5']:.4f}, "
            f"ugf(recall@5) {report['ugf']['recall@5']:.4f}\n"
        )

    def test_untrained_model_near_random_expectation(self, tmp_path, cfg_file):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SYNTH_CFG.replace("epochs = 3", "epochs = 0"), encoding="utf-8")
        run_dir = tmp_path / "run0"
        run("--config", cfg, "--out", run_dir, "--quiet", "train")
        report = json.loads((run_dir / "report.json").read_text())

        def refuse(constant):
            raise ValueError(f"{constant} is not JSON")

        state = json.loads((run_dir / "state.json").read_text(), parse_constant=refuse)
        assert state["epochs_run"] == 0 and state["best_val_ndcg10"] is None
        # random ranking: E[recall@k] = k / n_eligible; 10 per-user positives,
        # 9 in train+val, 40 items => 31 eligible
        expected = 10.0 / 31.0
        assert report["overall"]["recall@10"] < 3 * expected
        assert report["overall"]["recall@10"] > expected / 3


@pytest.mark.parametrize("name, content, message", [
    ("state.json", b"{bad", "cannot read run state: Expecting property name enclosed in "
                            "double quotes: line 1 column 2 (char 1)"),
    ("state.json", b"{}", "{path}: run state must hold an integer embedding_dim and seed "
                          "and a sharing_mode"),
    ("snapshot.bin", b"CDFA\x01\x00", "{path}: truncated snapshot"),
    ("snapshot.bin", SNAPSHOT_MAGIC + struct.pack("<IQI", 1, 40, 8),
     "{path}: truncated snapshot"),
    ("snapshot.bin", SNAPSHOT_MAGIC + struct.pack("<I", 9),
     "{path}: unsupported snapshot version 9"),
], ids=["malformed-state", "empty-state", "cut-snapshot", "snapshot-cut-to-20-bytes",
        "snapshot-version-9"])
def test_eval_on_broken_run_is_data_error(tmp_path, cfg_file, theory_run, capsys,
                                          name, content, message):
    run_dir = tmp_path / "run"
    shutil.copytree(theory_run, run_dir)
    (run_dir / name).write_bytes(content)
    out = tmp_path / "e"
    capsys.readouterr()
    assert run("--config", cfg_file, "--out", out, "--quiet", "eval", "--run", run_dir) == 2
    assert capsys.readouterr().err == f"error: {message.format(path=run_dir / name)}\n"
    assert not (out / "report.json").exists()


class TestAblateCommand:
    def test_csv_shape(self, tmp_path, cfg_file):
        out = tmp_path / "ablate"
        assert run("--config", cfg_file, "--out", out, "--quiet", "ablate") == 0
        lines = (out / "ablation.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 variants
        header = lines[0].split(",")
        assert len(header) == 9  # variant + 8 metric columns
        for line in lines[1:]:
            assert len(line.split(",")) == 9

    def test_cutoffs_without_k20_refused_before_training(self, tmp_path, capsys):
        cfg = tmp_path / "ks.cfg"
        cfg.write_text(SYNTH_CFG + "eval_ks = 5,10\n", encoding="utf-8")
        out = tmp_path / "ablate"
        assert run("--config", cfg, "--out", out, "--quiet", "ablate") == 1
        assert capsys.readouterr().err == (
            "error: ablate writes columns at K = 10, 20: eval_ks must include them, "
            "got 5,10\n"
        )
        assert not out.exists()

    def test_variant_directory_is_a_train_run(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "ablate"
        capsys.readouterr()
        assert run("--config", cfg_file, "--out", out, "ablate") == 0
        lines = capsys.readouterr().out.splitlines()
        variants = ["full", "no_alpha", "no_fair_sampling", "no_redistribution",
                    "no_estimator_loss"]
        assert [line.split(": best epoch ")[0] for line in lines[:-1]] == [
            f"run {out / variant} complete" for variant in variants]
        assert lines[-1] == f"wrote {out / 'ablation.csv'}"
        single = tmp_path / "single"
        assert run("--config", cfg_file, "--out", single, "--quiet", "train",
                   "--ablate", "no_alpha") == 0
        assert_same_files(out / "no_alpha", single)


def count_splits(monkeypatch):
    """Count the calls of ``split_per_user`` from the CLI and the trainer."""
    calls = []

    def counted(ds, seed):
        calls.append(seed)
        return split_per_user(ds, seed)

    for module in (crossfair.cli, trainer_mod):
        monkeypatch.setattr(module, "split_per_user", counted)
    return calls


@pytest.mark.parametrize("argv", [
    ("ablate",),
    ("sweep", "--axis", "gamma", "--values", "0,0.5,1"),
], ids=["ablate", "sweep-gamma"])
def test_data_split_once_per_seed(tmp_path, cfg_file, monkeypatch, argv):
    calls = count_splits(monkeypatch)
    assert run("--config", cfg_file, "--out", tmp_path / "out", "--quiet", *argv) == 0
    assert calls == [3]


def test_cli_import_leaves_scipy_out():
    """scipy's optimizer, distances and special functions load only where
    ``theory`` and the paired t test use them."""
    code = ("import sys, crossfair.cli; "
            "print(sorted(m for m in ('scipy.optimize', 'scipy.spatial', 'scipy.special') "
            "if m in sys.modules))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(crossfair.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=120)
    assert out.stdout == "[]\n"


@pytest.mark.parametrize("argv", [("--help",), ("--quiet", "synth")], ids=["help", "synth"])
def test_cli_runs_under_cprofile(tmp_path, cfg_file, argv):
    """As ``__main__`` under ``python -m cProfile``, the module still reads
    its config types."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(crossfair.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-m", "cProfile", "-m", "crossfair.cli",
                          "--config", str(cfg_file), "--out", str(tmp_path / "out"), *argv],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr


class TestSweepCommand:
    def test_candidate_size_sweep(self, tmp_path, cfg_file):
        out = tmp_path / "sweep"
        assert run("--config", cfg_file, "--out", out, "--quiet", "sweep",
                   "--axis", "candidate_size", "--values", "1,2,4") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",")[0] == "candidate_size"

    def test_each_point_is_a_train_run(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "sweep"
        capsys.readouterr()
        assert run("--config", cfg_file, "--out", out, "sweep", "--axis", "gamma",
                   "--values", "0,0.5") == 0
        lines = capsys.readouterr().out.splitlines()
        names = ["gamma=0.0", "gamma=0.5"]
        assert sorted(p.name for p in out.iterdir()) == [*names, "sweep.csv"]
        assert [line.split(": best epoch ")[0] for line in lines] == [
            f"run {out / name} complete" for name in names]
        rows = [line.split(",") for line in (out / "sweep.csv").read_text().splitlines()[1:]]
        for text, name, row in zip(("0", "0.5"), names, rows):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_text(SYNTH_CFG + f"gamma = {text}\n", encoding="utf-8")
            single = tmp_path / f"train-{name}"
            assert run("--config", cfg, "--out", single, "--quiet", "train") == 0
            assert_same_files(out / name, single)
            report = json.loads((single / "report.json").read_text())
            assert row == [name.split("=")[1], repr(report["overall"]["recall@10"]),
                           repr(report["overall"]["ndcg@10"]),
                           repr(report["ugf"]["recall@10"]), repr(report["ugf"]["ndcg@10"])]
        # a point is a run that eval and theory read
        point = out / "gamma=0.5"
        assert run("--config", cfg_file, "--out", tmp_path / "e", "--quiet", "eval",
                   "--run", point) == 0
        assert run("--out", tmp_path / "t", "--quiet", "theory",
                   "--snapshot", point / "snapshot.bin", "--attrs", point / "groups.tsv",
                   "--overlap", point / "overlap.tsv") == 0

    def test_epsilon_changes_the_run(self, tmp_path):
        """``epsilon`` reaches the sampler. At ``group_split = 0.2`` this
        fixture's tracker alpha stays within 0.0039 of 0 (measured: -0.0039
        to -0.0034 over the 3 epochs), so exp(-epsilon * alpha) is within
        0.4% of 1 at epsilon 1 but up to 1.21 at epsilon 50."""
        cfg = tmp_path / "eps.cfg"
        cfg.write_text(SYNTH_CFG + "group_split = 0.2\n", encoding="utf-8")
        out = tmp_path / "sweep"
        assert run("--config", cfg, "--out", out, "--quiet", "sweep",
                   "--axis", "epsilon", "--values", "0,50") == 0
        log = (out / "epsilon=50.0" / "runlog.jsonl").read_text().splitlines()
        assert max(abs(json.loads(line)["alpha_g0"]) for line in log) < 0.004
        assert ((out / "epsilon=0.0" / "snapshot.bin").read_bytes()
                != (out / "epsilon=50.0" / "snapshot.bin").read_bytes())

    def test_cutoffs_without_k10_refused_before_training(self, tmp_path, capsys):
        cfg = tmp_path / "ks.cfg"
        cfg.write_text(SYNTH_CFG + "eval_ks = 5,20\n", encoding="utf-8")
        out = tmp_path / "sweep"
        assert run("--config", cfg, "--out", out, "--quiet", "sweep",
                   "--axis", "gamma", "--values", "0.5") == 1
        assert capsys.readouterr().err == (
            "error: sweep writes columns at K = 10: eval_ks must include them, got 5,20\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("axis, values, message", [
        ("candidate_size", "4,0", "candidate_size must be >= 1"),
        ("epsilon", "1,nan", "epsilon must be finite, got nan"),
        ("epsilon", "1,-1", "epsilon must be >= 0"),
        ("gamma", "0.5,-1", "l2_reg and gamma must be >= 0"),
    ])
    def test_bad_axis_value_refused_before_training(self, tmp_path, cfg_file, capsys,
                                                    axis, values, message):
        out = tmp_path / "sweep"
        assert run("--config", cfg_file, "--out", out, "--quiet", "sweep",
                   "--axis", axis, "--values", values) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("axis, values", [("gamma", "0.5,0.50"),
                                              ("candidate_size", "4,2,04")])
    def test_repeated_value_refused_before_data(self, tmp_path, cfg_file, capsys,
                                                monkeypatch, axis, values):
        def no_data(self):
            raise AssertionError("data made before the values were checked")

        monkeypatch.setattr(crossfair.cli.RunConfig, "dataset", no_data)
        out = tmp_path / "sweep"
        assert run("--config", cfg_file, "--out", out, "--quiet", "sweep",
                   "--axis", axis, "--values", values) == 1
        assert capsys.readouterr().err == (
            f"error: --values: expected distinct {axis} values, got {values}\n")
        assert not out.exists()

    def test_unknown_axis_usage_error(self, tmp_path, cfg_file):
        assert run("--config", cfg_file, "--out", tmp_path / "s", "--quiet",
                   "sweep", "--axis", "nonsense", "--values", "1") == 1


class TestTheoryCommand:
    def test_bound_report_from_run(self, tmp_path, cfg_file):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        out = tmp_path / "theory"
        assert run("--out", out, "--quiet", "theory",
                   "--snapshot", run_dir / "snapshot.bin",
                   "--attrs", run_dir / "groups.tsv",
                   "--overlap", run_dir / "overlap.tsv",
                   "--baseline-ugf", "0.5", "--lf", "auto") == 0
        bound = json.loads((out / "bound.json").read_text())
        assert bound["rhs"] >= 0
        assert bound["preserved"] in (True, False)

    def test_auto_lf_is_spectral_norm_of_probe(self, tmp_path, theory_run):
        out = tmp_path / "theory"
        assert run("--out", out, "--quiet", "theory",
                   "--snapshot", theory_run / "snapshot.bin",
                   "--attrs", theory_run / "groups.tsv",
                   "--overlap", theory_run / "overlap.tsv", "--lf", "auto") == 0
        l_f = json.loads((out / "bound.json").read_text())["l_f"]
        tables, _ = load_snapshot(theory_run / "snapshot.bin")
        probe = tables["item_emb_target"][:64]
        assert l_f == float(np.linalg.norm(probe, 2))
        sources = np.loadtxt(theory_run / "overlap.tsv", dtype=np.int64, skiprows=1)[:, 1]
        points = np.vstack([tables["user_emb_target"], tables["user_emb_source"][sources]])
        assert l_f >= lipschitz_sampled(lambda z: z @ probe.T, points, seed=0)

    @pytest.mark.parametrize("lf, warned", [("1e-3", True), ("auto", False)])
    def test_probe_constant_recorded_and_warned(self, tmp_path, theory_run, capsys, lf,
                                                warned):
        out = tmp_path / "theory"
        assert run("--out", out, "theory",
                   "--snapshot", theory_run / "snapshot.bin",
                   "--attrs", theory_run / "groups.tsv",
                   "--overlap", theory_run / "overlap.tsv", "--lf", lf) == 0
        bound = json.loads((out / "bound.json").read_text())
        tables, _ = load_snapshot(theory_run / "snapshot.bin")
        probe = float(np.linalg.norm(tables["item_emb_target"][:64], 2))
        assert bound["l_f_probe"] == probe
        assert bound["l_f"] == (1e-3 if warned else probe)
        warnings = [line for line in capsys.readouterr().out.splitlines()
                    if line.startswith("warning:")]
        assert warnings == ([f"warning: L_f 0.001 is below {probe:.4f}, the probe map's "
                             "exact Lipschitz constant, so rhs may understate the bound "
                             "for that map"] if warned else [])

    def test_non_finite_probe_recorded_as_null(self, tmp_path, theory_run, capsys):
        tables, _ = load_snapshot(theory_run / "snapshot.bin")
        tables["item_emb_target"][0, 0] = np.nan
        snapshot = tmp_path / "nan.bin"
        write_tables(snapshot, tables)
        out = tmp_path / "theory"
        assert run("--out", out, "theory", "--snapshot", snapshot,
                   "--attrs", theory_run / "groups.tsv",
                   "--overlap", theory_run / "overlap.tsv") == 0
        assert json.loads((out / "bound.json").read_text())["l_f_probe"] is None
        assert "warning:" not in capsys.readouterr().out

    def test_identical_groups_zero_bound(self, tmp_path, cfg_file):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        # collapse every embedding row to one point: all distances vanish
        tables, _ = load_snapshot(run_dir / "snapshot.bin")
        # outside the run directory: a run's state.json vouches only for its own snapshots
        flat = tmp_path / "flat.bin"
        write_tables(flat, {name: np.ones_like(table) for name, table in tables.items()})
        out = tmp_path / "theory0"
        assert run("--out", out, "--quiet", "theory",
                   "--snapshot", flat,
                   "--attrs", run_dir / "groups.tsv",
                   "--overlap", run_dir / "overlap.tsv") == 0
        bound = json.loads((out / "bound.json").read_text())
        assert bound["rhs"] == pytest.approx(0.0, abs=1e-9)


@pytest.fixture(scope="module")
def theory_run(tmp_path_factory):
    """A trained run directory (60 target and 40 source users)."""
    root = tmp_path_factory.mktemp("theory_run")
    cfg = root / "run.cfg"
    cfg.write_text(SYNTH_CFG, encoding="utf-8")
    assert run("--config", cfg, "--out", root / "run", "--quiet", "train") == 0
    return root / "run"


class TestTheoryInputErrors:
    """Each bad input ends with exit 2 and one ``error:`` line, no bound."""

    def theory(self, run_dir, out, *extra, attrs=None, overlap=None):
        return run("--out", out, "--quiet", "theory",
                   "--snapshot", run_dir / "snapshot.bin",
                   "--attrs", attrs or run_dir / "groups.tsv",
                   "--overlap", overlap or run_dir / "overlap.tsv", *extra)

    def assert_refused(self, capsys, out, code, words):
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1 and words in err
        assert not (out / "bound.json").exists()

    @pytest.mark.parametrize("rows, words", [
        ("0\tabc\n", "'abc' is not a dense integer id"),
        ("60\t0\n", "overlap target user id 60 is not a row"),
        ("0\t40\n", "overlap source user id 40 is not a row"),
        ("-1\t0\n", "overlap target user id -1 is not a row"),
        ("0\t-1\n", "overlap source user id -1 is not a row"),
        ("0\t0\n0\t1\n", "listed twice"),
        ("0\t0\n1\t1\n59\t0\n", "overlap source user id 0 is listed twice"),
    ], ids=["non-integer", "target-past-end", "source-past-end", "negative-target",
            "negative-source", "repeated-target", "repeated-source"])
    def test_bad_overlap_row(self, tmp_path, theory_run, capsys, rows, words):
        overlap = tmp_path / "overlap.tsv"
        overlap.write_text("target_user_id\tsource_user_id\n" + rows, encoding="utf-8")
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, overlap=overlap)
        self.assert_refused(capsys, out, code, words)

    def test_non_integer_ids_exact_message(self, tmp_path, theory_run, capsys):
        overlap = tmp_path / "overlap.tsv"
        overlap.write_text("target_user_id\tsource_user_id\n0\t0\n1\t+1\n2\tx2\n",
                           encoding="utf-8")
        attrs = tmp_path / "groups.tsv"
        attrs.write_text((theory_run / "groups.tsv").read_text(encoding="utf-8")
                         + "u7\tA\n99999999999999999999\tB\n", encoding="utf-8")
        for kwargs, path, cell in ((dict(overlap=overlap), overlap, "x2"),
                                   (dict(attrs=attrs), attrs, "u7")):
            assert self.theory(theory_run, tmp_path / "theory", **kwargs) == 2
            assert capsys.readouterr().err == (
                f"error: {path}: user id {cell!r} is not a dense integer id\n")
        attrs.write_text((theory_run / "groups.tsv").read_text(encoding="utf-8")
                         + "99999999999999999999\tB\n", encoding="utf-8")
        assert self.theory(theory_run, tmp_path / "theory", attrs=attrs) == 2
        assert capsys.readouterr().err == (
            f"error: {attrs}: user id '99999999999999999999' is not a dense integer id\n")
        assert not (tmp_path / "theory" / "bound.json").exists()

    def test_missing_overlap_file(self, tmp_path, theory_run, capsys):
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, overlap=tmp_path / "absent.tsv")
        self.assert_refused(capsys, out, code, "cannot read")

    def test_missing_snapshot_file(self, tmp_path, theory_run, capsys):
        out = tmp_path / "theory"
        code = run("--out", out, "--quiet", "theory", "--snapshot", tmp_path / "absent.bin",
                   "--attrs", theory_run / "groups.tsv",
                   "--overlap", theory_run / "overlap.tsv")
        self.assert_refused(capsys, out, code, "cannot read")

    @pytest.mark.parametrize("user, words", [
        ("60", "target user id 60 is not a row"),
        ("-1", "target user id -1 is not a row"),
    ], ids=["past-end", "negative"])
    def test_bad_attrs_id(self, tmp_path, theory_run, capsys, user, words):
        attrs = tmp_path / "groups.tsv"
        attrs.write_text((theory_run / "groups.tsv").read_text(encoding="utf-8")
                         + f"{user}\tA\n", encoding="utf-8")
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, attrs=attrs)
        self.assert_refused(capsys, out, code, words)

    def test_overlap_target_without_attribute(self, tmp_path, theory_run, capsys):
        header, first, *rest = (theory_run / "groups.tsv").read_text(
            encoding="utf-8").splitlines(keepends=True)
        assert first.startswith("0\t")
        attrs = tmp_path / "groups.tsv"
        attrs.write_text(header + "".join(rest), encoding="utf-8")
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, attrs=attrs)
        self.assert_refused(capsys, out, code, "overlap target user 0 has no group attribute")

    @pytest.mark.parametrize("flag, value", [
        ("--subsample", "0"), ("--subsample", "-3"),
        ("--repetitions", "0"), ("--repetitions", "-2"),
    ])
    def test_nonpositive_w1_budget(self, tmp_path, theory_run, capsys, flag, value):
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, flag, value)
        self.assert_refused(capsys, out, code, "subsample size and repetitions must be >= 1")

    @pytest.mark.parametrize("flag, value", [
        ("--lo", "0"), ("--lo", "inf"), ("--lf", "nan"), ("--lf", "-1"),
    ])
    def test_bad_lipschitz_constant(self, tmp_path, theory_run, capsys, flag, value):
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, flag, value)
        self.assert_refused(capsys, out, code, "Lipschitz constants must be positive and finite")

    def test_lf_neither_auto_nor_number(self, tmp_path, theory_run, capsys):
        out = tmp_path / "theory"
        assert self.theory(theory_run, out, "--lf", "x") == 1
        assert capsys.readouterr().err == "error: --lf expects 'auto' or a number, got 'x'\n"
        assert not out.exists()

    def test_non_finite_probe_row(self, tmp_path, theory_run, capsys):
        tables, _ = load_snapshot(theory_run / "snapshot.bin")
        tables["item_emb_target"][0, 0] = np.nan
        snapshot = tmp_path / "nan.bin"
        write_tables(snapshot, tables)
        out = tmp_path / "theory"
        code = run("--out", out, "--quiet", "theory", "--snapshot", snapshot,
                   "--attrs", theory_run / "groups.tsv",
                   "--overlap", theory_run / "overlap.tsv", "--lf", "auto")
        self.assert_refused(capsys, out, code, "Lipschitz constants must be positive and finite")

    @pytest.mark.parametrize("flag, value", [
        ("--baseline-ugf", "nan"), ("--baseline-ugf", "inf"), ("--baseline-ugf", "-0.1"),
    ])
    def test_bad_ugf(self, tmp_path, theory_run, capsys, flag, value):
        out = tmp_path / "theory"
        code = self.theory(theory_run, out, flag, value)
        name = flag[2:].replace("-", "_")
        self.assert_refused(capsys, out, code, f"{name} must be finite and >= 0, got {value}")

    def test_measured_ugf_is_no_option(self, tmp_path, theory_run, capsys):
        out = tmp_path / "theory"
        assert self.theory(theory_run, out, "--measured-ugf", "0.5") == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "--measured-ugf" in err
        assert not out.exists()


@pytest.fixture(scope="module")
def other_run(tmp_path_factory):
    """A run of the same shape as ``theory_run`` from another seed."""
    root = tmp_path_factory.mktemp("other_run")
    cfg = root / "run.cfg"
    cfg.write_text(SYNTH_CFG, encoding="utf-8")
    assert run("--config", cfg, "--seed", "11", "--out", root / "run", "--quiet", "train") == 0
    return root / "run"


class TestTheoryChecksRunInputs:
    """With a ``state.json`` next to the snapshot, ``theory`` refuses labels or
    a snapshot that the run did not write."""

    def theory(self, snapshot, labels_dir, out):
        return run("--out", out, "--quiet", "theory", "--snapshot", snapshot,
                   "--attrs", labels_dir / "groups.tsv", "--overlap", labels_dir / "overlap.tsv")

    def test_state_holds_digests(self, theory_run):
        state = json.loads((theory_run / "state.json").read_text(encoding="utf-8"))
        assert len(state["labels_sha256"]) == 64
        assert set(state["snapshot_sha256"]) == {"snapshot.bin", "snapshot_final.bin"}

    def test_another_runs_labels_refused(self, tmp_path, theory_run, other_run, capsys):
        assert ((theory_run / "groups.tsv").read_bytes()
                != (other_run / "groups.tsv").read_bytes())
        out = tmp_path / "theory"
        assert self.theory(theory_run / "snapshot.bin", other_run, out) == 2
        assert capsys.readouterr().err == (
            "error: --attrs and --overlap differ from the labels the run was trained with "
            "(labels_sha256 mismatch): use the run's groups.tsv and overlap.tsv\n")
        assert not (out / "bound.json").exists()

    def test_another_runs_snapshot_refused(self, tmp_path, theory_run, other_run, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(theory_run, run_dir)
        shutil.copyfile(other_run / "snapshot.bin", run_dir / "snapshot.bin")
        out = tmp_path / "theory"
        assert self.theory(run_dir / "snapshot.bin", run_dir, out) == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'snapshot.bin'} is not a snapshot the run in {run_dir} wrote "
            f"(snapshot_sha256 mismatch)\n")
        assert not (out / "bound.json").exists()

    def test_malformed_snapshot_digests_refused(self, tmp_path, theory_run, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(theory_run, run_dir)
        state = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        state["snapshot_sha256"] = "0" * 64
        (run_dir / "state.json").write_text(json.dumps(state), encoding="utf-8")
        assert self.theory(run_dir / "snapshot.bin", run_dir, tmp_path / "theory") == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'state.json'}: snapshot_sha256 must map file names to "
            f"digests\n")

    def test_final_snapshot_and_reordered_rows_accepted(self, tmp_path, theory_run):
        labels = tmp_path / "labels"
        labels.mkdir()
        for name in ("groups.tsv", "overlap.tsv"):
            header, *rows = (theory_run / name).read_text(encoding="utf-8").splitlines(True)
            (labels / name).write_text(header + "".join(rows[::-1]), encoding="utf-8")
        assert self.theory(theory_run / "snapshot_final.bin", labels, tmp_path / "theory") == 0

    def test_labels_digest(self, tmp_path, theory_run):
        state = json.loads((theory_run / "state.json").read_text(encoding="utf-8"))
        assert state["labels_sha256"] == (
            "745a9430131c04c131ffcad8021cc547de2bc8d30b3011e5721890e0d9ae5add")
        # theory reads the labels in one order, whatever the files' row order
        for name in ("groups.tsv", "overlap.tsv"):
            header, *rows = (theory_run / name).read_text(encoding="utf-8").splitlines(True)
            (tmp_path / name).write_text(header + "".join(rows[::-1]), encoding="utf-8")
        labels = _read_labels(tmp_path / "groups.tsv", tmp_path / "overlap.tsv")
        assert arrays_sha256(*labels) == state["labels_sha256"]

    def test_without_state_nothing_is_checked(self, tmp_path, theory_run, other_run):
        shutil.copyfile(theory_run / "snapshot.bin", tmp_path / "snapshot.bin")
        assert self.theory(tmp_path / "snapshot.bin", other_run, tmp_path / "theory") == 0


class TestRunState:
    """``eval`` and ``theory`` read a run's ``state.json`` the same way: it must
    hold every digest, and it vouches only for the snapshots the run wrote."""

    def eval(self, cfg_file, run_dir, out):
        return run("--config", cfg_file, "--out", out, "--quiet", "eval", "--run", run_dir)

    def theory(self, snapshot, out):
        return run("--out", out, "--quiet", "theory", "--snapshot", snapshot,
                   "--attrs", snapshot.parent / "groups.tsv",
                   "--overlap", snapshot.parent / "overlap.tsv")

    def test_eval_refuses_another_runs_snapshot(self, tmp_path, cfg_file, theory_run,
                                                other_run, capsys):
        run_dir = tmp_path / "run"
        shutil.copytree(theory_run, run_dir)
        shutil.copyfile(other_run / "snapshot.bin", run_dir / "snapshot.bin")
        out = tmp_path / "e"
        capsys.readouterr()
        assert self.eval(cfg_file, run_dir, out) == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'snapshot.bin'} is not a snapshot the run in {run_dir} wrote "
            f"(snapshot_sha256 mismatch)\n")
        assert not (out / "report.json").exists()

    def test_theory_accepts_epoch_snapshot(self, tmp_path):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text(SYNTH_CFG + "snapshot_every = 1\n", encoding="utf-8")
        run_dir = tmp_path / "run"
        assert run("--config", cfg, "--out", run_dir, "--quiet", "train") == 0
        state = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        names = ["snapshot.bin", "snapshot_final.bin",
                 *(f"snapshot_epoch_{epoch}.bin" for epoch in range(3))]
        assert sorted(state["snapshot_sha256"]) == sorted(names)
        assert self.theory(run_dir / "snapshot_epoch_0.bin", tmp_path / "theory") == 0
        assert (tmp_path / "theory" / "bound.json").exists()

    @pytest.mark.parametrize("key", ["dataset_sha256", "labels_sha256", "snapshot_sha256"])
    @pytest.mark.parametrize("command", ["eval", "theory"])
    def test_state_without_digest_refused(self, tmp_path, cfg_file, theory_run, capsys,
                                          command, key):
        run_dir = tmp_path / "run"
        shutil.copytree(theory_run, run_dir)
        state = json.loads((run_dir / "state.json").read_text(encoding="utf-8"))
        del state[key]
        (run_dir / "state.json").write_text(json.dumps(state), encoding="utf-8")
        out = tmp_path / "out"
        capsys.readouterr()
        if command == "eval":
            assert self.eval(cfg_file, run_dir, out) == 2
        else:
            assert self.theory(run_dir / "snapshot.bin", out) == 2
        assert capsys.readouterr().err == (
            f"error: {run_dir / 'state.json'}: run state has no {key}, so it cannot vouch "
            f"for the run's inputs: train the run again\n")
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n", encoding="utf-8")
        assert run("--config", cfg, "--quiet", "synth") == 1

    # every mix of data-file settings and ``synth = true`` but the two complete sources
    @pytest.mark.parametrize("given, synthetic", [
        pytest.param(given, synthetic, id="+".join(name.split("_")[0] for name in given)
                     + "-synth" * synthetic or "none")
        for n in range(4) for given in combinations(DATA_FILE_KEYS, n)
        for synthetic in (False, True) if (n, synthetic) not in ((0, True), (3, False))])
    def test_data_source_settings(self, tmp_path, capsys, given, synthetic):
        if synthetic:
            message = "specify either data files or synthetic settings, not both"
        elif not given:
            message = "no data source: set file paths or synth = true"
        else:
            message = "missing data settings: " + ", ".join(
                name for name in DATA_FILE_KEYS if name not in given)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("".join(f"{name} = x\n" for name in given)
                       + ("synth = true\n" if synthetic else ""), encoding="utf-8")
        out = tmp_path / "o"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value", [
        ("embedding_dim", "abc"),
        ("epochs", "1.5"),
        ("seed", "7x"),
        ("learning_rate", "fast"),
        ("candidate_size", "4.0"),
        ("epsilon", "1,0"),
        ("eval_ks", "10,twenty"),
        ("eval_ks", "0,10"),
        ("estimator_hidden", "64;32"),
        ("n_users_target", "1e3"),
        ("rng_seed", "3.0"),
        ("overlap_fraction", "half"),
    ])
    def test_bad_value_names_key(self, tmp_path, cfg_file, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {key}: ") and err.count("\n") == 1
        assert not (out / "runlog.jsonl").exists()

    @pytest.mark.parametrize("key", ["use_alpha", "use_redistribution", "partition_checks"])
    def test_dropped_flags_are_unknown_keys(self, tmp_path, cfg_file, capsys, key):
        cfg = tmp_path / "old.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = false\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 1
        assert capsys.readouterr().err == f"error: unknown config key {key!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", ["synth", "train"])
    @pytest.mark.parametrize("below, reason", [
        pytest.param("", "File exists", id="file"),
        pytest.param("run", "Not a directory", id="below-file"),
    ])
    def test_out_naming_a_file(self, tmp_path, cfg_file, capsys, command, below, reason):
        blocker = tmp_path / "taken"
        blocker.write_text("keep\n", encoding="utf-8")
        out = blocker / below if below else blocker
        assert run("--config", cfg_file, "--out", out, "--quiet", command) == 1
        assert capsys.readouterr().err == \
            f"error: cannot create output directory {out}: {reason}\n"
        assert blocker.read_text(encoding="utf-8") == "keep\n"

    def test_ablate_variant_directory_naming_a_file(self, tmp_path, cfg_file, capsys):
        out = tmp_path / "abl"
        out.mkdir()
        (out / "full").write_text("keep\n", encoding="utf-8")
        assert run("--config", cfg_file, "--out", out, "--quiet", "ablate") == 1
        assert capsys.readouterr().err == f"error: cannot write {out / 'full'}: File exists\n"
        assert (out / "full").read_text(encoding="utf-8") == "keep\n"

    def test_eval_report_naming_a_directory(self, tmp_path, cfg_file, theory_run, capsys):
        out = tmp_path / "ev"
        (out / "report.json").mkdir(parents=True)
        assert run("--config", cfg_file, "--out", out, "--quiet", "eval",
                   "--run", theory_run) == 1
        assert capsys.readouterr().err == \
            f"error: cannot write {out / 'report.json'}: Is a directory\n"

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_float_is_data_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "run"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 2
        assert capsys.readouterr().err == f"error: {key} must be finite, got {value}\n"
        assert not (out / "runlog.jsonl").exists()

    @pytest.mark.parametrize("key, value", [("beta", "1.5"), ("estimator_dropout", "1.0")])
    @pytest.mark.parametrize("command", [["train"], ["ablate"],
                                         ["sweep", "--axis", "gamma", "--values", "0,0.5"]],
                             ids=["train", "ablate", "sweep"])
    def test_unit_interval_keys_refused_before_outputs(self, tmp_path, capsys, command,
                                                       key, value):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", *command) == 2
        assert capsys.readouterr().err == f"error: {key} must lie in [0, 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("epochs", "-1", "epochs must be >= 0"),
        ("snapshot_every", "-1", "snapshot_every must be >= 0"),
        ("patience", "0", "patience must be >= 1"),
        ("batch_size", "0", "batch_size must be >= 1"),
    ])
    @pytest.mark.parametrize("command", [["train"], ["ablate"],
                                         ["sweep", "--axis", "gamma", "--values", "0,0.5"]],
                             ids=["train", "ablate", "sweep"])
    def test_epoch_counts_refused_before_outputs(self, tmp_path, capsys, command, key, value,
                                                 message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", *command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["ablate"],
                                         ["sweep", "--axis", "gamma", "--values", "0,0.5"]],
                             ids=["train", "ablate", "sweep"])
    def test_zero_embedding_dim_refused_before_outputs(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + "embedding_dim = 0\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", *command) == 2
        assert capsys.readouterr().err == "error: embedding dimension must be >= 1\n"
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["ablate"],
                                         ["sweep", "--axis", "gamma", "--values", "0,0.5"]],
                             ids=["train", "ablate", "sweep"])
    def test_split_without_heldout_positives_refused_before_training(self, tmp_path, capsys,
                                                                     command):
        # 8 interactions per user leave no validation or test positive
        cfg = tmp_path / "thin.cfg"
        cfg.write_text(SYNTH_CFG.replace("_items_source = 40", "_items_source = 50")
                       .replace("_items_target = 40", "_items_target = 50")
                       .replace("interactions_per_user = 10", "interactions_per_user = 8")
                       .replace("epochs = 3\n", "epochs = 30\npatience = 3\n"),
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", *command) == 2
        assert capsys.readouterr().err == (
            "error: the split has no target validation positives: a target user needs "
            "at least 10 interactions for a validation or test positive\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [["train"], ["ablate"],
                                         ["sweep", "--axis", "gamma", "--values", "0,0.5"]],
                             ids=["train", "ablate", "sweep"])
    def test_group_without_heldout_positives_refused_before_training(
            self, tmp_path, cfg_file, capsys, command, monkeypatch):
        # group B's target users keep 5 interactions each: no validation positive
        data = tmp_path / "data"
        assert run("--config", cfg_file, "--out", data, "--quiet", "synth") == 0
        group_b = {line.split("\t")[0] for line in
                   (data / "attributes.tsv").read_text(encoding="utf-8").splitlines()[1:]
                   if line.endswith("\tB")}
        header, *rows = (data / "interactions_target.tsv").read_text(
            encoding="utf-8").splitlines(keepends=True)
        kept, seen = [], {}
        for row in rows:
            user = row.split("\t")[0]
            seen[user] = seen.get(user, 0) + 1
            if user not in group_b or seen[user] <= 5:
                kept.append(row)
        (data / "interactions_target.tsv").write_text(header + "".join(kept), encoding="utf-8")
        cfg = tmp_path / "files.cfg"
        cfg.write_text(
            f"source_interactions = {data / 'interactions_source.tsv'}\n"
            f"target_interactions = {data / 'interactions_target.tsv'}\n"
            f"attributes = {data / 'attributes.tsv'}\n"
            "embedding_dim = 8\nepochs = 2\nbatch_size = 128\nseed = 3\n",
            encoding="utf-8",
        )
        epochs = []
        inner = trainer_mod.train_epoch

        def counting(*args, **kwargs):
            epochs.append(1)
            return inner(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_epoch", counting)
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", *command) == 2
        assert capsys.readouterr().err == (
            "error: the split has no target validation positives in group 1 (B): a user of "
            "that group needs at least 10 interactions for a validation or test positive\n")
        assert epochs == []
        assert not out.exists()

    @pytest.mark.parametrize("text, message", [
        (SYNTH_CFG + "sharing_mode = bogus\n", "unknown sharing_mode 'bogus'"),
        (None, "cannot read config {cfg}: [Errno 2] No such file or directory: '{cfg}'"),
    ], ids=["sharing-mode", "unreadable-config"])
    def test_bad_config_is_usage_error(self, tmp_path, capsys, text, message):
        cfg = tmp_path / "run.cfg"
        if text is not None:
            cfg.write_text(text, encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 1
        assert capsys.readouterr().err == f"error: {message.format(cfg=cfg)}\n"
        assert not out.exists()

    @pytest.mark.parametrize("key, value, message", [
        ("latent_dim", "0", "all synthetic counts must be positive"),
        ("overlap_fraction", "1.5", "overlap_fraction must lie in [0, 1]"),
        ("group_split", "1", "group_split must lie in (0, 1)"),
        ("source_disparity", "0.5", "source_disparity must be >= 1"),
        ("domain_shift", "2", "domain_shift must lie in [0, 1]"),
        ("source_density_ratio", "0", "source_density_ratio must be >= 1"),
        ("interactions_per_user", "41", "interactions_per_user exceeds the item count"),
        ("source_density_ratio", "5", "interactions_per_user exceeds the item count"),
        ("overlap_fraction", "1", "overlap_fraction implies more overlapping users than "
                                  "source users"),
    ], ids=["count", "overlap", "group-split", "disparity", "shift", "density",
            "target-items", "source-items", "overlap-users"])
    @pytest.mark.parametrize("command", ["synth", "train"])
    def test_bad_synthetic_setting_refused_before_outputs(self, tmp_path, capsys, command,
                                                          key, value, message):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = {value}\n", encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", command) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_source_user_without_negatives_refused(self, tmp_path, cfg_file, capsys):
        # source user u0 holds all 4 source items, so no negative can be drawn for it
        data = tmp_path / "data"
        assert run("--config", cfg_file, "--out", data, "--quiet", "synth") == 0
        (data / "interactions_source.tsv").write_text(
            "user_id\titem_id\n" + "".join(f"u0\tsi{i}\n" for i in range(4))
            + "u1\tsi0\nu2\tsi1\n", encoding="utf-8")
        cfg = tmp_path / "files.cfg"
        cfg.write_text(f"source_interactions = {data / 'interactions_source.tsv'}\n"
                       f"target_interactions = {data / 'interactions_target.tsv'}\n"
                       f"attributes = {data / 'attributes.tsv'}\n"
                       "embedding_dim = 8\nepochs = 2\nbatch_size = 128\nseed = 3\n",
                       encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 2
        assert capsys.readouterr().err == "error: user 0 has no eligible negative items\n"
        assert not out.exists()

    def test_synth_false_with_synthetic_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG.replace("synth = true", "synth = false"), encoding="utf-8")
        out = tmp_path / "run"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 1
        assert capsys.readouterr().err == \
            "error: synth = false conflicts with synthetic setting 'n_users_source'\n"
        assert not out.exists()

    def test_nonpositive_hidden_size_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + "estimator_hidden = 64,-5\n", encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "run", "--quiet", "train") == 2
        assert capsys.readouterr().err == "error: estimator_hidden sizes must be >= 1\n"

    def test_bad_eval_cutoffs(self, tmp_path, cfg_file):
        assert run("--config", cfg_file, "--out", tmp_path / "e", "--quiet", "eval",
                   "--run", tmp_path / "none", "--k", "ten") == 1

    @pytest.mark.parametrize("what, extra_key, argv", [
        pytest.param("eval_ks", "eval_ks = 10,20,10\n", ["train"], id="train"),
        pytest.param("--k", "", ["eval", "--run", "none", "--k", "10,20,10"], id="eval"),
    ])
    def test_repeated_cutoff_refused(self, tmp_path, capsys, what, extra_key, argv):
        cfg = tmp_path / "ks.cfg"
        cfg.write_text(SYNTH_CFG + extra_key, encoding="utf-8")
        out = tmp_path / "out"
        assert run("--config", cfg, "--out", out, "--quiet", *argv) == 1
        assert capsys.readouterr().err == \
            f"error: {what}: expected distinct cutoffs, got (10, 20, 10)\n"
        assert not out.exists()


FUZZ_KEYS = CONFIG_KEYS + ("use_alpha", "use_redistribution", "partition_checks",
                           "no_such_key")
CONFIG_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "true", "off", "1e3", "1.5", ",", "10,20", "8,", "-1", "0x10",
                     "shared", "dual", "1_000", "9" * 5000]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), CONFIG_VALUES, max_size=8))
def test_config_fuzz_raises_only_package_errors(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    try:
        resolve_config(parse_config_file(path)).validate()
    except CrossfairError:
        pass


def _resolve_or_error(resolver, values):
    try:
        return repr(resolver(dict(values)))
    except CrossfairError as exc:
        return type(exc), str(exc)


def _synth_false_conflict(values):
    """The first synthetic key of ``values`` when ``synth`` reads false, else None."""
    if values.get("synth", "").lower() not in ("false", "0", "no", "off"):
        return None
    return next((key for key in values if key in SYNTH_KEYS), None)


@settings(max_examples=500, deadline=None)
@given(st.dictionaries(st.sampled_from(FUZZ_KEYS), CONFIG_VALUES, max_size=12))
@example({"synth": "off", "n_users_target": "60", "rng_seed": "2"})
@example({"synth": "No", "n_users_target": "60", "epochs": "many"})
def test_schema_resolver_matches_table_oracle(values):
    # repr compares every field, NaN included
    want = _resolve_or_error(resolve_config_tables, values)
    conflict = _synth_false_conflict(values)
    if conflict is not None and isinstance(want, str):
        # the table resolver let a synthetic key override ``synth = false``
        want = (UsageError, f"synth = false conflicts with synthetic setting {conflict!r}")
    assert _resolve_or_error(resolve_config, values) == want


def test_schema_refuses_a_field_name_used_twice():
    @dataclass
    class Inner:
        seed: int = 0

    @dataclass
    class Outer:
        seed: int = 0
        inner: Inner = field(default_factory=Inner)

    with pytest.raises(TypeError, match="^config field name 'seed' is used twice$"):
        _schema(Outer)


def test_readme_config_block_lists_every_key():
    text = README.read_text(encoding="utf-8")
    block = text.split("### Config file", 1)[1].split("```")[1]
    documented = re.findall(r"(?:^|  )(\w+) = ", block, flags=re.M)
    assert sorted(documented) == sorted(CONFIG_KEYS)


class TestNumericalFailure:
    @pytest.mark.parametrize("key, value, message", [
        ("epsilon", "1e6", "error: temperature exp(-epsilon * alpha) overflows at epsilon 1e+06"),
        ("gamma", "1e300", "error: numerical failure: overflow encountered in multiply"),
        ("l2_reg", "1e300", "error: numerical failure: overflow encountered in multiply"),
        ("learning_rate", "1e300", "error: numerical failure: "),
    ], ids=["epsilon", "gamma", "l2_reg", "learning_rate"])
    def test_overflow_ends_with_one_error_line(self, tmp_path, capsys, key, value, message):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(SYNTH_CFG + f"{key} = {value}\n", encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "out", "--quiet", "train") == 3
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["ablate"],
        ["sweep", "--axis", "epsilon", "--values", "0.5,1"],
    ], ids=["train", "ablate", "sweep"])
    @pytest.mark.parametrize("out", ["fresh", "a/b", "existing"])
    def test_failed_command_takes_back_the_directories_it_made(self, tmp_path, capsys, argv,
                                                               out):
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(SYNTH_CFG + "gamma = 1e300\n", encoding="utf-8")
        work = tmp_path / "work"
        (work / "existing").mkdir(parents=True)
        assert run("--config", cfg, "--out", work / out, "--quiet", *argv) == 3
        err = capsys.readouterr().err
        assert err == "error: numerical failure: overflow encountered in multiply\n"
        # only an --out that existed before the command is left
        assert sorted(p.name for p in work.rglob("*")) == ["existing"]

    def test_failed_train_keeps_a_directory_holding_a_snapshot(self, tmp_path, capsys,
                                                               monkeypatch):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text(SYNTH_CFG + "snapshot_every = 1\n", encoding="utf-8")
        epoch = trainer_mod.train_epoch

        def fail_second_epoch(*args, **kwargs):
            stats = epoch(*args, **kwargs)
            if stats.epoch == 1:
                raise FloatingPointError("overflow encountered in multiply")
            return stats

        monkeypatch.setattr(trainer_mod, "train_epoch", fail_second_epoch)
        out = tmp_path / "a" / "b"
        assert run("--config", cfg, "--out", out, "--quiet", "train") == 3
        assert capsys.readouterr().err.count("\n") == 1
        assert [p.name for p in out.iterdir()] == ["snapshot_epoch_0.bin"]


def in_process(monkeypatch):
    """Run the training draws in the training process instead of a forked child."""
    monkeypatch.setattr(crossfair.sampler, "_fork_context", lambda: None)


def in_the_child_on_call(monkeypatch, n, act):
    """Make the sampler's ``n``-th candidate draw call ``act()``, which only the
    forked child may reach."""
    parent, inner, calls = os.getpid(), crossfair.sampler.batch_candidates, []

    def draw(*args, **kwargs):
        assert os.getpid() != parent, "the draws ran in the training process"
        calls.append(1)
        if len(calls) == n:
            act()
        return inner(*args, **kwargs)

    monkeypatch.setattr(crossfair.sampler, "batch_candidates", draw)


class TestDrawAhead:
    """``train`` draws its negatives one batch ahead in a forked child."""

    @pytest.mark.parametrize("extra", [f"variant:{v}" for v in trainer_mod.VARIANTS]
                             + ["negatives_per_positive = 2", "batch_size = 37"])
    @pytest.mark.parametrize("mode", ["shared", "dual"])
    def test_both_transports_write_the_same_bytes(self, tmp_path, monkeypatch, mode, extra):
        cfg = tmp_path / "run.cfg"
        text = SYNTH_CFG + f"sharing_mode = {mode}\nsnapshot_every = 1\n"
        argv = ["train"]
        if extra.startswith("variant:"):
            argv += ["--ablate", extra.split(":")[1]]
        else:
            text += extra + "\n"
        cfg.write_text(text, encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "child", "--quiet", *argv) == 0
        in_process(monkeypatch)
        assert run("--config", cfg, "--out", tmp_path / "local", "--quiet", *argv) == 0
        assert_same_files(tmp_path / "child", tmp_path / "local")

    def test_a_fork_that_fails_trains_in_process(self, tmp_path, cfg_file, monkeypatch):
        def fail():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", fail)
        assert run("--config", cfg_file, "--out", tmp_path / "unforked", "--quiet",
                   "train") == 0
        in_process(monkeypatch)
        assert run("--config", cfg_file, "--out", tmp_path / "local", "--quiet", "train") == 0
        assert_same_files(tmp_path / "unforked", tmp_path / "local")

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["ablate"],
        ["sweep", "--axis", "epsilon", "--values", "0.5,1"],
    ], ids=["train", "ablate", "sweep"])
    @pytest.mark.parametrize("extra, code", [("", 0), ("gamma = 1e300\n", 3)],
                             ids=["success", "overflow"])
    def test_no_process_outlives_a_command(self, tmp_path, monkeypatch, capsys, argv, extra,
                                           code):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(SYNTH_CFG + extra, encoding="utf-8")
        started = []
        start = multiprocessing.context.ForkProcess.start

        def recording(process):
            started.append(process)
            start(process)

        monkeypatch.setattr(multiprocessing.context.ForkProcess, "start", recording)
        assert run("--config", cfg, "--out", tmp_path / "out", "--quiet", *argv) == code
        assert multiprocessing.active_children() == []
        assert all(p.exitcode is not None for p in started)
        if code == 0:
            assert len(started) == {"train": 1, "ablate": 5, "sweep": 2}[argv[0]]
        else:
            assert capsys.readouterr().err.count("\n") == 1

    def test_no_process_outlives_an_error_raised_in_the_child(self, tmp_path, cfg_file,
                                                              monkeypatch, capsys):
        def refuse():
            raise DataError("drawn wrong")

        in_the_child_on_call(monkeypatch, 3, refuse)
        assert run("--config", cfg_file, "--out", tmp_path / "out", "--quiet", "train") == 2
        assert capsys.readouterr().err == "error: drawn wrong\n"
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()

    def test_no_process_outlives_an_exception_from_an_epoch_wrapper(self, tmp_path,
                                                                    monkeypatch):
        # enough epochs that the child cannot have drawn them all and exited
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(SYNTH_CFG + "epochs = 1000\n", encoding="utf-8")

        class Stop(Exception):
            pass

        epoch = trainer_mod.train_epoch

        def stop_after_first(*args, **kwargs):
            epoch(*args, **kwargs)
            assert len(multiprocessing.active_children()) == 1
            raise Stop

        monkeypatch.setattr(trainer_mod, "train_epoch", stop_after_first)
        with pytest.raises(Stop):
            run("--config", cfg_file, "--out", tmp_path / "out", "--quiet", "train")
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_is_one_error_line(self, tmp_path, cfg_file, monkeypatch,
                                                 capsys):
        in_the_child_on_call(monkeypatch, 3, lambda: os._exit(1))
        assert run("--config", cfg_file, "--out", tmp_path / "out", "--quiet", "train") == 2
        assert capsys.readouterr().err == ("error: the negative-sampling process exited with "
                                           "code 1 before it sent all its draws\n")
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "out").exists()

    def test_a_killed_training_process_leaves_no_child(self, tmp_path):
        # the training process forks its child, which fills the pipe and
        # blocks in a send; then it is killed without running any cleanup
        code = textwrap.dedent("""
            import multiprocessing, sys, time
            from pathlib import Path
            import crossfair.trainer
            from crossfair.cli import main

            def stall(*args):
                next(args[6])
                Path(sys.argv[1]).write_text(str(multiprocessing.active_children()[0].pid))
                time.sleep(600)

            crossfair.trainer.train_epoch = stall
            main(["--config", sys.argv[2], "--out", sys.argv[3], "--quiet", "train"])
        """)
        cfg, pid_file = tmp_path / "run.cfg", tmp_path / "child.pid"
        cfg.write_text(SYNTH_CFG + "epochs = 1000\n", encoding="utf-8")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            [str(Path(crossfair.cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
        with open(tmp_path / "stderr", "w") as err:
            proc = subprocess.Popen([sys.executable, "-c", code, pid_file, cfg, tmp_path / "out"],
                                    env=env, stdout=subprocess.DEVNULL, stderr=err)
        try:
            deadline = time.monotonic() + 60
            while not pid_file.exists() and proc.poll() is None and time.monotonic() < deadline:
                time.sleep(0.05)
            assert pid_file.exists(), (tmp_path / "stderr").read_text()
            child = int(pid_file.read_text())
            time.sleep(0.5)
        finally:
            proc.kill()
            proc.wait()
        deadline = time.monotonic() + 30
        while running(child) and time.monotonic() < deadline:
            time.sleep(0.05)
        if running(child):
            os.kill(child, signal.SIGKILL)
            pytest.fail("the negative-sampling process outlived its killed parent")


def running(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"
