import json
import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossfair.cli import SYNTH_KEYS, main, parse_config_file, resolve_config
from crossfair.errors import CrossfairError

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

    def test_capacity_error_exit_code(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth = true\nn_items_source = 4\nn_items_target = 4\n"
                       "interactions_per_user = 9\n", encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "x", "--quiet", "synth") == 2


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
        from crossfair.cli import read_state_bundle

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

    def test_epoch_snapshots_when_configured(self, tmp_path, cfg_file):
        cfg = tmp_path / "snap.cfg"
        cfg.write_text(SYNTH_CFG + "snapshot_every = 1\n", encoding="utf-8")
        out = tmp_path / "run"
        run("--config", cfg, "--out", out, "--quiet", "train")
        for epoch in range(3):
            assert (out / f"snapshot_epoch_{epoch}.bin").exists()

    def test_ablate_flag_matches_flags_off(self, tmp_path):
        base = tmp_path / "base.cfg"
        base.write_text(SYNTH_CFG + "use_alpha = false\nuse_fair_sampling = false\n"
                        "use_redistribution = false\nuse_estimator_loss = false\n",
                        encoding="utf-8")
        plain_cfg = tmp_path / "plain.cfg"
        plain_cfg.write_text(SYNTH_CFG, encoding="utf-8")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run("--config", base, "--out", out_a, "--quiet", "train")
        run("--config", plain_cfg, "--out", out_b, "--quiet", "train", "--ablate", "plain")
        assert (out_a / "runlog.jsonl").read_bytes() == (out_b / "runlog.jsonl").read_bytes()
        assert (out_a / "snapshot.bin").read_bytes() == (out_b / "snapshot.bin").read_bytes()

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

    def test_state_without_fingerprint_still_evaluates(self, tmp_path, cfg_file):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        state = json.loads((run_dir / "state.json").read_text())
        del state["dataset_sha256"]
        (run_dir / "state.json").write_text(json.dumps(state), encoding="utf-8")
        out = tmp_path / "e"
        assert run("--config", cfg_file, "--out", out, "--quiet", "eval", "--run", run_dir) == 0
        assert (out / "report.json").read_bytes() == (run_dir / "report.json").read_bytes()

    def test_untrained_model_near_random_expectation(self, tmp_path, cfg_file):
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SYNTH_CFG.replace("epochs = 3", "epochs = 0"), encoding="utf-8")
        run_dir = tmp_path / "run0"
        run("--config", cfg, "--out", run_dir, "--quiet", "train")
        report = json.loads((run_dir / "report.json").read_text())
        # random ranking: E[recall@k] = k / n_eligible; 10 per-user positives,
        # 9 in train+val, 40 items => 31 eligible
        expected = 10.0 / 31.0
        assert report["overall"]["recall@10"] < 3 * expected
        assert report["overall"]["recall@10"] > expected / 3


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


class TestSweepCommand:
    def test_candidate_size_sweep(self, tmp_path, cfg_file):
        out = tmp_path / "sweep"
        assert run("--config", cfg_file, "--out", out, "--quiet", "sweep",
                   "--axis", "candidate_size", "--values", "1,2,4") == 0
        lines = (out / "sweep.csv").read_text().splitlines()
        assert len(lines) == 4
        assert lines[0].split(",")[0] == "candidate_size"

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

    def test_identical_groups_zero_bound(self, tmp_path, cfg_file):
        run_dir = tmp_path / "run"
        run("--config", cfg_file, "--out", run_dir, "--quiet", "train")
        # collapse every embedding row to one point: all distances vanish
        from crossfair.backbone import load_snapshot, SNAPSHOT_MAGIC
        import struct

        snap = run_dir / "snapshot.bin"
        tables = load_snapshot(snap)
        flat = snap.with_name("flat.bin")
        with open(flat, "wb") as fh:
            fh.write(SNAPSHOT_MAGIC)
            fh.write(struct.pack("<I", 1))
            for name in ("user_emb_source", "user_emb_target",
                         "item_emb_source", "item_emb_target"):
                arr = np.ones_like(tables[name])
                rows, cols = arr.shape
                fh.write(struct.pack("<QQ", rows, cols))
                fh.write(arr.astype("<f4").tobytes())
        out = tmp_path / "theory0"
        assert run("--out", out, "--quiet", "theory",
                   "--snapshot", flat,
                   "--attrs", run_dir / "groups.tsv",
                   "--overlap", run_dir / "overlap.tsv") == 0
        bound = json.loads((out / "bound.json").read_text())
        assert bound["rhs"] == pytest.approx(0.0, abs=1e-9)


class TestUsageErrors:
    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("nonsense_key = 1\n", encoding="utf-8")
        assert run("--config", cfg, "--quiet", "synth") == 1

    def test_both_data_sources_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("synth = true\nsource_interactions = x\n"
                       "target_interactions = y\nattributes = z\n", encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "o", "--quiet", "train") == 1

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

    def test_nonpositive_hidden_size_is_data_error(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(SYNTH_CFG + "estimator_hidden = 64,-5\n", encoding="utf-8")
        assert run("--config", cfg, "--out", tmp_path / "run", "--quiet", "train") == 2
        assert capsys.readouterr().err == "error: estimator_hidden sizes must be >= 1\n"

    def test_bad_eval_cutoffs(self, tmp_path, cfg_file):
        assert run("--config", cfg_file, "--out", tmp_path / "e", "--quiet", "eval",
                   "--run", tmp_path / "none", "--k", "ten") == 1


CONFIG_KEYS = SYNTH_KEYS + (
    "synth", "source_interactions", "target_interactions", "attributes", "embedding_dim",
    "sharing_mode", "seed", "learning_rate", "batch_size", "l2_reg", "epochs", "gamma",
    "beta", "patience", "estimator_dropout", "estimator_lr", "snapshot_every",
    "include_source", "use_alpha", "use_fair_sampling", "use_redistribution",
    "use_estimator_loss", "partition_checks", "epsilon", "candidate_size",
    "negatives_per_positive", "estimator_hidden", "eval_ks", "no_such_key",
)
CONFIG_VALUES = st.one_of(
    st.integers(-10**6, 10**6).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "true", "off", "1e3", "1.5", ",", "10,20", "8,", "-1", "0x10",
                     "shared", "dual", "1_000", "9" * 5000]),
    st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
)


@settings(max_examples=300, deadline=None)
@given(st.dictionaries(st.sampled_from(CONFIG_KEYS), CONFIG_VALUES, max_size=8))
def test_config_fuzz_raises_only_package_errors(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("cfg") / "fuzz.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in values.items()), encoding="utf-8")
    try:
        resolve_config(parse_config_file(path)).validate()
    except CrossfairError:
        pass
