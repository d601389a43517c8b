import numpy as np
import pytest
from scipy import stats

from crossfair.data import (
    SynthConfig,
    build_dataset,
    generate_synthetic,
    load_attributes,
    load_interactions,
    split_per_user,
    synthetic_rank_quality,
    write_attributes,
    write_interactions,
)
from crossfair.errors import DataError

from conftest import micro_dataset, small_synth
from oracles import split_per_user_loop


def rows(pairs):
    return [tuple(p) for p in pairs.tolist()]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadInteractions:
    def test_dedup_and_first_seen_densify(self, tmp_path):
        p = write(tmp_path / "x.tsv", "user_id\titem_id\nu1\ti1\nu1\ti1\nu2\ti3\n")
        loaded = load_interactions(p)
        assert loaded.pairs.tolist() == [[0, 0], [1, 1]]
        assert loaded.user_ids == ["u1", "u2"]
        assert loaded.item_ids == ["i1", "i3"]

    def test_empty_body_errors(self, tmp_path):
        p = write(tmp_path / "x.tsv", "user_id\titem_id\n")
        with pytest.raises(DataError, match="no interactions"):
            load_interactions(p)

    def test_extra_columns_ignored(self, tmp_path):
        p = write(
            tmp_path / "x.tsv",
            "user_id\titem_id\ttimestamp\na\tx\t111\nb\ty\t222\nc\tz\t333\n",
        )
        loaded = load_interactions(p)
        assert loaded.pairs.tolist() == [[0, 0], [1, 1], [2, 2]]

    def test_malformed_row_reports_line(self, tmp_path):
        p = write(tmp_path / "x.tsv", "user_id\titem_id\na\tx\nbroken\n")
        with pytest.raises(DataError, match=":3"):
            load_interactions(p)

    def test_roundtrip_identity_on_densified(self, tmp_path, synth_ds):
        p = tmp_path / "t.tsv"
        write_interactions(p, synth_ds.interactions_target)
        loaded = load_interactions(p)
        users = np.array(loaded.user_ids, dtype=np.int64)[loaded.pairs[:, 0]]
        items = np.array(loaded.item_ids, dtype=np.int64)[loaded.pairs[:, 1]]
        np.testing.assert_array_equal(np.column_stack([users, items]),
                                      synth_ds.interactions_target)

    def test_roundtrip_through_raw_ids(self, tmp_path, synth_ds):
        p = tmp_path / "t.tsv"
        write_interactions(p, synth_ds.interactions_target,
                           synth_ds.raw_ids["users_target"],
                           synth_ds.raw_ids["items_target"])
        loaded = load_interactions(p)
        recovered = [
            (synth_ds.raw_ids["users_target"].index(loaded.user_ids[u]),
             synth_ds.raw_ids["items_target"].index(loaded.item_ids[i]))
            for u, i in loaded.pairs
        ]
        np.testing.assert_array_equal(recovered, synth_ds.interactions_target)


class TestLoadAttributes:
    def test_lexicographic_group_assignment(self, tmp_path):
        p = write(tmp_path / "a.tsv", "user_id\tattribute\na\tF\nb\tM\n")
        mapping, labels = load_attributes(p)
        assert mapping == {"a": 0, "b": 1}
        assert labels == ("F", "M")

    def test_conflict_errors(self, tmp_path):
        p = write(tmp_path / "a.tsv", "user_id\tattribute\na\tF\na\tM\n")
        with pytest.raises(DataError, match="conflicting"):
            load_attributes(p)

    def test_cardinality_errors(self, tmp_path):
        rows = "".join(f"u{i}\t{'XYZ'[i % 3]}\n" for i in range(100))
        p = write(tmp_path / "a.tsv", "user_id\tattribute\n" + rows)
        with pytest.raises(DataError, match="2 distinct"):
            load_attributes(p)
        p1 = write(tmp_path / "b.tsv", "user_id\tattribute\na\tF\nb\tF\n")
        with pytest.raises(DataError, match="2 distinct"):
            load_attributes(p1)

    def test_missing_target_user_rejected(self, tmp_path):
        src = write(tmp_path / "s.tsv", "user_id\titem_id\nu1\ti1\n")
        tgt = write(tmp_path / "t.tsv", "user_id\titem_id\nu1\tj1\nu2\tj2\n")
        attrs = write(tmp_path / "a.tsv", "user_id\tattribute\nu1\tF\nzz\tM\n")
        with pytest.raises(DataError, match="missing from the attribute file"):
            build_dataset(
                load_interactions(src), load_interactions(tgt), load_attributes(attrs)[0]
            )


class TestOverlapDerivation:
    def test_shared_raw_ids_become_overlap(self, tmp_path):
        src = write(tmp_path / "s.tsv", "user_id\titem_id\nu1\ta\nu9\tb\n")
        tgt = write(tmp_path / "t.tsv", "user_id\titem_id\nu3\tc\nu1\td\n")
        attrs = write(tmp_path / "a.tsv", "user_id\tattribute\nu1\tF\nu3\tM\n")
        ds = build_dataset(
            load_interactions(src), load_interactions(tgt), load_attributes(attrs)[0]
        )
        # target dense: u3 -> 0, u1 -> 1; source dense: u1 -> 0
        assert ds.target_to_source.tolist() == [-1, 0]
        assert ds.target_group.tolist() == [1, 0]


class TestSplit:
    def test_target_10_interactions(self, tmp_path):
        ds = small_synth(interactions_per_user=10)
        split = split_per_user(ds, seed=5)
        by_user = {}
        for name, pairs in (
            ("train", split.target_train),
            ("val", split.target_val),
            ("test", split.target_test),
        ):
            for u, _ in pairs:
                by_user.setdefault(u, {"train": 0, "val": 0, "test": 0})
                by_user[u][name] += 1
        for u, counts in by_user.items():
            assert counts == {"train": 8, "val": 1, "test": 1}

    def test_single_interaction_user_keeps_train(self, micro_ds):
        split = split_per_user(micro_ds, seed=0)
        # every micro user has 3 target interactions: floors give 0 val / 0 test
        assert len(split.target_val) == 0 and len(split.target_test) == 0
        assert len(split.target_train) == len(micro_ds.interactions_target)

    def test_source_5_interactions(self, tmp_path):
        ds = small_synth(interactions_per_user=5)
        split = split_per_user(ds, seed=5)
        counts = {}
        for u, _ in split.source_train:
            counts[u] = counts.get(u, 0) + 1
        val_counts = {}
        for u, _ in split.source_val:
            val_counts[u] = val_counts.get(u, 0) + 1
        for u in counts:
            assert counts[u] == 4
            assert val_counts[u] == 1

    def test_partition_and_determinism(self, synth_ds):
        s1 = split_per_user(synth_ds, seed=9)
        s2 = split_per_user(synth_ds, seed=9)
        np.testing.assert_array_equal(s1.target_train, s2.target_train)
        np.testing.assert_array_equal(s1.source_val, s2.source_val)
        whole = np.concatenate([s1.target_train, s1.target_val, s1.target_test])
        assert sorted(rows(whole)) == sorted(rows(synth_ds.interactions_target))
        assert set(rows(s1.target_train)).isdisjoint(rows(s1.target_val))
        assert set(rows(s1.target_train)).isdisjoint(rows(s1.target_test))
        assert set(rows(s1.target_val)).isdisjoint(rows(s1.target_test))


def ragged_synth(seed):
    """small_synth with rows shuffled and about two thirds dropped, so users
    hold from 0 to 10 pairs in no particular item order."""
    ds = small_synth(seed=seed)
    rng = np.random.default_rng(seed)
    for name in ("interactions_source", "interactions_target"):
        pairs = rng.permutation(getattr(ds, name))
        setattr(ds, name, pairs[rng.random(len(pairs)) < 0.35])
    return ds.validate()


class TestSplitMatchesLoopReference:
    @pytest.mark.parametrize("make_ds, seed", [
        (micro_dataset, 11),
        (lambda: small_synth(seed=0), 0),
        (lambda: small_synth(seed=1, interactions_per_user=13), 4),
        (lambda: small_synth(seed=2, interactions_per_user=7, source_density_ratio=3), 9),
        (lambda: ragged_synth(3), 3),
        (lambda: ragged_synth(4), 8),
    ])
    def test_same_pairs_same_order(self, make_ds, seed):
        ds = make_ds()
        split = split_per_user(ds, seed)
        fields = (split.source_train, split.source_val, split.target_train,
                  split.target_val, split.target_test)
        for got, want in zip(fields, split_per_user_loop(ds, seed)):
            assert got.dtype == np.int64 and got.shape == (len(want), 2)
            assert rows(got) == want


def _set(ds, **changes):
    for name, value in changes.items():
        setattr(ds, name, np.array(value))
    return ds


class TestValidateRejects:
    @pytest.mark.parametrize("changes, message", [
        (dict(interactions_source=[(0, 0), (4, 1)]), r"source interaction \(4,1\) out of range"),
        (dict(interactions_target=[(0, 8)]), r"target interaction \(0,8\) out of range"),
        (dict(interactions_target=[(0, 0), (1, 1), (0, 0)]), "duplicate"),
        (dict(target_to_source=[0, -1, 0, -1, 3, -1]), "not injective"),
        (dict(target_to_source=[0, -1, 1, -1, 4, -1]), "overlap value 4 not a source user"),
        (dict(target_group=[0, 0, 1, -1, 0, 1]), r"1 target users lack a group label \(first: 3\)"),
        (dict(target_group=[0, 0, 0, 0, 0, 0]), "two distinct group labels"),
    ], ids=["source-range", "target-range", "duplicate", "non-injective",
            "overlap-range", "unlabelled", "single-group"])
    def test_bad_input(self, changes, message):
        with pytest.raises(DataError, match=message):
            _set(micro_dataset(), **changes).validate()


class TestSynthetic:
    def test_determinism(self):
        a = small_synth(seed=7)
        b = small_synth(seed=7)
        np.testing.assert_array_equal(a.interactions_source, b.interactions_source)
        np.testing.assert_array_equal(a.interactions_target, b.interactions_target)
        np.testing.assert_array_equal(a.target_group, b.target_group)

    def test_capacity_error(self):
        with pytest.raises(DataError):
            SynthConfig(n_items_source=5, n_items_target=5, interactions_per_user=6).validate()

    def test_no_disparity_groups_indistinguishable(self):
        # two-sample KS on the per-user oracle rank quality across 20 seeds
        pvals = []
        for seed in range(20):
            cfg = SynthConfig(
                n_users_source=120, n_users_target=160, overlap_fraction=0.6,
                n_items_source=60, n_items_target=60, latent_dim=8,
                source_disparity=1.0, domain_shift=0.0, interactions_per_user=8,
                rng_seed=seed,
            )
            g0, g1 = synthetic_rank_quality(cfg)
            pvals.append(g1 - g0)
        t, p = stats.ttest_1samp(pvals, 0.0)
        assert p > 0.01

    def test_disparity_corrupts_g1_ordering(self):
        worse = 0
        for seed in range(10):
            cfg = SynthConfig(
                n_users_source=120, n_users_target=160, overlap_fraction=0.6,
                n_items_source=60, n_items_target=60, latent_dim=8,
                source_disparity=4.0, domain_shift=0.0, interactions_per_user=8,
                rng_seed=seed,
            )
            g0, g1 = synthetic_rank_quality(cfg)
            worse += g1 > g0
        assert worse == 10

    def test_disparity_gap_monotone(self):
        gaps = []
        for disparity in (1.0, 2.0, 4.0):
            gap = 0.0
            for seed in range(10):
                cfg = SynthConfig(
                    n_users_source=120, n_users_target=160, overlap_fraction=0.6,
                    n_items_source=60, n_items_target=60, latent_dim=8,
                    source_disparity=disparity, domain_shift=0.0,
                    interactions_per_user=8, rng_seed=seed,
                )
                g0, g1 = synthetic_rank_quality(cfg)
                gap += (g1 - g0) / 10
            gaps.append(gap)
        assert gaps[0] <= gaps[1] <= gaps[2]


class TestWriters:
    def test_attribute_roundtrip(self, tmp_path, synth_ds):
        p = tmp_path / "a.tsv"
        write_attributes(p, synth_ds.target_group, synth_ds.raw_ids["users_target"],
                         synth_ds.group_labels)
        mapping, labels = load_attributes(p)
        assert labels == synth_ds.group_labels
        for u, g in enumerate(synth_ds.target_group):
            assert mapping[synth_ds.raw_ids["users_target"][u]] == g
