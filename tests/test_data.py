import ast
import importlib.util
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

import crossfair.cli
import crossfair.data as data_mod
from crossfair.cli import _read_overlap
from crossfair.data import (
    CrossDomainDataset,
    SynthConfig,
    build_dataset,
    generate_synthetic,
    json_text,
    load_attributes,
    load_interactions,
    split_per_user,
    write_attributes,
    write_csv,
    write_interactions,
)
from crossfair.errors import CrossfairError, DataError

from conftest import micro_dataset, small_synth
from oracles import (
    densify_dict,
    generate_synthetic_direct,
    load_attributes_loop,
    load_interactions_loop,
    read_overlap_loop,
    read_tsv_rows_loop,
    split_per_user_loop,
    synthetic_rank_quality,
    top_items_argsort,
)
from test_acceptance import SEEDS, disparity_fixture
from test_cli import SYNTH_CFG


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

    def test_pairs_keep_file_order_of_first_occurrences(self, tmp_path):
        p = write(tmp_path / "x.tsv", "user_id\titem_id\na\tx\nb\tx\nb\tx\na\ty\nb\tx\n")
        assert load_interactions(p).pairs.tolist() == [[0, 0], [1, 0], [0, 1]]

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


class TestLoaderMessages:
    """Exact messages; a line number counts every line of the file,
    skipped blank lines included."""

    @pytest.mark.parametrize("load, text, message", [
        (load_interactions, "user_id\titem_id\na\tx\n\n \t\nbroken\n",
         "{path}:5: malformed row 'broken'"),
        (load_interactions, "user_id\titem_id\tts\na\tx\t1\nb\t\t2\n",
         "{path}:3: malformed row 'b\\t\\t2'"),
        (load_interactions, "user_id\titem_id\n\u2028a\tx\x85\tb\n",
         "{path}:4: malformed row '\\tb'"),
        (load_attributes, "user_id\tattribute\na\tF\nb\tM\n\na\tM\n",
         "{path}:5: conflicting attribute for user 'a'"),
        (load_interactions, "user\titem_id\na\tx\n",
         "{path}: header must name user_id and item_id columns"),
        (load_attributes, "user_id\titem_id\na\tx\n",
         "{path}: header must name user_id and attribute columns"),
        (load_interactions, "user_id\titem_id\n \n", "{path}: no interactions"),
        (load_interactions, "", "{path}: empty file"),
        (load_attributes, "user_id\tattribute\na\tF\nb\tF\n",
         "{path}: expected exactly 2 distinct attribute values, found 1"),
        (_read_overlap, "target_user_id\tsource_user_id\n0\t1\n2\t3.0\n",
         "{path}: user id '3.0' is not a dense integer id"),
        (_read_overlap, "target_user_id\n0\n",
         "{path}: header must name target_user_id and source_user_id"),
    ], ids=["short-after-blanks", "empty-cell", "unicode-separators", "conflict",
            "interactions-header", "attributes-header", "no-rows", "empty-file",
            "one-attribute", "overlap-non-integer", "overlap-header"])
    def test_message(self, tmp_path, load, text, message):
        p = write(tmp_path / "x.tsv", text)
        with pytest.raises(DataError) as info:
            load(p)
        assert str(info.value) == message.format(path=p)

    def test_invalid_utf8_is_data_error(self, tmp_path):
        p = tmp_path / "x.tsv"
        p.write_bytes(b"user_id\titem_id\n\xff\tx\n")
        with pytest.raises(DataError) as info:
            load_interactions(p)
        assert str(info.value).startswith(f"cannot read {p}: 'utf-8' codec can't decode")

    def test_wide_rows_and_empty_cells_past_the_header(self, tmp_path):
        p = write(tmp_path / "x.tsv", "user_id\titem_id\na\tx\t\t\nb\ty\nb\ty\t9\n")
        loaded = load_interactions(p)
        assert loaded.pairs.tolist() == [[0, 0], [1, 1]]
        assert loaded.user_ids == ["a", "b"] and loaded.item_ids == ["x", "y"]


@pytest.mark.parametrize("body", [
    "a\tx\t1\nb\ty\t2\n\nc\tz\t3\n",
    "a\tx\t1\nb\ty\t2\t\tq\nc\tz\t3\n",
], ids=["uniform", "ragged"])
def test_columns_match_line_loop(tmp_path, body):
    """Rows exactly as wide as the header, or a row wider than it: each
    column's ids gathered by code are the line loop's cells."""
    p = write(tmp_path / "x.tsv", "ts\tuser_id\titem_id\n" + body)
    table = data_mod.read_tsv(p)
    header, rows = read_tsv_rows_loop(p)
    for names in (["user_id", "item_id"], ["ts"], ["item_id", "ts", "user_id"]):
        want = [[cells[header.index(name)] for _, cells in rows] for name in names]
        assert [[ids[c] for c in codes] for codes, ids in table.densify(names, "missing")] == want


# Every separator str.splitlines honours, and cells built to collide: ids
# equal but for a trailing NUL, non-ASCII ids, blanks, integers and text.
SEPARATORS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
              "\u2028", "\u2029"]
BLANKS = ["", " ", "\t", " \t ", "\u3000", "\x1f"]
IDS = ["a", "a\x00", "b", "é", "用户", "1", "-2", " 3", "01", "+4", " ", "x y", "9" * 20]
ANY_CELL = st.one_of(st.sampled_from(IDS + [""]),
                     st.text(st.characters(blacklist_categories=("Cs",)), max_size=3))
ONE_CELL = st.one_of(st.sampled_from(IDS), st.text(st.characters(
    blacklist_categories=("Cs",), blacklist_characters="\t" + "".join(SEPARATORS)),
    min_size=1, max_size=3))


@st.composite
def tsv_texts(draw, columns):
    """2 to 12 lines under a header joined by random separators. The header
    names ``columns``, in either order, with an extra column or not, or is a
    random line. Each column draws its cells from a pool of two or three,
    so duplicate pairs and two-valued attribute columns are common. In half
    of the files a row takes cell k (modulo the pool size) of every column,
    which keeps a user's attribute consistent more often than not; in the
    other half each column picks its own cell. Blank lines are mixed in,
    and in half of the files so are ragged rows of any cells."""
    pools = draw(st.lists(st.lists(ONE_CELL, min_size=2, max_size=3, unique=True),
                          min_size=3, max_size=3))
    picks = st.integers(0, 11)
    if draw(st.booleans()):
        picks = picks.map(lambda k: [k] * 3)
    else:
        picks = st.lists(picks, min_size=3, max_size=3)
    row = st.tuples(picks, st.integers(2, 3)).map(
        lambda kw: "\t".join(pool[k % len(pool)] for pool, k in zip(pools[:kw[1]], kw[0])))
    kinds = [row, st.sampled_from(BLANKS)]
    if draw(st.booleans()):
        kinds.append(st.lists(ANY_CELL, min_size=1, max_size=4).map("\t".join))
    line = st.one_of(kinds)
    lines = draw(st.lists(line, min_size=2, max_size=12))
    headers = st.permutations(columns).map("\t".join)
    header = draw(st.one_of(headers, headers.map(lambda h: h + "\tx"), line))
    seps = draw(st.lists(st.sampled_from(SEPARATORS), min_size=len(lines) + 1,
                         max_size=len(lines) + 1))
    text = header + "".join(sep + line for sep, line in zip(seps, lines))
    return text + seps[-1] * draw(st.booleans())


def outcome(load, path):
    try:
        return "ok", load(path)
    except CrossfairError as exc:
        assert isinstance(exc, DataError)
        return "error", str(exc)


def same_values(got, want):
    if isinstance(want, np.ndarray):
        return got.dtype == want.dtype and got.tolist() == want.tolist()
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(same_values, got, want))
    if isinstance(want, dict):
        return list(got.items()) == list(want.items())
    if hasattr(want, "pairs"):
        return all(same_values(getattr(got, k), getattr(want, k))
                   for k in ("pairs", "user_ids", "item_ids"))
    return got == want


@pytest.mark.parametrize("load, oracle, columns", [
    (load_interactions, load_interactions_loop, ("user_id", "item_id")),
    (load_attributes, load_attributes_loop, ("user_id", "attribute")),
    (_read_overlap, read_overlap_loop, ("target_user_id", "source_user_id")),
], ids=["interactions", "attributes", "overlap"])
def test_loader_matches_line_loop(tmp_path_factory, load, oracle, columns):
    """The column reader agrees with the line-by-line oracle on values, on
    error messages and on the line an error names; only package errors
    escape."""

    @settings(max_examples=300, deadline=None)
    @given(tsv_texts(columns))
    def check(text):
        path = tmp_path_factory.mktemp("tsv") / "x.tsv"
        path.write_bytes(text.encode("utf-8"))
        (kind, got), (want_kind, want) = outcome(load, path), outcome(oracle, path)
        assert kind == want_kind, (got, want)
        assert same_values(got, want), (got, want)

    check()


@settings(max_examples=500, deadline=None)
@given(st.lists(st.sampled_from(SEPARATORS + BLANKS + [
    "a", "\t", "é", "用户", "\xa0", "\u3000", "\r\r\n"]), max_size=16),
       st.sampled_from(["", "\n", "\r", "\r\n", "\x85", "\u2029"]))
def test_line_bounds_match_splitlines(pieces, end):
    """The lines found on the UTF-8 bytes are ``str.splitlines``' lines, with
    or without a final break, a trailing ``\\r`` or ``\\r\\r\\n`` included."""
    text = "".join(pieces) + end
    raw = text.encode("utf-8")
    starts, ends = data_mod._line_bounds(np.frombuffer(raw + bytes(8), np.uint8), len(raw))
    lines = [raw[s:e].decode("utf-8") for s, e in zip(starts.tolist(), ends.tolist())]
    assert lines == text.splitlines()


# Ids of every byte length from 1 to 23, across the key's 7-byte chunk edges
# and the 8-byte word edges: equal but for trailing NULs or for the last
# byte, or with a multi-byte character at the start or the end.
DENSE_IDS = sorted({stem for n in range(1, 24) for stem in (
    "a" * n, "a" * (n - 1) + "\x00", "a" * (n - 1) + "b", "\x00" * n, "b" + "\x00" * (n - 1),
    "用" + "a" * max(n - 3, 0), "a" * max(n - 2, 0) + "é")})


@settings(max_examples=100, deadline=None)
@given(st.permutations(DENSE_IDS), st.lists(st.sampled_from(DENSE_IDS), max_size=60),
       st.randoms(use_true_random=False))
def test_densify_matches_first_seen_dict(tmp_path_factory, ids, extra, rnd):
    """Every id above, once each and again at random rows: the codes and the
    id lists equal a first-seen ``dict``'s, in both columns."""
    column = ids + extra
    rnd.shuffle(column)
    other = column[::-1]
    path = tmp_path_factory.mktemp("tsv") / "x.tsv"
    path.write_bytes("".join(f"{a}\t{b}\n" for a, b in zip(["user_id"] + column, [
        "item_id"] + other)).encode("utf-8"))
    table = data_mod.read_tsv(path)
    for (codes, got), want in zip(table.densify(("user_id", "item_id"), "missing"),
                                  (densify_dict(column), densify_dict(other))):
        assert codes.tolist() == want[0].tolist() and got == want[1]


PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.mark.parametrize("workload", ["fair-train", "wide-catalogue", "dense-catalogue"])
def test_benchmark_inputs_load_as_before(tmp_path, monkeypatch, workload):
    """On the benchmark's own generated inputs the dataset digest and the
    raw-id tables equal the line-by-line loader's. ``wide-catalogue`` leaves
    about a quarter of its target items without a positive, so the loader
    drops them."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    gen.write_inputs(workload, 3, tmp_path)
    paths = [tmp_path / name for name in
             ("interactions_source.tsv", "interactions_target.tsv", "attributes.tsv")]
    ds = crossfair.cli.load_dataset(*paths)
    attrs, labels = load_attributes_loop(paths[2])
    want = build_dataset(load_interactions_loop(paths[0]), load_interactions_loop(paths[1]),
                         attrs, group_labels=labels)
    assert ds.sha256() == want.sha256()
    assert ds.raw_ids == want.raw_ids and ds.group_labels == want.group_labels
    assert ds.n_users_target == 2000 and len(ds.interactions_source) == 64000


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
        (dict(interactions_source=[0, 1, 2]), r"source interactions must be an \(n, 2\) array"),
        (dict(target_to_source=[0, -1, 1]), "overlap must hold one entry per target user"),
        (dict(target_group=[0, 1]), "groups must hold one label per target user"),
        (dict(group_labels=["z", "a"]), r"^group labels must be two distinct names in "
                                        r"ascending order, got \['z', 'a'\]$"),
        (dict(group_labels=["a", "a"]), r"got \['a', 'a'\]$"),
        (dict(group_labels=["a", "b", "c"]), r"got \['a', 'b', 'c'\]$"),
    ], ids=["source-range", "target-range", "duplicate", "non-injective",
            "overlap-range", "unlabelled", "single-group", "pairs-not-n-by-2",
            "overlap-length", "groups-length", "labels-descending", "labels-repeated",
            "three-labels"])
    def test_bad_input(self, changes, message):
        with pytest.raises(DataError, match=message):
            _set(micro_dataset(), **changes).validate()

    def test_random_repeats_far_apart(self):
        """Refused exactly when a pair key or a linked source id repeats,
        with ``np.unique`` as the reference, for repeats injected at
        positions in opposite quarters of thousands of shuffled entries."""
        rng = np.random.default_rng(23)
        n_users, n_items, n_pairs = 3000, 40, 4000
        linked = np.full(n_users, -1)
        linked[rng.permutation(n_users)[:2500]] = rng.permutation(n_users)[:2500]
        for trial in range(60):
            pairs = [np.column_stack(np.divmod(
                rng.choice(n_users * n_items, n_pairs, replace=False), n_items)) for _ in "st"]
            t2s = linked.copy()
            kind = trial % 4  # 0: no repeat; 1, 2: a source or target pair; 3: a linked id
            if kind:
                values = t2s if kind == 3 else pairs[kind - 1]
                at = np.flatnonzero(t2s >= 0) if kind == 3 else np.arange(n_pairs)
                q = len(at) // 4
                values[at[rng.integers(3 * q, len(at))]] = values[at[rng.integers(0, q)]]
            repeated = [len(np.unique(p[:, 0] * n_items + p[:, 1])) != len(p) for p in pairs]
            repeated.append(len(np.unique(t2s[t2s >= 0])) != len(t2s[t2s >= 0]))
            assert repeated == [kind == 1, kind == 2, kind == 3]
            args = (n_users, n_users, n_items, n_items, *pairs, t2s, np.arange(n_users) % 2)
            if kind == 0:
                CrossDomainDataset(*args).validate()
            else:
                with pytest.raises(DataError, match="duplicate" if kind < 3 else "not injective"):
                    CrossDomainDataset(*args).validate()

    def test_checked_when_made(self):
        """A dataset made from another with a bad field is refused at once."""
        with pytest.raises(DataError, match="ascending order"):
            replace(micro_dataset(), group_labels=("z", "a"))


def random_synth_configs(n, seed=0):
    """Small synthetic configs with random sizes, densities and knobs."""
    rng = np.random.default_rng(seed)
    configs = []
    for _ in range(n):
        n_items_source, n_items_target = rng.integers(5, 60, size=2)
        ratio = int(rng.integers(1, 4))
        ipu = int(rng.integers(1, min(n_items_target, n_items_source // ratio) + 1))
        configs.append(SynthConfig(
            n_users_source=int(rng.integers(20, 60)), n_users_target=int(rng.integers(2, 40)),
            overlap_fraction=float(rng.random() * 0.5), n_items_source=int(n_items_source),
            n_items_target=int(n_items_target), latent_dim=int(rng.integers(1, 9)),
            group_split=float(rng.uniform(0.2, 0.8)), source_disparity=float(rng.uniform(1, 4)),
            domain_shift=float(rng.random()), interactions_per_user=ipu,
            source_density_ratio=ratio, rng_seed=int(rng.integers(1000))))
    return configs


SYNTH_REFERENCE_CASES = [
    *(pytest.param(disparity_fixture(seed), id=f"acceptance-{seed}") for seed in SEEDS),
    pytest.param(crossfair.cli.resolve_config(dict(
        line.split(" = ") for line in SYNTH_CFG.splitlines()
        if " = " in line)).synth, id="cli-config"),
    *(pytest.param(cfg, id=f"random-{i}") for i, cfg in enumerate(random_synth_configs(6))),
]


def assembly_configs(n, seed=1):
    """Small synthetic configs whose overlap fraction cycles through 0, 1 and
    a random value. Some are refused: too few source users for the overlap,
    or target users all in one group."""
    rng = np.random.default_rng(seed)
    configs = []
    for k in range(n):
        n_items_source, n_items_target = (int(v) for v in rng.integers(3, 40, size=2))
        ratio = int(rng.integers(1, 4))
        configs.append(SynthConfig(
            n_users_source=int(rng.integers(1, 50)), n_users_target=int(rng.integers(1, 30)),
            overlap_fraction=(0.0, 1.0, float(rng.random()))[k % 3],
            n_items_source=n_items_source, n_items_target=n_items_target,
            latent_dim=int(rng.integers(1, 9)), group_split=float(rng.uniform(0.05, 0.95)),
            source_disparity=float(rng.uniform(1, 4)), domain_shift=float(rng.random()),
            interactions_per_user=int(rng.integers(1, min(n_items_target,
                                                          n_items_source // ratio) + 1)),
            source_density_ratio=ratio, rng_seed=int(rng.integers(1000))))
    return configs


def generated_or_refusal(generate, cfg):
    try:
        return generate(cfg)
    except DataError as exc:
        return exc


def assert_same_dataset(got, want):
    """Equal in every field: dtype, shape and values of each array, and the
    type and value of everything else, so raw ids and labels too."""
    for f in fields(CrossDomainDataset):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(b, np.ndarray):
            assert (a.dtype, a.shape) == (b.dtype, b.shape), f.name
            np.testing.assert_array_equal(a, b, err_msg=f.name)
        else:
            assert type(a) is type(b) and a == b, f.name
    assert got.sha256() == want.sha256()


class TestSyntheticAssembly:
    """``generate_synthetic`` assembles its dataset through ``build_dataset``
    and gives the dataset the generator used to build by hand."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_acceptance_fixture_unchanged(self, seed):
        cfg = disparity_fixture(seed)
        assert_same_dataset(generate_synthetic(cfg), generate_synthetic_direct(cfg))

    def test_random_configs_unchanged(self):
        made = refused = 0
        for cfg in assembly_configs(300):
            got = generated_or_refusal(generate_synthetic, cfg)
            want = generated_or_refusal(generate_synthetic_direct, cfg)
            if isinstance(want, DataError):
                refused += 1
                assert type(got) is type(want) and str(got) == str(want), cfg
            else:
                made += 1
                assert_same_dataset(got, want)
        assert made >= 200 and refused > 0


class TestSynthetic:
    @pytest.mark.parametrize("cfg", SYNTH_REFERENCE_CASES)
    def test_top_items_match_argsort_reference(self, monkeypatch, cfg):
        got = generate_synthetic(cfg)
        monkeypatch.setattr(data_mod, "_top_items",
                            lambda scores, k: np.sort(top_items_argsort(scores, k), axis=1))
        want = generate_synthetic(cfg)
        assert got.sha256() == want.sha256()
        assert got.raw_ids == want.raw_ids
        assert got.group_labels == want.group_labels

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

    def test_csv_bytes(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["name", "value"], [["a,b", 0.1 + 0.2], ["c", 3], ["d", 1e-300]])
        assert path.read_bytes() == (b'name,value\r\n"a,b",0.30000000000000004\r\n'
                                     b"c,3\r\nd,1e-300\r\n")

    def test_json_text(self):
        obj = {"b": [1, 0.5], "a": {"y": None, "x": "t"}}
        assert json_text(obj) == '{"a": {"x": "t", "y": null}, "b": [1, 0.5]}\n'
        assert json_text(obj, indent=2) == (
            '{\n  "a": {\n    "x": "t",\n    "y": null\n  },\n'
            '  "b": [\n    1,\n    0.5\n  ]\n}\n'
        )


def test_no_module_calls_open():
    """Every file is read and written by one ``Path`` call: ``read_text``,
    ``read_bytes``, ``write_text`` or ``write_bytes``."""
    package = Path(crossfair.cli.__file__).parent
    calls = []
    for module in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name == "open":
                    calls.append(f"{module.name}:{node.lineno}")
    assert calls == []
