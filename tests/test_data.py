"""Dataset IO, validation and the synthetic generator."""

import json
import math
import sys
import tracemalloc

import numpy as np
import pytest

from geograph.data import (
    DatasetBundle,
    MentionPairs,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    save_dataset,
    subsample_labels,
)
from geograph.errors import ArgumentError, DataFormatError
from geograph.views import build_mention_graph
from oracles import newman_modularity


def _write_dataset(tmp_path, user_lines, edge_lines):
    users = tmp_path / "users.jsonl"
    edges = tmp_path / "edges.tsv"
    users.write_text("\n".join(user_lines) + "\n")
    edges.write_text("\n".join(edge_lines) + ("\n" if edge_lines else ""))
    return users, edges


def _user(uid, lat=10.0, lon=20.0, text="hello world", split="train"):
    return json.dumps({"id": uid, "lat": lat, "lon": lon, "text": text, "split": split})


def test_load_roundtrip(tmp_path):
    # Names keep their case, and repeated rows and file order are kept.
    rows = ["a\tb", "c\tsomeone_else", "A\tB", "a\tb", "C\tSomeone_Else", "b\tA", "a\tb"]
    users, edges = _write_dataset(
        tmp_path,
        [_user("a"), _user("b", split="dev"), _user("c", split="test")],
        rows,
    )
    bundle = load_dataset(users, edges)
    assert bundle.ids == ["a", "b", "c"]
    assert bundle.splits == ["train", "dev", "test"]
    assert bundle.coords.dtype == np.float64
    np.testing.assert_array_equal(bundle.coords, [[10.0, 20.0]] * 3)
    assert list(bundle.mention_pairs) == [tuple(row.split("\t")) for row in rows]
    out_users, out_edges = save_dataset(bundle, tmp_path / "copy")
    assert out_edges.read_bytes() == edges.read_bytes()
    again = load_dataset(out_users, out_edges)
    assert again.ids == bundle.ids
    np.testing.assert_array_equal(again.coords, bundle.coords)
    assert list(again.mention_pairs) == list(bundle.mention_pairs)


def _held_by_load(users, edges) -> int:
    """Bytes still allocated once ``load_dataset`` has returned its bundle."""
    tracemalloc.start()
    try:
        bundle = load_dataset(users, edges)  # alive while the traced size is read
        return tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()


def test_loaded_pairs_are_held_compactly(tmp_path):
    n_users, per_user = 2000, 20
    user_lines = [_user(f"user{i:04d}") for i in range(n_users)]
    edge_lines = [f"user{i:04d}\t" + (f"user{(i * 7 + k * 13) % n_users:04d}" if k % 4
                                      else f"Handle{(i + k) % 300}")
                  for i in range(n_users) for k in range(per_user)]
    users, edges = _write_dataset(tmp_path, user_lines, edge_lines)
    no_edges = tmp_path / "none.tsv"
    no_edges.write_text("")
    pairs = load_dataset(users, edges).mention_pairs
    names = {name for pair in pairs for name in pair}
    budget = 32 * len(edge_lines) + sum(sys.getsizeof(name) for name in names)
    held = _held_by_load(users, edges) - _held_by_load(users, no_edges)
    assert held < budget, f"{held} bytes for {len(edge_lines)} pairs and {len(names)} names"


def test_load_reports_line_numbers(tmp_path):
    users, edges = _write_dataset(
        tmp_path, [_user("a"), "{not json"], ["a\tb"]
    )
    with pytest.raises(DataFormatError) as err:
        load_dataset(users, edges)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize(
    "bad",
    [
        json.dumps({"id": "x", "lat": 1.0, "lon": 2.0, "text": "t"}),  # missing split
        json.dumps({"id": "x", "lat": 95.0, "lon": 2.0, "text": "t", "split": "train"}),
        json.dumps({"id": "x", "lat": 1.0, "lon": 2.0, "text": "t", "split": "other"}),
        json.dumps({"id": "x", "lat": "north", "lon": 2.0, "text": "t", "split": "dev"}),
        pytest.param('{"id": "x", "lat": 1' + "0" * 5000 + ', "lon": 2.0, "text": "t", '
                     '"split": "dev"}', id="integer-beyond-int-conversion-limit"),
    ],
)
def test_load_rejects_bad_records(tmp_path, bad):
    users, edges = _write_dataset(tmp_path, [_user("a"), bad], [])
    with pytest.raises(DataFormatError) as err:
        load_dataset(users, edges)
    assert ":2:" in str(err.value)


@pytest.mark.parametrize("field,value", [
    ("lat", 95.0), ("lat", float("nan")), ("lat", True), ("lat", "12.5"), ("lat", None),
    ("lon", -195.0), ("lon", float("inf")), ("lon", False), ("lon", [1.0]), ("lon", {}),
    pytest.param("lat", 10 ** 400, id="lat-integer-beyond-float"),
])
def test_load_rejects_bad_coordinates(tmp_path, field, value):
    row = json.loads(_user("x"))
    row[field] = value
    users, edges = _write_dataset(tmp_path, [_user("a"), json.dumps(row), _user("b")], [])
    with pytest.raises(DataFormatError, match=":2: bad coordinates"):
        load_dataset(users, edges)


def test_load_rejects_duplicate_ids(tmp_path):
    # The mention graph matches ids case-insensitively, so loading does too.
    for first, second in (("a", "a"), ("Al", "al")):
        users, edges = _write_dataset(tmp_path, [_user(first), _user(second)], [])
        with pytest.raises(DataFormatError) as err:
            load_dataset(users, edges)
        assert str(err.value) == (f"{users}:2: duplicate id {second!r} (ids match "
                                  f"case-insensitively: {first!r} on line 1)")


def test_load_rejects_bad_edge_rows(tmp_path):
    users, edges = _write_dataset(tmp_path, [_user("a")], ["a"])
    with pytest.raises(DataFormatError) as err:
        load_dataset(users, edges)
    assert ":1:" in str(err.value)
    users, edges = _write_dataset(tmp_path, [_user("a")], ["a\tb\tc"])
    with pytest.raises(DataFormatError):
        load_dataset(users, edges)


def test_unknown_mentioner_rows_are_dropped(tmp_path):
    users, edges = _write_dataset(
        tmp_path, [_user("a"), _user("b", split="dev")], ["ghost\ta", "a\tb"]
    )
    bundle = load_dataset(users, edges)
    assert list(bundle.mention_pairs) == [("a", "b")]


def test_empty_edges_file_is_valid(tmp_path):
    users, edges = _write_dataset(tmp_path, [_user("a"), _user("b", split="test")], [])
    bundle = load_dataset(users, edges)
    assert len(bundle.mention_pairs) == 0
    graph = build_mention_graph(bundle.ids, bundle.mention_pairs)
    assert graph.nnz == 0


def test_bundle_validation():
    for ids in (["a", "a"], ["Al", "al"]):
        with pytest.raises(ArgumentError, match="duplicate user id"):
            DatasetBundle(
                ids=ids,
                texts=["t", "t"],
                coords=np.zeros((2, 2)),
                splits=["train", "dev"],
                mention_pairs=MentionPairs.from_pairs([]),
            )
    with pytest.raises(ArgumentError):
        DatasetBundle(
            ids=["a"],
            texts=["t"],
            coords=np.zeros((1, 2)),
            splits=["holdout"],
            mention_pairs=MentionPairs.from_pairs([]),
        )

    def bundle(coords):
        return DatasetBundle(["a", "b"], ["t", "t"], coords, ["train", "dev"],
                             MentionPairs.from_pairs([]))

    assert bundle([[1, 2], [3, 4]]).coords.dtype == np.float64
    with pytest.raises(ArgumentError, match=r"'b': \(-91.0, 0.0\) is not"):
        bundle(np.array([[0.0, 0.0], [-91.0, 0.0]]))
    with pytest.raises(ArgumentError, match=r"'a': \(nan, 0.0\)"):
        bundle(np.array([[np.nan, 0.0], [0.0, 0.0]]))
    with pytest.raises(ArgumentError, match="lat/lon coords"):
        bundle(np.zeros((2, 3)))

    def paired(mentioners, handles):
        pairs = MentionPairs(("a", "b"), np.array(mentioners, dtype=np.int32),
                             np.array(handles, dtype=np.int32))
        return DatasetBundle(["a", "b"], ["t", "t"], np.zeros((2, 2)), ["train", "dev"], pairs)

    assert list(paired([0, 1], [1, 1]).mention_pairs) == [("a", "b"), ("b", "b")]
    with pytest.raises(ArgumentError, match="two 1-d index arrays of equal length"):
        paired([0, 1], [1])
    for mentioners, handles in (([0, 2], [1, 1]), ([0], [-1])):
        with pytest.raises(ArgumentError, match="indexes outside its 2 names"):
            paired(mentioners, handles)


def test_split_indices_cover_everything():
    bundle = generate_synthetic(SyntheticConfig(n_users=120, n_regions=4), seed=0)
    train = bundle.split_indices("train")
    dev = bundle.split_indices("dev")
    test = bundle.split_indices("test")
    joined = np.concatenate([train, dev, test])
    assert sorted(joined.tolist()) == list(range(120))
    assert train.size == 72 and dev.size == 24
    with pytest.raises(ArgumentError):
        bundle.split_indices("validation")


def test_synthetic_determinism():
    cfg = SyntheticConfig(n_users=150)
    a = generate_synthetic(cfg, seed=9)
    b = generate_synthetic(cfg, seed=9)
    assert a.ids == b.ids and a.texts == b.texts
    assert np.array_equal(a.coords, b.coords) and list(a.mention_pairs) == list(b.mention_pairs)
    c = generate_synthetic(cfg, seed=10)
    assert list(c.mention_pairs) != list(a.mention_pairs)


def test_synthetic_regions_are_spatially_tight():
    cfg = SyntheticConfig(n_users=400, n_regions=4)
    bundle = generate_synthetic(cfg, seed=1)
    lats, lons = bundle.coords[:, 0], bundle.coords[:, 1]
    regions = np.arange(400) % 4
    for r in range(4):
        assert lats[regions == r].std() < 1.0
        assert lons[regions == r].std() < 1.0
    # region centers sit on a grid 10 degrees apart
    centers = {(round(lats[regions == r].mean()), round(lons[regions == r].mean()))
               for r in range(4)}
    assert len(centers) == 4


def test_synthetic_graph_is_assortative():
    """Communities in the mention graph must align with the planted regions."""
    cfg = SyntheticConfig()  # defaults used by the sweep harness
    bundle = generate_synthetic(cfg, seed=0)
    graph = build_mention_graph(bundle.ids, bundle.mention_pairs)
    regions = [i % cfg.n_regions for i in range(cfg.n_users)]
    q = newman_modularity(graph.to_dense(), regions)
    assert q > 0.5


def test_synthetic_text_is_region_informative():
    cfg = SyntheticConfig(n_users=200, n_regions=2, vocab_size=40,
                          region_word_weight=0.9)
    bundle = generate_synthetic(cfg, seed=2)
    # users in different regions should share fewer terms than same-region pairs
    tokens = [set(t.split()) for t in bundle.texts]
    same = len(tokens[0] & tokens[2])
    cross = len(tokens[0] & tokens[1])
    assert same > cross


def test_subsample_labels_sizes():
    bundle = generate_synthetic(SyntheticConfig(n_users=100), seed=0)
    train = bundle.split_indices("train")
    part = subsample_labels(bundle, 0.1, seed=0)
    assert part.train_idx.size == math.ceil(0.1 * train.size)
    assert set(part.train_idx) <= set(train)
    np.testing.assert_array_equal(part.dev_idx, bundle.split_indices("dev"))
    all_part = subsample_labels(bundle, 1.0, seed=0)
    np.testing.assert_array_equal(all_part.train_idx, train)
    again = subsample_labels(bundle, 0.1, seed=0)
    np.testing.assert_array_equal(part.train_idx, again.train_idx)
    with pytest.raises(ArgumentError):
        subsample_labels(bundle, 0.0, seed=0)


def test_synthetic_config_validation():
    for fields, message in [
        ({"p_in": 0.001, "p_out": 0.01}, "need 0 <= p_out < p_in <= 1"),
        ({"vocab_size": 3, "n_regions": 4}, "vocab too small"),
        ({"n_users": 0}, "n_users must be >= 1, got 0"),
        ({"n_users": -3}, "n_users must be >= 1, got -3"),
        ({"words_per_user": -1}, "words_per_user must be >= 0, got -1"),
        ({"n_regions": 1}, "need at least 2 regions"),
        ({"region_word_weight": 1.5}, "region_word_weight must be in"),
    ]:
        with pytest.raises(ArgumentError, match=message):
            SyntheticConfig(**fields)


def test_subsample_labels_needs_train_users():
    bundle = DatasetBundle(["a", "b"], ["x", "y"], [(1.0, 2.0), (3.0, 4.0)], ["dev", "test"],
                           MentionPairs.from_pairs([]))
    with pytest.raises(ArgumentError, match="dataset has no train split"):
        subsample_labels(bundle, 1.0, seed=0)


@pytest.mark.parametrize("lines, message", [
    (["[1, 2]"], ":1: expected an object"),
    ([_user("a"), '"text"'], ":2: expected an object"),
    ([], "no users"),
    (["", "  "], "no users"),
])
def test_load_rejects_non_objects_and_empty_files(tmp_path, lines, message):
    users, edges = _write_dataset(tmp_path, lines, [])
    with pytest.raises(DataFormatError, match=message):
        load_dataset(users, edges)
