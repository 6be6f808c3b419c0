"""Checkpoint round-trips, determinism of the encoding, and corruption handling."""

import gc
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from geograph import models
from geograph.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from geograph.errors import DataFormatError
from geograph.data import SyntheticConfig, generate_synthetic, subsample_labels
from geograph.models import (
    DccaConfig,
    GcnConfig,
    MlpConfig,
    Partition,
    TrainConfig,
    predict_logits,
    train,
)
from geograph.sparse import SparseMatrix
from geograph.sweep import build_region_tree, labels_for_training, prepare_views
from geograph.views import normalize_adjacency
from conftest import random_symmetric_adjacency


def _train_small(rng):
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 10, 0.4))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((10, 6)))
    labels = np.full(10, -1, dtype=np.intp)
    labels[:6] = rng.integers(0, 3, 6)
    part = Partition(np.arange(6), np.array([6, 7]), np.array([8, 9]))
    model, _ = train("gcn", a_hat, x, adj, labels, 3, part,
                     GcnConfig(hidden=4, layers=2),
                     TrainConfig(epochs=3, dropout=0.0, seed=0))
    return model, adj, a_hat, x


@pytest.fixture
def trained(rng):
    return _train_small(rng)


def test_roundtrip_preserves_params_and_predictions(tmp_path, trained):
    model, adj, a_hat, x = trained
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model, context={"lam": 1.0})
    loaded, context = load_checkpoint(ckpt)
    assert context == {"lam": 1.0}
    assert loaded.kind == model.kind
    assert loaded.meta == model.meta
    assert sorted(loaded.params) == sorted(model.params)
    for name in model.params:
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
    np.testing.assert_array_equal(
        predict_logits(loaded, a_hat, x, adj), predict_logits(model, a_hat, x, adj)
    )


def test_roundtrip_keeps_label_block_state(tmp_path, rng, monkeypatch):
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 8, 0.5))
    a_hat = normalize_adjacency(adj, 1.0)
    labels = np.full(8, -1, dtype=np.intp)
    labels[:5] = rng.integers(0, 2, 5)
    part = Partition(np.arange(5), np.array([5]), np.array([6, 7]))
    x = SparseMatrix.from_dense(rng.random((8, 4)))
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 2, part,
                     GcnConfig(hidden=3, layers=1),
                     TrainConfig(epochs=3, dropout=0.0, seed=1))
    ckpt = tmp_path / "lp.ckpt"
    save_checkpoint(ckpt, model, context={})
    loaded, _ = load_checkpoint(ckpt)
    np.testing.assert_array_equal(loaded.state["label_block"], model.state["label_block"])
    np.testing.assert_array_equal(
        predict_logits(loaded, a_hat, x, adj), predict_logits(model, a_hat, x, adj)
    )


def _root(arr: np.ndarray):
    """The object that owns ``arr``'s memory."""
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr if arr.base is None else arr.base


_KIND_CONFIGS = {
    "gcn": GcnConfig(hidden=4, layers=2),
    "gcn-lp": GcnConfig(hidden=4, layers=2),
    "mlp": MlpConfig(4),
    "dcca": DccaConfig(proj_hidden=3, proj_out=2, reg=1e-3, stage1_epochs=2, clf_hidden=4),
}


@pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
def test_loaded_arrays_are_read_only_views_of_one_block(tmp_path, rng, monkeypatch, kind):
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 10, 0.4))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((10, 6)))
    labels = np.full(10, -1, dtype=np.intp)
    labels[:6] = rng.integers(0, 3, 6)
    part = Partition(np.arange(6), np.array([6, 7]), np.array([8, 9]))
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model, _ = train(kind, a_hat, x, adj, labels, 3, part, _KIND_CONFIGS[kind],
                     TrainConfig(epochs=3, dropout=0.0, seed=0))
    loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "model.ckpt", model, context={}))
    arrays = [t.data for t in loaded.params.values()] + list(loaded.state.values())
    assert len(arrays) == len(model.params) + len(model.state)
    assert not any(arr.flags.writeable for arr in arrays)
    assert len({id(_root(arr)) for arr in arrays}) == 1
    assert all(t.grad is None and not t.requires_grad for t in loaded.params.values())
    np.testing.assert_array_equal(
        predict_logits(loaded, a_hat, x, adj), predict_logits(model, a_hat, x, adj)
    )


def test_loading_holds_no_more_than_the_file(tmp_path):
    # The 300-user synthetic corpus gives a 6.4 MB dcca checkpoint at the
    # default projection widths; loading it keeps the file's bytes and views.
    bundle = generate_synthetic(SyntheticConfig(n_users=300), seed=0)
    views = prepare_views(bundle)
    a_hat = normalize_adjacency(views.adjacency, 1.0)
    part = subsample_labels(bundle, 1.0, 0)
    tree = build_region_tree(bundle, part, 50, 1.0)
    labels = labels_for_training(bundle, tree, part.train_idx)
    model, _ = train("dcca", a_hat, views.text, views.adjacency, labels, tree.num_classes, part,
                     DccaConfig(stage1_epochs=1, clf_hidden=16), TrainConfig(epochs=1, seed=0))
    ckpt = save_checkpoint(tmp_path / "dcca.ckpt", model, context={
        "vocabulary": views.vocabulary.to_dict(), "tree": tree.to_dict()})
    size = ckpt.stat().st_size
    assert size > 6_000_000
    gc.collect()
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(ckpt)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * size and peak <= 1.1 * size, (held, peak, size)
    assert loaded.params["f2/out/W"].shape == model.params["f2/out/W"].shape


@pytest.mark.parametrize("kind", sorted(_KIND_CONFIGS))
def test_round_trip_keeps_each_dtype_and_its_bytes(tmp_path, rng, monkeypatch, kind):
    # A model stores what it holds: float32 weights for the kinds that train
    # in float32, float64 for dcca and for gcn-lp's label block.
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 10, 0.4))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((10, 6)))
    labels = np.full(10, -1, dtype=np.intp)
    labels[:6] = rng.integers(0, 3, 6)
    part = Partition(np.arange(6), np.array([6, 7]), np.array([8, 9]))
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model, _ = train(kind, a_hat, x, adj, labels, 3, part, _KIND_CONFIGS[kind],
                     TrainConfig(epochs=3, dropout=0.0, seed=0))
    ckpt = save_checkpoint(tmp_path / "model.ckpt", model, context={})
    loaded, _ = load_checkpoint(ckpt)
    want = {name: t.data for name, t in model.params.items()}
    want.update(("state/" + name, arr) for name, arr in model.state.items())
    got = {name: t.data for name, t in loaded.params.items()}
    got.update(("state/" + name, arr) for name, arr in loaded.state.items())
    assert got.keys() == want.keys()
    weights = np.float64 if kind == "dcca" else np.float32
    for name, arr in want.items():
        assert arr.dtype == (np.float64 if name.startswith("state/") else weights), name
        assert got[name].dtype == arr.dtype and got[name].tobytes() == arr.tobytes(), name
    header_len = int.from_bytes(ckpt.read_bytes()[8:16], "little")
    assert ckpt.stat().st_size == 16 + header_len + sum(arr.nbytes for arr in want.values())


def test_rejects_the_previous_format(tmp_path, trained):
    model, *_ = trained
    ckpt = save_checkpoint(tmp_path / "model.ckpt", model, context={})
    old = tmp_path / "old.ckpt"
    old.write_bytes(b"GEOCKPT2" + ckpt.read_bytes()[8:])
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(old)
    assert str(err.value) == (f"{old}: not a b'GEOCKPT3' model checkpoint: "
                              "it starts b'GEOCKPT2'")


def test_loading_a_float32_gcn_holds_no_more_than_the_file(tmp_path):
    # A gcn's weights are float32: loading its checkpoint keeps the file's
    # bytes and float32 views of them, not float64 copies.
    bundle = generate_synthetic(SyntheticConfig(n_users=300), seed=0)
    views = prepare_views(bundle)
    a_hat = normalize_adjacency(views.adjacency, 1.0)
    part = subsample_labels(bundle, 1.0, 0)
    tree = build_region_tree(bundle, part, 50, 1.0)
    labels = labels_for_training(bundle, tree, part.train_idx)
    model, _ = train("gcn", a_hat, views.text, views.adjacency, labels, tree.num_classes, part,
                     GcnConfig(hidden=1000, layers=2), TrainConfig(epochs=1, seed=0))
    ckpt = save_checkpoint(tmp_path / "gcn.ckpt", model, context={
        "vocabulary": views.vocabulary.to_dict(), "tree": tree.to_dict()})
    size = ckpt.stat().st_size
    assert size > 4_000_000
    gc.collect()
    tracemalloc.start()
    try:
        loaded, _ = load_checkpoint(ckpt)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.1 * size and peak <= 1.1 * size, (held, peak, size)
    assert all(t.data.dtype == np.float32 for t in loaded.params.values())


@pytest.mark.parametrize("kind", ["dcca", "mlp"])
def test_non_square_second_view_round_trips(tmp_path, rng, kind):
    # dcca and mlp read the second view's columns as features, so it may have
    # fewer columns than users; the checkpoint records that column count.
    second = SparseMatrix.from_dense(rng.random((40, 5)))
    x = SparseMatrix.from_dense(rng.random((40, 6)))
    labels = np.full(40, -1, dtype=np.intp)
    labels[:20] = np.arange(20) % 2
    part = Partition(np.arange(20), np.arange(20, 30), np.arange(30, 40))
    cfg = MlpConfig(4) if kind == "mlp" else DccaConfig(proj_hidden=0, proj_out=2, reg=1e-3,
                                                        stage1_epochs=2, clf_hidden=4)
    model, _ = train(kind, second, x, None, labels, 2, part, cfg,
                     TrainConfig(epochs=2, dropout=0.0, seed=0))
    assert model.meta["graph_dim"] == 5
    loaded, _ = load_checkpoint(save_checkpoint(tmp_path / "model.ckpt", model, context={}))
    np.testing.assert_array_equal(predict_logits(loaded, second, x, None),
                                  predict_logits(model, second, x, None))


def test_identical_models_produce_identical_bytes(tmp_path, trained):
    model, *_ = trained
    p1 = save_checkpoint(tmp_path / "a.ckpt", model, context={"b": 2, "a": 1})
    p2 = save_checkpoint(tmp_path / "b.ckpt", model, context={"a": 1, "b": 2})
    assert p1.read_bytes() == p2.read_bytes()


def test_rejects_wrong_magic(tmp_path):
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(b"NOTACKPT" + b"\x00" * 32)
    with pytest.raises(DataFormatError):
        load_checkpoint(bad)


@pytest.mark.parametrize("header", [
    ["gcn", {}],
    "gcn",
    {"meta": {}},
    {"kind": "gcn"},
    {"kind": "gcn", "meta": None},
    {"kind": "gcn-nohighway", "meta": {}},
    {"kind": ["gcn"], "meta": {}},
    # meta without the config keys prediction reads for the kind
    {"kind": "gcn", "meta": {}},
    {"kind": "gcn-lp", "meta": {"hidden": 4, "layers": 1, "highway": True}},
    {"kind": "dcca", "meta": {"proj_hidden": 0, "proj_out": 2, "clf_hidden": 4}},
    # config keys of the wrong JSON type
    {"kind": "gcn", "meta": {"hidden": "16", "layers": 1, "highway": True, "gate_bias": -1.0}},
    {"kind": "gcn", "meta": {"hidden": 16, "layers": 2.5, "highway": True, "gate_bias": -1.0}},
    {"kind": "gcn", "meta": {"hidden": 16, "layers": 1, "highway": "yes", "gate_bias": -1.0}},
    {"kind": "mlp", "meta": {"hidden": "16"}},
])
def test_rejects_bad_header(tmp_path, header):
    raw = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + len(raw).to_bytes(8, "little") + raw)
    with pytest.raises(DataFormatError):
        load_checkpoint(bad)


def test_rejects_truncation(tmp_path, trained):
    model, *_ = trained
    ckpt = save_checkpoint(tmp_path / "full.ckpt", model, context={})
    blob = ckpt.read_bytes()
    clipped = tmp_path / "clipped.ckpt"
    clipped.write_bytes(blob[: len(blob) - 16])
    with pytest.raises(DataFormatError):
        load_checkpoint(clipped)


def test_rejects_trailing_garbage(tmp_path, trained):
    model, *_ = trained
    ckpt = save_checkpoint(tmp_path / "full.ckpt", model, context={})
    padded = tmp_path / "padded.ckpt"
    padded.write_bytes(ckpt.read_bytes() + b"extra")
    with pytest.raises(DataFormatError):
        load_checkpoint(padded)


def _with_header(blob: bytes, edit) -> bytes:
    size = int.from_bytes(blob[8:16], "little")
    header = json.loads(blob[16:16 + size])
    edit(header)
    new = json.dumps(header, sort_keys=True).encode("utf-8")
    return blob[:8] + len(new).to_bytes(8, "little") + new + blob[16 + size:]


def _reshape(name, shape):
    def edit(header):
        header["arrays"] = [[n, shape if n == name else s, d] for n, s, d in header["arrays"]]
    return edit


def _rename(old, new):
    def edit(header):
        header["arrays"] = sorted([new if n == old else n, s, d] for n, s, d in header["arrays"])
    return edit


def _retype(name, dtype):
    def edit(header):
        header["arrays"] = [[n, s, dtype if n == name else d] for n, s, d in header["arrays"]]
    return edit


@pytest.mark.parametrize("edit, message", [
    (_reshape("state/label_block", [7, 2]),
     "array 'state/label_block' has shape [7, 2], not [8, 2]"),
    (_rename("state/label_block", "state/labels"), "lacks array 'state/label_block'"),
    (_rename("out/b", "out/c"), "lacks array 'out/b'"),
    (lambda h: h["meta"].update(hidden=4), "array 'conv0/W' has shape [10, 3], not [10, 4]"),
    (lambda h: h["meta"].update(layers=2), "lacks array 'conv1/W'"),
    (lambda h: h["meta"].update(hidden=0), "meta hidden must be >= 1"),
    (lambda h: h["meta"].update(layers=10**12), "has 1000000000000 layers, more than"),
    (lambda h: h["arrays"].reverse(), "out of name order"),
    (lambda h: h["arrays"].append(h["arrays"][0]), "out of name order or more than once"),
    (lambda h: h.pop("arrays"), "needs 'arrays'"),
    (lambda h: h["arrays"][0].__setitem__(1, [-1, 2]), "needs 'arrays'"),
    (lambda h: h["arrays"][0].__setitem__(1, [True]), "needs 'arrays'"),
    (lambda h: h["arrays"][0].pop(), "a list of [name, shape, dtype] entries"),
    (_retype("out/W", "<f2"), "with a dtype of <f4 or <f8"),
    (_retype("out/W", ">f4"), "with a dtype of <f4 or <f8"),
    (_retype("out/W", "<i8"), "with a dtype of <f4 or <f8"),
    (_retype("out/W", ["<f4"]), "with a dtype of <f4 or <f8"),
    # A valid dtype of another width moves every later array.
    (_retype("out/W", "<f8"), "truncated checkpoint: its arrays end at byte"),
    (_retype("state/label_block", "<f4"), "trailing bytes in checkpoint: its arrays end at byte"),
])
def test_rejects_arrays_the_meta_does_not_imply(tmp_path, rng, edit, message):
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 8, 0.5))
    a_hat = normalize_adjacency(adj, 1.0)
    labels = np.full(8, -1, dtype=np.intp)
    labels[:5] = rng.integers(0, 2, 5)
    part = Partition(np.arange(5), np.array([5]), np.array([6, 7]))
    x = SparseMatrix.from_dense(rng.random((8, 4)))
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 2, part, GcnConfig(hidden=3, layers=1),
                     TrainConfig(epochs=1, dropout=0.0, seed=1))
    ckpt = save_checkpoint(tmp_path / "lp.ckpt", model, context={})
    ckpt.write_bytes(_with_header(ckpt.read_bytes(), edit))
    with pytest.raises(DataFormatError) as err:
        load_checkpoint(ckpt)
    assert str(err.value).startswith(f"{ckpt}: ") and message in str(err.value)


# --- fuzzing: every mutation of a valid file loads or raises DataFormatError.


@pytest.fixture(scope="module")
def fuzz_case(tmp_path_factory):
    """A small valid checkpoint's bytes, its header length and a scratch path."""
    model, *_ = _train_small(np.random.default_rng(12345))
    path = save_checkpoint(tmp_path_factory.mktemp("fuzz") / "model.ckpt", model, context={
        "lam": 1.0, "tree": {"leaves": [{"count": 3, "rep": [1.5, -2.0]}]}})
    blob = path.read_bytes()
    return blob, int.from_bytes(blob[8:16], "little"), path


def _load_or_reject(path, blob: bytes) -> bool:
    """Whether ``blob`` loads; any other outcome than ``DataFormatError``
    naming ``path`` fails the test."""
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except DataFormatError as exc:
        assert str(exc).startswith(f"{path}: ")
        return False
    return True


@settings(max_examples=60)
@given(data=st.data())
def test_fuzz_truncation(fuzz_case, data):
    blob, _, path = fuzz_case
    cut = data.draw(st.integers(0, len(blob) - 1), label="cut")
    assert not _load_or_reject(path, blob[:cut])


@settings(max_examples=200)
@given(data=st.data(), value=st.integers(0, 255))
def test_fuzz_header_byte(fuzz_case, data, value):
    blob, header_len, path = fuzz_case
    at = data.draw(st.integers(0, 16 + header_len - 1), label="at")
    _load_or_reject(path, blob[:at] + bytes([value]) + blob[at + 1:])


@settings(max_examples=60)
@given(length=st.integers(0, 2**64 - 1))
def test_fuzz_header_length(fuzz_case, length):
    blob, header_len, path = fuzz_case
    loads = _load_or_reject(path, blob[:8] + length.to_bytes(8, "little") + blob[16:])
    assert loads == (length == header_len)
