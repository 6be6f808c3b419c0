"""Checkpoint round-trips, determinism of the encoding, and corruption handling."""

import json
import struct

import numpy as np
import pytest

from geograph.checkpoint import MAGIC, load_checkpoint, save_checkpoint
from geograph.errors import DataFormatError
from geograph.models import (
    GcnConfig,
    Partition,
    TrainConfig,
    predict_logits,
    train_gcn,
    train_gcn_lp,
)
from geograph.sparse import SparseMatrix
from geograph.views import normalize_adjacency
from conftest import random_symmetric_adjacency


@pytest.fixture
def trained(rng):
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 10, 0.4))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((10, 6)))
    labels = np.full(10, -1, dtype=np.intp)
    labels[:6] = rng.integers(0, 3, 6)
    part = Partition(np.arange(6), np.array([6, 7]), np.array([8, 9]))
    model, _ = train_gcn(a_hat, x, labels, 3, part,
                         GcnConfig(hidden=4, layers=2),
                         TrainConfig(epochs=3, dropout=0.0, seed=0))
    return model, adj, a_hat, x


def test_roundtrip_preserves_params_and_predictions(tmp_path, trained):
    model, adj, a_hat, x = trained
    ckpt = tmp_path / "model.ckpt"
    save_checkpoint(ckpt, model, context={"lam": 1.0})
    loaded, context = load_checkpoint(ckpt)
    assert context == {"lam": 1.0}
    assert loaded.kind == model.kind
    assert loaded.meta == model.meta
    assert sorted(loaded.params.names()) == sorted(model.params.names())
    for name in model.params.names():
        np.testing.assert_array_equal(loaded.params[name].data, model.params[name].data)
    np.testing.assert_array_equal(
        predict_logits(loaded, a_hat, x, adj), predict_logits(model, a_hat, x, adj)
    )


def test_roundtrip_keeps_label_block_state(tmp_path, rng):
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 8, 0.5))
    a_hat = normalize_adjacency(adj, 1.0)
    labels = np.full(8, -1, dtype=np.intp)
    labels[:5] = rng.integers(0, 2, 5)
    part = Partition(np.arange(5), np.array([5]), np.array([6, 7]))
    model, _ = train_gcn_lp(a_hat, adj, labels, 2, part,
                            GcnConfig(hidden=3, layers=1),
                            TrainConfig(epochs=3, dropout=0.0, seed=1),
                            trigger_accuracy=0.0)
    ckpt = tmp_path / "lp.ckpt"
    save_checkpoint(ckpt, model, context={})
    loaded, _ = load_checkpoint(ckpt)
    np.testing.assert_array_equal(loaded.state["label_block"], model.state["label_block"])
    x = SparseMatrix.from_dense(rng.random((8, 4)))
    np.testing.assert_array_equal(
        predict_logits(loaded, a_hat, x, adj), predict_logits(model, a_hat, x, adj)
    )


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
])
def test_rejects_bad_header(tmp_path, header):
    raw = json.dumps(header).encode("utf-8")
    bad = tmp_path / "bad.ckpt"
    bad.write_bytes(MAGIC + struct.pack("<Q", len(raw)) + raw + struct.pack("<Q", 0))
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
