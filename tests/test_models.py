"""Model wiring, gating behavior, label propagation, and training determinism."""

import gc
import json
import math
import os
import platform
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import numpy as np
import pytest

import geograph.autodiff as ad
from geograph import models
from geograph.errors import ArgumentError, NumericError, ShapeError
from geograph.models import (
    KINDS,
    STATE_PREFIX,
    Blocks,
    DccaConfig,
    GcnConfig,
    MlpConfig,
    Partition,
    TrainConfig,
    array_layout,
    gcn_forward,
    init_gcn_params,
    lp_input,
    mlp_forward,
    init_mlp_params,
    one_hot,
    predict_classes,
    predict_logits,
    Propagated,
    projection_forward,
    propagate,
    stage1_correlation,
    train,
)
from geograph.optim import ParamSet
from geograph.sparse import SparseMatrix
from geograph.views import normalize_adjacency
from conftest import random_symmetric_adjacency
from oracles import gcn_logits


def _instance(rng, n=12, terms=8, classes=3, p=0.35):
    """Random graph + features + labels for wiring tests."""
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, n, p))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((n, terms)) * (rng.random((n, terms)) < 0.6))
    labels = np.full(n, -1, dtype=np.intp)
    train_idx = np.arange(0, n, 2)
    labels[train_idx] = rng.integers(0, classes, train_idx.size)
    part = Partition(train_idx, np.array([1]), np.array([3]))
    return adj, a_hat, x, labels, part


def _count_builds(monkeypatch) -> list:
    """A list that gains one entry per ``SparseMatrix`` built from now on."""
    builds = []
    init = SparseMatrix.__init__

    def counting_init(self, csr):
        builds.append(1)
        init(self, csr)

    monkeypatch.setattr(SparseMatrix, "__init__", counting_init)
    return builds


def _values(model):
    """A trained model's arrays by name."""
    return {name: t.data for name, t in model.params.items()}


def _trainable(model) -> ParamSet:
    """A trained model's weights as parameters that take gradients again."""
    params = ParamSet()
    for name, t in model.params.items():
        params.add(name, t.data)
    return params


def test_one_hot():
    out = one_hot(np.array([0, 2, 1]), 3)
    np.testing.assert_array_equal(out, np.array([[1, 0, 0], [0, 0, 1], [0, 1, 0]], dtype=float))
    with pytest.raises(ArgumentError):
        one_hot(np.array([3]), 3)


def test_partition_rejects_overlap():
    with pytest.raises(ArgumentError):
        Partition(np.array([0, 1]), np.array([1]), np.array([2]))
    with pytest.raises(ArgumentError):
        Partition(np.array([], dtype=int), np.array([1]), np.array([2]))


def test_partition_sorts_and_rejects_repeats():
    part = Partition([5, 2, 9], [3, 1], [4])
    np.testing.assert_array_equal(part.train_idx, [2, 5, 9])
    np.testing.assert_array_equal(part.dev_idx, [1, 3])
    with pytest.raises(ArgumentError, match="train_idx repeats"):
        Partition([2, 1, 1], [3], [4])
    with pytest.raises(ArgumentError, match="test_idx repeats"):
        Partition([2], [3], [4, 4])


def test_highway_formula(rng):
    # A gated layer mixes its convolution with its input through the gate.
    a_hat = SparseMatrix.from_dense(rng.random((4, 4)) * (rng.random((4, 4)) < 0.7))
    h, w, wg = (ad.constant(rng.standard_normal(shape)) for shape in ((4, 3), (3, 3), (3, 3)))
    b, bg = (ad.constant(rng.standard_normal(3)) for _ in range(2))
    new = np.maximum(a_hat.to_dense() @ h.data @ w.data + b.data, 0.0)
    gate = 1.0 / (1.0 + np.exp(-(h.data @ wg.data + bg.data)))
    want = new * gate + h.data * (1.0 - gate)
    np.testing.assert_allclose(ad.gated_conv(a_hat, h, w, b, wg, bg).data, want, atol=1e-15)
    # Saturated gates pass one input through exactly.
    conv = ad.graph_conv(a_hat, h, w, b)
    for bias, passed in ((800.0, conv), (-800.0, h)):
        out = ad.gated_conv(a_hat, h, w, b, wg, ad.constant(np.full(3, bias)))
        np.testing.assert_array_equal(out.data, passed.data)


def _reachable(out):
    """Every tensor reachable from ``out``, ``out`` included."""
    seen, stack, found = set(), [out], []
    while stack:
        t = stack.pop()
        if id(t) not in seen:
            seen.add(id(t))
            found.append(t)
            stack.extend(t._parents)
    return found


def _tape_nodes(out):
    """The number of recorded (non-leaf) tensors reachable from ``out``."""
    return sum(t._vjp is not None for t in _reachable(out))


@pytest.mark.parametrize("highway", [True, False])
def test_gcn_hidden_layer_tape_nodes(rng, highway):
    # Each hidden layer after the first records one node: its graph
    # convolution, together with its highway gate when it has one.
    adj, a_hat, x, *_ = _instance(rng)
    counts = {}
    for layers in (1, 4):
        cfg = GcnConfig(hidden=6, layers=layers, highway=highway)
        params = init_gcn_params(rng, x.shape[1], 3, cfg)
        masks = [ad.make_dropout_mask(rng, (12, 6), 0.5) for _ in range(layers)]
        counts[layers] = _tape_nodes(gcn_forward(a_hat, propagate(a_hat, x), params, cfg, masks))
    assert counts[4] - counts[1] == 3


def test_first_layer_is_one_tape_node(rng, monkeypatch):
    # gcn, gcn-lp and mlp read a constant first-layer operand through one
    # fused node, whose only parents are its weights and bias.
    adj, a_hat, x, labels, part = _instance(rng)
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    gcn_cfg = GcnConfig(hidden=5, layers=2)
    for kind, cfg, weights in (("gcn", gcn_cfg, "conv0/W"), ("gcn-lp", gcn_cfg, "conv0/W"),
                               ("mlp", MlpConfig(5), "hid/W")):
        model, _ = train(kind, a_hat, x, adj, labels, 3, part, cfg,
                         TrainConfig(epochs=1, dropout=0.0, seed=0))
        entry = KINDS[kind]
        masks = [ad.make_dropout_mask(rng, (12, 5), 0.0)] * entry.masks(cfg)[0]
        params = _trainable(model)
        logits = entry.forward(params, cfg, a_hat, entry.inputs(model, a_hat, x, adj), masks)
        w = params[weights]
        readers = [t for t in _reachable(logits) if any(p is w for p in t._parents)]
        assert len(readers) == 1, kind
        assert all(p.requires_grad and not p._parents for p in readers[0]._parents), kind


def test_dense_and_lazy_propagation_agree(rng):
    adj, a_hat, x, *_ = _instance(rng)
    assert isinstance(propagate(a_hat, x), np.ndarray)  # 12 x 8 is small enough
    cfg = GcnConfig(hidden=5, layers=2)
    params = init_gcn_params(rng, x.shape[1], 3, cfg)
    weights = rng.standard_normal((12, 3))
    results = []
    for operand in (propagate(a_hat, x), Propagated(a_hat, x)):
        params.zero_grads()
        logits = gcn_forward(a_hat, operand, params, cfg)
        ad.backward(ad.sum_all(ad.mul_const(logits, weights)))
        results.append((logits.data, params["conv0/W"].grad, params["conv0/b"].grad))
    for dense, lazy in zip(*results):
        np.testing.assert_allclose(dense, lazy, rtol=0, atol=1e-12)


def _random_sparse(rng, rows, cols, nnz):
    flat = rng.choice(rows * cols, size=nnz, replace=False)
    return SparseMatrix.from_triplets(rows, cols, flat // cols, flat % cols, rng.random(nnz) + 0.1)


def test_propagate_chooses_dense_by_size(rng):
    # The sizes of the depth-study corpus: 1,000 users, 200 terms, 31,706
    # entries in a_hat and 22,993 in the text. A gemm beats the two products.
    a_hat = _random_sparse(rng, 1000, 1000, 31_706)
    x = _random_sparse(rng, 1000, 200, 22_993)
    dense = propagate(a_hat, x)
    assert isinstance(dense, np.ndarray)
    np.testing.assert_allclose(dense, a_hat.to_dense() @ x.to_dense(), rtol=0, atol=1e-12)
    # A wide sparse vocabulary: 2,000 users with 30 of 20,000 terms each.
    a_hat, x = _random_sparse(rng, 2000, 2000, 20_000), _random_sparse(rng, 2000, 20_000, 60_000)
    wide = propagate(a_hat, x)
    assert isinstance(wide, Propagated) and wide.shape == (2000, 20_000)


def test_gcn_param_layout_and_gate_bias(rng):
    cfg = GcnConfig(hidden=7, layers=3, highway=True, gate_bias=-1.5)
    params = init_gcn_params(rng, in_dim=5, num_classes=4, cfg=cfg)
    names = set(params)
    assert {"conv0/W", "conv1/W", "conv2/W", "out/W"} <= names
    assert "gate0/W" not in names  # first layer changes width: no gate
    assert {"gate1/W", "gate2/W"} <= names
    assert np.all(params["gate1/b"].data == -1.5)
    ungated = init_gcn_params(rng, 5, 4, GcnConfig(hidden=7, layers=3, highway=False))
    assert not any(n.startswith("gate") for n in ungated)
    single = init_gcn_params(rng, 5, 4, GcnConfig(hidden=7, layers=1, highway=True))
    assert not any(n.startswith("gate") for n in single)


def test_gcn_forward_shapes_and_mask_count(rng):
    adj, a_hat, x, *_ = _instance(rng)
    cfg = GcnConfig(hidden=6, layers=2)
    params = init_gcn_params(rng, x.shape[1], 3, cfg)
    logits = gcn_forward(a_hat, propagate(a_hat, x), params, cfg)
    assert logits.data.shape == (12, 3)
    with pytest.raises(ShapeError):
        gcn_forward(a_hat, propagate(a_hat, x), params, cfg, dropout_masks=[np.ones((12, 6))])


def test_gcn_forward_matches_dense_oracle(rng, monkeypatch):
    adj, a_hat, x, labels, part = _instance(rng)
    cfg = GcnConfig(hidden=5, layers=2, highway=True, gate_bias=0.0)
    params = init_gcn_params(rng, x.shape[1], 3, cfg)
    want = gcn_logits(a_hat.to_dense(), x.to_dense(), params.copy_values(), cfg)
    got = gcn_forward(a_hat, propagate(a_hat, x), params, cfg).data
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12)

    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part, cfg,
                     TrainConfig(epochs=3, dropout=0.0, seed=0))
    block = model.state["label_block"]
    assert np.all(block.sum(axis=1) > 0.0)  # latched: held-out rows carry predictions
    lp_rows = np.hstack([adj.to_dense(), block])
    want = gcn_logits(a_hat.to_dense(), lp_rows, _values(model), cfg)
    # gcn-lp predicts in float32, against a float64 oracle of the same
    # weights: 40 seeds of this instance deviated by at most 1.3e-7 on
    # logits below 1.1 in size, float32 rounding (eps 1.2e-7) of short sums.
    got = predict_logits(model, a_hat, x, adj)
    assert got.dtype == np.float32
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-6)


def test_lp_input_width():
    adj = SparseMatrix.from_dense(np.array([[0.0, 1.0], [1.0, 0.0]]))
    block = np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    assert lp_input(adj, block).shape == (2, 5)


def _operand(rng, case):
    """A constant operand of the kind ``case`` names, and its dense matrix."""
    a = random_symmetric_adjacency(rng, 6, 0.5) * rng.random((6, 6))  # not symmetric
    s = rng.random((6, 4)) * (rng.random((6, 4)) < 0.5)
    d = rng.random((6, 3))
    sparse_a, sparse_s = SparseMatrix.from_dense(a), SparseMatrix.from_dense(s)
    return {
        "dense": (d, d),
        "sparse": (sparse_s, s),
        "blocks of sparse and dense": (Blocks(sparse_s, d), np.hstack([s, d])),
        "blocks of two sparse": (Blocks(sparse_s, sparse_a), np.hstack([s, a])),
        "propagated sparse": (Propagated(sparse_a, sparse_s), a @ s),
        "propagated blocks": (Propagated(sparse_a, Blocks(sparse_s, d)), a @ np.hstack([s, d])),
    }[case]


@pytest.mark.parametrize("case", ["dense", "sparse", "blocks of sparse and dense",
                                  "blocks of two sparse", "propagated sparse",
                                  "propagated blocks"])
def test_operands_match_their_dense_matrix(rng, case):
    # Every constant input reads as numpy does: x @ w, x.T @ g and, but for
    # ``Propagated``, which only the graph kinds hold, x[rows].
    op, dense = _operand(rng, case)
    assert op.shape == dense.shape
    w = rng.standard_normal((dense.shape[1], 4))
    g = rng.standard_normal((dense.shape[0], 4))
    idx = np.array([4, 0, 4, 2])
    np.testing.assert_allclose(op @ w, dense @ w, rtol=0, atol=1e-14)
    np.testing.assert_allclose(op.T @ g, dense.T @ g, rtol=0, atol=1e-14)
    if not isinstance(op, Propagated):
        np.testing.assert_allclose(op[idx] @ w, dense[idx] @ w, rtol=0, atol=1e-14)


def test_mlp_input_width(rng):
    adj, a_hat, x, labels, part = _instance(rng)
    model, _ = train("mlp", a_hat, x, adj, labels, 3, part, MlpConfig(hidden=5),
                     TrainConfig(epochs=2, dropout=0.0, seed=0))
    assert (model.meta["in_dim"], model.meta["graph_dim"]) == (x.shape[1], a_hat.shape[0])
    assert model.params["hid/W"].data.shape == (x.shape[1] + 12, 5)


def test_training_reduces_loss(rng):
    adj, a_hat, x, labels, part = _instance(rng, n=20, terms=10)
    _, hist = train("gcn", a_hat, x, adj, labels, 3, part,
                    GcnConfig(hidden=8, layers=2),
                    TrainConfig(lr=0.02, epochs=30, dropout=0.0, seed=1))
    assert hist[-1].loss < hist[0].loss


def test_training_is_bit_deterministic(rng):
    adj, a_hat, x, labels, part = _instance(rng)
    cfg = GcnConfig(hidden=5, layers=2)
    runs = []
    for _ in range(2):
        model, _ = train("gcn", a_hat, x, adj, labels, 3, part, cfg,
                         TrainConfig(lr=0.01, epochs=10, dropout=0.5, seed=7))
        runs.append(_values(model))
    for name in runs[0]:
        np.testing.assert_array_equal(runs[0][name], runs[1][name])
    other, _ = train("gcn", a_hat, x, adj, labels, 3, part, cfg,
                     TrainConfig(lr=0.01, epochs=10, dropout=0.5, seed=8))
    assert any(
        not np.array_equal(other.params[name].data, runs[0][name]) for name in runs[0]
    )


class _BuiltTranspose(SparseMatrix):
    """A matrix whose transpose is always a separately built copy."""

    __slots__ = ()

    def transpose(self) -> SparseMatrix:
        return SparseMatrix(self.csr.T.tocsr())


def test_gcn_fit_is_unchanged_by_a_self_transposing_a_hat(rng):
    """A normalized undirected adjacency is its own transpose; training with a
    separately built transpose in the backward pass gives equal bytes."""
    adj, a_hat, x, labels, part = _instance(rng)
    assert a_hat.transpose() is a_hat
    cfg, train_cfg = GcnConfig(hidden=5, layers=2), TrainConfig(lr=0.01, epochs=8, seed=3)
    model, history = train("gcn", a_hat, x, adj, labels, 3, part, cfg, train_cfg)
    again, again_history = train("gcn", _BuiltTranspose(a_hat.csr), x, adj, labels, 3, part, cfg,
                                 train_cfg)
    assert [h.loss for h in history] == [h.loss for h in again_history]
    for name, value in _values(model).items():
        assert value.tobytes() == again.params[name].data.tobytes(), name


def test_gcn_lp_trigger_latches(rng, monkeypatch):
    adj, a_hat, x, labels, part = _instance(rng, n=14)
    held_out = np.setdiff1d(np.arange(14), part.train_idx)
    # trigger never reached: held-out label rows stay zero
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 1.1)
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part,
                     GcnConfig(hidden=5, layers=1),
                     TrainConfig(lr=0.01, epochs=4, dropout=0.0, seed=0))
    assert model.meta["trigger_accuracy"] == 1.1
    block = model.state["label_block"]
    np.testing.assert_array_equal(block[held_out], 0.0)
    np.testing.assert_array_equal(block[part.train_idx], one_hot(labels[part.train_idx], 3))
    # trigger at zero: propagated rows fill with softmax distributions
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model2, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part,
                      GcnConfig(hidden=5, layers=1),
                      TrainConfig(lr=0.01, epochs=4, dropout=0.0, seed=0))
    assert model2.meta["trigger_accuracy"] == 0.0
    block2 = model2.state["label_block"]
    np.testing.assert_allclose(block2[held_out].sum(axis=1), 1.0, atol=1e-12)
    assert np.all(block2[held_out] > 0.0)
    np.testing.assert_array_equal(block2[part.train_idx], one_hot(labels[part.train_idx], 3))


def test_gcn_lp_input_has_adjacency_block(rng):
    adj, a_hat, x, labels, part = _instance(rng)
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part,
                     GcnConfig(hidden=4, layers=1),
                     TrainConfig(epochs=2, dropout=0.0, seed=0))
    assert model.meta["in_dim"] == 12 + 3


def test_dcca_stage1_improves_correlation(rng):
    n, d = 60, 6
    z = rng.standard_normal((n, 2))
    x1 = np.hstack([z @ rng.standard_normal((2, d // 2)), rng.standard_normal((n, d - d // 2)) * 2])
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, n, 0.2))
    a_hat = normalize_adjacency(adj, 1.0)
    labels = np.full(n, -1, dtype=np.intp)
    labels[:20] = rng.integers(0, 2, 20)
    part = Partition(np.arange(20), np.arange(20, 30), np.arange(30, 40))
    cfg = DccaConfig(proj_hidden=0, proj_out=2, reg=1e-3, stage1_epochs=0,
                     stage1_lr=5e-3, clf_hidden=4)
    x1s = SparseMatrix.from_dense(x1)
    base, _ = train("dcca", a_hat, x1s, adj, labels, 2, part, cfg,
                    TrainConfig(epochs=1, dropout=0.0, seed=3))
    before = stage1_correlation(a_hat, x1s, base)
    cfg2 = DccaConfig(proj_hidden=0, proj_out=2, reg=1e-3, stage1_epochs=150,
                      stage1_lr=5e-3, clf_hidden=4)
    trained, _ = train("dcca", a_hat, x1s, adj, labels, 2, part, cfg2,
                       TrainConfig(epochs=1, dropout=0.0, seed=3))
    after = stage1_correlation(a_hat, x1s, trained)
    assert after > before


def test_dcca_classifier_reads_standardized_projections(rng):
    # Raw projections spread little around large offsets, which kills the
    # classifier's relus together. Its input holds each projected column
    # centred and scaled over all users; a constant column, here a unit with
    # zero weights, stays at zero without a 0/0.
    adj, a_hat, x, labels, part = _instance(rng, n=40)
    cfg = DccaConfig(proj_hidden=0, proj_out=3, reg=1e-3, stage1_epochs=2, clf_hidden=4)
    model, _ = train("dcca", a_hat, x, adj, labels, 3, part, cfg,
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    w, b = model.params["f1/out/W"].data.copy(), model.params["f1/out/b"].data.copy()
    w[:, 0], b[0] = 0.0, 5.0
    model.params["f1/out/W"], model.params["f1/out/b"] = ad.constant(w), ad.constant(b)
    z = KINDS["dcca"].inputs(model, a_hat, x, adj)
    assert z.shape == (40, 6)
    np.testing.assert_array_equal(z[:, 0], 0.0)
    np.testing.assert_allclose(z[:, 1:].mean(axis=0), 0.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(z[:, 1:].std(axis=0), 1.0, rtol=1e-12)


def test_dcca_caps_a_projection_too_wide_for_its_users(rng, caplog):
    # 12 users correlate at most 10 dimensions: proj_out 20 trains as 11 // 2.
    adj, a_hat, x, labels, part = _instance(rng)
    with caplog.at_level("WARNING", logger="geograph.models"):
        model, _ = train("dcca", a_hat, x, adj, labels, 3, part,
                         DccaConfig(proj_hidden=0, proj_out=20, reg=1e-3, stage1_epochs=2),
                         TrainConfig(epochs=1, seed=0, dropout=0.0))
    assert model.meta["proj_out"] == 5 and model.params["f1/out/W"].shape == (8, 5)
    record, = caplog.records
    assert record.name == "geograph.models"
    assert record.getMessage() == "dcca: proj_out 20 needs more than 21 users, not 12; training with 5"


def test_predict_matches_training_wiring(rng, monkeypatch):
    # predict_logits must equal logits assembled by hand from the public
    # forward functions, with the inputs each model was trained on. gcn's
    # A_hat X is the operand ``propagate`` chooses, in training and prediction.
    adj, a_hat, x, labels, part = _instance(rng)
    train_cfg = TrainConfig(epochs=3, dropout=0.0, seed=0)
    gcn_cfg = GcnConfig(hidden=5, layers=2)
    dcca_cfg = DccaConfig(proj_hidden=4, proj_out=3, reg=1e-3, stage1_epochs=2, clf_hidden=5)

    # gcn, gcn-lp and mlp predict over the float32 twins of the operands.
    a32, x32, adj32 = (m.astype(np.float32) for m in (a_hat, x, adj))

    def by_hand(model):
        if model.kind == "gcn":
            return gcn_forward(a32, propagate(a32, x32), model.params, gcn_cfg)
        if model.kind == "gcn-lp":
            block = model.state["label_block"].astype(np.float32)
            return gcn_forward(a32, Propagated(a32, lp_input(adj32, block)), model.params,
                               gcn_cfg)
        if model.kind == "mlp":
            return mlp_forward(Blocks(x32, a32), model.params)
        z = np.hstack([projection_forward(x, model.params, "f1", dcca_cfg).data,
                       projection_forward(a_hat, model.params, "f2", dcca_cfg).data])
        z -= z.mean(axis=0)
        return mlp_forward(z / z.std(axis=0), model.params, prefix="clf/")

    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    trained = [
        train(kind, a_hat, x, adj, labels, 3, part, cfg, train_cfg)
        for kind, cfg in (("gcn", gcn_cfg), ("gcn-lp", gcn_cfg), ("mlp", MlpConfig(5)),
                          ("dcca", dcca_cfg))
    ]
    for model, _ in trained:
        logits = predict_logits(model, a_hat, x, adj)
        assert logits.shape == (12, 3)
        np.testing.assert_array_equal(logits, by_hand(model).data, err_msg=model.kind)
        np.testing.assert_array_equal(
            predict_classes(model, a_hat, x, adj), logits.argmax(axis=1)
        )
    assert {m.kind for m, _ in trained} == {"gcn", "gcn-lp", "mlp", "dcca"}


def test_gcn_prediction_never_builds_the_dense_text_product(rng, monkeypatch):
    # Training holds this small A_hat X dense; a prediction reads it once,
    # through the two sparse products, and never forms the n x V array.
    adj, a_hat, x, labels, part = _instance(rng)
    assert isinstance(propagate(a_hat, x), np.ndarray)
    model, _ = train("gcn", a_hat, x, adj, labels, 3, part, GcnConfig(hidden=5, layers=2),
                     TrainConfig(epochs=2, dropout=0.0, seed=0))

    def no_dense(self):
        raise AssertionError("prediction built a dense operand")

    monkeypatch.setattr(SparseMatrix, "to_dense", no_dense)
    assert predict_classes(model, a_hat, x, adj).shape == (12,)


_OTHER_SIZE_CONFIGS = {
    "gcn": GcnConfig(hidden=4, layers=2),
    "gcn-lp": GcnConfig(hidden=4, layers=2),
    "mlp": MlpConfig(4),
    "dcca": DccaConfig(proj_hidden=0, proj_out=2, reg=1e-3, stage1_epochs=1, clf_hidden=4),
}


@pytest.mark.parametrize("kind", sorted(_OTHER_SIZE_CONFIGS))
def test_predict_on_a_graph_of_another_size(rng, kind):
    # gcn-lp, mlp and dcca read one input column per user, so a model scores
    # only as many users as it was trained on; gcn's weights read the text.
    adj, a_hat, x, labels, part = _instance(rng)
    model, _ = train(kind, a_hat, x, adj, labels, 3, part, _OTHER_SIZE_CONFIGS[kind],
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    other_adj, other_a_hat, other_x, *_ = _instance(rng, n=9)
    if kind == "gcn":
        assert predict_classes(model, other_a_hat, other_x, other_adj).shape == (9,)
        wide_x = SparseMatrix.from_dense(np.ones((9, 11)))
        with pytest.raises(ArgumentError, match="trained for in_dim 8, but the dataset has 9 "
                                                "users and 11 terms"):
            predict_classes(model, other_a_hat, wide_x, other_adj)
        return
    message = f"the {kind} checkpoint was trained on 12 users, but the dataset has 9"
    with pytest.raises(ArgumentError, match=message):
        predict_classes(model, other_a_hat, other_x, other_adj)


def test_mlp_width_error_names_the_term_width(rng):
    # 12 users and 8 terms in training, 12 users and 11 terms here: the user
    # count matches, so the message must blame the text width.
    adj, a_hat, x, labels, part = _instance(rng)
    model, _ = train("mlp", a_hat, x, adj, labels, 3, part, MlpConfig(4),
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    wide_x = SparseMatrix.from_dense(np.ones((12, 11)))
    with pytest.raises(ArgumentError, match="the mlp checkpoint was trained for in_dim 8, but "
                                            "the dataset has 12 users and 11 terms"):
        predict_classes(model, a_hat, wide_x, adj)


_LAYOUT_CONFIGS = {
    **_OTHER_SIZE_CONFIGS,
    "gcn ungated": GcnConfig(hidden=4, layers=3, highway=False),
    "dcca with hidden": DccaConfig(proj_hidden=3, proj_out=2, reg=1e-3, stage1_epochs=1,
                                   clf_hidden=4),
}


@pytest.mark.parametrize("case", sorted(_LAYOUT_CONFIGS))
def test_array_layout_matches_trained_arrays(rng, case):
    adj, a_hat, x, labels, part = _instance(rng)
    kind = case.split()[0]
    model, _ = train(kind, a_hat, x, adj, labels, 3, part, _LAYOUT_CONFIGS[case],
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    held = {name: t.data.shape for name, t in model.params.items()}
    held.update((STATE_PREFIX + name, arr.shape) for name, arr in model.state.items())
    assert array_layout(model) == held
    # Gradients and Adam moments stay in training: the model holds one
    # constant array per weight, each owning its memory, and its state.
    assert all(t.grad is None and not t.requires_grad for t in model.params.values())
    arrays = [t.data for t in model.params.values()] + list(model.state.values())
    assert all(arr.base is None for arr in arrays)
    assert sum(arr.nbytes for arr in arrays) == _layout_bytes(model)


def _layout_bytes(model) -> int:
    """The bytes ``model``'s layout implies: weights in its kind's dtype,
    state in float64."""
    weight_size = np.dtype(KINDS[model.kind].dtype).itemsize
    return sum((8 if name.startswith(STATE_PREFIX) else weight_size) * math.prod(shape)
               for name, shape in array_layout(model).items())


_WIDE_CONFIGS = {
    "gcn": GcnConfig(hidden=64, layers=2),
    "gcn-lp": GcnConfig(hidden=64, layers=2),
    "mlp": MlpConfig(64),
    "dcca": DccaConfig(proj_hidden=64, proj_out=4, reg=1e-3, stage1_epochs=2, clf_hidden=64),
}


@pytest.mark.parametrize("kind", sorted(_WIDE_CONFIGS))
def test_trained_model_memory_is_its_weights(rng, kind):
    # What a trained model keeps alive, as tracemalloc counts it, is its
    # arrays plus a few kilobytes of Python objects.
    adj, a_hat, x, labels, part = _instance(rng, n=40, terms=1000)
    cfg, train_cfg = _WIDE_CONFIGS[kind], TrainConfig(epochs=3, seed=0)
    train(kind, a_hat, x, adj, labels, 3, part, cfg, train_cfg)  # first-call allocations
    # Fresh matrices: a matrix caches its transpose.
    a, feats = SparseMatrix(a_hat.csr.copy()), SparseMatrix(x.csr.copy())
    gc.collect()
    tracemalloc.start()
    try:
        model, _ = train(kind, a, feats, adj, labels, 3, part, cfg, train_cfg)
        del a, feats
        gc.collect()
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    weights = _layout_bytes(model)
    assert held - weights < 16_384, (held, weights)


def _fit_peak_memory(highway: bool) -> int:
    """Peak tracemalloc'd bytes of a warm two-epoch d6 fit, hidden 64, on
    1,000 users, gated or not."""
    rng = np.random.default_rng(0)
    n, terms = 1000, 200
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, n, 0.01))
    a_hat = normalize_adjacency(adj, 1.0)
    x = SparseMatrix.from_dense(rng.random((n, terms)) * (rng.random((n, terms)) < 0.05))
    labels = rng.integers(0, 8, n)
    part = Partition(np.arange(0, n, 4), np.arange(1, n, 4), np.arange(2, n, 4))
    cfg = GcnConfig(hidden=64, layers=6, highway=highway)
    train_cfg = TrainConfig(epochs=2, seed=0)
    train("gcn", a_hat, x, adj, labels, 8, part, cfg, train_cfg)  # first-call allocations
    # Fresh matrices: a matrix caches its transpose.
    a, feats = SparseMatrix(a_hat.csr.copy()), SparseMatrix(x.csr.copy())
    gc.collect()
    tracemalloc.start()
    try:
        train("gcn", a, feats, adj, labels, 8, part, cfg, train_cfg)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_gated_fit_peak_memory():
    # A gated layer's tape holds its output and its convolution's relu
    # output, both float32; its VJP recomputes the gate and frees each
    # temporary before it allocates the next, and dropout masks are
    # booleans. The fit peaked at 5.23 MB of tracemalloc'd memory (6.87 MB
    # when each layer kept its gate and active set on a node of its own);
    # the bound is that measurement plus 10%.
    peak = _fit_peak_memory(highway=True)
    assert peak < 1.1 * 5.23e6, peak


def test_ungated_fit_peak_memory():
    # backward releases each node before its VJP runs, and graph_conv's VJP
    # frees its gradient and dropped input before it allocates the input's
    # gradient. The ungated fit peaked at 3.52 MB (4.29 MB without that
    # order); the bound is that measurement plus 10%.
    peak = _fit_peak_memory(highway=False)
    assert peak < 1.1 * 3.52e6, peak


@pytest.mark.parametrize("case, error, message", [
    ("negative index", ArgumentError, "train_idx holds a negative index -3"),
    ("index past the users", ArgumentError, "partition holds user index 12, but there are 12"),
    ("labels of another length", ShapeError, "labels have 11 entries for 12 nodes"),
    ("gcn-lp without adjacency", ArgumentError, "gcn-lp reads the binary adjacency"),
    ("text of other users", ShapeError, "the text has 10 rows, but a_hat has 12 users"),
    ("gcn-lp adjacency of other users", ShapeError,
     "the adjacency is 10 x 10, but a_hat has 12 users"),
])
def test_train_rejects_bad_inputs_at_its_boundary(rng, case, error, message):
    adj, a_hat, x, labels, part = _instance(rng)
    kind = "gcn"
    with pytest.raises(error, match=message):
        if case == "negative index":  # it used to wrap around to the last users
            part = Partition([-3, -2, -1], [], [])
        elif case == "index past the users":
            part = Partition([0, 2], [1], [12])
        elif case == "labels of another length":
            labels = labels[:11]
        elif case == "text of other users":
            x = x[np.arange(10)]
        elif case == "gcn-lp adjacency of other users":
            kind, adj = "gcn-lp", _instance(rng, n=10)[0]
        else:
            kind, adj = "gcn-lp", None
        train(kind, a_hat, x, adj, labels, 3, part, GcnConfig(hidden=4, layers=1),
              TrainConfig(epochs=1, dropout=0.0, seed=0))


@pytest.mark.parametrize("kind", sorted(_OTHER_SIZE_CONFIGS))
def test_prediction_rejects_inputs_of_other_users(rng, kind):
    # Prediction checks the operands at training's boundary: text rows or a
    # gcn-lp adjacency for other users than a_hat's are refused up front,
    # naming both counts, not deep inside a product (or, for gcn-lp, scored).
    adj, a_hat, x, labels, part = _instance(rng)
    model, _ = train(kind, a_hat, x, adj, labels, 3, part, _OTHER_SIZE_CONFIGS[kind],
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    cases = [(x[np.arange(10)], adj, "the text has 10 rows, but a_hat has 12 users")]
    if kind == "gcn-lp":
        cases.append((x, _instance(rng, n=10)[0], "the adjacency is 10 x 10, but a_hat has 12"))
    for text, adjacency, message in cases:
        for predict in (predict_logits, predict_classes):
            with pytest.raises(ShapeError, match=message):
                predict(model, a_hat, text, adjacency)


def test_mlp_prediction_builds_no_sparse_matrix(rng, monkeypatch):
    # mlp reads [X | A_hat] as Blocks: a prediction copies neither view.
    adj, a_hat, x, labels, part = _instance(rng)
    model, _ = train("mlp", a_hat, x, adj, labels, 3, part, MlpConfig(4),
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    builds = _count_builds(monkeypatch)
    assert predict_logits(model, a_hat, x, adj).shape == (12, 3)
    assert builds == []


def test_gcn_lp_prediction_needs_the_adjacency(rng):
    adj, a_hat, x, labels, part = _instance(rng, n=40)
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part, GcnConfig(hidden=4, layers=1),
                     TrainConfig(epochs=1, dropout=0.0, seed=0))
    for predict in (predict_logits, predict_classes):
        with pytest.raises(ArgumentError, match="gcn-lp reads the binary adjacency, but none"):
            predict(model, a_hat, x, None)


@pytest.mark.parametrize("kind", ["gcn", "gcn-lp", "mlp", "dcca"])
def test_only_propagating_kinds_need_a_square_a_hat(rng, monkeypatch, kind):
    # gcn and gcn-lp propagate through a_hat, so a 40 x 5 one is refused,
    # in training before a weight is drawn and in prediction; mlp and dcca
    # read its columns as features.
    second = SparseMatrix.from_dense(rng.random((40, 5)))
    x = SparseMatrix.from_dense(rng.random((40, 6)))
    adj = SparseMatrix.from_dense(random_symmetric_adjacency(rng, 40, 0.2))
    labels = np.full(40, -1, dtype=np.intp)
    labels[:20] = np.arange(20) % 2
    part = Partition(np.arange(20), np.arange(20, 30), np.arange(30, 40))
    cfg = {"mlp": MlpConfig(4),
           "dcca": DccaConfig(proj_hidden=0, proj_out=2, reg=1e-3, stage1_epochs=2, clf_hidden=4)
           }.get(kind, GcnConfig(hidden=4, layers=2))

    def fit(a_hat):
        return train(kind, a_hat, x, adj, labels, 2, part, cfg,
                     TrainConfig(epochs=2, dropout=0.0, seed=0))[0]

    if kind in ("mlp", "dcca"):
        assert predict_logits(fit(second), second, x, adj).shape == (40, 2)
        return
    refused = f"{kind} propagates through a_hat, which must be square, but it is 40 x 5"
    model = fit(normalize_adjacency(adj, 1.0))
    with pytest.raises(ArgumentError, match=refused):
        predict_logits(model, second, x, adj)

    def drawn(*args):
        raise AssertionError("a weight was drawn before the inputs were checked")

    monkeypatch.setattr(models, "glorot_uniform", drawn)
    with pytest.raises(ArgumentError, match=refused):
        fit(second)


class _Epochs:
    """Weak references to the arrays each training epoch recorded on the
    tape; an epoch ends at its Adam step."""

    def __init__(self):
        self.current, self.ended, self.checked = [], [], 0

    def end(self):
        self.ended += self.current
        self.current = []

    def check(self):
        alive = sum(ref() is not None for ref in self.ended)
        assert alive == 0, f"{alive} of {len(self.ended)} arrays of an ended epoch are alive"
        self.checked += len(self.ended)
        self.ended = []


def _recording(op, epochs):
    """``op``, checking that no ended epoch's array is alive, and noting the
    arrays it records: its output and what its VJP holds, less its operands."""
    def wrapped(*args, **kwargs):
        epochs.check()
        out = op(*args, **kwargs)
        given = {id(a.data if isinstance(a, ad.Tensor) else a) for a in args}
        cells = () if out._vjp is None else out._vjp.__closure__
        held = [out.data, *(cell.cell_contents for cell in cells)]
        epochs.current += [weakref.ref(a) for a in held
                           if isinstance(a, np.ndarray) and id(a) not in given]
        return out

    return wrapped


@pytest.mark.parametrize("case", ["gcn", "gcn-lp", "dcca"])
def test_one_epoch_tape_is_alive_at_a_time(rng, monkeypatch, case):
    # backward consumes the graph, so nothing an epoch recorded (activations,
    # relu active sets, gates, carries) outlives its update: the next
    # epoch's forward starts with none of it alive, the collector off.
    adj, a_hat, x, labels, part = _instance(rng, n=16)
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    epochs = _Epochs()
    step = ParamSet.adam_step

    def stepped(self, *args, **kwargs):
        step(self, *args, **kwargs)
        epochs.end()

    monkeypatch.setattr(ParamSet, "adam_step", stepped)
    ops = ("sigmoid", "cca_correlation") if case == "dcca" else ("graph_conv", "gated_conv")
    for name in ops:
        monkeypatch.setattr(ad, name, _recording(getattr(ad, name), epochs))
    cfg = (DccaConfig(proj_hidden=4, proj_out=3, reg=1e-3, stage1_epochs=4, clf_hidden=6)
           if case == "dcca" else GcnConfig(hidden=5, layers=3))
    gc.collect()
    gc.disable()
    try:
        model, _ = train(case, a_hat, x, adj, labels, 3, part, cfg,
                         TrainConfig(lr=0.02, epochs=4, dropout=0.5, seed=0))
        epochs.check()
    finally:
        gc.enable()
    if case == "gcn-lp":  # latched: held-out rows carry predictions
        assert np.all(model.state["label_block"].sum(axis=1) > 0.0)
    # Each of the 4 epochs records at least 5 arrays: two gated layers
    # (output, and the convolution's relu output) and the output layer's
    # convolution, or dcca's two sigmoids (output, twice) and its correlation
    # (output and 7).
    assert epochs.checked >= 4 * 5, epochs.checked


@pytest.mark.parametrize("kind", ["gcn", "gcn-lp"])
def test_eval_forwards_record_no_tape(rng, monkeypatch, kind):
    # An eval-mode forward, in training (gcn-lp's latch, early stopping) or
    # in prediction, runs over constants: once it returns, with the
    # collector off, nothing it made but the logits is alive, and nothing
    # holds a VJP.
    adj, a_hat, x, labels, part = _instance(rng, n=16)
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    made, evals = [], []
    forward = models.gcn_forward

    def watched(*args, **kwargs):
        made.clear()
        logits = forward(*args, **kwargs)
        if args[4] is None:  # the dropout masks: none in eval mode
            evals.append(logits._vjp is None and logits._parents == ())
            alive = [ref for ref in made if ref() is not None and ref() is not logits.data]
            assert not alive, f"{len(alive)} of {len(made)} arrays outlive an eval forward"
        return logits

    def watching(op):
        def wrapped(*args, **kwargs):
            out = op(*args, **kwargs)
            made.append(weakref.ref(out.data))
            return out
        return wrapped

    monkeypatch.setattr(models, "gcn_forward", watched)
    for name in ("relu_affine", "graph_conv", "gated_conv"):
        monkeypatch.setattr(ad, name, watching(getattr(ad, name)))
    cfg = GcnConfig(hidden=5, layers=3)
    gc.collect()
    gc.disable()
    try:
        model, _ = train(kind, a_hat, x, adj, labels, 3, part, cfg,
                         TrainConfig(lr=0.02, epochs=3, dropout=0.5, seed=0),
                         dev_score=lambda preds: 0.0)
        logits = predict_logits(model, a_hat, x, adj)
        alive = [ref for ref in made if ref() is not None and ref() is not logits]
    finally:
        gc.enable()
    assert not alive, f"{len(alive)} of {len(made)} arrays outlive predict_logits"
    assert len(made) == 4  # relu_affine, two gated layers, the output
    assert evals == [True] * 4  # one per epoch, and the prediction


def test_gcn_lp_predict_uses_stored_label_block(rng, monkeypatch):
    adj, a_hat, x, labels, part = _instance(rng)
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part,
                     GcnConfig(hidden=5, layers=1),
                     TrainConfig(epochs=5, dropout=0.0, seed=0))
    preds = predict_classes(model, a_hat, x, adj)
    assert preds.shape == (12,)
    model.state = {}
    with pytest.raises(Exception):
        predict_classes(model, a_hat, x, adj)


def test_early_stopping_restores_best_epoch(rng, monkeypatch):
    monkeypatch.setattr(models, "PATIENCE", 4)
    adj, a_hat, x, labels, part = _instance(rng, n=16)
    cfg = GcnConfig(hidden=5, layers=1)
    calls = []

    def worsening_score(preds):
        calls.append(1)
        return float(len(calls))  # epoch 1 is "best", everything after is worse

    stopped, hist = train("gcn", a_hat, x, adj, labels, 3, part, cfg,
                          TrainConfig(lr=0.01, epochs=50, dropout=0.3, seed=5),
                          dev_score=worsening_score)
    assert len(hist) == 5  # best epoch + patience exhausted
    one_epoch, _ = train("gcn", a_hat, x, adj, labels, 3, part, cfg,
                         TrainConfig(lr=0.01, epochs=1, dropout=0.3, seed=5))
    for name in stopped.params:
        np.testing.assert_array_equal(
            stopped.params[name].data, one_epoch.params[name].data
        )


def test_gcn_rejects_mismatched_features(rng):
    adj, a_hat, x, labels, part = _instance(rng)
    bad = SparseMatrix.from_dense(np.zeros((5, 8)))
    with pytest.raises(ShapeError):
        train("gcn", a_hat, bad, adj, labels, 3, part, GcnConfig(hidden=4, layers=1),
              TrainConfig(epochs=1, seed=0, dropout=0.0))


def test_train_config_validation():
    for config, fields, message in [
        (TrainConfig, {"dropout": 1.0}, "dropout must be in"),
        (TrainConfig, {"epochs": 0}, "epochs must be >= 1"),
        (TrainConfig, {"seed": -1}, "seed must be >= 0, got -1"),
        (GcnConfig, {"layers": 0}, "layers must be >= 1"),
        (DccaConfig, {"reg": 0.0}, "reg must be > 0"),
        (DccaConfig, {"proj_hidden": -1}, "proj_hidden must be >= 0"),
        (DccaConfig, {"proj_out": 0}, "proj_out and clf_hidden must be >= 1"),
        (DccaConfig, {"stage1_epochs": -1}, "stage1_epochs must be >= 0"),
        (MlpConfig, {"hidden": 0}, "hidden must be >= 1"),
    ]:
        with pytest.raises(ArgumentError, match=message):
            config(**fields)


def _take_rows(t, idx):
    """Rows ``idx`` of a tensor, on the tape: the full-rows loss reference."""
    def vjp(g):
        full = np.zeros_like(t.data)
        full[idx] = g
        return (full,)

    return ad.Tensor(t.data[idx], _parents=(t,), _vjp=vjp)


def _trained_case(case, a_hat, adj, x, labels, part):
    """(model, config, mask count, mask width) after a few training epochs;
    gcn-lp is trained with its trigger at zero."""
    train_cfg = TrainConfig(lr=0.02, epochs=3, dropout=0.5, seed=0)
    if case in ("gcn", "gcn-nohighway"):
        cfg = GcnConfig(hidden=5, layers=3, highway=case == "gcn")
        return train("gcn", a_hat, x, adj, labels, 3, part, cfg, train_cfg)[0], cfg, 3, 5
    if case == "gcn-lp":
        cfg = GcnConfig(hidden=5, layers=2)
        model, _ = train("gcn-lp", a_hat, x, adj, labels, 3, part, cfg, train_cfg)
        return model, cfg, 2, 5
    if case == "mlp":
        cfg = MlpConfig(6)
        return train("mlp", a_hat, x, adj, labels, 3, part, cfg, train_cfg)[0], cfg, 1, 6
    cfg = DccaConfig(proj_hidden=4, proj_out=3, reg=1e-3, stage1_epochs=2, clf_hidden=6)
    return train("dcca", a_hat, x, adj, labels, 3, part, cfg, train_cfg)[0], cfg, 1, 6


@pytest.mark.parametrize("case", ["gcn", "gcn-nohighway", "gcn-lp", "mlp", "dcca"])
def test_training_rows_match_full_forward(rng, monkeypatch, case):
    # The training forward computes logits for the labeled rows alone; they
    # must be the full forward's rows bit for bit, and the loss on them must
    # give the gradients of the loss read off the full logits.
    adj, a_hat, x, labels, part = _instance(rng, n=16)
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    model, cfg, count, width = _trained_case(case, a_hat, adj, x, labels, part)
    if case == "gcn-lp":  # latched: held-out rows carry predictions
        assert np.all(model.state["label_block"].sum(axis=1) > 0.0)
    kind = KINDS[model.kind]
    inputs = kind.inputs(model, a_hat, x, adj)
    rows = kind.labeled_rows(a_hat, inputs, part.train_idx)
    masks = [ad.make_dropout_mask(rng, (16, width), 0.5) for _ in range(count)]
    targets = one_hot(labels[part.train_idx], 3)

    params = _trainable(model)

    def grads(logits):
        # dcca's frozen projections get no gradient, and keep an empty slot.
        params.zero_grads()
        ad.backward(ad.softmax_cross_entropy(logits, targets))
        return {name: t.grad for name, t in params.items() if t.grad is not None}

    train = kind.forward(params, cfg, a_hat, inputs, masks, rows)
    full = kind.forward(params, cfg, a_hat, inputs, masks)
    np.testing.assert_array_equal(train.data, full.data[part.train_idx])
    want = grads(_take_rows(full, part.train_idx))
    got = grads(train)
    assert got.keys() == want.keys()
    assert any(np.any(g) for g in want.values())
    for name in want:
        np.testing.assert_allclose(got[name], want[name], rtol=0, atol=1e-12, err_msg=name)


@pytest.mark.parametrize("kind", ["gcn", "mlp"])
def test_row_operands_are_built_once_per_run(rng, monkeypatch, kind):
    adj, a_hat, x, labels, part = _instance(rng)
    builds = _count_builds(monkeypatch)
    counts = []
    for epochs in (2, 6):
        # Fresh copies: a matrix caches its transpose across runs.
        a, feats = SparseMatrix(a_hat.csr), SparseMatrix(x.csr)
        builds.clear()
        cfg = TrainConfig(lr=0.01, epochs=epochs, dropout=0.5, seed=0)
        model_cfg = GcnConfig(hidden=4, layers=2) if kind == "gcn" else MlpConfig(4)
        train(kind, a, feats, adj, labels, 3, part, model_cfg, cfg)
        counts.append(len(builds))
    assert counts[0] == counts[1] > 0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_training_names_the_epoch(rng):
    adj, a_hat, x, labels, part = _instance(rng, n=20)
    with pytest.raises(NumericError, match="training diverged: loss is nan at epoch 2"):
        train("mlp", a_hat, x, adj, labels, 3, part, MlpConfig(4),
              TrainConfig(lr=1e200, epochs=5, dropout=0.0))
    cfg = DccaConfig(proj_hidden=4, proj_out=2, reg=1e-3, stage1_epochs=5, stage1_lr=1e200,
                     clf_hidden=4)
    with pytest.raises(NumericError, match="dcca stage 1 diverged at epoch 2"):
        train("dcca", a_hat, x, adj, labels, 3, part, cfg, TrainConfig(epochs=1, dropout=0.0))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_training_and_prediction_hold_one_blas_thread(rng, monkeypatch):
    """Every loaded OpenBLAS runs on one thread inside ``train`` and
    ``predict_logits``, and gets the caller's count back when they return or
    raise."""
    controls = models._openblas_threads()
    if not controls:
        pytest.skip("no OpenBLAS is loaded")

    def counts():
        return [get() for get, _ in controls]

    inside = []
    forward = models.gcn_forward

    def counting_forward(*args, **kwargs):
        inside.append(counts())
        return forward(*args, **kwargs)

    def dev_score(preds) -> float:
        inside.append(counts())
        return 0.0

    monkeypatch.setattr(models, "gcn_forward", counting_forward)
    adj, a_hat, x, labels, part = _instance(rng, n=20)
    caller = counts()
    try:
        for _, set_ in controls:
            set_(2)
        model, _ = train("gcn", a_hat, x, adj, labels, 3, part, GcnConfig(hidden=4),
                         TrainConfig(epochs=3), dev_score=dev_score)
        assert inside and all(c == [1] * len(controls) for c in inside)
        assert counts() == [2] * len(controls)
        with pytest.raises(NumericError):
            train("mlp", a_hat, x, adj, labels, 3, part, MlpConfig(4),
                  TrainConfig(lr=1e200, epochs=5, dropout=0.0))
        assert counts() == [2] * len(controls)
        inside.clear()
        predict_logits(model, a_hat, x, adj)
        assert inside == [[1] * len(controls)]
        assert counts() == [2] * len(controls)
    finally:
        for (_, set_), count in zip(controls, caller):
            set_(count)


def test_a_second_gcn_fit_on_one_graph_reuses_its_dense_operand(rng, monkeypatch):
    adj, a_hat, x, labels, part = _instance(rng)
    densified = []
    to_dense = SparseMatrix.to_dense

    def counting_to_dense(self):
        densified.append(self)
        return to_dense(self)

    monkeypatch.setattr(SparseMatrix, "to_dense", counting_to_dense)
    cfg, train_cfg = GcnConfig(hidden=4, layers=2), TrainConfig(epochs=3)
    first, _ = train("gcn", a_hat, x, adj, labels, 3, part, cfg, train_cfg)
    assert len(densified) == 1  # 12 x 8 takes the dense branch
    operand = propagate(*KINDS["gcn"].operands(a_hat, x))
    assert not operand.flags.writeable
    second, _ = train("gcn", a_hat, x, adj, labels, 3, part, cfg, train_cfg)
    assert len(densified) == 1
    for name, t in first.params.items():
        assert t.data.tobytes() == second.params[name].data.tobytes(), name
    # Other text on the same graph gets its own product.
    train("gcn", a_hat, SparseMatrix(x.csr.copy()), adj, labels, 3, part, cfg, train_cfg)
    assert len(densified) == 2


def test_a_cold_gcn_prediction_builds_its_dense_operand_once(rng, monkeypatch):
    adj, a_hat, x, labels, part = _instance(rng)
    cfg, train_cfg = GcnConfig(hidden=4, layers=2), TrainConfig(epochs=3)
    model, _ = train("gcn", a_hat, x, adj, labels, 3, part, cfg, train_cfg)
    densified = []
    to_dense = SparseMatrix.to_dense

    def counting_to_dense(self):
        densified.append(self)
        return to_dense(self)

    monkeypatch.setattr(SparseMatrix, "to_dense", counting_to_dense)
    # Fresh matrices, as ``eval`` builds them: no fit has kept their product.
    a_new, x_new = SparseMatrix(a_hat.csr.copy()), SparseMatrix(x.csr.copy())
    logits = predict_logits(model, a_new, x_new, adj)
    assert len(densified) == 1  # 12 x 8 takes the dense branch
    np.testing.assert_array_equal(predict_logits(model, a_new, x_new, adj), logits)
    np.testing.assert_array_equal(predict_logits(model, a_hat, x, adj), logits)
    refit, _ = train("gcn", a_new, x_new, adj, labels, 3, part, cfg, train_cfg)
    assert len(densified) == 1
    for name, t in model.params.items():
        assert t.data.tobytes() == refit.params[name].data.tobytes(), name


# Minor page faults per warm fit in a fresh process that builds a random
# 3,000-user graph (about 20 neighbours per user) over 200 terms, then fits
# gcn d2 and mlp at hidden 64 for 5 epochs, three times each. With glibc's
# dynamic thresholds, gcn's warm fits took 3,522-3,660 faults; with
# ``_keep_heap`` every warm fit of either kind took 0. The bound is 100.
_FAULT_SCRIPT = """
import json, resource
import numpy as np
from scipy import sparse as sp
from geograph import models
from geograph.sparse import SparseMatrix
from geograph.views import normalize_adjacency

rng = np.random.default_rng(0)
n, terms = 3000, 200
upper = sp.triu(sp.random(n, n, density=20 / n, random_state=rng, format="coo"), k=1)
rows, cols = np.concatenate([upper.row, upper.col]), np.concatenate([upper.col, upper.row])
adj = SparseMatrix.from_triplets(n, n, rows, cols, np.ones(rows.size))
a_hat = normalize_adjacency(adj, 1.0)
text = sp.random(n, terms, density=0.05, random_state=rng, format="coo")
x = SparseMatrix.from_triplets(n, terms, text.row, text.col, text.data)
labels = rng.integers(0, 8, n)
part = models.Partition(np.arange(0, n, 4), np.arange(1, n, 4), np.arange(2, n, 4))
faults = {}
for kind, cfg in (("gcn", models.GcnConfig(hidden=64, layers=2)), ("mlp", models.MlpConfig(64))):
    faults[kind] = []
    for _ in range(3):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        models.train(kind, a_hat, x, adj, labels, 8, part, cfg, models.TrainConfig(epochs=5))
        faults[kind].append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(json.dumps(faults))
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the heap setting needs glibc")
def test_warm_fits_do_not_fault():
    # A subprocess, because the setting cannot be undone in this one.
    env = {**os.environ, "PYTHONPATH": str(Path(models.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", _FAULT_SCRIPT], capture_output=True,
                          text=True, env=env)
    assert done.returncode == 0, done.stderr
    faults = json.loads(done.stdout)
    assert all(count <= 100 for counts in faults.values() for count in counts[1:]), faults


def test_training_runs_where_the_c_library_has_no_mallopt(rng, monkeypatch):
    models._openblas_threads()  # looked up before ctypes.CDLL is replaced
    models._keep_heap.cache_clear()
    monkeypatch.setattr(models.ctypes, "CDLL", lambda name: object())
    try:
        adj, a_hat, x, labels, part = _instance(rng)
        model, _ = train("gcn", a_hat, x, adj, labels, 3, part, GcnConfig(hidden=4),
                         TrainConfig(epochs=2))
        assert models._keep_heap() is False
        assert predict_logits(model, a_hat, x, adj).shape == (12, 3)
    finally:
        monkeypatch.undo()
        models._keep_heap.cache_clear()


_BLOWUP_CONFIGS = {
    "gcn": GcnConfig(hidden=8, layers=2),
    "gcn-lp": GcnConfig(hidden=8),
    "mlp": MlpConfig(8),
    "dcca": DccaConfig(proj_hidden=4, proj_out=2, reg=1e-3, stage1_epochs=2, clf_hidden=8),
}


@pytest.mark.parametrize("kind", sorted(_BLOWUP_CONFIGS))
def test_finite_blowup_is_logged(rng, caplog, kind):
    adj, a_hat, x, labels, part = _instance(rng, n=20, terms=10)
    cfg = _BLOWUP_CONFIGS[kind]
    with caplog.at_level("WARNING", logger="geograph.models"):
        _, hist = train(kind, a_hat, x, adj, labels, 3, part, cfg,
                        TrainConfig(lr=1000.0, epochs=40, dropout=0.0))
    assert np.isfinite(hist[-1].loss) and hist[-1].loss > hist[0].loss
    record, = caplog.records
    assert record.levelname == "WARNING"
    for text in (kind, f"{hist[0].loss:.4g}", f"{hist[-1].loss:.4g}"):
        assert text in record.getMessage()
    caplog.clear()
    with caplog.at_level("WARNING", logger="geograph.models"):
        _, hist = train(kind, a_hat, x, adj, labels, 3, part, cfg,
                        TrainConfig(lr=0.02, epochs=30, dropout=0.0, seed=1))
    assert hist[-1].loss < hist[0].loss and not caplog.records


def test_train_checks_kind_and_config(rng):
    adj, a_hat, x, labels, part = _instance(rng)
    train_cfg = TrainConfig(epochs=1, dropout=0.0)
    with pytest.raises(ArgumentError, match="unknown model kind 'gcn-nohighway'"):
        train("gcn-nohighway", a_hat, x, adj, labels, 3, part, GcnConfig(hidden=4), train_cfg)
    with pytest.raises(ArgumentError, match="mlp needs a MlpConfig, got GcnConfig"):
        train("mlp", a_hat, x, adj, labels, 3, part, GcnConfig(hidden=4), train_cfg)


_DTYPE_CASES = {
    "gcn": ("gcn", GcnConfig(hidden=5, layers=3)),
    "gcn-nohighway": ("gcn", GcnConfig(hidden=5, layers=3, highway=False)),
    "gcn-lp": ("gcn-lp", GcnConfig(hidden=5, layers=2)),
    "mlp": ("mlp", MlpConfig(6)),
    "dcca": ("dcca", DccaConfig(proj_hidden=4, proj_out=3, reg=1e-3, stage1_epochs=2,
                                clf_hidden=6)),
}


@pytest.mark.parametrize("case", sorted(_DTYPE_CASES))
def test_training_keeps_its_kind_dtype(rng, monkeypatch, case):
    # gcn, gcn-lp and mlp train in float32 end to end: a float64 constant in
    # any product would upcast the logits, the loss or a gradient. dcca
    # stays float64, and so does gcn-lp's label block.
    adj, a_hat, x, labels, part = _instance(rng, n=16)
    monkeypatch.setattr(models, "LP_TRIGGER_ACCURACY", 0.0)
    seen = []
    step, loss_of = ParamSet.adam_step, ad.softmax_cross_entropy

    def stepped(self, *args, **kwargs):
        seen.extend(t.grad.dtype for t in self.values())
        step(self, *args, **kwargs)
        seen.extend(t.data.dtype for t in self.values())
        seen.extend(arr.dtype for arr in [*self._m.values(), *self._v.values()])

    def loss(logits, targets):
        out = loss_of(logits, targets)
        seen.extend([logits.data.dtype, out.data.dtype])
        return out

    monkeypatch.setattr(ParamSet, "adam_step", stepped)
    monkeypatch.setattr(ad, "softmax_cross_entropy", loss)
    kind, cfg = _DTYPE_CASES[case]
    model, _ = train(kind, a_hat, x, adj, labels, 3, part, cfg,
                     TrainConfig(lr=0.01, epochs=2, dropout=0.5, seed=0))
    seen.extend(t.data.dtype for t in model.params.values())
    seen.append(predict_logits(model, a_hat, x, adj).dtype)
    assert len(seen) > 4 * len(model.params)
    assert set(seen) == {np.dtype(np.float64 if kind == "dcca" else np.float32)}
    if kind == "gcn-lp":
        block = model.state["label_block"]
        held_out = np.setdiff1d(np.arange(16), part.train_idx)
        assert block.dtype == np.float64 and np.all(block[held_out] > 0.0)
        np.testing.assert_allclose(block[held_out].sum(axis=1), 1.0, rtol=0, atol=1e-12)
