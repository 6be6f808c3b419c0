"""Transductive geolocation models over the text and graph views.

Four classifiers share one training scaffold (full-batch Adam on the
cross-entropy of the labeled rows). Training computes logits only for the
labeled rows, since no gradient reaches the others; prediction computes them
for every user:

* ``gcn``: graph convolutions ``H' = relu(A_hat @ (H @ W) + b)``, the first
  over the raw tf-idf rows, with highway gates on the dimension-preserving
  layers, closed by one more graph convolution into class logits.
* ``gcn-lp``: the same stack fed with ``[adjacency | label block]`` rows. The
  label block carries one-hot labels for labeled users and, once training
  accuracy first reaches a trigger threshold, the model's own softmax
  distributions for everyone else, refreshed every epoch.
* ``mlp``: one hidden relu layer over ``[tf-idf | A_hat]`` rows, no
  propagation between users at the hidden layer.
* ``dcca``: two projection nets (one per view) trained to maximize the sum of
  canonical correlations between their outputs, then frozen; a small softmax
  classifier is trained on the concatenated projections.

Every model predicts one of the region-tree classes per user. Training never
reads labels or coordinates outside the labeled index set; held-out users
participate only through their features and graph edges.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Partition
from .errors import ArgumentError, NumericError, ShapeError, StateError
from .optim import ParamSet, glorot_uniform
from .sparse import SparseMatrix, hstack as sparse_hstack


# --------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class GcnConfig:
    """Depth is the number of hidden graph-convolution layers; the softmax
    layer adds one more, so information reaches depth+1 hops."""

    hidden: int = 300
    layers: int = 1
    highway: bool = True
    gate_bias: float = -1.0

    def __post_init__(self):
        if self.hidden < 1 or self.layers < 1:
            raise ArgumentError("hidden and layers must be >= 1")


@dataclass(frozen=True)
class DccaConfig:
    proj_hidden: int = 1000  # 0 drops the sigmoid layer, leaving a linear map
    proj_out: int = 500
    reg: float = 1e-4
    stage1_lr: float = 1e-3
    stage1_epochs: int = 100
    clf_hidden: int = 300

    def __post_init__(self):
        if self.proj_hidden < 0:
            raise ArgumentError("proj_hidden must be >= 0")
        if self.proj_out < 1 or self.clf_hidden < 1:
            raise ArgumentError("proj_out and clf_hidden must be >= 1")
        if self.reg <= 0.0:
            raise ArgumentError("reg must be > 0")
        if self.stage1_epochs < 0:
            raise ArgumentError("stage1_epochs must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    dropout: float = 0.5
    seed: int = 0
    # Optional early stopping on a caller-supplied dev score (lower = better).
    # Off by default: the fixed-epoch path guarantees training is a pure
    # function of features, edges, and labeled rows.
    early_stop: bool = False
    patience: int = 10

    def __post_init__(self):
        if not 0.0 <= self.dropout < 1.0:
            raise ArgumentError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ArgumentError("epochs must be >= 1")


LP_TRIGGER_ACCURACY = 0.2


@dataclass
class TrainedModel:
    """Everything needed to reproduce predictions: weights plus wiring info."""

    kind: str  # "gcn" | "gcn-lp" | "mlp" | "dcca"
    params: ParamSet
    meta: dict
    state: dict = field(default_factory=dict)  # extra arrays, e.g. label block


@dataclass
class EpochLog:
    epoch: int
    loss: float
    train_acc: float
    dev_score: float | None = None


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    labels = np.asarray(labels, dtype=np.intp)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ArgumentError("label id outside [0, num_classes)")
    out = np.zeros((labels.size, num_classes), dtype=np.float64)
    out[np.arange(labels.size), labels] = 1.0
    return out


# --------------------------------------------------------------------------
# forward passes


def highway_combine(h_new: Tensor, h_in: Tensor, gate: Tensor) -> Tensor:
    """gate * h_new + (1 - gate) * h_in, elementwise."""
    carry = ad.add_const(ad.mul_const(gate, -1.0), 1.0)
    return ad.add(ad.mul(h_new, gate), ad.mul(h_in, carry))


def init_gcn_params(
    rng: np.random.Generator, in_dim: int, num_classes: int, cfg: GcnConfig
) -> ParamSet:
    params = ParamSet()
    dims = [in_dim] + [cfg.hidden] * cfg.layers
    for l in range(cfg.layers):
        params.add(f"conv{l}/W", glorot_uniform(rng, dims[l], dims[l + 1]))
        params.add(f"conv{l}/b", np.zeros(dims[l + 1]))
        # The first layer changes width, so only later layers carry a gate.
        if cfg.highway and l > 0:
            params.add(f"gate{l}/W", glorot_uniform(rng, cfg.hidden, cfg.hidden))
            params.add(f"gate{l}/b", np.full(cfg.hidden, float(cfg.gate_bias)))
    params.add("out/W", glorot_uniform(rng, cfg.hidden, num_classes))
    params.add("out/b", np.zeros(num_classes))
    return params


def gcn_forward(
    a_hat: SparseMatrix,
    x: SparseMatrix,
    params: ParamSet,
    cfg: GcnConfig,
    dropout_masks: list[np.ndarray] | None = None,
    out_rows: SparseMatrix | None = None,
) -> Tensor:
    """Class logits for every node from the raw input rows ``x``.

    The first layer is ``relu(a_hat @ (x @ W0) + b0)``: multiplying by the
    weights first keeps both products sparse times dense, linear in the
    edges. ``dropout_masks`` holds one mask per hidden layer output
    (applied before the next convolution); gates and carry paths read the
    undropped activation so a closed gate passes the input through exactly.
    ``out_rows``, some rows of ``a_hat``, makes the output convolution
    compute the logits of those nodes alone.
    """
    if dropout_masks is not None and len(dropout_masks) != cfg.layers:
        raise ShapeError(f"expected {cfg.layers} dropout masks, got {len(dropout_masks)}")
    h = ad.relu(ad.add_bias(ad.spmm(a_hat, ad.spmm(x, params["conv0/W"])), params["conv0/b"]))
    for l in range(1, cfg.layers):
        h_in = h
        mixed = h_in
        if dropout_masks is not None:
            mixed = ad.dropout(mixed, dropout_masks[l - 1])
        h_new = ad.relu(
            ad.affine(ad.spmm(a_hat, mixed), params[f"conv{l}/W"], params[f"conv{l}/b"])
        )
        if cfg.highway:
            gate = ad.sigmoid(ad.affine(h_in, params[f"gate{l}/W"], params[f"gate{l}/b"]))
            h = highway_combine(h_new, h_in, gate)
        else:
            h = h_new
    if dropout_masks is not None:
        h = ad.dropout(h, dropout_masks[cfg.layers - 1])
    a_out = a_hat if out_rows is None else out_rows
    return ad.affine(ad.spmm(a_out, h), params["out/W"], params["out/b"])


def init_mlp_params(
    rng: np.random.Generator, in_dim: int, hidden: int, num_classes: int, prefix: str = ""
) -> ParamSet:
    params = ParamSet()
    params.add(f"{prefix}hid/W", glorot_uniform(rng, in_dim, hidden))
    params.add(f"{prefix}hid/b", np.zeros(hidden))
    params.add(f"{prefix}out/W", glorot_uniform(rng, hidden, num_classes))
    params.add(f"{prefix}out/b", np.zeros(num_classes))
    return params


def mlp_forward(
    x: SparseMatrix, params: ParamSet, dropout_mask: np.ndarray | None = None, prefix: str = ""
) -> Tensor:
    h = ad.relu(ad.sparse_affine(x, params[f"{prefix}hid/W"], params[f"{prefix}hid/b"]))
    if dropout_mask is not None:
        h = ad.dropout(h, dropout_mask)
    return ad.affine(h, params[f"{prefix}out/W"], params[f"{prefix}out/b"])


def init_projection_params(
    rng: np.random.Generator, prefix: str, in_dim: int, cfg: DccaConfig, params: ParamSet
) -> None:
    if cfg.proj_hidden > 0:
        params.add(f"{prefix}/hid/W", glorot_uniform(rng, in_dim, cfg.proj_hidden))
        params.add(f"{prefix}/hid/b", np.zeros(cfg.proj_hidden))
        params.add(f"{prefix}/out/W", glorot_uniform(rng, cfg.proj_hidden, cfg.proj_out))
    else:
        params.add(f"{prefix}/out/W", glorot_uniform(rng, in_dim, cfg.proj_out))
    params.add(f"{prefix}/out/b", np.zeros(cfg.proj_out))


def projection_forward(
    x: SparseMatrix, params: ParamSet, prefix: str, cfg: DccaConfig
) -> Tensor:
    if cfg.proj_hidden > 0:
        h = ad.sigmoid(ad.sparse_affine(x, params[f"{prefix}/hid/W"], params[f"{prefix}/hid/b"]))
        return ad.affine(h, params[f"{prefix}/out/W"], params[f"{prefix}/out/b"])
    return ad.sparse_affine(x, params[f"{prefix}/out/W"], params[f"{prefix}/out/b"])


def cca_loss(h1: Tensor, h2: Tensor, reg: float) -> Tensor:
    """Negative sum of canonical correlations (minimization objective)."""
    return ad.mul_const(ad.cca_correlation(h1, h2, reg), -1.0)


def lp_input(adjacency: SparseMatrix, label_block: np.ndarray) -> SparseMatrix:
    """Rows ``[binary adjacency | per-class label weights]`` for gcn-lp."""
    n = adjacency.shape[0]
    if label_block.shape[0] != n:
        raise ShapeError(f"label block has {label_block.shape[0]} rows for {n} nodes")
    return sparse_hstack([adjacency, SparseMatrix.from_dense(label_block)])


# --------------------------------------------------------------------------
# one wiring per model kind, shared by training and prediction
#
# Each kind has an input builder ``inputs(model, a_hat, x, adjacency)`` and a
# forward path ``forward(params, cfg, a_hat, inputs, masks, rows=None)``, which
# computes the logits of every node, or of ``rows.idx`` alone. They look up
# the public forward functions by module-global name at call time, so
# replacing a module attribute (to time it, say) reaches every call.

# The config fields a model's meta records, with their JSON types, per config
# class; the rest of the meta is input and output widths. Prediction rebuilds
# the config from them.
_META_FIELDS = {
    GcnConfig: {"hidden": int, "layers": int, "highway": bool, "gate_bias": float},
    DccaConfig: {"proj_hidden": int, "proj_out": int, "reg": float, "clf_hidden": int},
}


def _meta(cfg, **fields) -> dict:
    return {**fields, **{name: getattr(cfg, name) for name in _META_FIELDS.get(type(cfg), ())}}


def _model_config(model: TrainedModel) -> GcnConfig | DccaConfig | None:
    """The config ``model`` was trained with, rebuilt from its meta (None for mlp)."""
    cls = KINDS[model.kind].config
    return cls(**{name: model.meta[name] for name in _META_FIELDS[cls]}) if cls else None


def _is_json_type(value, kind: type) -> bool:
    """A bool is no number here, and an int is also a valid float."""
    if kind is bool or isinstance(value, bool):
        return type(value) is kind
    return isinstance(value, int) or (kind is float and isinstance(value, float))


def meta_errors(kind: str, meta: dict) -> list[str]:
    """One message per config key prediction reads for ``kind`` that ``meta``
    lacks or holds with the wrong type."""
    return [
        f"lacks {name!r}" if name not in meta else f"{name!r} is {meta[name]!r}, not {t.__name__}"
        for name, t in _META_FIELDS.get(KINDS[kind].config, {}).items()
        if name not in meta or not _is_json_type(meta[name], t)
    ]


def _gcn_inputs(model: TrainedModel, a_hat, x, adjacency) -> SparseMatrix:
    return x


def _gcn_lp_inputs(model: TrainedModel, a_hat, x, adjacency) -> SparseMatrix:
    label_block = model.state.get("label_block")
    if label_block is None:
        raise StateError("gcn-lp model is missing its label block")
    return lp_input(adjacency, label_block)


def _mlp_inputs(model: TrainedModel, a_hat, x, adjacency) -> SparseMatrix:
    return sparse_hstack([x, a_hat])


def _dcca_inputs(model: TrainedModel, a_hat, x, adjacency) -> SparseMatrix:
    """Both views' projections side by side: the classifier's fixed input."""
    cfg = _model_config(model)
    h1 = projection_forward(x, model.params, "f1", cfg).data
    h2 = projection_forward(a_hat, model.params, "f2", cfg).data
    return SparseMatrix.from_dense(np.hstack([h1, h2]))


class LabeledRows(NamedTuple):
    """The rows a training forward computes logits for, and what it reads
    them through: ``a_hat``'s rows for the graph kinds, the input rows for
    the row-local ones."""

    idx: np.ndarray
    operand: SparseMatrix


def _gcn_logits(params: ParamSet, cfg, a_hat, inputs, masks, rows=None) -> Tensor:
    return gcn_forward(a_hat, inputs, params, cfg, masks, None if rows is None else rows.operand)


def _mlp_logits(params: ParamSet, cfg, a_hat, inputs, masks, rows=None, prefix="") -> Tensor:
    # Masks are drawn for every node, so the dropout stream is the same
    # whichever rows are computed.
    mask = masks[0] if masks else None
    if rows is not None:
        inputs, mask = rows.operand, None if mask is None else mask[rows.idx]
    return mlp_forward(inputs, params, mask, prefix)


@dataclass(frozen=True)
class ModelKind:
    config: type | None  # None for mlp, whose meta holds only widths
    inputs: Callable
    forward: Callable
    row_local: bool  # a node's logits read only its own input row

    def labeled_rows(self, a_hat: SparseMatrix, inputs: SparseMatrix, idx) -> LabeledRows:
        idx = np.asarray(idx, dtype=np.intp)
        return LabeledRows(idx, (inputs if self.row_local else a_hat).take_rows(idx))


KINDS = {
    "gcn": ModelKind(GcnConfig, _gcn_inputs, _gcn_logits, row_local=False),
    "gcn-lp": ModelKind(GcnConfig, _gcn_lp_inputs, _gcn_logits, row_local=False),
    "mlp": ModelKind(None, _mlp_inputs, _mlp_logits, row_local=True),
    "dcca": ModelKind(DccaConfig, _dcca_inputs, partial(_mlp_logits, prefix="clf/"), row_local=True),
}


# --------------------------------------------------------------------------
# training scaffold

DevScoreFn = Callable[[np.ndarray], float]


def _train_classifier(
    model: TrainedModel,
    params: ParamSet,
    inputs: SparseMatrix,
    a_hat: SparseMatrix,
    labels: np.ndarray,
    train_idx: np.ndarray,
    cfg: TrainConfig,
    dropout_rng: np.random.Generator,
    mask_count: int,
    mask_width: int,
    dev_score: DevScoreFn | None = None,
    after_epoch: Callable[[np.ndarray, float], SparseMatrix | None] | None = None,
) -> list[EpochLog]:
    """Shared full-batch loop: the kind's forward on train rows, cross-entropy, Adam.

    ``params`` are the weights updated (``model.params`` except for dcca's
    stage-2 classifier). ``after_epoch`` (used by gcn-lp) receives eval-mode
    probabilities for every node and training accuracy after each update and
    may return new inputs for the next epoch. The training forward reads the
    labeled rows through operands built once here, so new inputs reach it
    only for the graph kinds, which restrict ``a_hat`` rather than the inputs.
    """
    kind, wiring = KINDS[model.kind], _model_config(model)
    num_classes = model.meta["num_classes"]
    rows = kind.labeled_rows(a_hat, inputs, train_idx)
    train_idx = rows.idx
    targets = one_hot(labels[train_idx], num_classes)
    history: list[EpochLog] = []
    # Early stopping keeps the best-scoring parameter snapshot.
    stopping = cfg.early_stop and dev_score is not None
    best_score, stale = math.inf, 0
    best_values = params.copy_values() if stopping else None

    for epoch in range(cfg.epochs):
        masks = None
        if cfg.dropout > 0.0:
            shape = (a_hat.shape[0], mask_width)
            masks = [ad.make_dropout_mask(dropout_rng, shape, cfg.dropout) for _ in range(mask_count)]
        logits = kind.forward(params, wiring, a_hat, inputs, masks, rows)
        loss = ad.softmax_cross_entropy(logits, targets)
        _check_finite(loss, epoch)
        params.zero_grads()
        ad.backward(loss)
        params.adam_step(cfg.lr)

        train_acc = float("nan")
        score = None
        if after_epoch is not None or dev_score is not None:
            probs = ad._softmax(kind.forward(params, wiring, a_hat, inputs, None).data)
            preds = probs.argmax(axis=1)
            train_acc = float(np.mean(preds[train_idx] == labels[train_idx]))
            if after_epoch is not None:
                fresh = after_epoch(probs, train_acc)
                inputs = inputs if fresh is None else fresh
            if dev_score is not None:
                score = dev_score(preds)
        history.append(EpochLog(epoch, float(loss.data), train_acc, score))
        if stopping:
            if score < best_score:
                best_score, best_values, stale = score, params.copy_values(), 0
            else:
                stale += 1
            if stale >= cfg.patience:
                break
    if stopping:
        params.load_values(best_values)
    return history


def _check_finite(loss: Tensor, epoch: int, stage: str = "training") -> None:
    if not math.isfinite(loss.data):
        raise NumericError(f"{stage} diverged: loss is {float(loss.data)} at epoch {epoch + 1}")


def _split_rng(seed: int) -> tuple[np.random.Generator, np.random.Generator]:
    init_seq, drop_seq = np.random.SeedSequence(seed).spawn(2)
    return np.random.default_rng(init_seq), np.random.default_rng(drop_seq)


def _check_rows(a_hat: SparseMatrix, x: SparseMatrix) -> int:
    n = a_hat.shape[0]
    if x.shape[0] != n:
        raise ShapeError(f"features have {x.shape[0]} rows for {n} nodes")
    return n


# --------------------------------------------------------------------------
# model-specific training


def train_gcn(
    a_hat: SparseMatrix,
    x: SparseMatrix,
    labels: np.ndarray,
    num_classes: int,
    partition: Partition,
    gcn_cfg: GcnConfig,
    train_cfg: TrainConfig,
    dev_score: DevScoreFn | None = None,
) -> tuple[TrainedModel, list[EpochLog]]:
    _check_rows(a_hat, x)
    init_rng, drop_rng = _split_rng(train_cfg.seed)
    params = init_gcn_params(init_rng, x.shape[1], num_classes, gcn_cfg)
    model = TrainedModel("gcn", params, _meta(gcn_cfg, in_dim=x.shape[1], num_classes=num_classes))
    history = _train_classifier(
        model, params, _gcn_inputs(model, a_hat, x, None), a_hat, labels, partition.train_idx,
        train_cfg, drop_rng, gcn_cfg.layers, gcn_cfg.hidden, dev_score,
    )
    return model, history


def train_gcn_lp(
    a_hat: SparseMatrix,
    adjacency: SparseMatrix,
    labels: np.ndarray,
    num_classes: int,
    partition: Partition,
    gcn_cfg: GcnConfig,
    train_cfg: TrainConfig,
    dev_score: DevScoreFn | None = None,
    trigger_accuracy: float = LP_TRIGGER_ACCURACY,
) -> tuple[TrainedModel, list[EpochLog]]:
    """Label-propagating variant: the input carries a mutable label block.

    Labeled rows always hold their one-hot label. Held-out rows start at zero
    and stay there until training accuracy first reaches ``trigger_accuracy``
    (checked once per epoch, then latched); afterwards they hold the model's
    current softmax distribution, recomputed without dropout after every
    update.
    """
    n = a_hat.shape[0]
    init_rng, drop_rng = _split_rng(train_cfg.seed)
    in_dim = n + num_classes
    params = init_gcn_params(init_rng, in_dim, num_classes, gcn_cfg)
    label_block = np.zeros((n, num_classes), dtype=np.float64)
    train_idx = partition.train_idx
    label_block[train_idx] = one_hot(labels[train_idx], num_classes)
    model = TrainedModel(
        "gcn-lp", params,
        _meta(gcn_cfg, in_dim=in_dim, num_classes=num_classes, trigger_accuracy=trigger_accuracy),
        {"label_block": label_block},
    )
    held_out = np.setdiff1d(np.arange(n), train_idx)
    latched = False

    def after_epoch(probs: np.ndarray, train_acc: float) -> SparseMatrix | None:
        nonlocal latched
        latched = latched or train_acc >= trigger_accuracy
        if not latched:
            return None
        label_block[held_out] = probs[held_out]
        return _gcn_lp_inputs(model, a_hat, None, adjacency)

    history = _train_classifier(
        model, params, _gcn_lp_inputs(model, a_hat, None, adjacency), a_hat, labels, train_idx,
        train_cfg, drop_rng, gcn_cfg.layers, gcn_cfg.hidden, dev_score, after_epoch,
    )
    return model, history


def train_mlp(
    a_hat: SparseMatrix,
    x: SparseMatrix,
    labels: np.ndarray,
    num_classes: int,
    partition: Partition,
    hidden: int,
    train_cfg: TrainConfig,
    dev_score: DevScoreFn | None = None,
) -> tuple[TrainedModel, list[EpochLog]]:
    """One hidden layer over the concatenated text and normalized-graph rows."""
    _check_rows(a_hat, x)
    init_rng, drop_rng = _split_rng(train_cfg.seed)
    in_dim = x.shape[1] + a_hat.shape[1]
    params = init_mlp_params(init_rng, in_dim, hidden, num_classes)
    model = TrainedModel("mlp", params, _meta(None, in_dim=in_dim, num_classes=num_classes,
                                               hidden=hidden))
    history = _train_classifier(
        model, params, _mlp_inputs(model, a_hat, x, None), a_hat, labels, partition.train_idx,
        train_cfg, drop_rng, 1, hidden, dev_score,
    )
    return model, history


def train_dcca(
    a_hat: SparseMatrix,
    x: SparseMatrix,
    labels: np.ndarray,
    num_classes: int,
    partition: Partition,
    dcca_cfg: DccaConfig,
    train_cfg: TrainConfig,
    dev_score: DevScoreFn | None = None,
) -> tuple[TrainedModel, list[EpochLog]]:
    """Stage 1 maximizes view correlation on all users (no labels involved);
    stage 2 trains a softmax classifier on the frozen, concatenated
    projections of the labeled users."""
    n = _check_rows(a_hat, x)
    if n - 1 <= dcca_cfg.proj_out:
        raise ArgumentError("need more than proj_out + 1 users to correlate views")
    init_rng, drop_rng = _split_rng(train_cfg.seed)
    params = ParamSet()
    init_projection_params(init_rng, "f1", x.shape[1], dcca_cfg, params)
    init_projection_params(init_rng, "f2", a_hat.shape[1], dcca_cfg, params)
    meta = _meta(dcca_cfg, in_dim=x.shape[1], graph_dim=a_hat.shape[1], num_classes=num_classes)
    model = TrainedModel("dcca", params, meta)

    for epoch in range(dcca_cfg.stage1_epochs):
        h1 = projection_forward(x, params, "f1", dcca_cfg)
        h2 = projection_forward(a_hat, params, "f2", dcca_cfg)
        try:
            loss = cca_loss(h1, h2, dcca_cfg.reg)
        except NumericError as exc:  # the projections themselves overflowed
            raise NumericError(f"dcca stage 1 diverged at epoch {epoch + 1}: {exc}") from exc
        _check_finite(loss, epoch, "dcca stage 1")
        params.zero_grads()
        ad.backward(loss)
        params.adam_step(dcca_cfg.stage1_lr)

    # Stage 2 optimizes the classifier only; projection weights are frozen by
    # training a separate parameter set against the fixed projections z.
    z = _dcca_inputs(model, a_hat, x, None)
    clf = init_mlp_params(init_rng, z.shape[1], dcca_cfg.clf_hidden, num_classes, prefix="clf/")
    history = _train_classifier(
        model, clf, z, a_hat, labels, partition.train_idx,
        train_cfg, drop_rng, 1, dcca_cfg.clf_hidden, dev_score,
    )
    for name, tensor in clf.items():
        params.add(name, tensor.data)
    return model, history


# --------------------------------------------------------------------------
# prediction


def stage1_correlation(
    a_hat: SparseMatrix, x: SparseMatrix, model: TrainedModel
) -> float:
    """Current sum of canonical correlations between the two projections."""
    cfg = _model_config(model)
    h1 = projection_forward(x, model.params, "f1", cfg)
    h2 = projection_forward(a_hat, model.params, "f2", cfg)
    return float(ad.cca_correlation(h1, h2, cfg.reg).data)


def predict_logits(
    model: TrainedModel, a_hat: SparseMatrix, x: SparseMatrix, adjacency: SparseMatrix
) -> np.ndarray:
    """Eval-mode logits for every user, through the wiring training used."""
    kind = KINDS[model.kind]
    inputs = kind.inputs(model, a_hat, x, adjacency)
    return kind.forward(model.params, _model_config(model), a_hat, inputs, None).data


def predict_classes(
    model: TrainedModel, a_hat: SparseMatrix, x: SparseMatrix, adjacency: SparseMatrix
) -> np.ndarray:
    return predict_logits(model, a_hat, x, adjacency).argmax(axis=1)
