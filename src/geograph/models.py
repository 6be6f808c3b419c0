"""Transductive geolocation models over the text and graph views.

Four classifiers share one training scaffold (full-batch Adam on the
cross-entropy of the labeled rows). Training computes logits only for the
labeled rows, since no gradient reaches the others; prediction computes them
for every user:

* ``gcn``: graph convolutions ``H' = relu(A_hat @ (H @ W) + b)``, the first
  over the raw tf-idf rows, with highway gates on the dimension-preserving
  layers, closed by one more graph convolution, without the relu, into class
  logits. The first layer's ``A_hat @ X`` is fixed, so ``propagate`` alone
  decides how training and prediction read it: dense, built once per graph
  and text and kept on ``A_hat``, or through ``Propagated``.
* ``gcn-lp``: the same stack fed with ``[adjacency | label block]`` rows, a
  ``Blocks``. The label block carries one-hot labels for labeled users and,
  once training accuracy first reaches a trigger threshold, the model's own
  softmax distributions for everyone else, refreshed every epoch.
* ``mlp``: one hidden relu layer over ``[tf-idf | A_hat]`` rows, no
  propagation between users at the hidden layer. It reads them as a
  ``Blocks``, which is never copied into one matrix.
* ``dcca``: two projection nets (one per view) trained to maximize the sum of
  canonical correlations between their outputs, then frozen; a small softmax
  classifier is trained on the concatenated projections, each column
  standardized over all users.

Each layer records one tape node, an ``autodiff.layer`` or a gated layer's
``gated_conv``, and dcca's stage-1 loss one ``cca_loss`` node. Every constant
input, a dense array, a ``SparseMatrix``, ``Blocks`` or ``Propagated``, offers
numpy's operand spelling, ``x @ w`` and ``x.T @ g``, and is read through it
alone. All but ``Propagated`` also offer ``x[rows]``: only the row-local kinds
take rows of their inputs, and they never hold one.

``gcn``, ``gcn-lp`` and ``mlp`` compute in float32 and ``dcca`` in float64
(``ModelKind.dtype``). A set-up draws weights in float64, so the random
streams do not depend on the dtype; ``train`` casts them, the operands and the
targets once; prediction casts the operands alike. gcn-lp's label block stays
float64, and its operand, rebuilt after every epoch, reads a copy in the
kind's dtype.

``train`` and ``predict_logits`` hold every loaded OpenBLAS at one thread and
give the caller's count back afterwards (``_one_blas_thread``), so a seed
gives the same bytes at any BLAS thread count, and no idle BLAS worker spins
on another core meanwhile. Their first call also keeps glibc's heap in place
between epochs (``_keep_heap``), a process-wide setting that stays.

Every model predicts one of the region-tree classes per user. Training never
reads labels or coordinates outside the labeled index set; held-out users
participate only through their features and graph edges.
``KINDS`` holds every per-kind rule, among them the input widths a corpus
implies, which the meta records and prediction checks, and the arrays a model
of a given meta holds, which its set-up draws and a checkpoint is checked against.
"""

from __future__ import annotations

import ctypes
import logging
import math
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import cache, partial
from operator import attrgetter
from typing import Callable, NamedTuple

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .data import Partition
from .errors import ArgumentError, NumericError, ShapeError, finite
from .optim import ParamSet, glorot_uniform
from .sparse import SparseMatrix

log = logging.getLogger(__name__)

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
        if min(self.hidden, self.layers) < 1:
            raise ArgumentError(f"{'hidden' if self.hidden < 1 else 'layers'} must be >= 1")


@dataclass(frozen=True)
class MlpConfig:
    hidden: int = 300

    def __post_init__(self):
        if self.hidden < 1:
            raise ArgumentError("hidden must be >= 1")


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
        if not finite("reg", self.reg) > 0.0:
            raise ArgumentError(f"reg must be > 0, got {self.reg}")
        if not finite("stage1_lr", self.stage1_lr) > 0.0:
            raise ArgumentError(f"stage1_lr must be > 0, got {self.stage1_lr}")
        if self.stage1_epochs < 0:
            raise ArgumentError("stage1_epochs must be >= 0")


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 1e-3
    epochs: int = 200
    dropout: float = 0.5
    seed: int = 0

    def __post_init__(self):
        if not finite("lr", self.lr) > 0.0:
            raise ArgumentError(f"lr must be > 0, got {self.lr}")
        if not 0.0 <= self.dropout < 1.0:
            raise ArgumentError(f"dropout must be in [0, 1), got {self.dropout}")
        if self.epochs < 1:
            raise ArgumentError("epochs must be >= 1")
        if self.seed < 0:
            raise ArgumentError(f"seed must be >= 0, got {self.seed}")


LP_TRIGGER_ACCURACY = 0.2
# A checkpoint stores ``TrainedModel.state`` arrays under this name prefix.
STATE_PREFIX = "state/"
# Epochs without a better dev score before early stopping ends training.
PATIENCE = 10
# ``propagate`` holds ``A_hat @ X`` dense when ``n * V <= DENSE_PROPAGATION *
# (nnz(A_hat) + nnz(X))``: an epoch's two gemms against the n x V array then
# cost less than its four sparse products. Both sides scale with the hidden
# width, so the crossover is a ratio of gemm to spmm speed. Prediction reads
# the same operand: a cold one, on a graph and text no fit has kept it for,
# builds it once, which costs more than one lazy forward. Measured in
# float32, as training runs, at hidden 64 on one OpenBLAS thread (2-core
# x86), forward plus backward per epoch, on random graphs and text: dense
# wins at ratio 1.5 (10,000 users: 37 -> 4.5 ms), 3.7 (1,000 users: 1.1 ->
# 0.40 ms) and 6.4 (1.45 -> 0.83 ms, 55 -> 22 ms); sparse wins at 16.8 (2.2
# vs 3.1 ms), 32.4 (2.4 vs 6.1 ms) and above. Between 9.7 and 11.2 two runs
# disagreed on the winner, by under 30%.
DENSE_PROPAGATION = 8


@dataclass
class TrainedModel:
    """Everything needed to reproduce predictions: weights plus wiring info.
    ``params`` holds one constant tensor per weight, and no optimizer state."""

    kind: str  # "gcn" | "gcn-lp" | "mlp" | "dcca"
    params: dict[str, Tensor]
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
# parameter layouts and forward passes
#
# Each network states its parameter names and shapes once, in draw order, and
# each kind's layout (``ModelKind.layout``, of its config and meta) joins its
# networks'. A set-up draws its weights from that layout through
# ``init_params``, and ``array_layout`` checks a checkpoint against the same one.


Layout = dict[str, tuple[int, ...]]  # array name -> shape
Params = dict[str, Tensor]  # weight name -> tensor: a ParamSet in training, constants after


def init_params(rng: np.random.Generator, layout: Layout, gate_bias: float = 0.0) -> ParamSet:
    """Every weight of ``layout``, drawn in layout order: a matrix by Glorot,
    a ``gate*`` vector filled with ``gate_bias`` and any other vector with 0.
    A ``STATE_PREFIX`` entry is no weight and is skipped."""
    params = ParamSet()
    for name, shape in layout.items():
        if not name.startswith(STATE_PREFIX):
            params.add(name, glorot_uniform(rng, *shape) if len(shape) == 2
                       else np.full(shape, gate_bias if name.startswith("gate") else 0.0))
    return params


def gcn_layout(cfg: GcnConfig, meta: dict) -> Layout:
    layout, width = {}, meta["in_dim"]
    for l in range(cfg.layers):
        layout[f"conv{l}/W"], layout[f"conv{l}/b"] = (width, cfg.hidden), (cfg.hidden,)
        # The first layer changes width, so only later layers carry a gate.
        if cfg.highway and l > 0:
            layout[f"gate{l}/W"], layout[f"gate{l}/b"] = (cfg.hidden, cfg.hidden), (cfg.hidden,)
        width = cfg.hidden
    layout["out/W"], layout["out/b"] = (cfg.hidden, meta["num_classes"]), (meta["num_classes"],)
    return layout


def gcn_forward(
    a_hat: SparseMatrix,
    propagated: np.ndarray | Propagated,
    params: Params,
    cfg: GcnConfig,
    dropout_masks: list[ad.DropoutMask] | None = None,
    out_rows: SparseMatrix | None = None,
) -> Tensor:
    """Class logits for every node from the propagated input rows
    ``a_hat @ x``, as ``propagate`` returns them (gcn-lp's ``x`` is a
    ``Blocks``, always left lazy).

    Each layer is one tape node: first the relu ``layer`` over that constant
    operand, ``relu((a_hat @ x) @ W0 + b0)``; then, per later layer, a
    ``gated_conv`` with ``cfg.highway``, which recomputes its gate in the
    backward pass, else a graph-convolution ``layer``. ``dropout_masks`` holds
    one mask per hidden layer output (applied before the next convolution);
    gates and carry paths read the undropped activation so a closed gate passes
    the input through exactly. The output layer is a graph convolution without
    the relu, ``a_hat @ (mask * h) @ W + b``; ``out_rows``, some rows of
    ``a_hat``, makes it compute the logits of those nodes alone.
    """
    if dropout_masks is not None and len(dropout_masks) != cfg.layers:
        raise ShapeError(f"expected {cfg.layers} dropout masks, got {len(dropout_masks)}")
    masks = [None] * cfg.layers if dropout_masks is None else dropout_masks
    h = ad.layer(propagated, params["conv0/W"], params["conv0/b"])
    for l in range(1, cfg.layers):
        w, b = params[f"conv{l}/W"], params[f"conv{l}/b"]
        if cfg.highway:
            h = ad.gated_conv(a_hat, h, w, b, params[f"gate{l}/W"], params[f"gate{l}/b"],
                              masks[l - 1])
        else:
            h = ad.layer(h, w, b, masks[l - 1], a_hat)
    a_out = a_hat if out_rows is None else out_rows
    return ad.layer(h, params["out/W"], params["out/b"], masks[-1], a_out, act=None)


def mlp_layout(in_dim: int, hidden: int, num_classes: int, prefix: str = "") -> Layout:
    return {f"{prefix}hid/W": (in_dim, hidden), f"{prefix}hid/b": (hidden,),
            f"{prefix}out/W": (hidden, num_classes), f"{prefix}out/b": (num_classes,)}


def mlp_forward(
    x: SparseMatrix | np.ndarray, params: Params, dropout_mask: ad.DropoutMask | None = None,
    prefix: str = "",
) -> Tensor:
    h = ad.layer(x, params[f"{prefix}hid/W"], params[f"{prefix}hid/b"])
    return ad.layer(h, params[f"{prefix}out/W"], params[f"{prefix}out/b"], dropout_mask, act=None)


def projection_layout(prefix: str, in_dim: int, cfg: DccaConfig) -> Layout:
    if cfg.proj_hidden > 0:
        return mlp_layout(in_dim, cfg.proj_hidden, cfg.proj_out, f"{prefix}/")
    return {f"{prefix}/out/W": (in_dim, cfg.proj_out), f"{prefix}/out/b": (cfg.proj_out,)}


def projection_forward(
    x: SparseMatrix, params: Params, prefix: str, cfg: DccaConfig
) -> Tensor:
    if cfg.proj_hidden > 0:
        x = ad.layer(x, params[f"{prefix}/hid/W"], params[f"{prefix}/hid/b"], act="sigmoid")
    return ad.layer(x, params[f"{prefix}/out/W"], params[f"{prefix}/out/b"], act=None)


class Blocks(NamedTuple):
    """Two operands side by side, ``[left | right]``, never built as one
    matrix: gcn-lp's ``[A | L]`` and mlp's ``[X | A_hat]``.

    A product splits the dense operand into the rows each block reads,
    ``[L | R] @ W = L @ W[:k] + R @ W[k:]``; the transpose stacks the two
    blocks' products, and ``[rows]`` takes the rows of both blocks.
    """

    left: SparseMatrix | np.ndarray
    right: SparseMatrix | np.ndarray

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.left.shape[1] + self.right.shape[1]

    @property
    def T(self) -> Stacked:
        return Stacked(self.left.T, self.right.T)

    def __getitem__(self, idx: np.ndarray) -> Blocks:
        return Blocks(self.left[idx], self.right[idx])

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        k = self.left.shape[1]
        return self.left @ dense[:k] + self.right @ dense[k:]


class Stacked(NamedTuple):
    """A ``Blocks``' transpose, ``[top; bottom]``: a product stacks the two
    blocks' products."""

    top: SparseMatrix | np.ndarray
    bottom: SparseMatrix | np.ndarray

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        return np.vstack([self.top @ dense, self.bottom @ dense])


def lp_input(adjacency: SparseMatrix, label_block: np.ndarray) -> Blocks:
    """Rows ``[binary adjacency | per-class label weights]`` for gcn-lp.

    The rows hold ``label_block`` itself, not a copy."""
    return Blocks(adjacency, label_block)


class Propagated(NamedTuple):
    """The product ``left @ right`` of two operands, never formed: a product
    with a dense operand runs ``left @ (right @ W)``, and the transpose is
    the reversed product ``right.T @ left.T``. gcn's first layer reads
    ``a_hat @ x`` through it, and gcn-lp's ``a_hat @ [A | L]``."""

    left: SparseMatrix | Stacked
    right: SparseMatrix | Blocks

    @property
    def shape(self) -> tuple[int, int]:
        return self.left.shape[0], self.right.shape[1]

    @property
    def T(self) -> Propagated:
        return Propagated(self.right.T, self.left.T)

    def __matmul__(self, dense: np.ndarray) -> np.ndarray:
        return self.left @ (self.right @ dense)


def propagate(a_hat: SparseMatrix, x: SparseMatrix) -> np.ndarray | Propagated:
    """gcn's first-layer operand ``a_hat @ x``, which training and prediction
    read alike: dense when its size says a gemm beats the two sparse products
    (``DENSE_PROPAGATION``), else ``Propagated``, which runs exactly those.

    The dense operand is ``a_hat.dense_product(x)``: read-only, and kept on
    ``a_hat`` for the same ``x``, so a later fit or prediction on the same
    graph and text reuses it, and nothing outlives the caller's ``a_hat``."""
    n, v = x.shape
    if n * v <= DENSE_PROPAGATION * (a_hat.nnz + x.nnz):
        return a_hat.dense_product(x)
    return Propagated(a_hat, x)


# --------------------------------------------------------------------------
# one wiring per model kind, shared by training and prediction
#
# Each kind has a width rule, an array layout ``layout(cfg, meta)``, a set-up
# ``setup(rng, a_hat, x, adjacency, labels, partition, cfg, meta) -> (model,
# trained params, after_epoch)`` that draws its weights through that layout, an
# input builder ``inputs(model, a_hat, x, adjacency)`` and a forward path
# ``forward(params, cfg, a_hat, inputs, masks, rows=None)``, which computes the
# logits of every node, or of ``rows.idx`` alone, and a dtype. gcn-lp's
# ``after_epoch`` gets float64 eval-mode probabilities for every node and the
# training accuracy after each update, and writes the label block in place;
# ``train`` then rebuilds the inputs from it. The wiring looks up the public
# forward functions by module-global name at call time, so replacing a module
# attribute (to time it, say) reaches every call.

# The config fields a model's meta records, with their JSON types, per config
# class; the rest of the meta is input and output widths. Prediction rebuilds
# the config from them.
_META_FIELDS = {
    GcnConfig: {"hidden": int, "layers": int, "highway": bool, "gate_bias": float},
    MlpConfig: {"hidden": int},
    DccaConfig: {"proj_hidden": int, "proj_out": int, "reg": float, "clf_hidden": int},
}


def trained_config(model: TrainedModel) -> dict:
    """The config fields ``model`` was trained with, as its meta records them.
    Reports take them from here, so a width capped in training is reported
    as trained."""
    return {name: model.meta[name] for name in _META_FIELDS[KINDS[model.kind].config]}


def _model_config(model: TrainedModel) -> GcnConfig | MlpConfig | DccaConfig:
    """The config ``model`` was trained with, rebuilt from its meta."""
    return KINDS[model.kind].config(**trained_config(model))


def array_layout(model: TrainedModel) -> Layout:
    """Every array ``model``'s meta implies it holds. A meta that passes
    ``meta_errors`` but no config's checks raises ``ArgumentError``."""
    return KINDS[model.kind].layout(_model_config(model), model.meta)


def is_json_type(value, kind: type) -> bool:
    """A bool is no number here, and an int is also a valid float."""
    return type(value) is kind or (kind is float and type(value) is int)


def meta_errors(kind: str, meta: dict) -> list[str]:
    """One message per config key or input width prediction reads for
    ``kind`` that ``meta`` lacks or holds with the wrong type."""
    entry = KINDS[kind]
    widths = dict.fromkeys(["num_classes", *entry.widths(0, 0, 0)], int)
    return [
        f"lacks {name!r}" if name not in meta else f"{name!r} is {meta[name]!r}, not {t.__name__}"
        for name, t in {**_META_FIELDS[entry.config], **widths}.items()
        if name not in meta or not is_json_type(meta[name], t)
    ]


def _projections(params: Params, cfg: DccaConfig, a_hat, x) -> list[Tensor]:
    """dcca's net ``f1`` projects the text rows, ``f2`` the normalized graph rows."""
    return [projection_forward(x, params, "f1", cfg), projection_forward(a_hat, params, "f2", cfg)]


def _gcn_setup(rng, a_hat, x, adjacency, labels, partition, cfg, meta):
    params = init_params(rng, gcn_layout(cfg, meta), cfg.gate_bias)
    return TrainedModel("gcn", {}, meta), params, None


def _gcn_lp_setup(rng, a_hat, x, adjacency, labels, partition, cfg, meta):
    """Label-propagating variant: the input carries a mutable label block.

    Labeled rows always hold their one-hot label. Held-out rows start at zero
    and stay there until training accuracy first reaches
    ``LP_TRIGGER_ACCURACY`` (checked once per epoch, then latched);
    afterwards they hold the model's current softmax distribution,
    recomputed without dropout after every update.
    """
    n, num_classes, trigger = a_hat.shape[0], meta["num_classes"], LP_TRIGGER_ACCURACY
    params = init_params(rng, _gcn_lp_layout(cfg, meta), cfg.gate_bias)
    label_block = np.zeros((n, num_classes), dtype=np.float64)
    train_idx = partition.train_idx
    label_block[train_idx] = one_hot(labels[train_idx], num_classes)
    meta["trigger_accuracy"] = trigger
    held_out = np.setdiff1d(np.arange(n), train_idx)
    latched = False

    def after_epoch(probs: np.ndarray, train_acc: float) -> None:
        nonlocal latched
        latched = latched or train_acc >= trigger
        if latched:
            label_block[held_out] = probs[held_out]

    return TrainedModel("gcn-lp", {}, meta, {"label_block": label_block}), params, after_epoch


def _mlp_setup(rng, a_hat, x, adjacency, labels, partition, cfg, meta):
    """One hidden layer over the concatenated text and normalized-graph rows."""
    return TrainedModel("mlp", {}, meta), init_params(rng, _mlp_layout(cfg, meta)), None


def _dcca_setup(rng, a_hat, x, adjacency, labels, partition, cfg, meta):
    """Stage 1 maximizes view correlation on all users (no labels involved);
    the model keeps the projections as constants, and the classifier trains
    on them as a parameter set of its own. A ``proj_out`` too wide for ``n``
    users to correlate drops to ``(n - 1) // 2``."""
    n = a_hat.shape[0]
    if cfg.proj_out >= n - 1:
        capped = max(1, (n - 1) // 2)
        log.warning("dcca: proj_out %d needs more than %d users, not %d; training with %d",
                    cfg.proj_out, cfg.proj_out + 1, n, capped)
        cfg, meta["proj_out"] = replace(cfg, proj_out=capped), capped
    layout = _dcca_layout(cfg, meta)  # both projections, then the classifier
    params = init_params(rng, {k: s for k, s in layout.items() if not k.startswith("clf/")})
    clf = init_params(rng, {k: s for k, s in layout.items() if k.startswith("clf/")})

    for epoch in range(cfg.stage1_epochs):
        try:
            loss = ad.cca_loss(*_projections(params, cfg, a_hat, x), cfg.reg)
        except NumericError as exc:  # the projections themselves overflowed
            raise NumericError(f"dcca stage 1 diverged at epoch {epoch + 1}: {exc}") from exc
        _step(params, loss, cfg.stage1_lr, epoch, "dcca stage 1")
    return TrainedModel("dcca", params.constants(), meta), clf, None


def _gcn_lp_inputs(model: TrainedModel, a_hat, x, adjacency) -> Propagated:
    """``a_hat @ [A | L]``, with the adjacency and a copy of the label block
    in ``a_hat``'s dtype."""
    dtype = a_hat.dtype
    return Propagated(a_hat, lp_input(adjacency.astype(dtype),
                                      model.state["label_block"].astype(dtype)))


def _mlp_inputs(model: TrainedModel, a_hat, x, adjacency) -> Blocks:
    return Blocks(x, a_hat)


def _dcca_inputs(model: TrainedModel, a_hat, x, adjacency) -> np.ndarray:
    """Both views' projections side by side, the classifier's fixed, dense
    input, each column centred and scaled to unit deviation over all users.
    The raw projections spread little around large offsets, which kills the
    classifier's relus together. The statistics read no label."""
    z = np.hstack([h.data for h in _projections(model.params, _model_config(model), a_hat, x)])
    z -= z.mean(axis=0)
    std = z.std(axis=0)
    std[np.ptp(z, axis=0) == 0.0] = np.inf  # a constant column stays at zero
    z /= std
    return z


class LabeledRows(NamedTuple):
    """The rows a training forward computes logits for, and what it reads
    them through: ``a_hat``'s rows for the graph kinds, the input rows for
    the row-local ones."""

    idx: np.ndarray
    operand: SparseMatrix | Blocks | np.ndarray


def _gcn_logits(params: Params, cfg, a_hat, inputs, masks, rows=None) -> Tensor:
    return gcn_forward(a_hat, inputs, params, cfg, masks, None if rows is None else rows.operand)


def _mlp_logits(params: Params, cfg, a_hat, inputs, masks, rows=None, prefix="") -> Tensor:
    # Masks are drawn for every node, so the dropout stream is the same
    # whichever rows are computed.
    mask = masks[0] if masks else None
    if rows is not None:
        inputs = rows.operand
        mask = None if mask is None else ad.DropoutMask(mask.keep[rows.idx], mask.scale)
    return mlp_forward(inputs, params, mask, prefix)


# Only gcn-lp's set-up returns an ``after_epoch`` hook, so only its inputs are
# rebuilt each epoch; gcn's ``propagate`` operand never is.
@dataclass(frozen=True)
class ModelKind:
    config: type
    widths: Callable  # (a_hat columns, text width, classes) -> the input widths the meta records
    layout: Callable  # (cfg, meta) -> every array's shape, state under STATE_PREFIX
    setup: Callable
    inputs: Callable
    forward: Callable
    masks: Callable  # cfg -> (count, width) of the dropout masks an epoch draws
    row_local: bool  # a node's logits read only its own input row
    dtype: type = np.float32  # what the kind trains and predicts in

    def operands(self, a_hat: SparseMatrix, x: SparseMatrix) -> tuple[SparseMatrix, SparseMatrix]:
        """``a_hat`` and ``x`` in this kind's dtype, as given or as cached twins."""
        return a_hat.astype(self.dtype), x.astype(self.dtype)

    def labeled_rows(self, a_hat: SparseMatrix, inputs, idx) -> LabeledRows:
        idx = np.asarray(idx, dtype=np.intp)
        return LabeledRows(idx, (inputs if self.row_local else a_hat)[idx])


def _gcn_lp_layout(cfg: GcnConfig, meta: dict) -> Layout:
    in_dim, k = meta["in_dim"], meta["num_classes"]
    return {**gcn_layout(cfg, meta), STATE_PREFIX + "label_block": (in_dim - k, k)}


def _mlp_layout(cfg: MlpConfig, meta: dict) -> Layout:
    return mlp_layout(meta["in_dim"] + meta["graph_dim"], cfg.hidden, meta["num_classes"])


def _dcca_layout(cfg: DccaConfig, meta: dict) -> Layout:
    return {**projection_layout("f1", meta["in_dim"], cfg),
            **projection_layout("f2", meta["graph_dim"], cfg),
            **mlp_layout(2 * cfg.proj_out, cfg.clf_hidden, meta["num_classes"], "clf/")}


_gcn_masks = attrgetter("layers", "hidden")
_text_and_graph = lambda n, v, k: {"in_dim": v, "graph_dim": n}  # noqa: E731
KINDS = {
    "gcn": ModelKind(GcnConfig, lambda n, v, k: {"in_dim": v}, gcn_layout, _gcn_setup,
                     lambda model, a_hat, x, adjacency: propagate(a_hat, x), _gcn_logits,
                     _gcn_masks, False),
    "gcn-lp": ModelKind(GcnConfig, lambda n, v, k: {"in_dim": n + k}, _gcn_lp_layout,
                        _gcn_lp_setup, _gcn_lp_inputs, _gcn_logits, _gcn_masks, False),
    "mlp": ModelKind(MlpConfig, _text_and_graph, _mlp_layout, _mlp_setup, _mlp_inputs,
                     _mlp_logits, lambda c: (1, c.hidden), True),
    # dcca stays float64: stage 1 whitens with eigh and svd.
    "dcca": ModelKind(DccaConfig, _text_and_graph, _dcca_layout, _dcca_setup, _dcca_inputs,
                      partial(_mlp_logits, prefix="clf/"), lambda c: (1, c.clf_hidden), True,
                      np.float64),
}


# --------------------------------------------------------------------------
# one BLAS thread


@cache
def _openblas_threads() -> tuple[tuple[Callable[[], int], Callable[[int], None]], ...]:
    """The thread-count getter and setter of every OpenBLAS this process has
    loaded, looked up once: each library mapped from a path that names
    openblas, through the first pair of symbols it exports. Empty where there
    is no ``/proc/self/maps`` or no OpenBLAS."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = sorted({line.split(maxsplit=5)[-1].rstrip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:  # a mapped file that is no loadable library
            continue
        for prefix, suffix in (("scipy_openblas", "64_"), ("openblas", "64_"), ("openblas", "")):
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((get, set_))
                break
    return tuple(controls)


@contextmanager
def _one_blas_thread():
    """Hold every loaded OpenBLAS at one thread, then give each library back
    the count it had, also when the body raises.

    ``train`` and ``predict_logits`` run inside it. OpenBLAS splits a long
    inner dimension, such as every weight gradient's ``x.T @ g``, across its
    threads and sums the parts in an order that depends on their number, so
    on one thread a seed gives the same bytes at any ``OPENBLAS_NUM_THREADS``,
    and no idle worker spins on a second core. It does nothing without
    OpenBLAS, where the bytes may still depend on the BLAS's thread count.

    The count is process-wide while it is held, so this is not safe against
    two host threads that train at once: the first to finish gives the count
    back while the other still runs."""
    controls = _openblas_threads()
    counts = [get() for get, _ in controls]
    for _, set_ in controls:
        set_(1)
    try:
        yield
    finally:
        for (_, set_), count in zip(controls, counts):
            set_(count)


@cache
def _keep_heap() -> bool:
    """Keep freed memory in glibc's heap, so an epoch reuses the pages of the
    last one instead of faulting them in again; true when glibc took both
    settings. ``train`` and ``predict_logits`` call it on entry; it runs once.

    A fit's n x h arrays are megabytes, above glibc's mmap threshold (128 KiB,
    raised as mapped blocks are freed), so each epoch maps and unmaps them, or
    trims the heap top and faults it in again. This sets the mmap threshold
    to 256 MiB and the trim threshold to 512 MiB. As mallopt(3) says, setting
    either one turns off glibc's dynamic mmap threshold. Both settings are
    process-wide and, unlike the BLAS thread count, cannot be given back: the
    process keeps up to 512 MiB of free heap instead of returning it to the
    system. It does nothing where the C library has no ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no mallopt, or no C library handle
        return False
    mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    # M_MMAP_THRESHOLD (-3) first: M_TRIM_THRESHOLD (-1) alone would freeze the
    # mmap threshold where it stands. mallopt returns 0 for a value it refuses.
    return mallopt(-3, 256 << 20) == 1 and mallopt(-1, 512 << 20) == 1


# --------------------------------------------------------------------------
# training


@_one_blas_thread()
def train(
    kind: str, a_hat: SparseMatrix, x: SparseMatrix, adjacency: SparseMatrix | None,
    labels: np.ndarray, num_classes: int, partition: Partition,
    cfg: GcnConfig | MlpConfig | DccaConfig, train_cfg: TrainConfig,
    dev_score: Callable[[np.ndarray], float] | None = None,
) -> tuple[TrainedModel, list[EpochLog]]:
    """Train a model of ``kind`` (a ``KINDS`` key) with its config ``cfg``.

    After the kind's set-up, one full-batch loop runs the kind's forward on
    the labeled rows, cross-entropy and Adam. The training forward reads the
    labeled rows through operands built once here. ``dev_score`` (lower is
    better) turns on early stopping: it gets eval-mode predictions for every
    user after each update, training ends after ``PATIENCE`` epochs without a
    better score, and the best-scoring weights are kept. Without it, training
    is a pure function of features, edges and labeled rows.
    """
    _keep_heap()
    if kind not in KINDS:
        raise ArgumentError(f"unknown model kind {kind!r}; valid: {sorted(KINDS)}")
    entry = KINDS[kind]
    if not isinstance(cfg, entry.config):
        raise ArgumentError(f"{kind} needs a {entry.config.__name__}, got {type(cfg).__name__}")
    _check_graph(kind, a_hat, x, adjacency)
    n = a_hat.shape[0]
    if len(labels) != n:
        raise ShapeError(f"labels have {len(labels)} entries for {n} nodes")
    top = max(idx.max(initial=-1) for idx in vars(partition).values())
    if top >= n:
        raise ArgumentError(f"partition holds user index {top}, but there are {n} nodes")
    seeds = np.random.SeedSequence(train_cfg.seed).spawn(2)
    init_rng, dropout_rng = map(np.random.default_rng, seeds)
    meta = {**entry.widths(a_hat.shape[1], x.shape[1], num_classes), "num_classes": num_classes,
            **{name: getattr(cfg, name) for name in _META_FIELDS[entry.config]}}
    model, params, after_epoch = entry.setup(
        init_rng, a_hat, x, adjacency, labels, partition, cfg, meta
    )
    params.cast(entry.dtype)
    a_hat, x = entry.operands(a_hat, x)
    inputs = entry.inputs(model, a_hat, x, adjacency)
    rows = entry.labeled_rows(a_hat, inputs, partition.train_idx)
    train_idx = rows.idx
    targets = one_hot(labels[train_idx], num_classes).astype(entry.dtype, copy=False)
    mask_count, mask_width = entry.masks(cfg)
    history: list[EpochLog] = []
    # Early stopping keeps the best-scoring parameter snapshot.
    stopping = dev_score is not None
    best_score, stale = math.inf, 0
    best_values = params.copy_values() if stopping else None

    for epoch in range(train_cfg.epochs):
        masks = None
        if train_cfg.dropout > 0.0:
            masks = [ad.make_dropout_mask(dropout_rng, (n, mask_width), train_cfg.dropout)
                     for _ in range(mask_count)]
        loss = ad.softmax_cross_entropy(entry.forward(params, cfg, a_hat, inputs, masks, rows),
                                        targets)
        _step(params, loss, train_cfg.lr, epoch)

        train_acc, score = float("nan"), None
        if after_epoch is not None or dev_score is not None:
            # Over constants, so the forward records no tape. The label block
            # is float64, so the probabilities are too.
            probs = ad._softmax(entry.forward(params.constants(), cfg, a_hat, inputs, None)
                                .data.astype(np.float64, copy=False))
            preds = probs.argmax(axis=1)
            train_acc = float(np.mean(preds[train_idx] == labels[train_idx]))
            if after_epoch is not None:
                after_epoch(probs, train_acc)
                inputs = entry.inputs(model, a_hat, x, adjacency)
            if stopping:
                score = dev_score(preds)
        history.append(EpochLog(epoch, float(loss.data), train_acc, score))
        if stopping:
            if score < best_score:
                best_score, best_values, stale = score, params.copy_values(), 0
            else:
                stale += 1
            if stale >= PATIENCE:
                break
    if stopping:
        params.load_values(best_values)
    model.params.update(params.constants())
    if history[-1].loss > history[0].loss:
        log.warning("%s training ended at loss %.4g, above its first-epoch loss %.4g",
                    kind, history[-1].loss, history[0].loss)
    return model, history


def _step(params: ParamSet, loss: Tensor, lr: float, epoch: int,
          stage: str = "training") -> None:
    """One Adam update of ``params`` down the gradient of a finite ``loss``."""
    if not math.isfinite(loss.data):
        raise NumericError(f"{stage} diverged: loss is {float(loss.data)} at epoch {epoch + 1}")
    params.zero_grads()
    ad.backward(loss)
    params.adam_step(lr)


# --------------------------------------------------------------------------
# prediction


def stage1_correlation(
    a_hat: SparseMatrix, x: SparseMatrix, model: TrainedModel
) -> float:
    """Current sum of canonical correlations between the two projections."""
    cfg = _model_config(model)
    return -float(ad.cca_loss(*_projections(model.params, cfg, a_hat, x), cfg.reg).data)


def _check_graph(kind: str, a_hat: SparseMatrix, x: SparseMatrix,
                 adjacency: SparseMatrix | None) -> None:
    """Raise unless the operands suit ``kind``, in training and prediction
    alike: ``ArgumentError`` when a kind that propagates between users gets a
    non-square ``a_hat`` or gcn-lp no binary adjacency, ``ShapeError`` when
    the text or gcn-lp's adjacency covers other users than ``a_hat``."""
    n = a_hat.shape[0]
    if not KINDS[kind].row_local and n != a_hat.shape[1]:
        raise ArgumentError(f"{kind} propagates through a_hat, which must be square, "
                            f"but it is {n} x {a_hat.shape[1]}")
    if x.shape[0] != n:
        raise ShapeError(f"the text has {x.shape[0]} rows, but a_hat has {n} users")
    if kind == "gcn-lp" and adjacency is None:
        raise ArgumentError("gcn-lp reads the binary adjacency, but none was given")
    if kind == "gcn-lp" and adjacency.shape != (n, n):
        raise ShapeError(f"the adjacency is {adjacency.shape[0]} x {adjacency.shape[1]}, "
                         f"but a_hat has {n} users")


def _check_widths(model: TrainedModel, a_hat: SparseMatrix, x: SparseMatrix) -> None:
    """Raise ``ArgumentError`` unless this corpus gives the input widths
    ``model``'s meta records. A width grows by one column per user or not at all."""
    rule, n, v, k = KINDS[model.kind].widths, a_hat.shape[1], x.shape[1], model.meta["num_classes"]
    for key, width in rule(n, v, k).items():
        got, base = model.meta[key], rule(0, v, k)[key]
        if got != width:
            trained = f"on {got - base} users" if base != width else f"for {key} {got}"
            raise ArgumentError(f"the {model.kind} checkpoint was trained {trained}, but the "
                                f"dataset has {n} users and {v} terms")


@_one_blas_thread()
def predict_logits(
    model: TrainedModel, a_hat: SparseMatrix, x: SparseMatrix, adjacency: SparseMatrix | None
) -> np.ndarray:
    """Eval-mode logits for every user, through the wiring training used."""
    _keep_heap()
    _check_graph(model.kind, a_hat, x, adjacency)
    _check_widths(model, a_hat, x)
    kind = KINDS[model.kind]
    a_hat, x = kind.operands(a_hat, x)
    inputs = kind.inputs(model, a_hat, x, adjacency)
    return kind.forward(model.params, _model_config(model), a_hat, inputs, None).data


def predict_classes(
    model: TrainedModel, a_hat: SparseMatrix, x: SparseMatrix, adjacency: SparseMatrix | None
) -> np.ndarray:
    return predict_logits(model, a_hat, x, adjacency).argmax(axis=1)
