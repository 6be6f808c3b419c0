"""Reverse-mode gradient engine over a fixed op vocabulary.

Each op computes its forward value and records its inputs together with a
vector-Jacobian product (VJP) on the output tensor: given the gradient of the
loss with respect to the output, the VJP returns one gradient per input, in
input order, and writes nothing. ``backward`` replays the recorded graph from
a scalar loss in reverse topological order and is the only place that sums
those gradients into ``grad``. It consumes the graph as it goes: before a
node's VJP runs, the node drops it, every node but a ``requires_grad`` leaf
also drops its gradient and its inputs, and ``backward`` releases the node
itself. So a node's output, unless the caller holds it, is freed while its
VJP runs, and each activation as soon as the backward pass is done with it.
Afterwards only the ``requires_grad`` leaves hold ``.grad``, every tensor
keeps its ``.data``, and a second ``backward`` that reaches the consumed
graph raises ``StateError``. An op none of whose inputs needs a gradient
records nothing: it returns a plain tensor, so an eval-mode forward over
constant weights holds no tape. The vocabulary is deliberately small:

* products: ``matmul``, ``spmm`` (constant sparse operand) and ``add_bias``;
* elementwise: ``mul_const`` (scaling), ``dropout``, ``relu`` and
  ``sigmoid``, a numpy ``1 / (1 + exp(-z))`` that saturates to exactly 0 and
  1 without a warning;
* reductions and loss heads: ``sum_all``, ``softmax_cross_entropy`` and
  ``cca_correlation``;
* fused layers: ``relu_affine``, one relu layer over a constant input,
  ``graph_conv``, one graph convolution with or without its relu, and
  ``gated_conv``, one graph convolution behind a highway gate, whose VJP
  recomputes the gate. Each is a single node whose VJP holds only the arrays
  it reads and frees each temporary before it allocates the next, so a deep
  gated stack keeps a short tape.

A constant operand (a dense array, a ``SparseMatrix`` or a lazy operand over
them) is read as numpy reads an array, through ``s @ dense`` and ``s.T @ g``.

A dropout mask is a ``DropoutMask``: the kept entries as booleans and the
scale ``1/(1-p)`` they take, applied as ``x * keep`` then ``* scale``, which
gives the bytes of multiplying by the float mask ``keep / (1-p)``.
``affine`` and ``sparse_affine`` compose the ops above. An op computes in
its inputs' dtype: a tensor keeps a float32 or float64 array as given and
reads anything else as float64, and ``mul_const`` and
``softmax_cross_entropy`` cast their constants to their input's dtype.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np

from .errors import NumericError, ShapeError, StateError
from .sparse import SparseMatrix


class Tensor:
    """Node in the recorded computation graph.

    ``_vjp(g)`` maps the gradient with respect to this tensor to a tuple of
    gradients, one per entry of ``_parents`` and in the same order. It must
    not hold this tensor: a node reachable from its own VJP is a reference
    cycle that keeps the whole tape alive until a full garbage collection.

    ``backward`` consumes the nodes it walks: a recorded node keeps its
    ``data`` but loses its VJP, its inputs and its ``grad``, so only
    ``requires_grad`` leaves hold ``.grad`` afterwards.
    """

    __slots__ = ("data", "grad", "requires_grad", "name", "_parents", "_vjp")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        name: str = "",
        _parents: tuple["Tensor", ...] = (),
        _vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]] | None = None,
    ):
        data = np.asarray(data)
        self.data = data if data.dtype == np.float32 else data.astype(np.float64, copy=False)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _needs_grad(self) -> bool:
        # A consumed node still counts, so that a walk reaching it can refuse.
        return self.requires_grad or self._vjp is not None

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape})"


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


_CONSUMED = "an earlier backward already consumed this graph; record a new forward"


def _consumed(g: np.ndarray) -> tuple[np.ndarray, ...]:
    """The VJP of a node an earlier ``backward`` has walked."""
    raise StateError(_CONSUMED)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every ``requires_grad`` leaf reachable from a
    scalar loss, consuming the recorded graph (see ``Tensor``)."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if loss._vjp is None:
        raise StateError("backward called before any forward computation was recorded")

    # Iterative post-order over the recorded graph. It checks every node
    # before any gradient is written.
    topo: list[Tensor] = []
    seen: set[int] = set()
    stack: list[tuple[Tensor, bool]] = [(loss, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            topo.append(node)
            continue
        if id(node) in seen:
            continue
        if node._vjp is _consumed:
            raise StateError(_CONSUMED)
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._needs_grad():
                stack.append((p, False))

    # A VJP may pass on the array it was given (``add_bias`` does), so one
    # array can be the gradient of several tensors: gradients are summed into
    # new arrays, never in place. Each node leaves the list, and lets go of
    # what its VJP held, once that VJP has run.
    loss.grad = np.ones_like(loss.data)
    while topo:
        node = topo.pop()
        vjp, parents, grad = node._vjp, node._parents, node.grad
        if vjp is None:
            continue  # a requires_grad leaf keeps its gradient
        node._vjp, node._parents, node.grad = _consumed, (), None
        # Unless the caller holds it, the node's output dies here, before
        # its VJP allocates; so the loop below keeps no parent, the next
        # node to run, and no spent gradient.
        del node
        for parent, g in zip(parents, vjp(grad)):
            if parent._needs_grad():
                parent.grad = g if parent.grad is None else parent.grad + g
        parent = g = None


def _node(data: np.ndarray, parents: tuple[Tensor, ...],
          vjp: Callable[[np.ndarray], tuple[np.ndarray, ...]]) -> Tensor:
    """The op's output, recorded with its inputs and VJP when one of them
    needs a gradient, else a plain tensor that drops the VJP and what it held."""
    if any(p._needs_grad() for p in parents):
        return Tensor(data, _parents=parents, _vjp=vjp)
    return Tensor(data)


# ---------------------------------------------------------------------------
# linear ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    return _node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def spmm(s: SparseMatrix, x: Tensor) -> Tensor:
    """Constant sparse matrix, or any constant operand, times a tensor:
    out = S @ x, with the gradient ``S.T @ g``."""
    return _node(s @ x.data, (x,), lambda g: (s.T @ g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a length-k row vector onto every row of (n, k) input."""
    if b.data.ndim != 1 or x.data.ndim != 2 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"add_bias: {x.data.shape} + bias {b.data.shape}")
    return _node(x.data + b.data[None, :], (x, b), lambda g: (g, g.sum(axis=0)))


def mul_const(x: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or array, cast to ``x``'s dtype."""
    c = np.asarray(c, dtype=x.data.dtype)
    return _node(x.data * c, (x,), lambda g: (g * c,))


def sum_all(x: Tensor) -> Tensor:
    return _node(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


def _expit(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """The logistic sigmoid ``1 / (1 + exp(-z))``, written into ``out`` when
    given. Below z = -709, ``exp(-z)`` overflows to inf and the result is
    exactly 0; above z = 37 it rounds to exactly 1."""
    s = np.negative(z, out=out)
    with np.errstate(over="ignore"):
        np.exp(s, out=s)
    s += 1.0
    return np.divide(1.0, s, out=s)


def sigmoid(x: Tensor) -> Tensor:
    s = _expit(x.data)
    # The VJP holds the output array, not the output tensor (see ``Tensor``).
    return _node(s, (x,), lambda g: (g * s * (1.0 - s),))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# loss heads


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against one-hot targets, row by row.

    ``targets`` has the shape of ``logits``, whose dtype it is cast to:
    callers compute logits only for the rows they hold labels for.
    """
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if logits.data.ndim != 2:
        raise ShapeError("softmax_cross_entropy expects logit rows")
    if targets.shape != logits.data.shape:
        raise ShapeError(f"targets {targets.shape} do not match logits {logits.data.shape}")
    n = targets.shape[0]
    if n == 0:
        raise ShapeError("softmax_cross_entropy needs at least one labeled row")

    z = logits.data
    zmax = z.max(axis=1, keepdims=True)
    log_norm = np.log(np.exp(z - zmax).sum(axis=1, keepdims=True)) + zmax
    log_probs = z - log_norm
    value = -(targets * log_probs).sum() / n
    return _node(value, (logits,),
                 lambda g: ((np.exp(log_probs) - targets) * (float(g) / n),))


def cca_correlation(h1: Tensor, h2: Tensor, reg: float) -> Tensor:
    """Total canonical correlation between two projected views.

    Columns of both inputs are centered; regularized covariances are whitened
    by inverse matrix square roots and the sum of singular values of the
    whitened cross-covariance is returned. The gradient follows the standard
    trace-norm form: with T = R1 S12 R2 = U diag(s) V^T (R* the inverse
    square roots),

        d corr / dH1 = (2 H1c D11 + H2c D12^T) / (n - 1)
        D12 = R1 U V^T R2,   D11 = -1/2 R1 U diag(s) U^T R1

    and symmetrically for H2.
    """
    if h1.data.ndim != 2 or h2.data.ndim != 2 or h1.data.shape[0] != h2.data.shape[0]:
        raise ShapeError(f"cca_correlation: shapes {h1.data.shape}, {h2.data.shape}")
    n, k1 = h1.data.shape
    k2 = h2.data.shape[1]
    if n <= max(k1, k2):
        raise NumericError(f"cca_correlation needs more rows ({n}) than columns ({max(k1, k2)})")
    if reg <= 0.0:
        raise NumericError("cca_correlation regularizer must be positive")

    c1 = h1.data - h1.data.mean(axis=0, keepdims=True)
    c2 = h2.data - h2.data.mean(axis=0, keepdims=True)
    denom = n - 1
    s11 = c1.T @ c1 / denom + reg * np.eye(k1)
    s22 = c2.T @ c2 / denom + reg * np.eye(k2)
    s12 = c1.T @ c2 / denom
    if not (np.isfinite(s11).all() and np.isfinite(s22).all() and np.isfinite(s12).all()):
        raise NumericError("non-finite covariance in cca_correlation")

    r1 = _inv_sqrt_sym(s11)
    r2 = _inv_sqrt_sym(s22)
    t = r1 @ s12 @ r2
    u, sing, vt = np.linalg.svd(t, full_matrices=False)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        gs = float(g)
        d12 = r1 @ u @ vt @ r2
        d11 = -0.5 * r1 @ u @ np.diag(sing) @ u.T @ r1
        d22 = -0.5 * r2 @ vt.T @ np.diag(sing) @ vt @ r2
        return (gs * (2.0 * c1 @ d11 + c2 @ d12.T) / denom,
                gs * (2.0 * c2 @ d22 + c1 @ d12) / denom)

    return _node(sing.sum(), (h1, h2), vjp)


def _inv_sqrt_sym(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, 1e-12)
    return (vecs * (vals ** -0.5)) @ vecs.T


# ---------------------------------------------------------------------------
# fused layers
#
# Each runs its arithmetic in the order the unfused ops would, so its forward
# value has their bytes, and records one node instead of a chain of them.


def relu_affine(x, w: Tensor, b: Tensor) -> Tensor:
    """One relu layer over a constant input, ``relu(x @ w + b)``.

    ``x`` is any constant operand with a ``shape``, as ``spmm`` reads it. No
    gradient reaches ``x``: the VJP holds the relu's active set as booleans
    and returns ``x.T @ g_active`` and ``g_active.sum(0)``.
    """
    if w.data.ndim != 2 or len(x.shape) != 2 or x.shape[1] != w.data.shape[0]:
        raise ShapeError(f"relu_affine: input {x.shape} @ weights {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"relu_affine: bias {b.data.shape} for weights {w.data.shape}")
    out = x @ w.data
    out += b.data
    active = out > 0.0
    np.maximum(out, 0.0, out=out)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        g = g * active
        return x.T @ g, g.sum(axis=0)

    return _node(out, (w, b), vjp)


def graph_conv(a_hat: SparseMatrix, h: Tensor, w: Tensor, b: Tensor,
               mask: DropoutMask | None = None, relu: bool = True) -> Tensor:
    """One graph convolution, ``relu(a_hat @ (mask * h) @ w + b)``, or the
    same without the relu when ``relu`` is false.

    ``mask`` is an inverted-dropout mask on ``h``. The VJP holds the relu's
    active set as booleans, the mask, and ``h``'s own array, alive anyway as
    its input; it multiplies ``a_hat.T`` by the incoming gradient once and
    derives the gradients of ``h`` and ``w`` from that product.
    """
    if w.data.ndim != 2 or h.data.ndim != 2 or h.data.shape[1] != w.data.shape[0]:
        raise ShapeError(f"graph_conv: input {h.data.shape} @ weights {w.data.shape}")
    if b.data.shape != (w.data.shape[1],):
        raise ShapeError(f"graph_conv: bias {b.data.shape} for weights {w.data.shape}")
    if mask is not None and mask.shape != h.data.shape:
        raise ShapeError(f"graph_conv: mask {mask.shape} vs input {h.data.shape}")
    w_data, h_data = w.data, h.data
    out = a_hat @ (h_data if mask is None else mask.apply(h_data)) @ w_data
    out += b.data
    active = None
    if relu:
        active = out > 0.0
        np.maximum(out, 0.0, out=out)

    def vjp(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if active is not None:
            g = g * active
        back = a_hat.T @ g
        g_b = g.sum(axis=0)
        del g
        dropped = h_data if mask is None else mask.apply(h_data)
        g_w = dropped.T @ back
        del dropped
        g_h = back @ w_data.T
        del back
        if mask is not None:
            mask.apply(g_h, out=g_h)
        return g_h, g_w, g_b

    return _node(out, (h, w, b), vjp)


def gated_conv(a_hat: SparseMatrix, h: Tensor, w: Tensor, b: Tensor, wg: Tensor, bg: Tensor,
               mask: DropoutMask | None = None) -> Tensor:
    """One gated hidden layer: the graph convolution
    ``new = relu(a_hat @ (mask * h) @ w + b)`` behind a highway gate,
    ``gate * new + (1 - gate) * h`` with ``gate = sigmoid(h @ wg + bg)``, per
    unit. The gate and the carry read the undropped ``h``, so a closed gate
    passes it through exactly.

    The node holds ``h``'s own array, alive anyway as its input, the mask and
    ``new``; its VJP recomputes the gate, one n x k x k product, and reads the
    relu's active set as ``new > 0``. Both passes run the arithmetic of
    ``graph_conv`` followed by the highway gate, in their order, so the bytes
    are theirs, and the VJP frees each temporary before it allocates the next.
    """
    n, k = h.data.shape if h.data.ndim == 2 else (-1, -1)
    if w.data.shape != (k, k) or b.data.shape != (k,):
        raise ShapeError(f"gated_conv: input {h.data.shape} @ weights {w.data.shape} "
                         f"+ bias {b.data.shape} does not keep the width")
    if wg.data.shape != (k, k) or bg.data.shape != (k,):
        raise ShapeError(f"gated_conv: gate {wg.data.shape} + {bg.data.shape} on width {k}")
    if a_hat.shape != (n, n):
        raise ShapeError(f"gated_conv: propagation matrix {a_hat.shape} for {n} rows")
    if mask is not None and mask.shape != h.data.shape:
        raise ShapeError(f"gated_conv: mask {mask.shape} vs input {h.data.shape}")
    h_data, w_data, wg_data, bg_data = h.data, w.data, wg.data, bg.data
    new = a_hat @ (h_data if mask is None else mask.apply(h_data)) @ w_data
    new += b.data
    np.maximum(new, 0.0, out=new)
    gate = h_data @ wg_data
    gate += bg_data
    _expit(gate, out=gate)
    out = new * gate
    np.subtract(1.0, gate, out=gate)  # the carry, with the bytes of gate * -1.0 + 1.0
    gate *= h_data
    out += gate

    def vjp(g: np.ndarray) -> tuple[np.ndarray, ...]:
        gate = h_data @ wg_data
        gate += bg_data
        _expit(gate, out=gate)
        carry = np.subtract(1.0, gate)
        g_pre = g * new
        g_pre -= g * h_data
        g_pre *= gate
        g_pre *= carry
        carry *= g  # becomes the gradient of h
        g_wg = h_data.T @ g_pre
        g_bg = g_pre.sum(axis=0)
        carry += g_pre @ wg_data.T
        del g_pre
        np.multiply(g, gate, out=gate)  # the gradient of new
        gate *= new > 0.0  # and of its pre-activation
        back = a_hat.T @ gate
        g_b = gate.sum(axis=0)
        del gate
        dropped = h_data if mask is None else mask.apply(h_data)
        g_w = dropped.T @ back
        del dropped
        g_h = back @ w_data.T
        del back
        if mask is not None:
            mask.apply(g_h, out=g_h)
        carry += g_h
        return carry, g_w, g_b, g_wg, g_bg

    return _node(out, (h, w, b, wg, bg), vjp)


# ---------------------------------------------------------------------------
# composite helpers


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w with b broadcast onto every row."""
    return add_bias(matmul(x, w), b)


def sparse_affine(s: SparseMatrix, w: Tensor, b: Tensor) -> Tensor:
    """Constant sparse input times a weight matrix, plus a bias row."""
    return add_bias(spmm(s, w), b)


class DropoutMask(NamedTuple):
    """An inverted-dropout mask: ``keep`` marks the kept entries, and a kept
    entry is scaled by ``scale``, 1/(1-p)."""

    keep: np.ndarray
    scale: float

    @property
    def shape(self) -> tuple[int, ...]:
        return self.keep.shape

    def apply(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """``x * keep * scale``, into ``out`` when given. A dropped entry is
        ``x * 0.0``, so its sign and a NaN survive as with a float mask."""
        out = np.multiply(x, self.keep, out=out)
        out *= self.scale
        return out


def dropout(x: Tensor, mask: DropoutMask) -> Tensor:
    """Inverted dropout by a precomputed mask."""
    if mask.shape != x.data.shape:
        raise ShapeError(f"dropout mask {mask.shape} vs input {x.data.shape}")
    return _node(mask.apply(x.data), (x,), lambda g: (mask.apply(g),))


def make_dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], p: float) -> DropoutMask:
    """Sample an inverted-dropout mask that drops each entry with probability p."""
    if not 0.0 <= p < 1.0:
        raise NumericError(f"dropout probability {p} outside [0, 1)")
    return DropoutMask(rng.random(shape) >= p, 1.0 / (1.0 - p))


__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "backward",
    "matmul",
    "spmm",
    "add_bias",
    "mul_const",
    "sum_all",
    "relu",
    "sigmoid",
    "softmax_cross_entropy",
    "cca_correlation",
    "relu_affine",
    "graph_conv",
    "gated_conv",
    "affine",
    "sparse_affine",
    "DropoutMask",
    "dropout",
    "make_dropout_mask",
]
