"""Reverse-mode gradient engine over a fixed op vocabulary.

Each op computes its forward value and records its inputs together with a
vector-Jacobian product (VJP) on the output tensor: given the gradient of the
loss with respect to the output, the VJP returns one gradient per input, in
input order, and writes nothing. ``backward`` replays the recorded graph from
a scalar loss in reverse topological order and is the only place that sums
those gradients into ``grad``. The vocabulary is deliberately small:
dense/sparse matrix products, bias broadcast, elementwise nonlinearities and
products, softmax cross-entropy, and a canonical-correlation head. All
data is float64.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .errors import NumericError, ShapeError, StateError
from .sparse import SparseMatrix


class Tensor:
    """Node in the recorded computation graph.

    ``_vjp(g)`` maps the gradient with respect to this tensor to a tuple of
    gradients, one per entry of ``_parents`` and in the same order. It must
    not hold this tensor: a node reachable from its own VJP is a reference
    cycle that keeps the whole tape alive until a full garbage collection.
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
        self.data = np.asarray(data, dtype=np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad
        self.name = name
        self._parents = _parents
        self._vjp = _vjp

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    def _needs_grad(self) -> bool:
        return self.requires_grad or bool(self._parents)

    def __repr__(self) -> str:
        tag = self.name or "tensor"
        return f"Tensor({tag}, shape={self.data.shape})"


def parameter(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=True, name=name)


def constant(data, name: str = "") -> Tensor:
    return Tensor(data, requires_grad=False, name=name)


def backward(loss: Tensor) -> None:
    """Populate ``grad`` on every tensor reachable from a scalar loss."""
    if loss.data.size != 1:
        raise ShapeError(f"backward needs a scalar loss, got shape {loss.data.shape}")
    if not loss._parents:
        raise StateError("backward called before any forward computation was recorded")

    # Iterative post-order over the recorded graph.
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
        seen.add(id(node))
        stack.append((node, True))
        for p in node._parents:
            if id(p) not in seen and p._needs_grad():
                stack.append((p, False))

    # A VJP may hand one array to several parents (``add``, ``add_bias``), so
    # gradients are summed into new arrays, never in place.
    loss.grad = np.ones_like(loss.data)
    for node in reversed(topo):
        if node._vjp is None:
            continue
        for parent, g in zip(node._parents, node._vjp(node.grad)):
            if parent._needs_grad():
                parent.grad = g if parent.grad is None else parent.grad + g


def _check_same_shape(a: Tensor, b: Tensor, op: str) -> None:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"{op}: shapes {a.data.shape} and {b.data.shape} differ")


# ---------------------------------------------------------------------------
# linear ops


def matmul(a: Tensor, b: Tensor) -> Tensor:
    if a.data.ndim != 2 or b.data.ndim != 2 or a.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"matmul: {a.data.shape} @ {b.data.shape}")
    return Tensor(a.data @ b.data, _parents=(a, b),
                  _vjp=lambda g: (g @ b.data.T, a.data.T @ g))


def spmm(s: SparseMatrix, x: Tensor) -> Tensor:
    """Constant sparse matrix times a tensor: out = S @ x."""
    return Tensor(s.matmul_dense(x.data), _parents=(x,),
                  _vjp=lambda g: (s.transpose().matmul_dense(g),))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """Broadcast a length-k row vector onto every row of (n, k) input."""
    if b.data.ndim != 1 or x.data.ndim != 2 or x.data.shape[1] != b.data.shape[0]:
        raise ShapeError(f"add_bias: {x.data.shape} + bias {b.data.shape}")
    return Tensor(x.data + b.data[None, :], _parents=(x, b), _vjp=lambda g: (g, g.sum(axis=0)))


def add(a: Tensor, b: Tensor) -> Tensor:
    _check_same_shape(a, b, "add")
    return Tensor(a.data + b.data, _parents=(a, b), _vjp=lambda g: (g, g))


def mul(a: Tensor, b: Tensor) -> Tensor:
    """Elementwise product of equal-shaped tensors."""
    _check_same_shape(a, b, "mul")
    return Tensor(a.data * b.data, _parents=(a, b), _vjp=lambda g: (g * b.data, g * a.data))


def mul_const(x: Tensor, c) -> Tensor:
    """Multiply by a constant scalar or array (used for scaling and dropout masks)."""
    c = np.asarray(c, dtype=np.float64)
    return Tensor(x.data * c, _parents=(x,), _vjp=lambda g: (g * c,))


def add_const(x: Tensor, c) -> Tensor:
    c = np.asarray(c, dtype=np.float64)
    return Tensor(x.data + c, _parents=(x,), _vjp=lambda g: (g,))


def sum_all(x: Tensor) -> Tensor:
    return Tensor(x.data.sum(), _parents=(x,), _vjp=lambda g: (np.full_like(x.data, float(g)),))


# ---------------------------------------------------------------------------
# nonlinearities


def relu(x: Tensor) -> Tensor:
    return Tensor(np.maximum(x.data, 0.0), _parents=(x,), _vjp=lambda g: (g * (x.data > 0.0),))


def sigmoid(x: Tensor) -> Tensor:
    # Imported on first use: scipy.special adds about 0.15 s to every start-up.
    from scipy.special import expit
    s = expit(x.data)
    # The VJP holds the output array, not the output tensor (see ``Tensor``).
    return Tensor(s, _parents=(x,), _vjp=lambda g: (g * s * (1.0 - s),))


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


# ---------------------------------------------------------------------------
# loss heads


def softmax_cross_entropy(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Mean cross-entropy of softmax(logits) against one-hot targets, row by row.

    ``targets`` has the shape of ``logits``: callers compute logits only for
    the rows they hold labels for.
    """
    targets = np.asarray(targets, dtype=np.float64)
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
    return Tensor(value, _parents=(logits,),
                  _vjp=lambda g: ((np.exp(log_probs) - targets) * (float(g) / n),))


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

    return Tensor(sing.sum(), _parents=(h1, h2), _vjp=vjp)


def _inv_sqrt_sym(mat: np.ndarray) -> np.ndarray:
    vals, vecs = np.linalg.eigh(mat)
    vals = np.maximum(vals, 1e-12)
    return (vecs * (vals ** -0.5)) @ vecs.T


# ---------------------------------------------------------------------------
# composite helpers


def affine(x: Tensor, w: Tensor, b: Tensor) -> Tensor:
    """x @ w with b broadcast onto every row."""
    return add_bias(matmul(x, w), b)


def sparse_affine(s: SparseMatrix, w: Tensor, b: Tensor) -> Tensor:
    """Constant sparse input times a weight matrix, plus a bias row."""
    return add_bias(spmm(s, w), b)


def dropout(x: Tensor, mask: np.ndarray) -> Tensor:
    """Inverted-dropout scaling by a precomputed 0 / (1/keep) mask."""
    _check_mask = np.asarray(mask)
    if _check_mask.shape != x.data.shape:
        raise ShapeError(f"dropout mask {_check_mask.shape} vs input {x.data.shape}")
    return mul_const(x, _check_mask)


def make_dropout_mask(rng: np.random.Generator, shape: tuple[int, ...], p: float) -> np.ndarray:
    """Sample an inverted-dropout mask: zeros with probability p, else 1/(1-p)."""
    if not 0.0 <= p < 1.0:
        raise NumericError(f"dropout probability {p} outside [0, 1)")
    if p == 0.0:
        return np.ones(shape)
    keep = rng.random(shape) >= p
    return keep / (1.0 - p)


__all__ = [
    "Tensor",
    "parameter",
    "constant",
    "backward",
    "matmul",
    "spmm",
    "add_bias",
    "add",
    "mul",
    "mul_const",
    "add_const",
    "sum_all",
    "relu",
    "sigmoid",
    "softmax_cross_entropy",
    "cca_correlation",
    "affine",
    "sparse_affine",
    "dropout",
    "make_dropout_mask",
]
