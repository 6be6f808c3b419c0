"""The unfused tape ops that tests build losses and references from.

The package records one node per layer. These are the primitive ops such a
layer fuses, each one node over ``geograph.autodiff._node``: the references
whose bytes a fused layer must reproduce, and the products and reductions
that tests build scalar losses from. Each VJP returns one gradient per input
and writes nothing, as the package's do.
"""

from __future__ import annotations

import numpy as np

import geograph.autodiff as ad
from geograph.autodiff import Tensor, _node


def matmul(a: Tensor, b: Tensor) -> Tensor:
    return _node(a.data @ b.data, (a, b), lambda g: (g @ b.data.T, a.data.T @ g))


def spmm(s, x: Tensor) -> Tensor:
    """A constant operand times a tensor, with the gradient ``s.T @ g``."""
    return _node(s @ x.data, (x,), lambda g: (s.T @ g,))


def add_bias(x: Tensor, b: Tensor) -> Tensor:
    """A length-k bias added to every row of an (n, k) input; the VJP passes
    on the array it was given."""
    return _node(x.data + b.data[None, :], (x, b), lambda g: (g, g.sum(axis=0)))


def mul_const(x: Tensor, c) -> Tensor:
    """``x`` times a constant scalar or array, cast to ``x``'s dtype."""
    c = np.asarray(c, dtype=x.data.dtype)
    return _node(x.data * c, (x,), lambda g: (g * c,))


def sum_all(x: Tensor) -> Tensor:
    return _node(x.data.sum(), (x,), lambda g: (np.full_like(x.data, float(g)),))


def relu(x: Tensor) -> Tensor:
    return _node(np.maximum(x.data, 0.0), (x,), lambda g: (g * (x.data > 0.0),))


def sigmoid(x: Tensor) -> Tensor:
    s = ad.sigmoid(x.data)
    return _node(s, (x,), lambda g: (g * s * (1.0 - s),))


def dropout(x: Tensor, mask: ad.DropoutMask) -> Tensor:
    return _node(ad.dropout(x.data, mask), (x,), lambda g: (ad.dropout(g, mask),))


def layer(x, w: Tensor, b: Tensor, mask=None, a_hat=None, act="relu") -> Tensor:
    """``ad.layer`` as a chain of the ops above, over a tensor or a dense
    constant ``x``. With ``a_hat``, the value is that of
    ``matmul(spmm(a_hat, d), w)`` and the gradients are those of
    ``spmm(a_hat, matmul(d, w))``, ``d`` the dropped input: the fused layer
    runs the sparse product first in the forward pass and last in the
    backward pass, which no single chain does."""
    d = x if isinstance(x, Tensor) else ad.constant(x)
    if mask is not None:
        d = dropout(d, mask)
    if a_hat is None:
        pre = matmul(d, w)
    else:
        pre = _node(a_hat @ d.data @ w.data, (spmm(a_hat, matmul(d, w)),), lambda g: (g,))
    pre = add_bias(pre, b)
    return {"relu": relu, "sigmoid": sigmoid, None: lambda t: t}[act](pre)
