"""Tape engine: op-level gradient checks against finite differences."""

import gc
import os
import subprocess
import sys
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

import geograph.autodiff as ad
from geograph.errors import NumericError, ShapeError, StateError
from geograph.sparse import SparseMatrix
from oracles import exact_linear_cca, fd_gradient, highway, max_relative_error

TOL = 1e-6


def check_op(build_loss, params, h=1e-6, tol=TOL):
    """FD-check d loss / d param for every entry of every named parameter.

    ``build_loss(values: dict) -> Tensor scalar`` must rebuild the graph from
    plain arrays so the oracle can probe it as a black box.
    """
    def as_float(values):
        return float(build_loss(values).data)

    loss = build_loss(params)
    leaves = _walk_parameters(loss)  # before backward, which consumes the graph
    ad.backward(loss)
    analytic = {t.name: t.grad for t in leaves}
    numeric = fd_gradient(as_float, params, h)
    assert set(analytic) == set(numeric)
    for name in numeric:
        err = max_relative_error(analytic[name], numeric[name])
        assert err < tol, f"{name}: rel err {err:.2e}"


def _walk_parameters(loss):
    seen, stack, out = set(), [loss], []
    while stack:
        t = stack.pop()
        if id(t) in seen:
            continue
        seen.add(id(t))
        if t.requires_grad and not t._parents:
            out.append(t)
        stack.extend(t._parents)
    return out


def _params(rng, **shapes):
    return {name: rng.standard_normal(shape) for name, shape in shapes.items()}


def test_matmul_grad(rng):
    p = _params(rng, a=(4, 3), b=(3, 2))

    def loss(v):
        a = ad.parameter(v["a"], "a")
        b = ad.parameter(v["b"], "b")
        return ad.sum_all(ad.matmul(a, b))

    check_op(loss, p)


def test_affine_and_bias_grad(rng):
    p = _params(rng, x=(5, 3), w=(3, 4), b=(4,))

    def loss(v):
        return ad.sum_all(
            ad.affine(ad.parameter(v["x"], "x"), ad.parameter(v["w"], "w"),
                      ad.parameter(v["b"], "b"))
        )

    check_op(loss, p)


def test_spmm_grad(rng):
    s = SparseMatrix.from_dense(rng.random((6, 4)) * (rng.random((6, 4)) < 0.5))
    p = _params(rng, x=(4, 3))

    def loss(v):
        return ad.sum_all(ad.spmm(s, ad.parameter(v["x"], "x")))

    check_op(loss, p)


def test_elementwise_grads(rng):
    p = _params(rng, a=(3, 4))
    c = rng.standard_normal((3, 4))

    def loss(v):
        z = ad.sigmoid(ad.mul_const(ad.parameter(v["a"], "a"), c))
        return ad.sum_all(ad.mul_const(z, 1.7))

    check_op(loss, p)


def _conv_instance(rng):
    """A sparse propagation matrix and graph_conv parameters."""
    a_hat = SparseMatrix.from_dense(rng.random((5, 6)) * (rng.random((5, 6)) < 0.6))
    p = _params(rng, h=(6, 4), w=(4, 3), b=(3,))
    return a_hat, p


def _relu_margin(a_hat, v, mask=None):
    """Distance of the nearest pre-activation from the relu's kink, where
    finite differences are no gradient check."""
    h = v["h"] if mask is None else mask.apply(v["h"])
    return np.abs(a_hat.to_dense() @ h @ v["w"] + v["b"]).min()


@pytest.mark.parametrize("dropped", [False, True])
def test_graph_conv_grad(rng, dropped):
    a_hat, p = _conv_instance(rng)
    mask = ad.make_dropout_mask(rng, (6, 4), 0.5) if dropped else None
    weights = rng.standard_normal((5, 3))
    assert _relu_margin(a_hat, p, mask) > 1e-4

    def loss(v):
        out = ad.graph_conv(a_hat, ad.parameter(v["h"], "h"), ad.parameter(v["w"], "w"),
                            ad.parameter(v["b"], "b"), mask)
        return ad.sum_all(ad.mul_const(out, weights))

    check_op(loss, p)


def test_output_graph_conv_grad(rng):
    # Without its relu, as the output layer: no kink, so no margin is needed.
    a_hat, p = _conv_instance(rng)
    mask = ad.make_dropout_mask(rng, (6, 4), 0.5)
    weights = rng.standard_normal((5, 3))

    def loss(v):
        out = ad.graph_conv(a_hat, ad.parameter(v["h"], "h"), ad.parameter(v["w"], "w"),
                            ad.parameter(v["b"], "b"), mask, relu=False)
        return ad.sum_all(ad.mul_const(out, weights))

    check_op(loss, p)


def test_graph_conv_matches_unfused_ops(rng):
    a_hat, p = _conv_instance(rng)
    mask = ad.make_dropout_mask(rng, (6, 4), 0.5)
    h, w, b = (ad.constant(p[k]) for k in ("h", "w", "b"))
    unfused = ad.affine(ad.spmm(a_hat, ad.dropout(h, mask)), w, b)
    np.testing.assert_array_equal(ad.graph_conv(a_hat, h, w, b, mask, relu=False).data,
                                  unfused.data)
    np.testing.assert_array_equal(ad.graph_conv(a_hat, h, w, b, mask).data,
                                  ad.relu(unfused).data)
    with pytest.raises(ShapeError):
        ad.graph_conv(a_hat, h, w, b, ad.DropoutMask(mask.keep[:3], mask.scale))
    with pytest.raises(ShapeError):
        ad.graph_conv(a_hat, h, ad.constant(p["w"].T), b)


@pytest.mark.parametrize("dense", [False, True])
def test_relu_affine_grad(rng, dense):
    x = rng.random((5, 6)) * (rng.random((5, 6)) < 0.6)
    operand = x if dense else SparseMatrix.from_dense(x)
    p = _params(rng, w=(6, 3), b=(3,))
    weights = rng.standard_normal((5, 3))
    assert np.abs(x @ p["w"] + p["b"]).min() > 1e-4  # no pre-activation at the kink

    def loss(v):
        out = ad.relu_affine(operand, ad.parameter(v["w"], "w"), ad.parameter(v["b"], "b"))
        return ad.sum_all(ad.mul_const(out, weights))

    check_op(loss, p)


def test_relu_affine_matches_unfused_ops(rng):
    # Value and weight gradients keep the bytes of relu(sparse_affine(...)).
    s = SparseMatrix.from_dense(rng.random((5, 6)) * (rng.random((5, 6)) < 0.6))
    p = _params(rng, w=(6, 3), b=(3,))
    g = rng.standard_normal((5, 3))
    outs, grads = [], []
    for fused in (True, False):
        w, b = ad.parameter(p["w"]), ad.parameter(p["b"])
        out = ad.relu_affine(s, w, b) if fused else ad.relu(ad.sparse_affine(s, w, b))
        ad.backward(ad.sum_all(ad.mul_const(out, g)))
        outs.append(out.data)
        grads.append((w.grad, b.grad))
    np.testing.assert_array_equal(outs[0], outs[1])
    for fused_grad, unfused_grad in zip(*grads):
        np.testing.assert_array_equal(fused_grad, unfused_grad)
    with pytest.raises(ShapeError):
        ad.relu_affine(s, ad.constant(p["w"].T), ad.constant(p["b"]))
    with pytest.raises(ShapeError):
        ad.relu_affine(s, ad.constant(p["w"]), ad.constant(p["b"][:2]))


def _gated_instance(rng, dtype=np.float64):
    """A square propagation matrix and gated_conv parameters of width 3 over
    5 users, in ``dtype``. User 2 reads no neighbour, so its pre-activation
    is the bias alone, and no user reads user 4."""
    dense = rng.random((5, 5)) * (rng.random((5, 5)) < 0.6)
    dense[2] = dense[:, 4] = 0.0
    p = _params(rng, h=(5, 3), w=(3, 3), b=(3,), wg=(3, 3), bg=(3,))
    return SparseMatrix.from_dense(dense).astype(dtype), {k: v.astype(dtype) for k, v in p.items()}


_GATED = ("h", "w", "b", "wg", "bg")


@pytest.mark.parametrize("gate_bias", [4.0, -4.0])  # gates near open, near closed
def test_highway_grad(rng, gate_bias):
    # The gated layer's finite-difference check: its VJP recomputes the gate.
    a_hat, p = _gated_instance(rng)
    p["wg"] *= 0.3
    p["bg"] = 0.1 * p["bg"] + gate_bias
    p["b"][:] = [0.5, -0.5, 0.25]  # keeps the empty row's pre-activation off the kink
    gate = 1.0 / (1.0 + np.exp(-(p["h"] @ p["wg"] + p["bg"])))
    assert (gate > 0.8).all() if gate_bias > 0 else (gate < 0.2).all()
    mask = ad.make_dropout_mask(rng, (5, 3), 0.5)
    assert _relu_margin(a_hat, p, mask) > 1e-4
    weights = rng.standard_normal((5, 3))

    def loss(v):
        out = ad.gated_conv(a_hat, *(ad.parameter(v[k], k) for k in _GATED), mask)
        return ad.sum_all(ad.mul_const(out, weights))

    check_op(loss, p)


@pytest.mark.parametrize("nan", [False, True])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_gated_conv_matches_graph_conv_then_highway(rng, dtype, masked, nan):
    # The fused layer's output and all five gradients have the bytes of a
    # graph_conv node followed by the unfused highway op, with -0.0 among the
    # inputs and, in a second case, a NaN. The NaN sits on the user no one
    # reads, so part of every gradient stays finite.
    a_hat, p = _gated_instance(rng, dtype)
    p["h"][0, 1] = p["b"][2] = -0.0
    if nan:
        p["h"][4, 0] = np.nan
    mask = ad.make_dropout_mask(rng, (5, 3), 0.5) if masked else None
    g = rng.standard_normal((5, 3)).astype(dtype)
    g[1, 1] = -0.0
    outs, grads = [], []
    for fused in (True, False):
        t = {k: ad.parameter(p[k].copy(), k) for k in _GATED}
        if fused:
            out = ad.gated_conv(a_hat, *(t[k] for k in _GATED), mask)
        else:
            new = ad.graph_conv(a_hat, t["h"], t["w"], t["b"], mask)
            value, vjp = highway(new.data, t["h"].data, t["wg"].data, t["bg"].data)
            out = ad.Tensor(value, _parents=(new, t["h"], t["wg"], t["bg"]), _vjp=vjp)
        ad.backward(ad.sum_all(ad.mul_const(out, g)))
        outs.append(out.data)
        grads.append([t[k].grad for k in _GATED])
    assert np.isnan(outs[0]).any() == nan and np.isnan(grads[0][0]).any() == nan
    assert outs[0].dtype == dtype and outs[0].tobytes() == outs[1].tobytes()
    for name, fused_grad, unfused_grad in zip(_GATED, *grads):
        assert fused_grad.dtype == dtype, name
        assert fused_grad.tobytes() == unfused_grad.tobytes(), name


@pytest.mark.parametrize("case", ["widening weights", "gate weights", "gate bias", "mask",
                                  "propagation matrix"])
def test_gated_conv_rejects_bad_shapes(rng, case):
    a_hat, p = _gated_instance(rng)
    args = {k: ad.constant(v) for k, v in p.items()}
    mask = None
    if case == "widening weights":
        args["w"], args["b"] = ad.constant(np.ones((3, 4))), ad.constant(np.zeros(4))
    elif case == "gate weights":
        args["wg"] = ad.constant(np.ones((3, 4)))
    elif case == "gate bias":
        args["bg"] = ad.constant(np.zeros(4))
    elif case == "mask":
        mask = ad.make_dropout_mask(rng, (4, 3), 0.5)
    else:
        a_hat = SparseMatrix.from_dense(np.ones((4, 5)))
    with pytest.raises(ShapeError, match="gated_conv"):
        ad.gated_conv(a_hat, *(args[k] for k in _GATED), mask)


def test_relu_grad_away_from_kink(rng):
    x = rng.standard_normal((4, 4))
    x[np.abs(x) < 1e-2] = 0.1  # keep the probe away from the nondifferentiable point

    def loss(v):
        return ad.sum_all(ad.relu(ad.parameter(v["x"], "x")))

    check_op(loss, {"x": x})


def test_sigmoid_grad_and_stability(rng):
    p = _params(rng, x=(3, 3))

    def loss(v):
        return ad.sum_all(ad.sigmoid(ad.parameter(v["x"], "x")))

    check_op(loss, p)
    big = ad.sigmoid(ad.constant(np.array([[800.0, -800.0]])))
    assert np.all(np.isfinite(big.data))
    np.testing.assert_allclose(big.data, [[1.0, 0.0]], atol=1e-300)


def test_expit_saturates_without_a_warning():
    z = np.array([800.0, -800.0, np.inf, -np.inf, np.nan, 40.0, -700.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        s = ad._expit(z)
        inplace = z.copy()
        assert ad._expit(inplace, out=inplace) is inplace
    np.testing.assert_array_equal(s[:4], [1.0, 0.0, 1.0, 0.0])
    assert np.isnan(s[4]) and s[5] == 1.0 and 0.0 < s[6] < 1e-300
    np.testing.assert_array_equal(inplace, s)


def test_expit_is_within_two_ulp_of_the_exact_sigmoid():
    # scipy's expit is the same formula over libm's exp, and numpy's exp
    # rounds differently: each lies within 2 ulp of the exact value, so they
    # may lie 4 ulp apart (at z near -37).
    from scipy.special import expit

    if np.finfo(np.longdouble).nmant < 63:
        pytest.skip("the reference needs an extended-precision long double")
    z = np.linspace(-40.0, 40.0, 200_001)
    exact = (1.0 / (1.0 + np.exp(-z.astype(np.longdouble)))).astype(np.float64)
    ulp = np.spacing(exact)
    got = ad._expit(z)
    assert np.all(np.abs(got - exact) <= 2 * ulp)
    assert np.all(np.abs(expit(z) - exact) <= 2 * ulp)
    assert np.all(np.abs(got - expit(z)) <= 4 * ulp)


def test_gated_fit_does_not_import_scipy_special():
    # The sigmoid is numpy's; scipy.special costs start-up time and memory.
    code = """
import sys
import numpy as np
from geograph import models
from geograph.sparse import SparseMatrix
ring = np.roll(np.eye(20), 1, axis=1)
adj = SparseMatrix.from_dense(ring + ring.T)
x = SparseMatrix.from_dense(np.random.default_rng(0).random((20, 6)))
part = models.Partition(np.arange(0, 20, 2), np.array([1]), np.array([3]))
models.train("gcn", adj, x, adj, np.arange(20) % 3, 3, part,
             models.GcnConfig(hidden=4, layers=3), models.TrainConfig(epochs=2))
assert "scipy.special" not in sys.modules, "scipy.special was imported"
"""
    env = {**os.environ, "PYTHONPATH": str(Path(ad.__file__).resolve().parents[1])}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr


def test_softmax_rows_matches_manual(rng):
    x = rng.standard_normal((5, 4))
    y = ad._softmax(x)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    np.testing.assert_allclose(y, e / e.sum(axis=1, keepdims=True), atol=1e-15)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


def _tape_ops(rng):
    """Every recorded op, each as ``op(hidden) -> Tensor`` over a (6, 3)
    input, and the arrays the ops share with their caller (weights and
    constant operands), which outlive any one graph."""
    s = SparseMatrix.from_dense(rng.random((4, 6)))
    square = SparseMatrix.from_dense(rng.random((6, 6)))
    w = ad.parameter(rng.standard_normal((3, 3)))
    b = ad.parameter(rng.standard_normal(3))
    c = rng.standard_normal((6, 3))
    mask = ad.make_dropout_mask(rng, (6, 3), 0.5)
    ops = {
        "matmul": lambda h: ad.matmul(h, w),
        "spmm": lambda h: ad.spmm(s, h),
        "add_bias": lambda h: ad.add_bias(h, b),
        "mul_const": lambda h: ad.mul_const(h, c),
        "dropout": lambda h: ad.dropout(h, mask),
        "relu": ad.relu,
        "sigmoid": ad.sigmoid,
        "softmax_cross_entropy": lambda h: ad.softmax_cross_entropy(h, np.eye(3)[[0, 2, 1, 0, 2, 1]]),
        "cca_correlation": lambda h: ad.cca_correlation(h, ad.mul_const(h, c), 1e-3),
        "relu_affine": lambda h: ad.relu_affine(s, h, b),
        "graph_conv": lambda h: ad.graph_conv(s, h, w, b, mask),
        "graph_conv without relu": lambda h: ad.graph_conv(s, h, w, b, mask, relu=False),
        "gated_conv": lambda h: ad.gated_conv(square, h, w, b, w, b, mask),
    }
    return ops, (w.data, b.data, c, mask.keep)


def test_dropped_tape_is_freed_without_gc(rng):
    # An op whose VJP held its own output tensor would form a reference cycle,
    # keeping every upstream activation alive until a full collection. With
    # the collector off, dropping the tensors must free them.
    ops, _ = _tape_ops(rng)
    v = ad.parameter(rng.standard_normal((4, 3)))
    gc.disable()
    try:
        for name, op in ops.items():
            hidden = ad.matmul(ad.constant(rng.standard_normal((6, 4))), v)
            probe = weakref.ref(hidden.data)
            out = op(hidden)
            loss = out if out.data.size == 1 else ad.sum_all(out)
            ad.backward(loss)
            del hidden, out, loss
            assert probe() is None, f"{name} keeps its tape alive"
    finally:
        gc.enable()


def _held_arrays(vjp):
    """The arrays a VJP's closure holds, directly or as a tensor's data."""
    cells = [cell.cell_contents for cell in vjp.__closure__ or ()]
    return [v.data if isinstance(v, ad.Tensor) else v for v in cells
            if isinstance(v, (ad.Tensor, np.ndarray))]


def test_backward_frees_what_each_vjp_held(rng):
    # backward consumes the graph as it walks it: with the loss still
    # referenced and the collector off, the op's input and every array its
    # VJP held, other than what the caller keeps, are gone once it returns.
    ops, shared = _tape_ops(rng)
    v = ad.parameter(rng.standard_normal((4, 3)))
    gc.disable()
    try:
        for name, op in ops.items():
            hidden = ad.matmul(ad.constant(rng.standard_normal((6, 4))), v)
            out = op(hidden)
            held = [a for a in _held_arrays(out._vjp) if not any(a is k for k in shared)]
            probes = [weakref.ref(a) for a in (hidden.data, *held)]
            loss = out if out.data.size == 1 else ad.sum_all(out)
            del hidden, out, held
            ad.backward(loss)
            alive = sum(probe() is not None for probe in probes)
            assert alive == 0, f"{name}: {alive} of {len(probes)} arrays outlive backward"
            assert loss.grad is None and np.isfinite(loss.data)
    finally:
        gc.enable()


def test_backward_releases_each_node_before_its_vjp(rng):
    # A node's output that only the graph holds is freed before its VJP
    # runs, so the VJP's temporaries never sit beside it.
    x = ad.parameter(rng.standard_normal((4, 3)))
    seen = []

    def vjp(g):
        seen.append(probe())
        return (g,)

    node = ad.Tensor(x.data * 2.0, _parents=(x,), _vjp=vjp)
    probe = weakref.ref(node.data)
    loss = ad.sum_all(node)
    del node
    gc.disable()
    try:
        ad.backward(loss)
    finally:
        gc.enable()
    assert seen == [None]
    np.testing.assert_array_equal(x.grad, np.ones((4, 3)))


def test_softmax_cross_entropy_value_and_grad(rng):
    logits = rng.standard_normal((3, 4))
    targets = np.zeros((3, 4))
    targets[np.arange(3), [1, 0, 3]] = 1.0

    out = ad.softmax_cross_entropy(ad.constant(logits), targets)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    manual = -np.mean(np.log(probs[np.arange(3), [1, 0, 3]]))
    assert abs(float(out.data) - manual) < 1e-12

    def loss(v):
        return ad.softmax_cross_entropy(ad.parameter(v["x"], "x"), targets)

    check_op(loss, {"x": logits})
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(ad.constant(logits), targets[:2])


def test_softmax_cross_entropy_rejects_empty_rows(rng):
    with pytest.raises(ShapeError):
        ad.softmax_cross_entropy(ad.constant(np.zeros((0, 2))), np.zeros((0, 2)))


def test_cca_correlation_matches_closed_form(rng):
    h1 = rng.standard_normal((40, 3))
    h2 = h1 @ rng.standard_normal((3, 3)) + 0.1 * rng.standard_normal((40, 3))
    reg = 1e-3
    value = float(ad.cca_correlation(ad.constant(h1), ad.constant(h2), reg).data)
    expected = exact_linear_cca(h1, h2, k=3, reg=reg).sum()
    assert abs(value - expected) < 1e-10


def test_cca_correlation_grad(rng):
    p = _params(rng, h1=(25, 3), h2=(25, 2))

    def loss(v):
        return ad.cca_correlation(
            ad.parameter(v["h1"], "h1"), ad.parameter(v["h2"], "h2"), 1e-2
        )

    check_op(loss, p, h=1e-6, tol=1e-5)


def test_cca_correlation_column_permutation_invariant(rng):
    h1 = rng.standard_normal((30, 2))
    h2 = h1[:, ::-1].copy()
    a = float(ad.cca_correlation(ad.constant(h1), ad.constant(h1), 1e-3).data)
    b = float(ad.cca_correlation(ad.constant(h1), ad.constant(h2), 1e-3).data)
    assert abs(a - b) < 1e-10


def test_cca_correlation_preconditions(rng):
    h = ad.constant(rng.standard_normal((3, 4)))  # n <= k
    with pytest.raises(NumericError):
        ad.cca_correlation(h, h, 1e-3)
    ok = ad.constant(rng.standard_normal((10, 2)))
    with pytest.raises(NumericError):
        ad.cca_correlation(ok, ok, 0.0)


def test_dropout_forward_and_grad(rng):
    x = rng.standard_normal((6, 5))
    mask = ad.make_dropout_mask(rng, (6, 5), 0.4)
    kept = mask.keep
    assert kept.dtype == bool and 0 < kept.sum() < kept.size
    assert mask.scale == 1.0 / 0.6

    def loss(v):
        return ad.sum_all(ad.dropout(ad.parameter(v["x"], "x"), mask))

    check_op(loss, {"x": x})
    out = ad.dropout(ad.constant(x), mask).data
    np.testing.assert_array_equal(out[~kept], 0.0)
    # The bytes of a float mask keep / (1 - p), signed zeros, infinities and
    # NaNs included.
    x.flat[:4] = [-0.0, np.inf, -np.inf, np.nan]
    assert mask.apply(x).tobytes() == (x * (kept / (1.0 - 0.4))).tobytes()
    none = ad.make_dropout_mask(rng, (6, 5), 0.0)
    assert none.keep.all() and none.scale == 1.0


def test_make_dropout_mask_validates_p(rng):
    with pytest.raises(NumericError):
        ad.make_dropout_mask(rng, (2, 2), 1.0)
    with pytest.raises(NumericError):
        ad.make_dropout_mask(rng, (2, 2), -0.1)


def test_gradient_accumulates_over_reuse(rng):
    x = ad.parameter(rng.standard_normal((3, 3)), "x")
    loss = ad.sum_all(ad.matmul(x, x))
    ad.backward(loss)
    ones = np.ones((3, 3))
    np.testing.assert_allclose(x.grad, ones @ x.data.T + x.data.T @ ones, atol=1e-14)


def _add(a, b):
    """Elementwise sum whose VJP hands the one array it gets to both parents."""
    return ad.Tensor(a.data + b.data, _parents=(a, b), _vjp=lambda g: (g, g))


def _mul(a, b):
    return ad.Tensor(a.data * b.data, _parents=(a, b), _vjp=lambda g: (g * b.data, g * a.data))


def test_one_vjp_feeds_two_parents(rng):
    a = ad.parameter(rng.standard_normal((3, 2)), "a")
    b = ad.parameter(rng.standard_normal((3, 2)), "b")
    ad.backward(ad.sum_all(_mul(_add(a, b), a)))
    np.testing.assert_allclose(a.grad, 2.0 * a.data + b.data, atol=1e-14)
    np.testing.assert_allclose(b.grad, a.data, atol=1e-14)
    # Here the outer ``_add`` hands one array to two branches and the inner one
    # hands it on to a and b before a's second gradient arrives: summing that
    # gradient into a.grad in place would also change b.grad.
    a.grad = b.grad = None
    ad.backward(ad.sum_all(_add(_add(a, b), _mul(a, a))))
    np.testing.assert_allclose(a.grad, 1.0 + 2.0 * a.data, atol=1e-14)
    np.testing.assert_array_equal(b.grad, 1.0)


def test_second_backward_on_a_consumed_graph_raises(rng):
    x = ad.parameter(rng.standard_normal((3, 3)), "x")
    h = ad.matmul(x, x)
    loss = ad.sum_all(h)
    ad.backward(loss)
    grad = x.grad
    assert h.grad is None and loss.grad is None  # only the leaf keeps .grad
    # Neither the same loss nor a new one over a consumed node may return
    # with some or no gradients.
    for again in (loss, ad.sum_all(ad.relu(h)), ad.sum_all(_mul(h, x))):
        with pytest.raises(StateError, match="an earlier backward already consumed this graph"):
            ad.backward(again)
        assert x.grad is grad
    # A graph recorded anew over the same leaf takes gradients again.
    ad.backward(ad.sum_all(ad.matmul(x, x)))
    np.testing.assert_allclose(x.grad, 2.0 * grad, atol=1e-14)


def test_backward_requires_scalar_with_history(rng):
    x = ad.parameter(rng.standard_normal((2, 2)), "x")
    with pytest.raises(ShapeError):
        ad.backward(x)  # not a scalar
    with pytest.raises(StateError):
        ad.backward(ad.parameter(np.array(1.0), "lone"))  # no recorded forward
