"""Tape engine: op-level gradient checks against finite differences."""

import gc
import weakref

import numpy as np
import pytest

import geograph.autodiff as ad
from geograph.errors import NumericError, ShapeError, StateError
from geograph.sparse import SparseMatrix
from oracles import exact_linear_cca, fd_gradient, max_relative_error

TOL = 1e-6


def check_op(build_loss, params, h=1e-6, tol=TOL):
    """FD-check d loss / d param for every entry of every named parameter.

    ``build_loss(values: dict) -> Tensor scalar`` must rebuild the graph from
    plain arrays so the oracle can probe it as a black box.
    """
    def as_float(values):
        return float(build_loss(values).data)

    loss = build_loss(params)
    ad.backward(loss)
    analytic = {t.name: t.grad for t in _walk_parameters(loss)}
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
    p = _params(rng, a=(3, 4), b=(3, 4))

    def loss(v):
        a = ad.parameter(v["a"], "a")
        b = ad.parameter(v["b"], "b")
        z = ad.add(ad.mul(a, b), a)
        z = ad.add_const(ad.mul_const(z, 1.7), 0.3)
        return ad.sum_all(z)

    check_op(loss, p)


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


def test_softmax_rows_matches_manual(rng):
    x = rng.standard_normal((5, 4))
    y = ad._softmax(x)
    e = np.exp(x - x.max(axis=1, keepdims=True))
    np.testing.assert_allclose(y, e / e.sum(axis=1, keepdims=True), atol=1e-15)
    np.testing.assert_allclose(y.sum(axis=1), 1.0, atol=1e-12)


def test_dropped_tape_is_freed_without_gc(rng):
    # An op whose VJP held its own output tensor would form a reference cycle,
    # keeping every upstream activation alive until a full collection. With
    # the collector off, dropping the tensors must free them.
    s = SparseMatrix.from_dense(rng.random((4, 6)))
    w = ad.parameter(rng.standard_normal((3, 3)))
    b = ad.parameter(rng.standard_normal(3))
    c = rng.standard_normal((6, 3))
    ops = {
        "matmul": lambda h: ad.matmul(h, w),
        "spmm": lambda h: ad.spmm(s, h),
        "add_bias": lambda h: ad.add_bias(h, b),
        "add": lambda h: ad.add(h, h),
        "mul": lambda h: ad.mul(h, h),
        "mul_const": lambda h: ad.mul_const(h, c),
        "add_const": lambda h: ad.add_const(h, 0.5),
        "relu": ad.relu,
        "sigmoid": ad.sigmoid,
        "softmax_cross_entropy": lambda h: ad.softmax_cross_entropy(h, np.eye(3)[[0, 2, 1, 0, 2, 1]]),
        "cca_correlation": lambda h: ad.cca_correlation(h, ad.mul_const(h, c), 1e-3),
    }
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
    kept = mask != 0.0
    assert set(np.unique(mask)) <= {0.0, 1.0 / 0.6}

    def loss(v):
        return ad.sum_all(ad.dropout(ad.parameter(v["x"], "x"), mask))

    check_op(loss, {"x": x})
    out = ad.dropout(ad.constant(x), mask).data
    np.testing.assert_array_equal(out[~kept], 0.0)


def test_make_dropout_mask_validates_p(rng):
    with pytest.raises(NumericError):
        ad.make_dropout_mask(rng, (2, 2), 1.0)
    with pytest.raises(NumericError):
        ad.make_dropout_mask(rng, (2, 2), -0.1)


def test_gradient_accumulates_over_reuse(rng):
    x = ad.parameter(rng.standard_normal((3, 3)), "x")
    loss = ad.sum_all(ad.mul(x, x))
    ad.backward(loss)
    np.testing.assert_allclose(x.grad, 2.0 * x.data, atol=1e-14)


def test_one_vjp_feeds_two_parents(rng):
    a = ad.parameter(rng.standard_normal((3, 2)), "a")
    b = ad.parameter(rng.standard_normal((3, 2)), "b")
    ad.backward(ad.sum_all(ad.mul(ad.add(a, b), a)))
    np.testing.assert_allclose(a.grad, 2.0 * a.data + b.data, atol=1e-14)
    np.testing.assert_allclose(b.grad, a.data, atol=1e-14)
    # Here the outer ``add`` hands one array to two branches and the inner one
    # hands it on to a and b before a's second gradient arrives: summing that
    # gradient into a.grad in place would also change b.grad.
    a.grad = b.grad = None
    ad.backward(ad.sum_all(ad.add(ad.add(a, b), ad.mul(a, a))))
    np.testing.assert_allclose(a.grad, 1.0 + 2.0 * a.data, atol=1e-14)
    np.testing.assert_array_equal(b.grad, 1.0)


def test_backward_requires_scalar_with_history(rng):
    x = ad.parameter(rng.standard_normal((2, 2)), "x")
    with pytest.raises(ShapeError):
        ad.backward(x)  # not a scalar
    with pytest.raises(StateError):
        ad.backward(ad.parameter(np.array(1.0), "lone"))  # no recorded forward
