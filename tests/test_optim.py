"""Parameter store and Adam updates against hand-computed references."""

import math

import numpy as np
import pytest

import geograph.autodiff as ad
from geograph.errors import ArgumentError
from geograph.optim import ParamSet, glorot_uniform
import unfused as uf


def test_glorot_bounds_and_determinism():
    rng1 = np.random.default_rng(7)
    rng2 = np.random.default_rng(7)
    w1 = glorot_uniform(rng1, 30, 50)
    w2 = glorot_uniform(rng2, 30, 50)
    limit = math.sqrt(6.0 / 80.0)
    assert w1.shape == (30, 50)
    assert np.all(np.abs(w1) <= limit)
    np.testing.assert_array_equal(w1, w2)
    # spread should actually reach toward the limits, not cluster at zero
    assert np.abs(w1).max() > 0.9 * limit


def test_paramset_basic_accounting():
    ps = ParamSet()
    ps.add("w", np.zeros((2, 2)))
    ps.add("b", np.zeros(2))
    assert len(ps) == 2
    assert "w" in ps and "missing" not in ps
    assert list(ps) == ["b", "w"] or list(ps) == ["w", "b"]
    with pytest.raises(ArgumentError):
        ps.add("w", np.zeros(1))


def test_adam_single_step_matches_hand_calculation():
    # one parameter, constant gradient g: after one step with zero moments,
    # m_hat = g, v_hat = g^2, so the update is exactly -lr * g / (|g| + eps)
    ps = ParamSet()
    ps.add("w", np.array([1.0, -2.0]))
    g = np.array([0.3, -0.7])
    ps["w"].grad = g.copy()
    ps.adam_step(lr=0.1)
    expected = np.array([1.0, -2.0]) - 0.1 * g / (np.abs(g) + 1e-8)
    np.testing.assert_allclose(ps["w"].data, expected, atol=1e-12)


def test_adam_two_steps_match_hand_calculation():
    lr, b1, b2, eps = 0.05, 0.9, 0.999, 1e-8
    theta = 0.5
    m = v = 0.0
    ps = ParamSet()
    ps.add("w", np.array([theta]))
    for step, g in enumerate([0.2, -0.4], start=1):
        ps["w"].grad = np.array([g])
        ps.adam_step(lr=lr)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        m_hat = m / (1 - b1 ** step)
        v_hat = v / (1 - b2 ** step)
        theta -= lr * m_hat / (math.sqrt(v_hat) + eps)
        np.testing.assert_allclose(ps["w"].data, [theta], atol=1e-14)


def test_adam_first_step_size_is_scale_free():
    # bias correction makes the first step ~lr regardless of gradient magnitude
    for scale in (1e-6, 1.0, 1e6):
        ps = ParamSet()
        ps.add("w", np.array([0.0]))
        ps["w"].grad = np.array([scale])
        ps.adam_step(lr=0.01)
        assert abs(ps["w"].data[0] + 0.01) < 1e-4


def test_adam_converges_on_quadratic():
    ps = ParamSet()
    ps.add("w", np.array([5.0, -3.0]))
    for _ in range(800):
        ps["w"].grad = 2.0 * ps["w"].data  # d/dw of ||w||^2
        ps.adam_step(lr=0.05)
    assert np.all(np.abs(ps["w"].data) < 1e-3)


def test_missing_grad_treated_as_zero():
    ps = ParamSet()
    ps.add("w", np.array([1.0]))
    ps.add("frozen", np.array([2.0]))
    ps["w"].grad = np.array([1.0])
    ps.adam_step(lr=0.1)
    assert ps["frozen"].data[0] == 2.0
    assert ps["w"].data[0] != 1.0


def test_zero_grads_resets():
    # An emptied slot takes the next gradient as it is, not summed onto the last.
    ps = ParamSet()
    w = ps.add("w", np.array([1.0]))
    w.grad = np.array([3.0])
    ps.zero_grads()
    assert w.grad is None
    ad.backward(uf.sum_all(uf.mul_const(w, 2.0)))
    np.testing.assert_array_equal(w.grad, [2.0])


def test_copy_and_load_roundtrip():
    ps = ParamSet()
    ps.add("w", np.array([1.0, 2.0]))
    snapshot = ps.copy_values()
    ps["w"].data += 5.0
    ps.load_values(snapshot)
    np.testing.assert_array_equal(ps["w"].data, [1.0, 2.0])
    snapshot["w"][0] = 99.0  # the snapshot must be a real copy
    assert ps["w"].data[0] == 1.0
