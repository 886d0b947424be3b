"""Kernel contracts of the discrete action and trajectory quadrature."""
import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import example, given, settings, strategies as st

from evanflow import kernels


def random_inputs(m, n, seed):
    rng = np.random.default_rng(seed)
    W = rng.normal(size=(m, n))
    Vv = rng.random(m)
    Vg = rng.normal(size=(m, n))
    return W, Vv, Vg


def test_action_value_matches_direct_formula():
    W, Vv, Vg = random_inputs(12, 3, 0)
    dt, mu = 0.1, 0.7
    val, grad = kernels.action_assemble(W, Vv, Vg, dt, mu)
    direct = sum(
        dt * (0.5 * np.sum(((W[k + 1] - W[k]) / dt) ** 2)
              + 0.5 * (Vv[k] + Vv[k + 1]))
        for k in range(len(W) - 1)
    ) + mu * Vv[-1]
    assert val == pytest.approx(direct, rel=1e-13)
    assert grad.shape == (11, 3)


def test_action_zero_potential_straight_path():
    # kinetic term only: ||b - a||^2 / (2 T)
    a, b, T, N = np.array([0.0, 0.0]), np.array([3.0, 4.0]), 2.0, 10
    lam = np.linspace(0, 1, N + 1)[:, None]
    W = (1 - lam) * a + lam * b
    Vv = np.zeros(N + 1)
    val, _ = kernels.action_assemble(W, Vv, W, T / N, 0.5, want_grad=False)
    assert val == pytest.approx(25.0 / (2.0 * T))


def test_trapezoid_nonuniform():
    ts = np.array([0.0, 0.5, 2.0])
    vals = np.array([1.0, 3.0, 3.0])
    assert kernels.trapezoid(ts, vals) == pytest.approx(0.5 * 2 + 1.5 * 3)


_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300,
                                      -1e300, np.inf, -np.inf, np.nan]),
                     st.floats(width=64), st.floats(-10.0, 10.0))
# below about 1e-108 the cube in Cartwright's last weight underflows, and
# below about 1e-162 the squares and that weight's denominator too
_SPACINGS = st.one_of(st.floats(5e-324, 1e300), st.floats(5e-324, 1e-160), st.floats(1e-3, 1.0),
                      st.sampled_from([5e-324, 1e-320, 1e-200, 1e-160, 1e-108, 1e300]))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 5).flatmap(lambda rows: st.integers(3, 64).flatmap(
           lambda nodes: st.lists(_ENTRIES, min_size=rows * nodes, max_size=rows * nodes).map(
               lambda v: np.array(v).reshape(rows, nodes)))),
       _SPACINGS)
# dx / 3 and every weight round to 0, and the correction is -0.0: scipy's
# trailing `+= 0.0` makes the result +0.0
@example(np.array([[-10.0, 1.0, -1.0, -1.0]]), 5e-324)
# the last weight's 0 / 0 is NaN without scipy's zero-denominator guard
@example(np.array([[1.0, 2.0, 3.0, 4.0]]), 1e-170)
# the last weight's h ** 3 is one pow; h * h * h rounds twice, and moves
# the result's last bit here
@example(np.array([[0.0, 1.0, 0.0, 0.0]]), 0.81)
def test_simpson_is_scipys_bit_for_bit(F, dx):
    # the value step's quadrature is scipy's composite Simpson, Cartwright's
    # last-interval correction on an even node count included, byte for
    # byte on a stack and on one row: signed zeros, NaN and the zero
    # weights where a denominator underflows
    for G in (F, F[0]):
        with np.errstate(all="ignore"):
            got = kernels.simpson(G, dx)
            want = scipy.integrate.simpson(G, dx=dx, axis=-1)
        assert type(got) is type(want)
        assert np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("nodes", [0, 1, 2])
def test_simpson_needs_three_nodes(nodes):
    with pytest.raises(ValueError, match="at least 3 nodes"):
        kernels.simpson(np.ones((2, nodes)), 0.1)


@pytest.mark.parametrize("n", [1, 2, 3, 5])
def test_row_dots_round_as_np_dot(n):
    Y = np.random.default_rng(n).normal(size=(200, 2 * n))
    for X in (Y, Y[:, n:]):             # contiguous, and a strided view
        assert np.array_equal(kernels.row_dots(X), [x.dot(x) for x in X])


def test_value_resolves_tiny_decreases():
    # a perturbation near the float noise floor of a single term must still
    # move the reported value, and the term-wise decrease the line search
    # tests must resolve it to rounding of that one term
    dt, mu = 0.05, 0.5
    ts = dt * np.arange(241)
    W = np.exp(-ts)[:, None] * np.array([1.0, 1.0])
    Vv = np.exp(-2.0 * ts)
    v0, _ = kernels.action_assemble(W, Vv, W, dt, mu, want_grad=False)
    Vv2 = Vv.copy()
    Vv2[120] -= 1e-12
    v1, _ = kernels.action_assemble(W, Vv2, W, dt, mu, want_grad=False)
    assert v1 < v0
    assert (v0 - v1) == pytest.approx(0.5 * dt * 2 * 1e-12, rel=1e-2)
    dec = kernels._decrease(W, Vv, W, Vv2, dt, mu)
    assert dec == pytest.approx(dt * (Vv[120] - Vv2[120]), rel=1e-12)
    assert dec == pytest.approx(0.5 * dt * 2 * 1e-12, rel=1e-6)


def test_action_decrease_matches_value_difference():
    W, Vv, _ = random_inputs(30, 2, 2)
    W_t, Vv_t, _ = random_inputs(30, 2, 3)
    W_t[0] = W[0]
    Vv_t[0] = Vv[0]
    dt, mu = 0.1, 0.7
    v, _ = kernels.action_assemble(W, Vv, W, dt, mu, want_grad=False)
    v_t, _ = kernels.action_assemble(W_t, Vv_t, W_t, dt, mu, want_grad=False)
    dec = kernels._decrease(W, Vv, W_t, Vv_t, dt, mu)
    assert dec == pytest.approx(v - v_t, rel=1e-12, abs=1e-12)


def test_want_grad_false_returns_none():
    W, Vv, Vg = random_inputs(8, 2, 1)
    val, grad = kernels.action_assemble(W, Vv, Vg, 0.1, 0.0, want_grad=False)
    assert math.isfinite(val)
    assert grad is None
    # without the gradient, the potential gradients are not read
    assert kernels.action_assemble(W, Vv, None, 0.1, 0.0, want_grad=False) == (val, None)


def test_kernels_take_a_batch_axis():
    # a stack of paths gives, path by path, exactly what each path gives alone
    stack = [random_inputs(17, 2, seed) for seed in range(4)]
    W, Vv, Vg = (np.stack(a) for a in zip(*stack))
    W_t, Vv_t = W[::-1].copy(), Vv[::-1].copy()
    dt, mu = 0.1, 0.7
    val, grad = kernels.action_assemble(W, Vv, Vg, dt, mu)
    dec = kernels._decrease(W, Vv, W_t, Vv_t, dt, mu)
    assert val.shape == dec.shape == (4,)
    assert grad.shape == (4, 16, 2)
    for b in range(4):
        v1, g1 = kernels.action_assemble(W[b], Vv[b], Vg[b], dt, mu)
        assert isinstance(v1, float) and val[b] == v1
        assert np.array_equal(grad[b], g1)
        assert np.array_equal(grad[b], kernels.action_gradient(W[b], Vg[b], dt, mu))
        d1 = kernels._decrease(W[b], Vv[b], W_t[b], Vv_t[b], dt, mu)
        assert isinstance(d1, float) and dec[b] == d1
