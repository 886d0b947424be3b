"""Array kernels of the discrete action and of trajectory quadrature.

The action kernels take one path of shape (N+1, n) or a stack of B paths of
shape (B, N+1, n); a single path gives floats, a stack gives (B,) arrays.
Each path of a stack is summed on its own, so its result is the one it gets
alone.
"""
from __future__ import annotations

import numpy as np

# there is no compiled backend; the flag stays for code that reads it
USING_EXTENSION = False

__all__ = ["USING_EXTENSION", "action_assemble", "action_gradient", "row_dots",
           "simpson", "trapezoid"]


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def action_assemble(W, Vv, Vg, dt, mu, want_grad=True):
    """Discrete action value and gradient w.r.t. interior + terminal nodes.

    W: (..., N+1, n) node positions, Vv: (..., N+1) potential values,
    Vg: (..., N+1, n) potential gradients, dt: spacing, mu: terminal penalty
    weight.  Returns (value, grad) with grad of shape (..., N, n) covering
    nodes 1..N (node 0 is the fixed endpoint); when want_grad is False, Vg
    is not read (None will do) and grad is None.
    """
    W = np.asarray(W, float)
    Vv = np.asarray(Vv, float)
    diff = W[..., 1:, :] - W[..., :-1, :]
    kinetic = 0.5 * (diff * diff).sum(axis=(-2, -1)) / dt
    potential = 0.5 * dt * (Vv[..., :-1] + Vv[..., 1:]).sum(axis=-1)
    value = _scalar(kinetic + potential + mu * Vv[..., -1])
    if not want_grad:
        return value, None
    return value, action_gradient(W, Vg, dt, mu)


def action_gradient(W, Vg, dt, mu):
    """Gradient of the discrete action w.r.t. nodes 1..N, shape (..., N, n)."""
    W = np.asarray(W, float)
    Vg = np.asarray(Vg, float)
    grad = np.empty_like(W[..., 1:, :])
    # interior nodes 1..N-1: kinetic second difference + full-weight dt*Vg
    grad[..., :-1, :] = ((2.0 * W[..., 1:-1, :] - W[..., :-2, :] - W[..., 2:, :]) / dt
                         + dt * Vg[..., 1:-1, :])
    # terminal node N: one-sided kinetic term + half trapezoid weight + penalty
    grad[..., -1, :] = (W[..., -1, :] - W[..., -2, :]) / dt + (0.5 * dt + mu) * Vg[..., -1, :]
    return grad


def _decrease(W, Vv, W_t, Vv_t, dt, mu):
    """Action of a path minus that of a trial path, from their nodes W, W_t
    and potential values, each term differenced before the sum, so a
    decrease near the double-precision floor is not cancelled away as in
    the difference of two summed action values."""
    d = W[..., 1:, :] - W[..., :-1, :]
    d_t = W_t[..., 1:, :] - W_t[..., :-1, :]
    dV = np.asarray(Vv, float) - np.asarray(Vv_t, float)
    kinetic = 0.5 * ((d - d_t) * (d + d_t)).sum(axis=(-2, -1)) / dt
    potential = 0.5 * dt * (dV[..., :-1] + dV[..., 1:]).sum(axis=-1)
    return _scalar(kinetic + potential + mu * dV[..., -1])


def row_dots(X):
    """x.dot(x) for each row x of X (..., n), rounded as np.dot rounds it (a
    sum of squares can differ in the last bit)."""
    return np.matmul(X[..., None, :], X[..., :, None])[..., 0, 0]


def simpson(F, dx):
    """Composite Simpson along the last axis of an array F (>= 3 nodes, spacing
    dx), scipy.integrate.simpson(F, dx=dx, axis=-1) bit for bit: on an even
    count, Cartwright's last-interval correction (J. Math. Sci. Math. Educ.
    12(2), 2017) in scipy's order, with its zero-denominator guard and += 0.0."""
    if F.shape[-1] < 3:
        raise ValueError(f"Simpson's rule needs at least 3 nodes, got {F.shape[-1]}")
    result = np.sum(F[..., 0:-2:2] + 4.0 * F[..., 1:-1:2] + F[..., 2::2], axis=-1)
    result *= dx / 3.0
    if F.shape[-1] % 2:
        return result
    h = np.float64(dx)
    alpha, beta, eta = (np.true_divide(num, den, out=np.zeros_like(den), where=den != 0)
                        for num, den in ((2 * h ** 2 + 3 * h * h, 6 * (h + h)),
                                         (h ** 2 + 3.0 * h * h, 6 * h),
                                         (1 * h ** 3, 6 * h * (h + h))))
    result += alpha * F[..., -1] + beta * F[..., -2] - eta * F[..., -3]
    return result + 0.0


def trapezoid(ts, vals):
    """Composite trapezoid on a (possibly non-uniform) grid."""
    ts = np.asarray(ts, float)
    vals = np.asarray(vals, float)
    return float(np.sum(0.5 * (ts[1:] - ts[:-1]) * (vals[1:] + vals[:-1])))
