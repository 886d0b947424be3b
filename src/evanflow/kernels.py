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

__all__ = ["USING_EXTENSION", "action_assemble", "action_decrease",
           "action_gradient", "el_residual_max", "row_dots", "trapezoid"]


def _scalar(x):
    return float(x) if np.ndim(x) == 0 else x


def action_assemble(W, Vv, Vg, dt, mu, want_grad=True):
    """Discrete action value and gradient w.r.t. interior + terminal nodes.

    W: (..., N+1, n) node positions, Vv: (..., N+1) potential values,
    Vg: (..., N+1, n) potential gradients, dt: spacing, mu: terminal penalty
    weight.  Returns (value, grad) with grad of shape (..., N, n) covering
    nodes 1..N (node 0 is the fixed endpoint); grad is None when want_grad
    is False.
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


def action_decrease(W, Vv, W_t, Vv_t, dt, mu):
    """Action of path W minus action of path W_t, summed term by term.

    Each kinetic, potential and terminal term is differenced before the sum,
    so a decrease near the double-precision floor is not cancelled away as
    it is in the difference of two summed action values.
    """
    W = np.asarray(W, float)
    W_t = np.asarray(W_t, float)
    return _decrease(W[..., 1:, :] - W[..., :-1, :], Vv,
                     W_t[..., 1:, :] - W_t[..., :-1, :], Vv_t, dt, mu)


def _decrease(d, Vv, d_t, Vv_t, dt, mu):
    """action_decrease from the node differences d, d_t of the two paths."""
    dV = np.asarray(Vv, float) - np.asarray(Vv_t, float)
    kinetic = 0.5 * ((d - d_t) * (d + d_t)).sum(axis=(-2, -1)) / dt
    potential = 0.5 * dt * (dV[..., :-1] + dV[..., 1:]).sum(axis=-1)
    return _scalar(kinetic + potential + mu * dV[..., -1])


def el_residual_max(W, Vg, dt):
    """Max norm of the discrete Euler-Lagrange residual at interior nodes."""
    W = np.asarray(W, float)
    Vg = np.asarray(Vg, float)
    if W.shape[-2] < 3:
        return _scalar(np.zeros(W.shape[:-2]))
    res = (W[..., 2:, :] - 2.0 * W[..., 1:-1, :] + W[..., :-2, :]) / (dt * dt) - Vg[..., 1:-1, :]
    return _scalar(np.max(np.sqrt(np.sum(res * res, axis=-1)), axis=-1))


def row_dots(X):
    """x.dot(x) for each row x of X, rounded as np.dot rounds it (a sum of
    squares can differ in the last bit)."""
    return np.matmul(X[:, None, :], X[:, :, None])[:, 0, 0]


def trapezoid(ts, vals):
    """Composite trapezoid on a (possibly non-uniform) grid."""
    ts = np.asarray(ts, float)
    vals = np.asarray(vals, float)
    return float(np.sum(0.5 * (ts[1:] - ts[:-1]) * (vals[1:] + vals[:-1])))
