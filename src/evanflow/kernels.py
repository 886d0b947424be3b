"""Array kernels of the discrete action and of trajectory quadrature."""
from __future__ import annotations

import numpy as np

# there is no compiled backend; the flag stays for code that reads it
USING_EXTENSION = False

__all__ = ["USING_EXTENSION", "action_assemble", "action_decrease",
           "el_residual_max", "trapezoid"]


def action_assemble(W, Vv, Vg, dt, mu, want_grad=True):
    """Discrete action value and gradient w.r.t. interior + terminal nodes.

    W: (N+1, n) node positions, Vv: (N+1,) potential values, Vg: (N+1, n)
    potential gradients, dt: spacing, mu: terminal penalty weight.
    Returns (value, grad) with grad of shape (N, n) covering nodes 1..N
    (node 0 is the fixed endpoint); grad is None when want_grad is False.
    """
    W = np.asarray(W, float)
    Vv = np.asarray(Vv, float)
    diff = W[1:] - W[:-1]
    kinetic = 0.5 * float(np.sum(diff * diff)) / dt
    potential = 0.5 * dt * float(np.sum(Vv[:-1] + Vv[1:]))
    value = kinetic + potential + mu * float(Vv[-1])
    if not want_grad:
        return value, None
    Vg = np.asarray(Vg, float)
    grad = np.empty_like(W[1:])
    # interior nodes 1..N-1: kinetic second difference + full-weight dt*Vg
    grad[:-1] = (2.0 * W[1:-1] - W[:-2] - W[2:]) / dt + dt * Vg[1:-1]
    # terminal node N: one-sided kinetic term + half trapezoid weight + penalty
    grad[-1] = (W[-1] - W[-2]) / dt + (0.5 * dt + mu) * Vg[-1]
    return value, grad


def action_decrease(W, Vv, W_t, Vv_t, dt, mu):
    """Action of path W minus action of path W_t, summed term by term.

    Each kinetic, potential and terminal term is differenced before the sum,
    so a decrease near the double-precision floor is not cancelled away as
    it is in the difference of two summed action values.
    """
    W = np.asarray(W, float)
    W_t = np.asarray(W_t, float)
    dV = np.asarray(Vv, float) - np.asarray(Vv_t, float)
    d = W[1:] - W[:-1]
    d_t = W_t[1:] - W_t[:-1]
    kinetic = 0.5 * float(np.sum((d - d_t) * (d + d_t))) / dt
    potential = 0.5 * dt * float(np.sum(dV[:-1] + dV[1:]))
    return kinetic + potential + mu * float(dV[-1])


def el_residual_max(W, Vg, dt):
    """Max norm of the discrete Euler-Lagrange residual at interior nodes."""
    W = np.asarray(W, float)
    Vg = np.asarray(Vg, float)
    if W.shape[0] < 3:
        return 0.0
    res = (W[2:] - 2.0 * W[1:-1] + W[:-2]) / (dt * dt) - Vg[1:-1]
    return float(np.max(np.sqrt(np.sum(res * res, axis=-1))))


def trapezoid(ts, vals):
    """Composite trapezoid on a (possibly non-uniform) grid."""
    ts = np.asarray(ts, float)
    vals = np.asarray(vals, float)
    return float(np.sum(0.5 * (ts[1:] - ts[:-1]) * (vals[1:] + vals[:-1])))
