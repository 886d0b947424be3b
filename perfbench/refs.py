"""Closed-form references for quadratic potentials and the tolerances that
decide whether an output is correct.

For psi(x) = 0.5 x'Ax with A symmetric positive definite the evanescent
orbit from x0 is expm(-tA) x0, its action is 0.5 x0'Ax0, and psi - min psi
is known exactly on any grid.  Every error is relative (scale-free), so the
seeded size of x0 does not change it.
"""
from __future__ import annotations

import numpy as np

# largest relative error accepted as a correct answer; the evanescent path
# and grid tolerances are those of the release gate (criteria 9 and 11)
TOL = {
    "final_action": 1e-2,
    "path": 1e-3,
    "grid": 1e-2,
    "ode": 1e-6,
    "constant": 1e-9,
}


def _eig(A):
    w, Q = np.linalg.eigh(np.asarray(A, float))
    return w, Q


def decay_orbit(A, x0, times) -> np.ndarray:
    """expm(-tA) x0 at each time, shape (m, n)."""
    w, Q = _eig(A)
    c = Q.T @ np.asarray(x0, float)
    return (np.exp(-np.outer(times, w)) * c) @ Q.T


def second_order_orbit(A, x0, v0, times) -> np.ndarray:
    """Solution of v'' = A^2 v with v(0) = x0, v'(0) = v0, shape (m, n)."""
    w, Q = _eig(A)
    c = Q.T @ np.asarray(x0, float)
    d = Q.T @ np.asarray(v0, float)
    wt = np.outer(times, w)
    return (np.cosh(wt) * c + np.sinh(wt) * (d / w)) @ Q.T


def path_error(nodes, exact, x0) -> float:
    """Largest node distance from the reference, relative to ||x0||."""
    d = np.linalg.norm(np.asarray(nodes, float) - exact, axis=-1)
    return float(np.max(d)) / float(np.linalg.norm(x0))


def action_error(A, x0, final_action) -> float:
    ref = 0.5 * float(np.asarray(x0) @ np.asarray(A) @ np.asarray(x0))
    return abs(float(final_action) - ref) / ref


def grid_error(A, points, psi_hat) -> float:
    """max |psi_hat - (psi - min psi)| over the grid, relative to max psi."""
    pts = np.asarray(points, float)
    ref = 0.5 * np.einsum("ij,jk,ik->i", pts, np.asarray(A, float), pts)
    ref = ref - ref.min()
    return float(np.max(np.abs(np.asarray(psi_hat, float) - ref))) / float(ref.max())


def constant_error(c_hat, c) -> float:
    return abs(float(c_hat) - float(c)) / (1.0 + abs(float(c)))


def verdict(errors: dict) -> tuple[bool, float]:
    """(every error within its tolerance, largest error)."""
    vals = {k: (float(v) if np.isfinite(v) else np.inf) for k, v in errors.items()}
    ok = all(v <= TOL[k] for k, v in vals.items())
    return ok, max(vals.values())
