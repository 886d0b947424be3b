"""ODE integration for the two gradient systems and trajectory functionals.

Two integrators are provided: classical fixed-step RK4 and an embedded
Dormand-Prince 5(4) pair with step-size control that reuses each accepted
step's last stage as the next step's first (FSAL).  The right-hand side is
their only callback: an orbit stops where its first stage rhs(y) is shorter
than eps_crit.  Orbit generators wrap them for u' = -grad psi(u) and for the
phase-space form of v'' = grad V(v); the variational form used by shooting
carries the sensitivities P = dv/dv0 and Q = dw/dv0 transposed, one row per
component of v0.  Orbit integrals take one value per node.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import sqrt
from typing import Callable, Optional

import numpy as np

from evanflow import kernels
from evanflow.fields import NumericDomainError, _psi_of, _v_of, fd_step

TERM_HORIZON = "horizon_reached"
TERM_CRIT = "critical_point_reached"
TERM_DIVERGED = "diverged"
TERM_STEP_COLLAPSE = "step_collapse"

DEFAULT_R_MAX = 1e6
DEFAULT_EPS_CRIT = 1e-10


@dataclass
class IntegratorOptions:
    method: str = "rk45"          # "rk45" (adaptive) or "rk4" (fixed step)
    h: float = 1e-2               # fixed step for rk4
    rtol: float = 1e-9
    atol: float = 1e-12
    r_max: float = DEFAULT_R_MAX
    eps_crit: float = DEFAULT_EPS_CRIT


@dataclass
class Trajectory:
    times: np.ndarray             # (m,), strictly increasing, t0 = 0
    states: np.ndarray            # (m, n)
    velocities: np.ndarray        # (m, n)
    system_tag: str               # "first_order" | "second_order"
    termination: str
    meta: dict = dc_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class RawOrbit:
    times: np.ndarray
    ys: np.ndarray
    termination: str
    meta: dict


def _check_state(y: np.ndarray, r_max: float) -> Optional[str]:
    if not np.all(np.isfinite(y)):
        return "nan"
    if np.linalg.norm(y) > r_max:
        return TERM_DIVERGED
    return None


def rk4_fixed(rhs: Callable, y0, T: float, h: float,
              r_max: float = DEFAULT_R_MAX,
              eps_crit: Optional[float] = None) -> RawOrbit:
    """Classical 4th-order Runge-Kutta with node spacing h (last step partial);
    given eps_crit, the orbit ends (TERM_CRIT) at the first node where
    ||k1|| < eps_crit."""
    if not (h > 0 and T > 0):
        raise ValueError("rk4_fixed requires h > 0 and T > 0")
    y = np.asarray(y0, float).copy()
    t = 0.0
    times = [0.0]
    ys = [y.copy()]
    termination = TERM_HORIZON
    n_steps = 0
    while t < T - 1e-14 * T:
        k1 = rhs(y)
        if eps_crit is not None and sqrt(k1.dot(k1)) < eps_crit:
            termination = TERM_CRIT
            break
        # node times are computed as multiples of h (not accumulated) so the
        # grid is exactly uniform apart from a final partial step
        t_next = min((n_steps + 1) * h, T)
        hs = t_next - t
        k2 = rhs(y + 0.5 * hs * k1)
        k3 = rhs(y + 0.5 * hs * k2)
        k4 = rhs(y + hs * k3)
        y_new = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        flag = _check_state(y_new, r_max)
        if flag == "nan":
            raise NumericDomainError(
                f"non-finite state at t = {t + hs:g} (last valid t = {t:g})"
            )
        y = y_new
        t = t_next
        n_steps += 1
        times.append(t)
        ys.append(y.copy())
        if flag == TERM_DIVERGED:
            termination = TERM_DIVERGED
            break
    return RawOrbit(
        np.asarray(times), np.asarray(ys), termination,
        {"method": "rk4", "h": h, "n_steps": n_steps, "n_rejected": 0},
    )


# Dormand-Prince 5(4) coefficients (autonomous right-hand sides: no nodes c_i)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def rk_adaptive(rhs: Callable, y0, T: float, rtol: float = 1e-9,
                atol: float = 1e-12, r_max: float = DEFAULT_R_MAX,
                eps_crit: Optional[float] = None,
                n_ctrl: Optional[int] = None) -> RawOrbit:
    """Embedded Dormand-Prince 5(4) pair; nodes at accepted steps.

    First same as last (FSAL): the input of the seventh stage is the
    5th-order solution, so its slope is the next step's first stage, and
    rhs is called once at y0 and then six times per attempted step,
    rejected or not.  Given eps_crit, the orbit ends (TERM_CRIT) at the first
    node where ||rhs(y)|| < eps_crit.  Only y[:n_ctrl] (default: all of y)
    enters the error norm and the r_max test, so appended components ride
    along on the steps of the rest.
    """
    if not (1e-12 <= rtol <= 1e-2):
        raise ValueError(f"rtol must lie in [1e-12, 1e-2], got {rtol:g}")
    if not atol > 0:
        raise ValueError("atol must be positive")
    y = np.asarray(y0, float).copy()
    ctrl = slice(n_ctrl)
    t = 0.0
    h = min(1e-3 * T, 0.1)
    times = [0.0]
    ys = [y]
    termination = TERM_HORIZON
    n_steps = 0
    n_rejected = 0
    K = np.empty((7, y.size))
    K[0] = rhs(y)
    # Euclidean norms as np.linalg.norm takes them on 1-D input
    y_norm = sqrt(y[ctrl].dot(y[ctrl]))
    while t < T * (1.0 - 1e-15):
        # K[0] is rhs(y): set at y0, carried over by FSAL, kept on rejection
        if eps_crit is not None and sqrt(K[0].dot(K[0])) < eps_crit:
            termination = TERM_CRIT
            break
        if h < 1e-14 * T:
            termination = TERM_STEP_COLLAPSE
            break
        h = min(h, T - t)
        bad = False
        for i in range(1, 7):
            yi = y + h * (_DP_A[i] @ K[:i])
            if not np.isfinite(yi).all():
                bad = True
                break
            K[i] = rhs(yi)
        if bad or not np.isfinite(K).all():
            h *= 0.5
            n_rejected += 1
            continue
        y5 = yi                 # _DP_B5 is _DP_A[6] with a zero last weight
        y4 = y + h * (_DP_B4 @ K)
        d = (y5 - y4)[ctrl]
        err = sqrt(d.dot(d))
        tol = atol + rtol * y_norm
        if err <= tol:
            t += h
            y = y5
            K[0] = K[6]
            n_steps += 1
            times.append(t)
            ys.append(y)
            y_norm = sqrt(y[ctrl].dot(y[ctrl]))
            if y_norm > r_max:
                termination = TERM_DIVERGED
                break
        else:
            n_rejected += 1
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return RawOrbit(
        np.asarray(times), np.asarray(ys), termination,
        {"method": "rk45", "rtol": rtol, "atol": atol,
         "n_steps": n_steps, "n_rejected": n_rejected},
    )


def _integrate(rhs, y0, T, opts: IntegratorOptions, eps_crit=None) -> RawOrbit:
    if opts.method == "rk4":
        return rk4_fixed(rhs, y0, T, opts.h, r_max=opts.r_max, eps_crit=eps_crit)
    if opts.method == "rk45":
        return rk_adaptive(rhs, y0, T, rtol=opts.rtol, atol=opts.atol,
                           r_max=opts.r_max, eps_crit=eps_crit)
    raise ValueError(f"unknown integrator method {opts.method!r}")


def gradient_flow(pp, x0, T: float,
                  opts: Optional[IntegratorOptions] = None) -> Trajectory:
    """Integrate u' = -grad psi(u) from x0 until ||grad psi|| < opts.eps_crit;
    velocities are recomputed exactly."""
    psi = _psi_of(pp)
    opts = opts or IntegratorOptions()
    x0 = np.asarray(x0, float).reshape(psi.dim)

    def rhs(y):
        return -psi.gradient(y)

    if float(np.linalg.norm(psi.gradient(x0))) < opts.eps_crit:
        # equilibrium: constant orbit, flagged immediately
        times = np.array([0.0, T])
        states = np.vstack([x0, x0])
        vel = -psi.gradient(states)
        return Trajectory(times, states, vel, "first_order", TERM_CRIT,
                          {"method": opts.method, "n_steps": 0, "n_rejected": 0,
                           "stopped_at": 0.0})
    raw = _integrate(rhs, x0, T, opts, eps_crit=opts.eps_crit)
    states = raw.ys
    velocities = -psi.gradient(states)
    meta = dict(raw.meta)
    if raw.termination == TERM_CRIT:
        meta["stopped_at"] = float(raw.times[-1])
    return Trajectory(raw.times, states, velocities, "first_order",
                      raw.termination, meta)


def _second_order_rhs(V):
    """Phase-space right-hand side (v, w)' = (w, grad V(v)) of v'' = grad V(v).
    It returns a new array shaped like y and fills its first 2n entries, so a
    longer state (the variational one) fills the rest itself."""
    V = _v_of(V)
    n = V.dim

    def rhs(y):
        out = np.empty_like(y)
        out[:n] = y[n:2 * n]
        out[n:2 * n] = V.gradient(y[:n])
        return out

    return rhs


def _variational_rhs(V):
    """(v, w, P, Q)' = (w, grad V(v), Q, Hess V(v) P): v'' = grad V(v) with
    its sensitivities P = dv/dv0, Q = dw/dv0.  After (v, w) the state holds
    P and Q transposed, row-major: row j of each block is column j, the
    sensitivity to v0[j], so Hess V(v) acts on rows and nothing is
    transposed.  Without a hessvec, Hess V(v) p is a central difference of
    grad V along p.
    """
    V = _v_of(V)
    n = V.dim
    m = 2 * n + n * n
    orbit_rhs = _second_order_rhs(V)

    def hess_rows(v, Pt):
        if V.hessvec is not None:
            return np.asarray(V.hessvec(v[None].repeat(n, 0), Pt), float)
        norms = np.linalg.norm(Pt, axis=1, keepdims=True)
        t = fd_step(v) / np.where(norms > 0.0, norms, 1.0)
        return (V.gradient(v + t * Pt) - V.gradient(v - t * Pt)) / (2.0 * t)

    def rhs(y):
        out = orbit_rhs(y)
        out[2 * n:m] = y[m:]
        out[m:] = hess_rows(y[:n], y[2 * n:m].reshape(n, n)).ravel()
        return out

    return rhs


def _variational_orbit(V, x0, v0, T: float, rtol: float):
    """(w(T), Q(T) = dw(T)/dv0) of the orbit of v'' = grad V(v) from
    (x0, v0), or None if the orbit diverges or leaves the domain of V.  Only
    (v, w) enters the error norm and the divergence test, so it takes the
    steps of the plain orbit at rtol; (P, Q) grow like e^{lambda t}."""
    n = len(x0)
    y0 = np.concatenate([x0, v0, np.zeros(n * n), np.eye(n).ravel()])
    try:
        raw = rk_adaptive(_variational_rhs(V), y0, T, rtol=rtol, n_ctrl=2 * n)
    except ArithmeticError:
        return None
    if raw.termination != TERM_HORIZON:
        return None
    y = raw.ys[-1]
    # Q is stored transposed; it is returned contiguous because products
    # with a transposed view of it round differently
    return y[n:2 * n], np.ascontiguousarray(y[2 * n + n * n:].reshape(n, n).T)


def second_order_flow(V, x0, v0, T: float,
                      opts: Optional[IntegratorOptions] = None) -> Trajectory:
    """Integrate the phase-space form (v, w)' = (w, grad V(v)) from (x0, v0)."""
    V = _v_of(V)
    opts = opts or IntegratorOptions()
    n = V.dim
    x0 = np.asarray(x0, float).reshape(n)
    v0 = np.asarray(v0, float).reshape(n)
    raw = _integrate(_second_order_rhs(V), np.concatenate([x0, v0]), T, opts)
    return Trajectory(raw.times, raw.ys[:, :n], raw.ys[:, n:],
                      "second_order", raw.termination, dict(raw.meta))


def path_integral(traj: Trajectory, values) -> float:
    """Composite trapezoid of an integrand's values, one per trajectory node."""
    if len(traj) < 2:
        raise ValueError("path_integral needs a trajectory with >= 2 nodes")
    vals = np.asarray(values, float)
    if vals.shape != traj.times.shape:
        raise ValueError(f"path_integral needs one value per node, got {vals.shape}")
    if not np.all(np.isfinite(vals)):
        raise NumericDomainError("non-finite integrand value along trajectory")
    return kernels.trapezoid(traj.times, vals)


def write_trajectory_csv(traj: Trajectory, path) -> None:
    """CSV contract: header t,x0..x{n-1},w0..w{n-1}; 17 significant digits; LF."""
    n = traj.dim
    header = ",".join(["t"] + [f"x{i}" for i in range(n)] + [f"w{i}" for i in range(n)])
    lines = [header]
    for t, x, w in zip(traj.times, traj.states, traj.velocities):
        row = [t, *x, *w]
        lines.append(",".join(f"{v:.17g}" for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
