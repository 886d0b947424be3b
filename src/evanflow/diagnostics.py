"""Falsifiable numerical checks for the claims about both gradient systems.

Each check turns an inequality, monotonicity or identity into a worst-case
violation magnitude compared against a magnitude-scaled tolerance.  Checks are
pure functions of trajectories and fields; the report is plain data.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, asdict
from typing import Optional

import numpy as np

from evanflow import kernels
from evanflow.fields import _psi_of, _v_of
from evanflow.integrate import (
    DEFAULT_EPS_CRIT,
    TERM_DIVERGED,
    Trajectory,
    path_integral,
)

DEFAULT_EPS_TAIL = 1e-4
DEFAULT_EPS_CONV = 1e-4
STABILITY_REL = 0.01  # evanescence_measures: |full - half| / full of a stable integral
DECAY_FACTOR = 0.2    # and tail / peak of a shrunk tail


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    worst_violation: float
    worst_location: object          # time (float) or point (list)
    tolerance_used: float
    notes: str = ""

    def to_dict(self) -> dict:
        d = asdict(self)
        if isinstance(d["worst_location"], np.ndarray):
            d["worst_location"] = d["worst_location"].tolist()
        return d


@dataclass
class DiagnosticsReport:
    subject: str
    checks: list = dc_field(default_factory=list)

    def add(self, result: CheckResult) -> CheckResult:
        if any(c.check_id == result.check_id for c in self.checks):
            raise ValueError(f"duplicate check id {result.check_id!r}")
        self.checks.append(result)
        return result

    def get(self, check_id: str):
        for c in self.checks:
            if c.check_id == check_id:
                return c
        return None

    @property
    def summary(self) -> dict:
        n_pass = sum(1 for c in self.checks if c.passed)
        return {"total": len(self.checks), "passed": n_pass,
                "failed": len(self.checks) - n_pass}

    @property
    def all_passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def to_dict(self) -> dict:
        return {"subject": self.subject,
                "checks": [c.to_dict() for c in self.checks],
                "summary": self.summary}


def _result(check_id, violation, location, tol, notes="") -> CheckResult:
    violation = float(max(violation, 0.0))
    return CheckResult(check_id, violation <= tol, violation,
                      location, float(tol), notes)


def _max_consecutive_increase(times, series):
    """Largest positive forward difference and where it happens."""
    diffs = np.diff(series)
    if len(diffs) == 0:
        return 0.0, float(times[0])
    i = int(np.argmax(diffs))
    return float(max(diffs[i], 0.0)), float(times[i + 1])


# ---------------------------------------------------------------------------
# first-order checks
# ---------------------------------------------------------------------------

def check_lyapunov_psi(traj: Trajectory, psi, tol=None) -> CheckResult:
    """psi(u(t)) must be nonincreasing along a gradient-flow orbit."""
    psi = _psi_of(psi)
    rho = np.asarray(psi.value(traj.states), float)
    if tol is None:
        tol = 1e-8 * (1.0 + abs(float(rho[0])))
    viol, where = _max_consecutive_increase(traj.times, rho)
    return _result("lyapunov_psi", viol, where, tol)


_GAUSS3_NODES = np.array([0.5 - np.sqrt(3.0 / 20.0), 0.5,
                          0.5 + np.sqrt(3.0 / 20.0)])
_GAUSS3_WEIGHTS = np.array([5.0 / 18.0, 8.0 / 18.0, 5.0 / 18.0])


def kinetic_integral(traj: Trajectory) -> float:
    """Integral of ||u'(t)||^2 using the cubic Hermite interpolant.

    Positions and velocities are both known at the nodes, so the piecewise
    Hermite derivative is quadratic and 3-point Gauss quadrature integrates
    its squared norm exactly; the result is 4th-order accurate even on the
    nonuniform grids an adaptive integrator produces.
    """
    if len(traj) < 2:
        raise ValueError("kinetic_integral needs a trajectory with >= 2 nodes")
    h = np.diff(traj.times)[:, None, None]            # (m-1, 1, 1)
    u0 = traj.states[:-1, None, :]
    u1 = traj.states[1:, None, :]
    w0 = traj.velocities[:-1, None, :]
    w1 = traj.velocities[1:, None, :]
    tau = _GAUSS3_NODES[None, :, None]
    dp = ((6 * tau * tau - 6 * tau) * (u0 - u1)
          + (3 * tau * tau - 4 * tau + 1) * h * w0
          + (3 * tau * tau - 2 * tau) * h * w1)
    sq = np.sum(dp * dp, axis=-1)                     # (m-1, 3)
    per_interval = sq @ _GAUSS3_WEIGHTS / h[:, 0, 0]
    return float(np.sum(per_interval))


def check_energy_identity(traj: Trajectory, psi, tol=None) -> CheckResult:
    """Dissipated kinetic energy equals the drop of psi along the orbit."""
    psi = _psi_of(psi)
    rho0 = float(psi.value(traj.states[0]))
    rhoT = float(psi.value(traj.states[-1]))
    integral = kinetic_integral(traj)
    if tol is None:
        tol = 1e-5 * (1.0 + abs(rho0))
    viol = abs(integral - (rho0 - rhoT))
    return _result("energy_identity", viol, traj.t_end, tol,
                   notes=f"integral={integral:.12g} drop={rho0 - rhoT:.12g}")


def check_grad_norm_monotone(traj: Trajectory, psi, tol=None) -> CheckResult:
    """For convex psi the speed ||grad psi(u(t))|| is nonincreasing."""
    psi = _psi_of(psi)
    norms = np.linalg.norm(np.asarray(psi.gradient(traj.states), float), axis=-1)
    if tol is None:
        tol = 1e-8 * (1.0 + float(norms[0]))
    viol, where = _max_consecutive_increase(traj.times, norms)
    return _result("grad_norm_monotone", viol, where, tol)


def check_distance_monotone(traj: Trajectory, xhat, psi, tol=None) -> CheckResult:
    """||u(t) - xhat|| is nonincreasing for any critical point xhat."""
    psi = _psi_of(psi)
    xhat = np.asarray(xhat, float).reshape(psi.dim)
    gn = float(np.linalg.norm(psi.gradient(xhat)))
    if gn >= DEFAULT_EPS_CRIT:
        raise ValueError(
            f"xhat is not critical: ||grad psi(xhat)|| = {gn:g} >= {DEFAULT_EPS_CRIT:g}"
        )
    dist = np.linalg.norm(traj.states - xhat, axis=-1)
    if tol is None:
        tol = 1e-8 * (1.0 + float(dist[0]))
    viol, where = _max_consecutive_increase(traj.times, dist)
    return _result("distance_monotone", viol, where, tol)


def check_velocity_bound(traj: Trajectory, psi, y, tol=1e-8) -> CheckResult:
    """||u'(t)|| <= ||grad psi(y)|| + ||u(0) - y|| / t, convex psi, t > 0."""
    psi = _psi_of(psi)
    y = np.asarray(y, float).reshape(psi.dim)
    gy = float(np.linalg.norm(psi.gradient(y)))
    d0 = float(np.linalg.norm(traj.states[0] - y))
    mask = traj.times > 0
    speeds = np.linalg.norm(traj.velocities[mask], axis=-1)
    bounds = gy + d0 / traj.times[mask]
    excess = speeds - bounds
    if len(excess) == 0:
        return _result("velocity_bound", 0.0, 0.0, tol)
    i = int(np.argmax(excess))
    return _result("velocity_bound", max(float(excess[i]), 0.0),
                   float(traj.times[mask][i]), tol)


def check_level_integral_bound(traj: Trajectory, psi, crit_point,
                               tol=None) -> CheckResult:
    """Integral of (psi(u) - min psi) is at most half the squared distance
    from u(0) to the supplied critical point."""
    psi = _psi_of(psi)
    crit_point = np.asarray(crit_point, float).reshape(psi.dim)
    gn = float(np.linalg.norm(psi.gradient(crit_point)))
    if gn >= DEFAULT_EPS_CRIT:
        raise ValueError(
            f"crit_point is not critical: ||grad psi|| = {gn:g} >= {DEFAULT_EPS_CRIT:g}"
        )
    psi_min = float(psi.value(crit_point))
    lhs = path_integral(traj, np.asarray(psi.value(traj.states), float) - psi_min)
    rhs = 0.5 * float(np.sum((traj.states[0] - crit_point) ** 2))
    x0 = traj.states[0]
    if tol is None:
        tol = 1e-6 * (1.0 + float(np.dot(x0, x0)))
    return _result("level_integral_bound", lhs - rhs, traj.t_end, tol,
                   notes=f"lhs={lhs:.12g} rhs={rhs:.12g}")


def check_limit_point(traj: Trajectory, psi, tol=DEFAULT_EPS_CONV) -> CheckResult:
    """Convex flows either diverge (empty critical set) or settle at a
    critical point with a shrinking tail."""
    psi = _psi_of(psi)
    if traj.termination == TERM_DIVERGED:
        return _result("limit_point", 0.0, traj.t_end, tol,
                       notes="diverged: consistent with empty critical set")
    gend = float(np.linalg.norm(psi.gradient(traj.states[-1])))
    m = max(2, len(traj) // 10)
    tail = traj.states[-m:]
    spread = float(np.max(
        np.linalg.norm(tail[:, None, :] - tail[None, :, :], axis=-1)
    ))
    if max(gend, spread) <= tol:
        return _result("limit_point", max(gend, spread), traj.t_end, tol,
                       notes=f"settled: terminal_grad_norm={gend:.3g} "
                             f"tail_spread={spread:.3g}")
    # empty-critical-set branch before the divergence guard fires: the orbit
    # keeps escaping, so the distance from the start grows monotonically over
    # the whole tail
    escape = np.linalg.norm(tail - traj.states[0], axis=-1)
    if np.all(np.diff(escape) > 0):
        return _result("limit_point", 0.0, traj.t_end, tol,
                       notes=f"escaping: tail distance from start grows "
                             f"monotonically, terminal_grad_norm={gend:.3g}")
    viol = max(gend, spread)
    return _result("limit_point", viol, traj.t_end, tol,
                   notes=f"terminal_grad_norm={gend:.3g} tail_spread={spread:.3g}")


# ---------------------------------------------------------------------------
# second-order checks
# ---------------------------------------------------------------------------

def check_first_integral(traj: Trajectory, V, tol=None) -> CheckResult:
    """I(t) = 0.5 ||v'||^2 - V(v) is conserved along the second-order system."""
    V = _v_of(V)
    kin = 0.5 * np.sum(traj.velocities ** 2, axis=-1)
    I = kin - np.asarray(V.value(traj.states), float)
    drift = np.abs(I - I[0])
    i = int(np.argmax(drift))
    if tol is None:
        tol = 1e-6 * (1.0 + abs(float(I[0])))
    return _result("first_integral", float(drift[i]), float(traj.times[i]), tol,
                   notes=f"I0={I[0]:.12g}")


def check_modula_equality(traj: Trajectory, psi=None, V=None, tol=None) -> CheckResult:
    """||v'(t)|| = ||grad psi(v(t))|| along evanescent orbits.

    When psi is unavailable (V-only setting) the right-hand side is taken as
    sqrt(2 V(v)), which equals the gradient modulus by construction.
    """
    speeds = np.linalg.norm(traj.velocities, axis=-1)
    if psi is not None:
        psi = _psi_of(psi)
        rhs = np.linalg.norm(np.asarray(psi.gradient(traj.states), float), axis=-1)
    elif V is not None:
        V = _v_of(V)
        rhs = np.sqrt(np.maximum(2.0 * np.asarray(V.value(traj.states), float), 0.0))
    else:
        raise ValueError("check_modula_equality needs psi or V")
    gap = np.abs(speeds - rhs)
    i = int(np.argmax(gap))
    if tol is None:
        tol = 1e-6 * (1.0 + float(speeds[0]))
    return _result("modula_equality", float(gap[i]), float(traj.times[i]), tol)


def check_phi_residual(traj: Trajectory, psi, sigma: int = 1,
                       tol=1e-5) -> CheckResult:
    """phi = v' + sigma grad psi(v); phi = 0 with sigma=+1 certifies a
    first-order gradient-flow orbit."""
    if sigma not in (-1, 1):
        raise ValueError("sigma must be +1 or -1")
    psi = _psi_of(psi)
    phi = traj.velocities + sigma * np.asarray(psi.gradient(traj.states), float)
    norms = np.linalg.norm(phi, axis=-1)
    i = int(np.argmax(norms))
    return _result(f"phi_residual_sigma{sigma:+d}", float(norms[i]),
                   float(traj.times[i]), tol)


def check_hardy(traj: Trajectory, tol=None) -> CheckResult:
    """Hardy-type bound: int ||v - v(0)||^2 / t^2 <= 4 int ||v'||^2."""
    if len(traj) < 3:
        raise ValueError("check_hardy needs >= 3 nodes")
    t = traj.times
    wsq = kernels.row_dots(traj.velocities)
    # the t = 0 limit of ||v - v(0)||^2 / t^2 is ||v'(0)||^2
    lhs = path_integral(traj, np.divide(
        kernels.row_dots(traj.states - traj.states[0]), t * t,
        out=np.full_like(t, wsq[0]), where=t > 0))
    rhs = path_integral(traj, wsq)
    if tol is None:
        tol = 1e-6 * (1.0 + rhs)
    return _result("hardy", lhs - 4.0 * rhs, traj.t_end, tol,
                   notes=f"lhs={lhs:.12g} rhs4={4.0 * rhs:.12g}")


def check_contraction(traj1: Trajectory, traj2: Trajectory, tol=None) -> CheckResult:
    """q(t) = 0.5 ||v1 - v2||^2 must be nonincreasing and discretely convex."""
    if len(traj1) != len(traj2) or not np.array_equal(traj1.times, traj2.times):
        raise ValueError("check_contraction requires identical time grids")
    h = np.diff(traj1.times)
    if len(h) == 0 or np.max(np.abs(h - h[0])) > 1e-12 * max(h[0], 1.0):
        raise ValueError("check_contraction requires a uniform time grid")
    h = float(h[0])
    q = 0.5 * np.sum((traj1.states - traj2.states) ** 2, axis=-1)
    if tol is None:
        tol = 1e-6 * (1.0 + float(q[0]))
    mono_viol, mono_where = _max_consecutive_increase(traj1.times, q)
    second = q[2:] - 2.0 * q[1:-1] + q[:-2]
    if len(second) > 0:
        j = int(np.argmin(second))
        conv_viol = max(-float(second[j]), 0.0) / (h * h)
        conv_where = float(traj1.times[j + 1])
    else:
        conv_viol, conv_where = 0.0, float(traj1.times[0])
    if mono_viol >= conv_viol:
        viol, where = mono_viol, mono_where
    else:
        viol, where = conv_viol, conv_where
    return _result("contraction", viol, where, tol,
                   notes=f"monotone={mono_viol:.3g} convexity={conv_viol:.3g}")


# ---------------------------------------------------------------------------
# field-level and evanescence checks
# ---------------------------------------------------------------------------

def check_monotone_gradient(field, point_pairs, tol=None) -> CheckResult:
    """Sampled monotone-gradient (operational convexity) test:
    <grad f(x) - grad f(y), x - y> >= 0 for all supplied pairs."""
    field = _psi_of(field)
    pairs = np.asarray(point_pairs, float)
    if pairs.ndim != 3 or pairs.shape[1] != 2:
        raise ValueError("point_pairs must have shape (m, 2, n)")
    if pairs.shape[0] < 1:
        raise ValueError("need at least one pair")
    x, y = pairs[:, 0, :], pairs[:, 1, :]
    gx = np.asarray(field.gradient(x), float)
    gy = np.asarray(field.gradient(y), float)
    inner = np.sum((gx - gy) * (x - y), axis=-1)
    sep = np.sum((x - y) ** 2, axis=-1)
    if tol is None:
        tols = 1e-10 * (1.0 + sep)
    else:
        tols = np.full(len(inner), float(tol))
    excess = -inner - tols
    i = int(np.argmax(excess))
    return CheckResult(
        "monotone_gradient", bool(excess[i] <= 0.0),
        float(max(-inner[i], 0.0)), pairs[i].tolist(), float(tols[i]),
        notes=f"field={field.name}",
    )


def evanescence_measures(traj: Trajectory, V) -> dict:
    """Evanescence integral, tail minima and a three-way classification.

    The conditions at infinity are proxied on [0, T]: "strong" requires the
    integral to be horizon-stable (half- vs full-horizon difference < 1%)
    with both tails below DEFAULT_EPS_TAIL; "weak_only_proxy" requires the
    tails to have decayed by DECAY_FACTOR (or below DEFAULT_EPS_TAIL) while
    the integral is still growing; anything else is "none".
    """
    V = _v_of(V)
    Vvals = np.asarray(V.value(traj.states), float)
    speeds = np.linalg.norm(traj.velocities, axis=-1)
    density = speeds ** 2 + Vvals
    full = kernels.trapezoid(traj.times, density)
    t_half = 0.5 * traj.t_end
    k_half = int(np.searchsorted(traj.times, t_half, side="right"))
    k_half = max(k_half, 2)
    half = kernels.trapezoid(traj.times[:k_half], density[:k_half])
    m = max(2, len(traj) // 10)
    tail_vprime = float(np.min(speeds[-m:]))
    tail_V = float(np.min(Vvals[-m:]))
    peak_vprime = float(np.max(speeds)) if len(speeds) else 0.0
    peak_V = float(np.max(Vvals)) if len(Vvals) else 0.0

    eps = DEFAULT_EPS_TAIL
    stable = abs(full - half) < STABILITY_REL * max(abs(full), 1e-300) or full < 1e-14
    tails_small = tail_vprime < eps and tail_V < eps
    tails_shrunk = (
        (tail_vprime < eps or tail_vprime <= DECAY_FACTOR * peak_vprime)
        and (tail_V < eps or tail_V <= DECAY_FACTOR * peak_V)
    )
    if stable and tails_small and traj.termination != TERM_DIVERGED:
        classification = "strong"
    elif tails_shrunk and traj.termination != TERM_DIVERGED:
        classification = "weak_only_proxy"
    else:
        classification = "none"
    return {
        "ev_integral": float(full),
        "ev_integral_half": float(half),
        "tail_vprime": tail_vprime,
        "tail_V": tail_V,
        "classification": classification,
    }
