"""Boundary-value-at-infinity solver for v'' = grad V(v) given only V.

Two independent routes recover the evanescent orbit from a starting point:
discrete action minimization over a node path with a terminal penalty, and
shooting on the initial velocity.  The first integral pins
||v'(0)|| = sqrt(2 V(x0)) for evanescent orbits, so shooting is a root-find
on that sphere: Gauss-Newton on the terminal velocity w(T), with its
Jacobian from the variational equations along each orbit, continued over
doubling horizons up to T.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Optional

import numpy as np

from evanflow import kernels
from evanflow.diagnostics import (
    DEFAULT_EPS_TAIL,
    CheckResult,
    DiagnosticsReport,
    check_first_integral,
    check_modula_equality,
    check_monotone_gradient,
    check_phi_residual,
)
from evanflow.fields import DifferentiableField, NumericDomainError, PotentialPair, _v_of
from evanflow.integrate import (
    TERM_HORIZON,
    IntegratorOptions,
    Trajectory,
    gradient_flow,
    path_integral,
    _second_order_rhs,
    _variational_rhs,
    rk4_fixed,
    rk_adaptive,
    second_order_flow,
)

DEFAULT_T = 12.0
DEFAULT_N = 240


@dataclass
class ActionOptions:
    mu: Optional[float] = None        # terminal penalty weight; default 10*T/N
    tol_opt: float = 1e-8             # inf-norm gradient stopping tolerance
    max_iters: int = 50_000
    armijo_c: float = 1e-4
    shrink: float = 0.5
    tol_el: float = 1e-5
    eps_tail: float = DEFAULT_EPS_TAIL


@dataclass
class ShootOptions:
    rtol: float = 1e-10
    atol: float = 1e-12
    r_max: float = 1e6
    eps_tail: float = DEFAULT_EPS_TAIL


@dataclass
class DiscretePath:
    nodes: np.ndarray                 # (N+1, n), nodes[0] = x0 fixed
    dt: float
    action: float
    el_residual: float
    mu: float

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.nodes))

    def velocities(self) -> np.ndarray:
        return fd_velocities(self.nodes, self.dt)

    def as_trajectory(self) -> Trajectory:
        return Trajectory(self.times, self.nodes, self.velocities(),
                          "second_order", TERM_HORIZON,
                          {"method": "action", "dt": self.dt})


@dataclass
class EvanescentSolveResult:
    path: object                      # DiscretePath (action) or Trajectory (shooting)
    method: str
    converged: bool
    final_action: float
    diagnostics: DiagnosticsReport
    detail: dict = dc_field(default_factory=dict)

    def trajectory(self) -> Trajectory:
        return self.path.as_trajectory() if isinstance(self.path, DiscretePath) else self.path


def fd_velocities(W: np.ndarray, dt: float) -> np.ndarray:
    """4th-order finite-difference velocities on a uniform node grid."""
    W = np.asarray(W, float)
    m = len(W)
    if m < 5:
        if m < 2:
            return np.zeros_like(W)
        v = np.gradient(W, dt, axis=0)
        return v
    v = np.empty_like(W)
    v[2:-2] = (W[:-4] - 8.0 * W[1:-3] + 8.0 * W[3:-1] - W[4:]) / (12.0 * dt)
    v[0] = (-25.0 * W[0] + 48.0 * W[1] - 36.0 * W[2] + 16.0 * W[3] - 3.0 * W[4]) / (12.0 * dt)
    v[1] = (-3.0 * W[0] - 10.0 * W[1] + 18.0 * W[2] - 6.0 * W[3] + W[4]) / (12.0 * dt)
    v[-2] = (3.0 * W[-1] + 10.0 * W[-2] - 18.0 * W[-3] + 6.0 * W[-4] - W[-5]) / (12.0 * dt)
    v[-1] = (25.0 * W[-1] - 48.0 * W[-2] + 36.0 * W[-3] - 16.0 * W[-4] + 3.0 * W[-5]) / (12.0 * dt)
    return v


def _potential_values(V: DifferentiableField, W: np.ndarray) -> np.ndarray:
    Vv = np.asarray(V.value(W), float)
    if not np.all(np.isfinite(Vv)):
        raise ValueError("non-finite potential value along path")
    return Vv


def discrete_action(V, path_nodes, dt: float, mu: float, want_grad: bool = True):
    """Action value and gradient (w.r.t. interior + terminal nodes) of a path.

    value = sum_k dt * (0.5 ||(w_{k+1}-w_k)/dt||^2 + 0.5 (V_k + V_{k+1}))
            + mu * V(w_N)
    """
    V = _v_of(V)
    W = np.asarray(path_nodes, float)
    if W.ndim != 2 or len(W) < 3:
        raise ValueError("path must be an (N+1, n) array with N >= 2")
    Vv = _potential_values(V, W)
    if want_grad:
        Vg = np.asarray(V.gradient(W), float)
    else:
        Vg = W  # ignored by the kernel
    return kernels.action_assemble(W, Vv, Vg, float(dt), float(mu),
                                   want_grad=want_grad)


def _descend_on_field(V: DifferentiableField, x0: np.ndarray,
                      max_iters: int = 2000, tol: float = 1e-10) -> np.ndarray:
    """Cheap preliminary descent on V itself, used to aim the initial path."""
    x = x0.copy()
    val = float(V.value(x))
    step = 1.0
    for _ in range(max_iters):
        g = np.asarray(V.gradient(x), float)
        gg = float(np.dot(g, g))
        if gg < tol * tol:
            break
        t = step
        while t > 1e-16:
            xt = x - t * g
            vt = float(V.value(xt))
            if np.isfinite(vt) and vt <= val - 1e-4 * t * gg:
                break
            t *= 0.5
        else:
            break
        x, val = xt, vt
        step = min(t * 2.0, 1e6)
    return x


def minimize_action(V, x0, T: float = DEFAULT_T, N: int = DEFAULT_N,
                    opts: Optional[ActionOptions] = None,
                    psi: Optional[DifferentiableField] = None,
                    init_path: Optional[np.ndarray] = None) -> EvanescentSolveResult:
    """Monotone descent on the discrete action with Armijo backtracking.

    The initial trial step uses a Barzilai-Borwein estimate; every accepted
    step satisfies the Armijo decrease condition, so the action value is
    nonincreasing across iterations.
    """
    V = _v_of(V)
    opts = opts or ActionOptions()
    if N < 2:
        raise ValueError("N must be >= 2")
    x0 = np.asarray(x0, float).reshape(V.dim)
    v00 = float(V.value(x0))
    if v00 < -1e-12:
        raise ValueError(f"V(x0) = {v00:g} is negative")
    dt = T / N
    mu = opts.mu if opts.mu is not None else 10.0 * dt

    if v00 <= 1e-14 and float(np.linalg.norm(V.gradient(x0))) < 1e-10:
        # equilibrium: the constant path is the exact minimizer
        W = np.tile(x0, (N + 1, 1))
        val, _ = discrete_action(V, W, dt, mu, want_grad=False)
        path = DiscretePath(W, dt, float(val), 0.0, mu)
        report = _solve_diagnostics(path, V, psi)
        return EvanescentSolveResult(path, "action", True, float(val), report,
                                     {"iterations": 0, "grad_inf": 0.0})

    if init_path is not None:
        W = np.array(init_path, float)
        if W.shape != (N + 1, V.dim):
            raise ValueError("init_path has wrong shape")
        W[0] = x0
    else:
        x_min = _descend_on_field(V, x0)
        lam = np.linspace(0.0, 1.0, N + 1)[:, None]
        W = (1.0 - lam) * x0 + lam * x_min

    Vv = _potential_values(V, W)
    Vg = np.asarray(V.gradient(W), float)
    val, g = kernels.action_assemble(W, Vv, Vg, dt, mu)
    step = dt / 4.0
    s_prev = None
    y_prev = None
    iters = 0
    ginf = float(np.max(np.abs(g)))
    while iters < opts.max_iters and ginf >= opts.tol_opt:
        iters += 1
        gg = float(np.sum(g * g))
        # Barzilai-Borwein (short variant) trial step, safeguarded by Armijo;
        # the short step passes the monotone test almost always, so the
        # backtracking loop rarely fires
        if s_prev is not None:
            sy = float(np.sum(s_prev * y_prev))
            yy = float(np.sum(y_prev * y_prev))
            if sy > 0 and yy > 0:
                step = sy / yy
            else:
                step = step * 2.0
        t = min(max(step, 1e-12), 1e6)
        accepted = False
        while t >= 1e-16:
            W_trial = W.copy()
            W_trial[1:] -= t * g
            try:
                Vv_t = _potential_values(V, W_trial)
            except ValueError:
                t *= opts.shrink
                continue
            # the decrease is summed from per-term differences, so the test
            # still resolves it near the double-precision floor
            if kernels.action_decrease(W, Vv, W_trial, Vv_t, dt, mu) \
                    >= opts.armijo_c * t * gg:
                accepted = True
                break
            t *= opts.shrink
        if not accepted:
            break
        s_prev = -t * g
        W, Vv = W_trial, Vv_t
        Vg = np.asarray(V.gradient(W), float)
        val, g_new = kernels.action_assemble(W, Vv, Vg, dt, mu)
        y_prev = g_new - g
        g = g_new
        step = t
        ginf = float(np.max(np.abs(g)))

    el_res = kernels.el_residual_max(W, Vg, dt)
    path = DiscretePath(W, dt, float(val), float(el_res), mu)
    vel = path.velocities()
    m_tail = max(2, (N + 1) // 10)
    tail_vprime = float(np.min(np.linalg.norm(vel[-m_tail:], axis=-1)))
    tail_V = float(np.min(Vv[-m_tail:]))
    converged = (
        ginf < opts.tol_opt
        and el_res < opts.tol_el
        and tail_vprime < opts.eps_tail
        and tail_V < opts.eps_tail
    )
    report = _solve_diagnostics(path, V, psi)
    return EvanescentSolveResult(
        path, "action", bool(converged), float(val), report,
        {"iterations": iters, "grad_inf": ginf,
         "tail_vprime": tail_vprime, "tail_V": tail_V},
    )


def _solve_diagnostics(path_or_traj, V, psi=None) -> DiagnosticsReport:
    discrete = isinstance(path_or_traj, DiscretePath)
    traj = path_or_traj.as_trajectory() if discrete else path_or_traj
    report = DiagnosticsReport(subject="evanescent solve")
    if discrete:
        # node velocities come from finite differences, so the conserved
        # quantity carries an O(dt^2) discretization error
        speed0 = float(np.linalg.norm(traj.velocities[0]))
        fi_tol = max(1e-6, path_or_traj.dt ** 2) * (1.0 + speed0 ** 2)
        report.add(check_first_integral(traj, V, tol=fi_tol))
    else:
        report.add(check_first_integral(traj, V))
    report.add(check_modula_equality(traj, psi=psi, V=V,
                                     tol=1e-3 * (1.0 + float(
                                         np.linalg.norm(traj.velocities[0])))))
    if psi is not None:
        report.add(check_phi_residual(traj, psi, sigma=+1, tol=1e-3))
    return report


# ---------------------------------------------------------------------------
# shooting
# ---------------------------------------------------------------------------

# horizons T/2^k, ..., T/2, T from the first one <= _FIRST_HORIZON; each
# ends after _NEWTON_ITERS steps, when a step falls below _STEP_TOL * r, or
# when the residual stops decreasing
_FIRST_HORIZON = 1.5
_NEWTON_ITERS = 8
_STEP_TOL = 1e-13


def shoot_evanescent(V, x0, T: float = DEFAULT_T,
                     opts: Optional[ShootOptions] = None,
                     psi: Optional[DifferentiableField] = None) -> EvanescentSolveResult:
    """Find the v0 on the sphere ||v0|| = sqrt(2 V(x0)) whose orbit is
    evanescent, by Gauss-Newton on the terminal velocity w(T): on the sphere
    ||w(T)||^2 = 2 V(v(T)), so w(T) is the whole terminal penalty.  In 1-D
    the sphere is the two points +-r and the better one is kept."""
    V = _v_of(V)
    opts = opts or ShootOptions()
    n = V.dim
    x0 = np.asarray(x0, float).reshape(n)
    v0_sq = 2.0 * float(V.value(x0))
    if v0_sq < -1e-12:
        raise ValueError(f"V(x0) = {0.5 * v0_sq:g} is negative")
    r = float(np.sqrt(max(v0_sq, 0.0)))

    if r == 0.0 or float(np.linalg.norm(V.gradient(x0))) < 1e-10 and r < 1e-10:
        times = np.array([0.0, T])
        traj = Trajectory(times, np.vstack([x0, x0]), np.zeros((2, n)),
                          "second_order", TERM_HORIZON, {"method": "shooting"})
        report = _solve_diagnostics(traj, V, psi)
        return EvanescentSolveResult(traj, "shooting", True, 0.0, report,
                                     {"v0": [0.0] * n, "penalty": 0.0})

    # downhill seed
    gV = np.asarray(V.gradient(x0), float)
    gn = float(np.linalg.norm(gV))
    seed = -r * gV / gn if gn > 0 else r * np.eye(n)[0]
    if n == 1:
        candidates, evaluations = [seed, -seed], 0
    else:
        v0, evaluations = _gauss_newton(V, x0, seed, T, opts)
        candidates = [v0]

    final_opts = IntegratorOptions(method="rk45", rtol=opts.rtol,
                                   atol=opts.atol, r_max=opts.r_max)
    p, traj, v0 = min((_scored_orbit(V, x0, c, T, final_opts) + (c,)
                       for c in candidates), key=lambda s: s[0])
    evaluations += len(candidates)
    if traj is None:
        raise NumericDomainError("every shooting orbit left the domain of V")
    act = path_integral(
        traj, lambda t, x, w: 0.5 * float(np.dot(w, w)) + float(V.value(x))
    ) if len(traj) >= 2 else np.inf
    converged = (
        traj.termination == TERM_HORIZON and p < 2.0 * opts.eps_tail ** 2
    )
    report = _solve_diagnostics(traj, V, psi)
    return EvanescentSolveResult(
        traj, "shooting", bool(converged), float(act), report,
        {"v0": np.asarray(v0).tolist(), "penalty": float(p),
         "evaluations": evaluations},
    )


def _scored_orbit(V, x0, v0, T, iopts):
    """(penalty, trajectory) of the plain orbit from (x0, v0).  The penalty is
    ||w(T)||^2 + 2 V(v(T)); an orbit that stops early scores by how early, and
    one that leaves the domain of V has no trajectory."""
    try:
        traj = second_order_flow(V, x0, v0, T, iopts)
    except ArithmeticError:
        return 1e12 * (1.0 + T), None
    if traj.termination != TERM_HORIZON:
        return 1e12 * (1.0 + T - traj.t_end), traj
    wT = traj.velocities[-1]
    return float(np.dot(wT, wT) + 2.0 * float(V.value(traj.states[-1]))), traj


def _gauss_newton(V, x0, v0, T, opts: ShootOptions):
    """Sphere-constrained Gauss-Newton on w(T) from v0; returns (v0, orbits)."""
    n = len(x0)
    r = float(np.linalg.norm(v0))
    rhs = _variational_rhs(V)
    y_sens = np.concatenate([np.zeros(n * n), np.eye(n).ravel()])
    orbits = 0

    def terminal(v0, Tk):
        """(w(Tk), dw(Tk)/dv0), or None if the orbit diverges or fails."""
        nonlocal orbits
        orbits += 1
        # only (v, w) enters the error norm and the divergence test, so it
        # takes the steps of the plain orbit; (P, Q) grow like e^{lambda t}
        try:
            raw = rk_adaptive(rhs, np.concatenate([x0, v0, y_sens]), Tk,
                              rtol=opts.rtol, atol=opts.atol,
                              r_max=opts.r_max, n_ctrl=2 * n)
        except ArithmeticError:
            return None
        y = raw.ys[-1]
        return ((y[n:2 * n], y[2 * n + n * n:].reshape(n, n))
                if raw.termination == TERM_HORIZON else None)

    k = max(0, int(np.ceil(np.log2(T / _FIRST_HORIZON))))
    for Tk in T / 2.0 ** np.arange(k, -1, -1):
        cur = terminal(v0, Tk)
        if cur is None:
            break
        for _ in range(_NEWTON_ITERS):
            w, Q = cur
            B = np.linalg.svd(v0[None, :])[2][1:].T     # tangent basis at v0
            step = B @ np.linalg.lstsq(Q @ B, -w, rcond=None)[0]
            while True:
                cand = v0 + step
                cand *= r / float(np.linalg.norm(cand))
                if float(np.linalg.norm(step)) < _STEP_TOL * r:
                    new = None          # converged: take the step unchecked
                    break
                new = terminal(cand, Tk)
                if new is not None:
                    break
                step = 0.5 * step       # a diverging or failing orbit halves it
            if new is None:
                v0 = cand
                break
            if not np.linalg.norm(new[0]) < np.linalg.norm(w):
                break
            v0, cur = cand, new
    return v0, orbits


# ---------------------------------------------------------------------------
# cross validation of the three routes
# ---------------------------------------------------------------------------

def cross_validate(pp: PotentialPair, x0, T: float = DEFAULT_T,
                   N: int = DEFAULT_N, tol_xv: float = 5e-3,
                   seed: int = 0,
                   action_opts: Optional[ActionOptions] = None,
                   shoot_opts: Optional[ShootOptions] = None) -> DiagnosticsReport:
    """Run gradient flow, action minimization and shooting from the same x0
    and assert the three orbits agree on a shared uniform grid."""
    psi, V = pp.psi, pp.v
    x0 = np.asarray(x0, float).reshape(psi.dim)
    report = DiagnosticsReport(subject=f"cross-validate {psi.name} from {x0.tolist()}")

    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(40, psi.dim)) + x0
    pairs = np.stack([base[:20], base[20:]], axis=1)
    report.add(check_monotone_gradient(psi, pairs))

    flow = gradient_flow(pp, x0, T, IntegratorOptions(method="rk4", h=T / N))
    flow_states = _pad_to(flow.states, N + 1)

    act = minimize_action(V, x0, T, N, action_opts, psi=psi)
    act_states = act.path.nodes

    shot = shoot_evanescent(V, x0, T, shoot_opts, psi=psi)
    v0 = np.asarray(shot.detail.get("v0", -psi.gradient(x0)), float)
    shot_traj = _shot_on_grid(V, x0, v0, T, N)
    shot_states = shot_traj.states

    def dist(a, b):
        return float(np.max(np.linalg.norm(a - b, axis=-1)))

    for cid, a, b in (
        ("xv_action_vs_flow", act_states, flow_states),
        ("xv_shoot_vs_flow", shot_states, flow_states),
        ("xv_action_vs_shoot", act_states, shot_states),
    ):
        d = dist(a, b)
        report.add(CheckResult(cid, d <= tol_xv, d, None, float(tol_xv)))

    act_traj = act.path.as_trajectory()
    r1 = check_phi_residual(act_traj, psi, sigma=+1, tol=1e-3)
    r1.check_id = "phi_residual_action"
    report.add(r1)
    r2 = check_phi_residual(shot_traj, psi, sigma=+1, tol=1e-3)
    r2.check_id = "phi_residual_shoot"
    report.add(r2)
    return report


def _shot_on_grid(V, x0, v0, T: float, N: int) -> Trajectory:
    """The orbit from (x0, v0) by RK4 on the uniform grid with spacing T/N,
    padded with its last state to N + 1 nodes if it diverges early."""
    n = len(x0)
    raw = rk4_fixed(_second_order_rhs(V), np.concatenate([x0, v0]), T, T / N,
                    r_max=1e8)
    ys = _pad_to(raw.ys, N + 1)
    return Trajectory(T / N * np.arange(N + 1), ys[:, :n], ys[:, n:],
                      "second_order", raw.termination, dict(raw.meta))


def _pad_to(states: np.ndarray, m: int) -> np.ndarray:
    if len(states) >= m:
        return states[:m]
    pad = np.tile(states[-1], (m - len(states), 1))
    return np.vstack([states, pad])
