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

from dataclasses import dataclass, field as dc_field, replace
from typing import Optional

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded

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
    _variational_orbit,
    second_order_flow,
)

DEFAULT_T = 12.0
DEFAULT_N = 240

_ARMIJO_C = 1e-4      # Armijo constant of the action line search
_SHRINK = 0.5         # its backtracking factor
_TOL_EL = 1e-5        # a converged path's Euler-Lagrange residual is below this
_SHOOT_RTOL = 1e-10   # shooting orbits; atol and r_max as in IntegratorOptions
TOL_XV = 5e-3         # the routes of cross_validate agree to this distance


@dataclass
class ActionOptions:
    mu: Optional[float] = None        # terminal penalty weight; default 10*T/N
    tol_opt: float = 1e-8             # inf-norm gradient stopping tolerance
    max_iters: int = 50_000


@dataclass
class EvanescentSolveResult:
    trajectory: Trajectory            # the action route's nodes, or the shot orbit
    method: str
    converged: bool
    final_action: float
    diagnostics: DiagnosticsReport
    detail: dict = dc_field(default_factory=dict)


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


def _gradients(V: DifferentiableField, W: np.ndarray) -> np.ndarray:
    """grad V at every node of a (B, N+1, n) stack.  Fields see the nodes of
    a stack as one (B*(N+1), n) array, the shape of a single path."""
    return np.asarray(V.gradient(W.reshape(-1, W.shape[-1])), float).reshape(W.shape)


def _trial_values(V: DifferentiableField, W: np.ndarray) -> np.ndarray:
    """V at every node of a (B, N+1, n) stack, as (B, N+1), with a row of
    NaN for each path whose evaluation raises ValueError; the line search
    rejects those like non-finite values."""
    try:
        return np.asarray(V.value(W.reshape(-1, W.shape[-1])), float).reshape(W.shape[:-1])
    except ValueError:
        if len(W) == 1:
            return np.full(W.shape[:-1], np.nan)
        return np.concatenate([_trial_values(V, w[None]) for w in W])


def _descend(V: DifferentiableField, W: np.ndarray, dt: float, mu: float,
             opts: ActionOptions):
    """Monotone preconditioned descent on the discrete action of each path
    of a (B, N+1, n) stack; node 0 of every path is fixed.

    Member b steps along -P_b^{-1} g.  P_b is the action's Hessian on nodes
    1..N for the isotropic quadratic V = c_b ||x||^2 / 2: tridiagonal with
    off-diagonal -1/dt, diagonal 2/dt + c_b dt and last diagonal
    1/dt + c_b (dt/2 + mu), where c_b = ||grad V(x0)||^2 / (2 V(x0)), or 1
    where V(x0) = 0.  It removes the O(N^2) condition number of the kinetic
    term, and is exact when V is such a quadratic; the first trial step, 1,
    is then the Newton step.  Later trial steps are the preconditioned
    Barzilai-Borwein step s.y / y.P_b^{-1} y, safeguarded by Armijo
    backtracking on the term-wise decrease against t g.P_b^{-1} g, so the
    action is nonincreasing; a trial where V is not finite is rejected like
    one that fails the test.  A member stops when its gradient inf-norm
    falls below opts.tol_opt, after opts.max_iters iterations, or when its
    line search finds no step, and then leaves the working set; only
    rejected members are tried again inside a line search.  Returns the
    final (W, Vv, Vg, iterations, grad_inf) per member.
    """
    W = np.array(W, float)
    Vv = _potential_values(V, W.reshape(-1, W.shape[-1])).reshape(W.shape[:-1])
    Vg = _gradients(V, W)
    out_W, out_Vv, out_Vg = np.empty_like(W), np.empty_like(Vv), np.empty_like(Vg)
    iters = np.zeros(len(W), int)
    ginf = np.zeros(len(W))
    # P_b is factored once; each member takes its own banded solve, so its
    # result is the one it gets alone
    N = W.shape[1] - 1
    factors = np.empty((len(W), 2, N))
    for b, (v, g0) in enumerate(zip(Vv[:, 0], Vg[:, 0])):
        c = float(np.dot(g0, g0)) / (2.0 * v) if v > 0.0 else 1.0
        band = np.full((2, N), -1.0 / dt)
        band[1] = 2.0 / dt + c * dt
        band[1, -1] = 1.0 / dt + c * (0.5 * dt + mu)
        factors[b] = cholesky_banded(band)

    def precondition(g):
        return np.stack([cho_solve_banded((f, False), gb, check_finite=False)
                         for f, gb in zip(factors, g)])

    def armijo(D, Vv, D_t, Vv_t, t, gp):
        # the decrease is summed from per-term differences, so the test
        # still resolves it near the double-precision floor
        if np.isfinite(Vv_t).all():
            return kernels._decrease(D, Vv, D_t, Vv_t, dt, mu) >= _ARMIJO_C * t * gp
        ok = np.isfinite(Vv_t).all(axis=1)
        ok[ok] = armijo(D[ok], Vv[ok], D_t[ok], Vv_t[ok], t[ok], gp[ok])
        return ok

    # the working set: original index and state of every member still going,
    # with p = P^{-1} g and the next trial step
    ids = np.arange(len(W))
    D = W[:, 1:] - W[:, :-1]
    g = kernels.action_gradient(W, Vg, dt, mu)
    p = precondition(g)
    gi = np.maximum.reduce(np.abs(g), axis=(1, 2))
    step = np.ones(len(W))
    stop = gi < opts.tol_opt
    k = 0
    while True:
        if k >= opts.max_iters:
            stop[:] = True
        if stop.any():
            done = ids[stop]
            out_W[done], out_Vv[done], out_Vg[done] = W[stop], Vv[stop], Vg[stop]
            iters[done], ginf[done] = k, gi[stop]
            if stop.all():
                break
            go = ~stop
            ids, W, Vv, Vg, D, g, p, step, factors = (
                a[go] for a in (ids, W, Vv, Vg, D, g, p, step, factors))
        k += 1
        gp = np.add.reduce(g * p, axis=(1, 2))
        t = np.minimum(np.maximum(step, 1e-12), 1e6)
        W_t = W.copy()
        W_t[:, 1:] -= t[:, None, None] * p
        Vv_t = _trial_values(V, W_t)
        D_t = W_t[:, 1:] - W_t[:, :-1]
        ok = armijo(D, Vv, D_t, Vv_t, t, gp)
        retry = (~ok).nonzero()[0]
        while retry.size:
            t[retry] *= _SHRINK
            retry = retry[t[retry] >= 1e-16]
            if not retry.size:
                break
            W_r = W[retry]
            W_r[:, 1:] -= t[retry, None, None] * p[retry]
            Vv_r = _trial_values(V, W_r)
            D_r = W_r[:, 1:] - W_r[:, :-1]
            hit = armijo(D[retry], Vv[retry], D_r, Vv_r, t[retry], gp[retry])
            acc = retry[hit]
            W_t[acc], Vv_t[acc], D_t[acc], ok[acc] = W_r[hit], Vv_r[hit], D_r[hit], True
            retry = retry[~hit]
        # a member whose line search finds no step keeps its path and stops
        failed = ~ok
        W_t[failed], Vv_t[failed], D_t[failed] = W[failed], Vv[failed], D[failed]
        W, Vv, D = W_t, Vv_t, D_t
        Vg = _gradients(V, W)
        g_new = kernels.action_gradient(W, Vg, dt, mu)
        p_new = precondition(g_new)
        # preconditioned Barzilai-Borwein step s.y / y.P^{-1}y, where s = -t p
        # and P^{-1}y = p_new - p; twice the last step where it is undefined
        s, y, py = -t[:, None, None] * p, g_new - g, p_new - p
        sy = np.add.reduce(s * y, axis=(1, 2))
        ypy = np.add.reduce(y * py, axis=(1, 2))
        step = np.divide(sy, ypy, out=t * 2.0, where=(sy > 0) & (ypy > 0))
        g, p = g_new, p_new
        gi = np.maximum.reduce(np.abs(g), axis=(1, 2))
        stop = (gi < opts.tol_opt) | failed
    return out_W, out_Vv, out_Vg, iters, ginf


def _check_horizon(T: float, N: Optional[int] = None) -> None:
    """Raise ValueError unless T is a positive finite horizon and N, if
    given, is >= 2."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be a positive finite number, got {T!r}")
    if N is not None and not N >= 2:
        raise ValueError(f"N must be >= 2, got {N!r}")


def _minimize_actions(V: DifferentiableField, X0: np.ndarray, T: float, N: int,
                      opts: ActionOptions, W: Optional[np.ndarray] = None) -> list:
    """The action solves from the rows of X0 (B, n) as one stack.  W holds the
    initial paths; by default each is the constant path at its x0.  T, N and
    a mu out of range raise ValueError before anything is solved.  Returns
    (trajectory, action, converged, detail) per row: the trajectory holds
    the nodes at times dt * k with their finite-difference velocities."""
    _check_horizon(T, N)
    dt = T / N
    mu = opts.mu if opts.mu is not None else 10.0 * dt
    if not 0.0 <= mu < np.inf:
        # a negative terminal penalty leaves the action unbounded below
        raise ValueError(f"mu must be a finite number >= 0, got {mu!r}")
    if W is None:
        W = np.repeat(np.asarray(X0, float)[:, None, :], N + 1, axis=1)
    W, Vv, Vg, iters, ginf = _descend(V, W, dt, mu, opts)
    values, _ = kernels.action_assemble(W, Vv, Vg, dt, mu, want_grad=False)
    el_res = kernels.el_residual_max(W, Vg, dt)
    m_tail = max(2, (N + 1) // 10)
    out = []
    for i in range(len(W)):
        traj = Trajectory(dt * np.arange(N + 1), W[i], fd_velocities(W[i], dt),
                          "second_order", TERM_HORIZON,
                          {"method": "action", "dt": dt, "mu": mu})
        tail_vprime = float(np.min(np.linalg.norm(traj.velocities[-m_tail:], axis=-1)))
        tail_V = float(np.min(Vv[i, -m_tail:]))
        converged = (
            ginf[i] < opts.tol_opt
            and el_res[i] < _TOL_EL
            and tail_vprime < DEFAULT_EPS_TAIL
            and tail_V < DEFAULT_EPS_TAIL
        )
        out.append((traj, float(values[i]), bool(converged),
                    {"iterations": int(iters[i]), "grad_inf": float(ginf[i]),
                     "tail_vprime": tail_vprime, "tail_V": tail_V,
                     "el_residual": float(el_res[i])}))
    return out


def minimize_action(V, x0, T: float = DEFAULT_T, N: int = DEFAULT_N,
                    opts: Optional[ActionOptions] = None,
                    psi: Optional[DifferentiableField] = None,
                    init_path: Optional[np.ndarray] = None) -> EvanescentSolveResult:
    """Monotone descent on the discrete action from init_path, or from the
    constant path W = x0, preconditioned by the action's Hessian P for the
    isotropic quadratic V = c ||x||^2 / 2, c = ||grad V(x0)||^2 / (2 V(x0))
    (1 where V(x0) = 0; see _descend).  Every accepted step satisfies the
    Armijo condition, so the action is nonincreasing across iterations.  At
    an equilibrium the constant path has zero gradient and stops at once.
    """
    V = _v_of(V)
    opts = opts or ActionOptions()
    x0 = np.asarray(x0, float).reshape(V.dim)
    v00 = float(V.value(x0))
    if v00 < -1e-12:
        raise ValueError(f"V(x0) = {v00:g} is negative")
    W = None
    if init_path is not None:
        W = np.array(init_path, float)
        if W.shape != (N + 1, V.dim):
            raise ValueError("init_path has wrong shape")
        W[0] = x0
        W = W[None]
    traj, action, converged, detail = _minimize_actions(V, x0[None], T, N, opts, W)[0]
    # node velocities come from finite differences, so the conserved
    # quantity carries an O(dt^2) discretization error
    speed0 = float(np.linalg.norm(traj.velocities[0]))
    fi_tol = max(1e-6, traj.meta["dt"] ** 2) * (1.0 + speed0 ** 2)
    report = _solve_diagnostics(traj, V, psi, fi_tol)
    return EvanescentSolveResult(traj, "action", converged, action, report, detail)


def _solve_diagnostics(traj, V, psi=None, fi_tol=None) -> DiagnosticsReport:
    """First integral (to fi_tol, or its own default), equality of modula
    and, given psi, the phi residual along an orbit."""
    report = DiagnosticsReport(subject="evanescent solve")
    report.add(check_first_integral(traj, V, tol=fi_tol))
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
                     psi: Optional[DifferentiableField] = None) -> EvanescentSolveResult:
    """Find the v0 on the sphere ||v0|| = sqrt(2 V(x0)) whose orbit is
    evanescent, by Gauss-Newton on the terminal velocity w(T): on the sphere
    ||w(T)||^2 = 2 V(v(T)), so w(T) is the whole terminal penalty.  In 1-D
    the sphere is the two points +-r and the better one is kept; at r = 0 it
    is the one point v0 = 0.  A T that is not a positive finite number
    raises ValueError before V is evaluated."""
    _check_horizon(T)
    V = _v_of(V)
    n = V.dim
    x0 = np.asarray(x0, float).reshape(n)
    v0_sq = 2.0 * float(V.value(x0))
    if v0_sq < -1e-12:
        raise ValueError(f"V(x0) = {0.5 * v0_sq:g} is negative")
    r = float(np.sqrt(max(v0_sq, 0.0)))

    # downhill seed
    gV = np.asarray(V.gradient(x0), float)
    gn = float(np.linalg.norm(gV))
    seed = -r * gV / gn if gn > 0 else r * np.eye(n)[0]
    if r == 0.0:
        candidates, evaluations = [np.zeros(n)], 0
    elif n == 1:
        candidates, evaluations = [seed, -seed], 0
    else:
        v0, evaluations = _gauss_newton(V, x0, seed, T)
        candidates = [v0]

    final_opts = IntegratorOptions(rtol=_SHOOT_RTOL)
    p, traj, v0 = min((_scored_orbit(V, x0, c, T, final_opts) + (c,)
                       for c in candidates), key=lambda s: s[0])
    evaluations += len(candidates)
    if traj is None:
        raise NumericDomainError("every shooting orbit left the domain of V")
    act = path_integral(
        traj, 0.5 * kernels.row_dots(traj.velocities)
        + np.asarray(V.value(traj.states), float)
    ) if len(traj) >= 2 else np.inf
    converged = (
        traj.termination == TERM_HORIZON and p < 2.0 * DEFAULT_EPS_TAIL ** 2
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


def _gauss_newton(V, x0, v0, T):
    """Sphere-constrained Gauss-Newton on w(T) from v0; returns (v0, orbits)."""
    r = float(np.linalg.norm(v0))
    orbits = 0

    def terminal(v0, Tk):
        """(w(Tk), dw(Tk)/dv0), or None if the orbit diverges or fails."""
        nonlocal orbits
        orbits += 1
        return _variational_orbit(V, x0, v0, Tk, _SHOOT_RTOL)

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
                   N: int = DEFAULT_N, seed: int = 0,
                   action_opts: Optional[ActionOptions] = None,
                   action: Optional[EvanescentSolveResult] = None,
                   shot: Optional[EvanescentSolveResult] = None) -> DiagnosticsReport:
    """Run gradient flow, action minimization and shooting from the same x0
    and assert the three orbits agree on the shared uniform grid with
    spacing T/N, then check the phi residual along each route's orbit.  A
    route already solved from x0 at (T, N) with these options is passed in
    as ``action`` or ``shot`` and not solved again.  T and N out of range
    raise ValueError before anything is evaluated."""
    _check_horizon(T, N)
    psi, V = pp.psi, pp.v
    x0 = np.asarray(x0, float).reshape(psi.dim)
    report = DiagnosticsReport(subject=f"cross-validate {psi.name} from {x0.tolist()}")

    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(40, psi.dim)) + x0
    pairs = np.stack([base[:20], base[20:]], axis=1)
    report.add(check_monotone_gradient(psi, pairs))

    grid = T / N * np.arange(N + 1)
    flow = gradient_flow(pp, x0, T, IntegratorOptions(method="rk4", h=T / N))
    act = action or minimize_action(V, x0, T, N, action_opts, psi=psi)
    shot = shot or shoot_evanescent(V, x0, T, psi=psi)
    flow_states = _on_grid(flow, grid)
    act_states = act.trajectory.states
    shot_states = _on_grid(shot.trajectory, grid)

    def dist(a, b):
        return float(np.max(np.linalg.norm(a - b, axis=-1)))

    for cid, a, b in (
        ("xv_action_vs_flow", act_states, flow_states),
        ("xv_shoot_vs_flow", shot_states, flow_states),
        ("xv_action_vs_shoot", act_states, shot_states),
    ):
        d = dist(a, b)
        report.add(CheckResult(cid, d <= TOL_XV, d, None, TOL_XV))

    for cid, res in (("phi_residual_action", act), ("phi_residual_shoot", shot)):
        own = check_phi_residual(res.trajectory, psi, sigma=+1, tol=1e-3)
        report.add(replace(own, check_id=cid))
    return report


def _on_grid(traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """The states of traj at the given times by the cubic Hermite interpolant
    of its node states and velocities: a node's own state at its time, and
    the last state past the end of the orbit."""
    t, x, w = traj.times, traj.states, traj.velocities
    if len(t) < 2:
        return np.repeat(x[-1:], len(times), axis=0)
    s = np.minimum(times, t[-1])
    i = np.clip(np.searchsorted(t, s, side="right") - 1, 0, len(t) - 2)
    h = (t[i + 1] - t[i])[:, None]
    u = (s - t[i])[:, None] / h
    return ((1.0 + 2.0 * u) * (1.0 - u) ** 2 * x[i] + u * (1.0 - u) ** 2 * h * w[i]
            + u * u * (3.0 - 2.0 * u) * x[i + 1] + u * u * (u - 1.0) * h * w[i + 1])
