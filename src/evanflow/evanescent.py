"""Boundary-value-at-infinity solver for v'' = grad V(v) given only V.

Two independent routes recover the evanescent orbit from a starting point:
discrete action minimization over a node path with a terminal penalty, and
shooting on the initial velocity.  The first integral pins
||v'(0)|| = sqrt(2 V(x0)) for evanescent orbits, so shooting is a root-find
on that sphere: Gauss-Newton on the terminal velocity w(T), with its
Jacobian from the variational equations along each DOP853 orbit, damped
where a step does not lower the residual, continued over doubling horizons
up to T; where the sphere has no tangent space (1-D, r = 0), the same loop
compares its points' orbits at T.  The shooting action integrates
0.5 ||w||^2 + V(v) over the orbit's nodes by the endpoint-corrected
trapezoid, and cross validation samples an orbit between its nodes by the
quintic Hermite interpolant of its states, velocities and accelerations
grad V.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, replace
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
from evanflow.fields import DifferentiableField, NumericDomainError, PotentialPair
from evanflow.integrate import (
    TERM_HORIZON,
    IntegratorOptions,
    Trajectory,
    gradient_flow,
    path_integral,
    _CHECK_RTOL,
    _SHOOT_RTOL,
    _variational_orbit,
)

DEFAULT_T = 12.0
DEFAULT_N = 240

_ARMIJO_C = 1e-4      # Armijo constant of the action line search
_SHRINK = 0.5         # its backtracking factor
_HALVINGS = 20        # and its most halvings per iteration, as of a Gauss-Newton step
_TOL_OPT = 1e-8       # a path stops once its action gradient's inf-norm is below this
_MU_PER_DT = 10.0     # the terminal penalty weight mu is this times dt = T/N
TOL_XV = 5e-3         # the routes of cross_validate agree to this distance
_V_FLOOR = -1e-12     # V below this is no rounding of V >= 0
DEFAULT_MAX_ITERS = 50_000


@dataclass
class EvanescentSolveResult:
    trajectory: Trajectory            # the action route's nodes, or the shot orbit
    method: str
    converged: bool
    final_action: float
    diagnostics: DiagnosticsReport
    detail: dict = dc_field(default_factory=dict)


def fd_velocities(W: np.ndarray, dt: float) -> np.ndarray:
    """4th-order finite-difference velocities on a uniform grid of N+1 >= 5
    nodes (np.gradient's on 2 to 4), for one path (N+1, n) or a stack of
    them (..., N+1, n)."""
    W = np.asarray(W, float)
    if W.shape[-2] < 5:
        return np.gradient(W, dt, axis=-2)
    W = np.moveaxis(W, -2, 0)
    v = np.empty_like(W)
    v[2:-2] = (W[:-4] - 8.0 * W[1:-3] + 8.0 * W[3:-1] - W[4:]) / (12.0 * dt)
    v[0] = (-25.0 * W[0] + 48.0 * W[1] - 36.0 * W[2] + 16.0 * W[3] - 3.0 * W[4]) / (12.0 * dt)
    v[1] = (-3.0 * W[0] - 10.0 * W[1] + 18.0 * W[2] - 6.0 * W[3] + W[4]) / (12.0 * dt)
    v[-2] = (3.0 * W[-1] + 10.0 * W[-2] - 18.0 * W[-3] + 6.0 * W[-4] - W[-5]) / (12.0 * dt)
    v[-1] = (25.0 * W[-1] - 48.0 * W[-2] + 36.0 * W[-3] - 16.0 * W[-4] + 3.0 * W[-5]) / (12.0 * dt)
    return np.moveaxis(v, 0, -2)


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
    W = np.asarray(path_nodes, float)
    if W.ndim != 2 or len(W) < 3:
        raise ValueError("path must be an (N+1, n) array with N >= 2")
    Vv = _potential_values(V, W)
    Vg = np.asarray(V.gradient(W), float) if want_grad else None
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


def _check_start(X0, V0, G0=None) -> None:
    """Raise ValueError unless, at every start x0, the rows of X0 (..., n),
    V(x0) >= _V_FLOOR, given their values V0 (...), and grad V(x0) is finite
    where V(x0) > 0, given their gradients G0 (..., n): the orbit lives where
    V >= 0, so a negative start is no rounding of a valid one, and at
    V(x0) = 0, a minimum of V, it is the constant path however grad V rounds."""
    V0 = np.reshape(V0, -1)
    X0 = np.reshape(X0, (len(V0), -1))
    bad = np.flatnonzero(V0 < _V_FLOOR)
    if bad.size:
        raise ValueError(f"V(x0) = {V0[bad[0]]:g} is negative at x0 = {X0[bad[0]].tolist()}")
    if G0 is not None:
        G0 = np.reshape(G0, X0.shape)
        bad = np.flatnonzero(~np.isfinite(G0).all(axis=1) & (V0 > 0.0))
        if bad.size:
            raise ValueError(f"grad V(x0) = {G0[bad[0]].tolist()} is not finite at "
                             f"x0 = {X0[bad[0]].tolist()}")


def _node_hessians(V: DifferentiableField, W: np.ndarray) -> np.ndarray:
    """Hess V at nodes 1..N of each path of a (B, N+1, n) stack, as
    (B, N, n, n), from n calls of V.hessvec over every node of the stack,
    each with one unit vector, which hessvec broadcasts against the nodes."""
    B, N, n = W.shape[0], W.shape[1] - 1, W.shape[2]
    X = W[:, 1:].reshape(-1, n)
    H = np.empty((len(X), n, n))
    for j, e in enumerate(np.eye(n)):
        H[:, :, j] = V.hessvec(X, e)
    return H.reshape(B, N, n, n)


def _action_hessian_bands(H: np.ndarray, dt: float, mu: float) -> np.ndarray:
    """The discrete action's Hessian on nodes 1..N of each path of a stack
    whose node Hessian blocks are H (B, N, n, n), in the upper banded form
    of cholesky_banded, node-major (unknown (k-1) n + i is component i of
    node k), shape (B, n+1, N n).  It is block-tridiagonal: diagonal blocks
    (2/dt) I + dt H_k, the last one (1/dt) I + (dt/2 + mu) H_N, off-diagonal
    blocks -I/dt, so its upper bandwidth is n."""
    B, N, n = H.shape[:3]
    scale = np.full(N, dt)
    scale[-1] = 0.5 * dt + mu
    diag = np.full(N, 2.0 / dt)
    diag[-1] = 1.0 / dt
    blocks = scale[:, None, None] * H
    blocks[..., range(n), range(n)] += diag[:, None]
    band = np.zeros((B, n + 1, N, n))
    for d in range(n):
        # row n - d holds offset d: entry (i, i + d) of each block
        band[:, n - d, :, d:] = np.diagonal(blocks, offset=d, axis1=2, axis2=3)
    band[:, 0, 1:] = -1.0 / dt
    return band.reshape(B, n + 1, N * n)


def _newton_factor(band: np.ndarray) -> Optional[np.ndarray]:
    """cholesky_banded of one member's band, or None where it is not finite
    or not positive definite (V not convex along the path)."""
    from scipy.linalg import LinAlgError, cholesky_banded
    if not np.isfinite(band).all():
        return None
    try:
        return cholesky_banded(band, check_finite=False)
    except LinAlgError:
        return None


def _descend(V: DifferentiableField, W: np.ndarray, dt: float, mu: float,
             max_iters: int = DEFAULT_MAX_ITERS):
    """Damped Newton descent on the discrete action of each path of a
    (B, N+1, n) stack; node 0 of every path is fixed, and V(x0) < -1e-12, or
    V(x0) > 0 with a grad V(x0) that is not finite, at any node 0 raises
    ValueError before any step.

    Each iteration, member b steps along -P_b(W)^{-1} g, where P_b(W) is the
    action's own Hessian at its current path (_action_hessian_bands),
    factored by a banded Cholesky; the step is exact for every quadratic V,
    so an SPD quadratic solves in one iteration.  Where that factor fails
    (V not convex along the path, or a non-finite block), the member takes
    for that iteration the node blocks c_b I instead, the action's Hessian
    for V = c_b ||x||^2 / 2, c_b = ||grad V(x0)||^2 / (2 V(x0)) or 1 where
    V(x0) = 0.  The trial step is 1, halved at most _HALVINGS times until the
    Armijo test on the term-wise decrease against t g.P_b^{-1} g holds, so
    the action is nonincreasing; a trial where V is not finite, or below
    _V_FLOOR at any node, is rejected like one that fails the test.  A
    member stops when its gradient inf-norm falls below _TOL_OPT, after
    max_iters iterations, or when its line
    search finds no step, and then leaves the working set; only the members
    still going are factored, and only rejected members are tried again
    inside a line search.  Members with equal node-Hessian stacks share one
    band and one factor, and members with equal isotropic bands theirs; each
    factor solves its members together, one column each, so every member
    gets the direction, and the result, it gets alone.
    Returns the final (W, Vv, iterations, grad_inf) per member.
    """
    # scipy.linalg (about 0.2 s of a fresh process) loads on the first solve,
    # so the commands that never solve an action do not pay for it
    from scipy.linalg import cho_solve_banded, cholesky_banded
    W = np.array(W, float)
    Vv = _potential_values(V, W.reshape(-1, W.shape[-1])).reshape(W.shape[:-1])
    Vg = _gradients(V, W)
    _check_start(W[:, 0], Vv[:, 0], Vg[:, 0])
    out_W, out_Vv = np.empty_like(W), np.empty_like(Vv)
    iters = np.zeros(len(W), int)
    ginf = np.zeros(len(W))
    N, n = W.shape[1] - 1, W.shape[2]

    def newton_directions(W, Vv, Vg, g):
        # members whose node-Hessian stacks are equal byte for byte share one
        # band, built from the first of them, one factor and one solve, a
        # column each: the band is elementwise in H, and pbtrs solves column
        # by column, so every direction is bit for bit the one its member gets alone
        H = _node_hessians(V, W)
        keys, first = [("newton", h.tobytes()) for h in H], {}
        for b, key in enumerate(keys):
            first.setdefault(key, b)
        factors = {key: _newton_factor(band) for key, band in
                   zip(first, _action_hessian_bands(H[list(first.values())], dt, mu))}
        members = {}
        for b, key in enumerate(keys):
            if factors[key] is None:
                v0, g0 = Vv[b, 0], Vg[b, 0]
                c = float(np.dot(g0, g0)) / (2.0 * v0) if v0 > 0.0 else 1.0
                iso = np.broadcast_to(np.diag(np.full(n, c)), (1, N, n, n))
                band = _action_hessian_bands(iso, dt, mu)[0]
                key = ("isotropic", band.tobytes())
                if key not in factors:
                    factors[key] = cholesky_banded(band)
            members.setdefault(key, []).append(b)
        p = np.empty_like(g)
        for key, bs in members.items():
            p[bs] = cho_solve_banded((factors[key], False), g[bs].reshape(len(bs), -1).T,
                                     check_finite=False).T.reshape(len(bs), N, n)
        return p

    # the working set: original index and state of every member still going
    ids = np.arange(len(W))
    g = kernels.action_gradient(W, Vg, dt, mu)
    gi = np.maximum.reduce(np.abs(g), axis=(1, 2))
    stop = gi < _TOL_OPT
    k = 0
    while True:
        if k >= max_iters:
            stop[:] = True
        if stop.any():
            done = ids[stop]
            out_W[done], out_Vv[done] = W[stop], Vv[stop]
            iters[done], ginf[done] = k, gi[stop]
            if stop.all():
                break
            go = ~stop
            ids, W, Vv, Vg, g = (a[go] for a in (ids, W, Vv, Vg, g))
        k += 1
        p = newton_directions(W, Vv, Vg, g)
        gp = np.add.reduce(g * p, axis=(1, 2))
        # the trial step 1 is halving 0; a member whose line search finds
        # no step keeps its path and stops
        t = np.full(len(W), 1.0 / _SHRINK)
        W_t, Vv_t = W.copy(), Vv.copy()
        ok = np.zeros(len(W), bool)
        retry = np.arange(len(W))
        for _ in range(_HALVINGS + 1):
            if not retry.size:
                break
            t[retry] *= _SHRINK
            W_r = W[retry]
            W_r[:, 1:] -= t[retry, None, None] * p[retry]
            Vv_r = _trial_values(V, W_r)
            # the decrease is summed from per-term differences, so the test
            # still resolves it near the double-precision floor; a trial with
            # a non-finite or negative V fails it whatever its decrease reads
            with np.errstate(invalid="ignore"):
                hit = (kernels._decrease(W[retry], Vv[retry], W_r, Vv_r, dt, mu)
                       >= _ARMIJO_C * t[retry] * gp[retry])
            hit &= (np.isfinite(Vv_r) & (Vv_r >= _V_FLOOR)).all(axis=1)
            acc = retry[hit]
            W_t[acc], Vv_t[acc], ok[acc] = W_r[hit], Vv_r[hit], True
            retry = retry[~hit]
        W, Vv = W_t, Vv_t
        Vg = _gradients(V, W)
        g = kernels.action_gradient(W, Vg, dt, mu)
        gi = np.maximum.reduce(np.abs(g), axis=(1, 2))
        stop = (gi < _TOL_OPT) | ~ok
    return out_W, out_Vv, iters, ginf


def _check_horizon(T: float, N: Optional[int] = None) -> None:
    """Raise ValueError unless T is a positive finite horizon and N, if
    given, is an integer >= 2."""
    if not 0.0 < T < np.inf:
        raise ValueError(f"T must be a positive finite number, got {T!r}")
    if N is not None and not (isinstance(N, (int, np.integer)) and N >= 2):
        raise ValueError(f"N must be an integer >= 2, got {N!r}")


def _minimize_actions(V: DifferentiableField, X0: np.ndarray, T: float, N: int,
                      max_iters: int = DEFAULT_MAX_ITERS) -> tuple:
    """The action solves from the rows of X0 (B, n) as one stack, each from
    the constant path at its x0, with the terminal penalty weight
    mu = _MU_PER_DT * T/N.  T and N out of range raise ValueError before
    anything is solved, and a start refused by _check_start before any step.
    Returns the stack as arrays: the nodes W (B, N+1, n) at times dt * k, V
    on them Vv (B, N+1), their finite-difference velocities (B, N+1, n), the
    actions (B,), the verdict terms (see _verdict) and detail, a dict of (B,) arrays."""
    _check_horizon(T, N)
    dt = T / N
    mu = _MU_PER_DT * dt
    W = np.repeat(np.asarray(X0, float)[:, None, :], N + 1, axis=1)
    W, Vv, iters, ginf = _descend(V, W, dt, mu, max_iters)
    values, _ = kernels.action_assemble(W, Vv, None, dt, mu, want_grad=False)
    vel = fd_velocities(W, dt)
    m_tail = max(2, (N + 1) // 10)
    tail_vprime = np.min(np.linalg.norm(vel[:, -m_tail:], axis=-1), axis=-1)
    tail_V = np.min(Vv[:, -m_tail:], axis=-1)
    # a path whose grid cannot resolve the orbit still solves its own
    # discrete problem, but breaks the first integral I = 0.5 ||v'||^2 - V
    I = 0.5 * np.sum(vel ** 2, axis=-1) - Vv
    fi_drift = np.max(np.abs(I - I[:, :1]), axis=-1)
    terms = {"grad_inf": ginf < _TOL_OPT, "tail_vprime": tail_vprime < DEFAULT_EPS_TAIL,
             "tail_V": tail_V < DEFAULT_EPS_TAIL,
             "first_integral_drift": fi_drift <= _first_integral_tol(vel[:, 0], dt)}
    detail = {"iterations": iters, "grad_inf": ginf, "tail_vprime": tail_vprime,
              "tail_V": tail_V, "first_integral_drift": fi_drift}
    return W, Vv, vel, values, terms, detail


def _verdict(terms: dict) -> tuple:
    """converged (B,) of terms, name -> (B,) passed, and each member's failed names in order."""
    passed = np.array(list(terms.values()), bool)
    return passed.all(axis=0), [[t for t, ok in zip(terms, p) if not ok] if False in p else []
                                for p in passed.T.tolist()]


def _first_integral_tol(v0: np.ndarray, dt: float) -> np.ndarray:
    """The first-integral tolerance of action paths with initial velocities
    v0 (B, n): an O(dt^2) share of the kinetic scale ||v'(0)||^2, the
    discretization error of a path that resolves its orbit.  It has no
    absolute floor, so an orbit of little energy is held to the same
    relative drift as any other."""
    # root then square: rounded as np.linalg.norm(v) ** 2, not as v.v
    return max(1e-6, dt ** 2) * np.sqrt(kernels.row_dots(v0)) ** 2


def minimize_action(V, x0, T: float = DEFAULT_T, N: int = DEFAULT_N,
                    max_iters: int = DEFAULT_MAX_ITERS,
                    psi: Optional[DifferentiableField] = None) -> EvanescentSolveResult:
    """Damped Newton descent on the discrete action from the constant path
    W = x0 (see _descend), for at most max_iters iterations: each iteration
    solves with the action's own Hessian at the current path, so a quadratic
    V is solved in one iteration, and where V is not convex along the path
    it solves with the Hessian for the isotropic quadratic c ||x||^2 / 2
    instead.  Every accepted step satisfies the Armijo condition, so the
    action is nonincreasing across iterations.  At an equilibrium the
    constant path has zero gradient and stops at once.  T and N out of
    range raise ValueError before V is evaluated, and V(x0) < -1e-12, or
    V(x0) > 0 with a grad V(x0) that is not finite, before any step.
    """
    x0 = np.asarray(x0, float).reshape(V.dim)
    W, _, vel, actions, terms, detail = _minimize_actions(V, x0[None], T, N, max_iters)
    (converged,), (failed,) = _verdict(terms)
    dt = T / N
    traj = Trajectory(dt * np.arange(N + 1), W[0], vel[0], TERM_HORIZON,
                      {"method": "action", "dt": dt, "mu": _MU_PER_DT * dt})
    report = _solve_diagnostics(traj, V, psi, float(_first_integral_tol(vel[:, 0], dt)[0]))
    return EvanescentSolveResult(traj, "action", bool(converged), float(actions[0]), report,
                                 {k: v[0].item() for k, v in detail.items()} | {"failed_terms": failed})


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
# when a step halved _HALVINGS times still does not lower the residual; a
# horizon before the last also ends on a step that cuts ||w(T_k)|| by less
# than a factor _STALL
_FIRST_HORIZON = 1.5
_NEWTON_ITERS = 8
_STEP_TOL = 1e-13
_STALL = 0.7


def shoot_evanescent(V, x0, T: float = DEFAULT_T,
                     psi: Optional[DifferentiableField] = None) -> EvanescentSolveResult:
    """Find the v0 on the sphere ||v0|| = sqrt(2 V(x0)) whose orbit is
    evanescent, by _gauss_newton from the downhill point of the sphere: on
    the sphere ||w(T)||^2 = 2 V(v(T)), so w(T) is the whole terminal
    penalty.  The action is the endpoint-corrected trapezoid of
    g = 0.5 ||w||^2 + V(v) over the returned orbit's nodes, with
    g' = 2 w.grad V(v) from one gradient call.  A T that is not a positive
    finite number raises ValueError before V is evaluated, and
    V(x0) < -1e-12 before any orbit; a start where sqrt(2 V(x0)) or
    ||grad V(x0)|| is not finite raises NumericDomainError before any orbit.
    detail counts the orbits integrated (evaluations) and their RK steps."""
    _check_horizon(T)
    n = V.dim
    x0 = np.asarray(x0, float).reshape(n)
    v00 = float(V.value(x0))
    _check_start(x0, v00)
    r = float(np.sqrt(max(2.0 * v00, 0.0)))

    # downhill seed
    gV = np.asarray(V.gradient(x0), float)
    with np.errstate(over="ignore"):    # an overflowing norm is refused below
        gn = float(np.linalg.norm(gV))
    if not (np.isfinite(r) and np.isfinite(gn)):
        raise NumericDomainError(
            f"shooting needs a finite sqrt(2 V(x0)) and ||grad V(x0)||, got "
            f"{r:g} and {gn:g} at x0 = {x0.tolist()}")
    seed = -r * gV / gn if gn > 0 else r * np.eye(n)[0]
    counts = {"evaluations": 0, "steps_accepted": 0, "steps_rejected": 0}
    v0, traj, p = _gauss_newton(V, x0, seed, T, counts)
    act = path_integral(
        traj, 0.5 * kernels.row_dots(traj.velocities)
        + np.asarray(V.value(traj.states), float),
        2.0 * np.sum(traj.velocities * np.asarray(V.gradient(traj.states), float), axis=1),
    ) if len(traj) >= 2 else np.inf
    # _penalty scores an orbit that stops early at 1e12 or more
    (converged,), (failed,) = _verdict({"penalty": np.array([p < 2.0 * DEFAULT_EPS_TAIL ** 2])})
    return EvanescentSolveResult(
        traj, "shooting", bool(converged), float(act), _solve_diagnostics(traj, V, psi),
        {"v0": np.asarray(v0).tolist(), "penalty": float(p), **counts, "failed_terms": failed})


def _penalty(V, traj, T):
    """||w(T)||^2 + 2 V(v(T)) of an orbit over [0, T]; an orbit that stops
    early scores by how early."""
    if traj.termination != TERM_HORIZON:
        return 1e12 * (1.0 + T - traj.t_end)
    wT = traj.velocities[-1]
    return float(np.dot(wT, wT) + 2.0 * float(V.value(traj.states[-1])))


def _residual(w, QB, last):
    """The size of a terminal velocity w = w(T_k) for the Newton tests:
    ||w|| on a horizon before the last, and on the last one the norm of the
    Newton correction (Q B)^+ w it implies, with the current Jacobian Q B
    on the tangent space (Deuflhard's natural monotonicity test).  Where
    lambda_max T is large, ||w(T)|| is mostly step error grown by
    e^{lambda_max T}; that lies along the large sensitivities, so it moves
    v0 little and does not decide which v0 is better."""
    return float(np.linalg.norm(np.linalg.lstsq(QB, w, rcond=None)[0] if last else w))


def _gauss_newton(V, x0, seed, T, counts):
    """Search the sphere ||v0|| = r = ||seed|| for the evanescent v0 from
    its point seed; returns (v0, trajectory, penalty), the penalty by
    _penalty.

    Where the sphere has a tangent space (n >= 2, r > 0): sphere-constrained
    Gauss-Newton on w(T_k) from seed over the doubling horizons T_k up to T.
    A step whose orbit fails is halved until one does not; a step whose
    orbit does not lower the residual (_residual) is halved too, at most
    _HALVINGS times, and then the horizon ends.  Where an orbit of v0
    reached T, the trajectory is the last Newton orbit moved by the last
    step delta along its own sensitivities, (v + P delta, w + Q delta);
    delta is the tangent step before projection onto the sphere, 0 unless
    the last step fell below _STEP_TOL * r.  The first orbit of each horizon
    extends the last orbit of the one before, so a step that small on a
    horizon before the last is not taken and that orbit still starts at v0.

    Where the sphere has none, it is the two points +-seed in 1-D and the
    one point 0 at r = 0; where no Newton orbit reached T, v0 is taken
    alone.  Each of these points' plain orbit, without sensitivities, is
    integrated to T, and the one of least penalty is kept, the first on a
    tie; an orbit that leaves the domain of V scores as one stopped at t = 0,
    and NumericDomainError is raised if every one does.

    Adds every integration and its RK steps to counts."""
    n = len(x0)
    r = float(np.linalg.norm(seed))
    meta = {"method": "dop853", "rtol": _SHOOT_RTOL}     # of the shot trajectory

    def orbit(v0, Tk, prev=None, sensitivities=True):
        """The orbit of v0 up to Tk, or None if it leaves the domain of V."""
        counts["evaluations"] += 1
        raw = _variational_orbit(V, x0, v0, Tk, prev, sensitivities)
        if raw is not None:
            counts["steps_accepted"] += raw.meta["n_steps"]
            counts["steps_rejected"] += raw.meta["n_rejected"]
        return raw

    v0, cur = seed, None
    if n > 1 and r > 0.0:
        k = max(0, int(np.ceil(np.log2(T / _FIRST_HORIZON))))
        delta = np.zeros(n)
        for i, Tk in enumerate(T / 2.0 ** np.arange(k, -1, -1)):
            last = i == k
            cur = orbit(v0, Tk, cur)
            if cur is None or cur.termination != TERM_HORIZON:
                cur = None
                break
            for _ in range(_NEWTON_ITERS):
                y = cur.ys[-1]
                w = y[n:2 * n]
                # Q is stored transposed; it is taken contiguous because products
                # with a transposed view of it round differently
                Q = np.ascontiguousarray(y[2 * n + n * n:].reshape(n, n).T)
                B = np.linalg.svd(v0[None, :])[2][1:].T     # tangent basis at v0
                QB = Q @ B
                step = B @ np.linalg.lstsq(QB, -w, rcond=None)[0]
                w_old = _residual(w, QB, last)
                halvings = 0
                while True:
                    cand = v0 + step
                    cand *= r / float(np.linalg.norm(cand))
                    if float(np.linalg.norm(step)) < _STEP_TOL * r:
                        new = None          # converged
                        break
                    new = orbit(cand, Tk)
                    if new is not None and new.termination == TERM_HORIZON:
                        w_new = _residual(new.ys[-1, n:2 * n], QB, last)
                        if w_new < w_old or halvings == _HALVINGS:
                            break
                        halvings += 1
                    step = 0.5 * step       # a failing orbit, or a higher residual, halves it
                if new is None:
                    if last:                # take the step unchecked
                        v0, delta = cand, step
                    break
                if not w_new < w_old:
                    break
                v0, cur = cand, new
                if not last and w_new > _STALL * w_old:
                    break
        if cur is not None:
            # P and Q are stored transposed, so delta @ P^T is P delta at each node
            PT = cur.ys[:, 2 * n:2 * n + n * n].reshape(-1, n, n)
            QT = cur.ys[:, 2 * n + n * n:].reshape(-1, n, n)
            traj = Trajectory(cur.times, cur.ys[:, :n] + delta @ PT,
                              cur.ys[:, n:2 * n] + delta @ QT, TERM_HORIZON, meta)
            return v0, traj, _penalty(V, traj, T)
        points = [v0]
    else:
        points = [seed, -seed] if r > 0.0 else [np.zeros(n)]

    scored = []
    for v in points:
        raw = orbit(v, T, sensitivities=False)
        traj = None if raw is None else Trajectory(
            raw.times, raw.ys[:, :n], raw.ys[:, n:], raw.termination, meta)
        scored.append((1e12 * (1.0 + T) if traj is None else _penalty(V, traj, T), traj, v))
    p, traj, v0 = min(scored, key=lambda s: s[0])
    if traj is None:
        raise NumericDomainError("every shooting orbit left the domain of V")
    return v0, traj, p


# ---------------------------------------------------------------------------
# cross validation of the three routes
# ---------------------------------------------------------------------------

def cross_validate(pp: PotentialPair, x0, T: float = DEFAULT_T,
                   N: int = DEFAULT_N, seed: int = 0,
                   max_iters: int = DEFAULT_MAX_ITERS,
                   action: Optional[EvanescentSolveResult] = None,
                   shot: Optional[EvanescentSolveResult] = None) -> DiagnosticsReport:
    """Run gradient flow (DP45 at _CHECK_RTOL), action minimization and
    shooting from the same x0 and assert the three orbits agree on the
    shared uniform grid with spacing T/N, then report the phi residual each
    route's solve checked along its orbit.  A route already solved from x0 at (T, N) with this
    max_iters and psi is passed in as ``action`` or ``shot`` and not solved
    again.  T and N out of range, and a route passed in that was solved
    without psi, raise ValueError before anything is evaluated."""
    _check_horizon(T, N)
    for res in (action, shot):
        if res is not None and res.diagnostics.get("phi_residual_sigma+1") is None:
            raise ValueError(f"the {res.method} result passed in was solved without psi")
    psi, V = pp.psi, pp.v
    x0 = np.asarray(x0, float).reshape(psi.dim)
    report = DiagnosticsReport(subject=f"cross-validate {psi.name} from {x0.tolist()}")

    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(40, psi.dim)) + x0
    pairs = np.stack([base[:20], base[20:]], axis=1)
    report.add(check_monotone_gradient(psi, pairs))

    grid = T / N * np.arange(N + 1)
    flow = gradient_flow(pp, x0, T, IntegratorOptions(rtol=_CHECK_RTOL))
    act = action or minimize_action(V, x0, T, N, max_iters, psi=psi)
    shot = shot or shoot_evanescent(V, x0, T, psi=psi)
    flow_states = _on_grid(V, flow, grid)
    act_states = act.trajectory.states
    shot_states = _on_grid(V, shot.trajectory, grid)

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
        report.add(replace(res.diagnostics.get("phi_residual_sigma+1"), check_id=cid))
    return report


def _on_grid(V, traj: Trajectory, times: np.ndarray) -> np.ndarray:
    """The states of traj at the given times by the quintic Hermite
    interpolant of its node states, velocities and accelerations grad V(x):
    a node's own state at its time, and the last state past the end of the
    orbit.  The accelerations are those of a shooting orbit, v'' = grad V(v),
    and of a gradient flow, u'' = Hess psi grad psi = grad V(u)."""
    t, x, w = traj.times, traj.states, traj.velocities
    if len(t) < 2:
        return np.repeat(x[-1:], len(times), axis=0)
    a = np.asarray(V.gradient(x), float)
    s = np.minimum(times, t[-1])
    i = np.clip(np.searchsorted(t, s, side="right") - 1, 0, len(t) - 2)
    h = (t[i + 1] - t[i])[:, None]
    u = (s - t[i])[:, None] / h
    # the basis in factored form: exactly 1 and 0 at u = 0 and u = 1
    v = 1.0 - u
    v3, u3 = v ** 3, u ** 3
    return (v3 * (1.0 + u * (3.0 + 6.0 * u)) * x[i] + v3 * u * (1.0 + 3.0 * u) * h * w[i]
            + 0.5 * v3 * u * u * h * h * a[i]
            + u3 * (10.0 - u * (15.0 - 6.0 * u)) * x[i + 1]
            - u3 * v * (4.0 - 3.0 * u) * h * w[i + 1] + 0.5 * u3 * v * v * h * h * a[i + 1])
