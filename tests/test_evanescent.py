"""Action minimization and shooting against closed-form evanescent orbits."""
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import evanflow.evanescent as evanescent
from evanflow import kernels
import evanflow.integrate as integrate
from evanflow.evanescent import (
    ActionOptions,
    cross_validate,
    discrete_action,
    fd_velocities,
    minimize_action,
    shoot_evanescent,
    _descend,
    _minimize_actions,
    _on_grid,
)
from evanflow.diagnostics import DEFAULT_EPS_TAIL
from evanflow.fields import (
    DifferentiableField,
    NumericDomainError,
    PotentialPair,
    induced_potential,
    make_counterexample,
    make_example_one,
    make_quadratic,
)
from evanflow.integrate import (
    IntegratorOptions,
    _variational_orbit,
    gradient_flow,
    second_order_flow,
)

QUAD_1D = make_quadratic([[1.0]])
QUAD_2D = make_quadratic([[1.0, 0.0], [0.0, 2.0]])

T, N = 12.0, 240
DT = T / N


def exact_nodes_1d():
    return np.exp(-DT * np.arange(N + 1))[:, None]


def _counted(field, calls):
    return dataclasses.replace(
        field, value=lambda x: calls.append(1) or field.value(x),
        gradient=lambda x: calls.append(1) or field.gradient(x),
        hessvec=lambda x, p: calls.append(1) or field.hessvec(x, p))


# --- discrete action ------------------------------------------------------

def test_discrete_action_matches_continuum_on_exact_orbit():
    # for v = e^{-t}: integral of 0.5 v'^2 + V(v) = integral e^{-2t} = 1/2
    val, grad = discrete_action(QUAD_1D.v, exact_nodes_1d(), DT, mu=0.0)
    assert val == pytest.approx(0.5, abs=2e-3)
    assert grad.shape == (N, 1)


def test_discrete_action_terminal_penalty_term():
    W = exact_nodes_1d()
    v0, _ = discrete_action(QUAD_1D.v, W, DT, mu=0.0, want_grad=False)
    v5, _ = discrete_action(QUAD_1D.v, W, DT, mu=5.0, want_grad=False)
    assert v5 - v0 == pytest.approx(5.0 * 0.5 * W[-1, 0] ** 2, rel=1e-12)


def test_discrete_action_rejects_short_paths():
    with pytest.raises(ValueError):
        discrete_action(QUAD_1D.v, np.ones((2, 1)), 0.1, 0.0)


@pytest.mark.parametrize("trial", range(10))
def test_action_gradient_matches_finite_differences(trial):
    rng = np.random.default_rng(trial)
    m, n = 14, 2
    W = rng.normal(size=(m, n))
    dt, mu = 0.1, 0.5
    _, g = discrete_action(QUAD_2D.v, W, dt, mu)
    eps = 1e-6
    for k, j in ((1, 0), (5, 1), (m - 1, 0), (m - 1, 1)):
        Wp, Wm = W.copy(), W.copy()
        Wp[k, j] += eps
        Wm[k, j] -= eps
        vp, _ = discrete_action(QUAD_2D.v, Wp, dt, mu, want_grad=False)
        vm, _ = discrete_action(QUAD_2D.v, Wm, dt, mu, want_grad=False)
        g_fd = (vp - vm) / (2.0 * eps)
        assert g[k - 1, j] == pytest.approx(g_fd, rel=1e-5, abs=1e-8)


# --- action minimization --------------------------------------------------

def test_minimize_action_quadratic_1d():
    res = minimize_action(QUAD_1D.v, [1.0], T, N, psi=QUAD_1D.psi)
    assert res.converged
    assert res.method == "action"
    err = np.max(np.abs(res.trajectory.states - exact_nodes_1d()))
    assert err < 1e-3
    assert res.diagnostics.all_passed


def test_minimize_action_quadratic_2d():
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N, psi=QUAD_2D.psi)
    assert res.converged
    ts = res.trajectory.times
    exact = np.stack([np.exp(-ts), np.exp(-2.0 * ts)], axis=1)
    assert np.max(np.abs(res.trajectory.states - exact)) < 2e-3
    phi = res.diagnostics.get("phi_residual_sigma+1")
    assert phi is not None and phi.passed


def test_action_route_returns_its_nodes_as_a_trajectory():
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N)
    traj = res.trajectory
    assert isinstance(traj, integrate.Trajectory)
    assert np.array_equal(traj.times, DT * np.arange(N + 1))
    assert np.array_equal(traj.velocities, fd_velocities(traj.states, DT))
    assert traj.termination == integrate.TERM_HORIZON
    assert traj.meta == {"method": "action", "dt": DT, "mu": 10 * DT}
    # the Euler-Lagrange residual of the converged verdict is reported
    Vg = QUAD_2D.v.gradient(traj.states)
    assert res.detail["el_residual"] == kernels.el_residual_max(traj.states, Vg, DT)


def test_minimize_action_value_monotone_in_iteration_budget():
    vals = []
    for budget in (3, 10, 40, 200, 2000):
        res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N,
                              ActionOptions(max_iters=budget))
        vals.append(res.final_action)
    assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


def test_minimize_action_equilibrium_start():
    res = minimize_action(QUAD_2D.v, [0.0, 0.0], T, N)
    assert res.converged
    assert res.final_action == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.trajectory.states, 0.0)
    # the constant path has zero action gradient, so the descent stops at once
    assert res.detail["iterations"] == 0


def test_action_iterations_do_not_grow_with_N():
    # the preconditioner removes the kinetic term's O(N^2) condition number;
    # without it Barzilai-Borwein descent takes 144, 697 and 3,263 iterations
    for n_steps in (60, 240, 960):
        res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, n_steps)
        assert res.converged
        assert res.detail["iterations"] <= 40, (n_steps, res.detail)


@pytest.mark.parametrize("T_, N_, mu", [
    (0.0, N, None), (-1.0, N, None), (np.nan, N, None), (np.inf, N, None),
    (T, 1, None), (T, 0, None), (T, N, -1.0), (T, N, np.nan), (T, N, np.inf),
], ids=["T0", "Tneg", "Tnan", "Tinf", "N1", "N0", "mu_neg", "mu_nan", "mu_inf"])
def test_action_solves_reject_out_of_range_inputs(T_, N_, mu):
    # a negative mu leaves the action unbounded below; each is refused
    # before the field is evaluated
    calls = []
    counted = _counted(QUAD_2D.v, calls)
    opts = ActionOptions(mu=mu)
    with pytest.raises(ValueError, match="must be"):
        _minimize_actions(counted, np.array([[1.0, 1.0]]), T_, N_, opts)
    assert calls == []
    with pytest.raises(ValueError, match="must be"):
        minimize_action(QUAD_2D.v, [1.0, 1.0], T_, N_, opts)


def test_minimize_action_unique_minimizer_across_inits():
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, 1.0])
    base = minimize_action(QUAD_2D.v, x0, T, N)
    assert base.converged
    for _ in range(5):
        init = base.trajectory.states + 0.5 * rng.normal(size=(N + 1, 2))
        init[0] = x0
        res = minimize_action(QUAD_2D.v, x0, T, N, init_path=init)
        assert res.converged
        assert np.max(np.abs(res.trajectory.states - base.trajectory.states)) < 5e-3


def test_minimized_action_beats_random_paths():
    x0 = np.array([1.0, 1.0])
    best = minimize_action(QUAD_2D.v, x0, T, N)
    rng = np.random.default_rng(11)
    for _ in range(20):
        W = best.trajectory.states + rng.normal(scale=0.3, size=(N + 1, 2))
        W[0] = x0
        val, _ = discrete_action(QUAD_2D.v, W, DT, 10 * DT, want_grad=False)
        assert val > best.final_action


def test_minimize_action_honest_failure_on_tiny_budget():
    # on quadratic:1 the preconditioner is the exact Hessian and one step
    # converges, so the budget is cut on a quadratic with two rates
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N, ActionOptions(max_iters=1))
    assert not res.converged
    assert res.detail["iterations"] == 1


def test_minimize_action_first_integral_tolerance_accounts_for_dt():
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N)
    fi = res.diagnostics.get("first_integral")
    assert fi is not None and fi.passed, fi.notes


def test_fd_velocities_fourth_order():
    ts = 0.05 * np.arange(241)
    W = np.exp(-ts)[:, None]
    v = fd_velocities(W, 0.05)
    assert np.max(np.abs(v + W)) < 1e-5


@st.composite
def spd_problems(draw, dims=(1, 3), eig_range=(0.5, 2.0)):
    n = draw(st.integers(*dims))
    eigs = draw(st.lists(st.floats(*eig_range), min_size=n, max_size=n))
    rotation_seed = draw(st.integers(0, 2**32 - 1))
    x0 = np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n, max_size=n)))
    Q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).normal(size=(n, n)))
    A = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (A + A.T), x0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spd_problems(dims=(1, 4), eig_range=(0.5, 3.0)))
def test_minimize_action_spd_quadratic_property(problem):
    # the evanescent orbit of V = 0.5||Ax||^2 is the gradient flow of
    # psi = 0.5 x'Ax, so its action is psi(x0) - inf psi = 0.5 x0'Ax0; the
    # preconditioned descent needs no more than 100 iterations for it
    A, x0 = problem
    exact = 0.5 * float(x0 @ A @ x0)
    assume(exact >= 1e-3)
    opts = ActionOptions()
    res = minimize_action(make_quadratic(A).v, x0, T, N, opts)
    assert res.detail["iterations"] <= 100
    assert res.detail["grad_inf"] < opts.tol_opt
    assert res.final_action == pytest.approx(exact, rel=5e-3)


@st.composite
def spd_stacks(draw):
    """One random SPD quadratic, 1-3 start points of it (one may be the
    equilibrium 0) and an iteration budget that some members may exhaust."""
    A, x0 = draw(spd_problems())
    n = len(x0)
    starts = [x0] + [np.array(draw(st.lists(st.floats(-1.5, 1.5), min_size=n,
                                            max_size=n)))
                     for _ in range(draw(st.integers(0, 2)))]
    if draw(st.booleans()):
        starts.append(np.zeros(n))
    return A, np.array(starts), draw(st.integers(1, 400))


@settings(max_examples=15, deadline=None, derandomize=True)
@given(spd_stacks())
def test_descend_stack_matches_single_paths(problem):
    # every member of a stack takes exactly the steps it takes alone
    A, X0, max_iters = problem
    V = make_quadratic(A).v
    n_small = 40
    dt = T / n_small
    lam = np.linspace(0.0, 1.0, n_small + 1)[:, None]
    W = (1.0 - lam) * X0[:, None, :]        # straight paths to the minimizer
    opts = ActionOptions(max_iters=max_iters)
    W_s, Vv_s, Vg_s, iters_s, ginf_s = _descend(V, W, dt, 10.0 * dt, opts)
    for b in range(len(X0)):
        W_1, Vv_1, Vg_1, iters_1, ginf_1 = _descend(V, W[b:b + 1], dt, 10.0 * dt, opts)
        assert np.array_equal(W_s[b], W_1[0])
        assert np.array_equal(Vg_s[b], Vg_1[0])
        assert iters_s[b] == iters_1[0] and ginf_s[b] == ginf_1[0]
        assert iters_1[0] <= max_iters


def _walled(V, wall):
    """V made +inf where x[0] < 0.3, or raising ValueError there."""
    def value(x):
        x = np.asarray(x, float)
        if wall == "raise" and np.any(x[..., 0] < 0.3):
            raise ValueError("outside the domain of V")
        return np.where(x[..., 0] < 0.3, np.inf, V.value(x))
    return dataclasses.replace(V, value=value)


@pytest.mark.parametrize("wall", ["inf", "raise"])
def test_descend_rejects_trials_outside_the_domain(wall):
    # a trial that reaches the wall is rejected like one that fails the
    # Armijo test, member by member, so a stack still gives each member its
    # solo result, and both walls give the same paths; the first member's
    # line search runs out of steps early, the second runs to max_iters
    V = _walled(QUAD_2D.v, wall)
    X0 = np.array([[1.0, 1.0], [0.5, -0.5]])
    opts = ActionOptions(max_iters=50)
    out = _minimize_actions(V, X0, T, N, opts)
    ref = _minimize_actions(_walled(QUAD_2D.v, "inf"), X0, T, N, opts)
    assert out[0][3]["iterations"] < out[1][3]["iterations"] == 50
    for b, (traj, action, converged, _) in enumerate(out):
        alone = _minimize_actions(V, X0[b:b + 1], T, N, opts)[0][0]
        assert np.array_equal(traj.states, alone.states)
        assert np.array_equal(traj.states, ref[b][0].states)
        assert np.isfinite(action)
        assert not converged


# --- shooting -------------------------------------------------------------

def test_shoot_quadratic_1d():
    res = shoot_evanescent(QUAD_1D.v, [1.0], T, psi=QUAD_1D.psi)
    assert res.converged
    assert res.method == "shooting"
    assert res.detail["v0"][0] == pytest.approx(-1.0, abs=1e-12)
    traj = res.trajectory
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-traj.times))) < 1e-6


def test_shoot_neg_square_orbit():
    # psi = -x^2 has V = 2 x^2; from x0 = 1 the evanescent orbit is e^{-2t}
    pp = make_counterexample("neg_square")
    res = shoot_evanescent(pp.v, [1.0], T)
    assert res.converged
    assert res.detail["v0"][0] == pytest.approx(-2.0, abs=1e-12)
    traj = res.trajectory
    assert np.max(np.abs(traj.states[:, 0] - np.exp(-2.0 * traj.times))) < 1e-6


def test_shoot_2d_sphere_search():
    # from (1, 0) the stable direction is pure e^{-t} in the first axis
    res = shoot_evanescent(QUAD_2D.v, [1.0, 0.0], T, psi=QUAD_2D.psi)
    assert res.converged
    v0 = np.asarray(res.detail["v0"])
    assert np.allclose(v0, [-1.0, 0.0], atol=1e-6)
    # from (1, 1) both modes are excited; the solve integrates a few dozen
    # orbits at most
    res = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T, psi=QUAD_2D.psi)
    assert res.converged and res.detail["evaluations"] <= 50
    assert np.allclose(res.detail["v0"], [-1.0, -2.0], rtol=0.0, atol=1e-8)
    # the action integrand, evaluated on all nodes at once, is the per-node
    # 0.5 ||w||^2 + V(x) bit for bit
    traj = res.trajectory
    per_node = [0.5 * w.dot(w) + float(QUAD_2D.v.value(x))
                for x, w in zip(traj.states, traj.velocities)]
    assert res.final_action == kernels.trapezoid(traj.times, per_node)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(spd_problems(dims=(2, 4), eig_range=(0.8, 2.0)))
def test_shoot_spd_quadratic_property(problem):
    # the evanescent orbit of V = 0.5||Ax||^2 is x(t) = e^{-tA} x0, so it
    # leaves x0 with v0 = -A x0
    A, x0 = problem
    res = shoot_evanescent(make_quadratic(A).v, x0, T)
    assert np.max(np.abs(np.asarray(res.detail["v0"]) + A @ x0)) < 1e-8
    # converged says the terminal penalty ||w(T)||^2 + 2V(v(T)) fell below
    # 2 eps_tail^2; on the exact orbit it is 2||A e^{-TA} x0||^2, which a
    # slow mode with a large x0 keeps above the limit at this horizon.  The
    # verdict must match the exact orbit's outside a factor-2 band.
    lam, Q = np.linalg.eigh(A)
    exact_penalty = 2.0 * float(np.sum((lam * np.exp(-T * lam) * (Q.T @ x0)) ** 2))
    limit = 2.0 * DEFAULT_EPS_TAIL ** 2
    if exact_penalty < 0.5 * limit:
        assert res.converged, res.detail
    elif exact_penalty > 2.0 * limit:
        assert not res.converged, res.detail


def test_shoot_without_hessvec():
    # V = 0.5||grad psi||^2 built by induced_potential has no hessvec, so the
    # sensitivities take central differences of grad V
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    V = induced_potential(make_quadratic(A).psi)
    assert V.hessvec is None
    res = shoot_evanescent(V, [1.0, -1.0], T)
    assert res.converged
    assert np.max(np.abs(np.asarray(res.detail["v0"]) + A @ [1.0, -1.0])) < 1e-8


@pytest.mark.parametrize("with_hessvec", [True, False])
def test_variational_orbit_sensitivity_layout(with_hessvec):
    # V = x1^2/2 + x2^2 + (x1 + x2)^4/4 is neither separable nor quadratic,
    # so Hess V changes along the orbit and Q(T) = dw(T)/dv0 is not
    # symmetric: a transposed P or Q shows up against central differences
    # of the plain orbit's w(T) over v0
    def value(x):
        x = np.asarray(x, float)
        return 0.5 * x[..., 0] ** 2 + x[..., 1] ** 2 + 0.25 * (x[..., 0] + x[..., 1]) ** 4

    def gradient(x):
        x = np.asarray(x, float)
        return x * [1.0, 2.0] + (x[..., :1] + x[..., 1:]) ** 3

    def hessvec(x, h):
        x, h = np.asarray(x, float), np.asarray(h, float)
        s = x[..., :1] + x[..., 1:]
        return h * [1.0, 2.0] + 3.0 * s * s * (h[..., :1] + h[..., 1:])

    V = DifferentiableField(dim=2, value=value, gradient=gradient,
                            hessvec=hessvec if with_hessvec else None)
    x0, v0, T_ = np.array([0.6, -0.2]), np.array([-0.5, 0.3]), 1.5
    w, Q = _variational_orbit(V, x0, v0, T_, evanescent._SHOOT_RTOL)

    def w_at(v):
        return second_order_flow(V, x0, v, T_, IntegratorOptions(rtol=1e-12)).velocities[-1]

    eps = 1e-5
    fd = np.column_stack([(w_at(v0 + eps * e) - w_at(v0 - eps * e)) / (2.0 * eps)
                          for e in np.eye(2)])
    assert np.max(np.abs(Q - Q.T)) > 1e-2
    assert np.max(np.abs(Q - fd)) < 1e-6
    assert np.max(np.abs(w - w_at(v0))) < 1e-8


def test_shoot_equilibrium_start():
    # at r = 0 the sphere is the one point v0 = 0, scored by one orbit
    for pp, x0 in ((QUAD_1D, [0.0]), (QUAD_2D, [0.0, 0.0])):
        res = shoot_evanescent(pp.v, x0, T)
        assert res.converged
        assert res.final_action == 0.0
        assert res.detail["v0"] == [0.0] * len(x0)
        assert res.detail["evaluations"] == 1


def test_shoot_raises_when_every_orbit_leaves_the_domain():
    # grad V fails where x[0] < 0.5, which the orbit from (1, 1) must cross:
    # Newton's trial orbits fail until their step is halved to nothing, the
    # orbit at the next horizon fails, and so does the final orbit, so no
    # orbit is left to score
    V = QUAD_2D.v

    def gradient(x):
        if np.any(np.asarray(x, float)[..., 0] < 0.5):
            raise NumericDomainError("outside the domain of grad V")
        return V.gradient(x)

    walled = dataclasses.replace(V, gradient=gradient)
    with pytest.raises(NumericDomainError, match="every shooting orbit left"):
        shoot_evanescent(walled, [1.0, 1.0], T)


@pytest.mark.parametrize("T_, N_", [(0.0, N), (-1.0, N), (np.nan, N), (np.inf, N),
                                    (T, 1)],
                         ids=["T0", "Tneg", "Tnan", "Tinf", "N1"])
def test_shoot_and_cross_validate_reject_out_of_range_horizon(T_, N_):
    # refused before the field is evaluated; shooting takes no N
    calls = []
    pp = PotentialPair(_counted(QUAD_2D.psi, calls), _counted(QUAD_2D.v, calls))
    if N_ == N:
        with pytest.raises(ValueError, match="must be"):
            shoot_evanescent(pp.v, [1.0, 1.0], T_)
    with pytest.raises(ValueError, match="must be"):
        cross_validate(pp, [1.0, 1.0], T_, N_)
    assert calls == []


# --- cross validation -----------------------------------------------------

def test_on_grid_keeps_node_states_and_holds_the_last():
    traj = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T).trajectory
    assert np.array_equal(_on_grid(traj, traj.times), traj.states)
    past = _on_grid(traj, np.array([traj.t_end, traj.t_end + 1.0, 1e9]))
    assert np.array_equal(past, np.repeat(traj.states[-1:], 3, axis=0))
    # an orbit stopped at its first node is that node at every time
    one = dataclasses.replace(traj, times=traj.times[:1], states=traj.states[:1],
                              velocities=traj.velocities[:1])
    assert np.array_equal(_on_grid(one, np.array([0.0, 1.0])),
                          np.repeat(traj.states[:1], 2, axis=0))


def test_on_grid_samples_the_shooting_orbit():
    traj = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T).trajectory
    grid = DT * np.arange(N + 1)
    exact = np.stack([np.exp(-grid), np.exp(-2.0 * grid)], axis=1)
    assert np.max(np.abs(_on_grid(traj, grid) - exact)) < 1e-6


def test_cross_validate_compares_the_returned_shooting_orbit():
    # psi = x^3 from 1: the flow is 1/(1+3t); the shooting orbit the solver
    # returns follows it, where an RK4 pass from its v0 grows away
    pp = make_counterexample("cubic")
    rep = cross_validate(pp, [1.0])
    assert rep.get("xv_shoot_vs_flow").worst_violation < 1e-5
    shot = shoot_evanescent(pp.v, [1.0], T, psi=pp.psi)
    assert rep.get("phi_residual_shoot") == dataclasses.replace(
        shot.diagnostics.get("phi_residual_sigma+1"), check_id="phi_residual_shoot")
    traj = shot.trajectory
    assert np.max(np.abs(traj.states[:, 0] - 1.0 / (1.0 + 3.0 * traj.times))) < 2.1e-6


def test_cross_validate_integrates_only_the_flow(monkeypatch):
    # the routes passed in are sampled as returned, not integrated again
    action = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N, psi=QUAD_2D.psi)
    shot = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T, psi=QUAD_2D.psi)
    calls = []
    # an integrator that evanescent imports by name is counted there too
    for mod in (integrate, evanescent):
        for name in ("rk4_fixed", "rk_adaptive"):
            if hasattr(mod, name):
                fn = getattr(integrate, name)
                monkeypatch.setattr(mod, name, lambda *a, fn=fn, name=name, **k:
                                    calls.append(name) or fn(*a, **k))
    rep = cross_validate(QUAD_2D, [1.0, 1.0], action=action, shot=shot)
    assert rep.all_passed, rep.to_dict()
    assert calls == ["rk4_fixed"]


def test_cross_validate_quadratic_2d():
    rep = cross_validate(QUAD_2D, [1.0, 1.0])
    assert rep.all_passed, rep.to_dict()


def _rotated_diag12(degrees):
    c, s = np.cos(np.radians(degrees)), np.sin(np.radians(degrees))
    R = np.array([[c, -s], [s, c]])
    return R @ np.diag([1.0, 2.0]) @ R.T


@pytest.mark.parametrize("A, x0", [
    ([[2.0, 0.5], [0.5, 1.0]], [1.0, -1.0]),
    (_rotated_diag12(30.0), [1.0, 1.0]),
    (_rotated_diag12(60.0), [1.0, 1.0]),
], ids=["offdiag", "diag12-rot30", "diag12-rot60"])
def test_cross_validate_offdiag_quadratic(A, x0):
    rep = cross_validate(make_quadratic(A), x0)
    assert rep.all_passed, rep.to_dict()


def test_shoot_matches_flow_on_unbounded_example():
    # Crit_psi is empty here, so the flow escapes and the terminal-penalty
    # action route cannot follow it; shooting still recovers the flow orbit
    pp = make_example_one()
    res = shoot_evanescent(pp.v, [0.0], T)
    traj = res.trajectory
    exact = 1.0 - np.sqrt(1.0 + 2.0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-4

    flow = gradient_flow(pp, [0.0], T, IntegratorOptions(rtol=1e-10))
    flow_exact = 1.0 - np.sqrt(1.0 + 2.0 * flow.times)
    assert np.max(np.abs(flow.states[:, 0] - flow_exact)) < 1e-4


def test_action_route_is_honest_about_unbounded_example():
    pp = make_example_one()
    res = minimize_action(pp.v, [0.0], T, N, psi=pp.psi)
    assert not res.converged
    # the term-wise Armijo decrease lets the descent reach tol_opt instead of
    # stalling just above it and using every iteration
    opts = ActionOptions()
    assert res.detail["iterations"] < opts.max_iters
    assert res.detail["grad_inf"] < opts.tol_opt
