"""Action minimization and shooting against closed-form evanescent orbits."""
import dataclasses
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
import scipy.linalg
from scipy.linalg import cholesky_banded

import evanflow.evanescent as evanescent
from evanflow import kernels
import evanflow.integrate as integrate
from evanflow.evanescent import (
    cross_validate,
    discrete_action,
    fd_velocities,
    minimize_action,
    shoot_evanescent,
    _descend,
    _minimize_actions,
    _verdict,
    _on_grid,
)
from evanflow.diagnostics import DEFAULT_EPS_TAIL
from evanflow.eikonal import grid_points
from evanflow.fields import (
    DifferentiableField,
    NumericDomainError,
    PotentialPair,
    induced_potential,
    make_counterexample,
    make_example_one,
    make_pair,
    make_quadratic,
    resolve_potential,
)
from evanflow.integrate import (
    IntegratorOptions,
    _variational_orbit,
    gradient_flow,
    path_integral,
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
    # on a grid of 3 or 4 nodes the velocities are np.gradient's, and the
    # grid is too coarse for the orbit to be reported converged
    for T_, N_ in ((T, N), (1.0, 2), (1.0, 3)):
        dt = T_ / N_
        res = minimize_action(QUAD_2D.v, [1.0, 1.0], T_, N_)
        traj = res.trajectory
        assert isinstance(traj, integrate.Trajectory)
        assert np.array_equal(traj.times, dt * np.arange(N_ + 1))
        assert np.array_equal(traj.velocities, fd_velocities(traj.states, dt))
        if N_ < 4:
            assert np.array_equal(traj.velocities, np.gradient(traj.states, dt, axis=0))
        assert traj.termination == integrate.TERM_HORIZON
        assert traj.meta == {"method": "action", "dt": dt, "mu": 10 * dt}
        assert res.converged == (N_ == N)


def test_minimize_action_value_monotone_in_iteration_budget():
    # one Newton step solves a quadratic, so the budgets are cut on cubic,
    # whose V = 4.5 x^4 is not: 11.68, 3.05, 1.08, 1.0089, 1.00888
    V = make_counterexample("cubic").v
    vals = []
    for budget in (1, 2, 4, 8, 2000):
        res = minimize_action(V, [1.0], T, N, budget)
        vals.append(res.final_action)
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_minimize_action_equilibrium_start():
    res = minimize_action(QUAD_2D.v, [0.0, 0.0], T, N)
    assert res.converged
    assert res.final_action == pytest.approx(0.0, abs=1e-12)
    assert np.allclose(res.trajectory.states, 0.0)
    # the constant path has zero action gradient, so the descent stops at once
    assert res.detail["iterations"] == 0


def test_minimize_action_evaluates_v_on_whole_paths_only():
    # the start check reads V(x0) from the solve's first evaluation, so
    # every V.value call is on the N+1 nodes of the path: the start, one
    # line-search trial and the two diagnostics
    shapes = []
    V = dataclasses.replace(QUAD_2D.v, value=lambda x: shapes.append(np.shape(x))
                            or QUAD_2D.v.value(x))
    minimize_action(V, [1.0, 1.0], T, N)
    assert shapes == [(N + 1, 2)] * 4


@pytest.mark.parametrize("shift", [-8e-13, -2e-12])
def test_action_and_shooting_share_the_start_check(shift):
    # both routes accept V(x0) >= -1e-12, within rounding of 0, and refuse
    # a start below it before any step
    V = QUAD_2D.v.shifted(shift)
    for solve in (minimize_action, shoot_evanescent):
        if shift >= -1e-12:
            assert solve(V, [0.0, 0.0], T).trajectory.states[0].tolist() == [0.0, 0.0]
        else:
            with pytest.raises(ValueError, match=r"V\(x0\) = -2e-12 is negative "
                                                 r"at x0 = \[0.0, 0.0\]"):
                solve(V, [0.0, 0.0], T)


def test_action_route_refuses_a_start_whose_grad_v_is_not_finite():
    # V = 1/2 everywhere with grad V = inf: the isotropic fallback would
    # scale by c = inf, which scipy's banded Cholesky refuses with its own
    # message; the start check refuses the start first, as shooting does
    V = DifferentiableField(dim=1, value=lambda x: np.full(np.shape(x)[:-1], 0.5),
                            gradient=lambda x: np.full(np.shape(x), np.inf))
    with pytest.raises(ValueError, match=re.escape(
            "grad V(x0) = [inf] is not finite at x0 = [0.3]")):
        minimize_action(V, [0.3], T, N)
    with pytest.raises(NumericDomainError, match="finite sqrt"):
        shoot_evanescent(V, [0.3], T)


def test_action_iterations_do_not_grow_with_N():
    # on a quadratic V the discrete action is quadratic, so the Newton step
    # from the constant path is exact at any N
    for n_steps in (60, 240, 960):
        res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, n_steps)
        assert res.converged
        assert res.detail["iterations"] == 1, (n_steps, res.detail)


@pytest.mark.parametrize("name, x0, bound", [
    ("cubic", [1.0], 20), ("cubic", [-1.0], 20),
    ("example_one", [0.0], 15), ("quartic_saddle", [0.5, 0.5], 15),
])
def test_action_newton_iterations_on_non_quadratics(name, x0, bound):
    # the verdicts stay unconverged: an algebraic tail, an orbit that
    # escapes, a V that is not convex
    pp = resolve_potential(name)
    res = minimize_action(pp.v, x0, T, N, psi=pp.psi)
    assert res.detail["iterations"] <= bound
    assert res.detail["grad_inf"] < evanescent._TOL_OPT
    assert not res.converged


def _double_well(a=1.0):
    """psi = x^4/4 - a x^2/2: V = 0.5 (x^3 - a x)^2 is not convex between
    its wells, so the Newton factor fails there."""
    def value(x):
        x = np.asarray(x, float)[..., 0]
        return 0.25 * x ** 4 - 0.5 * a * x ** 2

    def gradient(x):
        x = np.asarray(x, float)
        return x ** 3 - a * x

    def hessvec(x, h):
        return (3.0 * np.asarray(x, float) ** 2 - a) * np.asarray(h, float)

    return make_pair(DifferentiableField(dim=1, value=value, gradient=gradient,
                                         hessvec=hessvec, name="double_well"))


@pytest.fixture
def fallbacks(monkeypatch):
    """One entry per iteration in which a member's Newton factor failed, so
    that it took the isotropic factor."""
    calls = []
    newton = evanescent._newton_factor

    def counted(band):
        factor = newton(band)
        if factor is None:
            calls.append(1)
        return factor

    monkeypatch.setattr(evanescent, "_newton_factor", counted)
    return calls


def test_action_double_well_converges_through_the_fallback(fallbacks):
    # from 0.5 the orbit runs to the local maximum 0 of psi, with action
    # psi(0) - psi(0.5) = 7/64
    pp = _double_well()
    res = minimize_action(pp.v, [0.5], T, N, psi=pp.psi)
    assert res.converged
    assert res.detail["iterations"] < 50
    assert fallbacks
    assert res.final_action == pytest.approx(7.0 / 64.0, rel=1e-3)


def test_action_non_finite_newton_band_takes_the_isotropic_factor(fallbacks):
    # a Hessian that reads NaN makes every Newton band non-finite, so each
    # iteration solves with c_b I node blocks; for V = ||x||^2 / 2, c_b = 1
    # is its Hessian, and the solve is the one the exact Hessian gives
    V = make_quadratic(np.eye(2)).v
    nan_hess = dataclasses.replace(V, hessvec=lambda x, p: np.full(np.shape(p), np.nan))
    res = minimize_action(nan_hess, [1.0, 1.0], T, N)
    exact = minimize_action(V, [1.0, 1.0], T, N)
    assert fallbacks and res.converged
    assert np.array_equal(res.trajectory.states, exact.trajectory.states)


@pytest.mark.parametrize("T_, N_", [
    (0.0, N), (-1.0, N), (np.nan, N), (np.inf, N), (T, 1), (T, 0), (T, 60.0), (T, 60.5),
    (T, True),
], ids=["T0", "Tneg", "Tnan", "Tinf", "N1", "N0", "Nfloat", "Nfrac", "Nbool"])
def test_action_solves_reject_out_of_range_inputs(T_, N_):
    # each is refused before the field is evaluated
    calls = []
    counted = _counted(QUAD_2D.v, calls)
    with pytest.raises(ValueError, match="must be"):
        _minimize_actions(counted, np.array([[1.0, 1.0]]), T_, N_)
    with pytest.raises(ValueError, match="must be"):
        minimize_action(counted, [1.0, 1.0], T_, N_)
    assert calls == []


def test_action_solves_take_a_numpy_integer_n():
    ref = minimize_action(QUAD_2D.v, [1.0, 1.0], T, 60)
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, np.int64(60))
    assert np.array_equal(res.trajectory.states, ref.trajectory.states)


def test_minimize_action_unique_minimizer_across_inits():
    # the descent from perturbed paths reaches the path it reaches from the
    # constant one
    rng = np.random.default_rng(7)
    x0 = np.array([1.0, 1.0])
    base = minimize_action(QUAD_2D.v, x0, T, N)
    assert base.converged
    inits = np.stack([base.trajectory.states + 0.5 * rng.normal(size=(N + 1, 2))
                      for _ in range(5)])
    inits[:, 0] = x0
    W, _, _, ginf = _descend(QUAD_2D.v, inits, DT, evanescent._MU_PER_DT * DT)
    assert np.all(ginf < evanescent._TOL_OPT)
    assert np.max(np.abs(W - base.trajectory.states)) < 5e-3


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
    # one Newton step solves a quadratic, so the budget is cut on cubic
    res = minimize_action(make_counterexample("cubic").v, [1.0], T, N, max_iters=1)
    assert not res.converged
    assert res.detail["iterations"] == 1
    assert res.detail["grad_inf"] >= evanescent._TOL_OPT


def test_action_verdict_tail_V_alone_rejects_a_constant_V():
    # linear psi gives V = 1/2 everywhere: the constant path is stationary,
    # motionless and conserves I, so only tail_V = 1/2 rejects it
    res = minimize_action(resolve_potential("linear").v, [1.0], T, N)
    d = res.detail
    assert d["grad_inf"] == 0.0 and d["tail_vprime"] == 0.0
    assert d["first_integral_drift"] == 0.0
    assert d["tail_V"] == 0.5 and not res.converged


def test_action_verdict_grad_inf_alone_rejects_an_unsolved_path():
    # with no iteration, the constant path at 1e-2 under V = x^2 / 2 has
    # tail_V 5e-5, no motion and no drift: only its action gradient, 5.25e-3
    # at the terminal node, rejects it
    res = minimize_action(QUAD_1D.v, [1e-2], T, N, max_iters=0)
    d = res.detail
    assert d["tail_V"] < DEFAULT_EPS_TAIL and d["tail_vprime"] == 0.0
    assert d["first_integral_drift"] == 0.0
    assert d["grad_inf"] == pytest.approx(5.25e-3) and not res.converged


def test_action_verdict_names_the_tail_terms_of_example_one():
    # from 0 the descent solves its discrete problem (grad_inf 1.6e-10) and
    # resolves it (drift 5.3e-4), but at T = 12 the orbit is still moving:
    # tail_vprime reads 1.1e-2 and tail_V 3.8e-2
    res = minimize_action(make_example_one().v, [0.0], T, N)
    assert res.detail["failed_terms"] == ["tail_vprime", "tail_V"] and not res.converged
    assert res.detail["grad_inf"] < evanescent._TOL_OPT


def test_shoot_verdict_names_the_penalty():
    # V = x^2 / 8: the penalty at T = 12 is 3.07e-6, above 2 eps_tail^2
    res = shoot_evanescent(resolve_potential("quadratic:0.5").v, [1.0], T)
    assert res.detail["failed_terms"] == ["penalty"] and not res.converged
    assert res.detail["penalty"] == pytest.approx(3.07e-6, rel=1e-3)


# each action verdict term's limit on the detail value it reads, in table order
ACTION_LIMITS = {
    "grad_inf": lambda d, fi_tol: d["grad_inf"] < evanescent._TOL_OPT,
    "tail_vprime": lambda d, fi_tol: d["tail_vprime"] < DEFAULT_EPS_TAIL,
    "tail_V": lambda d, fi_tol: d["tail_V"] < DEFAULT_EPS_TAIL,
    "first_integral_drift": lambda d, fi_tol: d["first_integral_drift"] <= fi_tol,
}


@st.composite
def verdict_stacks(draw):
    """(V, starts, T, N, max_iters): an SPD quadratic stack of spd_stacks or
    the double-well stack, at one of two horizons, with a budget that some
    members may exhaust."""
    if draw(st.booleans()):
        A, X0, _ = draw(spd_stacks())
        V = make_quadratic(A).v
    else:
        V, X0 = _double_well().v, np.array([[0.5], [1.5], [-0.4], [2.0], [0.9], [0.0]])
    T_, N_ = draw(st.sampled_from([(3.0, 60), (T, N)]))
    return V, X0, T_, N_, draw(st.integers(0, 30))


@settings(max_examples=25, deadline=None, derandomize=True)
@given(verdict_stacks())
def test_action_verdict_fails_exactly_the_violated_terms(problem):
    # every member converges exactly when it fails no term, and it fails
    # exactly the terms whose detail values violate their limits; a solve
    # alone reports its member's verdict
    V, X0, T_, N_, max_iters = problem
    _, _, vel, _, terms, detail = _minimize_actions(V, X0, T_, N_, max_iters)
    converged, failed = _verdict(terms)
    fi_tol = evanescent._first_integral_tol(vel[:, 0], T_ / N_)
    for b in range(len(X0)):
        d = {k: a[b] for k, a in detail.items()}
        assert failed[b] == [t for t, ok in ACTION_LIMITS.items() if not ok(d, fi_tol[b])]
        assert converged[b] == (failed[b] == [])
    res = minimize_action(V, X0[0], T_, N_, max_iters)
    assert res.detail["failed_terms"] == failed[0] and res.converged == converged[0]


def test_action_descent_stops_at_its_first_iterate_below_1e_8():
    # the stopping tolerance on the action gradient's inf-norm is 1e-8: on
    # quartic_saddle from (1, 1) the descent stops at the first iterate
    # below it, and one iteration less is not below it
    V = resolve_potential("quartic_saddle").v
    res = minimize_action(V, [1.0, 1.0], T, N)
    k = res.detail["iterations"]
    assert res.detail["grad_inf"] < 1e-8
    assert minimize_action(V, [1.0, 1.0], T, N, max_iters=k - 1).detail["grad_inf"] >= 1e-8


def test_minimize_action_first_integral_tolerance_accounts_for_dt():
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N)
    fi = res.diagnostics.get("first_integral")
    assert fi is not None and fi.passed, fi.notes


def test_minimize_action_stops_when_its_line_search_runs_out_of_halvings(monkeypatch):
    # on a stiff 2-D quadratic the gradient stalls at about 1e-13, above a
    # stopping tolerance lowered to 1e-15: the line search gives up after
    # its halvings, so the descent stops with converged=False long before
    # max_iters
    monkeypatch.setattr(evanescent, "_TOL_OPT", 1e-15)
    V = make_quadratic([[23.8011, 16.858], [16.858, 44.8882]]).v
    res = minimize_action(V, [0.2525, -1.4696], T, N, max_iters=100)
    assert not res.converged
    assert res.detail["iterations"] < 100
    assert res.detail["grad_inf"] >= 1e-15


def test_fd_velocities_fourth_order():
    ts = 0.05 * np.arange(241)
    W = np.exp(-ts)[:, None]
    v = fd_velocities(W, 0.05)
    assert np.max(np.abs(v + W)) < 1e-5


@st.composite
def spd_problems(draw, dims=(1, 3), eig_range=(0.5, 2.0), x0_range=(-1.5, 1.5)):
    n = draw(st.integers(*dims))
    eigs = draw(st.lists(st.floats(*eig_range), min_size=n, max_size=n))
    rotation_seed = draw(st.integers(0, 2**32 - 1))
    x0 = np.array(draw(st.lists(st.floats(*x0_range), min_size=n, max_size=n)))
    Q, _ = np.linalg.qr(np.random.default_rng(rotation_seed).normal(size=(n, n)))
    A = Q @ np.diag(eigs) @ Q.T
    return 0.5 * (A + A.T), x0


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spd_problems(dims=(1, 4), eig_range=(0.5, 3.0)))
def test_minimize_action_spd_quadratic_property(problem):
    # the evanescent orbit of V = 0.5||Ax||^2 is the gradient flow of
    # psi = 0.5 x'Ax, so its action is psi(x0) - inf psi = 0.5 x0'Ax0; the
    # discrete action is quadratic, so one Newton step solves it
    A, x0 = problem
    exact = 0.5 * float(x0 @ A @ x0)
    assume(exact >= 1e-3)
    res = minimize_action(make_quadratic(A).v, x0, T, N)
    assert res.detail["iterations"] == 1
    assert res.detail["grad_inf"] < evanescent._TOL_OPT
    assert res.final_action == pytest.approx(exact, rel=5e-3)


@settings(max_examples=20, deadline=None, derandomize=True)
@given(spd_problems(eig_range=(0.5, 60.0)))
# an orbit of little energy: 4% off, with a first-integral drift below dt^2
@example((np.array([[12.0]]), np.array([0.02])))
def test_minimize_action_converged_only_on_resolved_orbits(problem):
    # at dt = T/N = 0.05 a fast mode's discrete path is far from its orbit:
    # the discrete problem is solved, but the first integral drifts, and a
    # path that reports converged must carry the action 0.5 x0'Ax0 to 1%;
    # the budget only bounds the run time of the ill-conditioned draws
    A, x0 = problem
    exact = 0.5 * float(x0 @ A @ x0)
    assume(exact >= 1e-3)
    res = minimize_action(make_quadratic(A).v, x0, T, N, max_iters=300)
    if res.converged:
        assert abs(res.final_action - exact) <= 1e-2 * exact


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


def _assert_stack_matches_single_paths(V, W, max_iters):
    # every member of a stack takes exactly the steps it takes alone
    dt = T / (W.shape[1] - 1)
    W_s, Vv_s, iters_s, ginf_s = _descend(V, W, dt, 10.0 * dt, max_iters)
    for b in range(len(W)):
        W_1, Vv_1, iters_1, ginf_1 = _descend(V, W[b:b + 1], dt, 10.0 * dt, max_iters)
        assert np.array_equal(W_s[b], W_1[0])
        assert np.array_equal(Vv_s[b], Vv_1[0])
        assert iters_s[b] == iters_1[0] and ginf_s[b] == ginf_1[0]
        assert iters_1[0] <= max_iters


@settings(max_examples=15, deadline=None, derandomize=True)
@given(spd_stacks())
def test_descend_stack_matches_single_paths(problem):
    # with V's hessvec, and without it, where the Newton blocks are central
    # differences of grad V
    A, X0, max_iters = problem
    V = make_quadratic(A).v
    n_small = 40
    lam = np.linspace(0.0, 1.0, n_small + 1)[:, None]
    W = (1.0 - lam) * X0[:, None, :]        # straight paths to the minimizer
    for field in (V, dataclasses.replace(V, hessvec=None)):
        _assert_stack_matches_single_paths(field, W, max_iters)


def test_descend_stack_matches_single_paths_through_the_fallback(fallbacks):
    # a double-well member whose Newton factor fails takes the isotropic one
    # for that iteration, in a stack with members on convex ground (from 1.5
    # and 2) and at the equilibrium 0; each still gets its solo result
    X0 = np.array([[0.5], [1.5], [-0.4], [0.0], [2.0]])
    W = np.repeat(X0[:, None, :], N + 1, axis=1)
    _assert_stack_matches_single_paths(_double_well().v, W, evanescent.DEFAULT_MAX_ITERS)
    assert fallbacks


def _count_factors(monkeypatch):
    """One [working-set size, Newton factorizations, Newton band rows]
    entry per iteration of each descent: the rows are those of the node
    Hessians passed to the iteration's first _action_hessian_bands call
    (the isotropic fallback makes a call of one row for each band)."""
    counts = []
    node_hessians, newton = evanescent._node_hessians, evanescent._newton_factor
    bands = evanescent._action_hessian_bands

    def spy_hessians(V, W):
        counts.append([len(W), 0, None])
        return node_hessians(V, W)

    def spy_newton(band):
        counts[-1][1] += 1
        return newton(band)

    def spy_bands(H, dt, mu):
        if counts[-1][2] is None:
            counts[-1][2] = len(H)
        return bands(H, dt, mu)

    monkeypatch.setattr(evanescent, "_node_hessians", spy_hessians)
    monkeypatch.setattr(evanescent, "_newton_factor", spy_newton)
    monkeypatch.setattr(evanescent, "_action_hessian_bands", spy_bands)
    return counts


def test_a_quadratic_stack_factors_once_per_iteration(monkeypatch):
    # on a quadratic V the action's Hessian does not depend on the path, so
    # the members of a 5x5 grid share one node-Hessian stack, one band and
    # one factor; the member at the equilibrium stops before the first
    # iteration
    counts = _count_factors(monkeypatch)
    X0 = grid_points([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
    _minimize_actions(make_quadratic([[1.0, 0.3], [0.3, 2.0]]).v, X0, T, N)
    assert counts == [[24, 1, 1]]


@pytest.mark.parametrize("V, X0", [
    (make_counterexample("cubic").v, [[1.0], [0.5], [-0.7], [1.3]]),
    (_double_well().v, [[0.5], [1.5], [-0.4], [2.0], [0.9]]),
], ids=["quartic", "double_well"])
def test_a_stack_of_distinct_bands_factors_once_per_member(V, X0, monkeypatch):
    # where V is not quadratic, members from starts of distinct |x0| never
    # share a node-Hessian stack or a band, so sharing saves nothing and
    # costs no band or factorization
    counts = _count_factors(monkeypatch)
    _minimize_actions(V, np.array(X0), T, N)
    assert counts and all(m == f == rows for m, f, rows in counts)


def test_descend_stack_with_repeated_starts_matches_single_paths(fallbacks, monkeypatch):
    # members from equal starts keep equal bands, so each pair or triple
    # shares every factor and solve, the Newton one and, from 0.5 and -0.4,
    # the isotropic one; each member still gets its solo result
    X0 = np.array([[0.5], [1.5], [0.5], [-0.4], [2.0], [-0.4], [1.5], [0.5], [2.0], [0.0]])
    W = np.repeat(X0[:, None, :], N + 1, axis=1)
    V = _double_well().v
    counts = _count_factors(monkeypatch)
    _descend(V, W, DT, evanescent._MU_PER_DT * DT)
    assert counts[0] == [9, 4, 4]
    assert all(f == rows < m for m, f, rows in counts)
    assert fallbacks
    _assert_stack_matches_single_paths(V, W, evanescent.DEFAULT_MAX_ITERS)


def _isotropic_factor(v0, g0, N, dt, mu):
    """The fallback factor as a tridiagonal (2, N) band shared by the n
    components: the banded Cholesky factor of the action's Hessian for the
    isotropic quadratic c ||x||^2 / 2, c = ||grad V(x0)||^2 / (2 V(x0)), or 1
    where V(x0) = 0."""
    c = float(np.dot(g0, g0)) / (2.0 * v0) if v0 > 0.0 else 1.0
    band = np.full((2, N), -1.0 / dt)
    band[1] = 2.0 / dt + c * dt
    band[1, -1] = 1.0 / dt + c * (0.5 * dt + mu)
    return cholesky_banded(band)


def _double_wells(n):
    """psi = sum_i x_i^4/4 - x_i^2/2, a double well in each coordinate."""
    return make_pair(DifferentiableField(
        dim=n, value=lambda x: np.sum(0.25 * x ** 4 - 0.5 * x ** 2, axis=-1),
        gradient=lambda x: x ** 3 - x,
        hessvec=lambda x, h: (3.0 * x ** 2 - 1.0) * h, name=f"double_wells{n}"))


def _mexican_hat(n):
    """psi = ||x||^4/4 - ||x||^2/2."""
    def hessvec(x, h):
        r2 = np.sum(x * x, axis=-1, keepdims=True)
        return (r2 - 1.0) * h + 2.0 * np.sum(x * h, axis=-1, keepdims=True) * x

    return make_pair(DifferentiableField(
        dim=n, value=lambda x: (0.25 * np.sum(x * x, axis=-1) - 0.5) * np.sum(x * x, axis=-1),
        gradient=lambda x: (np.sum(x * x, axis=-1, keepdims=True) - 1.0) * x,
        hessvec=hessvec, name=f"mexican_hat{n}"))


@pytest.mark.parametrize("pp, X0", [
    (_double_wells(2), [[0.5, -0.4], [0.2, 1.5], [-0.3, 0.6], [1.0, 0.0]]),
    (_mexican_hat(3), [[0.3, 0.2, -0.1], [0.5, -0.5, 0.4], [0.6, 0.1, 0.2],
                       [0.7, -0.3, 0.3], [-0.2, 0.5, 0.6], [1.2, 0.3, 0.0]]),
], ids=["double_wells_2d", "mexican_hat_3d"])
def test_fallback_direction_matches_the_isotropic_tridiagonal_factor(pp, X0, monkeypatch):
    # a member whose Newton factor fails solves with c_b I node blocks in
    # the one block band; its direction equals, bit for bit, the solve with
    # the tridiagonal factor that the n components share.  Members that
    # share a band share a solve, so each column of a solve is mapped to
    # its member by its right-hand side, the member's action gradient
    X0 = np.array(X0)
    n_nodes, dt = 60, T / 60
    mu = evanescent._MU_PER_DT * dt
    stack, failed, solves = {}, set(), []
    # _descend imports the solve from scipy.linalg when it runs
    node_hessians, newton, solve = (evanescent._node_hessians, evanescent._newton_factor,
                                    scipy.linalg.cho_solve_banded)

    def spy_hessians(V, W):
        H = node_hessians(V, W)
        g = kernels.action_gradient(W, evanescent._gradients(V, W), dt, mu)
        stack.update(W=W, g=g.reshape(len(W), -1),
                     bands=evanescent._action_hessian_bands(H, dt, mu))
        return H

    def spy_newton(band):
        factor = newton(band)
        if factor is None:
            failed.add(band.tobytes())
        return factor

    def spy_solve(cb, rhs, **kw):
        p = solve(cb, rhs, **kw)
        for j in range(rhs.shape[1]):
            b = np.flatnonzero((stack["g"] == rhs[:, j]).all(axis=1))[0]
            if stack["bands"][b].tobytes() in failed:
                solves.append((stack["W"][b, 0], rhs[:, j], p[:, j]))
        return p

    monkeypatch.setattr(evanescent, "_node_hessians", spy_hessians)
    monkeypatch.setattr(evanescent, "_newton_factor", spy_newton)
    monkeypatch.setattr(scipy.linalg, "cho_solve_banded", spy_solve)
    W = np.repeat(X0[:, None, :], n_nodes + 1, axis=1)
    _descend(pp.v, W, dt, mu)
    assert solves
    for x0, rhs, p in solves:
        ref = _isotropic_factor(float(pp.v.value(x0)), pp.v.gradient(x0), n_nodes, dt, mu)
        p_ref = solve((ref, False), rhs.reshape(n_nodes, -1), check_finite=False)
        assert np.array_equal(p.reshape(p_ref.shape), p_ref)


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
    # solo result, and both walls give the same paths; each member's line
    # search runs out of halvings before max_iters
    V = _walled(QUAD_2D.v, wall)
    X0 = np.array([[1.0, 1.0], [0.5, -0.5]])
    W, _, _, actions, terms, detail = _minimize_actions(V, X0, T, N, 50)
    ref = _minimize_actions(_walled(QUAD_2D.v, "inf"), X0, T, N, 50)[0]
    assert np.all(detail["iterations"] < 50)
    for b in range(len(X0)):
        assert np.array_equal(W[b], _minimize_actions(V, X0[b:b + 1], T, N, 50)[0][0])
    assert np.array_equal(W, ref)
    assert np.all(np.isfinite(actions))
    assert not _verdict(terms)[0].any()


def test_minimize_actions_returns_the_stack_as_arrays():
    # V on the returned nodes is V.value of each member's path, bit for bit;
    # every other array holds one entry per member, each verdict term's
    # measured value is in detail under the term's name, and minimize_action
    # reports the stack's first member
    X0 = np.array([[1.0, 1.0], [0.5, -0.5], [0.0, 0.0]])
    B = len(X0)
    W, Vv, vel, actions, terms, detail = _minimize_actions(QUAD_2D.v, X0, T, N)
    assert W.shape == vel.shape == (B, N + 1, 2)
    assert Vv.shape == (B, N + 1)
    for b in range(B):
        assert np.array_equal(Vv[b], QUAD_2D.v.value(W[b]))
    assert actions.shape == (B,)
    assert list(terms) == ["grad_inf", "tail_vprime", "tail_V", "first_integral_drift"]
    assert all(a.shape == (B,) and a.dtype == bool for a in terms.values())
    assert set(terms) < set(detail)
    assert all(a.shape == (B,) for a in detail.values())
    converged, failed = _verdict(terms)
    res = minimize_action(QUAD_2D.v, X0[0], T, N)
    assert np.array_equal(res.trajectory.states, W[0])
    assert np.array_equal(res.trajectory.velocities, vel[0])
    assert res.final_action == actions[0] and res.converged == converged[0]
    assert res.detail == {**{k: a[0] for k, a in detail.items()}, "failed_terms": failed[0]}
    assert res.trajectory.meta == {"method": "action", "dt": DT,
                                   "mu": evanescent._MU_PER_DT * DT}


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


def test_shoot_verdict_rejects_an_orbit_by_its_penalty():
    # V = 1/2 everywhere: both points of the sphere ||v0|| = 1 run at unit
    # speed to T, so the orbit reaches T with penalty ||w(T)||^2 + 2 V = 2
    res = shoot_evanescent(resolve_potential("linear").v, [1.0], T)
    assert res.trajectory.termination == integrate.TERM_HORIZON
    assert res.detail["penalty"] == 2.0 and not res.converged


def test_shoot_2d_sphere_search():
    # from (1, 0) the stable direction is pure e^{-t} in the first axis
    res = shoot_evanescent(QUAD_2D.v, [1.0, 0.0], T, psi=QUAD_2D.psi)
    assert res.converged
    v0 = np.asarray(res.detail["v0"])
    assert np.allclose(v0, [-1.0, 0.0], atol=1e-6)
    # from (1, 1) both modes are excited; each horizon's first orbit extends
    # the last one, so the solve integrates about ten orbits
    res = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T, psi=QUAD_2D.psi)
    assert res.converged and res.detail["evaluations"] <= 12
    assert np.allclose(res.detail["v0"], [-1.0, -2.0], rtol=0.0, atol=1e-8)
    # the action integrand g and its slope g', evaluated on all nodes at
    # once, are the per-node 0.5 ||w||^2 + V(x) and 2 w.grad V(x) bit for
    # bit, and the endpoint-corrected trapezoid of them is within 3e-4 of
    # 0.5 x0'A x0 = 1.5 on DOP853's few nodes
    traj = res.trajectory
    per_node = [0.5 * w.dot(w) + float(QUAD_2D.v.value(x))
                for x, w in zip(traj.states, traj.velocities)]
    slopes = [2.0 * float(np.sum(w * QUAD_2D.v.gradient(x)))
              for x, w in zip(traj.states, traj.velocities)]
    assert res.final_action == path_integral(traj, per_node, slopes)
    assert len(traj) < 60
    assert res.final_action == pytest.approx(1.5, rel=3e-4)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(spd_problems(dims=(2, 4), eig_range=(0.8, 2.0)))
# a plain orbit from this v0 grows its last-bit rounding by e^{3T} and ends
# far off; the Newton orbit moved by the last step stays on e^{-tA} x0
@example((1.5 * np.diag([1.0, 2.0]), np.array([1.0, 1.0])))
# two fast modes (lambda 1.94, 1.85): every node's step error grows by about
# e^{lambda (T - t)}, so the orbit's own tolerance decides the 1e-6 below
@example((np.array([[1.9394777512802355, -0.015015202127230409],
                    [-0.015015202127230409, 1.8509579089473784]]),
          np.array([-1.1615929741570072, -0.5961009826649021])))
def test_shoot_spd_quadratic_property(problem):
    # the evanescent orbit of V = 0.5||Ax||^2 is x(t) = e^{-tA} x0, so it
    # leaves x0 with v0 = -A x0, and every node of the returned orbit lies
    # on it
    A, x0 = problem
    res = shoot_evanescent(make_quadratic(A).v, x0, T)
    assert np.max(np.abs(np.asarray(res.detail["v0"]) + A @ x0)) < 1e-8
    traj = res.trajectory
    assert traj.t_end == pytest.approx(T, rel=1e-12)
    lam, Q = np.linalg.eigh(A)
    exact = (Q * np.exp(-np.outer(traj.times, lam))[:, None, :]) @ (Q.T @ x0)
    assert np.max(np.abs(traj.states - exact)) < 1e-6
    # converged says the terminal penalty ||w(T)||^2 + 2V(v(T)) fell below
    # 2 eps_tail^2; on the exact orbit it is 2||A e^{-TA} x0||^2, which a
    # slow mode with a large x0 keeps above the limit at this horizon.  The
    # verdict must match the exact orbit's outside a factor-2 band.
    exact_penalty = 2.0 * float(np.sum((lam * np.exp(-T * lam) * (Q.T @ x0)) ** 2))
    limit = 2.0 * DEFAULT_EPS_TAIL ** 2
    if exact_penalty < 0.5 * limit:
        assert res.converged, res.detail
    elif exact_penalty > 2.0 * limit:
        assert not res.converged, res.detail


@settings(max_examples=25, deadline=None, derandomize=True)
@given(spd_problems(dims=(1, 3), eig_range=(0.5, 3.0), x0_range=(-1.0, 1.0)))
# starts near the minimizer: under an absolute atol of 1e-12 their orbits
# took 8-12 nodes and read the action 4e-3 to 3e-1 off, yet converged
@example((np.array([[1.8915179]]), np.array([1.19e-7])))
@example((np.array([[0.5]]), np.array([1e-6])))
@example((np.array([[0.5]]), np.array([1e-22])))
@example((np.diag([1.0, 2.0]), np.array([1e-6, 1e-6])))
def test_shoot_action_spd_quadratic_property(problem):
    # the action of the evanescent orbit is psi(x0) - inf psi = 0.5 x0'Ax0;
    # the endpoint-corrected trapezoid over the DOP853 nodes of a converged
    # shot recovers it to 3e-4 relative (the plain trapezoid reads 2e-2),
    # however close x0 lies to the minimizer
    A, x0 = problem
    exact = 0.5 * float(x0 @ A @ x0)
    res = shoot_evanescent(make_quadratic(A).v, x0, T)
    if res.converged:
        assert abs(res.final_action - exact) <= 3e-4 * exact, res.detail


@pytest.mark.parametrize("a, x0, v0", [(0.5, 0.2, 0.092), (1.0, -0.9, 0.171)])
def test_shoot_1d_keeps_the_sign_whose_orbit_ends_best_at_T(a, x0, v0):
    # in 1-D the sphere is the two points +-r, and each one's orbit is
    # integrated to T: on these double wells the sign whose orbit ends
    # better at the first horizon T/8 is the other one, whose orbit ends
    # unconverged at T
    V = _double_well(a).v
    res = shoot_evanescent(V, [x0], T)
    assert res.converged
    assert res.detail["v0"] == [pytest.approx(v0, rel=1e-12)]

    def penalty(v, T_):
        y = _variational_orbit(V, np.array([x0]), np.array([v]), T_,
                               sensitivities=False).ys[-1]
        return y[1] ** 2 + 2.0 * float(V.value(y[:1]))

    assert penalty(-v0, T / 8) < penalty(v0, T / 8)
    assert penalty(-v0, T) > 2.0 * DEFAULT_EPS_TAIL ** 2


def _hess_walled(V):
    """V whose Hess V raises near the minimizer, where ||x|| < 1e-3."""
    def hessvec(x, p):
        if np.any(np.linalg.norm(np.asarray(x, float), axis=-1) < 1e-3):
            raise NumericDomainError("outside the domain of Hess V")
        return V.hessvec(x, p)

    return dataclasses.replace(V, hessvec=hessvec)


def _no_minimum():
    """psi = x + x^3/3, with no critical point: from 0 both orbits, v0 = +-1,
    diverge."""
    def value(x):
        x = np.asarray(x, float)[..., 0]
        return x + x ** 3 / 3.0

    def gradient(x):
        return 1.0 + np.asarray(x, float) ** 2

    def hessvec(x, h):
        return 2.0 * np.asarray(x, float) * np.asarray(h, float)

    return make_pair(DifferentiableField(dim=1, value=value, gradient=gradient,
                                         hessvec=hessvec, name="x + x^3/3"))


def test_shoot_scores_the_plain_orbit_when_the_last_horizon_fails():
    # Hess V fails near the minimizer, which the orbit from (1, 1) reaches
    # only after t = 6, so every horizon but the last solves and the plain
    # orbit of v0, which needs no Hess V, is the one returned
    V = QUAD_2D.v
    res = shoot_evanescent(_hess_walled(V), [1.0, 1.0], T)
    plain = _variational_orbit(V, np.array([1.0, 1.0]), np.asarray(res.detail["v0"]), T,
                               sensitivities=False)
    assert np.array_equal(res.trajectory.states, plain.ys[:, :2])
    assert np.array_equal(res.trajectory.velocities, plain.ys[:, 2:])
    assert res.detail["steps_accepted"] > plain.meta["n_steps"]
    assert np.allclose(res.detail["v0"], [-1.0, -2.0], rtol=0.0, atol=1e-8)


@pytest.mark.parametrize("V, x0", [(QUAD_1D.v, [1.0]), (QUAD_2D.v, [1.0, 1.0]),
                                   (QUAD_2D.v, [0.0, 0.0]), (_hess_walled(QUAD_2D.v), [1.0, 1.0]),
                                   (_no_minimum().v, [0.0])],
                         ids=["1d", "2d", "r0", "fallback", "1d-diverged"])
def test_shoot_counts_every_integration_and_its_steps(monkeypatch, V, x0):
    # an integration that raises counts as an orbit but adds no steps
    calls, metas = [], []

    def counted(*a, fn=integrate.rk_adaptive, **k):
        calls.append(1)
        raw = fn(*a, **k)
        metas.append(raw.meta)
        return raw

    monkeypatch.setattr(integrate, "rk_adaptive", counted)
    d = shoot_evanescent(V, x0, T).detail
    assert d["evaluations"] == len(calls)
    assert d["steps_accepted"] == sum(m["n_steps"] for m in metas)
    assert d["steps_rejected"] == sum(m["n_rejected"] for m in metas)


def _quartic(A):
    """psi = x'Ax / 2 + sum x_i^4 / 4."""
    def value(x):
        x = np.asarray(x, float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, A, x) + 0.25 * np.sum(x ** 4, axis=-1)

    def gradient(x):
        x = np.asarray(x, float)
        return x @ A + x ** 3

    def hessvec(x, h):
        h = np.asarray(h, float)
        return h @ A + 3.0 * np.asarray(x, float) ** 2 * h

    return DifferentiableField(dim=len(A), value=value, gradient=gradient, hessvec=hessvec,
                               name="quartic")


def test_shoot_quartic_finds_v0_within_its_newton_budget():
    # on the quartic of A = [[1, .3], [.3, .5]], 8 Gauss-Newton steps a
    # horizon find v0 = -grad psi(x0) to 3e-11; 2 leave it 1.8e-3 off
    A = np.array([[1.0, 0.3], [0.3, 0.5]])
    x0 = np.array([1.0, 1.0])
    res = shoot_evanescent(induced_potential(_quartic(A)), x0, T)
    assert np.linalg.norm(np.asarray(res.detail["v0"]) + A @ x0 + x0 ** 3) < 1e-9


def test_shoot_newton_stops_at_the_rounding_floor_of_its_step():
    # a horizon ends on a tangent step below 1e-13 r, where the steps are
    # rounding: 30 unit starts on diag(1, 1.5, 2) integrate 300-303 orbits
    # in all, as they do with every start moved by up to 5 ulps, where a
    # floor 4 times higher takes 280-285 and one 4 times lower 318-325
    V = make_quadratic(np.diag([1.0, 1.5, 2.0])).v
    X = np.random.default_rng(3).normal(size=(30, 3))
    X /= np.linalg.norm(X, axis=1)[:, None]
    orbits = sum(shoot_evanescent(V, x0, T).detail["evaluations"] for x0 in X)
    assert 292 <= orbits <= 311


def test_shoot_horizon_ends_on_a_step_it_may_not_halve(monkeypatch):
    # with no halving allowed, the first full step from (1, 1) raises
    # ||w(T_k)||, so each horizon ends on it without taking it: 6 orbits and
    # no evanescent v0, where 20 halvings find it in 11
    V = resolve_potential("quadratic:1,0;0,3").v
    x0 = np.array([1.0, 1.0])
    full = shoot_evanescent(V, x0, T)
    monkeypatch.setattr(evanescent, "_HALVINGS", 0)
    res = shoot_evanescent(V, x0, T)
    assert full.converged and not res.converged
    assert res.detail["evaluations"] < full.detail["evaluations"]


def test_shoot_without_hessvec():
    # V = 0.5||grad psi||^2 built by induced_potential has no exact hessvec,
    # so the sensitivities take central differences of grad V
    A = np.array([[2.0, 0.5], [0.5, 1.0]])
    V = induced_potential(make_quadratic(A).psi)
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
    # rows of the orbit are (v, w, P, Q) with P and Q transposed
    y = _variational_orbit(V, x0, v0, T_).ys[-1]
    w, Q = y[2:4], y[8:].reshape(2, 2).T

    def w_at(v):
        return second_order_flow(V, x0, v, T_, IntegratorOptions(rtol=1e-12)).velocities[-1]

    eps = 1e-5
    fd = np.column_stack([(w_at(v0 + eps * e) - w_at(v0 - eps * e)) / (2.0 * eps)
                          for e in np.eye(2)])
    assert np.max(np.abs(Q - Q.T)) > 1e-2
    assert np.max(np.abs(Q - fd)) < 1e-6
    assert np.max(np.abs(w - w_at(v0))) < 1e-8


def test_variational_orbit_extends_an_orbit_from_its_end():
    # the orbit up to 1.5 continued to 3 is joined to it without repeating
    # the join, and ends where the orbit integrated over [0, 3] at once ends
    V, x0, v0 = QUAD_2D.v, np.array([1.0, 1.0]), np.array([-1.2, -1.8])
    head = _variational_orbit(V, x0, v0, 1.5)
    whole = _variational_orbit(V, x0, v0, 3.0)
    joined = _variational_orbit(V, x0, v0, 3.0, prev=head)
    m = len(head.times)
    assert np.array_equal(joined.times[:m], head.times)
    assert np.array_equal(joined.ys[:m], head.ys)
    assert np.all(np.diff(joined.times) > 0.0)
    assert joined.times[-1] == pytest.approx(3.0, rel=1e-14)
    assert joined.meta["n_steps"] == len(joined.times) - m
    assert np.max(np.abs(joined.ys[-1] - whole.ys[-1])) < 1e-8


def test_shoot_from_a_far_start_raises_instead_of_hanging():
    # on A = 1e10, grad V(x0) = 1e20 x0 is finite but its norm overflows, so
    # the downhill seed would be NaN: from 1e138 the r = 0 branch would shoot
    # v0 = 0, off the sphere of radius sqrt(2 V(x0)) = 1e10 x0, and from
    # 1e140 the orbits' DOP853 error estimates overflow.  The start is
    # refused before any orbit, with no RuntimeWarning (tier-1 makes them
    # errors)
    for x0 in (1e138, 1e140):
        with pytest.raises(NumericDomainError, match=re.escape(
                f"shooting needs a finite sqrt(2 V(x0)) and ||grad V(x0)||, got "
                f"{1e10 * x0:g} and inf at x0 = [{x0}]")):
            shoot_evanescent(resolve_potential("quadratic:1e10").v, [x0])


def test_shoot_equilibrium_start():
    # at r = 0 the sphere is the one point v0 = 0, scored by one orbit
    for pp, x0 in ((QUAD_1D, [0.0]), (QUAD_2D, [0.0, 0.0])):
        res = shoot_evanescent(pp.v, x0, T)
        assert res.converged
        assert res.final_action == 0.0
        assert res.detail["v0"] == [0.0] * len(x0)
        assert res.detail["evaluations"] == 1


def test_shoot_raises_when_every_orbit_leaves_the_domain():
    # grad V fails outside the ball of radius 0.2 about (1, 1), which every
    # orbit from there leaves, since its speed sqrt(2 V) exceeds 1.7 in the
    # ball and grad V pushes it out: the first Newton orbit fails, and so
    # does the plain orbit of v0, so no orbit is left to score
    V = QUAD_2D.v

    def gradient(x):
        if np.any(np.linalg.norm(np.asarray(x, float) - 1.0, axis=-1) > 0.2):
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
    assert np.array_equal(_on_grid(QUAD_2D.v, traj, traj.times), traj.states)
    past = _on_grid(QUAD_2D.v, traj, np.array([traj.t_end, traj.t_end + 1.0, 1e9]))
    assert np.array_equal(past, np.repeat(traj.states[-1:], 3, axis=0))
    # an orbit stopped at its first node is that node at every time
    one = dataclasses.replace(traj, times=traj.times[:1], states=traj.states[:1],
                              velocities=traj.velocities[:1])
    assert np.array_equal(_on_grid(QUAD_2D.v, one, np.array([0.0, 1.0])),
                          np.repeat(traj.states[:1], 2, axis=0))


def test_on_grid_samples_the_shooting_orbit():
    traj = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T).trajectory
    grid = DT * np.arange(N + 1)
    exact = np.stack([np.exp(-grid), np.exp(-2.0 * grid)], axis=1)
    assert np.max(np.abs(_on_grid(QUAD_2D.v, traj, grid) - exact)) < 1e-6


def test_cross_validate_compares_the_returned_shooting_orbit():
    # psi = x^3 from 1: the flow is 1/(1+3t); the shooting orbit the solver
    # returns follows it, where an RK4 pass from its v0 grows away.  Both
    # sides are adaptive orbits sampled between their nodes, 2.2e-8 apart;
    # a fixed-step RK4 flow at h = T/N reads 2.1e-6
    pp = make_counterexample("cubic")
    rep = cross_validate(pp, [1.0])
    assert rep.get("xv_shoot_vs_flow").worst_violation < 1e-7
    shot = shoot_evanescent(pp.v, [1.0], T, psi=pp.psi)
    assert rep.get("phi_residual_shoot") == dataclasses.replace(
        shot.diagnostics.get("phi_residual_sigma+1"), check_id="phi_residual_shoot")
    traj = shot.trajectory
    assert np.max(np.abs(traj.states[:, 0] - 1.0 / (1.0 + 3.0 * traj.times))) < 2.1e-6


def test_cross_validate_integrates_only_the_flow(monkeypatch):
    # the routes passed in are sampled as returned, not integrated again;
    # the flow is DP45 at _CHECK_RTOL: 93 accepted steps at 1e-7, more at a
    # tighter rtol (the uniform grid has N = 240 intervals)
    action = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N, psi=QUAD_2D.psi)
    shot = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T, psi=QUAD_2D.psi)
    calls, metas = [], []
    # an integrator that evanescent imports by name is counted there too
    for mod in (integrate, evanescent):
        for name in ("rk4_fixed", "rk_adaptive"):
            if hasattr(mod, name):
                fn = getattr(integrate, name)

                def counted(*a, fn=fn, name=name, **k):
                    calls.append(name)
                    raw = fn(*a, **k)
                    metas.append(raw.meta)
                    return raw

                monkeypatch.setattr(mod, name, counted)
    rep = cross_validate(QUAD_2D, [1.0, 1.0], action=action, shot=shot)
    assert rep.all_passed, rep.to_dict()
    assert calls == ["rk_adaptive"]
    assert metas[0]["method"] == "rk45" and metas[0]["rtol"] == integrate._CHECK_RTOL
    assert metas[0]["n_steps"] <= 93


@pytest.mark.parametrize("route", ["action", "shot"])
def test_cross_validate_refuses_a_route_solved_without_psi(route):
    # a route's phi residual is the check its solve ran, so a result solved
    # without psi is refused before the fields are evaluated
    if route == "action":
        res = minimize_action(QUAD_2D.v, [1.0, 1.0], T, N)
    else:
        res = shoot_evanescent(QUAD_2D.v, [1.0, 1.0], T)
    calls = []
    pp = PotentialPair(_counted(QUAD_2D.psi, calls), _counted(QUAD_2D.v, calls))
    with pytest.raises(ValueError, match=f"the {res.method} result passed in was "
                                         "solved without psi"):
        cross_validate(pp, [1.0, 1.0], **{route: res})
    assert calls == []


def test_cross_validate_distance_tolerance_is_5e_3():
    # the action path's O(dt^2) error decides: from 1 on x^2 / 2 at N = 30
    # the routes agree to 2.4e-3, and on the 2-D quadratic at N = 24 the
    # action and shooting orbits differ by 1.4e-2
    def xv(report):
        return [c for c in report.checks if c.check_id.startswith("xv_")]

    close = xv(cross_validate(QUAD_1D, [1.0], T, 30))
    assert all(c.passed for c in close) and max(c.worst_violation for c in close) > 2e-3
    far = xv(cross_validate(QUAD_2D, [1.0, 1.0], T, 24))
    assert not all(c.passed for c in far) and max(c.worst_violation for c in far) < 1.5e-2


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
    # the term-wise Armijo decrease lets the descent reach its stopping
    # tolerance instead of stalling just above it and using every iteration
    assert res.detail["iterations"] < evanescent.DEFAULT_MAX_ITERS
    assert res.detail["grad_inf"] < evanescent._TOL_OPT
