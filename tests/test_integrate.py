"""Integrators: closed-form oracles, terminations, CSV contract."""
import dataclasses
import json
import re
import warnings

import numpy as np
import pytest
import scipy
from hypothesis import given, settings, strategies as st

from evanflow import integrate
from evanflow.cli import main
from evanflow.fields import (
    DifferentiableField,
    NumericDomainError,
    induced_potential,
    make_counterexample,
    make_example_one,
    make_pair,
    make_quadratic,
)
from evanflow.integrate import (
    DEFAULT_R_MAX,
    TERM_CRIT,
    TERM_DIVERGED,
    TERM_HORIZON,
    TERM_STEP_COLLAPSE,
    DOP853,
    DP45,
    IntegratorOptions,
    _second_order_rhs,
    _variational_rhs,
    gradient_flow,
    path_integral,
    rk4_fixed,
    rk_adaptive,
    second_order_flow,
)


def test_rk4_exponential_decay_order():
    # y' = -y, y(0) = 1: error scales like h^4
    errs = []
    for h in (0.1, 0.05):
        raw = rk4_fixed(lambda y: -y, np.array([1.0]), 1.0, h)
        errs.append(abs(raw.ys[-1, 0] - np.exp(-1.0)))
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.15)


def test_rk4_uniform_grid_with_partial_last_step():
    raw = rk4_fixed(lambda y: -y, np.array([1.0]), 1.0, 0.3)
    assert np.allclose(raw.times, [0.0, 0.3, 0.6, 0.9, 1.0])
    steps = np.diff(raw.times[:-1])
    assert np.max(np.abs(steps - 0.3)) < 1e-15


def test_rk4_rejects_bad_arguments():
    with pytest.raises(ValueError):
        rk4_fixed(lambda y: -y, np.array([1.0]), 1.0, -0.1)
    with pytest.raises(ValueError):
        rk4_fixed(lambda y: -y, np.array([1.0]), 0.0, 0.1)
    for T, h in ((1.0, np.nan), (np.nan, 0.1)):
        with pytest.raises(ValueError):
            rk4_fixed(lambda y: -y, np.array([1.0]), T, h)


def test_rk4_nan_raises():
    def rhs(y):
        return np.array([np.nan])

    with pytest.raises(NumericDomainError):
        rk4_fixed(rhs, np.array([1.0]), 1.0, 0.1)


@pytest.mark.parametrize("slope", [np.inf, -np.inf])
def test_rk4_infinite_state_raises(slope):
    def rhs(y):
        return np.array([slope])

    with pytest.raises(NumericDomainError):
        rk4_fixed(rhs, np.array([1.0]), 1.0, 0.1)


def test_rk4_divergence_is_the_euclidean_norm_above_r_max():
    # a state whose norm is DEFAULT_R_MAX = 1e6 exactly runs to the horizon;
    # one ulp more in a component puts its norm above it, as np.linalg.norm
    # decides it
    def still(y):
        return np.zeros_like(y)

    at = np.array([6e5, 8e5])
    above = np.array([6e5, np.nextafter(8e5, np.inf)])
    assert np.linalg.norm(at) == 1e6 < np.linalg.norm(above)
    assert DEFAULT_R_MAX == 1e6
    assert rk4_fixed(still, at, 1.0, 0.5).termination == TERM_HORIZON
    raw = rk4_fixed(still, above, 1.0, 0.5)
    assert raw.termination == TERM_DIVERGED
    assert raw.meta["n_steps"] == 1


@pytest.mark.parametrize("y0", [np.ones((1, 2)), np.array(1.0)])
def test_integrators_reject_a_state_that_is_not_1d(y0):
    shape = re.escape(str(y0.shape))
    with pytest.raises(ValueError, match=shape):
        rk_adaptive(lambda y: -y, y0, 1.0)
    with pytest.raises(ValueError, match=shape):
        rk4_fixed(lambda y: -y, y0, 1.0, 0.1)


def test_adaptive_decay_accuracy():
    raw = rk_adaptive(lambda y: -y, np.array([1.0]), 5.0, rtol=1e-10, atol=1e-13)
    assert raw.termination == TERM_HORIZON
    assert abs(raw.ys[-1, 0] - np.exp(-5.0)) < 1e-9
    assert raw.meta["n_steps"] == len(raw.times) - 1


@pytest.mark.parametrize("rate, rtol", [(1.0, 1e-9), (50.0, 1e-12)])
def test_adaptive_first_same_as_last_work_count(rate, rtol):
    # rhs is called once at y0 and six times per attempted step: an accepted
    # step's last stage is the next step's first, and a step rejected on its
    # error keeps its first stage; the fast decay at rtol 1e-12 rejects steps
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        return -rate * y

    raw = rk_adaptive(rhs, np.array([1.0]), 1.0, rtol=rtol)
    assert raw.termination == TERM_HORIZON
    assert (raw.meta["n_rejected"] > 0) == (rate > 1.0)
    assert calls == 1 + 6 * (raw.meta["n_steps"] + raw.meta["n_rejected"])


def _seven_stage_reference(rhs, y0, T, rtol, n_ctrl=None, atol=1e-12):
    """The Dormand-Prince loop that evaluates all seven stages every step.
    Every stage input is tested before rhs sees it, and all slopes after
    the stages; a non-finite one halves h and rejects the step."""
    y, t, h, ctrl = np.asarray(y0, float).copy(), 0.0, min(1e-3 * T, 0.1), slice(n_ctrl)
    times, ys = [0.0], [y.copy()]
    termination, n_steps, n_rejected = TERM_HORIZON, 0, 0
    while t < T * (1.0 - 1e-15):
        if h < 1e-14 * T:
            termination = TERM_STEP_COLLAPSE
            break
        h = min(h, T - t)
        K = np.empty((7, y.size))
        K[0] = rhs(y)
        bad = False
        for i in range(1, 7):
            yi = y + h * (integrate._DP_A[i] @ K[:i])
            if not np.isfinite(yi).all():
                bad = True
                break
            K[i] = rhs(yi)
        if bad or not np.isfinite(K).all():
            h *= 0.5
            n_rejected += 1
            continue
        y5 = y + h * (integrate._DP_B5 @ K)
        y4 = y + h * (integrate._DP_B4 @ K)
        err = float(np.linalg.norm((y5 - y4)[ctrl]))
        tol = atol + rtol * float(np.linalg.norm(y[ctrl]))
        if err <= tol:
            t, y = t + h, y5
            n_steps += 1
            times.append(t)
            ys.append(y.copy())
        else:
            n_rejected += 1
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return np.asarray(times), np.asarray(ys), termination, n_steps, n_rejected


def test_adaptive_nodes_equal_the_seven_stage_loop():
    # reusing the last stage (FSAL) and testing only the stage inputs and the
    # last slope change no node, bit for bit: on the variational state of a
    # nonlinear V, error-controlled on (v, w) or on all of it, on a fast
    # decay whose steps are rejected, and on right-hand sides that return
    # inf past a wall or nan past a threshold, whose steps are rejected on a
    # non-finite stage until the step size collapses; in `jump` the last
    # slope is the first non-finite one on some steps
    rhs = _variational_rhs(make_counterexample("quartic_saddle").v)
    y0 = np.concatenate([[0.3, -0.2], [-0.1, 0.1], np.zeros(4), np.eye(2).ravel()])
    calls = 0

    def capped(value):
        # a guard that lets a step through may loop forever; stop it
        nonlocal calls
        calls += 1
        if calls > 100_000:
            raise RuntimeError("rk_adaptive kept rejecting steps")
        return np.array(value)

    def wall(y):
        return capped([np.inf if y[0] > 1.5 else 1.0, -y[1]])

    def threshold(y):
        return capped([np.nan if y[0] > 1.2 else y[0], -2.0 * y[1]])

    def jump(y):
        return capped([1.0, np.nan if y[1] > 1.0 else (1e6 if y[0] > 1.5 else 0.0)])

    cases = (
        (rhs, y0, 3.0, 1e-10, 4, TERM_HORIZON),
        (rhs, y0, 3.0, 1e-6, None, TERM_HORIZON),
        (lambda y: -50.0 * y, [1.0], 1.0, 1e-12, None, TERM_HORIZON),
        (wall, [0.0, 1.0], 3.0, 1e-9, None, TERM_STEP_COLLAPSE),
        (threshold, [1.0, 1.0], 2.0, 1e-9, None, TERM_STEP_COLLAPSE),
        (jump, [0.0, 0.0], 3.0, 1e-9, None, TERM_STEP_COLLAPSE),
    )
    for f, y, T, rtol, n_ctrl, termination in cases:
        calls = 0
        raw = rk_adaptive(f, y, T, rtol=rtol, n_ctrl=n_ctrl)
        times, ys, ref_termination, n_steps, n_rejected = _seven_stage_reference(
            f, y, T, rtol, n_ctrl)
        assert raw.termination == ref_termination == termination
        assert np.array_equal(raw.times, times)
        assert np.array_equal(raw.ys, ys)
        assert (raw.meta["n_steps"], raw.meta["n_rejected"]) == (n_steps, n_rejected)
        assert n_rejected > 0 or f is rhs


def _slice_store_second_order_rhs(V):
    # the right-hand side as it was: one array shaped like y, whose first 2n
    # entries it fills
    n = V.dim

    def rhs(y):
        out = np.empty_like(y)
        out[:n] = y[n:2 * n]
        out[n:2 * n] = V.gradient(y[:n])
        return out

    return rhs


def _slice_store_variational_rhs(V):
    n = V.dim
    m = 2 * n + n * n
    orbit_rhs = _slice_store_second_order_rhs(V)

    def rhs(y):
        out = orbit_rhs(y)
        out[2 * n:m] = y[m:]
        out[m:] = V.hessvec(y[:n][None].repeat(n, 0), y[2 * n:m].reshape(n, n)).ravel()
        return out

    return rhs


def _quartic_without_hessvec(A):
    # psi = 0.5 x'Ax + 0.25 sum x_i^4, whose hessvec is the central
    # difference of its gradient, as is V's
    return DifferentiableField(
        dim=len(A),
        value=lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, A, x)
        + 0.25 * np.sum(np.asarray(x) ** 4, axis=-1),
        gradient=lambda x: np.asarray(x, float) @ A + np.asarray(x, float) ** 3,
    )


@pytest.mark.parametrize("kind, n", [
    *(("quadratic", n) for n in range(1, 5)),
    ("quartic_saddle", 2),
    *(("induced_quartic", n) for n in range(1, 5)),
])
def test_right_hand_sides_equal_the_slice_store_ones(kind, n):
    # one concatenate of the pieces gives the slice stores' array bit for
    # bit, for an exact Hessian, a catalog V induced from psi, and a V whose
    # gradient and hessvec are central differences
    rng = np.random.default_rng(n)
    B = rng.standard_normal((n, n))
    A = B @ B.T + n * np.eye(n)
    V = {"quadratic": lambda: make_quadratic(A).v,
         "quartic_saddle": lambda: make_counterexample("quartic_saddle").v,
         "induced_quartic": lambda: induced_potential(_quartic_without_hessvec(A))}[kind]()
    pairs = ((_second_order_rhs(V), _slice_store_second_order_rhs(V), 2 * n),
             (_variational_rhs(V), _slice_store_variational_rhs(V), 2 * n + 2 * n * n))
    for new, old, size in pairs:
        for _ in range(20):
            y = rng.standard_normal(size) * 10.0 ** rng.uniform(-2.0, 1.0)
            got, want = new(y), old(y)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert np.array_equal(got, want)


def test_dop853_tableau_matches_scipys_coefficients():
    # the tableau is written as literals; scipy's private coefficient module
    # (read here only) holds the same published DOP853 numbers, so a typo in
    # a digit shows as a mismatch; a failure names the scipy version
    from scipy.integrate._ivp import dop853_coefficients as ref
    where = f"scipy {scipy.__version__}"
    rows = DOP853.rows
    assert len(rows) == ref.N_STAGES == 12, where
    for i, row in enumerate(rows, 1):
        assert np.array_equal(row, ref.A[i, :i]), (i, where)
    # the last stage input is the solution (FSAL), with weights B
    assert np.array_equal(rows[-1], ref.B) and np.array_equal(integrate._DOP_B, ref.B), where
    # both estimates ignore the FSAL slope, scipy's 13th entry
    for ours, theirs in ((integrate._DOP_E3, ref.E3), (integrate._DOP_E5, ref.E5)):
        assert theirs[12] == 0.0, where
        assert np.array_equal(ours, theirs[:12]), where
    assert DOP853.exponent == 1 / 8 and DP45.exponent == 1 / 5
    # the loop tests only the last slope for finiteness: every other slope
    # K[i], i >= 1, enters stage i + 1 with a nonzero weight, in both pairs
    for pair in (DP45, DOP853):
        assert all(row[-1] != 0.0 for row in pair.rows[1:]), pair.name


@pytest.mark.parametrize("rate, rtol", [(1.0, 1e-9), (50.0, 1e-12)])
def test_dop853_first_same_as_last_work_count(rate, rtol):
    # twelve rhs calls per attempted step, one at y0 and one at the Euler
    # probe of the pair's estimated first step
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        return -rate * y

    raw = rk_adaptive(rhs, np.array([1.0]), 1.0, rtol=rtol, pair=DOP853)
    assert raw.termination == TERM_HORIZON and raw.meta["method"] == "dop853"
    assert calls == 2 + 12 * (raw.meta["n_steps"] + raw.meta["n_rejected"])
    assert abs(raw.ys[-1, 0] - np.exp(-rate)) < 10.0 * rtol


@pytest.mark.parametrize("A, x0, v0, T_", [
    ([[1.3, 0.4], [0.4, 1.8]], [1.0, -0.5], [0.3, 0.2], 4.0),
    ([[1.0, 0.3, 0.0], [0.3, 1.5, -0.2], [0.0, -0.2, 0.6]], [1.0, -1.0, 0.5],
     [0.0, 0.4, -0.1], 6.0),
    ([[1.0, 0.0], [0.0, 2.0]], [1.0, 1.0], [-1.0, -2.0], 6.0),
], ids=["offdiag-T4", "3d-T6", "diag12-evanescent-T6"])
def test_dop853_matches_the_closed_form_in_a_fifth_of_the_steps(A, x0, v0, T_):
    # v'' = A^2 v has v(t) = Q (cosh(t L) c + sinh(t L) L^{-1} d), with
    # A = Q L Q', c = Q' x0, d = Q' v0
    A, x0, v0 = np.array(A), np.array(x0), np.array(v0)
    rhs = _second_order_rhs(make_quadratic(A).v)
    lam, Q = np.linalg.eigh(A)
    steps = {}
    for pair in (DP45, DOP853):
        raw = rk_adaptive(rhs, np.r_[x0, v0], T_, rtol=1e-10, pair=pair)
        assert raw.termination == TERM_HORIZON
        tl = np.outer(raw.times, lam)
        exact = (np.cosh(tl) * (Q.T @ x0) + np.sinh(tl) * (Q.T @ v0 / lam)) @ Q.T
        rel = (np.linalg.norm(raw.ys[:, :len(x0)] - exact, axis=1)
               / np.linalg.norm(exact, axis=1))
        assert np.max(rel) < 1e-8, pair.name
        steps[pair.name] = raw.meta["n_steps"] + raw.meta["n_rejected"]
    assert 5 * steps["dop853"] <= steps["rk45"], steps



def test_estimated_first_step_skips_the_ramp_up():
    # DOP853's first step, Hairer's estimate, costs one rhs call, at its
    # Euler probe, and starts near the settled step where DP45's fixed
    # min(1e-3 T, 0.1) ramps up by at most 5x a step; the orbit stays on
    # its closed form
    A, x0 = np.diag([1.0, 2.0]), np.array([1.0, 1.0])
    field_rhs = _second_order_rhs(make_quadratic(A).v)
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        return field_rhs(y)

    y0 = np.r_[x0, -A @ x0]
    fixed = rk_adaptive(rhs, y0, 1.5, rtol=3e-11,
                        pair=DOP853._replace(first_step=DP45.first_step))
    calls = 0
    est = rk_adaptive(rhs, y0, 1.5, rtol=3e-11, pair=DOP853)
    assert calls == 2 + 12 * (est.meta["n_steps"] + est.meta["n_rejected"])
    assert fixed.times[1] == 1.5e-3 and est.times[1] > 10.0 * fixed.times[1]
    assert est.meta["n_steps"] + est.meta["n_rejected"] + 2 <= fixed.meta["n_steps"]
    exact = np.exp(-np.outer(est.times, [1.0, 2.0]))
    assert np.max(np.abs(est.ys[:, :2] - exact)) < 1e-8


@pytest.mark.parametrize("probe", ["raises", "nan"])
def test_estimated_first_step_falls_back_where_the_probe_fails(probe):
    # where the slope at the Euler probe is not there, the first trial step
    # is min(1e-3 T, 0.1), as without the estimate
    calls = 0

    def rhs(y):
        nonlocal calls
        calls += 1
        if calls == 2:
            if probe == "raises":
                raise NumericDomainError("the probe left the domain")
            return np.full_like(y, np.nan)
        return -y

    raw = rk_adaptive(rhs, np.array([1.0]), 1.0, rtol=1e-9, pair=DOP853)
    assert raw.times[1] == 1e-3
    assert abs(raw.ys[-1, 0] - np.exp(-1.0)) < 1e-8


def test_estimated_first_step_falls_back_where_the_slope_overflows():
    # ||f0||^2 overflows, so the first trial step is min(1e-3 T, 0.1) and
    # the Euler probe is not taken; rk_adaptive calls _first_step inside its
    # orbit's np.errstate, which makes the overflow silent
    calls = []
    y, f0 = np.array([1.0, 1.0]), np.array([1e200, 1e200])
    with warnings.catch_warnings(), np.errstate(over="ignore", invalid="ignore"):
        warnings.simplefilter("error")
        h = integrate._first_step(lambda y: calls.append(y) or f0, y, f0, 1.0, 1e-9,
                                  DOP853.exponent, slice(None))
    assert h == 1e-3
    assert calls == []


_EDGE_FLOATS = st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, 5e-324, -5e-324,
                                1e-310, 1.7e308, -1.7e308])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.one_of(_EDGE_FLOATS, st.floats(width=64)), min_size=1, max_size=40))
def test_finiteness_bytes_test_is_isfinite_all(values):
    # rk_adaptive's stage test and _check_state compare the bytes of
    # isfinite(y) with all ones: bool bytes are exactly 0 or 1, so this is
    # isfinite(y).all()'s verdict, on contiguous and strided vectors, with
    # nan, infinities, -0.0, subnormals and near-overflow entries, and it
    # raises no warning (tier-1 makes a RuntimeWarning an error)
    y = np.array(values)
    for v in (y, y[::2], y[::-1]):
        want = bool(np.isfinite(v).all())
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert (np.isfinite(v).tobytes() == b"\x01" * v.size) is want
        # the divergence test after it squares the norm, which may overflow
        with np.errstate(over="ignore"):
            assert (integrate._check_state(v) != "nan") is want


def test_adaptive_halves_h_on_a_nan_error_norm():
    # a step whose error norm is NaN fails the one accept test and halves
    # h, like a step with a non-finite stage
    hs = []

    def error(y, y_new, h, K, ctrl):
        hs.append(h)
        return np.nan if len(hs) <= 3 else integrate._dop853_error(y, y_new, h, K, ctrl)

    raw = rk_adaptive(lambda y: -y, np.array([1.0]), 1.0, rtol=1e-9,
                      pair=DOP853._replace(error=error))
    assert raw.termination == TERM_HORIZON
    assert raw.meta["n_rejected"] == 3
    assert hs[1:4] == [hs[0] / 2, hs[0] / 4, hs[0] / 8]
    assert raw.times[1] == hs[3]


def test_dop853_error_is_nan_where_its_denominator_overflows():
    # d = ||e5||^2 + 0.01 ||e3||^2 overflows: NaN both where ||e5||^2 does
    # too and where only ||e3||^2 does, which would read 0 and pass
    K = np.zeros((13, 1))
    K[0] = 1e160
    K11 = 1e160 * integrate._DOP_E5[0] / -integrate._DOP_E5[11]
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(integrate._dop853_error(None, None, 1.0, K, slice(None)))
        K[11] = K11
        assert np.isnan(integrate._dop853_error(None, None, 1.0, K, slice(None)))


def test_adaptive_rtol_bounds():
    with pytest.raises(ValueError):
        rk_adaptive(lambda y: -y, np.array([1.0]), 1.0, rtol=1e-1)
    with pytest.raises(ValueError):
        rk_adaptive(lambda y: -y, np.array([1.0]), 1.0, rtol=1e-13)


def test_adaptive_rejects_nan_atol():
    # err <= atol + rtol ||y|| never holds for a NaN atol, so every step
    # would be rejected; the counting rhs stops such a run
    calls = []

    def rhs(y):
        calls.append(1)
        if len(calls) > 100_000:
            raise RuntimeError("rk_adaptive kept rejecting steps")
        return -y

    with pytest.raises(ValueError, match="atol"):
        rk_adaptive(rhs, np.array([1.0]), 1.0, atol=np.nan)


def test_adaptive_divergence_guard():
    raw = rk_adaptive(lambda y: 2.0 * y, np.array([1.0]), 30.0, rtol=1e-8)
    assert raw.termination == TERM_DIVERGED
    assert raw.times[-1] < 30.0
    assert np.linalg.norm(raw.ys[-1]) > DEFAULT_R_MAX


@pytest.mark.parametrize("orbit", [
    lambda rhs, y0: rk4_fixed(rhs, y0, 1.0, 0.1, eps_crit=1e-10),
    lambda rhs, y0: rk_adaptive(rhs, y0, 1.0, eps_crit=1e-10, pair=DP45),
], ids=["rk4", "dp45"])
def test_an_overflowing_norm_ends_the_orbit_diverged_without_a_warning(orbit):
    # from 1e200 every squared norm (the state's, the slope's, the error
    # estimate's) overflows to inf: the orbit ends diverged after its first
    # step, and no RuntimeWarning escapes the integrator
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        raw = orbit(lambda y: -y, np.array([1e200]))
    assert raw.termination == TERM_DIVERGED
    assert raw.meta["n_steps"] == 1


def test_adaptive_step_collapse_on_finite_time_blowup():
    # y' = y^2 from y(0) = 1 blows up at t = 1: the orbit ends there, past
    # DEFAULT_R_MAX or on a collapsed step size, never at the horizon
    raw = rk_adaptive(lambda y: y * y, np.array([1.0]), 2.0, rtol=1e-9)
    assert raw.termination in (TERM_STEP_COLLAPSE, TERM_DIVERGED)
    assert raw.times[-1] < 1.05


def test_gradient_flow_quadratic_closed_form():
    pp = make_quadratic([[1.0]])
    traj = gradient_flow(pp, [1.0], 5.0, IntegratorOptions(rtol=1e-10))
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8
    # velocities are recomputed as -grad psi(u) exactly
    assert np.allclose(traj.velocities, -traj.states, atol=1e-15)


def test_gradient_flow_example_one_closed_form():
    pp = make_example_one()
    traj = gradient_flow(pp, [0.0], 10.0, IntegratorOptions(rtol=1e-9))
    exact = 1.0 - np.sqrt(1.0 + 2.0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6


@pytest.mark.parametrize("opts", [IntegratorOptions(),
                                  IntegratorOptions(method="rk4", h=0.05)],
                         ids=["rk45", "rk4"])
def test_gradient_flow_equilibrium_start(opts):
    # the integrator's first-stage test stops the flow at x0, and the one
    # node is padded to the constant orbit over [0, T]
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    traj = gradient_flow(pp, [0.0, 0.0], 3.0, opts)
    assert traj.termination == TERM_CRIT
    assert traj.times.tolist() == [0.0, 3.0]
    assert traj.meta["stopped_at"] == 0.0
    assert traj.meta["n_steps"] == traj.meta["n_rejected"] == 0
    # the meta is the integrator's own
    assert {"rtol", "atol"} <= set(traj.meta) if opts.method == "rk45" else "h" in traj.meta
    assert np.allclose(traj.states, 0.0)
    assert np.allclose(traj.velocities, 0.0)


def test_gradient_flow_stops_at_critical_point():
    pp = make_quadratic([[1.0]])
    # ||grad psi(u(t))|| = e^{-t} falls below DEFAULT_EPS_CRIT = 1e-10 near t = 23
    traj = gradient_flow(pp, [1.0], 60.0)
    assert traj.termination == TERM_CRIT
    assert traj.meta["stopped_at"] < 60.0
    assert np.linalg.norm(pp.psi.gradient(traj.states[-1])) < 1e-9


@pytest.mark.parametrize("opts", [IntegratorOptions(),
                                  IntegratorOptions(method="rk4", h=0.05)],
                         ids=["rk45", "rk4"])
@pytest.mark.parametrize("T,termination", [(3.0, TERM_HORIZON), (60.0, TERM_CRIT)])
def test_gradient_flow_calls_grad_psi_once_per_stage(opts, T, termination):
    # the stop test reads the first stage, so grad psi is called once per
    # right-hand-side evaluation, plus the batched velocities
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    calls = []

    def gradient(x):
        calls.append(np.shape(x))
        return pp.psi.gradient(x)

    psi = dataclasses.replace(pp.psi, gradient=gradient)
    traj = gradient_flow(make_pair(psi), [1.0, 1.0], T, opts)
    assert traj.termination == termination
    attempted = traj.meta["n_steps"] + traj.meta["n_rejected"]
    if opts.method == "rk45":
        stages = 1 + 6 * attempted
    else:
        stages = 4 * attempted + (termination == TERM_CRIT)
    assert len(calls) == stages + 1
    assert calls[-1] == traj.states.shape


def test_second_order_quadratic_closed_form():
    # v'' = v with v(0) = 1, v'(0) = -1 gives e^{-t}
    pp = make_quadratic([[1.0]])
    traj = second_order_flow(pp.v, [1.0], [-1.0], 8.0,
                             IntegratorOptions(rtol=1e-10))
    assert traj.termination == TERM_HORIZON
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-7
    assert np.max(np.abs(traj.velocities[:, 0] + exact)) < 1e-7


def test_second_order_neg_square_growth():
    # V = 2 x^2 gives v'' = 4v; from (1, 2) the orbit is e^{2t}
    from evanflow.fields import make_counterexample
    pp = make_counterexample("neg_square")
    traj = second_order_flow(pp.v, [1.0], [2.0], 8.0)
    assert traj.termination == TERM_DIVERGED
    assert traj.t_end < 8.0


def test_path_integral_trapezoid():
    pp = make_quadratic([[1.0]])
    traj = gradient_flow(pp, [1.0], 4.0, IntegratorOptions(rtol=1e-10))
    val = path_integral(traj, np.ones(len(traj)))
    assert val == pytest.approx(traj.t_end, abs=1e-12)


def test_path_integral_rejects_bad_values():
    pp = make_quadratic([[1.0]])
    traj = gradient_flow(pp, [1.0], 1.0, IntegratorOptions(method="rk4", h=0.25))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericDomainError):
            path_integral(traj, np.r_[np.ones(len(traj) - 1), bad])
    for m in (len(traj) - 1, len(traj) + 1):
        with pytest.raises(ValueError):
            path_integral(traj, np.ones(m))
    one_node = dataclasses.replace(traj, times=traj.times[:1],
                                   states=traj.states[:1],
                                   velocities=traj.velocities[:1])
    with pytest.raises(ValueError):
        path_integral(one_node, np.ones(1))


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.lists(st.floats(-2.0, 2.0), min_size=4, max_size=4),
       st.lists(st.floats(0.01, 1.0), min_size=1, max_size=12))
def test_path_integral_with_slopes_is_exact_on_cubics(coef, gaps):
    # g(t) = c0 + c1 t + c2 t^2 + c3 t^3 on any node spacing: the endpoint
    # correction sum h^2/12 (g'_i - g'_{i+1}) removes the trapezoid's error
    c0, c1, c2, c3 = coef
    t = np.concatenate([[0.0], np.cumsum(gaps)])
    g = c0 + t * (c1 + t * (c2 + t * c3))
    dg = c1 + t * (2.0 * c2 + 3.0 * t * c3)
    traj = integrate.Trajectory(t, t[:, None], np.ones((len(t), 1)), TERM_HORIZON)
    T_ = t[-1]
    exact = T_ * (c0 + T_ * (c1 / 2.0 + T_ * (c2 / 3.0 + T_ * c3 / 4.0)))
    scale = 1.0 + sum(abs(c) for c in coef) * max(1.0, T_) ** 4
    assert path_integral(traj, g, dg) == pytest.approx(exact, abs=1e-12 * scale)
    # without slopes it is the plain trapezoid
    assert path_integral(traj, g) == integrate.kernels.trapezoid(t, g)


def test_path_integral_rejects_bad_slopes():
    pp = make_quadratic([[1.0]])
    traj = gradient_flow(pp, [1.0], 1.0, IntegratorOptions(method="rk4", h=0.25))
    ones = np.ones(len(traj))
    for bad in (np.nan, np.inf):
        with pytest.raises(NumericDomainError):
            path_integral(traj, ones, np.r_[ones[1:], bad])
    with pytest.raises(ValueError):
        path_integral(traj, ones, ones[1:])


def test_trajectory_csv_contract(tmp_path):
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    traj = gradient_flow(pp, [1.0, 1.0], 1.0, IntegratorOptions(method="rk4", h=0.25))
    # the CSV the CLI writes for the same flow
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"integrator": "rk4", "h": 0.25}))
    assert main(["flow", "--config", str(cfg), "--potential", "quadratic:1,0;0,2",
                 "--x0", "1,1", "--T", "1", "--checks", "lyapunov",
                 "--out", str(tmp_path)]) == 0
    data = (tmp_path / "flow_trajectory.csv").read_bytes()
    assert b"\r" not in data
    lines = data.decode().strip().split("\n")
    assert lines[0] == "t,x0,x1,w0,w1"
    assert len(lines) == len(traj) + 1
    first = lines[1].split(",")
    assert float(first[0]) == 0.0
    assert float(first[1]) == 1.0
    # 17 significant digits are preserved on a round trip
    row3 = np.array([float(v) for v in lines[3].split(",")])
    assert row3[1] == traj.states[2, 0]
