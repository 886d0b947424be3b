"""Integrators: closed-form oracles, terminations, CSV contract."""
import dataclasses

import numpy as np
import pytest

from evanflow import integrate
from evanflow.fields import (
    NumericDomainError,
    make_counterexample,
    make_example_one,
    make_quadratic,
)
from evanflow.integrate import (
    TERM_CRIT,
    TERM_DIVERGED,
    TERM_HORIZON,
    TERM_STEP_COLLAPSE,
    IntegratorOptions,
    _variational_rhs,
    gradient_flow,
    path_integral,
    rk4_fixed,
    rk_adaptive,
    second_order_flow,
    write_trajectory_csv,
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
    """The Dormand-Prince loop that evaluates all seven stages every step."""
    y, t, h, ctrl = np.asarray(y0, float).copy(), 0.0, min(1e-3 * T, 0.1), slice(n_ctrl)
    times, ys = [0.0], [y.copy()]
    while t < T * (1.0 - 1e-15):
        h = min(h, T - t)
        K = np.empty((7, y.size))
        K[0] = rhs(y)
        for i in range(1, 7):
            K[i] = rhs(y + h * (integrate._DP_A[i] @ K[:i]))
        y5 = y + h * (integrate._DP_B5 @ K)
        y4 = y + h * (integrate._DP_B4 @ K)
        err = float(np.linalg.norm((y5 - y4)[ctrl]))
        tol = atol + rtol * float(np.linalg.norm(y[ctrl]))
        if err <= tol:
            t, y = t + h, y5
            times.append(t)
            ys.append(y.copy())
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(5.0, max(0.2, factor))
    return np.asarray(times), np.asarray(ys)


def test_adaptive_nodes_equal_the_seven_stage_loop():
    # reusing the last stage (FSAL) changes no node, bit for bit: on the
    # variational state of a nonlinear V, error-controlled on (v, w) or on
    # all of it, and on a fast decay whose steps are rejected
    rhs = _variational_rhs(make_counterexample("quartic_saddle").v)
    y0 = np.concatenate([[0.3, -0.2], [-0.1, 0.1], np.zeros(4), np.eye(2).ravel()])
    for f, y, T, rtol, n_ctrl in ((rhs, y0, 3.0, 1e-10, 4), (rhs, y0, 3.0, 1e-6, None),
                                  (lambda y: -50.0 * y, [1.0], 1.0, 1e-12, None)):
        raw = rk_adaptive(f, y, T, rtol=rtol, n_ctrl=n_ctrl)
        times, ys = _seven_stage_reference(f, y, T, rtol, n_ctrl)
        assert raw.termination == TERM_HORIZON
        assert np.array_equal(raw.times, times)
        assert np.array_equal(raw.ys, ys)
    assert raw.meta["n_rejected"] > 0


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
    raw = rk_adaptive(lambda y: 2.0 * y, np.array([1.0]), 30.0, rtol=1e-8,
                      r_max=1e6)
    assert raw.termination == TERM_DIVERGED
    assert raw.times[-1] < 30.0
    assert np.linalg.norm(raw.ys[-1]) > 1e6


def test_adaptive_step_collapse_on_finite_time_blowup():
    # y' = y^2 from y(0) = 1 blows up at t = 1; with a huge r_max the step
    # size collapses instead
    raw = rk_adaptive(lambda y: y * y, np.array([1.0]), 2.0, rtol=1e-9,
                      r_max=1e300)
    assert raw.termination in (TERM_STEP_COLLAPSE, TERM_DIVERGED)
    assert raw.times[-1] < 1.05


def test_gradient_flow_quadratic_closed_form():
    pp = make_quadratic([[1.0]])
    traj = gradient_flow(pp, [1.0], 5.0, IntegratorOptions(rtol=1e-10))
    exact = np.exp(-traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-8
    assert traj.system_tag == "first_order"
    # velocities are recomputed as -grad psi(u) exactly
    assert np.allclose(traj.velocities, -traj.states, atol=1e-15)


def test_gradient_flow_example_one_closed_form():
    pp = make_example_one()
    traj = gradient_flow(pp, [0.0], 10.0, IntegratorOptions(rtol=1e-9))
    exact = 1.0 - np.sqrt(1.0 + 2.0 * traj.times)
    assert np.max(np.abs(traj.states[:, 0] - exact)) < 1e-6


def test_gradient_flow_equilibrium_start():
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    traj = gradient_flow(pp, [0.0, 0.0], 3.0)
    assert traj.termination == TERM_CRIT
    assert len(traj) == 2
    assert np.allclose(traj.states, 0.0)
    assert np.allclose(traj.velocities, 0.0)


def test_gradient_flow_stops_at_critical_point():
    pp = make_quadratic([[1.0]])
    traj = gradient_flow(pp, [1.0], 60.0, IntegratorOptions(eps_crit=1e-6))
    assert traj.termination == TERM_CRIT
    assert traj.meta["stopped_at"] < 60.0
    assert np.linalg.norm(pp.psi.gradient(traj.states[-1])) < 1e-5


@pytest.mark.parametrize("opts", [IntegratorOptions(),
                                  IntegratorOptions(method="rk4", h=0.05)],
                         ids=["rk45", "rk4"])
@pytest.mark.parametrize("T,termination", [(3.0, TERM_HORIZON), (60.0, TERM_CRIT)])
def test_gradient_flow_calls_grad_psi_once_per_stage(opts, T, termination):
    # the stop test reads the first stage, so grad psi is called once per
    # right-hand-side evaluation, plus the equilibrium test at x0 and the
    # batched velocities
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    calls = []

    def gradient(x):
        calls.append(np.shape(x))
        return pp.psi.gradient(x)

    psi = dataclasses.replace(pp.psi, gradient=gradient)
    traj = gradient_flow(psi, [1.0, 1.0], T, opts)
    assert traj.termination == termination
    attempted = traj.meta["n_steps"] + traj.meta["n_rejected"]
    if opts.method == "rk45":
        stages = 1 + 6 * attempted
    else:
        stages = 4 * attempted + (termination == TERM_CRIT)
    assert len(calls) == stages + 2
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


def test_trajectory_csv_contract(tmp_path):
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    traj = gradient_flow(pp, [1.0, 1.0], 1.0, IntegratorOptions(method="rk4", h=0.25))
    out = tmp_path / "traj.csv"
    write_trajectory_csv(traj, out)
    data = out.read_bytes()
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
