"""Diagnostics checks against closed-form orbits and known counterexamples."""
import json

import numpy as np
import pytest

from evanflow.diagnostics import (
    CheckResult,
    DiagnosticsReport,
    check_contraction,
    check_distance_monotone,
    check_energy_identity,
    check_first_integral,
    check_grad_norm_monotone,
    check_hardy,
    check_level_integral_bound,
    check_limit_point,
    check_lyapunov_psi,
    check_modula_equality,
    check_monotone_gradient,
    check_phi_residual,
    check_velocity_bound,
    evanescence_measures,
    kinetic_integral,
)
from evanflow.fields import make_counterexample, make_example_one, make_quadratic
from evanflow.integrate import (
    IntegratorOptions,
    Trajectory,
    gradient_flow,
    second_order_flow,
)

QUAD_1D = make_quadratic([[1.0]])
QUAD_2D = make_quadratic([[1.0, 0.0], [0.0, 2.0]])


def quad_flow(pp=QUAD_1D, x0=(1.0,), T=10.0, **kw):
    return gradient_flow(pp, list(x0), T, IntegratorOptions(**kw))


def evanescent_orbit(pp=QUAD_2D, x0=(1.0, 1.0), T=10.0, **kw):
    x0 = np.asarray(x0, float)
    v0 = -np.asarray(pp.psi.gradient(x0), float)
    return second_order_flow(pp.v, x0, v0, T, IntegratorOptions(**kw))


# --- first-order checks ---------------------------------------------------

def test_lyapunov_passes_on_quadratic():
    c = check_lyapunov_psi(quad_flow(), QUAD_1D)
    assert c.passed and c.check_id == "lyapunov_psi"


def test_kinetic_integral_hermite_accuracy():
    traj = quad_flow(T=10.0, rtol=1e-9)
    # exact integral of e^{-2t} speeds: (1 - e^{-2T}) / 2
    exact = 0.5 * (1.0 - np.exp(-20.0))
    assert kinetic_integral(traj) == pytest.approx(exact, abs=1e-7)


def test_energy_identity_quadratic_and_example_one():
    for pp, x0 in ((QUAD_1D, (1.0,)), (QUAD_2D, (1.0, 1.0))):
        c = check_energy_identity(quad_flow(pp, x0), pp)
        assert c.passed, c.notes
    pp = make_example_one()
    c = check_energy_identity(gradient_flow(pp, [0.0], 10.0), pp)
    assert c.passed, c.notes


def test_grad_norm_monotone_fails_on_cubic():
    pp = make_counterexample("cubic")
    traj = gradient_flow(pp, [-1.0], 0.3)
    c = check_grad_norm_monotone(traj, pp)
    assert not c.passed


def test_distance_monotone():
    c = check_distance_monotone(quad_flow(QUAD_2D, (1.0, 1.0)), [0.0, 0.0], QUAD_2D)
    assert c.passed
    with pytest.raises(ValueError):
        check_distance_monotone(quad_flow(), [0.5], QUAD_1D)


def test_velocity_bound_quadratic():
    c = check_velocity_bound(quad_flow(), QUAD_1D, [0.3])
    assert c.passed
    assert c.worst_violation == 0.0


def test_level_integral_bound_quadratic():
    traj = quad_flow(T=20.0)
    c = check_level_integral_bound(traj, QUAD_1D, [0.0])
    assert c.passed, c.notes
    with pytest.raises(ValueError):
        check_level_integral_bound(traj, QUAD_1D, [0.7])


def test_limit_point_settled_and_escaping():
    c = check_limit_point(quad_flow(T=30.0), QUAD_1D)
    assert c.passed and "settled" in c.notes
    pp = make_example_one()
    c = check_limit_point(gradient_flow(pp, [0.0], 4.0), pp)
    assert c.passed and "escaping" in c.notes
    lin = make_counterexample("linear")
    c = check_limit_point(gradient_flow(lin, [0.0], 5.0), lin)
    assert c.passed and "escaping" in c.notes


def test_limit_point_fails_on_oscillating_tail():
    ts = np.linspace(0.0, 10.0, 101)
    states = np.cos(ts)[:, None]
    traj = Trajectory(ts, states, -np.sin(ts)[:, None], "first_order",
                      "horizon_reached", {})
    c = check_limit_point(traj, QUAD_1D)
    assert not c.passed


# --- second-order checks --------------------------------------------------

def test_first_integral_conserved():
    traj = evanescent_orbit(rtol=1e-9)
    c = check_first_integral(traj, QUAD_2D.v)
    assert c.passed
    assert c.worst_violation < 1e-7


def test_first_integral_detects_drift():
    ts = np.linspace(0.0, 1.0, 11)
    states = np.exp(-ts)[:, None]
    vel = -np.exp(-0.5 * ts)[:, None]  # wrong decay rate: I drifts
    traj = Trajectory(ts, states, vel, "second_order", "horizon_reached", {})
    c = check_first_integral(traj, QUAD_1D.v)
    assert not c.passed


def test_modula_equality_on_evanescent_orbit():
    traj = evanescent_orbit()
    assert check_modula_equality(traj, psi=QUAD_2D.psi, V=QUAD_2D.v).passed
    # V-only variant uses sqrt(2V) as the reference modulus
    assert check_modula_equality(traj, V=QUAD_2D.v).passed


def test_modula_requires_some_reference():
    with pytest.raises(ValueError):
        check_modula_equality(evanescent_orbit())


def test_phi_residual_sign_certificate():
    traj = evanescent_orbit()
    assert check_phi_residual(traj, QUAD_2D.psi, sigma=+1).passed
    # sigma = -1 would certify the time-reversed system; it must fail here
    assert not check_phi_residual(traj, QUAD_2D.psi, sigma=-1).passed


def test_phi_residual_neg_square_needs_sigma_minus():
    # psi = -x^2: the evanescent orbit e^{-2t} solves w' = +grad psi(w)
    pp = make_counterexample("neg_square")
    traj = second_order_flow(pp.v, [1.0], [-2.0], 5.0, IntegratorOptions(rtol=1e-10))
    assert check_phi_residual(traj, pp.psi, sigma=-1).passed
    assert not check_phi_residual(traj, pp.psi, sigma=+1).passed


def test_hardy_inequality_on_evanescent_orbits():
    for traj in (evanescent_orbit(), evanescent_orbit(QUAD_1D, (1.0,))):
        c = check_hardy(traj)
        assert c.passed
        assert c.worst_violation <= 1e-6


def test_orbit_integrands_match_per_node_loops(monkeypatch):
    # the integrands are evaluated on all nodes at once; each value is the
    # one the per-node formula gives, bit for bit
    import evanflow.diagnostics as diagnostics
    seen = []
    monkeypatch.setattr(diagnostics, "path_integral",
                        lambda traj, values: seen.append(values) or 0.0)
    traj = evanescent_orbit()
    check_hardy(traj)
    t, X, W = traj.times, traj.states, traj.velocities
    hardy = [W[0].dot(W[0])] + [(x - X[0]).dot(x - X[0]) / (s * s)
                                for s, x in zip(t[1:], X[1:])]
    flow = quad_flow(QUAD_2D, (1.0, -1.0))
    check_level_integral_bound(flow, QUAD_2D, [0.0, 0.0])
    level = [float(QUAD_2D.psi.value(x)) for x in flow.states]
    for got, want in zip(seen, (hardy, [w.dot(w) for w in W], level)):
        assert np.array_equal(got, want)


def test_contraction_quadratic_pairs():
    opts = dict(method="rk4", h=0.01)
    t1 = evanescent_orbit(QUAD_1D, (1.0,), **opts)
    t2 = evanescent_orbit(QUAD_1D, (2.0,), **opts)
    c = check_contraction(t1, t2)
    assert c.passed, c.notes


def test_contraction_rejects_mismatched_grids():
    t1 = evanescent_orbit(QUAD_1D, (1.0,), method="rk4", h=0.01)
    t2 = evanescent_orbit(QUAD_1D, (2.0,), method="rk4", h=0.02)
    with pytest.raises(ValueError):
        check_contraction(t1, t2)


# --- field-level checks ---------------------------------------------------

def test_monotone_gradient_cubic_split():
    rng = np.random.default_rng(0)
    pairs = rng.uniform(-2.0, 2.0, size=(30, 2, 1))
    pp = make_counterexample("cubic")
    assert check_monotone_gradient(pp.v, pairs).passed
    assert not check_monotone_gradient(pp.psi, pairs).passed


def test_monotone_gradient_quartic_saddle_split():
    rng = np.random.default_rng(1)
    pairs = rng.uniform(-2.0, 2.0, size=(30, 2, 2))
    pp = make_counterexample("quartic_saddle")
    assert check_monotone_gradient(pp.v, pairs).passed
    assert not check_monotone_gradient(pp.psi, pairs).passed


def test_evanescence_classification_strong_vs_none():
    strong = evanescence_measures(evanescent_orbit(T=12.0), QUAD_2D.v)
    assert strong["classification"] == "strong"
    # density ||v'||^2 + V = 3 V along an evanescent orbit;
    # for v = (e^{-t}, e^{-2t}) the integral is 3 (1/4 + 1/2) = 2.25
    assert strong["ev_integral"] == pytest.approx(2.25, abs=5e-3)

    pp = make_counterexample("neg_square")
    grow = second_order_flow(pp.v, [1.0], [2.0], 8.0)
    none = evanescence_measures(grow, pp.v)
    assert none["classification"] == "none"


def test_evanescence_weak_proxy_on_example_one():
    # Crit_psi is empty: speeds decay like 1/sqrt(1+2t) but the action
    # integral keeps growing, so only the weak proxy can hold
    pp = make_example_one()
    x0 = np.array([0.0])
    traj = second_order_flow(pp.v, x0, -pp.psi.gradient(x0), 60.0,
                             IntegratorOptions(rtol=1e-10))
    m = evanescence_measures(traj, pp.v)
    assert m["classification"] == "weak_only_proxy"


# --- report plumbing ------------------------------------------------------

def test_report_rejects_duplicate_ids():
    rep = DiagnosticsReport(subject="x")
    rep.add(CheckResult("a", True, 0.0, None, 1.0))
    with pytest.raises(ValueError):
        rep.add(CheckResult("a", True, 0.0, None, 1.0))


def test_report_json_round_trip():
    rep = DiagnosticsReport(subject="s")
    rep.add(CheckResult("a", True, 0.0, [1.0, 2.0], 1e-6, notes="n"))
    rep.add(CheckResult("b", False, 2.0, 0.5, 1e-6))
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["subject"] == "s"
    assert data["summary"] == {"total": 2, "passed": 1, "failed": 1}
    assert not rep.all_passed
