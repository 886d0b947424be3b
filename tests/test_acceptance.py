"""Acceptance gate: one test per release criterion, each printing a single
PASS/FAIL line with the measured quantity."""
import numpy as np
import pytest

from evanflow.cli import main as cli_main
from evanflow.diagnostics import (
    check_contraction,
    check_energy_identity,
    check_first_integral,
    check_hardy,
    check_level_integral_bound,
    check_modula_equality,
    check_phi_residual,
    check_velocity_bound,
    evanescence_measures,
)
from evanflow.eikonal import (
    convexity_criterion_check,
    determination_check,
    determination_verdict,
    eikonal_residual,
    grid_points,
    reconstruct_grid,
)
from evanflow.evanescent import cross_validate, discrete_action, minimize_action, shoot_evanescent
from evanflow.fields import (
    catalog_ids,
    make_counterexample,
    make_example_one,
    make_quadratic,
    resolve_potential,
)
from evanflow.integrate import (
    TERM_DIVERGED,
    IntegratorOptions,
    gradient_flow,
    second_order_flow,
)

QUAD_1D = make_quadratic([[1.0]])
QUAD_2D = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
QUAD_OFF = make_quadratic([[2.0, 0.5], [0.5, 1.0]])

CONVEX_FLOWS = [
    (QUAD_1D, [1.0]),
    (QUAD_2D, [1.0, 1.0]),
    (QUAD_OFF, [1.0, -1.0]),
    (make_example_one(), [0.0]),
]


@pytest.fixture
def announce(capsys):
    def _announce(num, ok, detail):
        with capsys.disabled():
            print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
        assert ok, detail
    return _announce


def evanescent_orbit(pp, x0, T=10.0, rtol=1e-9, method="rk45", h=1e-2):
    x0 = np.asarray(x0, float)
    v0 = -np.asarray(pp.psi.gradient(x0), float)
    return second_order_flow(pp.v, x0, v0, T,
                             IntegratorOptions(method=method, h=h, rtol=rtol))


def test_criterion_01_closed_form_orbit(announce):
    pp = make_example_one()
    traj = gradient_flow(pp, [0.0], 10.0, IntegratorOptions(rtol=1e-9))
    err = float(np.max(np.abs(traj.states[:, 0]
                              - (1.0 - np.sqrt(1.0 + 2.0 * traj.times)))))
    announce(1, err < 1e-6, f"closed-form orbit max error {err:.3g} (< 1e-6)")


def test_criterion_02_energy_identity(announce):
    worst = 0.0
    for pp, x0 in CONVEX_FLOWS:
        traj = gradient_flow(pp, x0, 10.0, IntegratorOptions(rtol=1e-9))
        c = check_energy_identity(traj, pp.psi)
        worst = max(worst, c.worst_violation)
    announce(2, worst < 1e-5,
             f"energy identity worst gap {worst:.3g} on convex flows (< 1e-5)")


def test_criterion_03_first_integral(announce):
    traj = evanescent_orbit(QUAD_2D, [1.0, 1.0], T=10.0, rtol=1e-9)
    drift = check_first_integral(traj, QUAD_2D.v).worst_violation
    announce(3, drift < 1e-7, f"first-integral drift {drift:.3g} (< 1e-7)")


def test_criterion_04_modula_and_phi(announce):
    worst_mod, worst_phi = 0.0, 0.0
    for pp, x0 in [(QUAD_1D, [1.0]), (QUAD_2D, [1.0, 1.0]), (QUAD_OFF, [1.0, -1.0])]:
        traj = evanescent_orbit(pp, x0)
        worst_mod = max(worst_mod,
                        check_modula_equality(traj, psi=pp.psi).worst_violation)
        worst_phi = max(worst_phi,
                        check_phi_residual(traj, pp.psi, sigma=+1).worst_violation)
    ok = worst_mod < 1e-6 and worst_phi < 1e-3
    announce(4, ok, f"modula gap {worst_mod:.3g} (< 1e-6), "
                    f"phi residual {worst_phi:.3g} (< 1e-3)")


def test_criterion_05_contraction(announce):
    worst = 0.0
    for pp, a, b in [
        (QUAD_1D, [1.0], [2.0]),
        (QUAD_2D, [1.0, 1.0], [2.0, 2.0]),
    ]:
        opts = dict(T=10.0, method="rk4", h=0.01)
        t1 = evanescent_orbit(pp, a, **opts)
        t2 = evanescent_orbit(pp, b, **opts)
        c = check_contraction(t1, t2, tol=1e-6)
        worst = max(worst, c.worst_violation)
    announce(5, worst <= 1e-6,
             f"contraction worst monotonicity/convexity violation {worst:.3g} (<= 1e-6)")


def test_criterion_06_hardy(announce):
    worst = -np.inf
    for pp, x0 in [(QUAD_1D, [1.0]), (QUAD_2D, [1.0, 1.0]), (QUAD_OFF, [1.0, -1.0])]:
        traj = evanescent_orbit(pp, x0, T=12.0)
        assert evanescence_measures(traj, pp.v)["classification"] == "strong"
        worst = max(worst, check_hardy(traj).worst_violation)
    announce(6, worst <= 1e-6,
             f"Hardy inequality worst violation {worst:.3g} (<= 1e-6)")


def test_criterion_07_counterexample_divergence(announce):
    pp = make_counterexample("neg_square")
    traj = second_order_flow(pp.v, [1.0], [2.0], 8.0)
    m = evanescence_measures(traj, pp.v)
    ok = traj.termination == TERM_DIVERGED and traj.t_end < 8.0 \
        and m["classification"] == "none"
    announce(7, ok, f"growing orbit diverged at t = {traj.t_end:.3g} (< 8), "
                    f"classified {m['classification']!r}")


def test_criterion_08_convexity_criterion(announce):
    rng = np.random.default_rng(0)
    bundles_ok = True
    for name in ("cubic", "quartic_saddle"):
        pp = make_counterexample(name)
        pairs = rng.uniform(-2, 2, size=(20, 2, pp.dim))
        probes = rng.uniform(-2, 2, size=(10, pp.dim))
        rep = convexity_criterion_check(pp, pairs, probes)
        by = {c.check_id: c.passed for c in rep.checks}
        bundles_ok &= (by["crit_V_convex"] and not by["crit_psi_bounded_evidence"]
                       and not by["crit_psi_convex"] and by["crit_implication_holds"])
    no_violation = True
    named = [pid for pid in catalog_ids() if ":" not in pid]
    catalog = [resolve_potential(pid) for pid in named]
    catalog += [QUAD_1D, QUAD_2D, QUAD_OFF]
    for pp in catalog:
        pairs = rng.uniform(-2, 2, size=(20, 2, pp.dim))
        probes = rng.uniform(-2, 2, size=(10, pp.dim))
        rep = convexity_criterion_check(pp, pairs, probes)
        no_violation &= rep.get("crit_implication_holds").passed
    announce(8, bundles_ok and no_violation,
             "convexity bundles split as expected; no implication violation "
             "on the full catalog")


def test_criterion_09_action_solve(announce):
    res = minimize_action(QUAD_2D.v, [1.0, 1.0], 12.0, 240, psi=QUAD_2D.psi)
    ts = res.trajectory.times
    exact = np.stack([np.exp(-ts), np.exp(-2.0 * ts)], axis=1)
    node_err = float(np.max(np.abs(res.trajectory.states - exact)))

    rng = np.random.default_rng(3)
    worst_rel = 0.0
    for _ in range(10):
        W = rng.normal(size=(14, 2))
        _, g = discrete_action(QUAD_2D.v, W, 0.1, 0.5)
        eps = 1e-6
        k, j = int(rng.integers(1, 14)), int(rng.integers(0, 2))
        Wp, Wm = W.copy(), W.copy()
        Wp[k, j] += eps
        Wm[k, j] -= eps
        vp, _ = discrete_action(QUAD_2D.v, Wp, 0.1, 0.5, want_grad=False)
        vm, _ = discrete_action(QUAD_2D.v, Wm, 0.1, 0.5, want_grad=False)
        g_fd = (vp - vm) / (2 * eps)
        worst_rel = max(worst_rel,
                        abs(g[k - 1, j] - g_fd) / max(abs(g_fd), 1e-8))
    ok = res.converged and node_err < 1e-3 and worst_rel < 1e-5
    announce(9, ok, f"action path node error {node_err:.3g} (< 1e-3), "
                    f"gradient FD rel error {worst_rel:.3g} (< 1e-5)")


def test_criterion_10_shooting(announce):
    res = shoot_evanescent(QUAD_1D.v, [1.0], 12.0, psi=QUAD_1D.psi)
    v0_err = abs(res.detail["v0"][0] + 1.0)

    worst_xv = 0.0
    for pp, x0 in [(QUAD_1D, [1.0]), (QUAD_2D, [1.0, 1.0]), (QUAD_OFF, [1.0, -1.0])]:
        rep = cross_validate(pp, x0)
        worst_xv = max(worst_xv, rep.get("xv_action_vs_shoot").worst_violation)
    ok = res.converged and v0_err < 1e-4 and worst_xv < 5e-3
    announce(10, ok, f"shooting v0 error {v0_err:.3g} (< 1e-4), "
                     f"action-vs-shoot node distance {worst_xv:.3g} (< 5e-3)")


def test_criterion_11_eikonal_reconstruction(announce):
    f = QUAD_2D.v.scaled(2.0)
    spec = [(-1.0, 1.0, 5), (-1.0, 1.0, 5)]
    pts = grid_points(spec)
    rec = reconstruct_grid(f, pts)
    exact = 0.5 * (pts[:, 0] ** 2 + 2.0 * pts[:, 1] ** 2)
    err = float(np.max(np.abs(rec.psi_hat - exact)))
    resid = eikonal_residual(rec, f, spec)
    ok = err < 1e-2 and resid.passed
    announce(11, ok, f"reconstruction max error {err:.3g} (< 1e-2), "
                     f"eikonal residual {resid.worst_violation:.3g} (< 5e-2)")


def test_criterion_12_determination(announce, tmp_path):
    pts = np.random.default_rng(5).uniform(-2, 2, size=(30, 2))
    rep = determination_check(QUAD_2D.psi, QUAD_2D.psi.shifted(5.0), pts)
    verdict, c = determination_verdict(rep)
    pass_ok = verdict == "pass" and abs(c - 5.0) < 1e-6

    rc_lin = cli_main(["determine", "linear", "neg_linear", "--out", str(tmp_path)])
    rc_quad = cli_main(["determine", "quadratic:1,0;0,2", "quadratic:-1,0;0,-2",
                        "--out", str(tmp_path)])
    ok = pass_ok and rc_lin == 3 and rc_quad == 3
    announce(12, ok, f"shifted pair verdict {verdict!r} with c = {c:.9g}; "
                     f"mirror pairs exit codes {rc_lin}, {rc_quad} (both 3)")


def test_criterion_13_velocity_and_level_bounds(announce):
    worst = 0.0
    for pp, x0, xhat in [(QUAD_1D, [1.0], [0.0]),
                         (QUAD_2D, [1.0, 1.0], [0.0, 0.0])]:
        traj = gradient_flow(pp, x0, 20.0, IntegratorOptions(rtol=1e-9))
        worst = max(worst, check_velocity_bound(traj, pp.psi, xhat).worst_violation)
        worst = max(worst, check_level_integral_bound(traj, pp.psi, xhat).worst_violation)
    announce(13, worst <= 1e-6,
             f"velocity/level-integral bounds worst violation {worst:.3g} (<= 1e-6)")


def test_criterion_14_determinism(announce, tmp_path):
    argv = ["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
            "--out", str(tmp_path)]
    assert cli_main(argv) == 0
    files = ["flow_report.json", "flow_trajectory.csv"]
    first = {f: (tmp_path / f).read_bytes() for f in files}
    assert cli_main(argv) == 0
    same = all((tmp_path / f).read_bytes() == first[f] for f in files)

    argv2 = ["evanesce", "--potential", "quadratic:1", "--x0", "1",
             "--seed", "0", "--out", str(tmp_path)]
    assert cli_main(argv2) == 0
    blob = (tmp_path / "evanesce_report.json").read_bytes()
    assert cli_main(argv2) == 0
    same = same and (tmp_path / "evanesce_report.json").read_bytes() == blob
    announce(14, same, "repeated CLI runs produced byte-identical artifacts")
