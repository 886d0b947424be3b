"""CLI surface: exit codes, artifacts, config handling, determinism."""
import argparse
import contextlib
import io
import json
import os
import re
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from evanflow.cli import _DEFAULTS, _FLAGS, _INTEG_KEYS, _POSITIONAL, _csv, build_parser, main
from evanflow.diagnostics import check_first_integral
from evanflow.fields import resolve_potential
from evanflow.integrate import gradient_flow


def run(argv):
    return main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# --- flow -----------------------------------------------------------------

def test_flow_quadratic_passes(tmp_path):
    rc = run(["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
              "--T", "10", "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "flow_trajectory.csv").exists()
    rep = read_json(tmp_path / "flow_report.json")
    assert rep["summary"]["failed"] == 0
    assert rep["config"]["potential"] == "quadratic:1,0;0,2"
    ids = {c["check_id"] for c in rep["checks"]}
    assert ids == {"lyapunov_psi", "energy_identity", "grad_norm_monotone",
                   "limit_point"}


def test_flow_check_subset(tmp_path):
    rc = run(["flow", "--potential", "quadratic:1", "--x0", "1",
              "--checks", "lyapunov,energy", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "flow_report.json")
    assert len(rep["checks"]) == 2


def test_flow_cubic_grad_norm_check_fails(tmp_path):
    rc = run(["flow", "--potential", "cubic", "--x0", "-1", "--T", "0.3",
              "--checks", "grad_norm_monotone", "--out", str(tmp_path)])
    assert rc == 2


def test_flow_input_errors(tmp_path):
    out = ["--out", str(tmp_path)]
    assert run(["flow", "--potential", "no_such_potential", "--x0", "1"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1", "--x0", "abc"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1", "--x0", "1",
                "--checks", "no_such_check"] + out) == 1
    # shifts are written '+<const>'; 'cubic-2' is an unknown id
    assert run(["flow", "--potential", "cubic-2", "--x0", "1"] + out) == 1
    # a signed exponent is not a shift: '1e+' stays a bad literal, while
    # '1e+2' and '1e+2+5' resolve
    assert run(["flow", "--potential", "quadratic:1e+", "--x0", "1"] + out) == 1
    assert run(["flow", "--potential", "quadratic:1e+2", "--x0", "1"] + out) == 0
    assert run(["flow", "--potential", "quadratic:1e+2+5", "--x0", "1"] + out) == 0


@pytest.mark.parametrize("argv", [
    ["flow", "--potential", "quadratic:1", "--x0", "1"],
    ["second-order", "--potential", "quadratic:1", "--x0", "1", "--v0=-1"],
], ids=["flow", "second-order"])
def test_unknown_check_name_writes_nothing(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert run(argv + ["--checks", "no_such", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: unknown checks")
    assert not out.exists()


def test_flow_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "quadratic:1", "x0": "1", "T": 5.0}))
    rc = run(["flow", "--config", str(cfg), "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "flow_report.json")
    assert rep["config"]["T"] == 5.0


def test_flow_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "quadratic:1", "x0": "1",
                               "definitely_not_a_key": 1}))
    assert run(["flow", "--config", str(cfg), "--out", str(tmp_path)]) == 1


def test_flow_deterministic_artifacts(tmp_path):
    argv = ["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
            "--out", str(tmp_path)]
    assert run(argv) == 0
    first = {p.name: p.read_bytes()
             for p in (tmp_path / "flow_report.json",
                       tmp_path / "flow_trajectory.csv")}
    assert run(argv) == 0
    for name, blob in first.items():
        assert (tmp_path / name).read_bytes() == blob


# --- second-order ---------------------------------------------------------

def test_second_order_evanescent_orbit(tmp_path):
    rc = run(["second-order", "--potential", "quadratic:1,0;0,2",
              "--x0", "1,1", "--v0=-1,-2", "--T", "12",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "second_order_report.json")
    assert rep["evanescence"]["classification"] == "strong"
    assert (tmp_path / "second_order_trajectory.csv").exists()


def test_second_order_requires_v0(tmp_path):
    assert run(["second-order", "--potential", "quadratic:1", "--x0", "1",
                "--out", str(tmp_path)]) == 1


def test_second_order_non_evanescent_fails_checks(tmp_path):
    # v0 off the stable direction: modula equality and phi both break
    rc = run(["second-order", "--potential", "quadratic:1", "--x0", "1",
              "--v0", "1", "--T", "4", "--checks", "modula,phi_residual",
              "--out", str(tmp_path)])
    assert rc == 2


# --- integrator keys ------------------------------------------------------

# a value other than the default of each integrator config key, and the keys
# it needs beside it to take effect
INTEG_RUNS = {
    "integrator": ("rk4", {}),
    "h": (0.05, {"integrator": "rk4"}),
    "rtol": (1e-6, {"integrator": "rk45"}),
}
ORBIT_RUNS = {
    "flow": ["--potential", "quadratic:1", "--x0", "1", "--T", "4"],
    "second-order": ["--potential", "quadratic:1", "--x0", "1", "--v0", "-1", "--T", "4"],
}


@pytest.mark.parametrize("key", INTEG_RUNS)
@pytest.mark.parametrize("cmd", ORBIT_RUNS)
def test_every_integrator_key_reaches_the_run(tmp_path, cmd, key):
    assert set(INTEG_RUNS) == set(_INTEG_KEYS)
    value, context = INTEG_RUNS[key]
    assert value != _INTEG_KEYS[key][0]
    trajectories = []
    for name, cfg in (("default", context), ("set", {**context, key: value})):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / name
        assert run([cmd, *ORBIT_RUNS[cmd], "--config", str(path),
                    "--out", str(out)]) in (0, 2)
        trajectories.append((out / f"{cmd.replace('-', '_')}_trajectory.csv").read_bytes())
    assert trajectories[0] != trajectories[1]


@pytest.mark.parametrize("key", ["atol", "r_max", "eps_crit"])
@pytest.mark.parametrize("cmd", ORBIT_RUNS)
def test_removed_integrator_keys_are_unknown(tmp_path, capsys, cmd, key):
    # the absolute tolerance, the divergence bound and the critical-point
    # threshold of the flows are constants
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1.0}))
    out = tmp_path / "out"
    assert run([cmd, *ORBIT_RUNS[cmd], "--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: unknown config keys for {cmd}: ['{key}']\n"
    assert not out.exists()


# --- evanesce -------------------------------------------------------------

def test_evanesce_both_solvers_cross_validated(tmp_path):
    rc = run(["evanesce", "--potential", "quadratic:1", "--x0", "1",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "evanesce_report.json")
    assert rep["results"]["action"]["converged"]
    assert rep["cross_validation"]["summary"]["failed"] == 0
    assert (tmp_path / "evanesce_action_path.csv").exists()


def test_evanesce_default_budget_is_50000_iterations(tmp_path):
    # the README's default max_iters, echoed in the effective config
    assert run(["evanesce", "--potential", "quadratic:1", "--x0", "1",
                "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "evanesce_report.json")["config"]["max_iters"] == 50_000


@pytest.mark.parametrize("solver", ["action", "both"])
def test_evanesce_solves_each_route_once(tmp_path, monkeypatch, solver):
    # cross-validation reuses the routes the command already solved
    import evanflow.cli as cli
    import evanflow.evanescent as evanescent
    calls = {"action": 0, "shoot": 0}

    def counting(fn, key):
        def wrapped(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    for mod in (cli, evanescent):
        monkeypatch.setattr(mod, "minimize_action",
                            counting(evanescent.minimize_action, "action"))
        monkeypatch.setattr(mod, "shoot_evanescent",
                            counting(evanescent.shoot_evanescent, "shoot"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": solver}))
    rc = run(["evanesce", "--config", str(cfg), "--potential", "quadratic:1",
              "--x0", "1", "--out", str(tmp_path)])
    assert rc == 0
    assert calls == {"action": 1, "shoot": 1}


def test_evanesce_reports_the_shooting_work(tmp_path):
    # the shooting detail counts its orbits and their RK steps
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "shoot", "cross_validate": False}))
    rc = run(["evanesce", "--config", str(cfg), "--potential", "quadratic:1,0;0,2",
              "--x0", "1,1", "--out", str(tmp_path)])
    assert rc == 0
    detail = read_json(tmp_path / "evanesce_report.json")["results"]["shoot"]["detail"]
    assert 0 < detail["evaluations"] <= 12
    assert detail["steps_accepted"] > 0 and detail["steps_rejected"] >= 0


@pytest.mark.parametrize("lam", ["3", "4"])
def test_evanesce_shoots_a_step_that_raises_the_residual_shorter(tmp_path, lam):
    # from (1, 1) the downhill seed turns away from -A x0 as the condition
    # number grows; on diag(1, 3) and diag(1, 4) the first full Gauss-Newton
    # step raises ||w(T)||, so it is halved until the residual falls
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"solver": "shoot", "cross_validate": False}))
    rc = run(["evanesce", "--config", str(cfg), "--potential", f"quadratic:1,0;0,{lam}",
              "--x0", "1,1", "--out", str(tmp_path)])
    shot = read_json(tmp_path / "evanesce_report.json")["results"]["shoot"]
    assert rc == 0 and shot["converged"]
    assert np.allclose(shot["detail"]["v0"], [-1.0, -float(lam)], rtol=0.0, atol=1e-12)


def test_evanesce_failure_exit_code(tmp_path):
    cfg = tmp_path / "cfg.json"
    # one Newton step solves a quadratic, so the budget is cut on cubic
    cfg.write_text(json.dumps({"potential": "cubic", "x0": "1",
                               "max_iters": 1, "cross_validate": False}))
    assert run(["evanesce", "--config", str(cfg), "--out", str(tmp_path)]) == 2


# --- reconstruct ----------------------------------------------------------

def _per_cell_csv(header, rows):
    # the CSV writer as it was, one %-format per cell: the reference
    lines = [",".join(header)]
    lines += [",".join(str(v).lower() if isinstance(v, bool) else "%.17g" % v
                       for v in row) for row in rows]
    return "\n".join(lines) + "\n"


_CSV_EDGES = [np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -5e-324, 1.7976931348623157e308,
              0.1, 1.0 / 3.0, -2.5e-17, 7, -3, 0]


@settings(max_examples=100, deadline=None, derandomize=True)
@given(st.integers(1, 6), st.booleans(), st.lists(st.one_of(
    st.sampled_from(_CSV_EDGES), st.floats(width=64), st.integers(-10**6, 10**6)),
    min_size=0, max_size=60))
def test_csv_rows_are_written_as_the_per_cell_writer_writes_them(width, flag, cells):
    # one %-format per artifact, read off the first row, gives each row the
    # bytes the per-cell formats gave it: nan, +-inf, -0.0, subnormals,
    # ints, and a bool column written true / false
    rows = [cells[i:i + width] for i in range(0, len(cells) - width + 1, width)]
    if flag:
        rows = [[*row, i % 3 == 0] for i, row in enumerate(rows)]
    header = [f"c{j}" for j in range(width + flag)]
    want = _per_cell_csv(header, rows)
    assert _csv(header, (list(row) for row in rows)) == want
    assert _csv(header, rows) == want


def test_reconstruct_1d_grid(tmp_path):
    rc = run(["reconstruct", "--potential", "quadratic:1", "--grid=-1:1:5",
              "--N", "120", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "reconstruction.json")
    assert rep["eikonal_residual"]["passed"]
    lines = (tmp_path / "reconstruction.csv").read_text().strip().split("\n")
    assert len(lines) == 6


def test_reconstruct_skips_the_residual_across_a_zero_width_axis(tmp_path):
    # x = 1 at all nine points, so no residual can see grad psi across x;
    # every point converges and the run passes
    rc = run(["reconstruct", "--potential", "quadratic:1,0;0,2",
              "--grid=1:1:3,-1:1:3", "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "reconstruction.json")
    assert "eikonal_residual" not in rep
    assert all(d["converged"] for d in rep["per_point"])


def test_reconstruct_skips_the_residual_on_a_two_point_axis(tmp_path):
    # on -1, 1 the finite-difference gradient is the secant slope 0 at both
    # points while f = 1 there, so a residual would fail a correct run
    rc = run(["reconstruct", "--potential", "quadratic:1", "--grid=-1:1:2",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "reconstruction.json")
    assert "eikonal_residual" not in rep
    assert all(d["converged"] for d in rep["per_point"])


def test_reconstruct_grid_dim_mismatch(tmp_path):
    assert run(["reconstruct", "--potential", "quadratic:1,0;0,2",
                "--grid=-1:1:5", "--out", str(tmp_path)]) == 1


def test_reconstruct_bad_grid_spec(tmp_path):
    assert run(["reconstruct", "--potential", "quadratic:1",
                "--grid=-1:1", "--out", str(tmp_path)]) == 1


def test_reconstruct_rejects_an_empty_axis(tmp_path):
    out = tmp_path / "out"
    assert run(["reconstruct", "--potential", "quadratic:1",
                "--grid=-1:1:0", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("key,value", [("mu", 0.1), ("tol_opt", 1e-6)])
def test_evanesce_removed_keys_are_unknown(tmp_path, key, value):
    # the terminal penalty weight and the stopping tolerance are constants
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: value}))
    out = tmp_path / "out"
    assert run(["evanesce", "--config", str(cfg), "--potential", "quadratic:1",
                "--x0", "1", "--out", str(out)]) == 1
    assert not out.exists()


@pytest.mark.parametrize("key", ["T", "N"])
def test_evanesce_overflowing_horizon_is_an_input_error(tmp_path, capsys, key):
    # T = 1e300 passes as a positive finite number, and the tolerance dt^2
    # then overflows; N = 1e300 is above the CLI's bound on counts
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({key: 1e300}))
    out = tmp_path / "out"
    assert run(["evanesce", "--config", str(cfg), "--potential", "quadratic:1",
                "--x0", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_evanesce_tiny_horizon_warns_nothing(tmp_path, capsys):
    # at T = 1e-300 the run exits 2, and no warning reaches stderr
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(["evanesce", "--potential", "quadratic:1", "--x0", "1", "--T", "1e-300",
                    "--out", str(tmp_path)]) == 2
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_flow_that_diverges_reports_its_checks_without_a_warning(tmp_path, capsys):
    # x' = -x from 1e200 ends diverged after one step; the checks read psi,
    # the kinetic integral and the gradient norms as inf or NaN, silently,
    # so the run exits 2 with its report even with warnings as errors
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(["flow", "--potential", "quadratic:1", "--x0", "1e200",
                    "--out", str(tmp_path)]) == 2
    rep = read_json(tmp_path / "flow_report.json")
    assert rep["termination"] == "diverged"
    assert {c["check_id"]: c["passed"] for c in rep["checks"]} == {
        "lyapunov_psi": False, "energy_identity": False, "grad_norm_monotone": False,
        "limit_point": True}
    assert capsys.readouterr().err == ""


DIVERGED_SECOND_ORDER = ["second-order", "--potential", "quadratic:1", "--x0", "1e200",
                         "--v0", "1"]


def test_second_order_that_diverges_reports_its_checks_without_a_warning(tmp_path, capsys):
    # v'' = v from 1e200 diverges at once; the first integral, the modula,
    # the phi residual and the evanescence measures read the orbit as inf
    # or NaN, silently, so the run writes the report it writes without the
    # flag; the Hardy check needs 3 nodes, so the default checks refuse it
    argv = [*DIVERGED_SECOND_ORDER, "--checks", "first_integral,modula,phi_residual"]
    assert run([*argv, "--out", str(tmp_path / "plain")]) == 2
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run([*argv, "--out", str(tmp_path / "strict")]) == 2
        assert run([*DIVERGED_SECOND_ORDER, "--out", str(tmp_path / "hardy")]) == 1
    report = (tmp_path / "strict" / "second_order_report.json").read_bytes()
    assert report == (tmp_path / "plain" / "second_order_report.json").read_bytes()
    assert json.loads(report)["summary"] == {"failed": 3, "passed": 0, "total": 3}
    assert capsys.readouterr().err == "error: check_hardy needs >= 3 nodes\n"


def test_quadratic_that_overflows_is_built_and_checked_without_a_warning(tmp_path):
    # A @ A overflows to inf, and the inner products of V's gradient read
    # NaN: V's convexity fails and the implication holds
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert run(["check-convexity", "--potential", "quadratic:1e200",
                    "--out", str(tmp_path)]) == 0
        assert run(["reconstruct", "--potential", "quadratic:1e200", "--grid=-1:1:3",
                    "--out", str(tmp_path)]) in (0, 2)
    checks = read_json(tmp_path / "convexity_criterion.json")["checks"]
    assert {c["check_id"]: c["passed"] for c in checks}["crit_V_convex"] is False


def test_evanesce_refuses_a_start_whose_grad_v_is_not_finite(tmp_path, capsys):
    # on quadratic:1e155, V(0.01) = 5e305 is finite while A @ A overflows,
    # so grad V(0.01) = inf: the action route's start check refuses it
    out = tmp_path / "out"
    assert run(["evanesce", "--potential", "quadratic:1e155", "--x0", "0.01",
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: grad V(x0) = [inf] is not finite at x0 = [0.01]\n"
    assert not out.exists()


def test_main_leaves_the_floating_point_state_as_it_found_it(tmp_path):
    # main ignores overflow and invalid results for its command alone, so
    # a caller's numpy settings hold again once it returns: on a verdict,
    # on an input error and on an --out that cannot be written
    blocked = tmp_path / "file"
    blocked.write_text("")
    with np.errstate(over="raise", invalid="print", divide="warn", under="ignore"):
        state = np.geterr()
        for argv, code in [
                (["flow", "--potential", "quadratic:1", "--x0", "1e200",
                  "--out", str(tmp_path / "a")], 2),
                (["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1",
                  "--out", str(tmp_path / "b")], 1),
                (["flow", "--potential", "quadratic:1", "--x0", "1",
                  "--out", str(blocked)], 1)]:
            assert run(argv) == code
            assert np.geterr() == state
    # a check called directly follows its caller's settings
    pp = resolve_potential("quadratic:1")
    traj = gradient_flow(pp, np.array([1e200]), 10.0)
    assert traj.termination == "diverged"
    with np.errstate(over="raise"), pytest.raises(FloatingPointError):
        check_first_integral(traj, pp.v)


def test_out_leaves_the_artifacts(tmp_path, monkeypatch):
    # the config each artifact echoes holds every key but out, so one run
    # writes the same bytes into any directory
    monkeypatch.chdir(tmp_path)
    for out in ("a", str(tmp_path / "b" / "c")):
        assert run(["evanesce", "--potential", "quadratic:1", "--x0", "1", "--out", out]) == 0
    report = (tmp_path / "a" / "evanesce_report.json").read_bytes()
    assert report == (tmp_path / "b" / "c" / "evanesce_report.json").read_bytes()
    assert "out" not in json.loads(report)["config"]


@pytest.mark.parametrize("argv,key", [
    (["flow", "--x0", "1"], "x0"),
    (["second-order", "--x0", "1", "--v0=-1,-2"], "x0"),
    (["second-order", "--x0", "1,1", "--v0", "-1"], "v0"),
    (["evanesce", "--x0", "1"], "x0"),
], ids=["flow-x0", "second-order-x0", "second-order-v0", "evanesce-x0"])
def test_wrong_length_vector_names_its_key(tmp_path, capsys, argv, key):
    out = tmp_path / "out"
    assert run(argv + ["--potential", "quadratic:1,0;0,2", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: {key} must have 2 components, the dimension of the potential, got 1\n")
    assert not out.exists()


def test_reconstruct_unknown_method(tmp_path):
    # reconstruction has one route, so a method key is an unknown key
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"method": "shoot"}))
    out = tmp_path / "out"
    assert run(["reconstruct", "--config", str(cfg), "--potential", "quadratic:1",
                "--grid=-1:1:3", "--out", str(out)]) == 1
    assert not out.exists()


# --- determine ------------------------------------------------------------

def test_determine_shifted_pair(tmp_path, capsys):
    rc = run(["determine", "quadratic:1", "quadratic:1+5",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "determination.json")
    assert rep["verdict"] == "pass"
    assert rep["constant"] == pytest.approx(5.0, abs=1e-9)
    assert json.loads(capsys.readouterr().out.strip())["constant"] == \
        pytest.approx(5.0, abs=1e-9)


def test_determine_hypothesis_not_met(tmp_path):
    rc = run(["determine", "linear", "neg_linear", "--out", str(tmp_path)])
    assert rc == 3
    rep = read_json(tmp_path / "determination.json")
    assert rep["verdict"] == "hypothesis_not_met"


def test_determine_dimension_mismatch(tmp_path):
    assert run(["determine", "quadratic:1", "quadratic:1,0;0,2",
                "--out", str(tmp_path)]) == 1


# a box as large as 1e308 draws finite points; the fields overflow on them,
# which the reports record as failed checks
@pytest.mark.parametrize("argv,stem,code", [
    (["determine", "quadratic:1", "quadratic:1+5"], "determination", 3),
    (["check-convexity", "--potential", "cubic"], "convexity_criterion", 0),
    (["check-convexity", "--potential", "quadratic:1"], "convexity_criterion", 0),
])
def test_huge_box_draws_without_overflow(tmp_path, argv, stem, code):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"box": 1e308}))
    assert run(argv + ["--config", str(cfg), "--out", str(tmp_path)]) == code
    rep = strict_json((tmp_path / f"{stem}.json").read_text())
    if stem == "determination":
        # the mean of psi2 - psi1 over overflowed values is not a number
        assert rep["constant"] is None


def _no_constant(name):
    raise ValueError(f"non-finite JSON number {name}")


def strict_json(text):
    """text parsed as strict JSON: NaN and Infinity are refused."""
    return json.loads(text, parse_constant=_no_constant)


README_RUNS = [
    ["flow", "--potential", "quadratic:1,0;0,2", "--x0", "1,1", "--T", "10"],
    ["second-order", "--potential", "quadratic:1,0;0,2", "--x0", "1,1",
     "--v0=-1,-2", "--T", "12"],
    ["evanesce", "--potential", "quadratic:1", "--x0", "1"],
    ["evanesce", "--potential", "quadratic:1,0;0,2", "--x0", "1,1"],
    ["reconstruct", "--potential", "quadratic:1,0;0,2", "--grid=-1:1:5,-1:1:5"],
    ["determine", "quadratic:1", "quadratic:1+5"],
    ["check-convexity", "--potential", "cubic"],
    # every field value overflows, so every point fails with NaN values
    ["reconstruct", "--potential", "quadratic:1e200", "--grid=-1:1:3"],
]


@pytest.mark.parametrize("argv", README_RUNS, ids=lambda argv: " ".join(argv[:3]))
def test_json_artifacts_and_summaries_are_strict(tmp_path, capsys, argv):
    # an equilibrium's tail slope is -inf and a failed point's values NaN;
    # both are written as null
    assert run(argv + ["--out", str(tmp_path)]) in (0, 2)
    artifacts = sorted(tmp_path.glob("*.json"))
    assert artifacts
    for path in artifacts:
        strict_json(path.read_text())
    lines = capsys.readouterr().out.splitlines()
    assert lines
    for line in lines:
        strict_json(line)


# the fields overflow on the first three starts
@pytest.mark.parametrize("argv,config", [
    # the orbit leaves r_max at once, so the Hardy check has too few nodes
    (["second-order", "--potential", "neg_square", "--x0", "1e200", "--v0", "1"], {}),
    # the first RK4 step overflows
    (["flow", "--potential", "neg_square", "--x0", "1e308"], {"integrator": "rk4"}),
    # ||grad V(x0)|| overflows, so shooting refuses the start
    (["evanesce", "--potential", "quadratic:1e10", "--x0", "1e140"],
     {"solver": "shoot", "cross_validate": False}),
    # an unknown integrator, from an equilibrium start as from any other
    (["flow", "--potential", "quadratic:1", "--x0", "0"], {"integrator": "rk5"}),
], ids=["second-order-hardy", "flow-rk4-overflow", "evanesce-nan-error", "flow-rk5-equilibrium"])
def test_failed_run_writes_no_artifact(tmp_path, capsys, argv, config):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert run(argv + ["--config", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_that_cannot_be_created_exits_1(tmp_path, monkeypatch, capsys, out):
    # --out names a regular file, or a path under one
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("kept")
    assert run(["determine", "quadratic:1", "quadratic:1+5", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and not captured.out
    assert [p.name for p in tmp_path.iterdir()] == ["afile"]
    assert (tmp_path / "afile").read_text() == "kept"


# --- check-convexity ------------------------------------------------------

def test_check_convexity_quadratic(tmp_path):
    rc = run(["check-convexity", "--potential", "quadratic:2,0.5;0.5,1",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "convexity_criterion.json")
    assert rep["summary"]["failed"] == 0


def test_check_convexity_cubic_consistent(tmp_path):
    # psi fails convexity but so does its bounded-below evidence, hence the
    # implication itself stands and the exit code is 0
    rc = run(["check-convexity", "--potential", "cubic",
              "--out", str(tmp_path)])
    assert rc == 0
    rep = read_json(tmp_path / "convexity_criterion.json")
    by_id = {c["check_id"]: c["passed"] for c in rep["checks"]}
    assert by_id["crit_V_convex"]
    assert not by_id["crit_psi_convex"]
    assert by_id["crit_implication_holds"]


# --- parser and config types ----------------------------------------------

@pytest.mark.parametrize("argv", [
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--T", "abc"],
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--no-such-flag", "1"],
    ["no-such-command"],
    [],
    # flags a command does not read
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--grid=-1:1:5"],
    ["determine", "quadratic:1", "quadratic:1+5", "--T", "5"],
    ["reconstruct", "--potential", "quadratic:1", "--grid=-1:1:5",
     "--workers", "2"],
    ["flow", "--potential", "quadratic:1", "--x0", "1", "--seed", "3"],
    ["evanesce", "--potential", "quadratic:1", "--x0", "1", "--mu", "0.1"],
])
def test_parser_rejections_exit_1(tmp_path, monkeypatch, capsys, argv):
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not any(tmp_path.iterdir())


# a valid config of each command, and values outside each declared type
VALID = {
    "flow": {"potential": "quadratic:1", "x0": "1"},
    "second-order": {"potential": "quadratic:1", "x0": "1", "v0": "-1"},
    "evanesce": {"potential": "quadratic:1", "x0": "1"},
    "reconstruct": {"potential": "quadratic:1", "grid": "-1:1:3"},
    "determine": {"potential1": "quadratic:1", "potential2": "quadratic:1+5"},
    "check-convexity": {"potential": "cubic"},
}
# a count that sizes an impossible array: before the CLI bounded N, samples
# and grid points, numpy's MemoryError escaped main with a traceback
OVERSIZE = 1e15
OVERSIZED = [{"N": OVERSIZE}, {"samples": OVERSIZE}, {"grid": f"-1:1:{OVERSIZE:.0f}"}]
MISTYPED = {
    "_float": [[1], {"a": 1}, "abc", True],
    "_positive": [[1], {"a": 1}, "abc", True, 0, -1.5, "nan", "inf", "-inf"],
    "_seed": [[3], {"a": 1}, "abc", 2.5, True, -1],
    "_count": [[3], {"a": 1}, "abc", 2.5, True, 0, -1],
    "_nodes": [[3], {"a": 1}, "abc", 2.5, True, 1, 0, -240, 1_000_001, OVERSIZE],
    "_samples": [[3], {"a": 1}, "abc", 2.5, True, 0, -1, 1_000_001, OVERSIZE],
    "_str": [5, [1], {"a": 1}, True],
    "_bool": ["yes", 1, [True], {"a": 1}],
    "_names": [5, [1], {"a": 1}],
    "_vector": [{"a": 1}, ["a"], [[1]], "1,,2", True, "inf", "1,nan", ["-inf"]],
    "_grid": [[1], {"a": 1}, "-1:1", [[-1, 1]], [[-1, 1, 2.5]], "-1:1:0",
              "-1:nan:3", "-inf:1:3", [[-1, "inf", 3]], f"-1:1:{OVERSIZE:.0f}",
              "-1:1:1000,-1:1:1001"],
}


@pytest.mark.parametrize("cmd,key", [(cmd, key) for cmd, table in _DEFAULTS.items()
                                     for key in table])
def test_mistyped_config_value_exits_1(tmp_path, monkeypatch, capsys, cmd, key):
    kind = _DEFAULTS[cmd][key][1]
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    cfg = tmp_path / "cfg.json"
    for value in MISTYPED[kind.__name__] + [None]:
        cfg.write_text(json.dumps({**VALID[cmd], key: value}))
        assert run([cmd, "--config", str(cfg)]) == 1, value
        assert capsys.readouterr().err.startswith(f"error: {key} must be "), value
        assert not any(run_dir.iterdir()), value


# the CLI contract over edge values: each draw sets one key of a small valid
# config to a value from its declared type's edge set (or of a wrong JSON
# type); whatever the value, no exception escapes main, the exit code is a
# documented one, and a run that exits 1 writes nothing
SMALL = {
    "flow": {**VALID["flow"], "T": 1.0},
    "second-order": {**VALID["second-order"], "T": 1.0},
    "evanesce": {**VALID["evanesce"], "T": 3.0, "N": 30},
    "reconstruct": {**VALID["reconstruct"], "T": 3.0, "N": 30},
    "determine": {**VALID["determine"], "samples": 4},
    "check-convexity": {**VALID["check-convexity"], "samples": 4},
}
NUMBERS = [0, -1, 1, 2.0, 2.5, np.nan, np.inf, -np.inf, 1e300, -1e300, "2", "1e300", ""]
EDGES = {
    **dict.fromkeys(["_float", "_positive"], NUMBERS),
    **dict.fromkeys(["_seed", "_count", "_nodes", "_samples"], NUMBERS + [OVERSIZE]),
    "_str": ["", "abc", "quadratic:", "quadratic:nan", "quadratic:1e300", "rk4",
             "shoot", "both", "a/b", 5, 1.5],
    "_bool": [False, "true", "", 0, 1],
    "_names": ["", "all", "nope", "lyapunov,hardy", ["lyapunov"], [5]],
    "_vector": ["1", "1,1", "", "1,,2", "a", "nan", "1e300", "-1e300", "-inf", 1,
                1e300, [[1]], ["a"]],
    "_grid": ["-1:1:2", "-1:1:1", "1:1:3", "-1:1", "-1:1:0", "-1:1:2.5", "-1:nan:3",
              "-inf:1:3", "-1e300:1e300:3", "", "a:b:c", "-1:1:3,-1:1:3",
              [[-1, 1, 3]], [[-1, 1]]],
}
WRONG_JSON = [None, True, [], {}, [1], {"a": 1}]


def _edge_configs(cmd):
    """{key: value}: one key of cmd's config table and an edge value of it."""
    return st.sampled_from(list(_DEFAULTS[cmd])).flatmap(
        lambda key: st.sampled_from(EDGES[_DEFAULTS[cmd][key][1].__name__] + WRONG_JSON)
        .map(lambda value: {key: value}))


def _contract_test(cmd, *examples):
    """The contract test of cmd, with explicit edge configs run first."""
    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(_edge_configs(cmd))
    def test(edge):
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "cfg.json"
            cfg.write_text(json.dumps({**SMALL[cmd], "out": "run", **edge}))
            run_dir = Path(tmp) / "cwd"
            run_dir.mkdir()
            cwd = os.getcwd()
            os.chdir(run_dir)
            try:
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main([cmd, "--config", str(cfg)])
            finally:
                os.chdir(cwd)
            assert code in (0, 1, 2, 3), edge
            assert "Traceback" not in err.getvalue(), edge
            if code == 1:
                assert err.getvalue().startswith("error: "), edge
                assert not any(run_dir.iterdir()), edge
            if edge in OVERSIZED:
                assert code == 1, edge
                assert err.getvalue().startswith(f"error: {next(iter(edge))} must be "), edge

    for edge in examples:
        test = example(edge)(test)
    return test


test_flow_contract = _contract_test("flow")
test_second_order_contract = _contract_test("second-order")
# T = 1e300 overflowed dt ** 2 into a traceback before main caught ArithmeticError
test_evanesce_contract = _contract_test("evanesce", {"T": 1e300}, {"N": 1e300},
                                        {"N": OVERSIZE})
# two points on an axis: the eikonal residual is skipped, not failed
test_reconstruct_contract = _contract_test("reconstruct", {"grid": "-1:1:2"},
                                           {"grid": f"-1:1:{OVERSIZE:.0f}"}, {"N": OVERSIZE})
test_determine_contract = _contract_test("determine", {"samples": OVERSIZE})
test_check_convexity_contract = _contract_test("check-convexity", {"samples": OVERSIZE})


def test_numeric_strings_in_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"potential": "quadratic:1", "x0": "1",
                               "rtol": "1e-9"}))
    assert run(["flow", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert read_json(tmp_path / "flow_report.json")["config"]["rtol"] == 1e-9


def test_readme_flag_table_matches_the_parser():
    # the README's "exactly these flags" table lists, per subcommand, the
    # flags its parser defines besides --config, in the parser's order
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    table = readme.split("exactly these flags:", 1)[1]
    rows = re.findall(r"^\| `([\w-]+)` \| `([^`]*)`(.*) \|$", table, re.M)
    sub = next(a for a in build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert [cmd for cmd, _, _ in rows] == list(sub.choices)
    for cmd, flags, rest in rows:
        actions = sub.choices[cmd]._actions
        options = [o for a in actions for o in a.option_strings
                   if o not in ("-h", "--help", "--config")]
        positional = [a.dest for a in actions if not a.option_strings]
        assert flags.split() == options, cmd
        # determine names its two positional potential ids in words
        assert ("positional" in rest) == bool(positional), cmd


def test_readme_file_only_keys_match_the_config_tables():
    # the README's "set from a file only" sentence lists, per subcommand, the
    # config keys that are neither a flag nor positional, in table order
    readme = " ".join((Path(__file__).resolve().parents[1] / "README.md").read_text().split())
    sentence = readme.split("set from a file only:", 1)[1].split(". ", 1)[0]
    listed = {}
    for group in sentence.split(";"):
        keys, cmds = re.fullmatch(r"(.*)\((.*)\)", group.strip()).groups()
        for cmd in re.findall(r"`([\w-]+)`", cmds):
            listed[cmd] = re.findall(r"`(\w+)`", keys)
    file_only = {cmd: [key for key in table if key not in _FLAGS + _POSITIONAL]
                 for cmd, table in _DEFAULTS.items()}
    assert listed == {cmd: keys for cmd, keys in file_only.items() if keys}
