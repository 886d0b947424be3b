"""The three workloads: seeded inputs, the timed calls and their checks.

Each workload is a list of operations.  An operation is one library or CLI
call (``call``), timed alone, and a check of its outputs against a
closed-form reference (``verify``), untimed.  Inputs come only from the
seed; the library sees only the generated inputs.
"""
from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import refs

GRID_5X5 = [(-1.0, 1.0, 5), (-1.0, 1.0, 5)]
# recon-action: one pass reconstructs this many quadratics; their
# orientations are evenly spaced over the grid's quarter-turn symmetry, so
# the pass covers every orientation whatever the seed
RECON_QUADRATICS = 3
# catalog-cli: the example_one action route never converges and runs to
# max_iters; 5000 keeps that verdict while the pass stays short enough to
# repeat several times in a run
EXAMPLE_ONE_MAX_ITERS = 5000
# evanesce-2d: the README/ROADMAP headline problem
HEADLINE_A = [[1.0, 0.0], [0.0, 2.0]]
HEADLINE_X0 = [1.0, 1.0]


@dataclass
class Op:
    label: str
    call: Callable          # (ctx, out_dir) -> outcome
    verify: Callable        # (outcome, out_dir) -> (ok, err or None, info)


@dataclass
class Workload:
    name: str
    inputs: dict            # every generated input, for the report
    potentials: list        # potential ids or matrices built during set-up
    ops: Callable           # ctx -> [Op]


def _lit(A) -> str:
    return ";".join(",".join(repr(float(v)) for v in row) for row in np.asarray(A))


def _vec(x) -> str:
    return ",".join(repr(float(v)) for v in x)


def _rotation(theta):
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]])


def _spd(theta, lams):
    R = _rotation(theta)
    A = R @ np.diag(lams) @ R.T
    return 0.5 * (A + A.T)


# -- CLI operations ---------------------------------------------------------

def _cli(argv):
    def call(ctx, out):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = ctx.cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        return code, err.getvalue()[-500:]
    return call


def _verify_evanesce(A, x0):
    """Quadratic evanesce: every solver's final action and path CSV."""
    def verify(outcome, out):
        code, stderr = outcome
        info = {"exit": code}
        if code != 0:
            info["stderr"] = stderr
            return False, None, info
        rep = json.loads((out / "evanesce_report.json").read_text())
        errors = {"final_action": 0.0, "path": 0.0}
        for solver, res in rep["results"].items():
            info[f"{solver}_converged"] = res["converged"]
            if "iterations" in res["detail"]:
                info[f"{solver}_iterations"] = res["detail"]["iterations"]
            errors["final_action"] = max(errors["final_action"],
                                         refs.action_error(A, x0, res["final_action"]))
            csv = np.loadtxt(out / f"evanesce_{solver}_path.csv", delimiter=",",
                             skiprows=1, ndmin=2)
            n = len(x0)
            exact = refs.decay_orbit(A, x0, csv[:, 0])
            errors["path"] = max(errors["path"],
                                 refs.path_error(csv[:, 1:1 + n], exact, x0))
        if "cross_validation" in rep:
            info["xv_passed"] = rep["cross_validation"]["summary"]["failed"] == 0
        ok, err = refs.verdict(errors)
        info.update(errors)
        return ok, err, info
    return verify


def _verify_verdict(outcome, out):
    """Catalog entry without a closed form: exit 2 is an honest
    non-convergence verdict, exit 1 or an exception is a failure."""
    code, stderr = outcome
    info = {"exit": code}
    ok = code in (0, 2)
    if not ok:
        info["stderr"] = stderr
    report = out / "evanesce_report.json"
    if ok and report.exists():
        rep = json.loads(report.read_text())
        info["max_iters"] = rep["config"]["max_iters"]
        for solver, res in rep["results"].items():
            info[f"{solver}_converged"] = res["converged"]
            if "iterations" in res["detail"]:
                info[f"{solver}_iterations"] = res["detail"]["iterations"]
    return ok, None, info


def _verify_trajectory(csv_name, exact_fn, x0):
    def verify(outcome, out):
        code, stderr = outcome
        if code != 0:
            return False, None, {"exit": code, "stderr": stderr}
        csv = np.loadtxt(out / csv_name, delimiter=",", skiprows=1, ndmin=2)
        n = len(x0)
        err = refs.path_error(csv[:, 1:1 + n], exact_fn(csv[:, 0]), x0)
        ok, err = refs.verdict({"ode": err})
        return ok, err, {"exit": code, "ode": err}
    return verify


def _verify_determine(c):
    def verify(outcome, out):
        code, stderr = outcome
        if code != 0:
            return False, None, {"exit": code, "stderr": stderr}
        rep = json.loads((out / "determination.json").read_text())
        ok, err = refs.verdict({"constant": refs.constant_error(rep["constant"], c)})
        return ok and rep["verdict"] == "pass", err, {"exit": code,
                                                      "verdict": rep["verdict"]}
    return verify


def _verify_not_determined(outcome, out):
    """Potentials with different gradient moduli: the theorem's hypothesis
    fails, exit code 3."""
    code, stderr = outcome
    if code != 3:
        return False, None, {"exit": code, "stderr": stderr}
    verdict = json.loads((out / "determination.json").read_text())["verdict"]
    return verdict == "hypothesis_not_met", None, {"exit": code, "verdict": verdict}


def _verify_reconstruct(A):
    def verify(outcome, out):
        code, stderr = outcome
        if code != 0:
            return False, None, {"exit": code, "stderr": stderr}
        rep = json.loads((out / "reconstruction.json").read_text())
        ok, err = refs.verdict({"grid": refs.grid_error(A, rep["points"], rep["psi_hat"])})
        return ok, err, {"exit": code, "grid": err}
    return verify


# -- recon-action -----------------------------------------------------------

def recon_action(seed: int) -> Workload:
    """f = 2V of seeded SPD quadratics, reconstructed on a 5x5 grid by the
    action route.  Eigenvalues are 1 and 2 within 2%, orientations evenly
    spaced from a seeded offset."""
    rng = np.random.default_rng(seed)
    step = 0.5 * np.pi / RECON_QUADRATICS
    theta0 = rng.uniform(0.0, step)
    mats, specs = [], []
    for k in range(RECON_QUADRATICS):
        lams = [1.0 * rng.uniform(0.98, 1.02), 2.0 * rng.uniform(0.98, 1.02)]
        theta = theta0 + k * step
        mats.append(_spd(theta, lams))
        specs.append({"theta": theta, "eigenvalues": lams})
    inputs = {"grid": GRID_5X5, "method": "action", "T": 12.0, "N": 240,
              "workers": 1, "quadratics": [
                  {"A": A.tolist(), **s} for A, s in zip(mats, specs)]}

    def ops(ctx):
        points = ctx.ev.grid_points(GRID_5X5)
        out = []
        for k, pp in enumerate(ctx.pairs):
            A = mats[k]

            def call(ctx, _out, pp=pp):
                f = ctx.pair(pp).v.scaled(2.0)
                return ctx.ev.reconstruct_grid(f, points,
                                               ctx.ev.ReconstructOptions(workers=1))

            def verify(res, _out, A=A):
                conv = sum(bool(d["converged"]) for d in res.per_point)
                ok, err = refs.verdict({"grid": refs.grid_error(A, res.points, res.psi_hat)})
                return ok and conv == len(res.per_point), err, {
                    "grid": err, "converged_points": conv}

            out.append(Op(f"reconstruct_grid[{k}]", call, verify))
        return out

    return Workload("recon-action", inputs, [("matrix", A) for A in mats], ops)


# -- evanesce-2d ------------------------------------------------------------

def evanesce_2d(seed: int) -> Workload:
    """CLI ``evanesce`` with its defaults on the headline 2-D quadratic.

    Its run time is chaotic in A and x0: the shooting search inside
    cross-validation takes 3 to 14 s, and sometimes fails, on rotated or
    rescaled neighbours of this problem.  So the seed varies only inputs that
    leave the numerical problem unchanged: an additive constant on psi and
    the CLI's own ``--seed`` (the sample pairs of the convexity probe).
    """
    rng = np.random.default_rng(seed)
    shift = float(rng.uniform(0.5, 5.0))
    cli_seed = int(rng.integers(0, 2**31 - 1))
    potential = f"quadratic:{_lit(HEADLINE_A)}+{shift!r}"
    argv = ["evanesce", "--potential", potential, f"--x0={_vec(HEADLINE_X0)}",
            "--seed", str(cli_seed)]
    inputs = {"A": HEADLINE_A, "x0": HEADLINE_X0, "psi_shift": shift,
              "cli_seed": cli_seed, "argv": argv}

    def ops(ctx):
        return [Op("evanesce", _cli(argv),
                   _verify_evanesce(np.array(HEADLINE_A), np.array(HEADLINE_X0)))]

    return Workload("evanesce-2d", inputs, [("id", potential)], ops)


# -- catalog-cli ------------------------------------------------------------

def catalog_cli(seed: int, tmp: Path) -> Workload:
    """The README's commands over the catalog, in-process."""
    rng = np.random.default_rng(seed)
    a = 1.0 + float(rng.uniform(-0.02, 0.02))
    x0_1d = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.6, 1.4))
    lams = np.sort(rng.uniform(0.8, 2.0, size=2))
    A2 = _spd(rng.uniform(0.0, np.pi), lams)
    x0_2d = rng.uniform(0.5, 1.5, size=2) * rng.choice([-1.0, 1.0], size=2)
    v0_2d = -A2 @ x0_2d
    shift = float(rng.uniform(0.5, 5.0))
    A1 = np.array([[a]])
    quad_1d = f"quadratic:{a!r}"
    quad_2d = f"quadratic:{_lit(A2)}"

    # the CLI takes the solver only from a config file
    both = tmp / "solver_both.json"
    action_only = tmp / "action_only.json"
    both.write_text(json.dumps({"solver": "both"}))
    action_only.write_text(json.dumps({"cross_validate": False,
                                       "max_iters": EXAMPLE_ONE_MAX_ITERS}))

    x0v = np.array([x0_1d])
    specs = [
        ("evanesce quadratic:a",
         ["evanesce", "--config", str(both), "--potential", quad_1d, f"--x0={_vec(x0v)}"],
         _verify_evanesce(A1, x0v)),
        ("evanesce cubic",
         ["evanesce", "--config", str(both), "--potential", "cubic", "--x0", "1"],
         _verify_verdict),
        ("evanesce neg_square",
         ["evanesce", "--config", str(both), "--potential", "neg_square", "--x0", "1"],
         _verify_verdict),
        ("evanesce linear",
         ["evanesce", "--config", str(both), "--potential", "linear", "--x0", "1"],
         _verify_verdict),
        ("evanesce example_one",
         ["evanesce", "--config", str(action_only), "--potential", "example_one",
          "--x0", "0"],
         _verify_verdict),
        ("flow",
         ["flow", "--potential", quad_2d, f"--x0={_vec(x0_2d)}", "--T", "10"],
         _verify_trajectory("flow_trajectory.csv",
                            lambda t: refs.decay_orbit(A2, x0_2d, t), x0_2d)),
        # T = 6, not 12: over 12 time units the growing mode amplifies the
        # rounding of v0 = -A x0 past the 1e-6 tolerance
        ("second-order",
         ["second-order", "--potential", quad_2d, f"--x0={_vec(x0_2d)}",
          f"--v0={_vec(v0_2d)}", "--T", "6"],
         _verify_trajectory("second_order_trajectory.csv",
                            lambda t: refs.second_order_orbit(A2, x0_2d, v0_2d, t),
                            x0_2d)),
        ("determine",
         ["determine", quad_1d, f"{quad_1d}+{shift!r}"],
         _verify_determine(shift)),
        # an eleventh call puts the median latency inside one call's samples
        # instead of between two calls
        ("determine different",
         ["determine", quad_1d, f"quadratic:{2.0 * a!r}"],
         _verify_not_determined),
        ("check-convexity cubic",
         ["check-convexity", "--potential", "cubic"],
         _verify_verdict),
        ("reconstruct 9-point",
         ["reconstruct", "--potential", quad_1d, "--grid=-1:1:9"],
         _verify_reconstruct(A1)),
    ]
    inputs = {"a": a, "x0_1d": x0_1d, "A_2d": A2.tolist(), "x0_2d": x0_2d.tolist(),
              "v0_2d": v0_2d.tolist(), "determine_shift": shift,
              "configs": {"solver_both": {"solver": "both"},
                          "action_only": {"cross_validate": False,
                                          "max_iters": EXAMPLE_ONE_MAX_ITERS}},
              "argv": {label: argv for label, argv, _ in specs}}
    potentials = [("id", p) for p in (quad_1d, quad_2d, "cubic", "neg_square",
                                      "linear", "example_one")]

    def ops(ctx):
        return [Op(label, _cli(argv), verify)
                for label, argv, verify in specs]

    return Workload("catalog-cli", inputs, potentials, ops)


def make(name: str, seed: int, tmp: Path) -> Workload:
    if name == "recon-action":
        return recon_action(seed)
    if name == "evanesce-2d":
        return evanesce_2d(seed)
    if name == "catalog-cli":
        return catalog_cli(seed, tmp)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("recon-action", "evanesce-2d", "catalog-cli")
