"""Corpus fingerprints for bit-identity claims, and the pins of the
module constants.

    PYTHONPATH=src python tools/corpus.py hash
    PYTHONPATH=src python tools/corpus.py pins [NAME ...]

hash prints one line per case, ``name sha256[:16]``, or two for a
reconstruction case, then the lines of the shooting scans (see below).
A case hashes its result (arrays as dtype, shape and bytes; floats by
their hex form) or, where it raises, the error's type and message.  The
cases:
  cli ...       24 in-process CLI runs: the README's commands, evanesce with
                solver both on every catalog entry and on the 1-D and 2-D
                quadratics, check-convexity on every catalog entry, and a
                flow, second-order, reconstruct and determine run on
                catalog entries; each hashes its exit code, stdout, stderr
                and artifacts, with the run's directory written as TMP
  recon-action  reconstruct_grid on the 5x5 grid of each of the three
                seed-1 quadratics of the benchmark's recon-action workload
  recon ...     reconstruct_grid on the 41x41 grid of [-1, 1]^2 for the
                quadratic [[1.3, .4], [.4, 1.8]], on the 5 points of
                -1:1:5 for quadratic:0.05, whose points take the (2T, 2N)
                horizon retry, and with N = 239 on the 5x5 grid for
                [[1.3, .4], [.4, 1.8]]: 240 nodes, an even count, so the
                value step's Simpson takes Cartwright's last-interval
                correction (every other case has an odd node count)
  recon double-well
                reconstruct_grid of f = 2V, V = induced_potential(psi) for
                the double well psi = x^4/4 - x^2/2 with its exact hessvec,
                at -0.4, 0, 0.5, 1.5 and 2: V is not convex between the
                wells, so members take the isotropic fallback factor, and
                their line searches halve the step
  recon quartic diag(2,3) 5x5
                reconstruct_grid of f = 2V, V = induced_potential of the
                quartic diag(2, 3) below, on the 5x5 grid of [-1, 1]^2: the
                members stop after different iteration counts, so the
                working set shrinks between iterations, and the points that
                miss the tail test take the (2T, 2N) retry
  quartic ...   minimize_action and shoot_evanescent at T = 12 on
                psi = 0.5 x'Ax + 0.25 sum x_i^4, given without a hessvec,
                for A = diag(2, 3) and [[1, .3], [.3, .5]] from (1, 1) and
                (-1, 0.5)
  flow ...      gradient_flow under rk45 and under rk4 (h = 0.05), at
                T = 0.3 and 12, with the four checks the CLI flow command
                runs, and
  second-order ...
                second_order_flow from (x0, -grad psi(x0)) at T = 6, with
                the four checks of the CLI second-order command and
                evanescence_measures, from the x0 of each evanesce run
                above; each check is called with the field it reads, psi
                or V, and a check that raises hashes its error
  scan ...      shoot_evanescent(V, x0, T = 12) over three problem sets

Each scan problem prints ``scan <set> <problem> hash`` of its whole result,
then, tab-separated: dimension, lambda_max T, converged, orbits integrated,
RK steps (accepted + rejected), the v0 error ||v0 + grad psi(x0)|| and, where
the orbit has a closed form, the node error max |v(t) - e^{-tA} x0| over the
returned orbit's nodes ("-" otherwise).  A line of totals (RK steps, orbits,
converged) ends each set.  The sets, all quadratics psi = 0.5 x'Ax (A
symmetrized) unless stated; a draw takes, in order, n = rng.integers(lo, hi),
Q from the QR of an n x n standard normal sample, lambda ~ U[l0, l1]^n and,
where stated, x0 ~ U[-1.5, 1.5]^n, with A = Q diag(lambda) Q':
  main      diag(1,2), 1.5 diag(1,2), diag(0.3,1), diag(1.5,3),
            [[1.3,.4],[.4,1.8]], diag(1,1.5,2) and 8 draws of
            default_rng(7) (n in 2-3, lambda in [0.2, 3]), all from x0 = 1;
            40 draws of default_rng(11) (n in 2-4, lambda in [0.3, 3], x0
            drawn); V = induced_potential(psi) of the four quartics above,
            so grad V is the central difference of grad psi along grad psi,
            and V's hessvec that of grad V; and V = induced_potential of the
            quadratic psi for A = [[2, .5], [.5, 1]] from (1, -1), exact
            grad V, and a hessvec that is the central difference of grad V
  held-out  40 draws each of default_rng(23) and default_rng(29), drawn as
            the default_rng(11) ones
  spd60     60 draws of default_rng(4) (n in 2-4, lambda in [0.8, 2], x0
            drawn)

Each reconstruction case, in-process or through the CLI, prints two lines:
``... values`` hashes everything but the tail fit (psi_hat, ev_integral,
converged, T_used, error, the residual check and the rest of the run), and
``... tail`` hashes each point's tail_slope and tail_estimate.  A change to
the tail fit that moves the slopes by rounding only then leaves the values
lines as they were.

The bytes depend on the machine's BLAS, so two trees are compared on one
machine; the output is not a reference to check in.

pins asks of each numeric module constant of src/evanflow/ (an upper-case
module-level name bound to a number; the CLI's exit codes and MAX_COUNT
are left out) whether a tier-1 test holds it.  It rewrites the constant
alone to x4 and to 1/4 in a temporary copy of src/, tests/, README.md and
pyproject.toml, runs tier-1 there with -x under a PIN_TIMEOUT of 300 s, and
prints ``file NAME xFACTOR result``: ``held <first failing test>``,
``free`` (every test passed) or ``timeout``, which does not count as held.
NAMEs limit it to those constants.  It exits 1 if a constant is held at
neither factor, and writes nothing into the checkout.  The full probe runs
tier-1 62 times, about 7.5 minutes on 2 cores; one constant takes two runs,
about 15 s.
"""
from __future__ import annotations

import ast
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from evanflow import cli
from evanflow.diagnostics import (
    check_energy_identity,
    check_first_integral,
    check_grad_norm_monotone,
    check_hardy,
    check_limit_point,
    check_lyapunov_psi,
    check_modula_equality,
    check_phi_residual,
    evanescence_measures,
)
from evanflow.eikonal import ReconstructOptions, grid_points, reconstruct_grid
from evanflow.evanescent import minimize_action, shoot_evanescent
from evanflow.fields import (
    DifferentiableField,
    induced_potential,
    make_quadratic,
    resolve_potential,
)
from evanflow.integrate import IntegratorOptions, gradient_flow, second_order_flow

T = 12.0  # the scans' horizon
QUAD_2D = "quadratic:1,0;0,2"
CATALOG = ["example_one", "neg_square", "cubic", "quartic_saddle", "linear", "neg_linear"]
# (potential, x0) of each evanesce run with solver both
EVANESCE_BOTH = ([("quadratic:1", "1"), (QUAD_2D, "1,1")]
                 + [(p, "1,1" if p == "quartic_saddle" else "1") for p in CATALOG])


def _cli_runs() -> list:
    """(name, argv without --out, config or None)."""
    readme = [
        ("flow", ["flow", "--potential", QUAD_2D, "--x0", "1,1", "--T", "10"]),
        ("second-order", ["second-order", "--potential", QUAD_2D, "--x0", "1,1",
                          "--v0=-1,-2", "--T", "12"]),
        ("evanesce 1-D", ["evanesce", "--potential", "quadratic:1", "--x0", "1"]),
        ("evanesce 2-D", ["evanesce", "--potential", QUAD_2D, "--x0", "1,1"]),
        ("reconstruct", ["reconstruct", "--potential", QUAD_2D, "--grid=-1:1:5,-1:1:5"]),
        ("determine", ["determine", "quadratic:1", "quadratic:1+5"]),
        ("check-convexity cubic", ["check-convexity", "--potential", "cubic"]),
    ]
    runs = [(f"cli README {name}", argv, None) for name, argv in readme]
    runs += [(f"cli evanesce both {p} @{x0}",
              ["evanesce", "--potential", p, f"--x0={x0}"], {"solver": "both"})
             for p, x0 in EVANESCE_BOTH]
    runs += [(f"cli check-convexity {p}", ["check-convexity", "--potential", p], None)
             for p in CATALOG if p != "cubic"]
    runs += [
        ("cli flow example_one", ["flow", "--potential", "example_one", "--x0=-1",
                                  "--T", "5"], None),
        ("cli second-order cubic", ["second-order", "--potential", "cubic", "--x0", "1",
                                    "--v0=-3", "--T", "1"], None),
        ("cli reconstruct cubic", ["reconstruct", "--potential", "cubic",
                                   "--grid=0.5:1:3"], None),
        ("cli determine linear neg_linear", ["determine", "linear", "neg_linear"], None),
    ]
    return runs


def _feed(h, obj) -> None:
    """Feed obj's canonical form to the hash h."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = np.ascontiguousarray(obj)
        h.update(f"array {obj.dtype.str} {obj.shape}:".encode())
        h.update(obj.tobytes())
    elif isinstance(obj, float):
        h.update(f"float {obj.hex()};".encode())
    elif obj is None or isinstance(obj, (bool, int, str)):
        h.update(f"{type(obj).__name__} {obj!r};".encode())
    elif isinstance(obj, bytes):
        h.update(f"bytes {len(obj)}:".encode())
        h.update(obj)
    elif isinstance(obj, dict):
        h.update(f"dict {len(obj)}:".encode())
        for key, value in obj.items():
            _feed(h, key)
            _feed(h, value)
    elif isinstance(obj, (list, tuple)):
        h.update(f"list {len(obj)}:".encode())
        for item in obj:
            _feed(h, item)
    elif dataclasses.is_dataclass(obj):
        _feed(h, {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})
    elif isinstance(obj, Exception):
        h.update(f"error {type(obj).__name__}: {obj};".encode())
    else:
        raise TypeError(f"cannot hash a {type(obj).__name__}")


def _cli_case(argv, config):
    """(exit code, stdout, stderr, {artifact: bytes}) of one run in a fresh
    directory, written as TMP."""
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            (Path(tmp) / "config.json").write_text(json.dumps(config))
            argv = [*argv, "--config", str(Path(tmp) / "config.json")]
        out = Path(tmp) / "out"
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr), \
                warnings.catch_warnings():
            # each run prints its warnings whatever ran before it
            warnings.simplefilter("always")
            try:
                code = cli.main([*argv, "--out", str(out)])
            except SystemExit as exc:  # argparse rejected the arguments
                code = exc.code
        files = {p.name: p.read_bytes().replace(tmp.encode(), b"TMP")
                 for p in sorted(out.iterdir())} if out.is_dir() else {}
        return (code, stdout.getvalue().replace(tmp, "TMP"),
                stderr.getvalue().replace(tmp, "TMP"), files)


def _recon_action_quadratics(seed: int = 1) -> list:
    """The recon-action workload's quadratics: eigenvalues 1 and 2 within 2%,
    orientations a quarter turn / 3 apart from a seeded offset."""
    rng = np.random.default_rng(seed)
    step = 0.5 * np.pi / 3
    theta0 = rng.uniform(0.0, step)
    mats = []
    for k in range(3):
        lams = [1.0 * rng.uniform(0.98, 1.02), 2.0 * rng.uniform(0.98, 1.02)]
        c, s = np.cos(theta0 + k * step), np.sin(theta0 + k * step)
        R = np.array([[c, -s], [s, c]])
        A = R @ np.diag(lams) @ R.T
        mats.append(0.5 * (A + A.T))
    return mats


def _quartic(A) -> DifferentiableField:
    """psi = 0.5 x'Ax + 0.25 sum x_i^4, given without a hessvec."""
    def value(x):
        x = np.asarray(x, float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, A, x) + 0.25 * np.sum(x ** 4, axis=-1)

    def gradient(x):
        x = np.asarray(x, float)
        return x @ A + x ** 3

    return DifferentiableField(dim=len(A), value=value, gradient=gradient, name="quartic")


def _double_well() -> DifferentiableField:
    """psi = x^4/4 - x^2/2 with its exact hessvec."""
    def value(x):
        x = np.asarray(x, float)[..., 0]
        return 0.25 * x ** 4 - 0.5 * x ** 2

    def gradient(x):
        x = np.asarray(x, float)
        return x ** 3 - x

    def hessvec(x, h):
        return (3.0 * np.asarray(x, float) ** 2 - 1.0) * np.asarray(h, float)

    return DifferentiableField(dim=1, value=value, gradient=gradient, hessvec=hessvec,
                               name="double_well")


# (name, A, x0) of each quartic start
QUARTICS = [(f"{a}@{x0}", A, x0)
            for a, A in (("diag(2,3)", np.diag([2.0, 3.0])),
                         ("A4", np.array([[1.0, 0.3], [0.3, 0.5]])))
            for x0 in ([1.0, 1.0], [-1.0, 0.5])]


def _draw(rng, lo, hi, lam, with_x0):
    n = int(rng.integers(lo, hi))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(rng.uniform(*lam, size=n)) @ Q.T
    x0 = rng.uniform(-1.5, 1.5, size=n) if with_x0 else np.ones(n)
    return A, x0


def _quadratic(name, A, x0):
    """(name, V, x0, A, grad psi(x0)) of a scan problem: A gives the
    closed-form orbit."""
    A = 0.5 * (A + A.T)
    return name, make_quadratic(A).v, np.asarray(x0, float), A, A @ x0


def _random(seed, count, lo, hi, lam):
    rng = np.random.default_rng(seed)
    return [_quadratic(f"rng{seed}#{k}", *_draw(rng, lo, hi, lam, True))
            for k in range(count)]


def scans() -> dict:
    """{set: its scan problems}."""
    lead = [("diag(1,2)", np.diag([1.0, 2.0])), ("1.5diag(1,2)", 1.5 * np.diag([1.0, 2.0])),
            ("diag(0.3,1)", np.diag([0.3, 1.0])), ("diag(1.5,3)", np.diag([1.5, 3.0])),
            ("[[1.3,.4],[.4,1.8]]", np.array([[1.3, 0.4], [0.4, 1.8]])),
            ("diag(1,1.5,2)", np.diag([1.0, 1.5, 2.0]))]
    rng = np.random.default_rng(7)
    lead += [(f"rng7#{k}", _draw(rng, 2, 4, (0.2, 3.0), False)[0]) for k in range(8)]
    A_nohess = np.array([[2.0, 0.5], [0.5, 1.0]])
    main = ([_quadratic(name, A, np.ones(len(A))) for name, A in lead]
            + _random(11, 40, 2, 5, (0.3, 3.0))
            + [(f"quartic {name}", induced_potential(_quartic(A)), np.asarray(x0), None,
                A @ x0 + np.asarray(x0) ** 3) for name, A, x0 in QUARTICS]
            + [("no-hessvec", induced_potential(make_quadratic(A_nohess).psi),
                np.array([1.0, -1.0]), A_nohess, A_nohess @ [1.0, -1.0])])
    return {"main": main,
            "held-out": _random(23, 40, 2, 5, (0.3, 3.0)) + _random(29, 40, 2, 5, (0.3, 3.0)),
            "spd60": _random(4, 60, 2, 5, (0.8, 2.0))}


def _checked(traj, checks) -> list:
    """traj, then each check's result on it or the error the check raised."""
    out = [traj]
    for check in checks:
        try:
            out.append(check(traj))
        except (ValueError, ArithmeticError) as exc:
            out.append(exc)
    return out


def _flow_case(pp, x0, T, opts) -> list:
    return _checked(gradient_flow(pp, x0, T, opts), [
        lambda t, check=check: check(t, pp.psi)
        for check in (check_lyapunov_psi, check_energy_identity,
                      check_grad_norm_monotone, check_limit_point)])


def _second_order_case(pp, x0, T) -> list:
    psi, V = pp.psi, pp.v
    return _checked(second_order_flow(V, x0, -psi.gradient(x0), T), [
        lambda t: check_first_integral(t, V), lambda t: check_modula_equality(t, psi=psi, V=V),
        lambda t: check_phi_residual(t, psi), check_hardy,
        lambda t: evanescence_measures(t, V)])


def _orbit_cases() -> list:
    """(name, thunk, None) of the flow and second-order cases, from the
    starts of the evanesce runs with solver both."""
    out = []
    for p, x0 in EVANESCE_BOTH:
        pp, x0 = resolve_potential(p), np.array([float(c) for c in x0.split(",")])
        for method, opts in (("rk45", IntegratorOptions()),
                             ("rk4", IntegratorOptions(method="rk4", h=0.05))):
            out += [(f"flow {p} @{x0.tolist()} {method} T={horizon:g}",
                     lambda pp=pp, x0=x0, horizon=horizon, opts=opts:
                     _flow_case(pp, x0, horizon, opts), None)
                    for horizon in (0.3, 12.0)]
        out.append((f"second-order {p} @{x0.tolist()} T=6",
                    lambda pp=pp, x0=x0: _second_order_case(pp, x0, 6.0), None))
    return out


TAIL_KEYS = ("tail_slope", "tail_estimate")


def _split_points(per_point) -> tuple:
    """(per-point dicts without the tail keys, [tail_slope, tail_estimate]
    of each point)."""
    return ([{k: v for k, v in d.items() if k not in TAIL_KEYS} for d in per_point],
            [[d[k] for k in TAIL_KEYS] for d in per_point])


def _split_recon(result) -> tuple:
    """(values, tail) of a ReconstructionResult."""
    per_point, tail = _split_points(result.per_point)
    return (result.points, result.psi_hat, per_point, result.config), tail


def _split_cli_recon(result) -> tuple:
    """(values, tail) of a reconstruct CLI run: the tail keys come out of
    reconstruction.json and the tail_estimate column out of
    reconstruction.csv.  A run that wrote no artifact is all values."""
    code, stdout, stderr, files = result
    if "reconstruction.json" not in files:
        return result, None
    report = json.loads(files["reconstruction.json"])
    report["per_point"], tail = _split_points(report["per_point"])
    rows = [line.split(",") for line in files["reconstruction.csv"].decode().splitlines()]
    col = rows[0].index("tail_estimate")
    csv = [row[:col] + row[col + 1:] for row in rows]
    return (code, stdout, stderr, report, csv), tail


def cases() -> list:
    """(name, thunk, split) of every case, in print order; split is None
    for a case printed as one line, and otherwise turns the case's result
    into its (values, tail) pair."""
    out = [(name, lambda argv=argv, config=config: _cli_case(argv, config),
            _split_cli_recon if argv[0] == "reconstruct" else None)
           for name, argv, config in _cli_runs()]
    points = grid_points([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
    recon = [(f"recon-action seed 1 grid {k}", make_quadratic(A).v, points, None)
             for k, A in enumerate(_recon_action_quadratics())]
    recon += [
        ("recon 41x41 [[1.3,.4],[.4,1.8]]", make_quadratic([[1.3, 0.4], [0.4, 1.8]]).v,
         grid_points([(-1.0, 1.0, 41), (-1.0, 1.0, 41)]), None),
        ("recon quadratic:0.05 -1:1:5", make_quadratic([[0.05]]).v,
         grid_points([(-1.0, 1.0, 5)]), None),
        ("recon 5x5 [[1.3,.4],[.4,1.8]] N=239", make_quadratic([[1.3, 0.4], [0.4, 1.8]]).v,
         points, ReconstructOptions(N=239)),
        ("recon double-well", induced_potential(_double_well()),
         [[-0.4], [0.0], [0.5], [1.5], [2.0]], None),
        ("recon quartic diag(2,3) 5x5", induced_potential(_quartic(np.diag([2.0, 3.0]))),
         points, None),
    ]
    out += [(name, lambda V=V, points=points, opts=opts:
             reconstruct_grid(V.scaled(2.0), points, opts), _split_recon)
            for name, V, points, opts in recon]
    for name, A, x0 in QUARTICS:
        psi = _quartic(A)
        V = induced_potential(psi)
        out += [(f"quartic {name} {solve.__name__}",
                 lambda solve=solve, V=V, x0=x0, psi=psi: solve(V, x0, psi=psi), None)
                for solve in (minimize_action, shoot_evanescent)]
    return out + _orbit_cases()


def fingerprint(obj) -> str:
    h = hashlib.sha256()
    _feed(h, obj)
    return h.hexdigest()[:16]


def lines(name, thunk, split) -> list:
    """The printed lines of one case: `name hash`, or for a split case
    `name values hash` and `name tail hash` (both of the error it raised,
    if it raised one)."""
    try:
        result = thunk()
    except (ValueError, ArithmeticError) as exc:
        result = exc
    if split is None:
        return [f"{name} {fingerprint(result)}"]
    values, tail = (result, result) if isinstance(result, Exception) else split(result)
    return [f"{name} values {fingerprint(values)}", f"{name} tail {fingerprint(tail)}"]


def scan_lines(scan, problems):
    """The printed lines of one scan: one per problem, then the totals."""
    steps = orbits = converged = 0
    for name, V, x0, A, grad in problems:
        res = shoot_evanescent(V, x0, T)
        d = res.detail
        v0_err = float(np.linalg.norm(np.asarray(d["v0"]) + grad))
        node_err, stiff = "-", "-"
        if A is not None:
            lam, Q = np.linalg.eigh(A)
            t = res.trajectory
            exact = (Q * np.exp(-np.outer(t.times, lam))[:, None, :]) @ (Q.T @ x0)
            node_err = f"{np.max(np.abs(t.states - exact)):.3g}"
            stiff = f"{lam[-1] * T:.1f}"
        n_steps = d["steps_accepted"] + d["steps_rejected"]
        steps += n_steps
        orbits += d["evaluations"]
        converged += res.converged
        yield "\t".join([f"scan {scan} {name} {fingerprint(res)}", str(len(x0)), stiff,
                         str(res.converged), str(d["evaluations"]), str(n_steps),
                         f"{v0_err:.3g}", node_err])
    yield (f"scan {scan} total\t{len(problems)} problems\tRK steps {steps}\t"
           f"orbits {orbits}\tconverged {converged}")


ROOT = Path(__file__).resolve().parents[1]
PIN_FACTORS = (4, 0.25)
PIN_TIMEOUT = 300.0     # seconds per tier-1 run
# not thresholds: the CLI's exit codes and its bound on counts
PIN_SKIP = re.compile(r"EXIT_|MAX_COUNT$")


def constants() -> list:
    """(file, name, value, (start, end) offsets of the value's source) of
    every numeric module constant of src/evanflow/: an upper-case name
    assigned at module level a number its own expression computes."""
    out = []
    for path in sorted((ROOT / "src" / "evanflow").glob("*.py")):
        text = path.read_text()
        starts = [0]
        for line in text.splitlines(keepends=True):
            starts.append(starts[-1] + len(line))
        for node in ast.parse(text).body:
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            name, v = node.targets[0].id, node.value
            if not re.fullmatch(r"_?[A-Z][A-Z0-9_]*", name) or PIN_SKIP.match(name):
                continue
            try:
                value = eval(compile(ast.Expression(v), str(path), "eval"), {"__builtins__": {}})
            except NameError:   # computed from other names
                continue
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                out.append((path.relative_to(ROOT), name, value,
                            (starts[v.lineno - 1] + v.col_offset,
                             starts[v.end_lineno - 1] + v.end_col_offset)))
    return out


def _tier1(tree: Path) -> str:
    """`held <first failing test>`, `free` or `timeout` of one tier-1 run,
    stopped at its first failure, in tree."""
    shutil.rmtree(tree / ".hypothesis", ignore_errors=True)
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    try:
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x", "-rfE", "-p", "no:cacheprovider"],
            cwd=tree, env=env, capture_output=True, text=True, timeout=PIN_TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    if run.returncode == 0:
        return "free"
    failed = re.search(r"^(?:FAILED|ERROR) (\S+)", run.stdout, re.M)
    return f"held {failed.group(1) if failed else f'(pytest exit {run.returncode})'}"


def pins(names) -> int:
    """Print `file name factor result` for each numeric module constant
    (only those named, if any) at x4 and at 1/4, each rewritten alone in a
    copy of the tree; returns 1 if a constant is held at neither factor."""
    found = [c for c in constants() if not names or c[1] in names]
    missing = set(names) - {c[1] for c in found}
    if missing:
        sys.exit(f"no numeric module constant named {', '.join(sorted(missing))}")
    loose = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, tree / part,
                            ignore=shutil.ignore_patterns("__pycache__"))
        for part in ("pyproject.toml", "README.md"):
            shutil.copy(ROOT / part, tree / part)
        for path, name, value, (a, b) in found:
            text = (ROOT / path).read_text()
            held = False
            for factor in PIN_FACTORS:
                new = value * factor if isinstance(value, float) else int(value * factor)
                (tree / path).write_text(text[:a] + repr(new) + text[b:])
                result = _tier1(tree)
                held |= result.startswith("held")
                print(f"{path} {name} x{factor:g} {result}", flush=True)
            (tree / path).write_text(text)
            loose += not held
    return int(loose > 0)


def main(argv) -> None:
    if argv[:1] == ["pins"]:
        sys.exit(pins(argv[1:]))
    if argv != ["hash"]:
        sys.exit("usage: tools/corpus.py hash | pins [NAME ...]")
    for case in cases():
        print("\n".join(lines(*case)), flush=True)
    for scan, problems in scans().items():
        for line in scan_lines(scan, problems):
            print(line, flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
