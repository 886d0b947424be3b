"""Corpus fingerprints: one hash per fixed case, for bit-identity claims.

    PYTHONPATH=src python tools/corpus.py hash

Prints one line per case, ``name sha256[:16]``, or two for a
reconstruction case (see below).  A case hashes its result (arrays as
dtype, shape and bytes; floats by their hex form) or, where it raises, the
error's type and message.  The cases:
  cli ...       24 in-process CLI runs: the README's commands, evanesce with
                solver both on every catalog entry and on the 1-D and 2-D
                quadratics, check-convexity on every catalog entry, and a
                flow, second-order, reconstruct and determine run on
                catalog entries; each hashes its exit code, stdout, stderr
                and artifacts, with the run's directory written as TMP
  recon-action  reconstruct_grid on the 5x5 grid of each of the three
                seed-1 quadratics of the benchmark's recon-action workload
  recon ...     reconstruct_grid on the 41x41 grid of [-1, 1]^2 for the
                quadratic [[1.3, .4], [.4, 1.8]], and on the 5 points of
                -1:1:5 for quadratic:0.05, whose points take the (2T, 2N)
                horizon retry
  quartic ...   minimize_action and shoot_evanescent at T = 12 on
                psi = 0.5 x'Ax + 0.25 sum x_i^4, given without a hessvec,
                for A = diag(2, 3) and [[1, .3], [.3, .5]] from (1, 1) and
                (-1, 0.5)

Each reconstruction case, in-process or through the CLI, prints two lines:
``... values`` hashes everything but the tail fit (psi_hat, ev_integral,
converged, T_used, error, the residual check and the rest of the run), and
``... tail`` hashes each point's tail_slope and tail_estimate.  A change to
the tail fit that moves the slopes by rounding only then leaves the values
lines as they were.

The bytes depend on the machine's BLAS, so two trees are compared on one
machine; the output is not a reference to check in.
"""
from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

from evanflow import cli
from evanflow.eikonal import ReconstructOptions, grid_points, reconstruct_grid
from evanflow.evanescent import minimize_action, shoot_evanescent
from evanflow.fields import DifferentiableField, induced_potential, make_quadratic

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
    A = np.asarray(A, float)
    return DifferentiableField(
        dim=len(A),
        value=lambda x: (0.5 * np.einsum("...i,ij,...j->...", x, A, x)
                         + 0.25 * np.sum(np.asarray(x, float) ** 4, axis=-1)),
        gradient=lambda x: np.asarray(x, float) @ A + np.asarray(x, float) ** 3,
        name="quartic")


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
    recon = [(f"recon-action seed 1 grid {k}", make_quadratic(A), points)
             for k, A in enumerate(_recon_action_quadratics())]
    recon += [
        ("recon 41x41 [[1.3,.4],[.4,1.8]]", make_quadratic([[1.3, 0.4], [0.4, 1.8]]),
         grid_points([(-1.0, 1.0, 41), (-1.0, 1.0, 41)])),
        ("recon quadratic:0.05 -1:1:5", make_quadratic([[0.05]]),
         grid_points([(-1.0, 1.0, 5)])),
    ]
    out += [(name, lambda pp=pp, points=points: reconstruct_grid(
                pp.v.scaled(2.0), points, ReconstructOptions(workers=1)), _split_recon)
            for name, pp, points in recon]
    for a, A in (("diag(2,3)", np.diag([2.0, 3.0])), ("A4", [[1.0, 0.3], [0.3, 0.5]])):
        psi = _quartic(A)
        V = induced_potential(psi)
        for x0 in ([1.0, 1.0], [-1.0, 0.5]):
            out += [(f"quartic {a}@{x0} {solve.__name__}",
                     lambda solve=solve, V=V, x0=x0, psi=psi: solve(V, x0, psi=psi), None)
                    for solve in (minimize_action, shoot_evanescent)]
    return out


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


def main(argv) -> None:
    if argv != ["hash"]:
        sys.exit("usage: tools/corpus.py hash")
    for case in cases():
        print("\n".join(lines(*case)), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
