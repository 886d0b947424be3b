"""Command-line front end: scenario runner with CSV/JSON outputs.

Each command computes its run and returns its artifacts as texts, its
summary and its exit code; main alone creates --out, writes the artifacts
and prints the summary, so a run that fails writes nothing.  The config
each artifact echoes holds every key but out, so a run's artifacts are the
same bytes whichever directory they are written to.

The floating-point policy for outside input is set here, once: main runs
each command inside np.errstate(over="ignore", invalid="ignore"), so an
input that overflows gives inf and NaN values, which the checks fail on,
and no warning.  The library below follows the caller's numpy settings.

Exit codes: 0 all requested checks pass, 1 input error, 2 at least one check
failed, 3 theorem hypotheses not met (determination).
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from evanflow.diagnostics import (
    DiagnosticsReport,
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
from evanflow.eikonal import (
    ReconstructOptions,
    convexity_criterion_check,
    determination_check,
    determination_verdict,
    eikonal_residual,
    grid_points,
    reconstruct_grid,
)
from evanflow.evanescent import (
    DEFAULT_MAX_ITERS,
    DEFAULT_N,
    DEFAULT_T,
    cross_validate,
    minimize_action,
    shoot_evanescent,
)
from evanflow.fields import resolve_potential
from evanflow.integrate import IntegratorOptions, gradient_flow, second_order_flow

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 2
EXIT_HYPOTHESIS = 3


class InputError(ValueError):
    """Bad command-line or config input; the CLI exits 1."""


# Declared types of config values.  Each takes a value from a flag (always a
# string) or from a config file and returns it as the config holds it:
# numbers coerced, vectors and grids checked and kept as given (parsed=True
# returns them parsed).  A value of another type raises TypeError or
# ValueError; the docstring names the type in the error message.

def _float(value) -> float:
    """a number"""
    if isinstance(value, bool):
        raise TypeError(value)
    return float(value)


def _positive(value) -> float:
    """a positive finite number"""
    x = _float(value)
    if not 0.0 < x < np.inf:
        raise ValueError(value)
    return x


def _int(value) -> int:
    """an integer"""
    if isinstance(value, bool) or isinstance(value, float) and not value.is_integer():
        raise TypeError(value)
    return int(value)


def _seed(value) -> int:
    """an integer >= 0"""
    k = _int(value)
    if k < 0:
        raise ValueError(value)
    return k


def _count(value) -> int:
    """an integer >= 1"""
    k = _int(value)
    if k < 1:
        raise ValueError(value)
    return k


# The largest count that sizes an array: N, samples, and a grid's points
# (the product of its axis counts).  A larger one fails with an input error
# before anything is allocated; the types' docstrings state it.
MAX_COUNT = 1_000_000


def _nodes(value) -> int:
    """an integer from 2 to 1000000"""
    k = _int(value)
    if not 2 <= k <= MAX_COUNT:
        raise ValueError(value)
    return k


def _samples(value) -> int:
    """an integer from 1 to 1000000"""
    k = _int(value)
    if not 1 <= k <= MAX_COUNT:
        raise ValueError(value)
    return k


def _str(value) -> str:
    """a string"""
    if not isinstance(value, str):
        raise TypeError(value)
    return value


def _bool(value) -> bool:
    """true or false"""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _names(value):
    """a comma-separated string or a list of strings"""
    return [_str(v) for v in value] if isinstance(value, list) else _str(value)


def _vector(value, parsed=False):
    """a vector of finite numbers: a number, "x,y,..." or a list of numbers"""
    items = value if isinstance(value, list) else (
        [value] if isinstance(value, (int, float)) else _str(value).split(","))
    vec = np.array([_float(v) for v in items])
    if not np.isfinite(vec).all():
        raise ValueError(value)
    return vec if parsed else value


def _grid(value, parsed=False):
    """a grid: "min:max:count[,...]" or [[min, max, count], ...], finite, 1 to 1000000 points"""
    axes = value if isinstance(value, list) else [
        axis.split(":") for axis in _str(value).split(",")]
    spec = [(_float(lo), _float(hi), _int(count)) for lo, hi, count in axes]
    if (any(count < 1 or not np.isfinite([lo, hi]).all() for lo, hi, count in spec)
            or math.prod(count for _, _, count in spec) > MAX_COUNT):
        raise ValueError(value)
    return spec if parsed else value


# Each command's config keys: default and declared type; a default of ...
# marks a required key.  A key in _FLAGS also has a flag --<key>, a key in
# _POSITIONAL a positional argument; the others are set from a file only.
_INTEG = IntegratorOptions()
_INTEG_KEYS = {
    # the CLI calls IntegratorOptions.method "integrator"
    "integrator": (_INTEG.method, _str), "h": (_INTEG.h, _positive),
    "rtol": (_INTEG.rtol, _float),
}
_DEFAULTS = {
    "flow": {
        "potential": (..., _str), "x0": (..., _vector), "T": (10.0, _positive),
        **_INTEG_KEYS, "checks": ("all", _names), "out": (".", _str),
    },
    "second-order": {
        "potential": (..., _str), "x0": (..., _vector), "v0": (..., _vector),
        "T": (10.0, _positive), **_INTEG_KEYS, "checks": ("all", _names),
        "out": (".", _str),
    },
    "evanesce": {
        "potential": (..., _str), "x0": (..., _vector),
        "T": (DEFAULT_T, _positive), "N": (DEFAULT_N, _nodes),
        "max_iters": (DEFAULT_MAX_ITERS, _count), "solver": ("action", _str),
        "cross_validate": (True, _bool), "seed": (0, _seed), "out": (".", _str),
    },
    "reconstruct": {
        "potential": (..., _str), "grid": (..., _grid),
        "T": (DEFAULT_T, _positive), "N": (DEFAULT_N, _nodes),
        "out": (".", _str),
    },
    "determine": {
        "potential1": (..., _str), "potential2": (..., _str),
        "samples": (24, _nodes), "box": (2.0, _positive), "seed": (0, _seed),
        "out": (".", _str),
    },
    "check-convexity": {
        "potential": (..., _str), "samples": (20, _samples),
        "box": (2.0, _positive), "seed": (0, _seed), "out": (".", _str),
    },
}
_FLAGS = ("potential", "x0", "v0", "T", "h", "rtol", "N", "grid", "seed",
          "out", "checks")
_POSITIONAL = ("potential1", "potential2")


def _load_config(cmd: str, path, flags: dict) -> dict:
    """The command's defaults, overlaid by the JSON object in the file at
    path, then by the flags given; every value is coerced to its declared
    type."""
    table = _DEFAULTS[cmd]
    cfg = {key: default for key, (default, _) in table.items()}
    if path:
        try:
            with open(path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise InputError(f"config {path} is not a JSON object")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise InputError(
                f"unknown config keys for {cmd}: {sorted(unknown)}"
            )
        cfg.update(file_cfg)
    cfg.update((key, val) for key, val in flags.items() if val is not None)
    for key, (_, kind) in table.items():
        if cfg[key] is ...:
            raise InputError(f"missing required {key}")
        try:
            cfg[key] = kind(cfg[key])
        except (TypeError, ValueError):
            raise InputError(f"{key} must be {kind.__doc__}, got {cfg[key]!r}")
    return cfg


def _options(cls, cfg, **renamed):
    """cls built from the config keys named as its fields (or as renamed)."""
    keys = {f.name: renamed.get(f.name, f.name) for f in fields(cls)}
    return cls(**{name: cfg[key] for name, key in keys.items() if key in cfg})


def _point(cfg, key, dim):
    """The vector cfg[key], which must have dim components."""
    vec = _vector(cfg[key], parsed=True)
    if len(vec) != dim:
        raise InputError(f"{key} must have {dim} components, the dimension of "
                         f"the potential, got {len(vec)}")
    return vec


def _requested(cfg, available):
    sel = cfg["checks"]
    if sel in ("all", ""):
        return list(available)
    names = sel if isinstance(sel, list) else sel.split(",")
    unknown = [n for n in names if n not in available]
    if unknown:
        raise InputError(f"unknown checks {unknown}; available: {sorted(available)}")
    return names


def _plain(obj):
    """obj as plain Python data: numpy values and arrays converted, and each
    non-finite float None."""
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _plain(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(val) for val in obj]
    if isinstance(obj, np.generic):
        obj = obj.item()
    if isinstance(obj, float) and not np.isfinite(obj):
        return None
    return obj


def _dumps(obj, **kw) -> str:
    """Strict JSON of obj, keys sorted, non-finite numbers as null; the one
    encoder of every artifact and summary line."""
    return json.dumps(_plain(obj), sort_keys=True, allow_nan=False, **kw)


def _json(obj) -> str:
    """The text of a JSON artifact."""
    return _dumps(obj, indent=2) + "\n"


def _csv(header, rows) -> str:
    """The text of a CSV artifact: the header, then one line per row, with
    numbers to 17 significant digits (nan and inf kept) and flags as true
    or false.  The first row's types give one %-format for every row."""
    lines = [",".join(header)]
    fmt = None
    for row in rows:
        if fmt is None:
            flags = [j for j, v in enumerate(row) if isinstance(v, bool)]
            fmt = ",".join("%s" if j in flags else "%.17g" for j in range(len(row)))
        if flags:
            row = [("true" if v else "false") if j in flags else v for j, v in enumerate(row)]
        lines.append(fmt % tuple(row))
    return "\n".join(lines) + "\n"


def _trajectory_csv(traj) -> str:
    """One row t, x0..x{n-1}, w0..w{n-1} per node of traj."""
    n = traj.dim
    return _csv(["t", *(f"x{i}" for i in range(n)), *(f"w{i}" for i in range(n))],
                np.column_stack([traj.times, traj.states, traj.velocities]).tolist())


def _orbit_run(stem, report: DiagnosticsReport, traj, cfg, **extra):
    """The artifacts, summary and exit code of a flow or second-order run."""
    payload = {**report.to_dict(), "config": cfg, "termination": traj.termination,
               "t_end": traj.t_end, **extra}
    files = {f"{stem}_trajectory.csv": _trajectory_csv(traj),
             f"{stem}_report.json": _json(payload)}
    return files, payload["summary"], EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_flow(cfg):
    pp = resolve_potential(cfg["potential"])
    x0 = _point(cfg, "x0", pp.dim)
    opts = _options(IntegratorOptions, cfg, method="integrator")
    available = {
        "lyapunov": lambda: check_lyapunov_psi(traj, pp.psi),
        "energy": lambda: check_energy_identity(traj, pp.psi),
        "grad_norm_monotone": lambda: check_grad_norm_monotone(traj, pp.psi),
        "limit_point": lambda: check_limit_point(traj, pp.psi),
    }
    requested = _requested(cfg, available)
    traj = gradient_flow(pp, x0, cfg["T"], opts)
    report = DiagnosticsReport(subject=f"flow {pp.psi.name}")
    for name in requested:
        report.add(available[name]())
    return _orbit_run("flow", report, traj, cfg)


def cmd_second_order(cfg):
    pp = resolve_potential(cfg["potential"])
    x0 = _point(cfg, "x0", pp.dim)
    v0 = _point(cfg, "v0", pp.dim)
    opts = _options(IntegratorOptions, cfg, method="integrator")
    available = {
        "first_integral": lambda: check_first_integral(traj, pp.v),
        "modula": lambda: check_modula_equality(traj, psi=pp.psi, V=pp.v),
        "phi_residual": lambda: check_phi_residual(traj, pp.psi),
        "hardy": lambda: check_hardy(traj),
    }
    requested = _requested(cfg, available)
    traj = second_order_flow(pp.v, x0, v0, cfg["T"], opts)
    report = DiagnosticsReport(subject=f"second-order {pp.psi.name}")
    for name in requested:
        report.add(available[name]())
    return _orbit_run("second_order", report, traj, cfg,
                      evanescence=evanescence_measures(traj, pp.v))


def cmd_evanesce(cfg):
    pp = resolve_potential(cfg["potential"])
    x0 = _point(cfg, "x0", pp.dim)
    T, N, max_iters, solver = cfg["T"], cfg["N"], cfg["max_iters"], cfg["solver"]
    if solver not in ("action", "shoot", "both"):
        raise InputError(f"unknown solver {solver!r}")
    results = {}
    if solver in ("action", "both"):
        results["action"] = minimize_action(pp.v, x0, T, N, max_iters, psi=pp.psi)
    if solver in ("shoot", "both"):
        results["shoot"] = shoot_evanescent(pp.v, x0, T, psi=pp.psi)
    payload = {"config": cfg, "results": {}}
    all_converged = True
    for key, res in results.items():
        payload["results"][key] = {
            "converged": res.converged,
            "final_action": res.final_action,
            "detail": res.detail,
            "diagnostics": res.diagnostics.to_dict(),
        }
        all_converged = all_converged and res.converged
    if cfg["cross_validate"]:
        xv = cross_validate(pp, x0, T, N, seed=cfg["seed"],
                            max_iters=max_iters, action=results.get("action"),
                            shot=results.get("shoot"))
        payload["cross_validation"] = xv.to_dict()
        all_converged = all_converged and xv.all_passed
    files = {f"evanesce_{key}_path.csv": _trajectory_csv(res.trajectory)
             for key, res in results.items()}
    files["evanesce_report.json"] = _json(payload)
    return files, {"converged": all_converged}, (
        EXIT_OK if all_converged else EXIT_CHECK_FAILED)


def cmd_reconstruct(cfg):
    pp = resolve_potential(cfg["potential"])
    grid_spec = _grid(cfg["grid"], parsed=True)
    if len(grid_spec) != pp.dim:
        raise InputError(
            f"grid has {len(grid_spec)} axes but potential dim is {pp.dim}"
        )
    # f = ||grad psi||^2 = 2 V; only f is handed to the reconstructor
    f = pp.v.scaled(2.0)
    points = grid_points(grid_spec)
    recon = reconstruct_grid(f, points, _options(ReconstructOptions, cfg))
    payload = recon.to_dict()
    payload["config_cli"] = cfg
    ok = all(d["converged"] for d in recon.per_point)
    if all(c >= 3 and lo != hi for lo, hi, c in grid_spec):
        resid = eikonal_residual(recon, f, grid_spec)
        payload["eikonal_residual"] = resid.to_dict()
        ok = ok and resid.passed
    header = [*(f"x{i}" for i in range(pp.dim)),
              "psi_hat", "ev_integral", "tail_estimate", "converged"]
    rows = ([*p, v, d["ev_integral"], d["tail_estimate"], bool(d["converged"])]
            for p, v, d in zip(recon.points, recon.psi_hat, recon.per_point))
    files = {"reconstruction.csv": _csv(header, rows),
             "reconstruction.json": _json(payload)}
    return files, {"converged": ok}, EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_determine(cfg):
    pp1 = resolve_potential(cfg["potential1"])
    pp2 = resolve_potential(cfg["potential2"])
    if pp1.dim != pp2.dim:
        raise InputError("potentials have different dimensions")
    rng = np.random.default_rng(cfg["seed"])
    pts = cfg["box"] * rng.uniform(-1.0, 1.0, size=(cfg["samples"], pp1.dim))
    report = determination_check(pp1.psi, pp2.psi, pts)
    verdict, c = determination_verdict(report)
    payload = {**report.to_dict(), "config": cfg, "verdict": verdict, "constant": c}
    code = {"pass": EXIT_OK, "hypothesis_not_met": EXIT_HYPOTHESIS}.get(
        verdict, EXIT_CHECK_FAILED)
    return ({"determination.json": _json(payload)},
            {"constant": c, "verdict": verdict}, code)


def cmd_check_convexity(cfg):
    pp = resolve_potential(cfg["potential"])
    rng = np.random.default_rng(cfg["seed"])
    box, m = cfg["box"], cfg["samples"]
    pairs = box * rng.uniform(-1.0, 1.0, size=(m, 2, pp.dim))
    probes = box * rng.uniform(-1.0, 1.0, size=(m, pp.dim))
    report = convexity_criterion_check(pp, pairs, probes)
    payload = {**report.to_dict(), "config": cfg}
    by_id = {c.check_id: c.passed for c in report.checks}
    code = EXIT_OK if by_id["crit_implication_holds"] else EXIT_CHECK_FAILED
    return {"convexity_criterion.json": _json(payload)}, by_id, code


_COMMANDS = {
    "flow": cmd_flow,
    "second-order": cmd_second_order,
    "evanesce": cmd_evanesce,
    "reconstruct": cmd_reconstruct,
    "determine": cmd_determine,
    "check-convexity": cmd_check_convexity,
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InputError(message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process; parsing leaves it unchanged."""
    parser = _Parser(
        prog="evanflow",
        description="Gradient-flow simulation, evanescent-orbit solving and "
                    "potential reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config")
        for key in _DEFAULTS[name]:
            if key in _FLAGS:
                p.add_argument(f"--{key}")
            elif key in _POSITIONAL:
                p.add_argument(key, nargs="?")
    return parser


def main(argv=None) -> int:
    try:
        args = vars(build_parser().parse_args(argv))
        cmd = args.pop("command")
        cfg = _load_config(cmd, args.pop("config"), args)
        out = Path(cfg.pop("out"))
        # a new errstate per run: one instance cannot be entered twice
        with np.errstate(over="ignore", invalid="ignore"):
            files, summary, code = _COMMANDS[cmd](cfg)
        out.mkdir(parents=True, exist_ok=True)
        for name, text in files.items():
            (out / name).write_text(text, newline="\n")
    # InputError, CatalogError, NonnegativityError, ..., a field that
    # leaves its domain (NumericDomainError) or a horizon that overflows
    # (OverflowError), and an --out that cannot be created or written
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    print(_dumps(summary))
    return code


if __name__ == "__main__":
    sys.exit(main())
