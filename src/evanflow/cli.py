"""Command-line front end: scenario runner with CSV/JSON outputs.

Exit codes: 0 all requested checks pass, 1 input error, 2 at least one check
failed, 3 theorem hypotheses not met (determination).
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict
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
    determination_check,
    determination_verdict,
    eikonal_residual,
    grid_points,
    reconstruct_grid,
)
from evanflow.evanescent import (
    DEFAULT_N,
    DEFAULT_T,
    ActionOptions,
    ShootOptions,
    cross_validate,
    minimize_action,
    shoot_evanescent,
)
from evanflow.fields import CatalogError, NonnegativityError, resolve_potential
from evanflow.integrate import (
    IntegratorOptions,
    gradient_flow,
    second_order_flow,
    write_trajectory_csv,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_CHECK_FAILED = 2
EXIT_HYPOTHESIS = 3


class InputError(Exception):
    pass


# the CLI calls IntegratorOptions.method "integrator"
_INTEG_DEFAULTS = {("integrator" if k == "method" else k): v
                   for k, v in asdict(IntegratorOptions()).items()}
_ACTION = ActionOptions()

_DEFAULTS = {
    "flow": {
        "potential": None, "x0": None, "T": 10.0, **_INTEG_DEFAULTS,
        "checks": "all", "seed": 0, "out": ".",
    },
    "second-order": {
        "potential": None, "x0": None, "v0": None, "T": 10.0,
        **_INTEG_DEFAULTS, "checks": "all", "seed": 0, "out": ".",
    },
    "evanesce": {
        "potential": None, "x0": None, "T": DEFAULT_T, "N": DEFAULT_N,
        "mu": _ACTION.mu, "tol_opt": _ACTION.tol_opt,
        "max_iters": _ACTION.max_iters, "solver": "action",
        "cross_validate": True, "seed": 0, "out": ".", "checks": "all",
    },
    "reconstruct": {
        "potential": None, "grid": None, "T": DEFAULT_T, "N": DEFAULT_N,
        "method": ReconstructOptions().method, "workers": None, "seed": 0,
        "out": ".", "checks": "all",
    },
    "determine": {
        "potential1": None, "potential2": None, "samples": 24,
        "box": 2.0, "seed": 0, "out": ".",
    },
    "check-convexity": {
        "potential": None, "samples": 20, "box": 2.0, "seed": 0, "out": ".",
    },
}


def _load_config(cmd: str, args) -> dict:
    cfg = dict(_DEFAULTS[cmd])
    if args.config:
        try:
            with open(args.config) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise InputError(f"cannot read config {args.config}: {exc}")
        unknown = set(file_cfg) - set(cfg)
        if unknown:
            raise InputError(
                f"unknown config keys for {cmd}: {sorted(unknown)}"
            )
        cfg.update(file_cfg)
    overrides = {
        "potential": args.potential, "x0": args.x0, "v0": args.v0,
        "T": args.T, "h": args.h, "rtol": args.rtol, "N": args.N,
        "mu": args.mu, "grid": args.grid, "seed": args.seed,
        "out": args.out, "checks": args.checks, "workers": args.workers,
    }
    for key, val in overrides.items():
        if val is not None and key in cfg:
            cfg[key] = val
    if cmd == "determine":
        if args.potential1 is not None:
            cfg["potential1"] = args.potential1
        if args.potential2 is not None:
            cfg["potential2"] = args.potential2
    if cfg.get("workers") is None and "workers" in cfg:
        cfg["workers"] = int(os.environ.get("EVANFLOW_WORKERS", "1"))
    return cfg


def _parse_vector(text, name) -> np.ndarray:
    if text is None:
        raise InputError(f"missing required {name}")
    if isinstance(text, (list, tuple)):
        return np.asarray(text, float)
    try:
        return np.array([float(v) for v in str(text).split(",")])
    except ValueError:
        raise InputError(f"bad {name} value {text!r}")


def _parse_grid(text):
    if text is None:
        raise InputError("missing required grid spec 'min:max:count[,...]'")
    if isinstance(text, list):
        return [(float(a), float(b), int(c)) for a, b, c in text]
    spec = []
    for axis in str(text).split(","):
        parts = axis.split(":")
        if len(parts) != 3:
            raise InputError(f"bad grid axis {axis!r}, want min:max:count")
        try:
            spec.append((float(parts[0]), float(parts[1]), int(parts[2])))
        except ValueError:
            raise InputError(f"bad grid axis {axis!r}")
    return spec


def _resolve(potential_id):
    if not potential_id:
        raise InputError("missing required potential id")
    try:
        return resolve_potential(potential_id)
    except CatalogError as exc:
        raise InputError(str(exc))


def _integ_opts(cfg) -> IntegratorOptions:
    return IntegratorOptions(method=cfg["integrator"], h=float(cfg["h"]),
                             rtol=float(cfg["rtol"]), atol=float(cfg["atol"]),
                             r_max=float(cfg["r_max"]),
                             eps_crit=float(cfg["eps_crit"]))


def _requested(cfg, available):
    sel = cfg.get("checks", "all")
    if sel in ("all", None, ""):
        return list(available)
    names = sel if isinstance(sel, list) else str(sel).split(",")
    unknown = [n for n in names if n not in available]
    if unknown:
        raise InputError(f"unknown checks {unknown}; available: {sorted(available)}")
    return names


def _json_default(obj):
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _emit(out_dir, stem, report_dict) -> None:
    path = Path(out_dir) / f"{stem}.json"
    with open(path, "w", newline="\n") as fh:
        fh.write(json.dumps(report_dict, indent=2, sort_keys=True,
                            default=_json_default) + "\n")


def _finish(report: DiagnosticsReport, cfg, out_dir, stem, extra=None) -> int:
    payload = report.to_dict()
    payload["config"] = cfg
    if extra:
        payload.update(extra)
    _emit(out_dir, stem, payload)
    print(json.dumps(payload["summary"], sort_keys=True))
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def cmd_flow(cfg) -> int:
    pp = _resolve(cfg["potential"])
    x0 = _parse_vector(cfg["x0"], "x0")
    traj = gradient_flow(pp, x0, float(cfg["T"]), _integ_opts(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "flow_trajectory.csv")
    available = {
        "lyapunov": lambda: check_lyapunov_psi(traj, pp),
        "energy": lambda: check_energy_identity(traj, pp),
        "grad_norm_monotone": lambda: check_grad_norm_monotone(traj, pp),
        "limit_point": lambda: check_limit_point(traj, pp),
    }
    report = DiagnosticsReport(subject=f"flow {pp.psi.name}")
    for name in _requested(cfg, available):
        report.add(available[name]())
    return _finish(report, cfg, out, "flow_report",
                   {"termination": traj.termination, "t_end": traj.t_end})


def cmd_second_order(cfg) -> int:
    pp = _resolve(cfg["potential"])
    x0 = _parse_vector(cfg["x0"], "x0")
    v0 = _parse_vector(cfg["v0"], "v0")
    traj = second_order_flow(pp, x0, v0, float(cfg["T"]), _integ_opts(cfg))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    write_trajectory_csv(traj, out / "second_order_trajectory.csv")
    available = {
        "first_integral": lambda: check_first_integral(traj, pp),
        "modula": lambda: check_modula_equality(traj, psi=pp.psi, V=pp.v),
        "phi_residual": lambda: check_phi_residual(traj, pp.psi),
        "hardy": lambda: check_hardy(traj),
    }
    report = DiagnosticsReport(subject=f"second-order {pp.psi.name}")
    for name in _requested(cfg, available):
        report.add(available[name]())
    measures = evanescence_measures(traj, pp.v)
    return _finish(report, cfg, out, "second_order_report",
                   {"termination": traj.termination, "t_end": traj.t_end,
                    "evanescence": measures})


def cmd_evanesce(cfg) -> int:
    pp = _resolve(cfg["potential"])
    x0 = _parse_vector(cfg["x0"], "x0")
    T, N = float(cfg["T"]), int(cfg["N"])
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    aopts = ActionOptions(mu=cfg["mu"], tol_opt=float(cfg["tol_opt"]),
                          max_iters=int(cfg["max_iters"]))
    solver = cfg.get("solver", "action")
    if solver not in ("action", "shoot", "both"):
        raise InputError(f"unknown solver {solver!r}")
    results = {}
    if solver in ("action", "both"):
        res = minimize_action(pp.v, x0, T, N, aopts, psi=pp.psi)
        write_trajectory_csv(res.trajectory(), out / "evanesce_action_path.csv")
        results["action"] = res
    if solver in ("shoot", "both"):
        res = shoot_evanescent(pp.v, x0, T, ShootOptions(), psi=pp.psi)
        write_trajectory_csv(res.trajectory(), out / "evanesce_shoot_path.csv")
        results["shoot"] = res
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
    if cfg.get("cross_validate", True):
        xv = cross_validate(pp, x0, T, N, seed=int(cfg["seed"]),
                            action_opts=aopts, action=results.get("action"),
                            shot=results.get("shoot"))
        payload["cross_validation"] = xv.to_dict()
        all_converged = all_converged and xv.all_passed
    _emit(out, "evanesce_report", payload)
    print(json.dumps({"converged": all_converged}, sort_keys=True))
    return EXIT_OK if all_converged else EXIT_CHECK_FAILED


def cmd_reconstruct(cfg) -> int:
    pp = _resolve(cfg["potential"])
    grid_spec = _parse_grid(cfg["grid"])
    if len(grid_spec) != pp.dim:
        raise InputError(
            f"grid has {len(grid_spec)} axes but potential dim is {pp.dim}"
        )
    # f = ||grad psi||^2 = 2 V; only f is handed to the reconstructor
    f = pp.v.scaled(2.0)
    points = grid_points(grid_spec)
    opts = ReconstructOptions(T=float(cfg["T"]), N=int(cfg["N"]),
                              method=cfg["method"],
                              workers=int(cfg["workers"] or 1))
    try:
        recon = reconstruct_grid(f, points, opts)
    except NonnegativityError as exc:
        raise InputError(str(exc))
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    recon.write_csv(out / "reconstruction.csv")
    payload = recon.to_dict()
    payload["config_cli"] = cfg
    ok = all(d["converged"] for d in recon.per_point)
    if all(c >= 2 for _, _, c in grid_spec):
        resid = eikonal_residual(recon, f, grid_spec)
        payload["eikonal_residual"] = resid.to_dict()
        ok = ok and resid.passed
    _emit(out, "reconstruction", payload)
    print(json.dumps({"converged": ok}, sort_keys=True))
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_determine(cfg) -> int:
    pp1 = _resolve(cfg["potential1"])
    pp2 = _resolve(cfg["potential2"])
    if pp1.dim != pp2.dim:
        raise InputError("potentials have different dimensions")
    rng = np.random.default_rng(int(cfg["seed"]))
    box = float(cfg["box"])
    pts = rng.uniform(-box, box, size=(int(cfg["samples"]), pp1.dim))
    report = determination_check(pp1.psi, pp2.psi, pts)
    verdict, c = determination_verdict(report)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["config"] = cfg
    payload["verdict"] = verdict
    payload["constant"] = c
    _emit(out, "determination", payload)
    print(json.dumps({"constant": c, "verdict": verdict}, sort_keys=True))
    if verdict == "hypothesis_not_met":
        return EXIT_HYPOTHESIS
    return EXIT_OK if verdict == "pass" else EXIT_CHECK_FAILED


def cmd_check_convexity(cfg) -> int:
    from evanflow.eikonal import convexity_criterion_check
    pp = _resolve(cfg["potential"])
    rng = np.random.default_rng(int(cfg["seed"]))
    box = float(cfg["box"])
    m = int(cfg["samples"])
    pairs = rng.uniform(-box, box, size=(m, 2, pp.dim))
    probes = rng.uniform(-box, box, size=(m, pp.dim))
    report = convexity_criterion_check(pp, pairs, probes)
    out = Path(cfg["out"])
    out.mkdir(parents=True, exist_ok=True)
    payload = report.to_dict()
    payload["config"] = cfg
    _emit(out, "convexity_criterion", payload)
    by_id = {c.check_id: c for c in report.checks}
    print(json.dumps({k: by_id[k].passed for k in sorted(by_id)}, sort_keys=True))
    return EXIT_OK if by_id["crit_implication_holds"].passed else EXIT_CHECK_FAILED


_COMMANDS = {
    "flow": cmd_flow,
    "second-order": cmd_second_order,
    "evanesce": cmd_evanesce,
    "reconstruct": cmd_reconstruct,
    "determine": cmd_determine,
    "check-convexity": cmd_check_convexity,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evanflow",
        description="Gradient-flow simulation, evanescent-orbit solving and "
                    "potential reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None)
        p.add_argument("--potential", default=None)
        p.add_argument("--x0", default=None)
        p.add_argument("--v0", default=None)
        p.add_argument("--T", type=float, default=None)
        p.add_argument("--h", type=float, default=None)
        p.add_argument("--rtol", type=float, default=None)
        p.add_argument("--N", type=int, default=None)
        p.add_argument("--mu", type=float, default=None)
        p.add_argument("--grid", default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", default=None)
        p.add_argument("--checks", default=None)
        p.add_argument("--workers", type=int, default=None)
        if name == "determine":
            p.add_argument("potential1", nargs="?", default=None)
            p.add_argument("potential2", nargs="?", default=None)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not hasattr(args, "potential1"):
        args.potential1 = None
        args.potential2 = None
    try:
        cfg = _load_config(args.command, args)
        return _COMMANDS[args.command](cfg)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CatalogError, NonnegativityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
