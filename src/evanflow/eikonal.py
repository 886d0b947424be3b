"""Recovering a potential from the squared modulus of its gradient.

Given f = ||grad psi||^2 alone, the evanescent orbit of v'' = grad V(v) with
V = f/2 carries the value difference: psi(x0) - inf psi equals the integral of
f along that orbit.  This module reconstructs psi pointwise and on grids, and
exposes the determination and convexity-implication checks as bundles.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field, asdict
from typing import Optional

import numpy as np
from scipy.integrate import simpson

from evanflow.diagnostics import CheckResult, DiagnosticsReport, check_monotone_gradient
from evanflow.evanescent import (
    DEFAULT_N,
    DEFAULT_T,
    _check_horizon,
    _minimize_actions,
)
from evanflow.fields import DifferentiableField, PotentialPair, field_from_f
from evanflow.integrate import IntegratorOptions, gradient_flow

TAIL_DECAY_SLOPE = -0.1
BOUNDED_BELOW_FLOOR = -1e6
EPS_EQUILIBRIUM = 1e-12       # f <= this: an equilibrium, psi_hat = 0
# determination: min ||grad psi1|| < EPS_INF passes the infimum probe; the
# moduli (TOL_NORMS) and gradients (TOL_CONCLUSION) agree relative to 1 + max
EPS_INF = 1e-3
TOL_NORMS = 1e-8
TOL_CONCLUSION = 1e-6
CONVEXITY_FLOW_T = 10.0       # horizon of the flows probing psi's lower bound
TOL_EIKONAL = 5e-2            # eikonal_residual: bound on | ||grad psi_hat||^2 - f |
# the action route solves the points of a grid as stacks of paths; a stack
# holds as many paths as fit this many bytes of (B, N+1, n) float64 nodes
_STACK_BYTES = 4 * 2**20


@dataclass
class ReconstructOptions:
    T: float = DEFAULT_T
    N: int = DEFAULT_N
    workers: int = 1                  # accepted for compatibility; no effect


@dataclass
class ReconstructionResult:
    points: np.ndarray                # (m, n)
    psi_hat: np.ndarray               # (m,), normalized so min = 0
    per_point: list                   # dicts: ev_integral, tail_estimate, converged, ...
    config: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "points": np.asarray(self.points).tolist(),
            "psi_hat": np.asarray(self.psi_hat).tolist(),
            "per_point": self.per_point,
            "config": self.config,
        }


def _orbits(V: DifferentiableField, X0: np.ndarray, T: float, N: int,
            final: bool) -> list:
    """The reconstruction dict of each row of X0 from its evanescent orbit
    (see _values), or the ValueError or ArithmeticError its solve or value
    step raised.  The rows are solved as stacks of action paths, and f = 2V
    on their nodes is read from the solve."""
    def solve(X):
        _, Vv, _, _, converged, _ = _minimize_actions(V, X, T, N)
        return _values(2.0 * Vv, converged, T / N, T, final)

    size = max(1, _STACK_BYTES // (8 * (N + 1) * V.dim))
    out = []
    for lo in range(0, len(X0), size):
        stack = X0[lo:lo + size]
        try:
            out += solve(stack)
        except (ValueError, ArithmeticError):
            # solved again one row at a time, so only the offending rows fail
            for x0 in stack:
                try:
                    out += solve(x0[None])
                except (ValueError, ArithmeticError) as exc:
                    out.append(exc)
    return out


def reconstruct_value(f: DifferentiableField, x0,
                      opts: Optional[ReconstructOptions] = None) -> dict:
    """Reconstruct psi(x0) - inf psi by integrating f along the evanescent
    orbit of V = f/2, with an exponential-tail extrapolation past the horizon."""
    x0 = np.asarray(x0, float).reshape(f.dim)
    out = _reconstruct(f, x0[None], opts or ReconstructOptions())[0]
    if isinstance(out, Exception):
        raise out
    return out


def reconstruct_grid(f: DifferentiableField, points,
                     opts: Optional[ReconstructOptions] = None) -> ReconstructionResult:
    """Per-point reconstructions, renormalized so min psi_hat = 0.  A point
    whose solve fails carries NaN values and the message under "error"."""
    opts = opts or ReconstructOptions()
    points = np.asarray(points, float).reshape(-1, f.dim)
    details = [d if not isinstance(d, Exception) else
               {"psi_hat": np.nan, "ev_integral": np.nan,
                "tail_estimate": np.nan, "converged": False,
                "T_used": opts.T, "tail_slope": np.nan, "error": str(d)}
               for d in _reconstruct(f, points, opts)]

    raw = np.array([d["psi_hat"] for d in details])
    good = np.isfinite(raw)
    offset = float(np.min(raw[good])) if np.any(good) else 0.0
    psi_hat = raw - offset
    for d in details:
        d["psi_hat_raw"] = d["psi_hat"]
        d["psi_hat"] = d["psi_hat"] - offset if np.isfinite(d["psi_hat"]) else d["psi_hat"]
    config = {k: (v if not isinstance(v, np.ndarray) else v.tolist())
              for k, v in asdict(opts).items()}
    config["normalization_offset"] = offset
    return ReconstructionResult(points, psi_hat, details, config)


def _reconstruct(f: DifferentiableField, points: np.ndarray,
                 opts: ReconstructOptions) -> list:
    """The reconstruction dict of each point, or the ValueError or
    ArithmeticError its solve or value step raised.  V = f/2 is built once,
    so an f that is negative at a probe point raises NonnegativityError
    here, and a point where f < -2e-12 carries the ValueError of its
    solve's start check.  Every point is solved at (T, N), and those whose tail is not yet
    decaying again at (2T, 2N).  A T that is not a positive finite number
    and an N below 2 raise ValueError before anything is solved."""
    _check_horizon(opts.T, opts.N)
    V = field_from_f(f)
    out = [None] * len(points)
    todo = list(range(len(points)))
    T, N = opts.T, opts.N
    for final in (False, True):
        for i, d in zip(todo, _orbits(V, points[todo], T, N, final)):
            out[i] = d
        # tails not yet decaying: push the horizon once
        todo = [i for i in todo if out[i] is None]
        T, N = 2.0 * T, 2 * N
    return out


def _values(F: np.ndarray, solve_ok: np.ndarray, dt: float, T: float,
            final: bool) -> list:
    """The reconstruction dict of each row of F (B, N+1), f on the nodes of
    action paths with spacing dt, at the nominal horizon T and given its
    solve verdict, or None while its tail is not yet decaying and a longer
    horizon remains to try.  The tail past T decays at the least-squares
    slope of log f over the values above 1e-300 among the last 20% of
    nodes, fitted for every row at once (-inf with fewer than 3 such
    values).  log f is taken relative to its last node, so a constant tail
    has slope 0.0 exactly.  A start where f vanishes is an equilibrium,
    psi_hat = 0."""
    k = max(3, F.shape[1] // 5)
    f_tail = np.maximum(F[:, -k:], 0.0)
    m = f_tail > 1e-300
    cnt = np.count_nonzero(m, axis=1)
    y = np.log(np.where(m, f_tail, 1.0))
    y = np.where(m, y - y[:, -1:], 0.0)
    t = np.where(m, (dt * np.arange(F.shape[1]))[-k:], 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.where(m, t - (t.sum(axis=1) / cnt)[:, None], 0.0)
        fit = (t * (y - (y.sum(axis=1) / cnt)[:, None])).sum(axis=1) / (t * t).sum(axis=1)
    out = []
    for f0, ev, f_end, slope, ok in zip(
            F[:, 0], simpson(F, dx=dt, axis=-1).tolist(), f_tail[:, -1].tolist(),
            np.where(cnt >= 3, fit, -np.inf).tolist(), solve_ok):
        if f0 <= EPS_EQUILIBRIUM:
            out.append({"psi_hat": 0.0, "ev_integral": 0.0, "tail_estimate": 0.0,
                        "converged": True, "T_used": T, "tail_slope": -np.inf})
            continue
        if slope > TAIL_DECAY_SLOPE and not final:
            out.append(None)
            continue
        tail = (0.0 if f_end <= 0.0 or slope == -np.inf else
                f_end / abs(slope) if slope < 0 else f_end * T)
        out.append({"psi_hat": ev + tail, "ev_integral": ev, "tail_estimate": float(tail),
                    "converged": bool(ok and (f_end <= 0.0 or slope <= TAIL_DECAY_SLOPE)),
                    "T_used": T, "tail_slope": slope})
    return out


# ---------------------------------------------------------------------------
# determination: equal gradient moduli force equality up to a constant
# ---------------------------------------------------------------------------

def _pairs_from_points(points: np.ndarray) -> np.ndarray:
    pts = np.asarray(points, float)
    m = len(pts)
    if m < 2:
        raise ValueError("need at least 2 sample points")
    return np.stack([pts[:-1], pts[1:]], axis=1)


def determination_check(psi1: DifferentiableField, psi2: DifferentiableField,
                        sample_points) -> DiagnosticsReport:
    """Hypothesis + conclusion bundle.  Checks with ids starting 'hyp_' are
    hypothesis probes; if any fails the verdict is hypothesis_not_met and the
    conclusion checks carry no refutation weight."""
    pts = np.asarray(sample_points, float).reshape(-1, psi1.dim)
    g1 = np.asarray(psi1.gradient(pts), float)
    g2 = np.asarray(psi2.gradient(pts), float)
    n1 = np.linalg.norm(g1, axis=-1)
    n2 = np.linalg.norm(g2, axis=-1)
    report = DiagnosticsReport(subject=f"determination {psi1.name} vs {psi2.name}")

    gap = np.abs(n1 - n2)
    i = int(np.argmax(gap))
    scale = 1.0 + float(np.max(n1))
    report.add(CheckResult("hyp_equal_grad_norms", bool(gap[i] <= TOL_NORMS * scale),
                           float(gap[i]), pts[i].tolist(), TOL_NORMS * scale))

    pairs = _pairs_from_points(pts)
    c1 = check_monotone_gradient(psi1, pairs)
    c1.check_id = "hyp_psi1_convex"
    report.add(c1)
    c2 = check_monotone_gradient(psi2, pairs)
    c2.check_id = "hyp_psi2_convex"
    report.add(c2)

    min_norm = float(np.min(n1))
    v1 = np.asarray(psi1.value(pts), float)
    v2 = np.asarray(psi2.value(pts), float)
    flagged = ((psi1.claims_bounded_below and float(np.min(v1)) > BOUNDED_BELOW_FLOOR)
               or (psi2.claims_bounded_below and float(np.min(v2)) > BOUNDED_BELOW_FLOOR))
    inf_ok = min_norm < EPS_INF or flagged
    report.add(CheckResult(
        "hyp_inf_gradient_or_bounded", bool(inf_ok),
        0.0 if inf_ok else min_norm, None, EPS_INF,
        notes=(f"min ||grad psi1|| over samples = {min_norm:.3g}; "
               f"bounded-below flag corroborated = {flagged}; "
               f"min sampled psi1 = {float(np.min(v1)):.3g}, "
               f"psi2 = {float(np.min(v2)):.3g}"),
    ))

    gd = np.linalg.norm(g1 - g2, axis=-1)
    j = int(np.argmax(gd))
    report.add(CheckResult("det_gradients_equal",
                           bool(gd[j] <= TOL_CONCLUSION * scale),
                           float(gd[j]), pts[j].tolist(), TOL_CONCLUSION * scale))

    diff = v2 - v1
    c = float(np.mean(diff))
    spread = float(np.std(diff))
    tol_c = TOL_CONCLUSION * (1.0 + abs(c))
    report.add(CheckResult("det_difference_constant", bool(spread <= tol_c),
                           spread, None, tol_c,
                           notes=f"constant c = {c:.17g}"))
    return report


def determination_verdict(report: DiagnosticsReport):
    """('pass' | 'conclusion_failed' | 'hypothesis_not_met', c or None)."""
    c = None
    for chk in report.checks:
        if chk.check_id == "det_difference_constant" and chk.notes.startswith("constant c = "):
            c = float(chk.notes.split("=", 1)[1])
    hyp_ok = all(chk.passed for chk in report.checks if chk.check_id.startswith("hyp_"))
    if not hyp_ok:
        return "hypothesis_not_met", c
    concl_ok = all(chk.passed for chk in report.checks if chk.check_id.startswith("det_"))
    return ("pass" if concl_ok else "conclusion_failed"), c


# ---------------------------------------------------------------------------
# convexity implication: V convex and psi bounded below force psi convex
# ---------------------------------------------------------------------------

def convexity_criterion_check(pp: PotentialPair, sample_pairs,
                              lower_bound_probe_points) -> DiagnosticsReport:
    """Bundle (i) V convex, (ii) psi bounded-below evidence, (iii) psi convex.
    If (i) and (ii) pass while (iii) fails the implication is broken, which
    indicates a bug or tolerance problem; that event is its own check."""
    pairs = np.asarray(sample_pairs, float)
    probes = np.asarray(lower_bound_probe_points, float).reshape(-1, pp.dim)
    report = DiagnosticsReport(subject=f"convexity criterion {pp.psi.name}")

    ci = check_monotone_gradient(pp.v, pairs)
    ci.check_id = "crit_V_convex"
    report.add(ci)

    # psi on the probes and along the flows from the first five; a
    # non-finite psi or a flow that fails is evidence of no lower bound, and
    # the reported location is the least finite psi sampled
    vals, states = [np.asarray(pp.psi.value(probes), float)], [probes]
    unbounded = False
    flow_opts = IntegratorOptions(rtol=1e-8)
    for x0 in probes[:5]:
        try:
            traj = gradient_flow(pp, x0, CONVEXITY_FLOW_T, flow_opts)
        except ArithmeticError:
            unbounded = True
            continue
        with np.errstate(over="ignore", invalid="ignore"):
            vals.append(np.asarray(pp.psi.value(traj.states), float))
        states.append(traj.states)
    vals, states = np.concatenate(vals), np.concatenate(states)
    finite = np.isfinite(vals)
    i = int(np.argmin(np.where(finite, vals, np.inf)))
    unbounded = unbounded or not finite.all()
    min_val = -np.inf if unbounded else float(vals[i])
    min_loc = states[i].tolist()
    bounded_ok = min_val > BOUNDED_BELOW_FLOOR
    report.add(CheckResult(
        "crit_psi_bounded_evidence", bool(bounded_ok),
        0.0 if bounded_ok else float(min(-min_val, np.finfo(float).max)),
        min_loc, -BOUNDED_BELOW_FLOOR,
        notes=f"min sampled psi (probes + 5 flow orbits) = {min_val:.6g}",
    ))

    ciii = check_monotone_gradient(pp.psi, pairs)
    ciii.check_id = "crit_psi_convex"
    report.add(ciii)

    violated = ci.passed and bounded_ok and not ciii.passed
    report.add(CheckResult(
        "crit_implication_holds", not violated,
        1.0 if violated else 0.0, None, 0.5,
        notes=("THEOREM-VIOLATION: V convex and psi bounded below but psi "
               "convexity check failed" if violated else
               "implication consistent with sampled evidence"),
    ))
    return report


# ---------------------------------------------------------------------------
# residual of the reconstructed field
# ---------------------------------------------------------------------------

def grid_points(grid_spec) -> np.ndarray:
    """Cartesian grid from [(lo, hi, count), ...], row-major order."""
    axes = [np.linspace(lo, hi, int(count)) for lo, hi, count in grid_spec]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)


def eikonal_residual(recon: ReconstructionResult, f: DifferentiableField,
                     grid_spec) -> CheckResult:
    """Compare the squared finite-difference gradient of psi_hat against f on
    interior grid points, within TOL_EIKONAL.  Every axis needs >= 3
    distinct points: the gradient across it is measured, and on two points
    both ends get the secant slope, which is 0 on a symmetric pair whatever
    f is there."""
    counts = [int(c) for _, _, c in grid_spec]
    if any(c < 3 or lo == hi for lo, hi, c in grid_spec):
        raise ValueError("eikonal_residual needs >= 3 distinct points per axis")
    if len(recon.psi_hat) != int(np.prod(counts)):
        raise ValueError("grid_spec does not match the reconstruction size")
    psi_grid = np.asarray(recon.psi_hat, float).reshape(counts)
    grads = np.gradient(psi_grid, *[(hi - lo) / (c - 1)
                                    for (lo, hi, _), c in zip(grid_spec, counts)])
    if psi_grid.ndim == 1:
        grads = [grads]
    sq = np.zeros_like(psi_grid)
    for g in grads:
        sq = sq + g * g
    fvals = np.asarray(f.value(recon.points), float).reshape(counts)
    resid = np.abs(sq - fvals)[(slice(1, -1),) * len(counts)]
    worst = float(np.max(resid))
    idx = np.unravel_index(int(np.argmax(resid)), resid.shape)
    return CheckResult("eikonal_residual", worst <= TOL_EIKONAL, worst, list(idx),
                       TOL_EIKONAL, notes=f"interior points: {resid.size}")
