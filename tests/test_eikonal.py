"""Potential reconstruction from the squared gradient modulus, and the
determination / convexity check bundles."""
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import evanflow.eikonal as eikonal
from evanflow.cli import main
from evanflow.eikonal import (
    CONVEXITY_FLOW_T,
    EPS_EQUILIBRIUM,
    TAIL_DECAY_SLOPE,
    _values,
    ReconstructOptions,
    ReconstructionResult,
    convexity_criterion_check,
    determination_check,
    determination_verdict,
    eikonal_residual,
    grid_points,
    reconstruct_grid,
    reconstruct_value,
)
from evanflow.evanescent import _minimize_actions, minimize_action, shoot_evanescent
from evanflow.fields import (
    DifferentiableField,
    NonnegativityError,
    NumericDomainError,
    PotentialPair,
    field_from_f,
    make_counterexample,
    make_pair,
    make_quadratic,
    resolve_potential,
)

QUAD_1D = make_quadratic([[1.0]])
QUAD_2D = make_quadratic([[1.0, 0.0], [0.0, 2.0]])


def f_of(pp):
    # the observable is f = ||grad psi||^2 = 2 V
    return pp.v.scaled(2.0)


def rand_points(dim, m=40, seed=0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-2.0, 2.0, size=(m, dim))


# --- single-point reconstruction ------------------------------------------

def test_reconstruct_value_quadratic_1d():
    out = reconstruct_value(f_of(QUAD_1D), [1.0])
    assert out["converged"]
    # psi(1) - inf psi = 1/2
    assert out["psi_hat"] == pytest.approx(0.5, abs=1e-3)


def test_reconstruct_value_quadratic_2d():
    out = reconstruct_value(f_of(QUAD_2D), [1.0, 1.0])
    assert out["converged"]
    assert out["psi_hat"] == pytest.approx(1.5, abs=2e-3)


def test_reconstruct_value_equilibrium_point():
    # the origin, and a start where f = 1e-18 is below EPS_EQUILIBRIUM: the
    # orbit from there is nearly flat, so without that threshold its tail
    # would read as not decaying and the point would fail at 2T
    for pp, x0 in ((QUAD_2D, [0.0, 0.0]), (QUAD_1D, [1e-9])):
        out = reconstruct_value(f_of(pp), x0)
        assert out["converged"]
        assert out["psi_hat"] == 0.0
        assert out["T_used"] == 12.0


def test_reconstruct_value_equilibrium_threshold_is_f_1e_12():
    # f = x^2 is 8.1e-13 at 9e-7, an equilibrium, and 2.25e-12 at 1.5e-6,
    # where the orbit is solved to psi_hat = x^2 / 2
    f = f_of(QUAD_1D)
    assert reconstruct_value(f, [9e-7])["psi_hat"] == 0.0
    assert reconstruct_value(f, [1.5e-6])["psi_hat"] == pytest.approx(1.125e-12, rel=1e-3)


def test_reconstruct_tail_slope_threshold_is_minus_0_1():
    # a tail of log f decaying faster than slope -0.1 is kept at T: cubic's
    # algebraic tails read -0.13 to -0.14 at T = 12; quadratic:0.1's reads
    # above -0.1 at T = 12, so its points are solved again at 2T, where the
    # tail, at -0.055, is still too flat to converge
    pts = grid_points([(0.5, 1.0, 3)])
    cubic = reconstruct_grid(f_of(make_counterexample("cubic")), pts)
    assert [d["T_used"] for d in cubic.per_point] == [12.0] * 3
    assert all(-0.15 < d["tail_slope"] < -0.13 for d in cubic.per_point)
    slow = reconstruct_grid(f_of(resolve_potential("quadratic:0.1")), pts)
    assert [d["T_used"] for d in slow.per_point] == [24.0] * 3
    assert not any(d["converged"] for d in slow.per_point)


def test_reconstruct_verdict_adds_the_tail_slope_to_the_solve_terms():
    # f = 0.0016 x^2 decays too slowly for T = 12, so the point is solved
    # again at T = 24, where its action path still moves at the end and its
    # tail slope, -9.1e-3, is above -0.1
    d = reconstruct_value(f_of(resolve_potential("quadratic:0.04")), [1.0])
    assert d["T_used"] == 24.0 and d["tail_slope"] > TAIL_DECAY_SLOPE
    assert d["failed_terms"] == ["tail_vprime", "tail_V", "tail_slope"] and not d["converged"]


def test_reconstruct_action_and_shoot_agree():
    # along an evanescent orbit 0.5||w||^2 = V, so the shooting solve's action
    # is the integral of f = 2V that the reconstruction takes
    a = reconstruct_value(f_of(QUAD_1D), [1.0])
    s = shoot_evanescent(QUAD_1D.v, [1.0])
    assert a["converged"] and s.converged
    assert abs(a["psi_hat"] - s.final_action) < 5e-3


def test_reconstruct_value_unconverged_is_flagged():
    # the orbit of cubic from 1 runs to the degenerate minimum 0 of
    # V = 4.5 x^4 and decays only algebraically, so its action solve is
    # unconverged at the default budget and horizon
    out = reconstruct_value(f_of(make_counterexample("cubic")), [1.0])
    assert not out["converged"]


# --- grid reconstruction --------------------------------------------------

def test_reconstruct_grid_quadratic_values_and_normalization():
    pts = grid_points([(-1.0, 1.0, 5), (-1.0, 1.0, 5)])
    rec = reconstruct_grid(f_of(QUAD_2D), pts, ReconstructOptions(N=120))
    exact = 0.5 * (pts[:, 0] ** 2 + 2.0 * pts[:, 1] ** 2)
    assert np.min(rec.psi_hat) == 0.0
    assert np.max(np.abs(rec.psi_hat - exact)) < 1e-2
    assert rec.config["normalization_offset"] == pytest.approx(0.0, abs=1e-3)
    assert all(d["converged"] for d in rec.per_point)


def test_reconstruct_grid_json_and_csv(tmp_path):
    pts = grid_points([(-1.0, 1.0, 3)])
    # T = 1 is too short for the orbits from +-1, so only the origin converges
    rec = reconstruct_grid(f_of(QUAD_1D), pts, ReconstructOptions(T=1.0, N=60))
    data = json.loads(json.dumps(rec.to_dict()))
    assert len(data["points"]) == 3
    # the CSV the CLI writes for the same grid
    assert main(["reconstruct", "--potential", "quadratic:1", "--grid=-1:1:3",
                 "--T", "1", "--N", "60", "--out", str(tmp_path)]) == 2
    blob = (tmp_path / "reconstruction.csv").read_bytes()
    assert b"\r" not in blob
    lines = blob.decode().strip().split("\n")
    assert lines[0] == "x0,psi_hat,ev_integral,tail_estimate,converged"
    assert len(lines) == 4
    rows = [line.split(",") for line in lines[1:]]
    # 17 significant digits are preserved on a round trip; flags are true/false
    assert [float(r[1]) for r in rows] == rec.psi_hat.tolist()
    assert [r[-1] for r in rows] == ["false", "true", "false"]


def test_reconstruct_grid_workers_match_serial():
    pts = grid_points([(-1.0, 1.0, 4)])
    one = reconstruct_grid(f_of(QUAD_1D), pts, ReconstructOptions(N=60, workers=1))
    four = reconstruct_grid(f_of(QUAD_1D), pts, ReconstructOptions(N=60, workers=4))
    assert np.array_equal(one.psi_hat, four.psi_hat)


def test_reconstruct_grid_matches_reconstruct_value():
    # the grid solves its points as one stack; each point's dict is the one
    # reconstruct_value gives, bit for bit, equilibrium origin included
    pts = grid_points([(-1.0, 1.0, 3), (-1.0, 1.0, 3)])
    opts = ReconstructOptions(N=120)
    rec = reconstruct_grid(f_of(QUAD_2D), pts, opts)
    assert rec.per_point[4]["ev_integral"] == 0.0      # the origin
    for p, d in zip(pts, rec.per_point):
        alone = reconstruct_value(f_of(QUAD_2D), p, opts)
        assert d["psi_hat_raw"] == alone.pop("psi_hat")
        assert {k: v for k, v in d.items() if not k.startswith("psi_hat")} == alone


def test_reconstruct_grid_horizon_retry():
    # the orbit decays like e^{-0.04 t}, so no tail is decaying at T = 12:
    # every non-equilibrium point is solved again at 2T, and since its tail
    # is still too flat there it is reported as not converged
    f = f_of(resolve_potential("quadratic:0.04"))
    pts = grid_points([(-1.0, 1.0, 5)])
    opts = ReconstructOptions(N=60)
    rec = reconstruct_grid(f, pts, opts)
    assert [d["T_used"] for d in rec.per_point] == [24.0, 24.0, 12.0, 24.0, 24.0]
    assert [d["converged"] for d in rec.per_point] == [False, False, True, False, False]
    for p, d in zip(pts, rec.per_point):
        assert d["psi_hat_raw"] == reconstruct_value(f, p, opts)["psi_hat"]


# --- tail fit ---------------------------------------------------------------

@st.composite
def tail_stacks(draw):
    """(F, T, N, kinds): a stack F (B, N+1) of f on the nodes of paths over
    [0, T], one kind per row.  A "rate" row is c e^{rt} with noise, decaying
    or growing, with zeros and values <= 1e-300 at drawn nodes; a "sparse"
    row has fewer than 3 positive values among its tail nodes; a "constant"
    row is c throughout; an "equilibrium" row starts at f <= EPS_EQUILIBRIUM."""
    N = draw(st.integers(10, 300))
    T = draw(st.floats(2.0, 30.0))
    t = T / N * np.arange(N + 1)
    k = max(3, (N + 1) // 5)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, kinds = [], []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(["rate", "sparse", "constant", "equilibrium"]))
        log_c = draw(st.floats(-30.0, 5.0))
        rate = draw(st.one_of(st.floats(-3.0, -0.1), st.floats(0.1, 1.0)))
        noise = draw(st.sampled_from([0.0, 1e-3, 0.1]))
        row = np.exp(log_c + rate * t + noise * rng.standard_normal(N + 1))
        if kind == "rate":
            for i in draw(st.lists(st.integers(0, N), max_size=5)):
                row[i] = draw(st.sampled_from([0.0, -1.0, 1e-300, 5e-324]))
        elif kind == "sparse":
            tail = np.zeros(k)
            tail[draw(st.lists(st.integers(0, k - 1), max_size=2))] = 1.0
            row[-k:] *= tail
        elif kind == "constant":
            row[:] = np.exp(log_c)
        else:
            row[0] = draw(st.sampled_from([0.0, 1e-15, EPS_EQUILIBRIUM]))
        rows.append(row)
        kinds.append(kind)
    return np.array(rows), T, N, kinds


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tail_stacks())
def test_tail_slope_matches_a_per_row_polyfit(stack):
    # the stack-wide masked least-squares slope is polyfit's degree-1 fit of
    # log f on each row's tail nodes above 1e-300, up to rounding, and the
    # verdict and tail follow from it as for a single path
    F, T, N, kinds = stack
    k = max(3, (N + 1) // 5)
    t = (T / N * np.arange(N + 1))[-k:]
    out = _values(F, {}, T / N, T)
    for row, kind, d in zip(F, kinds, out):
        if row[0] <= EPS_EQUILIBRIUM:
            assert d == {"psi_hat": 0.0, "ev_integral": 0.0, "tail_estimate": 0.0,
                         "converged": True, "T_used": T, "tail_slope": -np.inf,
                         "failed_terms": []}
            continue
        f_tail = np.maximum(row[-k:], 0.0)
        pos = f_tail > 1e-300
        if np.count_nonzero(pos) < 3:
            expected = -np.inf
        elif kind == "constant":
            expected = 0.0
        else:
            expected = np.polyfit(t[pos], np.log(f_tail[pos]), 1)[0]
        slope, f_end = d["tail_slope"], f_tail[-1]
        if kind == "constant":
            assert slope == 0.0
        else:
            assert slope == expected or abs(slope - expected) <= 1e-12 * abs(expected)
        if f_end <= 0.0 or expected == -np.inf:
            assert d["tail_estimate"] == 0.0
        elif expected < 0.0:
            assert d["tail_estimate"] == pytest.approx(f_end / -expected, rel=1e-12)
        else:
            # a constant or growing tail
            assert d["tail_estimate"] == f_end * T
        assert d["converged"] == (f_end <= 0.0 or expected <= TAIL_DECAY_SLOPE)
        assert d["failed_terms"] == ([] if d["converged"] else ["tail_slope"])


@settings(max_examples=50, deadline=None, derandomize=True)
@given(tail_stacks())
def test_each_row_of_a_stack_gets_its_solo_tail(stack):
    F, T, N, _ = stack
    ok = np.arange(len(F)) % 2 == 0
    together = _values(F, {"grad_inf": ok}, T / N, T)
    alone = [_values(F[i:i + 1], {"grad_inf": ok[i:i + 1]}, T / N, T)[0]
             for i in range(len(F))]
    assert repr(together) == repr(alone)


@pytest.mark.parametrize("T, N", [(0.0, 240), (-1.0, 240), (np.nan, 240),
                                  (np.inf, 240), (12.0, 1), (12.0, 60.0), (12.0, 60.5)],
                         ids=["T0", "Tneg", "Tnan", "Tinf", "N1", "Nfloat", "Nfrac"])
def test_reconstruct_rejects_out_of_range_horizon_before_solving(T, N):
    f = f_of(QUAD_1D)
    calls = []
    counted = dataclasses.replace(f, value=lambda x: calls.append(1) or f.value(x))
    opts = ReconstructOptions(T=T, N=N)
    with pytest.raises(ValueError, match="must be"):
        reconstruct_grid(counted, [[0.0], [1.0]], opts)
    with pytest.raises(ValueError, match="must be"):
        reconstruct_value(counted, [1.0], opts)
    assert calls == []


def test_reconstruct_grid_reads_f_on_the_nodes_from_the_solve():
    # f = 2V on a finished path's nodes comes from the action solve, so f is
    # not evaluated again on any of them
    f = f_of(QUAD_1D)
    args = []
    counted = dataclasses.replace(f, value=lambda x: args.append(np.array(x)) or f.value(x))
    pts = np.linspace(-1.0, 1.0, 5)[:, None]
    rec = reconstruct_grid(counted, pts)
    assert all(d["converged"] for d in rec.per_point)
    paths = [minimize_action(field_from_f(f), p).trajectory.states for p in pts]
    assert args
    assert not any(np.array_equal(a, w) for a in args for w in paths)


def test_reconstruct_grid_stacks_hold_4_mib_of_nodes(monkeypatch):
    # at N + 1 = 2^17 nodes a 1-D path takes 1 MiB, so a stack holds 4 paths
    sizes = []

    def spy(V, X, *args):
        sizes.append(len(X))
        return _minimize_actions(V, X, *args)

    monkeypatch.setattr(eikonal, "_minimize_actions", spy)
    rec = reconstruct_grid(f_of(QUAD_1D), grid_points([(0.5, 1.0, 5)]),
                           ReconstructOptions(N=2 ** 17 - 1))
    assert sizes == [4, 1]
    assert all(d["converged"] for d in rec.per_point)


def test_reconstruct_grid_isolates_a_failing_point():
    # the gradient of f fails beyond x = 0.95; the stack that holds that
    # point is solved again point by point, so only that point fails
    f = f_of(QUAD_1D)

    def gradient(x):
        if np.any(np.asarray(x)[..., 0] > 0.95):
            raise NumericDomainError("outside the domain of the gradient")
        return f.gradient(x)

    bad = dataclasses.replace(f, gradient=gradient)
    pts = grid_points([(-1.0, 1.0, 5)])
    rec = reconstruct_grid(bad, pts, ReconstructOptions(N=60))
    assert ["error" in d for d in rec.per_point] == [False] * 4 + [True]
    assert "outside the domain" in rec.per_point[-1]["error"]
    assert [d["failed_terms"] for d in rec.per_point] == [[]] * 4 + [["error"]]
    assert not rec.per_point[-1]["converged"]
    assert np.isnan(rec.psi_hat[-1])
    good = reconstruct_grid(f, pts[:4], ReconstructOptions(N=60))
    assert np.array_equal(rec.psi_hat[:4], good.psi_hat)


def test_reconstruct_grid_raises_on_negative_f():
    f = QUAD_1D.v.scaled(-2.0)
    with pytest.raises(NonnegativityError):
        reconstruct_grid(f, grid_points([(-1.0, 1.0, 3)]))


def test_reconstruct_grid_refuses_a_point_where_f_is_negative():
    # f = 4 - x^2 passes the probes in [-2, 2] but is -5 at x = +-3: those
    # points carry NaN and the start check's error, as minimize_action
    # refuses them
    rec = reconstruct_grid(_four_minus_x2(), [[-3.0], [1.0], [3.0]], ReconstructOptions(N=60))
    for i in (0, 2):
        d = rec.per_point[i]
        assert np.isnan(d["psi_hat_raw"]) and not d["converged"]
        assert "V(x0) = -2.5 is negative" in d["error"]
    assert "error" not in rec.per_point[1]


def test_reconstruct_grid_refuses_a_point_whose_grad_v_is_not_finite():
    # on quadratic:1e155, A @ A overflows: grad V = inf at +-0.01, where V
    # is finite, so those points carry the start check's error, while at
    # the origin V = 0 and the equilibrium still converges
    with np.errstate(over="ignore", invalid="ignore"):
        f = resolve_potential("quadratic:1e155").v.scaled(2.0)
        rec = reconstruct_grid(f, [[0.01], [0.0], [-0.01]], ReconstructOptions(N=60))
    for i, g in ((0, "inf"), (2, "-inf")):
        d = rec.per_point[i]
        assert not d["converged"] and np.isnan(d["psi_hat_raw"])
        assert d["error"] == f"grad V(x0) = [{g}] is not finite at x0 = [{[0.01, 0, -0.01][i]}]"
    assert rec.per_point[1]["converged"] and rec.psi_hat[1] == 0.0


def test_reconstruct_grid_rejects_trials_where_f_is_negative():
    # from x = 1 the descent's trials run past |x| = 2, where f < 0; the line
    # search rejects them as it rejects a non-finite V, so no overflow warning
    # escapes (pytest makes it an error) and the point stays finite, honestly
    # unconverged, with no error
    rec = reconstruct_grid(_four_minus_x2(), [[1.0]], ReconstructOptions(N=60))
    d = rec.per_point[0]
    assert np.isfinite(d["psi_hat_raw"]) and np.isfinite(rec.psi_hat[0])
    assert not d["converged"] and "error" not in d


def _four_minus_x2():
    def value(x):
        return 4.0 - np.asarray(x, float)[..., 0] ** 2

    return DifferentiableField(dim=1, value=value, gradient=lambda x: -2.0 * np.asarray(x),
                               hessvec=lambda x, h: -2.0 * np.asarray(h), name="4-x^2")


# --- eikonal residual -----------------------------------------------------

def test_eikonal_residual_2d_grid():
    spec = [(-1.0, 1.0, 9), (-1.0, 1.0, 9)]
    rec = reconstruct_grid(f_of(QUAD_2D), grid_points(spec),
                           ReconstructOptions(N=120))
    c = eikonal_residual(rec, f_of(QUAD_2D), spec)
    assert c.passed, c.worst_violation


def test_eikonal_residual_1d_grid():
    spec = [(-1.0, 1.0, 21)]
    rec = reconstruct_grid(f_of(QUAD_1D), grid_points(spec),
                           ReconstructOptions(N=120))
    c = eikonal_residual(rec, f_of(QUAD_1D), spec)
    assert c.passed, c.worst_violation


def test_eikonal_residual_zero_field():
    pp = make_quadratic([[0.0]])
    spec = [(-1.0, 1.0, 5)]
    rec = reconstruct_grid(f_of(pp), grid_points(spec))
    c = eikonal_residual(rec, f_of(pp), spec)
    assert c.passed
    assert c.worst_violation == 0.0


@pytest.mark.parametrize("excess, passed", [(0.03, True), (0.1, False)])
def test_eikonal_residual_tolerance_is_5e_2(excess, passed):
    # psi_hat = c x^2 / 2 with c^2 = 1 + excess: its central differences are
    # exact, so | psi_hat'^2 - f | = excess x^2 peaks at the interior x = +-1
    spec = [(-2.0, 2.0, 5)]
    pts = grid_points(spec)
    psi_hat = 0.5 * np.sqrt(1.0 + excess) * pts[:, 0] ** 2
    c = eikonal_residual(ReconstructionResult(pts, psi_hat, []), f_of(QUAD_1D), spec)
    assert c.worst_violation == pytest.approx(excess)
    assert c.passed is passed


def test_eikonal_residual_rejects_mismatched_spec():
    spec = [(-1.0, 1.0, 5)]
    rec = reconstruct_grid(f_of(QUAD_1D), grid_points(spec),
                           ReconstructOptions(N=60))
    with pytest.raises(ValueError):
        eikonal_residual(rec, f_of(QUAD_1D), [(-1.0, 1.0, 7)])
    with pytest.raises(ValueError):
        eikonal_residual(rec, f_of(QUAD_1D), [(-1.0, 1.0, 1)])


def test_eikonal_residual_rejects_a_zero_width_axis():
    # x = 1 at every point: the gradient across x cannot be measured
    spec = [(1.0, 1.0, 3), (-1.0, 1.0, 3)]
    rec = reconstruct_grid(f_of(QUAD_2D), grid_points(spec),
                           ReconstructOptions(N=60))
    with pytest.raises(ValueError):
        eikonal_residual(rec, f_of(QUAD_2D), spec)


def test_eikonal_residual_rejects_a_two_point_axis():
    # np.gradient takes the secant slope at both ends of a two-point axis
    spec = [(-1.0, 1.0, 2), (-1.0, 1.0, 3)]
    rec = reconstruct_grid(f_of(QUAD_2D), grid_points(spec), ReconstructOptions(N=60))
    with pytest.raises(ValueError, match=">= 3 distinct points"):
        eikonal_residual(rec, f_of(QUAD_2D), spec)


# --- determination --------------------------------------------------------

def test_determination_shifted_pair_passes():
    pts = rand_points(2, seed=1)
    rep = determination_check(QUAD_2D.psi, QUAD_2D.psi.shifted(5.0), pts)
    verdict, c = determination_verdict(rep)
    assert verdict == "pass"
    assert c == pytest.approx(5.0, abs=1e-9)


def test_determination_identical_pair_zero_constant():
    pts = rand_points(1, seed=2)
    rep = determination_check(QUAD_1D.psi, QUAD_1D.psi, pts)
    verdict, c = determination_verdict(rep)
    assert verdict == "pass"
    assert c == pytest.approx(0.0, abs=1e-12)


def test_determination_negative_shift():
    pts = rand_points(1, seed=3)
    rep = determination_check(QUAD_1D.psi, QUAD_1D.psi.shifted(-3.0), pts)
    verdict, c = determination_verdict(rep)
    assert verdict == "pass"
    assert c == pytest.approx(-3.0, abs=1e-9)


def test_determination_constant_is_the_exact_mean_difference():
    # the shift 1/3 is reported as the computed mean of psi2 - psi1, not as
    # a 12-digit rounding of it
    pts = rand_points(1, seed=3)
    psi2 = QUAD_1D.psi.shifted(1.0 / 3.0)
    _, c = determination_verdict(determination_check(QUAD_1D.psi, psi2, pts))
    assert c == float(np.mean(psi2.value(pts) - QUAD_1D.psi.value(pts)))


def test_determination_linear_pair_hypothesis_not_met():
    # x and -x have equal gradient moduli everywhere but differ by a
    # non-constant; neither is bounded below nor has vanishing gradient,
    # so the hypothesis probe must reject the pair
    p1 = resolve_potential("linear").psi
    p2 = resolve_potential("neg_linear").psi
    rep = determination_check(p1, p2, rand_points(1, seed=4))
    verdict, _ = determination_verdict(rep)
    assert verdict == "hypothesis_not_met"
    assert not rep.get("hyp_inf_gradient_or_bounded").passed
    assert not rep.get("det_difference_constant").passed


@pytest.mark.parametrize("check_id, tol", [("hyp_equal_grad_norms", 1e-8),
                                           ("det_gradients_equal", 1e-6)])
@pytest.mark.parametrize("ratio, passed", [(1.0, True), (4.0, False)])
def test_determination_gradient_tolerances(check_id, tol, ratio, passed):
    # psi2 = (1 + d) x^2 / 2 against x^2 / 2 on [-1, 1]: moduli and
    # gradients differ by up to d = ratio tol, judged against
    # tol (1 + max ||grad psi1||) = 2 tol
    pts = np.linspace(-1.0, 1.0, 21)[:, None]
    psi2 = make_quadratic([[1.0 + ratio * tol]]).psi
    assert determination_check(QUAD_1D.psi, psi2, pts).get(check_id).passed is passed


@pytest.mark.parametrize("slope, passed", [(5e-4, True), (2e-3, False)])
def test_determination_infimum_probe_threshold(slope, passed):
    # psi = slope x claims no lower bound, so only a sampled gradient
    # modulus below 1e-3 passes the infimum probe
    psi = resolve_potential("linear").psi.scaled(slope)
    rep = determination_check(psi, psi, rand_points(1, seed=4))
    assert rep.get("hyp_inf_gradient_or_bounded").passed is passed


@pytest.mark.parametrize("shift, passed", [(-5e5, True), (-2e6, False)])
def test_determination_bounded_below_floor(shift, passed):
    # on [1, 2] the gradient modulus of x^2 / 2 is at least 1, so the
    # infimum probe passes only on psi's claim of a lower bound, which the
    # samples corroborate while psi stays above -1e6
    psi = QUAD_1D.psi.shifted(shift)
    rep = determination_check(psi, psi, np.linspace(1.0, 2.0, 11)[:, None])
    assert rep.get("hyp_inf_gradient_or_bounded").passed is passed


def test_determination_sign_flipped_quadratic_hypothesis_not_met():
    pts = rand_points(2, seed=5)
    neg = make_quadratic([[-1.0, 0.0], [0.0, -2.0]])
    rep = determination_check(QUAD_2D.psi, neg.psi, pts)
    verdict, _ = determination_verdict(rep)
    assert verdict == "hypothesis_not_met"
    assert not rep.get("hyp_psi2_convex").passed


# --- convexity criterion --------------------------------------------------

def pair_samples(dim, seed=0):
    rng = np.random.default_rng(seed)
    base = rng.uniform(-2.0, 2.0, size=(40, dim))
    return np.stack([base[:20], base[20:]], axis=1)


def test_convexity_criterion_quadratic_all_pass():
    rep = convexity_criterion_check(QUAD_2D, pair_samples(2),
                                    rand_points(2, m=10, seed=6))
    assert rep.all_passed


def test_convexity_criterion_cubic_consistent():
    # V is convex but psi = x^3/3 is unbounded below: (ii) fails, (iii)
    # fails, and the implication itself is not contradicted
    pp = make_counterexample("cubic")
    rep = convexity_criterion_check(pp, pair_samples(1, seed=7),
                                    rand_points(1, m=10, seed=7))
    assert rep.get("crit_V_convex").passed
    assert not rep.get("crit_psi_bounded_evidence").passed
    assert not rep.get("crit_psi_convex").passed
    assert rep.get("crit_implication_holds").passed


def test_convexity_criterion_locates_the_least_finite_psi():
    # psi = x^2/2 is NaN on a band that the flows from 2, 1.6 and 1.7 cross;
    # the state of least finite psi over the probes and every flow, the end
    # 0.5 e^{-T} of the flow from 0.5, is reported, not the end of the first
    # flow that meets the band
    def value(x):
        x = np.asarray(x, float)[..., 0]
        return np.where(np.abs(x - 1.0) < 0.2, np.nan, 0.5 * x * x)

    holed = PotentialPair(dataclasses.replace(QUAD_1D.psi, value=value), QUAD_1D.v)
    probes = [[2.0], [1.5], [0.5], [1.6], [1.7]]
    rep = convexity_criterion_check(holed, pair_samples(1), probes)
    loc = rep.get("crit_psi_bounded_evidence").worst_location
    assert loc == pytest.approx([0.5 * np.exp(-CONVEXITY_FLOW_T)], rel=1e-5)


def test_convexity_criterion_counts_a_failing_flow_as_unbounded():
    # psi = -x has no lower bound, but on the probes it is at least -1; the
    # flows from them run into x > 3, where grad psi raises
    # NumericDomainError, and those failures alone are the evidence
    def gradient(x):
        x = np.asarray(x, float)
        if np.any(x > 3.0):
            raise NumericDomainError("past the wall")
        return -np.ones_like(x)

    psi = DifferentiableField(dim=1, value=lambda x: -np.asarray(x, float)[..., 0],
                              gradient=gradient, hessvec=lambda x, p: np.zeros_like(p))
    rep = convexity_criterion_check(make_pair(psi), pair_samples(1),
                                    [[-1.0], [0.0], [1.0]])
    bounded = rep.get("crit_psi_bounded_evidence")
    assert not bounded.passed
    assert bounded.worst_violation == np.finfo(float).max
    assert bounded.worst_location == [1.0]
    assert bounded.notes.endswith("= -inf")
    assert rep.get("crit_V_convex").passed and rep.get("crit_psi_convex").passed
    assert rep.get("crit_implication_holds").passed


def test_convexity_criterion_quartic_saddle_consistent():
    pp = make_counterexample("quartic_saddle")
    rep = convexity_criterion_check(pp, pair_samples(2, seed=8),
                                    rand_points(2, m=10, seed=8))
    assert rep.get("crit_V_convex").passed
    assert not rep.get("crit_psi_convex").passed
    assert rep.get("crit_implication_holds").passed


def test_grid_points_row_major_order():
    pts = grid_points([(0.0, 1.0, 2), (0.0, 1.0, 3)])
    assert pts.shape == (6, 2)
    assert np.allclose(pts[0], [0.0, 0.0])
    assert np.allclose(pts[1], [0.0, 0.5])
    assert np.allclose(pts[-1], [1.0, 1.0])
