"""Potential reconstruction from the squared gradient modulus, and the
determination / convexity check bundles."""
import dataclasses
import json

import numpy as np
import pytest

from evanflow.eikonal import (
    CONVEXITY_FLOW_T,
    ReconstructOptions,
    convexity_criterion_check,
    determination_check,
    determination_verdict,
    eikonal_residual,
    grid_points,
    reconstruct_grid,
    reconstruct_value,
)
from evanflow.evanescent import shoot_evanescent
from evanflow.fields import (
    NonnegativityError,
    NumericDomainError,
    PotentialPair,
    make_counterexample,
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


def test_reconstruct_action_and_shoot_agree():
    # along an evanescent orbit 0.5||w||^2 = V, so the shooting solve's action
    # is the integral of f = 2V that the reconstruction takes
    a = reconstruct_value(f_of(QUAD_1D), [1.0])
    s = shoot_evanescent(QUAD_1D.v, [1.0])
    assert a["converged"] and s.converged
    assert abs(a["psi_hat"] - s.final_action) < 5e-3


def test_reconstruct_value_unconverged_is_flagged():
    # on quadratic:1 one preconditioned step converges, so the budget is cut
    # on a quadratic with two rates
    out = reconstruct_value(f_of(QUAD_2D), [1.0, 1.0], ReconstructOptions(max_iters=1))
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
    rec = reconstruct_grid(f_of(QUAD_1D), pts, ReconstructOptions(N=60))
    data = json.loads(json.dumps(rec.to_dict()))
    assert len(data["points"]) == 3
    out = tmp_path / "recon.csv"
    rec.write_csv(out)
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "x0,psi_hat,ev_integral,tail_estimate,converged"
    assert len(lines) == 4


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


@pytest.mark.parametrize("T, N", [(0.0, 240), (-1.0, 240), (np.nan, 240),
                                  (np.inf, 240), (12.0, 1)],
                         ids=["T0", "Tneg", "Tnan", "Tinf", "N1"])
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
    assert np.isnan(rec.psi_hat[-1])
    good = reconstruct_grid(f, pts[:4], ReconstructOptions(N=60))
    assert np.array_equal(rec.psi_hat[:4], good.psi_hat)


def test_reconstruct_grid_raises_on_negative_f():
    f = QUAD_1D.v.scaled(-2.0)
    with pytest.raises(NonnegativityError):
        reconstruct_grid(f, grid_points([(-1.0, 1.0, 3)]))


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
