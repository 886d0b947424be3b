"""Catalog potentials: analytic derivatives, flags, lookup and parsing."""
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from evanflow.diagnostics import check_monotone_gradient
from evanflow.fields import (
    CatalogError,
    DifferentiableField,
    NonnegativityError,
    _central_hessvec,
    catalog_ids,
    fd_gradient,
    fd_step,
    field_from_f,
    induced_potential,
    make_counterexample,
    make_example_one,
    make_pair,
    make_quadratic,
    parse_matrix_literal,
    resolve_potential,
)
from evanflow.kernels import row_dots


def sample_points(dim, m=25, seed=0, scale=2.0):
    rng = np.random.default_rng(seed)
    return rng.uniform(-scale, scale, size=(m, dim))


ALL_PAIRS = {
    "quadratic_1d": make_quadratic([[1.0]]),
    "quadratic_diag": make_quadratic([[1.0, 0.0], [0.0, 2.0]]),
    "quadratic_offdiag": make_quadratic([[2.0, 0.5], [0.5, 1.0]]),
    "example_one": make_example_one(),
    "neg_square": make_counterexample("neg_square"),
    "cubic": make_counterexample("cubic"),
    "quartic_saddle": make_counterexample("quartic_saddle"),
    "linear": make_counterexample("linear"),
}


@pytest.mark.parametrize("name", sorted(ALL_PAIRS))
def test_analytic_gradients_match_finite_differences(name):
    pp = ALL_PAIRS[name]
    for field in (pp.psi, pp.v):
        for x in sample_points(pp.dim, m=12, seed=hash(name) % 1000):
            g = np.asarray(field.gradient(x), float)
            g_fd = fd_gradient(field, x)
            scale = 1.0 + np.linalg.norm(g_fd)
            assert np.allclose(g, g_fd, atol=5e-6 * scale), (name, field.name, x)


WITH_HESSVEC = [f"{name}.{which}" for name, pp in sorted(ALL_PAIRS.items())
                for which in ("psi", "v") if getattr(pp, which).hessvec is not None]


@pytest.mark.parametrize("name", WITH_HESSVEC)
def test_hessvec_matches_gradient_differences(name):
    # shooting's variational equations take Hess V(x) h from the hessvec
    pair, which = name.split(".")
    field = getattr(ALL_PAIRS[pair], which)
    X = sample_points(field.dim, m=12, seed=5)
    H = sample_points(field.dim, m=12, seed=6, scale=1.0)
    step = 1e-6
    hv = np.asarray(field.hessvec(X, H), float)
    fd = (np.asarray(field.gradient(X + step * H), float)
          - np.asarray(field.gradient(X - step * H), float)) / (2.0 * step)
    gap = np.linalg.norm(hv - fd, axis=-1) / (1.0 + np.linalg.norm(fd, axis=-1))
    assert np.max(gap) < 1e-8


@pytest.mark.parametrize("name", sorted(ALL_PAIRS))
def test_v_equals_half_squared_gradient_modulus(name):
    pp = ALL_PAIRS[name]
    pts = sample_points(pp.dim, seed=3)
    g = np.asarray(pp.psi.gradient(pts), float)
    expected = 0.5 * np.sum(g * g, axis=-1)
    assert np.allclose(np.asarray(pp.v.value(pts), float), expected, atol=1e-10)


def test_quadratic_values_and_gradient():
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    x = np.array([1.0, 1.0])
    assert pp.psi.value(x) == pytest.approx(1.5)
    assert np.allclose(pp.psi.gradient(x), [1.0, 2.0])
    assert pp.v.value(x) == pytest.approx(0.5 * (1.0 + 4.0))
    assert np.allclose(pp.v.gradient(x), [1.0, 4.0])
    assert pp.psi.claims_bounded_below


def test_quadratic_matrix_is_symmetrized():
    pp = make_quadratic([[1.0, 1.0], [0.0, 1.0]])
    x = np.array([1.0, 2.0])
    # psi(x) = 0.5 <x, Ax> with A = [[1, .5], [.5, 1]]
    assert pp.psi.value(x) == pytest.approx(0.5 * (1 + 4) + 0.5 * 2)


_LEADING = st.one_of(
    st.just(()),
    st.tuples(st.integers(0, 300)),
    st.tuples(st.integers(0, 300), st.just(2)),
    st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4)),
)


def _points(rng, shape, layout):
    """Points of the given shape, scaled over six decades, as a contiguous
    array, a view that steps over every other entry of the last axis, or
    the transpose of a contiguous array."""
    def draw(s):
        return rng.standard_normal(s) * 10.0 ** rng.uniform(-3.0, 3.0, s)

    if layout == "step":
        return draw((*shape[:-1], 2 * shape[-1]))[..., ::2]
    if layout == "transposed":
        return draw(shape[::-1]).T
    return draw(shape)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.integers(1, 4), _LEADING, st.sampled_from(["contiguous", "step", "transposed"]),
       st.integers(0, 2**32 - 1))
def test_quadratic_maps_round_as_matmul(n, leading, layout, seed):
    # the four linear maps of a quadratic take x @ A (x @ A^2 for V) bit for
    # bit, on one point, a stack, a batch of pairs and 3-D and 4-D batches
    # (where ndarray.dot would round differently), over strided views too
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n))
    pp = make_quadratic(A)
    A = 0.5 * (A + A.T)
    A2 = A @ A
    x = _points(rng, (*leading, n), layout)
    h = _points(rng, (*leading, n), layout)
    for got, want in ((pp.psi.gradient(x), x @ A), (pp.psi.hessvec(x, h), h @ A),
                      (pp.v.gradient(x), x @ A2), (pp.v.hessvec(x, h), h @ A2)):
        assert got.shape == want.shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


def test_a_quadratic_value_is_the_same_whatever_else_is_in_the_call():
    # psi = x.grad psi / 2 and V = ||grad psi||^2 / 2 are one row-wise dot
    # each, so a point's value as a 1-D call and as a (1, 2) call is its
    # value in a stack of 60, bit for bit
    pp = make_quadratic([[1.3, 0.4], [0.4, 1.8]])
    X = np.random.default_rng(0).uniform(-2.0, 2.0, (60, 2))
    for f in (pp.psi, pp.v):
        stack = f.value(X)
        assert [f.value(x) for x in X] == stack.tolist()
        assert [f.value(x[None])[0] for x in X] == stack.tolist()


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("spd", [True, False], ids=["spd", "indefinite"])
def test_quadratic_values_are_dots_of_the_gradient(n, spd):
    rng = np.random.default_rng(n)
    M = rng.normal(size=(n, n))
    A = M @ M.T + np.eye(n) if spd else M + M.T
    pp = make_quadratic(A)
    X = rng.uniform(-2.0, 2.0, (40, n))
    G = pp.psi.gradient(X)
    assert np.array_equal(pp.v.value(X), 0.5 * row_dots(G))
    assert np.array_equal(pp.psi.value(X), 0.5 * row_dots(X, G))
    assert np.all(pp.v.value(X) >= 0.0)


def test_quadratic_maps_refuse_a_scalar_point():
    # a 0-d point raises as x @ A does
    pp = make_quadratic([[2.0]])
    x = np.float64(1.0)
    for call in (lambda: pp.psi.gradient(x), lambda: pp.psi.hessvec(x, x),
                 lambda: pp.v.gradient(x), lambda: pp.v.hessvec(x, x)):
        with pytest.raises(ValueError):
            call()


def test_quadratic_negative_definite_flags():
    pp = make_quadratic([[-1.0]])
    assert not pp.psi.claims_bounded_below
    # V = 0.5 x^2 is still convex and nonnegative
    assert pp.v.value(np.array([2.0])) == pytest.approx(2.0)


def test_example_one_branches():
    pp = make_example_one()
    # left branch: -ln(1 - x)
    assert pp.psi.value(np.array([-3.0])) == pytest.approx(-np.log(4.0))
    assert pp.psi.gradient(np.array([-3.0]))[0] == pytest.approx(0.25)
    # right branch: x^2/2 + x
    assert pp.psi.value(np.array([2.0])) == pytest.approx(4.0)
    assert pp.psi.gradient(np.array([2.0]))[0] == pytest.approx(3.0)
    # C^1 junction
    assert pp.psi.value(np.array([0.0])) == pytest.approx(0.0)
    assert pp.psi.gradient(np.array([0.0]))[0] == pytest.approx(1.0)
    assert not pp.psi.claims_bounded_below


def test_example_one_no_nan_far_left():
    pp = make_example_one()
    vals = pp.psi.value(np.array([[-1e5], [-1.0], [5.0]]))
    assert np.all(np.isfinite(vals))


def test_counterexample_neg_square():
    pp = make_counterexample("neg_square")
    x = np.array([1.5])
    assert pp.psi.value(x) == pytest.approx(-2.25)
    assert pp.v.value(x) == pytest.approx(2.0 * 2.25)


def test_counterexample_cubic_v_convex_psi_not():
    pp = make_counterexample("cubic")
    x = np.array([-1.0])
    assert pp.psi.value(x) == pytest.approx(-1.0)
    assert pp.v.value(x) == pytest.approx(4.5)
    # sampled convexity: grad V is monotone on [-2, 2], grad psi is not
    pairs = sample_points(1, m=40, seed=7).reshape(20, 2, 1)
    assert check_monotone_gradient(pp.v, pairs).passed
    assert not check_monotone_gradient(pp.psi, pairs).passed


def test_counterexample_quartic_saddle():
    pp = make_counterexample("quartic_saddle")
    x = np.array([1.0, 2.0])
    assert pp.psi.value(x) == pytest.approx(1.0 - 4.0)
    assert pp.v.value(x) == pytest.approx(0.5 * (16.0 + 16.0))


@pytest.mark.parametrize("name", ["example_one", "linear", "neg_linear"])
def test_induced_v_rounds_as_its_closed_form(name):
    # V = 0.5 * d1^2 with grad V = d1 * d2 for example_one (d1, d2 the first
    # two derivatives of psi), and V = 1/2 with grad V = 0 for the linear
    # pair, to the last bit
    pp = resolve_potential(name)
    x = np.linspace(-3.0, 3.0, 13)[:, None]
    if name == "example_one":
        tn = np.minimum(x[:, 0], 0.0)
        d1 = np.where(x[:, 0] <= 0.0, 1.0 / (1.0 - tn), x[:, 0] + 1.0)
        d2 = np.where(x[:, 0] <= 0.0, 1.0 / (1.0 - tn) ** 2, 1.0)
        value, gradient = 0.5 * d1 ** 2, (d1 * d2)[:, None]
    else:
        value, gradient = np.full(13, 0.5), np.zeros((13, 1))
    assert np.array_equal(pp.v.value(x), value)
    assert np.array_equal(pp.v.gradient(x), gradient)


def test_unknown_counterexample_rejected():
    with pytest.raises(CatalogError):
        make_counterexample("does_not_exist")


def test_induced_potential_matches_analytic():
    pp = make_quadratic([[2.0, 0.5], [0.5, 1.0]])
    v2 = induced_potential(pp.psi)
    pts = sample_points(2, seed=9)
    assert np.allclose(v2.value(pts), pp.v.value(pts), atol=1e-12)
    assert np.allclose(v2.gradient(pts), pp.v.gradient(pts), atol=1e-12)
    # without an exact hessvec of psi, grad V is a central difference of grad psi
    v_fd = induced_potential(dataclasses.replace(pp.psi, hessvec=None))
    assert np.allclose(v_fd.value(pts), pp.v.value(pts), atol=1e-12)
    assert np.allclose(v_fd.gradient(pts), pp.v.gradient(pts), rtol=0.0, atol=1e-8)


def test_field_without_hessvec_takes_fd_step_per_point():
    # a field built without a hessvec takes the central difference of its
    # gradient along each row p with the fd_step of the row's own point, as
    # the per-point loop takes it, so the shooting sensitivities do not
    # depend on how many points one call batches; a norm rounded another
    # way changes a few dozen of these 1,000 rows
    V = make_counterexample("quartic_saddle").v
    rng = np.random.default_rng(3)
    X = rng.uniform(-2.0, 2.0, size=(1000, 2))
    P = rng.normal(size=(1000, 2))
    P[7] = 0.0
    rows = V.hessvec(X, P)
    for x, p, row in zip(X, P, rows):
        assert fd_step(x) == 1e-5 * (1.0 + np.linalg.norm(x))
        # the norm of p is a row reduction in both, as shooting takes it
        t = fd_step(x) / (np.linalg.norm(p[None], axis=1)[0] or 1.0)
        ref = (V.gradient(x + t * p) - V.gradient(x - t * p)) / (2.0 * t)
        assert np.array_equal(row, ref)
    # a given hessvec is kept
    quad = make_quadratic([[1.0, 0.3], [0.3, 2.0]]).v
    assert DifferentiableField(dim=2, value=quad.value, gradient=quad.gradient,
                               hessvec=quad.hessvec).hessvec is quad.hessvec


def _quartic_without_hessvec(A):
    # psi = 0.5 x'Ax + 0.25 sum x_i^4, given by value and gradient only
    return DifferentiableField(
        dim=len(A),
        value=lambda x: (0.5 * np.einsum("...i,ij,...j->...", x, A, x)
                         + 0.25 * np.sum(np.asarray(x) ** 4, axis=-1)),
        gradient=lambda x: np.asarray(x, float) @ A + np.asarray(x, float) ** 3)


def _contract_fields():
    # every catalog psi and V, the quadratic family in 1 to 4 dimensions, a
    # quartic built without a hessvec with its induced V, and the central
    # difference of its gradient taken directly
    rng = np.random.default_rng(11)
    pairs = {name: resolve_potential(name) for name in catalog_ids()[1:]}
    for n in range(1, 5):
        B = rng.standard_normal((n, n))
        A = B @ B.T + n * np.eye(n)
        pairs[f"quadratic{n}"] = make_quadratic(A)
        quartic = _quartic_without_hessvec(A)
        pairs[f"quartic{n}"] = make_pair(quartic)
        yield pytest.param(n, _central_hessvec(quartic.gradient), id=f"central{n}")
    for name, pp in pairs.items():
        yield pytest.param(pp.dim, pp.psi.hessvec, id=f"{name}.psi")
        yield pytest.param(pp.dim, pp.v.hessvec, id=f"{name}.v")


@pytest.mark.parametrize("dim, hessvec", list(_contract_fields()))
def test_hessvec_broadcasts_points_against_directions(dim, hessvec):
    # the contract of DifferentiableField.hessvec: the leading axes of x and
    # h broadcast, bit for bit as the repeated operand gives them.  Shooting
    # passes one point with n sensitivity rows, x[None] (1, n) against H
    # (k, n); the action route one unit vector (n,) against many nodes
    rng = np.random.default_rng(dim)
    for k in range(1, 5):
        for _ in range(5):
            x = rng.uniform(-1.5, 1.5, dim)
            H = rng.standard_normal((k, dim))
            if k > 1:
                H[-1] = 0.0   # the p = 0 branch of _central_hessvec
            got, want = hessvec(x[None], H), hessvec(x[None].repeat(k, 0), H)
            assert got.shape == want.shape == (k, dim)
            assert np.array_equal(got, want), k
            X = rng.uniform(-1.5, 1.5, (k, dim))
            for e in np.eye(dim):
                got, want = hessvec(X, e), hessvec(X, e[None].repeat(k, 0))
                assert np.array_equal(np.broadcast_to(got, (k, dim)), want), (k, e)


def test_induced_gradient_without_hessvec_is_accurate():
    # psi = 0.5 x'Ax + 0.25 sum x_i^4, given by value and gradient only:
    # grad V = Hess psi . grad psi is one central difference of grad psi,
    # accurate over points from 2e-6 to 20 in size
    A = np.array([[1.0, 0.3], [0.3, 0.5]])
    psi = DifferentiableField(
        dim=2,
        value=lambda x: (0.5 * np.einsum("...i,ij,...j->...", x, A, x)
                         + 0.25 * np.sum(x ** 4, axis=-1)),
        gradient=lambda x: x @ A + x ** 3)
    X = (np.random.default_rng(0).uniform(-2.0, 2.0, (2000, 2))
         * np.logspace(-6, 1, 2000)[:, None])
    g = X @ A + X ** 3
    exact = g @ A + 3.0 * X ** 2 * g
    got = induced_potential(psi).gradient(X)
    rel = np.linalg.norm(got - exact, axis=1) / np.linalg.norm(exact, axis=1)
    assert np.max(rel) < 1e-9


def test_field_from_f_builds_half_f():
    pp = make_quadratic([[1.0, 0.0], [0.0, 2.0]])
    f = induced_potential(pp.psi).scaled(2.0)
    V = field_from_f(f)
    pts = sample_points(2, seed=4)
    assert np.allclose(V.value(pts), pp.v.value(pts), atol=1e-12)


def test_field_from_f_rejects_negative():
    pp = make_counterexample("neg_square")
    # psi itself goes negative, so it is not a valid squared modulus
    with pytest.raises(NonnegativityError):
        field_from_f(pp.psi)


def test_parse_matrix_literal():
    A = parse_matrix_literal("1,0;0,2")
    assert A.shape == (2, 2)
    assert A[1, 1] == 2.0
    with pytest.raises(CatalogError):
        parse_matrix_literal("1,0;0")
    with pytest.raises(CatalogError):
        parse_matrix_literal("1,zzz")


def test_resolve_potential_quadratic_and_shift():
    pp = resolve_potential("quadratic:1,0;0,2")
    assert pp.dim == 2
    shifted = resolve_potential("quadratic:1,0;0,2+5")
    x = np.array([1.0, 1.0])
    assert shifted.psi.value(x) == pytest.approx(pp.psi.value(x) + 5.0)
    # V is unchanged by the shift
    assert shifted.v.value(x) == pytest.approx(pp.v.value(x))
    # the constant may be negative; a minus sign inside a matrix literal is
    # not a shift
    cubic, neg = resolve_potential("cubic"), resolve_potential("cubic+-2")
    y = np.array([1.5])
    assert neg.psi.value(y) == pytest.approx(cubic.psi.value(y) - 2.0)
    indefinite = resolve_potential("quadratic:1,0;0,-2")
    assert indefinite.psi.value(x) == pytest.approx(0.5 * (1.0 - 2.0))
    # the '+' of a signed exponent is part of the literal, not a shift
    y = np.array([1.0])
    assert resolve_potential("quadratic:1e+2").psi.value(y) == pytest.approx(50.0)
    assert resolve_potential("quadratic:1e+2+5").psi.value(y) == pytest.approx(55.0)


def test_resolve_potential_named_entries():
    for name in ("example_one", "neg_square", "cubic", "quartic_saddle",
                 "linear", "neg_linear"):
        pp = resolve_potential(name)
        assert pp.psi.value(np.zeros(pp.dim)) is not None


def test_resolve_potential_unknown():
    with pytest.raises(CatalogError):
        resolve_potential("nope")


def test_catalog_ids_listed():
    ids = catalog_ids()
    assert "example_one" in ids and "neg_square" in ids


def test_shifted_and_scaled_helpers():
    pp = make_quadratic([[1.0]])
    s = pp.psi.shifted(3.0)
    x = np.array([2.0])
    assert s.value(x) == pytest.approx(pp.psi.value(x) + 3.0)
    assert np.allclose(s.gradient(x), pp.psi.gradient(x))
    d = pp.psi.scaled(2.0)
    assert d.value(x) == pytest.approx(2.0 * pp.psi.value(x))
