"""Differentiable scalar fields on R^n and the catalog of study potentials.

A field bundles a value map, its gradient and a Hessian-vector product,
exact where given, else the central difference of the gradient.  All maps
are vectorized over leading axes: points have shape ``(..., n)``, values
``(...)``, gradients ``(..., n)``.

Every potential ``psi`` comes paired with the induced potential
``V(x) = 0.5 * ||grad psi(x)||^2`` of the second-order system.  A named
catalog entry defines psi only and takes V from ``induced_potential``; the
quadratic family alone writes V = 0.5 ||Ax||^2 from psi's gradient Ax,
with V's gradient and exact Hessian from A^2.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np

from evanflow.kernels import row_dots


class CatalogError(ValueError):
    """Unknown or malformed potential identifier."""


class NumericDomainError(ArithmeticError):
    """A field evaluation produced a non-finite value."""


class NonnegativityError(ValueError):
    """f was negative beyond tolerance at a probe point."""

    def __init__(self, point, value):
        self.point = np.asarray(point, float)
        self.value = float(value)
        super().__init__(
            f"f must be nonnegative; got f({self.point.tolist()}) = {self.value:g}"
        )


@dataclass(frozen=True)
class DifferentiableField:
    """A field built without a hessvec takes _central_hessvec of its gradient.
    hessvec(x, h) broadcasts the leading axes of x and h against each other:
    shooting passes one point x (1, n) with n rows h, the action route many
    points with one h (n,); its result broadcasts to that common shape.
    replace(field, gradient=g) keeps the old hessvec.  scaled(a) of a field
    without an exact hessvec gives a times the difference of grad f, which
    is bit-equal to the difference of a grad f only where a is a power of
    two (the library scales by 2 and 1/2 alone)."""
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessvec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = ""
    claims_bounded_below: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")
        object.__setattr__(self, "hessvec",
                           self.hessvec or _central_hessvec(self.gradient))

    def shifted(self, c: float) -> "DifferentiableField":
        """Same field plus an additive constant (gradient unchanged)."""
        base_value = self.value
        return replace(
            self,
            value=lambda x, _v=base_value, _c=float(c): _v(x) + _c,
            name=f"{self.name}{c:+g}",
        )

    def scaled(self, a: float) -> "DifferentiableField":
        a = float(a)
        v, g, hv = self.value, self.gradient, self.hessvec
        return replace(
            self,
            value=lambda x: a * v(x),
            gradient=lambda x: a * g(x),
            hessvec=lambda x, h: a * hv(x, h),
            name=f"scale({a:g})*{self.name}",
            claims_bounded_below=self.claims_bounded_below if a >= 0 else False,
        )


@dataclass(frozen=True)
class PotentialPair:
    psi: DifferentiableField
    v: DifferentiableField

    @property
    def dim(self) -> int:
        return self.psi.dim


def fd_step(x) -> np.ndarray:
    """Central-difference step of each point of x (..., n), balanced for
    double precision; the norm is rounded as np.dot rounds it, so a point's
    step does not depend on how many points share the call."""
    return 1e-5 * (1.0 + np.sqrt(row_dots(np.asarray(x, float))))


def _central_hessvec(gradient):
    """Hess f(x) p as the central difference of grad f along p, row by row:
    (grad f(x + t p) - grad f(x - t p)) / 2t with t = fd_step(x) / ||p||
    (t = fd_step(x) where p = 0), for x and p of shape (..., n)."""

    def hessvec(x, p):
        x, p = np.asarray(x, float), np.asarray(p, float)
        norms = np.linalg.norm(p, axis=-1, keepdims=True)
        t = fd_step(x)[..., None] / np.where(norms > 0.0, norms, 1.0)
        return (gradient(x + t * p) - gradient(x - t * p)) / (2.0 * t)

    return hessvec


def fd_gradient(field: DifferentiableField, x) -> np.ndarray:
    """Independent central-difference derivative oracle at a single point."""
    x = np.asarray(x, float).reshape(field.dim)
    h = float(fd_step(x))
    g = np.empty(field.dim)
    for i in range(field.dim):
        xp, xm = x.copy(), x.copy()
        xp[i] += h
        xm[i] -= h
        fp, fm = float(field.value(xp)), float(field.value(xm))
        if not (np.isfinite(fp) and np.isfinite(fm)):
            raise NumericDomainError(f"non-finite value near {x.tolist()}")
        g[i] = (fp - fm) / (2.0 * h)
    return g


def induced_potential(psi: DifferentiableField) -> DifferentiableField:
    """V = 0.5 * ||grad psi||^2, with grad V = Hess psi . grad psi."""

    def v_value(x):
        g = psi.gradient(np.asarray(x, float))
        return 0.5 * np.sum(g * g, axis=-1)

    def v_gradient(x):
        x = np.asarray(x, float)
        return psi.hessvec(x, psi.gradient(x))

    return DifferentiableField(
        dim=psi.dim,
        value=v_value,
        gradient=v_gradient,
        name=f"half-sq-grad({psi.name})",
    )


def make_pair(psi: DifferentiableField) -> PotentialPair:
    """psi paired with its induced potential V = 0.5 * ||grad psi||^2."""
    return PotentialPair(psi=psi, v=induced_potential(psi))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def _times(x, M) -> np.ndarray:
    """x @ M, by ndarray.dot where x is 1-D or 2-D: the same BLAS call, bit
    for bit, at half the per-call cost.  0-d x raises as @ does, and x of 3
    or more dimensions keeps @, which dot would round differently."""
    x = np.asarray(x, float)
    return x.dot(M) if 0 < x.ndim < 3 else x @ M


def make_quadratic(A) -> PotentialPair:
    """psi(x) = 0.5 <x, Ax> with A symmetrized; V(x) = 0.5 ||Ax||^2.  Each
    value is one row_dots of the gradient Ax, so a point's value does not
    depend on how many points share the call where its gradient does not."""
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise CatalogError(f"quadratic matrix must be square, got shape {A.shape}")
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    psd = bool(np.min(np.linalg.eigvalsh(A)) >= -1e-10)

    def gradient(x):
        return _times(x, A)

    def value(x):
        x = np.asarray(x, float)
        return 0.5 * row_dots(x, gradient(x))

    def hessvec(x, h):
        return _times(h, A)

    psi = DifferentiableField(
        dim=n, value=value, gradient=gradient, hessvec=hessvec,
        name=f"quadratic:{_matrix_literal(A)}",
        claims_bounded_below=psd,
    )

    A2 = A @ A    # inf where entries overflow

    v = DifferentiableField(
        dim=n, value=lambda x: 0.5 * row_dots(_times(x, A)),
        gradient=lambda x: _times(x, A2),
        hessvec=lambda x, h: _times(h, A2),
        name=f"half-sq-grad({psi.name})",
    )
    return PotentialPair(psi=psi, v=v)


def make_example_one() -> PotentialPair:
    """1-D convex C^2 potential, unbounded below with vanishing gradient at -inf.

    psi(x) = -ln(1-x) for x <= 0 and x^2/2 + x for x >= 0; both branches and
    their first two derivatives agree at 0.
    """

    def value(x):
        t = np.asarray(x, float)[..., 0]
        tn = np.minimum(t, 0.0)
        return np.where(t <= 0.0, -np.log1p(-tn), 0.5 * t * t + t)

    def gradient(x):
        t = np.asarray(x, float)[..., 0]
        tn = np.minimum(t, 0.0)
        return np.where(t <= 0.0, 1.0 / (1.0 - tn), t + 1.0)[..., None]

    def hessvec(x, h):
        t = np.asarray(x, float)[..., 0]
        tn = np.minimum(t, 0.0)
        d2 = np.where(t <= 0.0, 1.0 / (1.0 - tn) ** 2, 1.0)
        return d2[..., None] * np.asarray(h, float)

    return make_pair(DifferentiableField(
        dim=1, value=value, gradient=gradient, hessvec=hessvec,
        name="example_one",
    ))


def _neg_square() -> PotentialPair:
    # psi(x) = -x^2: the orbit e^{2t} x0 solves both systems but evanesces
    # for no initial condition except 0.
    pp = make_quadratic([[-2.0]])
    return PotentialPair(psi=replace(pp.psi, name="neg_square"),
                         v=replace(pp.v, name="half-sq-grad(neg_square)"))


def _cubic() -> PotentialPair:
    # psi(x) = x^3 is not convex although V(x) = (9/2) x^4 is.
    return make_pair(DifferentiableField(
        dim=1,
        value=lambda x: np.asarray(x, float)[..., 0] ** 3,
        gradient=lambda x: 3.0 * np.asarray(x, float) ** 2,
        hessvec=lambda x, h: 6.0 * np.asarray(x, float) * np.asarray(h, float),
        name="cubic",
    ))


def _quartic_saddle() -> PotentialPair:
    # psi(x1, x2) = x1^4 - x2^2; V = 8 x1^6 + 2 x2^2 is convex.
    def value(x):
        x = np.asarray(x, float)
        return x[..., 0] ** 4 - x[..., 1] ** 2

    def gradient(x):
        x = np.asarray(x, float)
        return np.stack([4.0 * x[..., 0] ** 3, -2.0 * x[..., 1]], axis=-1)

    def hessvec(x, h):
        x = np.asarray(x, float)
        h = np.asarray(h, float)
        return np.stack(np.broadcast_arrays(
            12.0 * x[..., 0] ** 2 * h[..., 0], -2.0 * h[..., 1]), axis=-1)

    return make_pair(DifferentiableField(
        dim=2, value=value, gradient=gradient, hessvec=hessvec,
        name="quartic_saddle",
    ))


def _make_linear(slope: float) -> PotentialPair:
    slope = float(slope)
    return make_pair(DifferentiableField(
        dim=1,
        value=lambda x: slope * np.asarray(x, float)[..., 0],
        gradient=lambda x: slope * np.ones_like(np.asarray(x, float)),
        hessvec=lambda x, h: np.zeros_like(np.asarray(h, float)),
        name="linear" if slope == 1.0 else "neg_linear",
    ))


# The named potentials, in catalog order (criterion 8 draws per entry in this
# order): id -> (constructor, whether make_counterexample builds it).
_CATALOG = {
    "example_one": (make_example_one, False),
    "neg_square": (_neg_square, True),
    "cubic": (_cubic, True),
    "quartic_saddle": (_quartic_saddle, True),
    "linear": (lambda: _make_linear(1.0), True),
    "neg_linear": (lambda: _make_linear(-1.0), False),
}


def make_counterexample(kind: str) -> PotentialPair:
    """Potentials on which specific claims are expected to break down:
    neg_square, cubic, quartic_saddle and linear."""
    make, counterexample = _CATALOG.get(kind, (None, False))
    if not counterexample:
        raise CatalogError(f"unknown counterexample kind {kind!r}")
    return make()


def field_from_f(f: DifferentiableField) -> DifferentiableField:
    """Build V = f/2 from the squared gradient modulus f, checking f >= 0 at
    64 seeded random probes in [-2, 2]^n."""
    probes = np.random.default_rng(0).uniform(-2.0, 2.0, size=(64, f.dim))
    vals = np.asarray(f.value(probes), float)
    if np.any(vals < -1e-12):
        i = int(np.argmin(vals))
        raise NonnegativityError(probes[i], vals[i])

    return replace(f.scaled(0.5), name=f"half({f.name})")


# ---------------------------------------------------------------------------
# string identifiers
# ---------------------------------------------------------------------------

def _matrix_literal(A: np.ndarray) -> str:
    return ";".join(",".join(f"{x:g}" for x in row) for row in A)


def parse_matrix_literal(text: str) -> np.ndarray:
    """Row-major comma/semicolon matrix form, e.g. '1,0;0,2'."""
    try:
        rows = [[float(x) for x in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise CatalogError(f"bad matrix literal {text!r}: {exc}") from None
    lengths = {len(r) for r in rows}
    if len(lengths) != 1:
        raise CatalogError(f"ragged matrix literal {text!r}")
    return np.asarray(rows, float)


def resolve_potential(spec_id: str) -> PotentialPair:
    """Catalog lookup by string id.

    Base ids: quadratic:<matrix literal> and the named ids of catalog_ids().
    A trailing '+<const>', where the constant may be negative ('cubic+-2'),
    shifts psi by an additive constant (V unchanged); the '+' of a signed
    exponent is not a shift ('quadratic:1e+2').
    """
    spec_id = spec_id.strip()
    base, shift = _split_shift(spec_id)
    if base in _CATALOG:
        pair = _CATALOG[base][0]()
    elif base.startswith("quadratic:"):
        pair = make_quadratic(parse_matrix_literal(base[len("quadratic:"):]))
    else:
        raise CatalogError(f"unknown potential id {base!r}")
    if shift != 0.0:
        pair = PotentialPair(psi=pair.psi.shifted(shift), v=pair.v)
    return pair


def _split_shift(spec_id: str) -> tuple[str, float]:
    # a shift suffix is '+<const>' after the base id, where the constant may
    # be negative ('cubic+-2'); it starts at the last '+' that is not the sign
    # of an exponent ('quadratic:1e+2' has no shift, 'quadratic:1e+2+5' does)
    signs = [m.start() for m in re.finditer(r"(?<![0-9.][eE])\+", spec_id)]
    if signs and signs[-1] > 0:
        try:
            return spec_id[:signs[-1]], float(spec_id[signs[-1] + 1:])
        except ValueError:
            pass
    return spec_id, 0.0


def catalog_ids() -> list[str]:
    return ["quadratic:<matrix literal>", *_CATALOG]
