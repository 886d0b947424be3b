"""Differentiable scalar fields on R^n and the catalog of study potentials.

A field bundles a value map, its gradient and (optionally) a Hessian-vector
product.  All maps are vectorized over leading axes: points have shape
``(..., n)``, values ``(...)``, gradients ``(..., n)``.

Every potential ``psi`` comes paired with the induced potential
``V(x) = 0.5 * ||grad psi(x)||^2`` of the second-order system.
"""
from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Optional

import numpy as np


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
    dim: int
    value: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray]
    hessvec: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None
    name: str = ""
    claims_convex: bool = False
    claims_bounded_below: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

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
            hessvec=(None if hv is None else (lambda x, h: a * hv(x, h))),
            name=f"scale({a:g})*{self.name}",
            claims_convex=self.claims_convex if a >= 0 else False,
            claims_bounded_below=self.claims_bounded_below if a >= 0 else False,
        )


@dataclass(frozen=True)
class PotentialPair:
    psi: DifferentiableField
    v: DifferentiableField

    @property
    def dim(self) -> int:
        return self.psi.dim


def _psi_of(pp) -> DifferentiableField:
    return pp.psi if isinstance(pp, PotentialPair) else pp


def _v_of(pp) -> DifferentiableField:
    return pp.v if isinstance(pp, PotentialPair) else pp


def fd_step(x: np.ndarray) -> float:
    """Central-difference step, balanced for double precision."""
    return 1e-5 * (1.0 + float(np.linalg.norm(x)))


def fd_gradient(field: DifferentiableField, x) -> np.ndarray:
    """Independent central-difference derivative oracle at a single point."""
    x = np.asarray(x, float).reshape(field.dim)
    h = fd_step(x)
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


def _fd_gradient_batch(value, x: np.ndarray) -> np.ndarray:
    """Vectorized central differences; x has shape (..., n)."""
    x = np.asarray(x, float)
    n = x.shape[-1]
    h = 1e-5 * (1.0 + np.linalg.norm(x, axis=-1, keepdims=True))
    g = np.empty_like(x)
    for i in range(n):
        e = np.zeros(n)
        e[i] = 1.0
        step = h * e
        g[..., i] = (value(x + step) - value(x - step)) / (2.0 * h[..., 0])
    return g


def induced_potential(psi: DifferentiableField) -> DifferentiableField:
    """V = 0.5 * ||grad psi||^2, with gradient via hessvec when available."""

    def v_value(x):
        g = psi.gradient(np.asarray(x, float))
        return 0.5 * np.sum(g * g, axis=-1)

    if psi.hessvec is not None:
        def v_gradient(x):
            x = np.asarray(x, float)
            return psi.hessvec(x, psi.gradient(x))
    else:
        def v_gradient(x):
            return _fd_gradient_batch(v_value, x)

    return DifferentiableField(
        dim=psi.dim,
        value=v_value,
        gradient=v_gradient,
        name=f"half-sq-grad({psi.name})",
        claims_convex=False,
        claims_bounded_below=True,
    )


def make_pair(psi: DifferentiableField, v: DifferentiableField | None = None) -> PotentialPair:
    return PotentialPair(psi=psi, v=v if v is not None else induced_potential(psi))


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

def make_quadratic(A) -> PotentialPair:
    """psi(x) = 0.5 <x, Ax> with A symmetrized; V(x) = 0.5 ||Ax||^2."""
    A = np.asarray(A, float)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise CatalogError(f"quadratic matrix must be square, got shape {A.shape}")
    A = 0.5 * (A + A.T)
    n = A.shape[0]
    psd = bool(np.min(np.linalg.eigvalsh(A)) >= -1e-10)

    def value(x):
        x = np.asarray(x, float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, A, x)

    def gradient(x):
        return np.asarray(x, float) @ A

    def hessvec(x, h):
        return np.asarray(h, float) @ A

    psi = DifferentiableField(
        dim=n, value=value, gradient=gradient, hessvec=hessvec,
        name=f"quadratic:{_matrix_literal(A)}",
        claims_convex=psd, claims_bounded_below=psd,
    )

    A2 = A @ A

    def v_value(x):
        x = np.asarray(x, float)
        return 0.5 * np.einsum("...i,ij,...j->...", x, A2, x)

    v = DifferentiableField(
        dim=n, value=v_value,
        gradient=lambda x: np.asarray(x, float) @ A2,
        hessvec=lambda x, h: np.asarray(h, float) @ A2,
        name=f"half-sq-grad({psi.name})",
        claims_convex=True, claims_bounded_below=True,
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

    def d1(t):
        tn = np.minimum(t, 0.0)
        return np.where(t <= 0.0, 1.0 / (1.0 - tn), t + 1.0)

    def d2(t):
        tn = np.minimum(t, 0.0)
        return np.where(t <= 0.0, 1.0 / (1.0 - tn) ** 2, 1.0)

    def gradient(x):
        t = np.asarray(x, float)[..., 0]
        return d1(t)[..., None]

    def hessvec(x, h):
        t = np.asarray(x, float)[..., 0]
        return d2(t)[..., None] * np.asarray(h, float)

    psi = DifferentiableField(
        dim=1, value=value, gradient=gradient, hessvec=hessvec,
        name="example_one", claims_convex=True, claims_bounded_below=False,
    )

    def v_value(x):
        t = np.asarray(x, float)[..., 0]
        return 0.5 * d1(t) ** 2

    def v_gradient(x):
        t = np.asarray(x, float)[..., 0]
        return (d1(t) * d2(t))[..., None]

    v = DifferentiableField(
        dim=1, value=v_value, gradient=v_gradient,
        name="half-sq-grad(example_one)",
        claims_convex=False, claims_bounded_below=True,
    )
    return PotentialPair(psi=psi, v=v)


def _neg_square() -> PotentialPair:
    # psi(x) = -x^2: the orbit e^{2t} x0 solves both systems but evanesces
    # for no initial condition except 0.
    pp = make_quadratic([[-2.0]])
    return PotentialPair(psi=replace(pp.psi, name="neg_square"),
                         v=replace(pp.v, name="half-sq-grad(neg_square)"))


def _cubic() -> PotentialPair:
    # psi(x) = x^3 is not convex although V(x) = (9/2) x^4 is.
    psi = DifferentiableField(
        dim=1,
        value=lambda x: np.asarray(x, float)[..., 0] ** 3,
        gradient=lambda x: 3.0 * np.asarray(x, float) ** 2,
        hessvec=lambda x, h: 6.0 * np.asarray(x, float) * np.asarray(h, float),
        name="cubic",
    )
    v = DifferentiableField(
        dim=1,
        value=lambda x: 4.5 * np.asarray(x, float)[..., 0] ** 4,
        gradient=lambda x: 18.0 * np.asarray(x, float) ** 3,
        hessvec=lambda x, h: 54.0 * np.asarray(x, float) ** 2 * np.asarray(h, float),
        name="half-sq-grad(cubic)",
        claims_convex=True, claims_bounded_below=True,
    )
    return PotentialPair(psi=psi, v=v)


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
        return np.stack(
            [12.0 * x[..., 0] ** 2 * h[..., 0], -2.0 * h[..., 1]], axis=-1
        )

    psi = DifferentiableField(
        dim=2, value=value, gradient=gradient, hessvec=hessvec,
        name="quartic_saddle",
    )

    def v_value(x):
        x = np.asarray(x, float)
        return 8.0 * x[..., 0] ** 6 + 2.0 * x[..., 1] ** 2

    def v_gradient(x):
        x = np.asarray(x, float)
        return np.stack([48.0 * x[..., 0] ** 5, 4.0 * x[..., 1]], axis=-1)

    def v_hessvec(x, h):
        x = np.asarray(x, float)
        h = np.asarray(h, float)
        return np.stack(
            [240.0 * x[..., 0] ** 4 * h[..., 0], 4.0 * h[..., 1]], axis=-1
        )

    v = DifferentiableField(
        dim=2, value=v_value, gradient=v_gradient, hessvec=v_hessvec,
        name="half-sq-grad(quartic_saddle)",
        claims_convex=True, claims_bounded_below=True,
    )
    return PotentialPair(psi=psi, v=v)


def _make_linear(slope: float) -> PotentialPair:
    slope = float(slope)
    psi = DifferentiableField(
        dim=1,
        value=lambda x: slope * np.asarray(x, float)[..., 0],
        gradient=lambda x: slope * np.ones_like(np.asarray(x, float)),
        hessvec=lambda x, h: np.zeros_like(np.asarray(h, float)),
        name="linear" if slope == 1.0 else "neg_linear",
        claims_convex=True, claims_bounded_below=False,
    )
    v = DifferentiableField(
        dim=1,
        value=lambda x: np.full(np.asarray(x, float)[..., 0].shape, 0.5 * slope * slope),
        gradient=lambda x: np.zeros_like(np.asarray(x, float)),
        hessvec=lambda x, h: np.zeros_like(np.asarray(h, float)),
        name=f"half-sq-grad({psi.name})",
        claims_convex=True, claims_bounded_below=True,
    )
    return PotentialPair(psi=psi, v=v)


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

    return DifferentiableField(
        dim=f.dim,
        value=lambda x: 0.5 * np.asarray(f.value(x), float),
        gradient=lambda x: 0.5 * np.asarray(f.gradient(x), float),
        hessvec=(None if f.hessvec is None else (lambda x, h: 0.5 * f.hessvec(x, h))),
        name=f"half({f.name})",
        claims_convex=f.claims_convex,
        claims_bounded_below=True,
    )


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
