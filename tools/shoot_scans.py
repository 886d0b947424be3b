"""Shooting scans: shoot_evanescent at T = 12 over three fixed problem sets.

    PYTHONPATH=src python tools/shoot_scans.py [main|held-out|spd60 ...]

Runs every scan by default.  Each problem is one line, tab-separated:
scan, problem, dimension, lambda_max T, converged, orbits integrated, RK
steps (accepted + rejected), the v0 error ||v0 + grad psi(x0)|| and, where
the orbit has a closed form, the node error max |v(t) - e^{-tA} x0| over
the returned orbit's nodes ("-" otherwise).  A line of totals (RK steps,
orbits, converged) ends each scan.

The problem sets, all quadratics psi = 0.5 x'Ax (A symmetrized) unless
stated; a draw takes, in order, n = rng.integers(lo, hi), Q from the QR of
an n x n standard normal sample, lambda ~ U[l0, l1]^n and, where stated,
x0 ~ U[-1.5, 1.5]^n, with A = Q diag(lambda) Q':
  main      diag(1,2), 1.5 diag(1,2), diag(0.3,1), diag(1.5,3),
            [[1.3,.4],[.4,1.8]], diag(1,1.5,2) and 8 draws of
            default_rng(7) (n in 2-3, lambda in [0.2, 3]), all from x0 = 1;
            40 draws of default_rng(11) (n in 2-4, lambda in [0.3, 3], x0
            drawn); the quartic psi = 0.5 x'Ax + 0.25 sum x_i^4 for
            A = diag(2, 3) and [[1, .3], [.3, .5]] from (1, 1) and
            (-1, 0.5), psi given without a hessvec, so grad V of
            V = induced_potential(psi) is the central difference of grad psi
            along grad psi, and V's hessvec that of grad V; and
            V = induced_potential of the quadratic psi for
            A = [[2, .5], [.5, 1]] from (1, -1), exact grad V, and a hessvec
            that is the central difference of grad V
  held-out  40 draws each of default_rng(23) and default_rng(29), drawn as
            the default_rng(11) ones
  spd60     60 draws of default_rng(4) (n in 2-4, lambda in [0.8, 2], x0
            drawn)
"""
from __future__ import annotations

import sys

import numpy as np

from evanflow.evanescent import shoot_evanescent
from evanflow.fields import DifferentiableField, induced_potential, make_quadratic

T = 12.0


def _draw(rng, lo, hi, lam, with_x0):
    n = int(rng.integers(lo, hi))
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    A = Q @ np.diag(rng.uniform(*lam, size=n)) @ Q.T
    x0 = rng.uniform(-1.5, 1.5, size=n) if with_x0 else np.ones(n)
    return A, x0


def _quadratic(name, A, x0):
    """(name, V, x0, A, grad psi(x0)): A gives the closed-form orbit."""
    A = 0.5 * (A + A.T)
    return name, make_quadratic(A).v, np.asarray(x0, float), A, A @ x0


def _quartic(name, A, x0):
    A, x0 = np.asarray(A, float), np.asarray(x0, float)
    psi = DifferentiableField(
        dim=len(A),
        value=lambda x: (0.5 * np.einsum("...i,ij,...j->...", np.asarray(x, float), A,
                                         np.asarray(x, float))
                         + 0.25 * np.sum(np.asarray(x, float) ** 4, axis=-1)),
        gradient=lambda x: np.asarray(x, float) @ A + np.asarray(x, float) ** 3,
        name="quartic")
    return name, induced_potential(psi), x0, None, A @ x0 + x0 ** 3


def _random(seed, count, lo, hi, lam):
    rng = np.random.default_rng(seed)
    return [_quadratic(f"rng{seed}#{k}", *_draw(rng, lo, hi, lam, True))
            for k in range(count)]


def scans() -> dict:
    lead = [("diag(1,2)", np.diag([1.0, 2.0])), ("1.5diag(1,2)", 1.5 * np.diag([1.0, 2.0])),
            ("diag(0.3,1)", np.diag([0.3, 1.0])), ("diag(1.5,3)", np.diag([1.5, 3.0])),
            ("[[1.3,.4],[.4,1.8]]", np.array([[1.3, 0.4], [0.4, 1.8]])),
            ("diag(1,1.5,2)", np.diag([1.0, 1.5, 2.0]))]
    rng = np.random.default_rng(7)
    lead += [(f"rng7#{k}", _draw(rng, 2, 4, (0.2, 3.0), False)[0]) for k in range(8)]
    A4 = np.array([[1.0, 0.3], [0.3, 0.5]])
    A_nohess = np.array([[2.0, 0.5], [0.5, 1.0]])
    main = ([_quadratic(name, A, np.ones(len(A))) for name, A in lead]
            + _random(11, 40, 2, 5, (0.3, 3.0))
            + [_quartic(f"quartic {a}@{x0}", A, x0)
               for a, A in (("diag(2,3)", np.diag([2.0, 3.0])), ("A4", A4))
               for x0 in ([1.0, 1.0], [-1.0, 0.5])]
            + [("no-hessvec", induced_potential(make_quadratic(A_nohess).psi),
                np.array([1.0, -1.0]), A_nohess, A_nohess @ [1.0, -1.0])])
    return {"main": main,
            "held-out": _random(23, 40, 2, 5, (0.3, 3.0)) + _random(29, 40, 2, 5, (0.3, 3.0)),
            "spd60": _random(4, 60, 2, 5, (0.8, 2.0))}


def run(scan: str, problems) -> None:
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
        print("\t".join([scan, name, str(len(x0)), stiff, str(res.converged),
                         str(d["evaluations"]), str(n_steps), f"{v0_err:.3g}", node_err]))
    print(f"{scan}\ttotal\t{len(problems)} problems\tRK steps {steps}\t"
          f"orbits {orbits}\tconverged {converged}")


def main(argv) -> None:
    sets = scans()
    for scan in argv or list(sets):
        run(scan, sets[scan])


if __name__ == "__main__":
    main(sys.argv[1:])
