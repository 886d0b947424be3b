"""ODE integration for the two gradient systems and trajectory functionals.

Two integrators are provided: classical fixed-step RK4 and one adaptive
loop over an embedded Runge-Kutta pair given as data (stage rows, error
norm, step-control exponent, first step), which reuses each accepted step's
last stage as the next step's first (FSAL).  Flows, and the config key
integrator "rk45", take the Dormand-Prince 5(4) pair (DP45), the flows
that only feed a check at _CHECK_RTOL; fixed-step RK4 serves only the
config key integrator "rk4".  Shooting orbits take the 8th-order DOP853 at
_SHOOT_RTOL and an atol scaled by their start.  The right-hand side is the
integrators' only callback: an orbit stops where its first stage rhs(y) is
shorter than eps_crit.  Each orbit steps under np.errstate(over="ignore",
invalid="ignore"), so an overflow in a norm, a stage or the right-hand side
is silent during an orbit: the finiteness and divergence tests decide what
it means.  Orbit generators wrap them for u' = -grad psi(u) and for the
phase-space form of v'' = grad V(v); every shooting orbit comes from one of
them, which on request carries the sensitivities P = dv/dv0 and
Q = dw/dv0 transposed, one row per component of v0.  Orbit integrals take
one value per node, and optionally its time derivative for the
endpoint-corrected trapezoid.
"""
from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from math import inf, isfinite, nan, sqrt
from typing import Callable, NamedTuple, Optional

import numpy as np

from evanflow import kernels
from evanflow.fields import NumericDomainError

TERM_HORIZON = "horizon_reached"
TERM_CRIT = "critical_point_reached"
TERM_DIVERGED = "diverged"
TERM_STEP_COLLAPSE = "step_collapse"

DEFAULT_R_MAX = 1e6
DEFAULT_EPS_CRIT = 1e-10
# rtol of the DOP853 shooting orbits (_variational_orbit).  Step errors grow
# by up to e^{lambda_max T} along an orbit: at 1e-10 a node of the fast 2-D
# quadratic in test_shoot_spd_quadratic_property ends 1.5e-6 off
_SHOOT_RTOL = 3e-11
# rtol of the DP45 flows that only feed a check: cross_validate's flow, whose
# grid error must sit far below TOL_XV = 5e-3 (1.4e-8 on the 2-D quadratic
# diag(1, 2) from (1, 1)), and the convexity probes, whose least psi only has
# to cross BOUNDED_BELOW_FLOOR
_CHECK_RTOL = 1e-7


@dataclass
class IntegratorOptions:
    method: str = "rk45"          # "rk45" (adaptive) or "rk4" (fixed step)
    h: float = 1e-2               # fixed step for rk4
    rtol: float = 1e-9


@dataclass
class Trajectory:
    times: np.ndarray             # (m,), strictly increasing, t0 = 0
    states: np.ndarray            # (m, n)
    velocities: np.ndarray        # (m, n)
    termination: str
    meta: dict = dc_field(default_factory=dict)

    @property
    def dim(self) -> int:
        return self.states.shape[1]

    @property
    def t_end(self) -> float:
        return float(self.times[-1])

    def __len__(self) -> int:
        return len(self.times)


@dataclass
class RawOrbit:
    times: np.ndarray
    ys: np.ndarray
    termination: str
    meta: dict


def _state_vector(y0) -> np.ndarray:
    y = np.array(y0, float)
    if y.ndim != 1:
        raise ValueError(f"y0 must be a 1-D state vector, got shape {y.shape}")
    return y


def _check_state(y: np.ndarray) -> Optional[str]:
    # bool bytes are 0 or 1, so this is isfinite(y).all()'s verdict, cheaper
    if np.isfinite(y).tobytes() != b"\x01" * y.size:
        return "nan"
    # the Euclidean norm as np.linalg.norm takes it on 1-D input
    if sqrt(y.dot(y)) > DEFAULT_R_MAX:
        return TERM_DIVERGED
    return None


def rk4_fixed(rhs: Callable, y0, T: float, h: float,
              eps_crit: Optional[float] = None) -> RawOrbit:
    """Classical 4th-order Runge-Kutta with node spacing h (last step partial);
    given eps_crit, the orbit ends (TERM_CRIT) at the first node where
    ||k1|| < eps_crit, and it ends (TERM_DIVERGED) at the first node whose
    norm exceeds DEFAULT_R_MAX.  y0 must be 1-D (ValueError otherwise)."""
    if not (h > 0 and T > 0):
        raise ValueError("rk4_fixed requires h > 0 and T > 0")
    y = _state_vector(y0)
    t = 0.0
    times = [0.0]
    ys = [y]
    termination = TERM_HORIZON
    n_steps = 0
    with np.errstate(over="ignore", invalid="ignore"):
        while t < T - 1e-14 * T:
            k1 = rhs(y)
            if eps_crit is not None and sqrt(k1.dot(k1)) < eps_crit:
                termination = TERM_CRIT
                break
            # node times are computed as multiples of h (not accumulated) so the
            # grid is exactly uniform apart from a final partial step
            t_next = min((n_steps + 1) * h, T)
            hs = t_next - t
            k2 = rhs(y + 0.5 * hs * k1)
            k3 = rhs(y + 0.5 * hs * k2)
            k4 = rhs(y + hs * k3)
            y_new = y + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            flag = _check_state(y_new)
            if flag == "nan":
                raise NumericDomainError(
                    f"non-finite state at t = {t + hs:g} (last valid t = {t:g})"
                )
            y = y_new
            t = t_next
            n_steps += 1
            times.append(t)
            ys.append(y)
            if flag == TERM_DIVERGED:
                termination = TERM_DIVERGED
                break
    return RawOrbit(
        np.asarray(times), np.asarray(ys), termination,
        {"method": "rk4", "h": h, "n_steps": n_steps, "n_rejected": 0},
    )


class EmbeddedPair(NamedTuple):
    """An explicit Runge-Kutta pair whose last stage input is its solution,
    so that stage's slope is the next step's first (FSAL)."""
    name: str            # meta["method"] of its orbits
    rows: tuple          # rows[i - 1] weights the slopes K[:i] into stage i's input
    error: Callable      # (y, y_new, h, K, ctrl) -> the error norm of the step
    exponent: float      # a step is rescaled by 0.9 (tol / err) ** exponent
    first_step: Callable  # (rhs, y0, rhs(y0), T, tol, exponent, ctrl) -> the first trial h


# Dormand-Prince 5(4) coefficients (autonomous right-hand sides: no nodes c_i)
_DP_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_DP_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_DP_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                   -92097 / 339200, 187 / 2100, 1 / 40])


def _dp45_error(y, y5, h, K, ctrl):
    """||y5 - y4|| over y[ctrl], y4 the embedded 4th-order solution."""
    d = (y5 - (y + h * _DP_B4.dot(K)))[ctrl]
    return sqrt(d.dot(d))


def _fixed_first_step(rhs, y, f0, T, tol, exponent, ctrl) -> float:
    """min(1e-3 T, 0.1), whatever the start."""
    return min(1e-3 * T, 0.1)


# flows keep the fixed first step: from Hairer's estimate they fail criterion 06
DP45 = EmbeddedPair("rk45", tuple(_DP_A[1:]), _dp45_error, 1 / 5, _fixed_first_step)

# DOP853, the 8th-order pair of Prince & Dormand (1981) as Hairer, Norsett &
# Wanner give it (Solving ODEs I, section II.10): twelve stages, whose last
# input is the 8th-order solution with weights _DOP_B; the error estimate
# combines a 5th-order (_DOP_E5) and a 3rd-order (_DOP_E3) one
_DOP_A = [
    [5.26001519587677318785587544488e-2],
    [1.97250569845378994544595329183e-2, 5.91751709536136983633785987549e-2],
    [2.95875854768068491816892993775e-2, 0.0, 8.87627564304205475450678981324e-2],
    [2.41365134159266685502369798665e-1, 0.0, -8.84549479328286085344864962717e-1,
     9.24834003261792003115737966543e-1],
    [3.7037037037037037037037037037e-2, 0.0, 0.0, 1.70828608729473871279604482173e-1,
     1.25467687566822425016691814123e-1],
    [3.7109375e-2, 0.0, 0.0, 1.70252211019544039314978060272e-1,
     6.02165389804559606850219397283e-2, -1.7578125e-2],
    [3.70920001185047927108779319836e-2, 0.0, 0.0, 1.70383925712239993810214054705e-1,
     1.07262030446373284651809199168e-1, -1.53194377486244017527936158236e-2,
     8.27378916381402288758473766002e-3],
    [6.24110958716075717114429577812e-1, 0.0, 0.0, -3.36089262944694129406857109825,
     -8.68219346841726006818189891453e-1, 2.75920996994467083049415600797e1,
     2.01540675504778934086186788979e1, -4.34898841810699588477366255144e1],
    [4.77662536438264365890433908527e-1, 0.0, 0.0, -2.48811461997166764192642586468,
     -5.90290826836842996371446475743e-1, 2.12300514481811942347288949897e1,
     1.52792336328824235832596922938e1, -3.32882109689848629194453265587e1,
     -2.03312017085086261358222928593e-2],
    [-9.3714243008598732571704021658e-1, 0.0, 0.0, 5.18637242884406370830023853209,
     1.09143734899672957818500254654, -8.14978701074692612513997267357,
     -1.85200656599969598641566180701e1, 2.27394870993505042818970056734e1,
     2.49360555267965238987089396762, -3.0467644718982195003823669022],
    [2.27331014751653820792359768449, 0.0, 0.0, -1.05344954667372501984066689879e1,
     -2.00087205822486249909675718444, -1.79589318631187989172765950534e1,
     2.79488845294199600508499808837e1, -2.85899827713502369474065508674,
     -8.87285693353062954433549289258, 1.23605671757943030647266201528e1,
     6.43392746015763530355970484046e-1],
]
_DOP_B = np.array([
    5.42937341165687622380535766363e-2, 0.0, 0.0, 0.0, 0.0,
    4.45031289275240888144113950566, 1.89151789931450038304281599044,
    -5.8012039600105847814672114227, 3.1116436695781989440891606237e-1,
    -1.52160949662516078556178806805e-1, 2.01365400804030348374776537501e-1,
    4.47106157277725905176885569043e-2])
# the 3rd-order estimate is _DOP_B less the weights bhh of stages 1, 9, 12
_DOP_E3 = _DOP_B.copy()
_DOP_E3[[0, 8, 11]] -= [0.244094488188976377952755905512,
                        0.733846688281611857341361741547,
                        0.220588235294117647058823529412e-1]
_DOP_E5 = np.array([
    0.1312004499419488073250102996e-1, 0.0, 0.0, 0.0, 0.0,
    -0.1225156446376204440720569753e+1, -0.4957589496572501915214079952,
    0.1664377182454986536961530415e+1, -0.3503288487499736816886487290,
    0.3341791187130174790297318841, 0.8192320648511571246570742613e-1,
    -0.2235530786388629525884427845e-1])


def _dop853_error(y, y8, h, K, ctrl):
    """Hairer's combined error h ||e5||^2 / sqrt(||e5||^2 + 0.01 ||e3||^2)
    over y[ctrl], with e5 and e3 the 5th- and 3rd-order estimates from the
    first twelve slopes: never above the 5th-order estimate h ||e5||, and
    far below it where ||e5|| << ||e3||, as it is on small steps; NaN, which
    rejects the step, where the squared denominator d is not finite."""
    Kc = K[:12, ctrl]
    e5, e3 = _DOP_E5.dot(Kc), _DOP_E3.dot(Kc)
    s5 = e5.dot(e5)
    d = s5 + 0.01 * e3.dot(e3)
    return h * s5 / sqrt(d) if 0.0 < d < inf else 0.0 if d == 0.0 else nan


def _first_step(rhs, y, f0, T, tol, exponent, ctrl) -> float:
    """Hairer's starting step (Solving ODEs I, section II.4, routine HINIT)
    in rk_adaptive's norm over y[ctrl]: an explicit Euler step
    h0 = 0.01 ||y|| / ||f0|| probes the change of slope, and the step is
    min(100 h0, h1, T) with h1 = (0.01 tol / max(||f0||, ||f1 - f0|| / h0))
    ** exponent, f1 the slope at the probe.  The fixed first step where a
    slope is not finite or the probe leaves the domain of rhs.  It runs
    inside rk_adaptive's np.errstate, so an overflowing norm is silent."""
    fixed = _fixed_first_step(rhs, y, f0, T, tol, exponent, ctrl)
    d0 = sqrt(y[ctrl].dot(y[ctrl])) / tol
    d1 = sqrt(f0[ctrl].dot(f0[ctrl])) / tol
    if not np.isfinite(d1):
        return fixed
    h0 = min(1e-6 if d0 <= 1e-5 or d1 <= 1e-5 else 0.01 * d0 / d1, T)
    try:
        df = (rhs(y + h0 * f0) - f0)[ctrl]
    except ArithmeticError:
        return fixed
    d2 = sqrt(df.dot(df)) / (tol * h0)
    if not np.isfinite(d2):
        return fixed
    d12 = max(d1, d2)
    h1 = max(1e-6, 1e-3 * h0) if d12 <= 1e-15 else (0.01 / d12) ** exponent
    return min(100.0 * h0, h1, T)


DOP853 = EmbeddedPair("dop853", tuple(np.array(a) for a in _DOP_A) + (_DOP_B,),
                      _dop853_error, 1 / 8, _first_step)


def rk_adaptive(rhs: Callable, y0, T: float, rtol: float = 1e-9,
                atol: float = 1e-12, eps_crit: Optional[float] = None,
                n_ctrl: Optional[int] = None,
                pair: EmbeddedPair = DP45) -> RawOrbit:
    """An embedded Runge-Kutta pair with step-size control, by default
    Dormand-Prince 5(4) (DP45), or DOP853; nodes at accepted steps.

    First same as last (FSAL): the input of the pair's last stage is its
    solution, so its slope is the next step's first stage, and rhs is called
    once at y0, as often as the pair's first-step rule calls it (DP45: never,
    DOP853: once, at its Euler probe), and then once per stage (six for
    DP45, twelve for DOP853) per attempted step whose stage inputs are all
    finite, rejected or not.  One test decides every step: it is accepted
    where its error norm is at most atol + rtol ||y||, and h is rescaled by
    0.9 (tol / err) ** exponent, within [0.2, 5].  A step fails the test, and
    halves h, where its error norm is not finite: NaN where a stage input is
    not finite (rhs sees neither it nor any later stage) or the last slope
    is not finite, and the pair's own norm otherwise.  Given eps_crit, the
    orbit ends (TERM_CRIT) at the first node where ||rhs(y)|| < eps_crit.
    The orbit ends (TERM_DIVERGED) at the first node whose norm exceeds
    DEFAULT_R_MAX.  Only y[:n_ctrl] (default: all of y) enters the error norm
    and that test, so appended components ride along on the steps of the
    rest.  y0 must be 1-D (ValueError otherwise).
    """
    if not (1e-12 <= rtol <= 1e-2):
        raise ValueError(f"rtol must lie in [1e-12, 1e-2], got {rtol:g}")
    if not atol > 0:
        raise ValueError("atol must be positive")
    y = _state_vector(y0)
    ctrl = slice(n_ctrl)
    t = 0.0
    times = [0.0]
    ys = [y]
    termination = TERM_HORIZON
    n_steps = 0
    n_rejected = 0
    n = y.size
    s = len(pair.rows)
    K = np.empty((s + 1, n))
    K[0] = rhs(y)
    # stage i's weights, the slopes they combine, K[:i], and its own K[i]
    # (views of K, which each stage writes in place)
    stages = [(a, K[:i], K[i]) for i, a in enumerate(pair.rows, 1)]
    last = K[s]
    error, exponent = pair.error, pair.exponent
    # bool bytes are 0 or 1: a finite vector's isfinite() bytes are all ones
    isfinite, finite = np.isfinite, b"\x01" * n
    with np.errstate(over="ignore", invalid="ignore"):
        # Euclidean norms as np.linalg.norm takes them on 1-D input
        y_norm = sqrt(y[ctrl].dot(y[ctrl]))
        h = pair.first_step(rhs, y, K[0], T, atol + rtol * y_norm, exponent, ctrl)
        while t < T * (1.0 - 1e-15):
            # K[0] is rhs(y): set at y0, carried over by FSAL, kept on rejection
            if eps_crit is not None and sqrt(K[0].dot(K[0])) < eps_crit:
                termination = TERM_CRIT
                break
            if h < 1e-14 * T:
                termination = TERM_STEP_COLLAPSE
                break
            h = min(h, T - t)
            err = nan
            for a, Ki, Kr in stages:
                yi = y + h * a.dot(Ki)
                if isfinite(yi).tobytes() != finite:
                    break
                Kr[...] = rhs(yi)
            else:
                # in both pairs K[0] is finite (or y1 is not), and K[i], 0 < i < s,
                # enters y_{i+1} with a nonzero last weight, so a finite y_{i+1}
                # proves it finite; only K[s] is left to test
                if isfinite(last).tobytes() == finite:
                    err = error(y, yi, h, K, ctrl)   # the last stage input is the solution
            tol = atol + rtol * y_norm
            if err <= tol:
                t += h
                y = yi
                K[0] = last
                n_steps += 1
                times.append(t)
                ys.append(y)
                yc = y[ctrl]
                y_norm = sqrt(yc.dot(yc))
                if y_norm > DEFAULT_R_MAX:
                    termination = TERM_DIVERGED
                    break
            else:
                n_rejected += 1
            # a step without a finite error norm halves h
            factor = (0.5 if not isfinite(err)
                      else 0.9 * (tol / err) ** exponent if err > 0 else 5.0)
            h *= min(5.0, max(0.2, factor))
    return RawOrbit(
        np.asarray(times), np.asarray(ys), termination,
        {"method": pair.name, "rtol": rtol, "atol": atol,
         "n_steps": n_steps, "n_rejected": n_rejected},
    )


def _integrate(rhs, y0, T, opts: IntegratorOptions, eps_crit=None) -> RawOrbit:
    if opts.method == "rk4":
        return rk4_fixed(rhs, y0, T, opts.h, eps_crit=eps_crit)
    if opts.method == "rk45":
        return rk_adaptive(rhs, y0, T, rtol=opts.rtol, eps_crit=eps_crit)
    raise ValueError(f"unknown integrator method {opts.method!r}")


def gradient_flow(pp, x0, T: float,
                  opts: Optional[IntegratorOptions] = None) -> Trajectory:
    """Integrate u' = -grad psi(u), psi the pair's pp.psi, from x0 until
    ||grad psi|| < DEFAULT_EPS_CRIT, the integrator's test on its first
    stage; velocities are recomputed exactly.  An orbit that stops at x0 is
    the constant orbit over [0, T]."""
    psi = pp.psi
    opts = opts or IntegratorOptions()
    x0 = np.asarray(x0, float).reshape(psi.dim)

    grad = psi.gradient

    def rhs(y):
        return -grad(y)

    raw = _integrate(rhs, x0, T, opts, eps_crit=DEFAULT_EPS_CRIT)
    if raw.termination == TERM_CRIT:
        raw.meta["stopped_at"] = float(raw.times[-1])
    times, states = raw.times, raw.ys
    if len(times) == 1:
        times, states = np.array([0.0, T]), np.vstack([states, states])
    return Trajectory(times, states, -psi.gradient(states), raw.termination, raw.meta)


def _second_order_rhs(V):
    """Phase-space right-hand side (v, w)' = (w, grad V(v)) of v'' = grad V(v),
    for a state (v, w) of length 2n."""
    n = V.dim
    grad = V.gradient

    def rhs(y):
        return np.concatenate((y[n:], grad(y[:n])))

    return rhs


def _variational_rhs(V):
    """(v, w, P, Q)' = (w, grad V(v), Q, Hess V(v) P): v'' = grad V(v) with
    its sensitivities P = dv/dv0, Q = dw/dv0.  After (v, w) the state holds
    P and Q transposed, row-major: row j of each block is column j, the
    sensitivity to v0[j], so Hess V(v) acts on rows (V.hessvec broadcasts
    v against them) and nothing is transposed.  Its first 2n entries are
    _second_order_rhs's.
    """
    n = V.dim
    m = 2 * n + n * n
    grad, hessvec = V.gradient, V.hessvec

    def rhs(y):
        v, P = y[:n], y[2 * n:m].reshape(n, n)
        return np.concatenate((y[n:2 * n], grad(v), y[m:], hessvec(v[None], P).ravel()))

    return rhs


def _variational_orbit(V, x0, v0, T: float,
                       prev: Optional[RawOrbit] = None,
                       sensitivities: bool = True) -> Optional[RawOrbit]:
    """The DOP853 orbit of v'' = grad V(v) from (x0, v0) over [0, T], with
    its sensitivities, rows (v, w, P, Q) laid out as _variational_rhs lays
    them out, or without them, rows (v, w), where sensitivities is false;
    None if it leaves the domain of V.  Given prev, such an orbit over
    [0, t1], it integrates only [t1, T] from prev's last row and returns
    prev joined to it without repeating the join; meta counts the steps of
    this integration only.  Only (v, w) enters the error norm and the
    divergence test, so it takes the steps of the plain orbit; (P, Q) grow
    like e^{lambda t}.  This is the shooting step policy: rtol _SHOOT_RTOL,
    DOP853's estimated first step, and atol 1e-12 min(1, ||(x0, v0)||),
    1e-12 at the origin, so an orbit near it is resolved relative to its
    own size; the divergence bound is DEFAULT_R_MAX."""
    n = len(x0)
    size = float(np.linalg.norm(np.concatenate([x0, v0])))
    atol = 1e-12 * (min(1.0, size) if size > 0.0 else 1.0)
    if prev is not None:
        t1, y0 = prev.times[-1], prev.ys[-1]
    elif sensitivities:
        t1, y0 = 0.0, np.concatenate([x0, v0, np.zeros(n * n), np.eye(n).ravel()])
    else:
        t1, y0 = 0.0, np.concatenate([x0, v0])
    rhs = _variational_rhs(V) if len(y0) > 2 * n else _second_order_rhs(V)
    try:
        raw = rk_adaptive(rhs, y0, T - t1, rtol=_SHOOT_RTOL, atol=atol, n_ctrl=2 * n,
                          pair=DOP853)
    except ArithmeticError:
        return None
    if prev is not None:
        raw.times = np.concatenate([prev.times, t1 + raw.times[1:]])
        raw.ys = np.concatenate([prev.ys, raw.ys[1:]])
    return raw


def second_order_flow(V, x0, v0, T: float,
                      opts: Optional[IntegratorOptions] = None) -> Trajectory:
    """Integrate the phase-space form (v, w)' = (w, grad V(v)) from (x0, v0)."""
    opts = opts or IntegratorOptions()
    n = V.dim
    x0 = np.asarray(x0, float).reshape(n)
    v0 = np.asarray(v0, float).reshape(n)
    raw = _integrate(_second_order_rhs(V), np.concatenate([x0, v0]), T, opts)
    return Trajectory(raw.times, raw.ys[:, :n], raw.ys[:, n:], raw.termination, raw.meta)


def path_integral(traj: Trajectory, values, slopes=None) -> float:
    """Composite trapezoid of an integrand g's values, one per trajectory
    node.  Given its time derivatives g' at the nodes too, it adds the
    endpoint correction sum h^2/12 (g'_i - g'_{i+1}), which makes the rule
    exact on cubics (error O(h^4) in place of O(h^2))."""
    if len(traj) < 2:
        raise ValueError("path_integral needs a trajectory with >= 2 nodes")
    arrays = [np.asarray(a, float) for a in (values, slopes) if a is not None]
    for a in arrays:
        if a.shape != traj.times.shape:
            raise ValueError(f"path_integral needs one value per node, got {a.shape}")
        if not np.all(np.isfinite(a)):
            raise NumericDomainError("non-finite integrand value along trajectory")
    total = kernels.trapezoid(traj.times, arrays[0])
    if slopes is None:
        return total
    h = np.diff(traj.times)
    return total + float(np.sum(h * h * (arrays[1][:-1] - arrays[1][1:]))) / 12.0
