"""High-accuracy 1D reference solutions (independent of the grid solver).

Two closed-form/ODE constructions are provided:

* an explicit Dirichlet solution of -|u'|^alpha u'' = c0 on (-1, 1), used
  to measure convergence orders of the grid solver;
* a shooting integrator for the symmetric ergodic ODE
  -a |u'|^alpha u'' + |u'|^beta = f(x) + c with even f, which tracks the
  blow-up location x*(c) of the maximal solution with u'(0) = 0 and
  recovers the ergodic constant of (-1, 1) as the root of log x*(c) = 0,
  found by secant steps in the scaling variable t = log(-sup f - c), in
  which it is affine for constant f.

The shooting integration works in the variable s = p^(1+alpha) (p = u')
near p = 0, switches to log p once p is O(1), and closes the remaining
distance to the blow-up point with a two-term asymptotic tail, giving
blow-up locations accurate to well below 1e-10.  Both phases run a scalar
DOP853 loop on Python floats with solve_ivp's step control (Hairer, Norsett
& Wanner, Solving ODEs I, II.4 and II.10), rtol 1e-11 and atol 1e-13.
"""

from __future__ import annotations

import functools
import math
import operator

import numpy as np

from .errors import BracketFailure, InsufficientSpan, InvalidRegime, OutOfRange
from .model import ExponentPair, ScalarField

_P_SWITCH_CAP = 2.0
_P_MAX = 1e8
_RTOL, _ATOL = 1e-11, 1e-13
# root search for the ergodic constant in t = log(-sup f - c)
_SEARCH_STEPS = 60
_T_MAX = 25.0  # |t| beyond this: -sup f - c outside [1.4e-11, 7.2e10]
_STEP_FLOOR = 1e-10  # least overshoot of a step before g changes sign: above its noise
# shoot_blowup resolves log x* to about 1e-13, and |dg/dt| = gamma for
# constant f (0.17 at beta - alpha - 1 = 0.4, alpha = 1), so t cannot be
# resolved much below this
_T_RESOLUTION = 1e-12
_EVEN_RTOL = 1e-12  # rounding-level bound on f(x) - f(-x)


# ---------------------------------------------------------------------------
# explicit Dirichlet solution


def exact_dirichlet_1d(alpha: float, c0: float):
    """Exact solution of -|u'|^alpha u'' = c0 on (-1, 1), u(+-1) = 0.

    Returns a vectorized callable u(x) with attributes ``value_at_zero``
    and ``exponent``.  Requires alpha > -1 and c0 > 0.
    """
    if alpha <= -1.0:
        raise OutOfRange("alpha must exceed -1")
    if c0 <= 0.0:
        raise OutOfRange("c0 must be positive")
    m = (2.0 + alpha) / (1.0 + alpha)
    amp = ((1.0 + alpha) * c0) ** (1.0 / (1.0 + alpha)) * (1.0 + alpha) / (2.0 + alpha)

    def u(x):
        x = np.asarray(x, dtype=float)
        return amp * (1.0 - np.abs(x) ** m)

    u.value_at_zero = amp
    u.exponent = m
    return u


# ---------------------------------------------------------------------------
# shooting for the symmetric ergodic ODE


@functools.cache
def _dop853_tableau() -> tuple:
    """DOP853's (A rows, B, C, E3, E5) as float tuples, read from scipy once."""
    from scipy.integrate import DOP853 as rk

    rows = tuple(tuple(rk.A[i, :i].tolist()) for i in range(rk.n_stages))
    return (rows, *(tuple(v.tolist()) for v in (rk.B, rk.C, rk.E3, rk.E5)))


def _dop853(rhs, t: float, t_end: float, y: float) -> float:
    """y(t_end) of the scalar ODE y' = rhs(t, y) for t_end > t, by DOP853.

    The step control is solve_ivp's: its initial-step rule, safety 0.9,
    factors in [0.2, 10], exponent -1/8, and a step floor of 10 ulp(t); a
    step that shrinks below the floor is InvalidRegime.
    """
    rows, b, c, e3, e5 = _dop853_tableau()
    k = [rhs(t, y)] + [0.0] * len(b)
    scale = _ATOL + abs(y) * _RTOL
    d0, d1 = abs(y) / scale, abs(k[0]) / scale
    h0 = min(1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1, t_end - t)
    d12 = max(d1, abs(rhs(t + h0, y + h0 * k[0]) - k[0]) / scale / h0)
    h = max(1e-6, h0 * 1e-3) if d12 <= 1e-15 else (0.01 / d12) ** 0.125
    h, rejected = min(100.0 * h0, h, t_end - t), False
    while t < t_end:
        floor = 10.0 * (math.nextafter(t, math.inf) - t)
        h = h if rejected else max(h, floor)
        if not h >= floor:  # so a NaN step, from a NaN slope, ends here too
            raise InvalidRegime(f"shooting step size collapsed at t = {t!r}")
        t_new = min(t + h, t_end)
        h = t_new - t
        for i in range(1, len(rows)):
            k[i] = rhs(t + c[i] * h, y + h * sum(map(operator.mul, rows[i], k)))
        y_new = y + h * sum(map(operator.mul, b, k))
        k[-1] = rhs(t_new, y_new)
        scale = _ATOL + max(abs(y), abs(y_new)) * _RTOL
        sq5 = (sum(map(operator.mul, e5, k)) / scale) ** 2
        sq3 = (sum(map(operator.mul, e3, k)) / scale) ** 2
        err = h * sq5 / math.sqrt(sq5 + 0.01 * sq3) if sq5 else 0.0
        if err < 1.0:
            factor = 10.0 if err == 0.0 else min(10.0, 0.9 * err**-0.125)
            h *= min(1.0, factor) if rejected else factor
            t, y, k[0], rejected = t_new, y_new, k[-1], False
        else:
            h *= max(0.2, 0.9 * err**-0.125)  # 0.2 for a NaN err, as in solve_ivp
            rejected = True
    return y


def shoot_blowup(
    exponents: ExponentPair,
    c: float,
    f: ScalarField,
    trace_coefficient: float = 1.0,
) -> float:
    """Blow-up location x*(c) of the symmetric maximal solution.

    Integrates p = u' of  a |p|^alpha p' = p^beta - f(x) - c  from the
    symmetry point x = 0, p = 0.  Requires f + c < 0 on [0, 1] so that p
    is strictly increasing (InvalidRegime otherwise).  f is read on [0, 1]
    only and continued by f(1) beyond, so a value x* > 1 says that the
    solution stays finite on [0, 1]; where beyond 1 it blows up depends on
    that continuation, not on f there.
    """
    if f.dim != 1:
        raise OutOfRange("the shooting oracle is one-dimensional")
    if trace_coefficient <= 0.0:
        raise OutOfRange("trace coefficient must be positive")
    alpha, beta = exponents.alpha, exponents.beta
    margin = float(np.max(f(np.linspace(0.0, 1.0, 4001)))) + c  # max of f + c
    if margin >= -1e-12:
        raise InvalidRegime(
            f"shooting requires f + c < 0 on the half-domain (margin {margin:.3e})"
        )
    a = trace_coefficient
    opa = 1.0 + alpha

    f_at = f.at  # per Runge-Kutta stage: one float, no array round-trip

    # phase 1: s = p^(1+alpha), regular through p = 0
    p_switch = min(_P_SWITCH_CAP, max(1.0, (2.0 * abs(margin)) ** (1.0 / beta)))

    def rhs_s(s, x):
        p = s ** (1.0 / opa) if s > 0.0 else 0.0
        return 1.0 / (opa * ((p**beta - f_at(x if x < 1.0 else 1.0) - c) / a))

    x1 = _dop853(rhs_s, 0.0, p_switch**opa, 0.0)

    # phase 2: ell = log p up to a large cutoff
    def rhs_log(ell, x):
        p = math.exp(ell)
        return a * p**opa / (p**beta - f_at(x if x < 1.0 else 1.0) - c)

    x2 = _dop853(rhs_log, math.log(p_switch), math.log(_P_MAX), x1)

    # asymptotic tail: integral of a p^alpha / (p^beta - K) from P to infinity
    gap = beta - opa
    k_val = f_at(x2 if x2 < 1.0 else 1.0) + c
    tail = a * (
        _P_MAX ** (-gap) / gap + k_val * _P_MAX ** (-(beta + gap)) / (beta + gap)
    )
    return x2 + tail


def ergodic_constant_1d(
    exponents: ExponentPair,
    f: ScalarField,
    trace_coefficient: float = 1.0,
    tol: float = 1e-8,
) -> tuple:
    """Ergodic constant of (-1, 1): the c with blow-up location x*(c) = 1.

    f must be even, since the shooting starts from the symmetry point x = 0,
    and tol finite and positive (OutOfRange otherwise).  g(t) = log x*(c)
    decreases in t = log(-sup f - c); for constant f the ODE's scaling makes
    it affine with slope -(beta - alpha - 1)/beta, the first secant slope,
    and for any f it stays close to affine.  Until g changes sign, each
    secant step overshoots the root it predicts by the floor plus the step
    times the relative change of the last slope, so the first two shots
    usually straddle it; then plain secant steps stay inside the tightest
    sign change shot, bisecting it where a step would leave it, until the
    next correction is at most _T_RESOLUTION.  Constant f takes three shots.

    Returns (c_erg, report), c_erg the last c shot and one end of the final
    sign change, the report's "bracket"; |x*(c_erg) - 1| <= tol is
    guaranteed (BracketFailure otherwise).
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise OutOfRange(f"tol must be a finite positive number, not {tol!r}")
    xs = np.linspace(-1.0, 1.0, 8001)
    values = f(xs)
    sup_f = float(np.max(values))
    odd = float(np.max(np.abs(values - f(-xs))))
    if odd > _EVEN_RTOL * (1.0 + float(np.max(np.abs(values)))):
        raise OutOfRange(
            f"the shooting oracle needs an even forcing, but max |f(x) - f(-x)| "
            f"= {odd:.3e}"
        )
    evaluations = []

    def g(t):
        c = -sup_f - math.exp(t)
        evaluations.append(c)
        return math.log(shoot_blowup(exponents, c, f, trace_coefficient))

    gamma = (exponents.beta - exponents.alpha - 1.0) / exponents.beta
    floor = _STEP_FLOOR / gamma
    t, g_t, slope, drift = 0.0, g(0.0), -gamma, 0.0
    ends = {g_t > 0.0: (t, g_t)}  # the last shot on each side: True where g > 0
    while True:
        step = -g_t / slope
        if len(ends) == 2:
            (t_left, g_left), (t_right, g_right) = ends[True], ends[False]
            if abs(step) > _T_RESOLUTION and not t_left < t + step < t_right:
                step = 0.5 * (t_left + t_right) - t
            if abs(step) <= _T_RESOLUTION:
                break
        else:
            step += math.copysign(drift * abs(step) + floor, step)
        if abs(t + step) > _T_MAX or len(evaluations) == _SEARCH_STEPS:
            what = "no sign change" if len(ends) < 2 else "no resolved root"
            raise BracketFailure(
                f"{what} of log x*(c) within {_SEARCH_STEPS} shots and "
                f"|log(-sup f - c)| <= {_T_MAX:g}"
            )
        t_next = t + step
        g_next = g(t_next)
        ends[g_next > 0.0] = (t_next, g_next)
        secant = (g_next - g_t) / (t_next - t)
        if secant < 0.0:
            drift, slope = abs(secant / slope - 1.0), secant
        elif len(ends) == 2:  # g is decreasing: a rising secant is noise
            (t_left, g_left), (t_right, g_right) = ends[True], ends[False]
            slope = (g_right - g_left) / (t_right - t_left)  # < 0, as g_left > 0
        else:
            drift, slope = 1.0, -gamma
        t, g_t = t_next, g_next
    x_final = math.exp(g_t)
    if abs(x_final - 1.0) > tol:
        raise BracketFailure(
            f"root search finished with |x* - 1| = {abs(x_final - 1.0):.3e} > {tol:.1e}"
        )
    report = {
        "c_erg": -sup_f - math.exp(t),
        "bracket": [-sup_f - math.exp(t_right), -sup_f - math.exp(t_left)],
        "x_star_at_c": x_final,
        "evaluations": len(evaluations),
        "sup_f": sup_f,
        "tol": tol,
    }
    return report["c_erg"], report


# ---------------------------------------------------------------------------
# profile fitting


def blowup_profile_fit(distances, values, case: str) -> dict:
    """Least-squares fit of boundary-layer samples to the blow-up profile.

    case "power": fit log v = -chi log d + log C  (v ~ C d^-chi);
    case "log":   fit v = C |log d| + k           (v ~ C |log d|).

    Requires at least 8 samples spanning a decade in d (InsufficientSpan).
    Returns the fitted amplitude ``c_hat``, the exponent ``chi_hat``
    (power case only) and the fit residual.
    """
    d = np.asarray(distances, dtype=float)
    v = np.asarray(values, dtype=float)
    if d.shape != v.shape or d.ndim != 1:
        raise OutOfRange("distances and values must be matching 1D arrays")
    if case not in ("power", "log"):
        raise OutOfRange(f"unknown profile case {case!r}")
    keep = np.isfinite(d) & np.isfinite(v) & (d > 0.0)
    if case == "power":
        keep &= v > 0.0
    d, v = d[keep], v[keep]
    if d.size < 8:
        raise InsufficientSpan(f"only {d.size} usable samples (need >= 8)")
    span = float(d.max() / d.min())
    if span < 10.0:
        raise InsufficientSpan(
            f"samples span a factor {span:.2f} in distance (need >= 10)"
        )
    if case == "power":
        design = np.column_stack([np.log(d), np.ones_like(d)])
        coef, res, _, _ = np.linalg.lstsq(design, np.log(v), rcond=None)
        chi_hat = -float(coef[0])
        c_hat = float(np.exp(coef[1]))
        fitted = design @ coef
        misfit = float(np.max(np.abs(fitted - np.log(v))))
        return {
            "case": "power",
            "chi_hat": chi_hat,
            "c_hat": c_hat,
            "samples": int(d.size),
            "span": span,
            "max_log_misfit": misfit,
        }
    design = np.column_stack([np.abs(np.log(d)), np.ones_like(d)])
    coef, _, _, _ = np.linalg.lstsq(design, v, rcond=None)
    c_hat = float(coef[0])
    fitted = design @ coef
    misfit = float(np.max(np.abs(fitted - v)))
    return {
        "case": "log",
        "chi_hat": None,
        "c_hat": c_hat,
        "intercept": float(coef[1]),
        "samples": int(d.size),
        "span": span,
        "max_misfit": misfit,
    }
