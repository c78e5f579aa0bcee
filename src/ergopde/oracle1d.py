"""High-accuracy 1D reference solutions (independent of the grid solver).

Two closed-form/ODE constructions are provided:

* an explicit Dirichlet solution of -|u'|^alpha u'' = c0 on (-1, 1), used
  to measure convergence orders of the grid solver;
* a shooting integrator for the symmetric ergodic ODE
  -a |u'|^alpha u'' + |u'|^beta = f(x) + c with even f, which tracks the
  blow-up location x*(c) of the maximal solution with u'(0) = 0 and
  recovers the ergodic constant of (-1, 1) as the root of log x*(c) = 0,
  solved in the scaling variable t = log(-sup f - c), in which it is
  affine for constant f.

The shooting integration works in the variable s = p^(1+alpha) (p = u')
near p = 0, switches to log p once p is O(1), and closes the remaining
distance to the blow-up point with a two-term asymptotic tail, giving
blow-up locations accurate to well below 1e-10.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketFailure, InsufficientSpan, InvalidRegime, OutOfRange
from .model import ExponentPair, ScalarField

_P_SWITCH_CAP = 2.0
_P_MAX = 1e8
_IVP_OPTS = {"rtol": 1e-11, "atol": 1e-13, "method": "DOP853"}
# root search for the ergodic constant in t = log(-sup f - c)
_SEARCH_STEPS = 60
_T_MAX = 25.0  # |t| beyond this: -sup f - c outside [1.4e-11, 7.2e10]
_STEP_FLOOR = 1e-10  # least overshoot of a secant step, in g: above the noise
_BRACKET_WIDTH = 0.1  # widest bracket in t for brentq, whose rtol scales with it
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


def _forcing_margin(f: ScalarField, c: float, span: float = 1.0) -> float:
    """max of f + c on a fine sample of [0, span] (must be negative)."""
    xs = np.linspace(0.0, span, 4001)
    return float(np.max(f(xs)) + c)


def shoot_blowup(
    exponents: ExponentPair,
    c: float,
    f: ScalarField,
    trace_coefficient: float = 1.0,
) -> float:
    """Blow-up location x*(c) of the symmetric maximal solution.

    Integrates p = u' of  a |p|^alpha p' = p^beta - f(x) - c  from the
    symmetry point x = 0, p = 0.  Requires f + c < 0 on [0, 1] so that p
    is strictly increasing (InvalidRegime otherwise).
    """
    from scipy.integrate import solve_ivp

    if f.dim != 1:
        raise OutOfRange("the shooting oracle is one-dimensional")
    if trace_coefficient <= 0.0:
        raise OutOfRange("trace coefficient must be positive")
    alpha, beta = exponents.alpha, exponents.beta
    margin = _forcing_margin(f, c)
    if margin >= -1e-12:
        raise InvalidRegime(
            f"shooting requires f + c < 0 on the half-domain (margin {margin:.3e})"
        )
    a = trace_coefficient
    opa = 1.0 + alpha

    f_at = f.at  # per Runge-Kutta stage: one float, no array round-trip

    def denom(x, p):
        return (p**beta - f_at(x) - c) / a

    # phase 1: s = p^(1+alpha), regular through p = 0
    p_switch = min(_P_SWITCH_CAP, max(1.0, (2.0 * abs(margin)) ** (1.0 / beta)))
    s_end = p_switch**opa

    def rhs_s(s, y):
        p = s ** (1.0 / opa) if s > 0.0 else 0.0
        return 1.0 / (opa * denom(y[0], p))

    sol1 = solve_ivp(rhs_s, (0.0, s_end), [0.0], **_IVP_OPTS)
    if not sol1.success:
        raise InvalidRegime(f"shooting phase 1 failed: {sol1.message}")
    x1 = float(sol1.y[0, -1])

    # phase 2: ell = log p up to a large cutoff
    def rhs_log(ell, y):
        p = math.exp(ell)
        return a * p**opa / (p**beta - f_at(y[0]) - c)

    sol2 = solve_ivp(
        rhs_log, (math.log(p_switch), math.log(_P_MAX)), [x1], **_IVP_OPTS
    )
    if not sol2.success:
        raise InvalidRegime(f"shooting phase 2 failed: {sol2.message}")
    x2 = float(sol2.y[0, -1])

    # asymptotic tail: integral of a p^alpha / (p^beta - K) from P to infinity
    gap = beta - opa
    k_val = f_at(x2) + c
    tail = a * (
        _P_MAX ** (-gap) / gap + k_val * _P_MAX ** (-(beta + gap)) / (beta + gap)
    )
    return x2 + tail


def _scaling_bracket(g, gamma: float) -> list:
    """Sign change of g(t) = log x*(c), t = log(-sup f - c), as two sorted
    (t, g) pairs at most _BRACKET_WIDTH apart.

    g decreases in t, with slope -gamma for constant f.  Each secant step
    (slope -gamma until two points exist) is carried past the root it
    predicts by the floor plus the step times the relative change of the
    last secant slope, which is about twice the secant method's error.
    """
    floor = _STEP_FLOOR / gamma
    t, g_t, slope, drift = 0.0, g(0.0), -gamma, 0.0
    for _ in range(_SEARCH_STEPS):
        step = -g_t / slope
        t_next = t + step + math.copysign(drift * abs(step) + floor, step)
        if abs(t_next) > _T_MAX:
            break
        g_next = g(t_next)
        if g_t * g_next <= 0.0 and abs(t_next - t) <= _BRACKET_WIDTH:
            return sorted([(t, g_t), (t_next, g_next)])
        secant = (g_next - g_t) / (t_next - t)
        if secant < 0.0:
            drift, slope = abs(secant / slope - 1.0), secant
        else:  # g is decreasing: a rising secant is noise
            drift, slope = 1.0, -gamma
        t, g_t = t_next, g_next
    raise BracketFailure(
        f"no sign change of log x*(c) within {_SEARCH_STEPS} secant steps "
        f"and |log(-sup f - c)| <= {_T_MAX:g}"
    )


def ergodic_constant_1d(
    exponents: ExponentPair,
    f: ScalarField,
    trace_coefficient: float = 1.0,
    tol: float = 1e-8,
) -> tuple:
    """Ergodic constant of (-1, 1): the c with blow-up location x*(c) = 1.

    f must be even, since the shooting starts from the symmetry point x = 0,
    and tol finite and positive (OutOfRange otherwise).  The root of
    g(t) = log x*(c) is found in the scaling variable t = log(-sup f - c):
    for constant f the ODE's scaling makes g affine in t with slope
    -(beta - alpha - 1)/beta, and for any f it stays close to affine.
    Secant steps from t = 0 reach a sign change of g (_scaling_bracket);
    brentq then resolves t to 1e-12, about what the shooting resolves.

    Returns (c_erg, report).  The report records the bracket handed to
    brentq (mapped back to c) and the shooting evaluations used; the final
    |x*(c) - 1| is guaranteed <= tol (BracketFailure otherwise).
    """
    from scipy.optimize import brentq

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

    def g(margin):
        c = -sup_f - margin
        x_star = shoot_blowup(exponents, c, f, trace_coefficient)
        evaluations.append(c)
        return math.log(x_star)

    gamma = (exponents.beta - exponents.alpha - 1.0) / exponents.beta
    (t_lo, g_lo), (t_hi, g_hi) = _scaling_bracket(lambda t: g(math.exp(t)), gamma)
    # brentq in tau = t - t_lo, so that its rtol acts on the bracket's width
    # and not on |t|; the margin -sup f - c is k_lo e^tau
    width = t_hi - t_lo
    k_lo = math.exp(t_lo)
    c_lo, c_hi = -sup_f - k_lo * math.exp(width), -sup_f - k_lo
    known = {0.0: g_lo, width: g_hi}

    def g_tau(tau):
        if tau not in known:
            known[tau] = g(k_lo * math.exp(tau))
        return known[tau]

    # shoot_blowup resolves log x* to about 1e-13, and |dg/dt| = gamma for
    # constant f (0.17 at beta - alpha - 1 = 0.4, alpha = 1), so t cannot be
    # resolved much below 1e-12
    tau = brentq(g_tau, 0.0, width, xtol=1e-12)
    c_erg = -sup_f - k_lo * math.exp(tau)
    x_final = math.exp(g_tau(tau))
    if abs(x_final - 1.0) > tol:
        raise BracketFailure(
            f"root search finished with |x* - 1| = {abs(x_final - 1.0):.3e} > {tol:.1e}"
        )
    report = {
        "c_erg": float(c_erg),
        "bracket": [float(c_lo), float(c_hi)],
        "x_star_at_c": x_final,
        "evaluations": len(evaluations),
        "sup_f": sup_f,
        "tol": tol,
    }
    return float(c_erg), report


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
