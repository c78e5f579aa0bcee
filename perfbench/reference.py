"""Independent references for the benchmark's checks.

Nothing here imports ergopde: every value is either a closed form or a
plain numpy stencil, so a check built on it cannot share a defect with the
program it checks.
"""

from __future__ import annotations

import math

import numpy as np


def _require_admissible(alpha: float, beta: float, a: float) -> None:
    if not (alpha > -1.0 and alpha + 1.0 < beta <= alpha + 2.0):
        raise ValueError(f"inadmissible exponents alpha={alpha}, beta={beta}")
    if a <= 0.0:
        raise ValueError(f"trace coefficient must be positive, got {a}")


def c_omega(alpha: float, beta: float, a: float = 1.0) -> float:
    """Ergodic constant of -a|u'|^alpha u'' + |u'|^beta = c on (-1, 1).

    With f = 0 the symmetric maximal solution reaches p = u' = infinity at
    x* = int_0^inf a p^alpha / (p^beta - c) dp, and x* = 1 gives
        c = -[a pi / (beta sin(pi (alpha + 1) / beta))]^(beta / (beta - alpha - 1)).
    """
    _require_admissible(alpha, beta, a)
    base = a * math.pi / (beta * math.sin(math.pi * (alpha + 1.0) / beta))
    return -(base ** (beta / (beta - alpha - 1.0)))


def chi(alpha: float, beta: float) -> float:
    """Blow-up exponent (2 + alpha - beta) / (beta - 1 - alpha)."""
    return (2.0 + alpha - beta) / (beta - 1.0 - alpha)


def amplitude(alpha: float, beta: float, a: float = 1.0) -> float:
    """Boundary amplitude C of u ~ C d^-chi (or C |log d| when chi = 0) for F = a tr."""
    _require_admissible(alpha, beta, a)
    x = chi(alpha, beta)
    if x == 0.0:
        return a
    return ((x + 1.0) * a) ** (1.0 / (beta - alpha - 1.0)) / x


def residual_2d(u: np.ndarray, h: float, operator: str, bounds: tuple,
                beta: float, f: np.ndarray) -> np.ndarray:
    """Interior residual -F(D2 u) + |grad u|^beta - f of a 2D grid function.

    alpha = 0 and b = 1.  `operator` is "pucci-", "pucci+" or "trace" (with
    coefficient bounds[0]); `f` holds the forcing at the interior nodes.
    Centered first and second differences with the four-point cross stencil.
    """
    ui = u[1:-1, 1:-1]
    dxx = (u[2:, 1:-1] - 2.0 * ui + u[:-2, 1:-1]) / h**2
    dyy = (u[1:-1, 2:] - 2.0 * ui + u[1:-1, :-2]) / h**2
    dxy = (u[2:, 2:] + u[:-2, :-2] - u[2:, :-2] - u[:-2, 2:]) / (4.0 * h * h)
    gx = (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h)
    gy = (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h)
    if operator == "trace":
        fval = bounds[0] * (dxx + dyy)
    else:
        small, big = bounds
        mean = 0.5 * (dxx + dyy)
        rad = np.sqrt((0.5 * (dxx - dyy)) ** 2 + dxy**2)
        eig = (mean - rad, mean + rad)
        pos = sum(np.maximum(lam, 0.0) for lam in eig)
        neg = sum(np.minimum(lam, 0.0) for lam in eig)
        if operator == "pucci+":
            fval = big * pos + small * neg
        elif operator == "pucci-":
            fval = small * pos + big * neg
        else:
            raise ValueError(f"unknown operator {operator!r}")
    return -fval + np.hypot(gx, gy) ** beta - f
