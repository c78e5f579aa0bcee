"""Scalar data of the equation -|grad u|^alpha F(D2 u) + b|grad u|^beta = f.

Holds the exponent pair, coefficient fields, the full equation instance,
and the derived blow-up quantities (exponent chi, boundary amplitude,
zoom residual factor) used by the asymptotic experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import operators
from .errors import DegenerateOperator, DimensionMismatch, OutOfRange
from .expressions import compile_expression


# ---------------------------------------------------------------------------
# exponents


@dataclass(frozen=True)
class ExponentPair:
    """Admissible exponents: alpha > -1 and alpha + 1 < beta <= alpha + 2."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not self.alpha > -1.0:
            raise OutOfRange(f"alpha must exceed -1, got {self.alpha}")
        if not (self.alpha + 1.0 < self.beta <= self.alpha + 2.0):
            raise OutOfRange(
                f"beta must lie in (alpha+1, alpha+2], got "
                f"alpha={self.alpha}, beta={self.beta}"
            )


def chi(exponents: ExponentPair) -> float:
    """Blow-up exponent (2 + alpha - beta) / (beta - 1 - alpha) >= 0."""
    return (2.0 + exponents.alpha - exponents.beta) / (
        exponents.beta - 1.0 - exponents.alpha
    )


def amplitude_C(
    operator: operators.OperatorSpec,
    boundary_normal,
    exponents: ExponentPair,
    b=1.0,
):
    """Boundary blow-up amplitude at the face value b of the coefficient.

    For chi > 0: ((chi+1) F(n (x) n))^(1/(beta-alpha-1)) / chi;
    for chi = 0: F(n (x) n); either times b^(-1/(beta-alpha-1)).  b may be
    an array of face values, and the amplitude is then one per value.
    """
    if not np.all(np.greater(b, 0.0)):
        raise OutOfRange("the blow-up amplitude needs b > 0 on the face")
    n = np.asarray(boundary_normal, dtype=float)
    if abs(np.linalg.norm(n) - 1.0) > 1e-12:
        raise OutOfRange("boundary normal must be a unit vector")
    proj = operators.SymMatrix.from_array(np.outer(n, n))
    fnn = operators.eval_operator(operator, proj)
    if fnn <= 0.0:
        raise DegenerateOperator(
            f"F(n (x) n) = {fnn} <= 0: operator violates ellipticity"
        )
    x = chi(exponents)
    exponent = 1.0 / (exponents.beta - exponents.alpha - 1.0)
    if x == 0.0:
        amp = fnn
    else:
        # log-space evaluation: the amplitude explodes as beta -> alpha + 1
        # and should saturate to inf rather than raise OverflowError
        try:
            amp = math.exp(exponent * math.log((x + 1.0) * fnn) - math.log(x))
        except OverflowError:
            amp = math.inf
    return amp * b ** -exponent


def rescale_residual_factor(exponents: ExponentPair, delta: float) -> float:
    """Right-hand-side factor delta^(beta/(beta-alpha-1)) of the zoom transform."""
    if delta <= 0.0:
        raise OutOfRange("delta must be positive")
    return delta ** (exponents.beta / (exponents.beta - exponents.alpha - 1.0))


# ---------------------------------------------------------------------------
# coefficient fields and domains


@dataclass(frozen=True)
class ScalarField:
    """Evaluation rule `fn` over domain points, checked and shaped only here."""

    fn: object
    dim: int

    def __call__(self, *coords) -> np.ndarray:
        coords = [np.asarray(c, dtype=float) for c in coords]
        if len(coords) != self.dim:
            raise DimensionMismatch(
                f"field of dimension {self.dim} called with {len(coords)} coords"
            )
        out = np.asarray(self.fn(*coords), dtype=float)
        out = np.broadcast_to(out, coords[0].shape).copy()
        if not np.all(np.isfinite(out)):
            raise OutOfRange("field evaluated to a non-finite value")
        return out

    def at(self, *point: float) -> float:
        """Value at one point as a float, without the array round-trip of
        __call__ (for integrators that step one point at a time)."""
        value = float(self.fn(*point))
        if not math.isfinite(value):
            raise OutOfRange("field evaluated to a non-finite value")
        return value

    @staticmethod
    def constant(value: float, dim: int = 1) -> "ScalarField":
        v = float(value)
        return ScalarField(fn=lambda *coords: v, dim=dim)

    @staticmethod
    def from_expression(expr: str, dim: int = 1) -> "ScalarField":
        return ScalarField(fn=compile_expression(expr, dim), dim=dim)


@dataclass(frozen=True)
class Box:
    """Axis-aligned box domain (1D interval or 2D rectangle)."""

    lo: tuple
    hi: tuple

    def __post_init__(self):
        object.__setattr__(self, "lo", tuple(float(v) for v in self.lo))
        object.__setattr__(self, "hi", tuple(float(v) for v in self.hi))
        if len(self.lo) != len(self.hi):
            raise DimensionMismatch("lo/hi length mismatch")
        if len(self.lo) not in (1, 2):
            raise DimensionMismatch("only 1D and 2D boxes supported")
        if any(h <= l for l, h in zip(self.lo, self.hi)):
            raise OutOfRange("box must have positive volume")

    @property
    def dim(self) -> int:
        return len(self.lo)

    @property
    def sides(self) -> tuple:
        return tuple(h - l for l, h in zip(self.lo, self.hi))

    def shrunk(self, factor: float) -> "Box":
        """Concentric box with sides scaled by `factor`."""
        c = [0.5 * (l + h) for l, h in zip(self.lo, self.hi)]
        half = [0.5 * factor * s for s in self.sides]
        return Box(
            tuple(ci - hi for ci, hi in zip(c, half)),
            tuple(ci + hi for ci, hi in zip(c, half)),
        )


@dataclass(frozen=True)
class EquationInstance:
    """Full problem data: operator F, exponents, coefficients b and f, domain."""

    operator: operators.OperatorSpec
    exponents: ExponentPair
    b: ScalarField
    f: ScalarField
    domain: Box

    def __post_init__(self):
        if self.b.dim != self.domain.dim or self.f.dim != self.domain.dim:
            raise DimensionMismatch("coefficient field dimension != domain dimension")

    def shifted_f(self, shift: float) -> "EquationInstance":
        """Same instance with f replaced by f + shift, one checked evaluation."""
        base = self.f.fn
        return replace(self, f=ScalarField(lambda *c: base(*c) + shift, self.f.dim))


def face_normals(domain: Box) -> dict:
    """Inward unit normals of the box faces, keyed by 'axis{i}_{lo|hi}'."""
    out = {}
    for axis in range(domain.dim):
        n = np.zeros(domain.dim)
        n[axis] = 1.0
        out[f"axis{axis}_lo"] = n.copy()
        n[axis] = -1.0
        out[f"axis{axis}_hi"] = n.copy()
    return out

