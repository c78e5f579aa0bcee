"""Scalar data of the equation -|grad u|^alpha F(D2 u) + b|grad u|^beta = f.

Holds the exponent pair, coefficient fields, the full equation instance,
and the derived blow-up quantities (exponent chi, boundary amplitude,
zoom residual factor) used by the asymptotic experiments.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

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

    @property
    def chi_case(self) -> str:
        return "chi=0" if self.beta == self.alpha + 2.0 else "chi>0"


def validate_exponents(alpha: float, beta: float) -> ExponentPair:
    """Validated exponent pair; OutOfRange on inadmissible values."""
    return ExponentPair(float(alpha), float(beta))


def chi(exponents: ExponentPair) -> float:
    """Blow-up exponent (2 + alpha - beta) / (beta - 1 - alpha) >= 0."""
    return (2.0 + exponents.alpha - exponents.beta) / (
        exponents.beta - 1.0 - exponents.alpha
    )


def amplitude_C(
    operator: operators.OperatorSpec,
    boundary_normal,
    exponents: ExponentPair,
) -> float:
    """Boundary blow-up amplitude.

    For chi > 0: ((chi+1) F(n (x) n))^(1/(beta-alpha-1)) / chi;
    for chi = 0: F(n (x) n).
    """
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
    if x == 0.0:
        return fnn
    exponent = 1.0 / (exponents.beta - exponents.alpha - 1.0)
    # log-space evaluation: the amplitude explodes as beta -> alpha + 1
    # and should saturate to inf rather than raise OverflowError
    log_c = exponent * math.log((x + 1.0) * fnn) - math.log(x)
    try:
        return math.exp(log_c)
    except OverflowError:
        return math.inf


def rescale_residual_factor(exponents: ExponentPair, delta: float) -> float:
    """Right-hand-side factor delta^(beta/(beta-alpha-1)) of the zoom transform."""
    if delta <= 0.0:
        raise OutOfRange("delta must be positive")
    return delta ** (exponents.beta / (exponents.beta - exponents.alpha - 1.0))


# ---------------------------------------------------------------------------
# coefficient fields and domains


@dataclass(frozen=True)
class ScalarField:
    """Deterministic evaluation rule over domain points, optionally tagged
    with a Lipschitz constant and the source expression."""

    fn: object
    dim: int
    expression: str | None = None
    lipschitz: float | None = None

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

    @staticmethod
    def constant(value: float, dim: int = 1) -> "ScalarField":
        v = float(value)
        return ScalarField(
            fn=lambda *coords: np.full(np.asarray(coords[0]).shape, v),
            dim=dim,
            expression=repr(v),
            lipschitz=0.0,
        )

    @staticmethod
    def from_expression(expr: str, dim: int = 1) -> "ScalarField":
        return ScalarField(fn=compile_expression(expr, dim), dim=dim, expression=expr)


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
        """Same instance with f replaced by f + shift."""
        base = self.f

        def fn(*coords):
            return base(*coords) + shift

        return EquationInstance(
            operator=self.operator,
            exponents=self.exponents,
            b=self.b,
            f=ScalarField(fn=fn, dim=base.dim,
                          expression=None if base.expression is None
                          else f"({base.expression})+({shift!r})",
                          lipschitz=base.lipschitz),
            domain=self.domain,
        )


@dataclass(frozen=True)
class ErgodicData:
    """Derived blow-up data: exponent chi, per-face amplitude, ergodic constant."""

    chi: float
    case: str  # "chi>0" | "chi=0"
    c_of_x: dict  # face key -> amplitude at that boundary face
    c_omega: float | None = None

    def __post_init__(self):
        if self.chi < 0.0:
            raise OutOfRange("chi must be nonnegative")


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


def ergodic_data_for(
    instance: EquationInstance, c_omega: float | None = None
) -> ErgodicData:
    """ErgodicData with the amplitude evaluated at every face of the box."""
    x = chi(instance.exponents)
    amplitudes = {
        key: amplitude_C(instance.operator, n, instance.exponents)
        for key, n in face_normals(instance.domain).items()
    }
    return ErgodicData(
        chi=x,
        case=instance.exponents.chi_case,
        c_of_x=amplitudes,
        c_omega=c_omega,
    )


# ---------------------------------------------------------------------------
# config (de)serialization


def operator_to_config(spec: operators.OperatorSpec) -> dict:
    if isinstance(spec, operators.ScaledTrace):
        return {"kind": "trace", "a": spec.coefficient}
    if isinstance(spec, (operators.PucciPlus, operators.PucciMinus)):
        return {"kind": spec.kind, "a": spec.bounds.a, "A": spec.bounds.A}
    if isinstance(spec, operators.BellmanMax):
        return {
            "kind": "bellman-max",
            "a": spec.bounds.a,
            "A": spec.bounds.A,
            "matrices": [q.to_array().tolist() for q in spec.matrices],
        }
    raise TypeError(f"unknown operator spec: {spec!r}")


def operator_from_config(cfg: dict) -> operators.OperatorSpec:
    kind = cfg.get("kind")
    if kind == "trace":
        return operators.ScaledTrace(float(cfg.get("a", 1.0)))
    if kind in ("pucci+", "pucci-"):
        bounds = operators.EllipticityBounds(float(cfg["a"]), float(cfg["A"]))
        cls = operators.PucciPlus if kind == "pucci+" else operators.PucciMinus
        return cls(bounds)
    if kind == "bellman-max":
        mats = tuple(
            operators.SymMatrix.from_array(np.array(m, dtype=float))
            for m in cfg["matrices"]
        )
        bounds = operators.EllipticityBounds(float(cfg["a"]), float(cfg["A"]))
        return operators.BellmanMax(mats, bounds)
    raise OutOfRange(f"unknown operator kind {kind!r}")


def instance_to_config(instance: EquationInstance) -> dict:
    if instance.b.expression is None or instance.f.expression is None:
        raise OutOfRange("only expression-backed fields serialize to config")
    return {
        "operator": operator_to_config(instance.operator),
        "alpha": instance.exponents.alpha,
        "beta": instance.exponents.beta,
        "b": instance.b.expression,
        "f": instance.f.expression,
        "domain": {"lo": list(instance.domain.lo), "hi": list(instance.domain.hi)},
    }


def instance_from_config(cfg: dict) -> EquationInstance:
    domain = Box(tuple(cfg["domain"]["lo"]), tuple(cfg["domain"]["hi"]))
    return EquationInstance(
        operator=operator_from_config(cfg["operator"]),
        exponents=validate_exponents(cfg["alpha"], cfg["beta"]),
        b=ScalarField.from_expression(str(cfg["b"]), dim=domain.dim),
        f=ScalarField.from_expression(str(cfg["f"]), dim=domain.dim),
        domain=domain,
    )
