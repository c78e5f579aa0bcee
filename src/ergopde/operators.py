"""Uniformly elliptic, positively 1-homogeneous second-order operators.

The operators act on symmetric matrices of dimension 1, 2 or 3 and come in
four flavours: a scaled trace, the two extremal (maximal / minimal)
operators with ellipticity bounds (a, A), and a max over a finite family of
linear diffusions.  Eigenvalues are computed in closed form so the
evaluation can sit in an inner solver loop.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, OutOfRange


# ---------------------------------------------------------------------------
# symmetric matrices


@dataclass(frozen=True)
class SymMatrix:
    """Symmetric N x N matrix, N in {1,2,3}; only the upper triangle is stored."""

    dim: int
    upper: tuple  # row-major upper triangle: (m00,), (m00,m01,m11), ...

    def __post_init__(self):
        if self.dim not in (1, 2, 3):
            raise DimensionMismatch(f"dimension must be 1, 2 or 3, got {self.dim}")
        n = self.dim * (self.dim + 1) // 2
        if len(self.upper) != n:
            raise DimensionMismatch(
                f"expected {n} upper-triangle entries for dim {self.dim}, "
                f"got {len(self.upper)}"
            )
        object.__setattr__(self, "upper", tuple(float(v) for v in self.upper))

    @staticmethod
    def from_array(arr) -> "SymMatrix":
        a = np.asarray(arr, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise DimensionMismatch(f"not a square matrix: shape {a.shape}")
        n = a.shape[0]
        a = 0.5 * (a + a.T)  # symmetrize once; storage keeps it exact
        upper = tuple(a[i, j] for i in range(n) for j in range(i, n))
        return SymMatrix(n, upper)

    def to_array(self) -> np.ndarray:
        n = self.dim
        m = np.zeros((n, n))
        k = 0
        for i in range(n):
            for j in range(i, n):
                m[i, j] = self.upper[k]
                m[j, i] = self.upper[k]
                k += 1
        return m

    def trace(self) -> float:
        if self.dim == 1:
            return self.upper[0]
        if self.dim == 2:
            return self.upper[0] + self.upper[2]
        return self.upper[0] + self.upper[3] + self.upper[5]

    def eigenvalues(self) -> tuple:
        """Eigenvalues in ascending order, by closed form."""
        if self.dim == 1:
            return (self.upper[0],)
        if self.dim == 2:
            p, q, r = self.upper
            mean = 0.5 * (p + r)
            rad = math.hypot(0.5 * (p - r), q)
            return (mean - rad, mean + rad)
        return _eig3(self.upper)


def _dot(x, y) -> float:
    return x[0] * y[0] + x[1] * y[1] + x[2] * y[2]


def _cross(x, y) -> tuple:
    return (x[1] * y[2] - x[2] * y[1], x[2] * y[0] - x[0] * y[2],
            x[0] * y[1] - x[1] * y[0])


def _unit(x) -> tuple:
    norm = math.sqrt(_dot(x, x))
    return tuple(xi / norm for xi in x)


def _eig3(upper: tuple) -> tuple:
    """Closed-form eigenvalues of a symmetric 3x3 (upper triangle), ascending.

    Cardano gives the simple root, which is well conditioned; the other two,
    whose digits it halves where they nearly coincide, come from the 2x2
    block of b = (m - qI)/p orthogonal to the simple root's eigenvector.
    """
    m00, m01, m02, m11, m12, m22 = upper
    p1 = m01**2 + m02**2 + m12**2
    q = (m00 + m11 + m22) / 3.0
    p = math.sqrt(((m00 - q) ** 2 + (m11 - q) ** 2 + (m22 - q) ** 2 + 2.0 * p1) / 6.0)
    if p1 == 0.0 or p == 0.0:  # diagonal, or m - qI underflows to 0 in p
        return tuple(sorted((m00, m11, m22)))
    b = ((m00 - q) / p, m01 / p, m02 / p), (m01 / p, (m11 - q) / p, m12 / p), \
        (m02 / p, m12 / p, (m22 - q) / p)
    det = _dot(b[0], _cross(b[1], b[2]))
    phi = math.acos(min(1.0, max(-1.0, 0.5 * det))) / 3.0
    # the largest root is simple when det >= 0, else the smallest; either
    # lies at least sqrt(3) from the other two, so b - sI has rank 2 and
    # its largest row cross product spans its null space
    s = 2.0 * math.cos(phi if det >= 0.0 else phi + 2.0 * math.pi / 3.0)
    c = [[bij - s * (i == j) for j, bij in enumerate(row)] for i, row in enumerate(b)]
    v = _unit(max((_cross(c[i - 2], c[i - 1]) for i in range(3)),
                  key=lambda w: _dot(w, w)))
    k = min(range(3), key=lambda i: abs(v[i]))  # the axis most nearly orthogonal to v
    u1 = _unit(_cross(v, [float(i == k) for i in range(3)]))
    u2 = _cross(v, u1)
    t11, t12, t22 = (_dot(x, [_dot(row, y) for row in b]) for x, y in
                     ((u1, u1), (u1, u2), (u2, u2)))
    mean, rad = 0.5 * (t11 + t22), math.hypot(0.5 * (t11 - t22), t12)
    return tuple(q + p * lam for lam in sorted((s, mean - rad, mean + rad)))


# ---------------------------------------------------------------------------
# operator specs


@dataclass(frozen=True)
class EllipticityBounds:
    """Ellipticity sandwich constants 0 < a <= A."""

    a: float
    A: float

    def __post_init__(self):
        if not (0.0 < self.a <= self.A):
            raise OutOfRange(f"need 0 < a <= A, got a={self.a}, A={self.A}")


@dataclass(frozen=True)
class ScaledTrace:
    """F(M) = a * tr(M); the linear representative (a = A)."""

    coefficient: float = 1.0
    kind: str = field(default="trace", init=False)

    def __post_init__(self):
        if self.coefficient <= 0.0:
            raise OutOfRange("trace coefficient must be positive")

    @property
    def bounds(self) -> EllipticityBounds:
        return EllipticityBounds(self.coefficient, self.coefficient)


@dataclass(frozen=True)
class PucciPlus:
    """Maximal operator: A * sum(lam+) - a * sum(lam-)."""

    bounds: EllipticityBounds
    kind: str = field(default="pucci+", init=False)


@dataclass(frozen=True)
class PucciMinus:
    """Minimal operator: a * sum(lam+) - A * sum(lam-)."""

    bounds: EllipticityBounds
    kind: str = field(default="pucci-", init=False)


@dataclass(frozen=True)
class BellmanMax:
    """F(M) = max over a finite family of tr(Q M), each Q with spectrum in [a, A]."""

    matrices: tuple  # tuple of SymMatrix, all same dimension
    bounds: EllipticityBounds
    kind: str = field(default="bellman-max", init=False)

    def __post_init__(self):
        if len(self.matrices) == 0:
            raise OutOfRange("bellman-max needs at least one diffusion matrix")
        dims = {q.dim for q in self.matrices}
        if len(dims) != 1:
            raise DimensionMismatch("all diffusion matrices must share a dimension")

    @property
    def dim(self) -> int:
        return self.matrices[0].dim


OperatorSpec = ScaledTrace | PucciPlus | PucciMinus | BellmanMax


def eval_operator(spec: OperatorSpec, m: SymMatrix) -> float:
    """Evaluate F(M) for the given spec."""
    if isinstance(spec, ScaledTrace):
        return spec.coefficient * m.trace()
    if isinstance(spec, (PucciPlus, PucciMinus)):
        a, big_a = spec.bounds.a, spec.bounds.A
        lams = m.eigenvalues()
        pos = sum(lam for lam in lams if lam > 0.0)
        neg = sum(-lam for lam in lams if lam < 0.0)
        if isinstance(spec, PucciPlus):
            return big_a * pos - a * neg
        return a * pos - big_a * neg
    if isinstance(spec, BellmanMax):
        if spec.dim != m.dim:
            raise DimensionMismatch(
                f"operator dimension {spec.dim} vs matrix dimension {m.dim}"
            )
        arr = m.to_array()
        return max(float(np.tensordot(q.to_array(), arr)) for q in spec.matrices)
    raise TypeError(f"unknown operator spec: {spec!r}")


# ---------------------------------------------------------------------------
# vectorized kernels used by the grid solver


def eval_second_derivative_1d(spec: OperatorSpec, t: np.ndarray) -> np.ndarray:
    """F applied to 1x1 matrices (t) elementwise."""
    t = np.asarray(t, dtype=float)
    if isinstance(spec, ScaledTrace):  # the hot path of the 1D trace solves
        return spec.coefficient * t
    return policy_1d(spec, t) * t


def policy_1d(spec: OperatorSpec, t: np.ndarray) -> np.ndarray:
    """Slope of F(t) at each t: the Howard policy of F on 1x1 matrices.

    F is positively 1-homogeneous, so F(t) = policy_1d(spec, t) * t; the
    branch is chosen by the sign of t (the t <= 0 branch at t = 0).
    """
    t = np.asarray(t, dtype=float)
    if isinstance(spec, ScaledTrace):
        return np.full(t.shape, spec.coefficient)
    if isinstance(spec, PucciPlus):
        return np.where(t > 0.0, spec.bounds.A, spec.bounds.a)
    if isinstance(spec, PucciMinus):
        return np.where(t > 0.0, spec.bounds.a, spec.bounds.A)
    if isinstance(spec, BellmanMax):
        qs = [q.upper[0] for q in spec.matrices]
        return np.where(t > 0.0, max(qs), min(qs))
    raise TypeError(f"unknown operator spec: {spec!r}")


def eval_hessian_2d(
    spec: OperatorSpec, txx: np.ndarray, txy: np.ndarray, tyy: np.ndarray
) -> np.ndarray:
    """F applied elementwise to 2x2 symmetric matrices given by components.

    F is positively 1-homogeneous, so F(M) = tr(C M) with C = policy_2d(M)
    (Euler's identity), as `eval_second_derivative_1d` takes it in 1D.
    """
    txx = np.asarray(txx, dtype=float)
    txy = np.asarray(txy, dtype=float)
    tyy = np.asarray(tyy, dtype=float)
    if isinstance(spec, ScaledTrace):  # the hot path of the 2D trace solves
        return spec.coefficient * (txx + tyy)
    cxx, cxy, cyy = policy_2d(spec, txx, txy, tyy)
    return cxx * txx + 2.0 * cxy * txy + cyy * tyy


def policy_2d(
    spec: OperatorSpec, txx: np.ndarray, txy: np.ndarray, tyy: np.ndarray
) -> tuple:
    """dF/dM at 2x2 symmetric matrices given by components: the Howard policy.

    Returns the entries (cxx, cxy, cyy) of the symmetric matrix C with
    F(M) = tr(C M) = cxx txx + 2 cxy txy + cyy tyy.  The trace gives
    (a, 0, a); Pucci gives sum_i w(lam_i) e_i e_i^T with w the extremal
    weight of the sign of lam_i; Bellman gives the maximising Q (the first
    one on ties).
    """
    txx = np.asarray(txx, dtype=float)
    txy = np.asarray(txy, dtype=float)
    tyy = np.asarray(tyy, dtype=float)
    if isinstance(spec, ScaledTrace):
        coef = np.full(txx.shape, spec.coefficient)
        return coef, np.zeros(txx.shape), coef
    if isinstance(spec, (PucciPlus, PucciMinus)):
        a, big_a = spec.bounds.a, spec.bounds.A
        w_pos, w_neg = (big_a, a) if isinstance(spec, PucciPlus) else (a, big_a)
        mean = 0.5 * (txx + tyy)
        half = 0.5 * (txx - tyy)
        rad = np.hypot(half, txy)
        w_hi = np.where(mean + rad > 0.0, w_pos, w_neg)
        w_lo = np.where(mean - rad > 0.0, w_pos, w_neg)
        # e_hi e_hi^T = I/2 + (M - mean I)/(2 rad); I/2 for a repeated eigenvalue
        s = np.where(rad > 0.0, 0.5 / np.where(rad > 0.0, rad, 1.0), 0.0)
        jump = w_hi - w_lo
        return (w_lo + jump * (0.5 + half * s), jump * txy * s,
                w_lo + jump * (0.5 - half * s))
    if isinstance(spec, BellmanMax):
        if spec.dim != 2:
            raise DimensionMismatch("bellman-max dimension is not 2")
        best = coefs = None
        for q in spec.matrices:
            q00, q01, q11 = q.upper
            v = q00 * txx + 2.0 * q01 * txy + q11 * tyy
            if best is None:
                best, coefs = v, [np.full(v.shape, c) for c in (q00, q01, q11)]
                continue
            take = v > best
            best = np.where(take, v, best)
            coefs = [np.where(take, c, old) for c, old in zip((q00, q01, q11), coefs)]
        return tuple(coefs)
    raise TypeError(f"unknown operator spec: {spec!r}")


# ---------------------------------------------------------------------------
# verification harness


@dataclass(frozen=True)
class CheckReport:
    """Pass/fail tally of a randomized operator check."""

    name: str
    trials: int
    passes: int
    failures: int
    worst_margin: float

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "trials": self.trials,
            "passes": self.passes,
            "failures": self.failures,
            "worst_margin": self.worst_margin,
        }


def _random_sym(rng: np.random.Generator, dim: int) -> SymMatrix:
    g = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return SymMatrix.from_array(0.5 * (g + g.T))


def _random_psd(rng: np.random.Generator, dim: int) -> SymMatrix:
    g = rng.uniform(-1.0, 1.0, size=(dim, dim))
    return SymMatrix.from_array(g.T @ g)


def _spec_dims(spec: OperatorSpec) -> tuple:
    if isinstance(spec, BellmanMax):
        return (spec.dim,)
    return (1, 2, 3)


def check_uniform_ellipticity(
    spec: OperatorSpec, trials: int, rng_seed: int
) -> CheckReport:
    """Sample random (M, N >= 0) pairs and test the ellipticity sandwich.

    Checks a*tr(N) - tol <= F(M+N) - F(M) <= A*tr(N) + tol with
    tol = 1e-9 * (1 + |tr N|).
    """
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    dims = _spec_dims(spec)
    a, big_a = spec.bounds.a, spec.bounds.A
    passes = 0
    worst = math.inf
    for k in range(trials):
        dim = dims[k % len(dims)]
        m = _random_sym(rng, dim)
        n = _random_psd(rng, dim)
        trn = n.trace()
        tol = 1e-9 * (1.0 + abs(trn))
        diff = eval_operator(spec, SymMatrix.from_array(m.to_array() + n.to_array()))
        diff -= eval_operator(spec, m)
        lo_margin = diff - (a * trn - tol)
        hi_margin = (big_a * trn + tol) - diff
        margin = min(lo_margin, hi_margin)
        worst = min(worst, margin)
        if margin >= 0.0:
            passes += 1
    return CheckReport(
        name=f"uniform-ellipticity[{spec.kind}]",
        trials=trials,
        passes=passes,
        failures=trials - passes,
        worst_margin=worst,
    )


def check_homogeneity(spec: OperatorSpec, trials: int, rng_seed: int) -> CheckReport:
    """Sample random M and t > 0 and test |F(tM) - t F(M)| <= 1e-9 (1 + |t F(M)|)."""
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    dims = _spec_dims(spec)
    passes = 0
    worst = math.inf
    for k in range(trials):
        dim = dims[k % len(dims)]
        m = _random_sym(rng, dim)
        t = rng.uniform(0.01, 10.0)
        fm = eval_operator(spec, m)
        ftm = eval_operator(spec, SymMatrix.from_array(t * m.to_array()))
        tol = 1e-9 * (1.0 + abs(t * fm))
        margin = tol - abs(ftm - t * fm)
        worst = min(worst, margin)
        if margin >= 0.0:
            passes += 1
    return CheckReport(
        name=f"homogeneity[{spec.kind}]",
        trials=trials,
        passes=passes,
        failures=trials - passes,
        worst_margin=worst,
    )
