"""Uniformly elliptic, positively 1-homogeneous second-order operators.

The operators act on symmetric matrices of dimension 1, 2 or 3 and come in
four flavours: a scaled trace, the two extremal (maximal / minimal)
operators with ellipticity bounds (a, A), and a max over a finite family of
linear diffusions.  `eval_operator` evaluates F on one matrix and backs
the randomized property checks; the solver goes through the vectorized
kernels `policy_1d` and `policy_2d`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

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
        return float(np.trace(self.to_array()))

    def eigenvalues(self) -> np.ndarray:
        """Eigenvalues in ascending order."""
        return np.linalg.eigvalsh(self.to_array())


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
        lams = m.eigenvalues().tolist()
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


def eval_second_derivative_1d(spec: OperatorSpec, t: np.ndarray,
                              policy=None) -> np.ndarray:
    """F applied to 1x1 matrices (t) elementwise; `policy` is policy_1d at t, if known."""
    t = np.asarray(t, dtype=float)
    if isinstance(spec, ScaledTrace):  # the hot path of the 1D trace solves
        return spec.coefficient * t
    return (policy_1d(spec, t) if policy is None else policy) * t


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
    spec: OperatorSpec, txx: np.ndarray, txy: np.ndarray, tyy: np.ndarray, policy=None
) -> np.ndarray:
    """F applied elementwise to 2x2 symmetric matrices given by components.

    F is positively 1-homogeneous, so F(M) = tr(C M) with C = policy_2d(M)
    (Euler's identity), as `eval_second_derivative_1d` takes it in 1D;
    `policy` is that C, if known.
    """
    txx = np.asarray(txx, dtype=float)
    txy = np.asarray(txy, dtype=float)
    tyy = np.asarray(tyy, dtype=float)
    if isinstance(spec, ScaledTrace):  # the hot path of the 2D trace solves
        return spec.coefficient * (txx + tyy)
    cxx, cxy, cyy = policy_2d(spec, txx, txy, tyy) if policy is None else policy
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
    worst_margin: float  # >= 0 exactly when every trial passed

    @property
    def all_passed(self) -> bool:
        return self.failures == 0

    def to_dict(self) -> dict:
        return asdict(self)


def _tally(name: str, trials: int, rng_seed: int, dims: tuple, margin) -> CheckReport:
    """Run margin(rng, dim) once per trial, cycling through dims.

    A trial passes when its margin is >= 0; the worst margin is the smallest
    (NaN if any margin is NaN, which then also counts as a failure).
    """
    if trials < 1:
        raise OutOfRange("trials must be >= 1")
    rng = np.random.default_rng(rng_seed)
    margins = np.array([margin(rng, dims[k % len(dims)]) for k in range(trials)])
    passes = int((margins >= 0.0).sum())
    return CheckReport(name, trials, passes, trials - passes, float(margins.min()))


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
    a, big_a = spec.bounds.a, spec.bounds.A

    def margin(rng, dim):
        m = _random_sym(rng, dim)
        n = _random_psd(rng, dim)
        trn = n.trace()
        tol = 1e-9 * (1.0 + abs(trn))
        diff = eval_operator(spec, SymMatrix.from_array(m.to_array() + n.to_array()))
        diff -= eval_operator(spec, m)
        return min(diff - (a * trn - tol), (big_a * trn + tol) - diff)

    return _tally(f"uniform-ellipticity[{spec.kind}]", trials, rng_seed,
                  _spec_dims(spec), margin)


def check_homogeneity(spec: OperatorSpec, trials: int, rng_seed: int) -> CheckReport:
    """Sample random M and t > 0 and test |F(tM) - t F(M)| <= 1e-9 (1 + |t F(M)|)."""

    def margin(rng, dim):
        m = _random_sym(rng, dim)
        t = rng.uniform(0.01, 10.0)
        fm = eval_operator(spec, m)
        ftm = eval_operator(spec, SymMatrix.from_array(t * m.to_array()))
        return 1e-9 * (1.0 + abs(t * fm)) - abs(ftm - t * fm)

    return _tally(f"homogeneity[{spec.kind}]", trials, rng_seed, _spec_dims(spec),
                  margin)


def check_pucci_duality(
    bounds: EllipticityBounds, trials: int, rng_seed: int
) -> CheckReport:
    """Sample standard-normal symmetric M and test M-(M) = -M+(-M).

    Checks |M-(M) + M+(-M)| <= 1e-12 (1 + |M+(-M)|) in dimensions 1, 2, 3.
    """
    plus, minus = PucciPlus(bounds), PucciMinus(bounds)

    def margin(rng, dim):
        g = rng.standard_normal((dim, dim))
        m = SymMatrix.from_array(0.5 * (g + g.T))
        plus_neg = eval_operator(plus, SymMatrix.from_array(-m.to_array()))
        return 1e-12 * (1.0 + abs(plus_neg)) - abs(eval_operator(minus, m) + plus_neg)

    return _tally("pucci-duality", trials, rng_seed, (1, 2, 3), margin)
