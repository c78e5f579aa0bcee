"""Operator evaluation: trace, Pucci extremal pair, Bellman max."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergopde import (
    BellmanMax,
    DegenerateOperator,
    DimensionMismatch,
    EllipticityBounds,
    OutOfRange,
    PucciMinus,
    PucciPlus,
    ScaledTrace,
    SymMatrix,
    check_homogeneity,
    check_uniform_ellipticity,
    eval_operator,
)
from ergopde.operators import eval_hessian_2d, policy_2d

BOUNDS = EllipticityBounds(1.0, 2.5)
# v v^T has the double eigenvalue 0, where Cardano's formula for the pair
# missed the homogeneity tolerance by up to 3x
_V = np.array([-0.17364534, 1.00683066, 0.23782289])
RANK_ONE = SymMatrix.from_array(np.outer(_V, _V))


def sym(arr):
    return SymMatrix.from_array(np.asarray(arr, dtype=float))


def random_sym(dim):
    return arrays(np.float64, (dim, dim),
                  elements=st.floats(min_value=-5.0, max_value=5.0)) \
        .map(lambda m: sym(0.5 * (m + m.T)))


class TestSymMatrix:
    def test_from_array_symmetrizes(self):
        m = SymMatrix.from_array(np.array([[0.0, 1.0], [0.5, 0.0]]))
        arr = m.to_array()
        assert arr[0, 1] == pytest.approx(0.75)
        assert np.allclose(arr, arr.T)

    def test_rejects_nonsquare(self):
        with pytest.raises(DimensionMismatch):
            SymMatrix.from_array(np.zeros((2, 3)))

    def test_eigenvalues_diagonal(self):
        m = sym(np.diag([3.0, -1.0]))
        assert sorted(m.eigenvalues()) == pytest.approx([-1.0, 3.0])

    def test_trace(self):
        assert sym([[1.0, 2.0], [2.0, 4.0]]).trace() == pytest.approx(5.0)

    @pytest.mark.parametrize("spectrum", [
        (0.0, 0.0, 1.1), (-2.0, 1.0, 1.0), (-1.0, -1.0, 3.0),
        (1.0, 1.0 + 1e-9, 4.0), (2.0, 2.0, 2.0 + 1e-12), (-5.0, 1e-7, 2e-7),
    ])
    def test_eigenvalues_3x3_near_repeated(self, spectrum):
        # where two eigenvalues (nearly) coincide, acos in Cardano's formula
        # halves the digits; every eigenvalue must keep full precision
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        m = sym(q @ np.diag(spectrum) @ q.T)
        ref = np.linalg.eigvalsh(m.to_array())
        assert np.abs(np.array(m.eigenvalues()) - ref).max() \
            <= 1e-14 * np.abs(ref).max()


class TestEval:
    def test_trace_operator(self):
        m = sym([[2.0, 0.0], [0.0, -3.0]])
        assert eval_operator(ScaledTrace(), m) == pytest.approx(-1.0)
        assert eval_operator(ScaledTrace(2.0), m) == pytest.approx(-2.0)

    def test_pucci_plus_splits_spectrum(self):
        # A * sum(lam+) - a * sum(lam-) with lam = (2, -3): 2.5*2 - 1*3 = 2
        m = sym(np.diag([2.0, -3.0]))
        assert eval_operator(PucciPlus(BOUNDS), m) == pytest.approx(2.0)

    def test_pucci_minus_splits_spectrum(self):
        # a * sum(lam+) - A * sum(lam-): 1*2 - 2.5*3 = -5.5
        m = sym(np.diag([2.0, -3.0]))
        assert eval_operator(PucciMinus(BOUNDS), m) == pytest.approx(-5.5)

    def test_bellman_max_takes_maximum(self):
        spec = BellmanMax(
            matrices=(sym(np.diag([1.0, 2.0])), sym(np.diag([2.0, 1.0]))),
            bounds=BOUNDS,
        )
        m = sym(np.diag([1.0, 0.0]))
        # tr(Q1 M) = 1, tr(Q2 M) = 2
        assert eval_operator(spec, m) == pytest.approx(2.0)

    @settings(max_examples=100, deadline=None)
    @given(random_sym(2))
    def test_pucci_duality(self, m):
        neg = sym(-m.to_array())
        lhs = eval_operator(PucciMinus(BOUNDS), m)
        rhs = -eval_operator(PucciPlus(BOUNDS), neg)
        assert lhs == pytest.approx(rhs, abs=1e-12 * (1.0 + abs(rhs)))

    @settings(max_examples=100, deadline=None)
    @given(random_sym(2))
    def test_pucci_sandwich(self, m):
        # the unit trace (a = A = 1) is admissible for bounds (1, 2.5), so
        # PucciMinus <= tr <= PucciPlus must hold sample-wise
        lo = eval_operator(PucciMinus(BOUNDS), m)
        hi = eval_operator(PucciPlus(BOUNDS), m)
        mid = eval_operator(ScaledTrace(), m)
        tol = 1e-12 * (1.0 + abs(hi) + abs(lo))
        assert lo <= mid + tol
        assert mid <= hi + tol

    @settings(max_examples=100, deadline=None)
    @given(random_sym(3), st.floats(min_value=0.01, max_value=10.0))
    @example(RANK_ONE, 3.0)
    def test_positive_homogeneity(self, m, t):
        for spec in (ScaledTrace(), PucciPlus(BOUNDS), PucciMinus(BOUNDS)):
            fm = eval_operator(spec, m)
            ftm = eval_operator(spec, sym(t * m.to_array()))
            assert ftm == pytest.approx(t * fm, abs=1e-9 * (1.0 + abs(t * fm)))


class TestPolicy2D:
    """The Howard policy C = dF/dM of the 2D kernels."""

    SPECS = (
        ScaledTrace(1.5),
        PucciPlus(BOUNDS),
        PucciMinus(BOUNDS),
        BellmanMax(matrices=(sym(np.diag([1.0, 2.0])), sym(np.diag([2.0, 1.0])),
                             sym([[1.5, 0.25], [0.25, 1.5]])), bounds=BOUNDS),
    )

    @pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
    def test_euler_identity_and_derivative(self, spec):
        # F(M) = tr(C M) (1-homogeneity), and C is the derivative of F:
        # central differences in (txx, txy, tyy) give (cxx, 2 cxy, cyy)
        rng = np.random.default_rng(11)
        txx, txy, tyy = rng.uniform(-2.0, 2.0, size=(3, 200))
        # two repeated eigenvalues: M = I and M = 0
        txx[:2], txy[:2], tyy[:2] = (1.0, 0.0), (0.0, 0.0), (1.0, 0.0)
        cxx, cxy, cyy = policy_2d(spec, txx, txy, tyy)
        fval = eval_hessian_2d(spec, txx, txy, tyy)
        np.testing.assert_allclose(cxx * txx + 2.0 * cxy * txy + cyy * tyy, fval,
                                   rtol=1e-12, atol=1e-12)
        # C has its spectrum in [a, A]
        mean, rad = 0.5 * (cxx + cyy), np.hypot(0.5 * (cxx - cyy), cxy)
        assert (mean - rad >= spec.bounds.a - 1e-12).all()
        assert (mean + rad <= spec.bounds.A + 1e-12).all()
        step = 1e-7
        for comp, want in ((0, cxx), (1, 2.0 * cxy), (2, cyy)):
            up = [txx, txy, tyy]
            dn = [txx, txy, tyy]
            up[comp] = up[comp] + step
            dn[comp] = dn[comp] - step
            fd = (eval_hessian_2d(spec, *up) - eval_hessian_2d(spec, *dn)) / (2 * step)
            # no seeded sample lies within the step of a policy switch
            np.testing.assert_allclose(fd[2:], want[2:], atol=1e-6)


class TestChecks:
    @pytest.mark.parametrize("spec", [
        ScaledTrace(),
        PucciPlus(BOUNDS),
        PucciMinus(BOUNDS),
        BellmanMax(matrices=(sym(np.diag([1.0, 2.0])), sym(np.diag([2.0, 1.0]))),
                   bounds=BOUNDS),
    ], ids=lambda s: s.kind)
    def test_suites_pass_completely(self, spec):
        for checker in (check_uniform_ellipticity, check_homogeneity):
            report = checker(spec, trials=300, rng_seed=7)
            assert report.failures == 0
            assert report.passes == 300
            assert report.all_passed

    def test_checks_reject_zero_trials(self):
        with pytest.raises(OutOfRange):
            check_homogeneity(ScaledTrace(), trials=0, rng_seed=0)

    def test_reports_are_seed_reproducible(self):
        a = check_uniform_ellipticity(PucciPlus(BOUNDS), trials=50, rng_seed=3)
        b = check_uniform_ellipticity(PucciPlus(BOUNDS), trials=50, rng_seed=3)
        assert a.to_dict() == b.to_dict()


class TestValidation:
    def test_bounds_ordering_enforced(self):
        with pytest.raises(OutOfRange):
            EllipticityBounds(2.0, 1.0)

    def test_trace_coefficient_positive(self):
        with pytest.raises(OutOfRange):
            ScaledTrace(0.0)

    def test_bellman_needs_matrices(self):
        with pytest.raises(OutOfRange):
            BellmanMax(matrices=(), bounds=BOUNDS)
