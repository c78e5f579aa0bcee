"""Closed forms, shooting, the ergodic-constant root search, profile fitting."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from ergopde import (
    BracketFailure,
    ExponentPair,
    InsufficientSpan,
    InvalidRegime,
    OutOfRange,
    ScalarField,
    blowup_profile_fit,
    ergodic_constant_1d,
    exact_dirichlet_1d,
    shoot_blowup,
)
from ergopde import oracle1d
from conftest import COSINE_C, POWER_C

ZERO = ScalarField.constant(0.0, 1)
EP_LOG = ExponentPair(0.0, 2.0)
EP_POWER = ExponentPair(0.0, 1.5)


class TestExactDirichlet:
    def test_alpha_one_value_at_zero(self):
        u = exact_dirichlet_1d(1.0, 1.0)
        assert u.value_at_zero == pytest.approx(2.0 * np.sqrt(2.0) / 3.0)
        assert u(0.0) == pytest.approx(u.value_at_zero)

    def test_boundary_values_vanish(self):
        u = exact_dirichlet_1d(-0.5, 2.0)
        assert u(np.array([-1.0, 1.0])) == pytest.approx([0.0, 0.0])

    def test_exponent(self):
        # |x|^((2+alpha)/(1+alpha))
        assert exact_dirichlet_1d(1.0, 1.0).exponent == pytest.approx(1.5)

    def test_alpha_zero_is_parabola(self):
        u = exact_dirichlet_1d(0.0, 2.0)
        xs = np.linspace(-1, 1, 11)
        assert u(xs) == pytest.approx(1.0 - xs**2)

    def test_rejects_bad_arguments(self):
        with pytest.raises(OutOfRange):
            exact_dirichlet_1d(-1.0, 1.0)
        with pytest.raises(OutOfRange):
            exact_dirichlet_1d(0.0, -1.0)


class TestShooting:
    def test_cosine_blowup_location(self):
        # alpha=0, beta=2, f+c = c: p' = |c| + p^2, blow-up of u at
        # x* = (pi/2) / sqrt(|c|)
        for c in (-1.0, -2.0):
            x_star = shoot_blowup(EP_LOG, c, ZERO)
            assert x_star == pytest.approx(0.5 * np.pi / np.sqrt(-c), rel=1e-8)

    def test_threshold_crossing(self):
        # x*(c) < 1 below the interval threshold, > 1 above it
        assert shoot_blowup(EP_LOG, COSINE_C - 0.05, ZERO) < 1.0
        assert shoot_blowup(EP_LOG, COSINE_C + 0.05, ZERO) > 1.0

    @pytest.mark.parametrize("alpha, beta, a", [
        (-0.5, 0.9, 0.5), (-0.5, 1.5, 2.0), (1.0, 2.4, 0.5), (1.0, 3.0, 2.0),
    ])
    @pytest.mark.parametrize("c", [-0.5, -3.0])
    def test_closed_form_blowup_location(self, alpha, beta, a, c):
        # f = 0, m = -c: x* = int_0^inf a p^alpha / (p^beta + m) dp
        #               = a m^((alpha+1-beta)/beta) pi / (beta sin(pi (alpha+1)/beta))
        m = -c
        closed = (a * m ** ((alpha + 1.0 - beta) / beta) * math.pi
                  / (beta * math.sin(math.pi * (alpha + 1.0) / beta)))
        x_star = shoot_blowup(ExponentPair(alpha, beta), c, ZERO, a)
        assert abs(x_star - closed) <= 1e-10 * closed

    def test_requires_negative_forcing(self):
        with pytest.raises(InvalidRegime):
            shoot_blowup(EP_LOG, 1.0, ZERO)

    def test_forcing_error_reaches_the_caller(self):
        # f is read on [0, 1] only, where the margin scan checks it on 4,001
        # nodes; this f + c < 0 on those nodes, but f is NaN at the points
        # past x = 0.5 that the integration evaluates one at a time, a stand-in
        # for a NaN between the scan's nodes
        f = ScalarField(lambda x: -1.0 if np.ndim(x) or x < 0.5 else math.nan, 1)
        with pytest.raises(OutOfRange, match="non-finite"):
            shoot_blowup(EP_LOG, 0.5, f)


class TestIntegrator:
    @staticmethod
    def capped(rhs, limit=100_000):
        """rhs that fails the test instead of looping without end."""
        calls = [0]

        def wrapped(t, y):
            calls[0] += 1
            assert calls[0] <= limit, "the integrator does not stop"
            return rhs(t, y)

        return wrapped

    def test_exponential(self):
        y = oracle1d._dop853(self.capped(lambda t, y: y), 0.0, 1.0, 1.0)
        assert abs(y - math.e) <= 1e-10 * math.e

    @pytest.mark.parametrize("rhs", [
        lambda t, y: math.nan,  # a NaN slope from the first call: a NaN first step
        lambda t, y: math.nan if t > 0.5 else 1.0,  # NaN error estimates mid-way
    ], ids=["nan-everywhere", "nan-past-half"])
    def test_nan_slope_is_invalid_regime(self, rhs):
        with pytest.raises(InvalidRegime, match="collapsed"):
            oracle1d._dop853(self.capped(rhs), 0.0, 2.0, 1.0)

    def test_blowup_collapses_the_step(self):
        # y' = y^2, y(0) = 1 blows up at t = 1
        with pytest.raises(InvalidRegime, match="collapsed"):
            oracle1d._dop853(self.capped(lambda t, y: y * y), 0.0, 2.0, 1.0)


class TestErgodicConstant:
    def test_log_case_reference_value(self):
        t0 = time.monotonic()
        c, report = ergodic_constant_1d(EP_LOG, ZERO)
        elapsed = time.monotonic() - t0
        assert abs(c - COSINE_C) < 1e-6
        assert elapsed < 5.0
        assert report["bracket"][0] <= c <= report["bracket"][1]

    def test_power_case_reference_value(self):
        # pinned closed form -(4 pi / (3 sqrt 3))^3
        c, _ = ergodic_constant_1d(EP_POWER, ZERO)
        assert abs(c - POWER_C) < 1e-6

    @settings(max_examples=5, deadline=None)
    @given(st.floats(min_value=-2.0, max_value=2.0))
    def test_shift_identity(self, shift):
        # replacing f by f + s shifts the constant by exactly -s
        base, _ = ergodic_constant_1d(EP_LOG, ZERO)
        shifted, _ = ergodic_constant_1d(EP_LOG, ScalarField.constant(shift, 1))
        assert shifted == pytest.approx(base - shift, abs=1e-8)

    def test_nonconstant_forcing_brackets(self):
        f = ScalarField.from_expression("0.5*cos(3.0*x)", dim=1)
        c, report = ergodic_constant_1d(EP_LOG, f)
        # constant-comparison bounds: c_erg(max f) <= c <= c_erg(min f)
        assert COSINE_C - 0.5 <= c <= COSINE_C + 0.5

    def test_forcing_that_rises_beyond_the_domain(self):
        # f = 0.3 x^2: the first shot, at c = -1.3, blows up beyond x ~ 2.08,
        # where f + c turns positive; f is read on [0, 1] only, so the shot
        # goes on with f(1) and ends instead of collapsing its step
        exponents = ExponentPair(-0.5, 1.5)
        f = ScalarField.from_expression("0.3*x**2", dim=1)
        assert shoot_blowup(exponents, -1.3, f, 2.0) > 2.0
        c, report = ergodic_constant_1d(exponents, f, trace_coefficient=2.0)
        c0, _ = ergodic_constant_1d(exponents, ZERO, trace_coefficient=2.0)
        # constant-comparison bounds: c_erg(max f) <= c <= c_erg(min f)
        assert c0 - 0.3 <= c <= c0
        assert c == pytest.approx(-10.69279, abs=1e-5)
        assert report["evaluations"] <= 5

    @pytest.mark.parametrize("alpha, beta, a", [
        (-0.5, 0.9, 0.5), (-0.5, 1.5, 2.0), (1.0, 2.4, 0.5), (1.0, 3.0, 2.0),
    ])
    def test_closed_form_across_exponents_and_trace(self, alpha, beta, a):
        # corners of alpha in [-0.5, 1], beta - alpha - 1 in [0.4, 1], a in
        # [0.5, 2]; f = 0 has c = -[a pi / (beta sin(pi (alpha+1)/beta))]
        # ^ (beta / (beta - alpha - 1))
        closed = -(a * np.pi / (beta * np.sin(np.pi * (alpha + 1.0) / beta))) ** (
            beta / (beta - alpha - 1.0))
        exponents = ExponentPair(alpha, beta)
        c, report = ergodic_constant_1d(exponents, ZERO, trace_coefficient=a)
        assert abs(c - closed) <= 1e-9 * abs(closed)
        assert report["evaluations"] <= 3
        # the bracket is a sign change of log x*: x* <= 1 at its lower end
        # and x* > 1 at its upper end, so a bracket [c, c] fails
        lo, hi = report["bracket"]
        assert lo <= c <= hi
        x_lo, x_hi = (shoot_blowup(exponents, end, ZERO, a) for end in (lo, hi))
        assert math.log(x_lo) <= 0.0 < math.log(x_hi)

    def test_even_forcing_matches_hopf_cole_eigenvalue(self):
        # alpha = 0, beta = 2, a = 1: u = -log phi turns the ODE into
        # -phi'' + f phi = -c phi with phi(+-1) = 0, so c = -lambda_1
        f = ScalarField.from_expression("0.5*cos(3.0*x)", dim=1)
        c, _ = ergodic_constant_1d(EP_LOG, f)
        xs = np.linspace(-1.0, 1.0, 20001)[1:-1]
        h2 = (2.0 / 20000) ** 2
        lam = eigh_tridiagonal(2.0 / h2 + f(xs), np.full(xs.size - 1, -1.0 / h2),
                               eigvals_only=True, select="i", select_range=(0, 0))[0]
        assert abs(c + lam) < 1e-7

    def test_refuses_forcing_that_is_not_even(self):
        # shooting from x = 0 assumes f(-x) = f(x); 0.5 x would give -2.6156
        # against the Hopf-Cole eigenvalue -2.4630
        with pytest.raises(OutOfRange, match="even"):
            ergodic_constant_1d(EP_LOG, ScalarField.from_expression("0.5*x", dim=1))

    def test_no_sign_change_is_bracket_failure(self, monkeypatch):
        # x* = 2 whatever c is: log x* never changes sign
        shots = []

        def constant_blowup(*args, **kwargs):
            shots.append(args)
            return 2.0

        monkeypatch.setattr(oracle1d, "shoot_blowup", constant_blowup)
        with pytest.raises(BracketFailure, match="no sign change"):
            ergodic_constant_1d(EP_LOG, ZERO)
        assert 0 < len(shots) <= oracle1d._SEARCH_STEPS

    def test_unreachable_tol_is_bracket_failure(self):
        # the shooting resolves |x* - 1| to about 1e-13, not to 1e-300
        with pytest.raises(BracketFailure, match=r"\|x\* - 1\| = .* > 1\.0e-300"):
            ergodic_constant_1d(EP_LOG, ZERO, tol=1e-300)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, 0.0, float("inf")])
    def test_rejects_bad_tol_before_shooting(self, monkeypatch, tol):
        def no_shooting(*args, **kwargs):
            raise AssertionError("shot before tol was checked")

        monkeypatch.setattr(oracle1d, "shoot_blowup", no_shooting)
        with pytest.raises(OutOfRange, match="tol"):
            ergodic_constant_1d(EP_LOG, ZERO, tol=tol)


class TestProfileFit:
    def test_exact_power_law(self):
        d = np.geomspace(1e-3, 0.3, 24)
        vals = 4.0 * d**-1.0
        fit = blowup_profile_fit(d, vals, "power")
        assert fit["chi_hat"] == pytest.approx(1.0, abs=1e-10)
        assert fit["c_hat"] == pytest.approx(4.0, rel=1e-10)

    def test_exact_log_profile(self):
        d = np.geomspace(1e-4, 0.2, 30)
        vals = 1.5 * np.abs(np.log(d)) + 7.0
        fit = blowup_profile_fit(d, vals, "log")
        assert fit["c_hat"] == pytest.approx(1.5, rel=1e-10)

    def test_insufficient_samples(self):
        d = np.geomspace(1e-3, 0.3, 5)
        with pytest.raises(InsufficientSpan):
            blowup_profile_fit(d, 4.0 / d, "power")

    def test_insufficient_span(self):
        d = np.linspace(0.1, 0.15, 20)
        with pytest.raises(InsufficientSpan):
            blowup_profile_fit(d, 4.0 / d, "power")

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=0.2, max_value=4.0),
           st.floats(min_value=0.5, max_value=8.0))
    def test_power_fit_recovers_parameters(self, chi_true, c_true):
        d = np.geomspace(1e-3, 0.3, 20)
        fit = blowup_profile_fit(d, c_true * d**-chi_true, "power")
        assert fit["chi_hat"] == pytest.approx(chi_true, rel=1e-8)
        assert fit["c_hat"] == pytest.approx(c_true, rel=1e-8)

