"""Exponent bookkeeping, blow-up data, scalar fields, the CLI's instance reader."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergopde import (
    BellmanMax,
    Box,
    EllipticityBounds,
    ExponentPair,
    OutOfRange,
    PucciMinus,
    PucciPlus,
    ScalarField,
    ScaledTrace,
    SymMatrix,
    amplitude_C,
    chi,
    face_normals,
    rescale_residual_factor,
)
from ergopde.cli import _instance
from conftest import make_instance


# admissible exponents: alpha > -1, alpha + 1 < beta <= alpha + 2
admissible = st.tuples(
    st.floats(min_value=-0.9, max_value=3.0),
    st.floats(min_value=1e-3, max_value=1.0),
).map(lambda t: (t[0], t[0] + 1.0 + t[1]))


class TestExponents:
    def test_validate_accepts_admissible(self):
        ep = ExponentPair(0.0, 1.5)
        assert ep.alpha == 0.0 and ep.beta == 1.5

    @pytest.mark.parametrize("alpha,beta", [
        (-1.0, 1.5),   # alpha must exceed -1
        (0.0, 1.0),    # beta must exceed alpha + 1
        (0.0, 2.5),    # beta must not exceed alpha + 2
        (1.0, 2.0),    # beta = alpha + 1 is excluded
    ])
    def test_validate_rejects(self, alpha, beta):
        with pytest.raises(OutOfRange):
            ExponentPair(alpha, beta)

    def test_chi_power_case(self):
        # chi = (2 + alpha - beta) / (beta - 1 - alpha)
        assert chi(ExponentPair(0.0, 1.5)) == pytest.approx(1.0)
        assert chi(ExponentPair(1.0, 2.5)) == pytest.approx(1.0)
        assert chi(ExponentPair(0.0, 1.2)) == pytest.approx(4.0)

    def test_chi_log_case(self):
        assert chi(ExponentPair(0.0, 2.0)) == 0.0

    @settings(max_examples=100, deadline=None)
    @given(admissible)
    def test_chi_nonnegative_and_zero_only_at_border(self, ab):
        alpha, beta = ab
        ep = ExponentPair(alpha, beta)
        x = chi(ep)
        assert x >= 0.0
        if beta < alpha + 2.0 - 1e-9:
            assert x > 0.0


class TestAmplitude:
    def test_power_case_trace(self):
        # chi=1 instance: C = ((chi+1) F(n x n))^(1/(beta-alpha-1)) / chi
        # = (2 * 1)^(1/0.5) / 1 = 4 for the unit trace operator.
        c = amplitude_C(ScaledTrace(), (1.0,), ExponentPair(0.0, 1.5))
        assert c == pytest.approx(4.0)

    def test_log_case_trace(self):
        # chi=0: C = F(n x n) = 1 for unit trace.
        c = amplitude_C(ScaledTrace(), (1.0,), ExponentPair(0.0, 2.0))
        assert c == pytest.approx(1.0)

    def test_scaled_trace_coefficient_enters(self):
        c = amplitude_C(ScaledTrace(2.0), (1.0,), ExponentPair(0.0, 2.0))
        assert c == pytest.approx(2.0)

    def test_pucci_uses_rank_one_value(self):
        # F(n x n) for PucciPlus(a, A) on a unit normal is A.
        spec = PucciPlus(EllipticityBounds(1.0, 3.0))
        c = amplitude_C(spec, (0.0, 1.0), ExponentPair(0.0, 2.0))
        assert c == pytest.approx(3.0)

    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_b_enters_as_a_power(self, beta):
        # C b^(-1/(beta - alpha - 1)): the same float at b = 1, one value per
        # face value for an array, and no amplitude where b <= 0
        ep = ExponentPair(0.0, beta)
        c = amplitude_C(ScaledTrace(), (1.0,), ep)
        assert amplitude_C(ScaledTrace(), (1.0,), ep, 1.0) == c
        assert type(amplitude_C(ScaledTrace(), (1.0,), ep, 1.0)) is type(c)
        b = np.array([0.5, 2.0, 3.0])
        np.testing.assert_array_equal(amplitude_C(ScaledTrace(), (1.0,), ep, b),
                                      c * b ** (-1.0 / (beta - 1.0)))
        for bad in (0.0, -2.0, math.nan, np.array([1.0, 0.0])):
            with pytest.raises(OutOfRange, match="needs b > 0"):
                amplitude_C(ScaledTrace(), (1.0,), ep, bad)

    @pytest.mark.parametrize("spec, fnn", [
        (ScaledTrace(2.0), 2.0),
        (PucciPlus(EllipticityBounds(1.0, 3.0)), 3.0),
        (PucciMinus(EllipticityBounds(1.0, 3.0)), 1.0),
        (BellmanMax((SymMatrix.from_array(np.diag([1.0, 2.0])),
                     SymMatrix.from_array(np.array([[1.5, 0.25], [0.25, 1.5]]))),
                    EllipticityBounds(1.0, 2.0)), 1.5),
    ], ids=["trace", "pucci+", "pucci-", "bellman-max"])
    @pytest.mark.parametrize("beta", [1.5, 2.0])
    def test_factor_is_the_formula(self, spec, fnn, beta):
        # C = ((chi + 1) F(n (x) n))^(1/(beta-alpha-1)) / chi, times
        # b^(-1/(beta-alpha-1)), for every operator kind; b <= 0 is refused.
        # For the Bellman family F(n (x) n) on n = (1, 0) is max_Q Q_00 = 1.5
        ep = ExponentPair(0.0, beta)
        x, e = chi(ep), 1.0 / (beta - 1.0)
        unit = fnn if x == 0.0 else ((x + 1.0) * fnn) ** e / x
        b = np.array([0.5, 2.0])
        normal = np.array([1.0, 0.0]) if spec.kind != "trace" else (1.0,)
        assert amplitude_C(spec, normal, ep) == pytest.approx(unit, rel=1e-14)
        np.testing.assert_allclose(amplitude_C(spec, normal, ep, b), unit * b ** -e, rtol=1e-14)
        with pytest.raises(OutOfRange, match="needs b > 0"):
            amplitude_C(spec, normal, ep, np.array([1.0, 0.0]))

    @settings(max_examples=50, deadline=None)
    @given(admissible)
    def test_amplitude_positive(self, ab):
        ep = ExponentPair(*ab)
        assert amplitude_C(ScaledTrace(), (1.0,), ep) > 0.0


class TestRescaleFactor:
    def test_value(self):
        # delta^(beta / (beta - alpha - 1)) with beta=1.5, alpha=0 -> delta^3
        assert rescale_residual_factor(ExponentPair(0.0, 1.5), 0.5) == pytest.approx(0.125)

    @settings(max_examples=50, deadline=None)
    @given(admissible, st.floats(min_value=1e-3, max_value=1.0))
    def test_monotone_in_delta(self, ab, delta):
        ep = ExponentPair(*ab)
        assert rescale_residual_factor(ep, delta) <= rescale_residual_factor(ep, 1.0)

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(OutOfRange):
            rescale_residual_factor(ExponentPair(0.0, 1.5), 0.0)


class TestScalarField:
    def test_expression_evaluation(self):
        f = ScalarField.from_expression("sin(x) + 2", dim=1)
        assert f(np.array([0.0])) == pytest.approx([2.0])

    def test_constant_broadcasts(self):
        f = ScalarField.constant(3.0, dim=2)
        xs = np.zeros((4, 4))
        assert np.all(f(xs, xs) == 3.0)

    def test_constant_returns_fresh_arrays_and_a_float(self):
        f = ScalarField.constant(-1.5, dim=2)
        xs, ys = np.meshgrid(np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.0, 4))
        first, second = f(xs, ys), f(xs, ys)
        assert first.shape == second.shape == xs.shape
        first[0, 0] = 7.0
        assert np.all(second == -1.5) and np.all(f(xs, ys) == -1.5)
        assert f(0.2, 0.3).shape == ()
        value = f.at(0.2, 0.3)
        assert type(value) is float and value == -1.5

    def test_at_is_the_array_value_as_a_float(self):
        # x**0.5 on numpy operands, as in the array evaluation
        for f in (ScalarField.from_expression("0.5*cos(3.0*x)", dim=1),
                  ScalarField.from_expression("abs(x)**0.5 + x**2", dim=1),
                  ScalarField.constant(-2.0, dim=1)):
            for x in (-0.7, 0.3, 0.55):
                value = f.at(x)
                assert type(value) is float
                assert value == f(np.array([x]))[0]
        with pytest.raises(OutOfRange), np.errstate(divide="ignore"):
            ScalarField.from_expression("log(x)", dim=1).at(0.0)

    def test_expression_round_trip_through_config(self):
        inst = make_instance(0.0, 1.5, b="1", f="cos(x)")
        cfg = {"operator": {"kind": "trace", "a": 1.0}, "alpha": 0.0, "beta": 1.5,
               "b": "1", "f": "cos(x)", "domain": {"lo": [-1.0], "hi": [1.0]}}
        back = _instance({"instance": cfg})
        xs = np.linspace(-1.0, 1.0, 7)
        assert np.allclose(back.f(xs), np.cos(xs))
        assert np.allclose(back.b(xs), 1.0)
        assert back.exponents == inst.exponents
        assert back.operator == inst.operator and back.domain == inst.domain


class TestDomain:
    def test_face_normals_point_inward(self):
        normals = face_normals(Box((-1.0, 0.0), (1.0, 2.0)))
        assert np.allclose(normals["axis0_lo"], [1.0, 0.0])
        assert np.allclose(normals["axis1_hi"], [0.0, -1.0])
        assert set(face_normals(Box((-1.0,), (1.0,)))) == {"axis0_lo", "axis0_hi"}

    def test_shrunk_box(self):
        box = Box((-1.0,), (1.0,))
        inner = box.shrunk(0.5)
        assert inner.lo[0] == pytest.approx(-0.5)
        assert inner.hi[0] == pytest.approx(0.5)

    def test_shifted_f(self, monkeypatch):
        shift, xs = -2.7, np.linspace(-1.0, 1.0, 9)
        counted, calls = ScalarField.__call__, []
        monkeypatch.setattr(ScalarField, "__call__",
                            lambda field, *c: calls.append(field) or counted(field, *c))
        for f in (ScalarField.constant(0.3, dim=1), ScalarField.from_expression("1"),
                  ScalarField.from_expression("0.5*cos(3.0*x)")):
            inst = dataclasses.replace(make_instance(0.0, 1.5), f=f)
            shifted = inst.shifted_f(shift)
            assert shifted.b is inst.b and shifted.exponents == inst.exponents
            expected = f(xs) + shift
            calls.clear()
            values = shifted.f(xs)
            assert calls == [shifted.f]  # f + shift is one checked evaluation
            assert values.shape == xs.shape and np.array_equal(values, expected)
            assert shifted.f.at(0.3) == f.at(0.3) + shift
