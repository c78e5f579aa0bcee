"""Ladder estimation, asymptotic verification, uniqueness, zoom rescaling."""

import numpy as np
import pytest

from ergopde import (
    Box,
    EllipticityBounds,
    EquationInstance,
    ErgodicExperiment,
    ExponentPair,
    GridFunction,
    HypothesisViolated,
    OutOfRange,
    PucciPlus,
    ScalarField,
    ScaledTrace,
    UniformGrid,
    UnresolvedLayer,
    UnsupportedCase,
    check_uniqueness_hypotheses,
    estimate_ergodic_constant,
    rescaled_solution,
    solve_at,
    verify_blowup_profile,
    verify_gradient_rate,
    verify_uniqueness,
)
from conftest import (
    COSINE_C,
    POWER_C,
    INTERVAL,
    interval_grid,
    make_instance,
    synthetic_power_field,
)


def experiment(instance, n, ladder):
    return ErgodicExperiment(
        instance=instance, grid=interval_grid(n),
        ladder=ladder, probe_point=(0.0,),
    )


class TestExperimentValidation:
    def test_ladder_must_increase(self, cosine_instance):
        with pytest.raises(OutOfRange):
            experiment(cosine_instance, 101, (10.0, 5.0))

    def test_probe_must_be_interior(self, cosine_instance):
        with pytest.raises(OutOfRange):
            ErgodicExperiment(instance=cosine_instance, grid=interval_grid(101),
                              ladder=(5.0, 10.0), probe_point=(1.0,))


class TestEstimate:
    def test_cosine_constant_coarse(self, cosine_instance):
        exp = experiment(cosine_instance, 201, (10.0, 15.0, 20.0))
        c_est, report = estimate_ergodic_constant(exp, tol=0.05)
        assert abs(c_est - COSINE_C) / abs(COSINE_C) < 0.05
        lo, hi = report["bracket"]
        assert lo <= c_est <= hi

    def test_classification_monotone_in_c(self, cosine_instance):
        from ergopde.ergodic import _classify
        exp = experiment(cosine_instance, 201, (10.0, 15.0, 20.0))
        labels = [_classify(exp, c)[0]
                  for c in (-4.0, -3.0, COSINE_C - 0.2, COSINE_C + 0.2, -1.0)]
        # once "above" is reached, larger c stays "above"
        first_above = labels.index("above")
        assert all(lab == "above" for lab in labels[first_above:])
        assert all(lab == "below" for lab in labels[:first_above])

    def test_shift_identity(self, cosine_instance):
        exp0 = experiment(cosine_instance, 101, (8.0, 12.0))
        shifted = make_instance(0.0, 2.0, f="1")
        exp1 = experiment(shifted, 101, (8.0, 12.0))
        c0, _ = estimate_ergodic_constant(exp0, tol=0.05)
        c1, _ = estimate_ergodic_constant(exp1, tol=0.05)
        assert abs(c1 - (c0 - 1.0)) <= 2 * 0.05


class TestProfileVerification:
    def test_synthetic_exact_power_profile(self, power_instance):
        # u = C d^-chi exactly: the fit must recover chi and C
        exp = experiment(power_instance, 801, (10.0, 20.0))
        u = synthetic_power_field(exp.grid, chi=1.0, amplitude=4.0)
        report = verify_blowup_profile(exp, POWER_C, u=u)
        assert report["max_chi_error"] < 1e-6
        assert report["max_c_rel_error"] < 1e-6

    def test_synthetic_gradient_rate(self, power_instance):
        exp = experiment(power_instance, 801, (10.0, 20.0))
        u = synthetic_power_field(exp.grid, chi=1.0, amplitude=4.0)
        report = verify_gradient_rate(exp, u)
        # target is -chi = -1; stencil error only
        assert report["target"] == -1.0
        assert report["max_deviation"] < 5e-2

    def test_too_few_layer_shells(self, power_instance):
        exp = ErgodicExperiment(
            instance=power_instance, grid=interval_grid(11),
            ladder=(5.0, 10.0), probe_point=(0.0,),
        )
        u = synthetic_power_field(exp.grid, chi=1.0, amplitude=4.0)
        with pytest.raises(UnresolvedLayer):
            verify_blowup_profile(exp, POWER_C, u=u)

    def test_log_case_nonlinear_operator_unsupported(self):
        inst = EquationInstance(
            operator=PucciPlus(EllipticityBounds(1.0, 2.0)),
            exponents=ExponentPair(0.0, 2.0),
            b=ScalarField.constant(1.0, 1),
            f=ScalarField.constant(0.0, 1),
            domain=INTERVAL,
        )
        exp = experiment(inst, 201, (5.0, 10.0))
        u = GridFunction(exp.grid, np.zeros(201))
        with pytest.raises(UnsupportedCase):
            verify_gradient_rate(exp, u)


class TestUniqueness:
    def test_constant_shift_has_zero_deviation(self, cosine_instance):
        exp = experiment(cosine_instance, 201, (8.0, 12.0))
        report = verify_uniqueness(exp, COSINE_C + 0.1)
        assert report["max_deviation"] <= 1e-8

    def test_nonconstant_difference_is_detected(self, cosine_instance, monkeypatch):
        # a non-constant bump of 0.05 on the top rung must show as a deviation
        from ergopde import ergodic

        exp = experiment(cosine_instance, 201, (8.0, 12.0))
        amplitudes = []

        def bumped(exp, c, amplitude, **kwargs):
            u, report = solve_at(exp, c, amplitude, **kwargs)
            amplitudes.append(amplitude)
            if amplitude == exp.ladder[-1]:
                x = exp.grid.axes()[0]
                u = GridFunction(exp.grid, u.values + 0.05 * np.cos(np.pi * x))
            return u, report

        monkeypatch.setattr(ergodic, "solve_at", bumped)
        report = verify_uniqueness(exp, COSINE_C + 0.1)
        assert amplitudes == [8.0, 12.0]
        assert report["max_deviation"] > 1e-2

    def test_hypothesis_check_rejects_large_f(self):
        inst = make_instance(0.0, 2.0, f="10.0")
        exp = experiment(inst, 101, (5.0, 10.0))
        with pytest.raises(HypothesisViolated):
            check_uniqueness_hypotheses(exp, -1.0)


class TestRescaling:
    def test_zoom_matches_definition(self):
        grid = interval_grid(101)
        x = grid.axes()[0]
        u = GridFunction(grid, x**2)
        ep = ExponentPair(0.0, 1.5)  # chi = 1
        # zeta spacing is h/delta = 0.08, so x = 0.25*zeta steps by h = 0.02
        w = rescaled_solution(u, (0.0,), 0.25, ep, (11,), (-0.16,))
        zeta = w.grid.axes()[0]
        # w(zeta) = delta^chi u(delta zeta) = 0.25 * (0.25 zeta)^2
        assert np.allclose(w.values, 0.25 * (0.25 * zeta) ** 2)
        assert w.grid.spacing[0] == pytest.approx(grid.spacing[0] / 0.25)

    def test_off_node_zoom_rejected(self):
        grid = interval_grid(101)
        u = GridFunction(grid, np.zeros(101))
        ep = ExponentPair(0.0, 1.5)
        with pytest.raises(OutOfRange):
            rescaled_solution(u, (0.0013,), 0.25, ep, (5,), (0.0,))
