"""Ergodic estimation, asymptotic verification, uniqueness, zoom rescaling."""

import time

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
    NonConvergence,
    OutOfRange,
    PucciPlus,
    ScalarField,
    ScaledTrace,
    UniformGrid,
    UnresolvedLayer,
    UnsupportedCase,
    check_uniqueness_hypotheses,
    ergodic_constant_1d,
    estimate_ergodic_constant,
    rescaled_solution,
    solve_at,
    verify_blowup_profile,
    verify_gradient_rate,
    verify_uniqueness,
)
from ergopde.ergodic import offset_constants
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

    @pytest.mark.parametrize("span",
                             [(4.0,), (4.0, 16.0, 64.0), (64.0, 4.0), (0.0, 4.0)])
    def test_fit_span_must_be_two_increasing_positive_numbers(self, cosine_instance,
                                                              span):
        with pytest.raises(OutOfRange, match="fit span"):
            ErgodicExperiment(instance=cosine_instance, grid=interval_grid(101),
                              ladder=(5.0, 10.0), probe_point=(0.0,), fit_span=span)


class TestEstimate:
    def test_cosine_constant_coarse(self, cosine_instance):
        exp = experiment(cosine_instance, 201, (10.0, 15.0, 20.0))
        c_est, report = estimate_ergodic_constant(exp, tol=0.05)
        assert abs(c_est - COSINE_C) / abs(COSINE_C) < 0.05
        lo, hi = report["bracket"]
        assert lo <= c_est <= hi

    def test_offset_constant_decreases_in_L(self, cosine_instance):
        # c_h(L) falls towards c_Omega as the boundary offset grows
        exp = experiment(cosine_instance, 201, (10.0, 15.0, 20.0))
        cs = [c for c, _ in offset_constants(exp, (1.0, 2.0, 3.0, 4.0))]
        assert len(cs) == 4
        assert all(b < a for a, b in zip(cs, cs[1:]))
        assert cs[-1] > COSINE_C

    def test_offsets_2c_apart_match_steps_of_c(self, cosine_instance):
        # the step from L = 6 to 8 fails on 801 nodes; it is halved from the
        # last converged pair, and the layer check then ends the sequence
        exp = experiment(cosine_instance, 801, (10.0, 15.0, 20.0))
        unit = [c for c, _ in offset_constants(exp, (1.0, 2.0, 3.0, 4.0, 5.0, 6.0))]
        wide = [c for c, _ in offset_constants(exp, (2.0, 4.0, 6.0, 8.0, 10.0, 12.0))]
        assert len(unit) == 6 and len(wide) == 3
        np.testing.assert_allclose(wide, unit[1::2], rtol=0, atol=1e-10)

    def test_offset_constant_normalizes_at_the_probe(self, cosine_instance):
        exp = experiment(cosine_instance, 101, (10.0, 15.0, 20.0))
        (c, u), = offset_constants(exp, (2.0,))
        assert u(exp.probe_node) == pytest.approx(0.0, abs=1e-12)
        assert u.values[0] == u.values[-1] == pytest.approx(2.0)

    def test_square_offset_constants_smoke(self):
        square = Box((-1.0, -1.0), (1.0, 1.0))
        inst = EquationInstance(
            operator=ScaledTrace(), exponents=ExponentPair(0.0, 2.0),
            b=ScalarField.constant(1.0, 2), f=ScalarField.constant(0.0, 2),
            domain=square,
        )
        exp = ErgodicExperiment(instance=inst, grid=UniformGrid((33, 33), square),
                                ladder=(5.0, 10.0), probe_point=(0.0, 0.0))
        c2, c3 = (c for c, _ in offset_constants(exp, (2.0, 3.0)))
        assert c2 > c3 > -np.pi**2 / 2

    def test_matches_oracle_with_forcing(self):
        # the benchmark's instance: f = 0.5 cos 3x on 101 nodes
        inst = make_instance(0.0, 2.0, f="0.5*cos(3.0*x)")
        c_ref, _ = ergodic_constant_1d(ExponentPair(0.0, 2.0), inst.f)
        c_est, report = estimate_ergodic_constant(
            experiment(inst, 101, (10.0, 15.0, 20.0)), tol=0.02)
        assert abs(c_est - c_ref) / abs(c_ref) < 1e-3
        lo, hi = report["bracket"]
        assert lo <= c_ref <= hi
        assert report["bar"] <= 0.02
        assert report["grid_shapes"] == [[101], [201], [401]]
        assert len(report["offsets"]) == len(report["c_h"]) >= 3

    def test_exact_case_fast_and_accurate(self, cosine_instance):
        exp = experiment(cosine_instance, 801, (10.0, 15.0, 20.0))
        t0 = time.perf_counter()
        c_est, report = estimate_ergodic_constant(exp, tol=0.02)
        assert time.perf_counter() - t0 < 2.0
        assert abs(c_est - COSINE_C) / abs(COSINE_C) < 1e-4
        lo, hi = report["bracket"]
        assert lo <= COSINE_C <= hi

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), 0.0, -0.1])
    def test_tol_must_be_finite_positive(self, cosine_instance, tol):
        with pytest.raises(OutOfRange):
            estimate_ergodic_constant(experiment(cosine_instance, 101, (8.0, 12.0)), tol)

    def test_failed_continuation_raises(self, cosine_instance, monkeypatch):
        from ergopde import ergodic

        def fail(*args, **kwargs):
            raise NonConvergence("newton stalled")

        monkeypatch.setattr(ergodic, "solve_bordered", fail)
        with pytest.raises(NonConvergence, match="stalled"):
            estimate_ergodic_constant(experiment(cosine_instance, 101, (8.0, 12.0)))

    def test_solve_at_is_one_dirichlet_solve(self, cosine_instance, monkeypatch):
        # one solve on the experiment's config; its failure reaches the caller
        from ergopde import ergodic, solve_dirichlet

        exp = experiment(cosine_instance, 101, (8.0, 12.0))
        configs = []

        def counted(instance, boundary, grid, config):
            configs.append(config)
            return solve_dirichlet(instance, boundary, grid, config)

        monkeypatch.setattr(ergodic, "solve_dirichlet", counted)
        u, _ = solve_at(exp, COSINE_C + 1.0, 8.0)
        assert configs == [exp.config()]
        assert u.values[0] == u.values[-1] == 8.0

        def fail(*args, **kwargs):
            raise NonConvergence("newton stalled")

        monkeypatch.setattr(ergodic, "solve_dirichlet", fail)
        with pytest.raises(NonConvergence, match="stalled"):
            solve_at(exp, COSINE_C + 1.0, 8.0)

    def test_power_case_meets_its_bar(self, power_instance):
        # offsets up to 594 are resolved on 401 nodes: five of them
        exp = experiment(power_instance, 401, (10.0, 20.0, 600.0))
        c_est, report = estimate_ergodic_constant(exp, tol=0.1)
        assert report["case"] == "power"
        assert len(report["offsets"]) == 5
        lo, hi = report["bracket"]
        assert lo <= POWER_C <= hi
        assert abs(c_est - POWER_C) / abs(POWER_C) < 1e-3

    def test_power_case_short_of_its_rate_raises(self, power_instance):
        # with the offsets capped at 300, c(L) has not reached its L^-1 rate
        exp = experiment(power_instance, 401, (10.0, 20.0, 300.0))
        with pytest.raises(UnresolvedLayer, match="rate"):
            estimate_ergodic_constant(exp, tol=0.1)

    @pytest.mark.parametrize("alpha, beta, why", [
        (0.5, 2.0, "only 0 resolved"),  # c_h converges at first order in h
        (-0.3, 1.5, "rate"),  # c(L) shrinks by about 1.6 per offset, not e
    ])
    def test_degenerate_cases_raise(self, alpha, beta, why):
        exp = experiment(make_instance(alpha, beta), 401, (10.0, 20.0, 1e4))
        with pytest.raises(UnresolvedLayer, match=why):
            estimate_ergodic_constant(exp, tol=0.1)

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

    @pytest.mark.parametrize("x0", [0.98, -1.02], ids=["upper", "lower"])
    def test_window_leaving_the_grid_rejected(self, x0):
        # on-node windows of 5 nodes that reach one node past x = 1 or x = -1
        grid = interval_grid(101)
        u = GridFunction(grid, np.zeros(101))
        ep = ExponentPair(0.0, 1.5)
        with pytest.raises(OutOfRange, match="zeta window leaves the grid"):
            rescaled_solution(u, (x0,), 0.25, ep, (5,), (0.0,))
