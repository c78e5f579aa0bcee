"""Ergodic estimation, asymptotic verification, uniqueness, zoom rescaling."""

import math
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
from ergopde.ergodic import _face_rays, _layer_samples, offset_constants
from ergopde.grid import gradient_field
from ergopde.model import amplitude_C, chi
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
        # every bordered step fails: no offset resolves, and the
        # UnresolvedLayer names the first offset, the grid and the stall
        from ergopde import ergodic

        def fail(*args, **kwargs):
            raise NonConvergence("newton stalled")

        monkeypatch.setattr(ergodic, "solve_bordered", fail)
        with pytest.raises(UnresolvedLayer, match=r"only 0 resolved .*bordered solve at "
                           r"offset 1 on \(101,\) failed: newton stalled"):
            estimate_ergodic_constant(experiment(cosine_instance, 101, (8.0, 12.0)))

    def test_failed_start_raises(self, cosine_instance, monkeypatch):
        # the Dirichlet solve that starts the offsets is not an offset
        from ergopde import ergodic

        def fail(*args, **kwargs):
            raise NonConvergence("newton stalled")

        monkeypatch.setattr(ergodic, "solve_dirichlet", fail)
        with pytest.raises(NonConvergence, match="stalled"):
            estimate_ergodic_constant(experiment(cosine_instance, 101, (8.0, 12.0)))

    def test_failed_base_step_ends_the_offsets(self, cosine_instance, monkeypatch):
        # the bordered steps on the experiment's grid to offsets 1 to 3
        # converge, and every one beyond offset 3 fails, down to the step
        # C/4: the three resolved offsets stand and give the estimate
        from ergopde import ergodic

        exp = experiment(cosine_instance, 101, (10.0, 15.0, 20.0))
        real, failed = ergodic.solve_bordered, []

        def solve_bordered(instance, guess, c, node, config):
            level = guess.values[0]  # the data: the offset the step goes to
            if guess.grid.shape == exp.grid.shape and level > 3.0:
                failed.append(level - 3.0)
                raise NonConvergence("newton line search failed: planted")
            return real(instance, guess, c, node, config)

        monkeypatch.setattr(ergodic, "solve_bordered", solve_bordered)
        c_est, report = estimate_ergodic_constant(exp, tol=0.05)
        assert failed == [1.0, 0.5, 0.25]
        assert report["offsets"] == [1.0, 2.0, 3.0]
        assert report["stopped"] == ("the bordered solve at offset 4 on (101,) failed: "
                                     "newton line search failed: planted")
        lo, hi = report["bracket"]
        assert lo <= COSINE_C <= hi

    @staticmethod
    def fail_refined_after(exp, monkeypatch, solves):
        """Make every bordered solve on a refined grid after the first
        `solves` of them raise NonConvergence."""
        from ergopde import ergodic

        real, refined = ergodic.solve_bordered, []

        def solve_bordered(instance, guess, c, node, config):
            if guess.grid.shape != exp.grid.shape:
                refined.append(guess.grid.shape)
                if len(refined) > solves:
                    raise NonConvergence("newton line search failed: planted")
            return real(instance, guess, c, node, config)

        monkeypatch.setattr(ergodic, "solve_bordered", solve_bordered)

    def test_failed_refined_solve_is_named(self, cosine_instance, monkeypatch):
        # the first refined solve fails: no offset resolves, and the
        # UnresolvedLayer names the offset, the grid and Newton's message
        exp = experiment(cosine_instance, 101, (10.0, 15.0, 20.0))
        self.fail_refined_after(exp, monkeypatch, 0)
        with pytest.raises(UnresolvedLayer, match=r"only 0 resolved .*bordered solve at "
                           r"offset 1 on \(201,\) failed: newton line search failed: "
                           r"planted"):
            estimate_ergodic_constant(exp, tol=0.05)

    def test_failed_refined_solve_ends_the_offsets(self, cosine_instance, monkeypatch):
        # the refined solves of offsets 1 to 3 converge and the first one of
        # offset 4 fails: the three resolved offsets stand and give the estimate
        exp = experiment(cosine_instance, 101, (10.0, 15.0, 20.0))
        self.fail_refined_after(exp, monkeypatch, 6)
        c_est, report = estimate_ergodic_constant(exp, tol=0.05)
        assert report["offsets"] == [1.0, 2.0, 3.0]
        assert report["stopped"] == ("the bordered solve at offset 4 on (201,) failed: "
                                     "newton line search failed: planted")
        lo, hi = report["bracket"]
        assert lo <= COSINE_C <= hi

    def test_solve_at_is_one_dirichlet_solve(self, cosine_instance, monkeypatch):
        # one solve on the experiment's config; its failure reaches the caller
        from ergopde import ergodic, solve_dirichlet

        exp = experiment(cosine_instance, 101, (8.0, 12.0))
        configs = []

        def counted(instance, boundary, grid, config, start=None):
            configs.append((config, start))
            return solve_dirichlet(instance, boundary, grid, config, start=start)

        monkeypatch.setattr(ergodic, "solve_dirichlet", counted)
        u, _ = solve_at(exp, COSINE_C + 1.0, 8.0)
        assert configs == [(exp.config(), None)]
        assert u.values[0] == u.values[-1] == 8.0
        v, _ = solve_at(exp, COSINE_C + 1.0, 5.0, start=u)
        assert configs[1][0] == exp.config() and configs[1][1] is u
        assert v.values[0] == v.values[-1] == 5.0

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


def loop_layer_samples(exp, u, normal, node):
    """The per-node loop that the sliced `_layer_samples` replaced."""
    k = int(np.argmax(np.abs(normal)))
    step, h = int(np.sign(normal[k])), exp.grid.spacing[k]
    ds, vals, nodes = [], [], []
    for m in range(max(1, math.ceil(exp.fit_span[0])), math.floor(exp.fit_span[1]) + 1):
        idx = list(node)
        idx[k] += step * m
        if not 0 < idx[k] < exp.grid.shape[k] - 1:
            break
        ds.append(m * h)
        vals.append(u(tuple(idx)))
        nodes.append(tuple(idx))
    return np.array(ds), np.array(vals), nodes


class TestProfileVerification:
    @pytest.mark.parametrize("shape", [(41,), (31, 25)])
    def test_sliced_samples_equal_the_loop(self, shape):
        # the same values, distances and gradient-rate trends, bit for bit
        dim = len(shape)
        domain = Box((-1.0,) * dim, (1.0, 0.5)[:dim])
        inst = EquationInstance(
            operator=ScaledTrace(), exponents=ExponentPair(0.0, 1.5),
            b=ScalarField.constant(1.0, dim), f=ScalarField.constant(0.0, dim),
            domain=domain)
        exp = ErgodicExperiment(instance=inst, grid=UniformGrid(shape, domain),
                                ladder=(10.0, 20.0), probe_point=(0.0,) * dim)
        u = GridFunction(exp.grid, np.random.default_rng(3).normal(size=shape))
        grad = gradient_field(u.values, exp.grid.spacing)
        trends = []
        for name, normal, node in _face_rays(exp):
            ds, vals, ray = _layer_samples(exp, u, name, normal, node)
            ref_ds, ref_vals, nodes = loop_layer_samples(exp, u, normal, node)
            assert np.array_equal(ds, ref_ds) and np.array_equal(vals, ref_vals)
            assert list(zip(*np.broadcast_arrays(*ray))) == nodes
            c_ref = amplitude_C(inst.operator, normal, inst.exponents)
            rate = []
            for d, idx in zip(ref_ds, nodes):
                g = np.array([gk[tuple(i - 1 for i in idx)] for gk in grad])
                rate.append(d ** (chi(inst.exponents) + 1.0) * float(g @ np.asarray(normal))
                            / c_ref)
            design = np.column_stack([np.ones_like(ref_ds), ref_ds])
            trends.append(float(np.linalg.lstsq(design, rate, rcond=None)[0][0]))
        assert [f["trend"] for f in verify_gradient_rate(exp, u)["faces"]] == trends

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
        # the top rung first; the lower one is solved from its translate,
        # bump included, and Newton removes the bump
        assert amplitudes == [12.0, 8.0]
        assert report["max_deviation"] > 1e-2

    @pytest.mark.parametrize("alpha, beta, c, warm", [
        (0.0, 2.0, COSINE_C + 0.1, True),
        (0.0, 1.5, POWER_C + 0.1, True),
        (-0.3, 1.5, -1.0, False),
    ], ids=["log", "power", "alpha-negative"])
    def test_lower_rung_starts_from_the_translate_at_alpha_zero(self, monkeypatch, alpha,
                                                                beta, c, warm):
        # at alpha != 0 the eps-stabilizer breaks the invariance u -> u + k,
        # and the lower rung is solved cold
        from ergopde import ergodic

        exp = experiment(make_instance(alpha, beta), 21, (8.0, 12.0))
        top = GridFunction(exp.grid, 12.0 + np.cos(exp.grid.axes()[0]))
        calls = []

        def recorded(exp, c, amplitude, start=None):
            calls.append((amplitude, start))
            return top, None

        monkeypatch.setattr(ergodic, "solve_at", recorded)
        verify_uniqueness(exp, c)
        (hi, hi_start), (lo, lo_start) = calls
        assert (hi, hi_start, lo) == (12.0, None, 8.0)
        if warm:
            assert np.array_equal(lo_start.values, top.values - 4.0)
        else:
            assert lo_start is None

    @pytest.mark.parametrize("instance_name, c", [
        ("cosine_instance", COSINE_C + 0.01), ("power_instance", POWER_C + 0.01)])
    def test_translate_of_the_top_rung_solves_the_lower_one(self, request,
                                                            instance_name, c):
        # alpha = 0: Newton confirms the residual of the translate, with no
        # step in one truncation round, and lands on the cold solve
        exp = experiment(request.getfixturevalue(instance_name), 801, (10.0, 15.0))
        u_hi, _ = solve_at(exp, c, 15.0)
        cold, _ = solve_at(exp, c, 10.0)
        start = GridFunction(exp.grid, u_hi.values - 5.0)
        warm, rep = solve_at(exp, c, 10.0, start=start)
        assert np.abs(warm.values - cold.values).max() <= 1e-9
        assert rep.iterations_per_stage == (0,)
        assert rep.truncation_rounds == 1

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
