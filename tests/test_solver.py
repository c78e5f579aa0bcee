"""Continuation solver: exactness, residuals, reports, failure modes."""

import math

import numpy as np
import pytest

from ergopde import (
    EquationInstance,
    ExponentPair,
    GridFunction,
    NonConvergence,
    PreconditionViolated,
    ScalarField,
    ScaledTrace,
    SolverConfig,
    comparison_probe,
    exact_dirichlet_1d,
    residual,
    residual_field,
    solve_dirichlet,
)
from ergopde.solver import _Stage
from conftest import (
    COSINE_C,
    INTERVAL,
    cosine_exact,
    interval_grid,
    make_instance,
)

ZERO = ScalarField.constant(0.0, 1)


def solve(instance, boundary, n, config=None):
    grid = interval_grid(n)
    datum = ScalarField.constant(float(boundary), 1)
    return solve_dirichlet(instance, datum, grid, config or SolverConfig())


class TestDirichletExactness:
    def test_alpha_one_center_value(self):
        # -|u'| u'' = 1, zero boundary: u(0) = 2 sqrt(2) / 3
        inst = make_instance(1.0, 2.5, b="0", f="1")
        u, rep = solve(inst, 0.0, 257)
        assert rep.converged
        target = 2.0 * np.sqrt(2.0) / 3.0
        assert abs(u.values[128] - target) < 1e-2

    def test_quadratic_case_is_stencil_exact(self):
        # alpha = 0: u = (1 - x^2)/2 is quadratic, centered stencils exact
        inst = make_instance(0.0, 1.5, b="0", f="1")
        u, _ = solve(inst, 0.0, 65)
        x = interval_grid(65).axes()[0]
        assert np.max(np.abs(u.values - 0.5 * (1 - x**2))) < 1e-9

    @pytest.mark.parametrize("alpha", [-0.5, 1.0])
    def test_matches_closed_form(self, alpha):
        # alpha != 0 needs a deep delta schedule: the regularization floor
        # (not h) dominates the error once delta^2 terms enter the RHS
        beta = alpha + 1.5
        inst = make_instance(alpha, beta, b="0", f="1")
        exact = exact_dirichlet_1d(alpha, 1.0)
        config = SolverConfig(delta_schedule=tuple(2.0**-k for k in range(18)))
        u, _ = solve(inst, 0.0, 257, config)
        x = interval_grid(257).axes()[0]
        assert np.max(np.abs(u.values - exact(x))) < 5e-3

    def test_cosine_case(self):
        # alpha=0, beta=2, f = -1: u = L + log(cos 1 / cos x)
        inst = make_instance(0.0, 2.0, b="1", f="-1.0")
        u, _ = solve(inst, 10.0, 201)
        x = interval_grid(201).axes()[0]
        exact = cosine_exact(-1.0, 10.0)
        assert np.max(np.abs(u.values - exact(x))) < 1e-4


class TestResidual:
    def test_closed_form_residual_small_away_from_apex(self):
        inst = make_instance(1.0, 2.5, b="0", f="1")
        grid = interval_grid(513)
        exact = exact_dirichlet_1d(1.0, 1.0)
        u = GridFunction(grid, exact(grid.axes()[0]))
        res = residual_field(inst, u)
        mid = 256 - 1  # interior array index of the apex node
        keep = np.abs(np.arange(res.size) - mid) > 2
        assert np.max(np.abs(res[keep])) <= 1e-2

    def test_residual_node_matches_field(self):
        inst = make_instance(0.0, 1.5, b="0", f="1")
        grid = interval_grid(65)
        x = grid.axes()[0]
        u = GridFunction(grid, 0.5 * (1 - x**2))
        assert residual(inst, u, (32,)) == pytest.approx(residual_field(inst, u)[31])


class TestStageResidual:
    """The stage residual, taken from raw arrays, against references."""

    coef = 1.5
    b = "1 + 0.5*x"
    f = "0.5*cos(3.0*x)"

    def stage(self, grid, u, m_level, config):
        inst = EquationInstance(
            operator=ScaledTrace(self.coef), exponents=ExponentPair(0.0, 2.0),
            b=ScalarField.from_expression(self.b, dim=1),
            f=ScalarField.from_expression(self.f, dim=1), domain=INTERVAL,
        )
        return inst, _Stage(inst, grid, u, 1e-3, m_level, 0.25, config)

    def test_centered_matches_residual_field(self):
        # alpha = 0, M above max|u'| and no upwinding: the stage system's
        # residual is the equation's residual (the eps terms cancel)
        grid = interval_grid(41)
        x = grid.axes()[0]
        u = 3.0 + np.sin(2.0 * x) + x**2
        inst, stage = self.stage(grid, u, 10.0, SolverConfig(peclet_threshold=math.inf))
        ref = residual_field(inst, GridFunction(grid, u))
        assert not stage.magnitudes(u)[1].any()
        scale = float(np.abs(ref).max())
        np.testing.assert_allclose(stage.stage_residual(u), ref,
                                   rtol=1e-12, atol=1e-12 * scale)

    def test_upwind_mask_matches_direct_godunov(self):
        # a steep profile: at the high-Peclet nodes near the boundary the
        # gradient magnitude is the Godunov max(D-u, -D+u, 0), which is 0
        # at the dip
        grid = interval_grid(41)
        x = grid.axes()[0]
        h = grid.spacing[0]
        u = 10.0 - 3.0 * np.log(1.02 - x**2)
        u[2] = u[3] - 0.1  # a dip: both one-sided slopes point uphill there
        m_level = 1e3
        inst, stage = self.stage(grid, u, m_level, SolverConfig())
        xi = x[1:-1]
        b = 1.0 + 0.5 * xi
        centered = np.abs(u[2:] - u[:-2]) / (2.0 * h)
        back = (u[1:-1] - u[:-2]) / h
        fwd = (u[2:] - u[1:-1]) / h
        godunov = np.stack([back, -fwd, np.zeros_like(back)]).max(axis=0)
        mask = np.abs(b) * 2.0 * centered * h / (2.0 * self.coef) > 0.5
        assert 0 < mask.sum() < mask.size and (godunov[mask] == 0.0).any()
        gmag = np.where(mask, godunov, centered)
        ref = (-self.coef * (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2
               + b * np.minimum(gmag, m_level) ** 2 - 0.5 * np.cos(3.0 * xi))
        got_gmag, got_mask = stage.magnitudes(u)
        np.testing.assert_array_equal(got_mask, mask)
        np.testing.assert_allclose(got_gmag, gmag, rtol=1e-12)
        scale = float(np.abs(ref).max())
        np.testing.assert_allclose(stage.stage_residual(u), ref,
                                   rtol=1e-12, atol=1e-12 * scale)


class TestReports:
    def test_report_fields(self):
        inst = make_instance(0.0, 1.5, b="1", f="-2.0")
        u, rep = solve(inst, 5.0, 101)
        d = rep.to_dict()
        assert d["converged"] is True
        assert d["truncation_activity"] == 0.0
        assert d["final_residual"] < 1e-6
        assert d["engine"] in ("newton", "picard")
        assert len(d["iterations_per_stage"]) == len(SolverConfig().delta_schedule)

    def test_solutions_shift_with_boundary_datum(self):
        # u(.; L + s) = u(.; L) + s exactly (equation sees only derivatives)
        inst = make_instance(0.0, 2.0, b="1", f="-1.0")
        u5, _ = solve(inst, 5.0, 101)
        u9, _ = solve(inst, 9.0, 101)
        assert np.max(np.abs(u9.values - u5.values - 4.0)) < 1e-8


class TestFailureModes:
    def test_below_threshold_raises(self):
        # f = -5 is far below the solvability threshold -pi^2/4 on (-1,1)
        inst = make_instance(0.0, 2.0, b="1", f="-5.0")
        with pytest.raises(NonConvergence):
            solve(inst, 10.0, 201)

    def test_invalid_config_rejected(self):
        from ergopde import OutOfRange
        with pytest.raises(OutOfRange):
            SolverConfig(theta=0.0)
        with pytest.raises(OutOfRange):
            SolverConfig(delta_schedule=(0.5, 1.0))


class TestComparisonProbe:
    def test_ordered_pair_passes(self):
        inst = make_instance(0.0, 1.5, b="0", f="1")
        grid = interval_grid(65)
        x = grid.axes()[0]
        exact = 0.5 * (1 - x**2)
        u_sub = GridFunction(grid, exact - 0.5)      # residual unchanged
        u_super = GridFunction(grid, exact + 0.5)
        report = comparison_probe(inst, u_sub, u_super)
        assert report["passed"]

    def test_violated_precondition_reports_nodes(self):
        inst = make_instance(0.0, 1.5, b="0", f="1")
        grid = interval_grid(65)
        x = grid.axes()[0]
        bad_sub = GridFunction(grid, 10.0 * (1 - x**2))  # residual sign wrong
        u_super = GridFunction(grid, 0.5 * (1 - x**2) + 1.0)
        with pytest.raises(PreconditionViolated) as err:
            comparison_probe(inst, bad_sub, u_super)
        assert len(err.value.nodes) > 0
