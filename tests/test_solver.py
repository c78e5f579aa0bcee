"""Continuation solver: exactness, residuals, reports, failure modes."""

import math

import numpy as np
import pytest

from ergopde import (
    BellmanMax,
    Box,
    EllipticityBounds,
    EquationInstance,
    ExponentPair,
    GridFunction,
    NonConvergence,
    PreconditionViolated,
    PucciMinus,
    PucciPlus,
    ScalarField,
    ScaledTrace,
    SolverConfig,
    SymMatrix,
    UniformGrid,
    comparison_probe,
    eval_operator,
    exact_dirichlet_1d,
    residual,
    residual_field,
    solve_dirichlet,
)
from ergopde.solver import _interior_coords, _Stage
from conftest import (
    COSINE_C,
    INTERVAL,
    cosine_exact,
    interval_grid,
    make_instance,
)

ZERO = ScalarField.constant(0.0, 1)
SQUARE = Box(lo=(-1.0, -1.0), hi=(1.0, 1.0))
AC6_BOUNDS = EllipticityBounds(1.0, 2.0)
# the diffusion matrices of the AC-6 Bellman operator; 1D uses their xx entries
AC6_MATRICES = (np.diag([1.0, 2.0]), np.diag([2.0, 1.0]),
                np.array([[1.5, 0.25], [0.25, 1.5]]))


def ac6_operator(kind, dim):
    if kind == "trace":
        return ScaledTrace(1.5)
    if kind == "pucci+":
        return PucciPlus(AC6_BOUNDS)
    if kind == "pucci-":
        return PucciMinus(AC6_BOUNDS)
    mats = tuple(SymMatrix.from_array(q[:dim, :dim]) for q in AC6_MATRICES)
    return BellmanMax(mats, AC6_BOUNDS)


OPERATOR_KINDS = ("trace", "pucci+", "pucci-", "bellman-max")
# centered differences everywhere, and a residual tolerance well below the
# 1e-9 the stencil-exact solves are held to
EXACT_CONFIG = SolverConfig(inner_tol=1e-12, peclet_threshold=math.inf)


def make_stage(inst, grid, *args):
    ic = _interior_coords(grid)
    return _Stage(inst, grid, *args, (inst.f(*ic), inst.b(*ic)))


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


class TestEveryOperator:
    """The Newton (Howard) engine on every operator, in 1D and 2D."""

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("k", [-1.3, 0.7])
    def test_quadratic_1d_is_stencil_exact(self, kind, k):
        # u = k x^2 / 2 + 0.4 x: centered differences are exact, so u solves
        # -F(u'') + |u'|^1.5 = f with f = -F(k) + |k x + 0.4|^1.5 on the grid
        spec = ac6_operator(kind, 1)
        fk = eval_operator(spec, SymMatrix(1, (k,)))
        inst = EquationInstance(
            operator=spec, exponents=ExponentPair(0.0, 1.5),
            b=ScalarField.constant(1.0, 1),
            f=ScalarField.from_expression(f"abs({k}*x + 0.4)**1.5 - {fk!r}", dim=1),
            domain=INTERVAL,
        )
        exact = f"0.5*{k}*x**2 + 0.4*x"
        grid = interval_grid(33)
        u, _ = solve_dirichlet(inst, ScalarField.from_expression(exact, dim=1), grid,
                               EXACT_CONFIG)
        x = grid.axes()[0]
        assert np.abs(u.values - (0.5 * k * x**2 + 0.4 * x)).max() < 1e-9

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    def test_quadratic_2d_is_stencil_exact(self, kind):
        # u = x^T H x / 2 + g.x with H of mixed-sign spectrum and an xy term:
        # the 5-point second differences and the 4-point cross difference
        # are exact, and so is the centered gradient
        (hxx, hxy, hyy), (gx, gy) = (1.0, 0.8, -0.5), (0.3, -0.2)
        spec = ac6_operator(kind, 2)
        fh = eval_operator(spec, SymMatrix(2, (hxx, hxy, hyy)))
        forcing = (f"(({gx} + {hxx}*x + {hxy}*y)**2 + ({gy} + {hxy}*x + {hyy}*y)**2)"
                   f"**0.75 - {fh!r}")
        inst = EquationInstance(
            operator=spec, exponents=ExponentPair(0.0, 1.5),
            b=ScalarField.constant(1.0, 2),
            f=ScalarField.from_expression(forcing, dim=2), domain=SQUARE,
        )
        exact = f"0.5*({hxx}*x**2 + 2*{hxy}*x*y + {hyy}*y**2) + {gx}*x + {gy}*y"
        grid = UniformGrid((9, 9), SQUARE)
        u, _ = solve_dirichlet(inst, ScalarField.from_expression(exact, dim=2), grid,
                               EXACT_CONFIG)
        x, y = grid.coords()
        ref = 0.5 * (hxx * x**2 + 2 * hxy * x * y + hyy * y**2) + gx * x + gy * y
        assert np.abs(u.values - ref).max() < 1e-9

    def test_pucci_sandwich_2d(self):
        # F- <= 1.5 tr <= F+ for bounds (1, 2), so by comparison the
        # solutions of -F(D2 u) + |grad u|^1.5 = 1 + 0.5xy are ordered
        grid = UniformGrid((9, 9), SQUARE)
        sols = {}
        for kind in ("pucci-", "trace", "pucci+"):
            inst = EquationInstance(
                operator=ac6_operator(kind, 2), exponents=ExponentPair(0.0, 1.5),
                b=ScalarField.constant(1.0, 2),
                f=ScalarField.from_expression("1 + 0.5*x*y", dim=2), domain=SQUARE,
            )
            u, rep = solve_dirichlet(inst, ScalarField.constant(0.0, 2), grid)
            assert rep.final_residual < 1e-6
            sols[kind] = u.values
        inner = (slice(1, -1), slice(1, -1))
        assert (sols["pucci-"] <= sols["trace"] + 1e-12).all()
        assert (sols["trace"] <= sols["pucci+"] + 1e-12).all()
        assert (sols["trace"][inner] - sols["pucci-"][inner]).min() > 1e-3
        assert (sols["pucci+"][inner] - sols["trace"][inner]).min() > 1e-3


    def test_singular_sparse_solve_raises(self, monkeypatch):
        # spsolve only warns on a singular matrix and returns NaN
        import scipy.sparse.linalg

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                            lambda mat, rhs: np.full(rhs.shape, np.nan))
        inst = EquationInstance(
            operator=ac6_operator("pucci+", 2), exponents=ExponentPair(0.0, 1.5),
            b=ScalarField.constant(1.0, 2), f=ScalarField.constant(1.0, 2),
            domain=SQUARE,
        )
        grid = UniformGrid((5, 5), SQUARE)
        start = GridFunction(grid, np.zeros(grid.shape))  # no harmonic fill
        with pytest.raises(NonConvergence, match="newton linear solve failed"):
            solve_dirichlet(inst, ScalarField.constant(0.0, 2), grid, initial=start)


class TestBetaBelowOne:
    def test_solves_and_refines(self):
        # beta < 1: the Hamiltonian's slope is infinite where the gradient
        # vanishes; the Jacobian takes the slope 0 there
        inst = make_instance(-0.3, 0.9, b="1", f="1")
        centers = []
        for n in (81, 161):
            u, _ = solve(inst, 0.0, n)
            x = interval_grid(n).axes()[0][1:-1]
            res = residual_field(inst, u)
            assert np.abs(res[np.abs(x) > 0.2]).max() < 1e-2
            centers.append(u.values[n // 2])
        assert abs(centers[0] - centers[1]) < 1e-2


def dense_jacobian(stage, u):
    if u.ndim == 1:  # the (3, n) band of solve_banded
        jac = stage.jacobian_1d(u)
        return np.diag(jac[1]) + np.diag(jac[0, 1:], 1) + np.diag(jac[2, :-1], -1)
    return stage.jacobian_2d(u).toarray()


def fd_jacobian(stage, u, step=1e-6):
    cols = []
    for k in np.ndindex(stage.interior(u).shape):
        up, dn = u.copy(), u.copy()
        stage.interior(up)[k] += step
        stage.interior(dn)[k] -= step
        cols.append(((stage.stage_residual(up) - stage.stage_residual(dn))
                     / (2.0 * step)).ravel())
    return np.array(cols).T


class TestJacobian:
    """The assembled Jacobian against central differences of the residual.

    The profiles are smooth, with centered slopes bounded away from 0 and
    second differences away from the policy switches, so the residual is
    differentiable there.
    """

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("upwind", [False, True], ids=["centered", "godunov"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_matches_finite_differences(self, kind, alpha, upwind, dim):
        if dim == 1:
            grid, domain = interval_grid(21), INTERVAL
            x = grid.axes()[0]
            u = 5.0 + 0.8 * np.sin(2.5 * x + 0.4)  # rises, then falls
            h = grid.spacing[0]
            hess = ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2,)
            assert np.abs(u[2:] - u[:-2]).min() / (2.0 * h) > 0.05
        else:
            grid, domain = UniformGrid((7, 7), SQUARE), SQUARE
            x, y = grid.coords()
            # u rises along x and falls along y: both Godunov branches
            u = 5.0 + 2.0 * x - 2.0 * y + 0.5 * x**2 + 0.6 * x * y - 0.4 * y**2 \
                + 0.05 * np.sin(x + 2.0 * y)
            hess = ()
        inst = EquationInstance(
            operator=ac6_operator(kind, dim),
            exponents=ExponentPair(alpha, alpha + 1.5),
            b=ScalarField.from_expression("1 + 0.2*x", dim=dim),
            f=ScalarField.from_expression("0.5*cos(3.0*x)", dim=dim), domain=domain,
        )
        config = SolverConfig(upwind=True) if upwind \
            else SolverConfig(peclet_threshold=math.inf)
        stage = make_stage(inst, grid, 0.1, 100.0, 0.25, config)
        mask = stage.magnitudes(u)[1]
        assert mask.all() if upwind else not mask.any()
        for t in hess:  # 1D: no node sits on the kink of F
            assert np.abs(t).min() > 1e-2 and (t > 0).any() and (t < 0).any()
        jac = dense_jacobian(stage, u)
        fd = fd_jacobian(stage, u)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6 * np.abs(jac).max())


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
        return inst, make_stage(inst, grid, 1e-3, m_level, 0.25, config)

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
