"""Dirichlet solver: exactness, residuals, reports, failure modes."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from ergopde import (
    BellmanMax,
    Box,
    EllipticityBounds,
    EquationInstance,
    ExponentPair,
    GridFunction,
    NonConvergence,
    PucciMinus,
    PucciPlus,
    ScalarField,
    ScaledTrace,
    SolverConfig,
    SymMatrix,
    UniformGrid,
    ergodic_constant_1d,
    eval_operator,
    exact_dirichlet_1d,
    lipschitz_seminorm,
    residual_field,
    solve_dirichlet,
)
from ergopde.solver import _initial_guess, _max_axis_slope, _run_newton, _System
from conftest import (
    COSINE_C,
    INTERVAL,
    POWER_C,
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


def make_system(inst, grid, eps, m_level, delta, config):
    system = _System(inst, grid, config)
    system.eps, system.m_level, system.delta = eps, m_level, delta
    return system


def solve(instance, boundary, n, config=None):
    grid = interval_grid(n)
    datum = ScalarField.constant(float(boundary), 1)
    return solve_dirichlet(instance, datum, grid, config or SolverConfig())


class TestDirichletExactness:
    def test_alpha_one_center_value(self):
        # -|u'| u'' = 1, zero boundary: u(0) = 2 sqrt(2) / 3
        inst = make_instance(1.0, 2.5, b="0", f="1")
        u, rep = solve(inst, 0.0, 257)
        assert len(rep.iterations_per_stage) == 1
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
        # alpha != 0 needs a small delta: the regularization floor (not h)
        # dominates the error once delta^2 terms enter the RHS
        beta = alpha + 1.5
        inst = make_instance(alpha, beta, b="0", f="1")
        exact = exact_dirichlet_1d(alpha, 1.0)
        config = SolverConfig(delta=2.0**-17)
        u, _ = solve(inst, 0.0, 257, config)
        x = interval_grid(257).axes()[0]
        assert np.max(np.abs(u.values - exact(x))) < 5e-3

    def test_small_delta_at_negative_alpha(self):
        # on 65 nodes Newton at delta = 2^-17 alone fails at alpha = -0.5
        # (from about delta = h^2/32 on); the solve falls back to the
        # continuation through delta = 1, 1/2, ..., 2^-17, which converges
        inst = make_instance(-0.5, 1.0, b="0", f="1")
        u, rep = solve(inst, 0.0, 65, SolverConfig(delta=2.0**-17))
        assert len(rep.iterations_per_stage) == 18
        x = interval_grid(65).axes()[0]
        assert np.max(np.abs(u.values - exact_dirichlet_1d(-0.5, 1.0)(x))) < 6e-3

    def test_fallback_starts_cheaply(self, monkeypatch):
        # the one-delta attempt at alpha = -0.3 on 257 nodes finds no descent
        # step after 3 steps (4 linear solves), and the delta continuation
        # takes over: 42 linear solves in all.  Every Newton step is one
        # linear solve.
        solve_linear = _System.solve
        calls = []

        def counted(*args, **kwargs):
            calls.append(1)
            return solve_linear(*args, **kwargs)

        monkeypatch.setattr(_System, "solve", counted)
        inst = make_instance(-0.3, 1.2, b="0", f="1")
        u, rep = solve(inst, 0.0, 257, SolverConfig(delta=2.0**-17))
        assert 0 < len(calls) <= 100
        assert len(rep.iterations_per_stage) == 18
        x = interval_grid(257).axes()[0]
        err = np.max(np.abs(u.values - exact_dirichlet_1d(-0.3, 1.0)(x)))
        assert abs(err - 1.2417e-3) < 1e-6

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


    @pytest.mark.parametrize("shape", [(3, 3), (5, 4), (4, 4), (3, 5)])
    def test_grids_with_short_interior_rows(self, shape):
        # one or two interior nodes per row: the 9-point couplings of
        # different neighbours fall on one matrix diagonal
        inst = EquationInstance(
            operator=ac6_operator("pucci+", 2), exponents=ExponentPair(0.0, 1.5),
            b=ScalarField.constant(1.0, 2),
            f=ScalarField.from_expression("1 + 0.5*x*y", dim=2), domain=SQUARE,
        )
        _, rep = solve_dirichlet(inst, ScalarField.constant(0.0, 2),
                                 UniformGrid(shape, SQUARE))
        assert rep.final_residual < 1e-6

    def test_singular_sparse_solve_raises(self, monkeypatch):
        # spsolve only warns on a singular matrix and returns NaN; the 2D
        # start needs no solve, so the first spsolve is the Newton step's
        import scipy.sparse.linalg

        monkeypatch.setattr(scipy.sparse.linalg, "spsolve",
                            lambda mat, rhs: np.full(rhs.shape, np.nan))
        inst = EquationInstance(
            operator=ac6_operator("pucci+", 2), exponents=ExponentPair(0.0, 1.5),
            b=ScalarField.constant(1.0, 2), f=ScalarField.constant(1.0, 2),
            domain=SQUARE,
        )
        grid = UniformGrid((5, 5), SQUARE)
        with pytest.raises(NonConvergence, match="newton linear solve failed"):
            solve_dirichlet(inst, ScalarField.constant(0.0, 2), grid)


class TestDegenerate2D:
    """2D solves at alpha != 0."""

    @pytest.mark.parametrize("kind", ["pucci+", "bellman-max"])
    def test_coarse_box_converges(self, kind):
        # a continuation through delta = 1, 1/2, 1/4, ... failed here, at
        # delta = 1/4 (pucci+) and 1/2 (bellman-max); a solve at the one
        # delta converges
        box = Box((-1.0, 0.0), (1.0, 1.5))
        inst = EquationInstance(
            operator=ac6_operator(kind, 2), exponents=ExponentPair(0.5, 2.0),
            b=ScalarField.constant(1.0, 2),
            f=ScalarField.from_expression("1 + 0.4*x*y", dim=2), domain=box,
        )
        data = ScalarField.from_expression("exp(0.3*x) + y**2", dim=2)
        _, rep = solve_dirichlet(inst, data, UniformGrid((5, 5), box))
        assert rep.final_residual < 1e-6

    @pytest.mark.parametrize("alpha", [-0.3, 0.5, 1.0])
    def test_radial_solution_converges(self, alpha):
        # -|grad u|^alpha lap u = 1 is solved by u = -(K/m) r^m with
        # m = (2 + alpha)/(1 + alpha) and K^(1 + alpha) = 1/m; its gradient
        # vanishes at the centre, so the order stays below 2
        m = (2.0 + alpha) / (1.0 + alpha)
        k = (1.0 / m) ** (1.0 / (1.0 + alpha))
        exact = f"-{k / m!r}*sqrt(x**2 + y**2)**{m!r}"
        inst = EquationInstance(
            operator=ScaledTrace(), exponents=ExponentPair(alpha, alpha + 1.5),
            b=ScalarField.constant(0.0, 2), f=ScalarField.constant(1.0, 2),
            domain=SQUARE,
        )
        errs = []
        for n in (17, 33, 65):
            grid = UniformGrid((n, n), SQUARE)
            u, _ = solve_dirichlet(inst, ScalarField.from_expression(exact, dim=2), grid,
                                   SolverConfig(delta=grid.spacing[0] ** 2))
            x, y = grid.coords()
            ref = -k / m * np.hypot(x, y) ** m
            errs.append(np.abs(u.values - ref).max())
        orders = [math.log2(a / b) for a, b in zip(errs, errs[1:])]
        assert min(orders) >= 1.35, orders

    @pytest.mark.parametrize("kind, centre", [("trace", 0.0833845747070),
                                              ("pucci-", 0.0569268372192)])
    def test_coarse_square_without_descent_at_delta(self, kind, centre):
        # at the one delta the line search finds no descent step after a few
        # Newton steps; the delta fallback converges
        inst = EquationInstance(
            operator=ac6_operator(kind, 2), exponents=ExponentPair(-0.3, 1.2),
            b=ScalarField.constant(1.0, 2),
            f=ScalarField.from_expression("1 + 0.4*x*y", dim=2), domain=SQUARE,
        )
        u, rep = solve_dirichlet(inst, ScalarField.constant(0.0, 2),
                                 UniformGrid((5, 5), SQUARE))
        # the Newton tolerance on the RMS residual, 1e-8 (1 + |f|), over 9 nodes
        assert rep.final_residual < 1e-7
        assert u.values[2, 2] == pytest.approx(centre, abs=1e-8)


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


def dense_jacobian(system, u):
    jac = system.jacobian(system.evaluate(u))
    if u.ndim == 1:  # the (3, n) band of solve_banded
        return np.diag(jac[1]) + np.diag(jac[0, 1:], 1) + np.diag(jac[2, :-1], -1)
    return jac.toarray()


def fd_jacobian(system, u, step=1e-6):
    cols = []
    for k in np.ndindex(system.interior(u).shape):
        up, dn = u.copy(), u.copy()
        system.interior(up)[k] += step
        system.interior(dn)[k] -= step
        cols.append(((system.evaluate(up).res - system.evaluate(dn).res)
                     / (2.0 * step)).ravel())
    return np.array(cols).T


def smooth_profile(dim, shape=(7, 7)):
    """(grid, u, 1D second differences) of a profile with nonzero slopes."""
    if dim == 1:
        grid = interval_grid(21)
        x = grid.axes()[0]
        u = 5.0 + 0.8 * np.sin(2.5 * x + 0.4)  # rises, then falls
        h = grid.spacing[0]
        assert np.abs(u[2:] - u[:-2]).min() / (2.0 * h) > 0.05
        return grid, u, ((u[2:] - 2.0 * u[1:-1] + u[:-2]) / h**2,)
    grid = UniformGrid(shape, SQUARE)
    x, y = grid.coords()
    # u rises along x and falls along y: both Godunov branches
    u = 5.0 + 2.0 * x - 2.0 * y + 0.5 * x**2 + 0.6 * x * y - 0.4 * y**2 \
        + 0.05 * np.sin(x + 2.0 * y)
    return grid, u, ()


def profile_instance(operator, alpha, dim):
    return EquationInstance(
        operator=operator,
        exponents=ExponentPair(alpha, alpha + 1.5),
        b=ScalarField.from_expression("1 + 0.2*x", dim=dim),
        f=ScalarField.from_expression("0.5*cos(3.0*x)", dim=dim),
        domain=INTERVAL if dim == 1 else SQUARE,
    )


class TestJacobian:
    """The assembled Jacobian against central differences of the residual.

    The profiles are smooth, with centered slopes bounded away from 0 and
    second differences away from the policy switches, so the residual is
    differentiable there.
    """

    @pytest.mark.parametrize("kind", OPERATOR_KINDS)
    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("upwind", [False, True], ids=["centered", "godunov"])
    @pytest.mark.parametrize("shape", [(21,), (7, 7), (7, 5), (5, 4)],
                             ids=["1", "2", "2-7x5", "2-5x4"])
    def test_matches_finite_differences(self, kind, alpha, upwind, shape):
        # 7 x 5 nodes: a swap of the two axes in the 2D pattern shows; 5 x 4:
        # on rows of two interior nodes, offsets di * 2 + dj coincide
        dim = len(shape)
        grid, u, hess = smooth_profile(dim, shape)
        inst = profile_instance(ac6_operator(kind, dim), alpha, dim)
        config = SolverConfig(peclet_threshold=-math.inf if upwind else math.inf)
        system = make_system(inst, grid, 0.1, 100.0, 0.25, config)
        mask = system.evaluate(u).upwind
        assert mask.all() if upwind else not mask.any()
        for t in hess:  # 1D: no node sits on the kink of F
            assert np.abs(t).min() > 1e-2 and (t > 0).any() and (t < 0).any()
        jac = dense_jacobian(system, u)
        fd = fd_jacobian(system, u)
        np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6 * np.abs(jac).max())

    @pytest.mark.parametrize("kind", ["trace", "pucci+"])
    @pytest.mark.parametrize("shape", [(7, 7), (7, 5)])
    def test_sparse_matrix_matches_diagonal_assembly(self, kind, shape):
        # the CSC matrix holds what scipy.sparse.diags makes of the
        # stencil's diagonals: no entry across a row end or off the stencil,
        # no zero entry (the trace's d_xy corners are 0), the same order.
        # The second assembly reads the cached pattern after the first
        # matrix dropped its zeros.
        grid, u, _ = smooth_profile(2, shape)
        system = make_system(profile_instance(ac6_operator(kind, 2), 0.0, 2), grid,
                             0.1, 100.0, 0.25, SolverConfig())
        ev = system.evaluate(u)
        first = system.jacobian(ev)
        dense, my = first.toarray(), shape[1] - 2
        offsets = [di * my + dj for di in (-1, 0, 1) for dj in (-1, 0, 1)]
        want = scipy.sparse.diags([dense.diagonal(k) for k in offsets], offsets,
                                  format="csc")
        if kind == "trace":
            assert want.nnz < sum(dense.diagonal(k).size for k in offsets)
        for jac in (first, system.jacobian(ev)):
            np.testing.assert_array_equal(jac.indptr, want.indptr)
            np.testing.assert_array_equal(jac.indices, want.indices)
            np.testing.assert_array_equal(jac.data, want.data)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_bordered_system_matches_finite_differences(self, alpha, dim):
        # the bordered map (u, c) -> (R(u; f + c), u(x0)), no truncation
        grid, u, _ = smooth_profile(dim)
        inst = profile_instance(ScaledTrace(1.5), alpha, dim)
        system = make_system(inst, grid, 0.1, math.inf, 0.25,
                             SolverConfig(peclet_threshold=math.inf))
        c, step = -0.7, 1e-6
        columns = []
        for shift in (step, -step):
            system.set_c(c + shift)
            columns.append(system.evaluate(u).res)
        system.set_c(c)
        fd_c = (columns[0] - columns[1]) / (2.0 * step)
        ev = system.evaluate(u)
        np.testing.assert_allclose(system.c_column(ev), fd_c, rtol=0, atol=1e-8)
        if alpha:
            assert np.ptp(fd_c) > 1e-2  # -rho varies with the gradient
        jac = dense_jacobian(system, u)
        np.testing.assert_allclose(jac, fd_jacobian(system, u), rtol=0,
                                   atol=1e-6 * np.abs(jac).max())
        # the step solves the bordered system built from the differences
        x0 = tuple(n // 2 - 1 for n in grid.shape)  # interior index of the centre
        res = ev.res
        du, dc = system.bordered_step(ev, x0)
        m = res.size
        bordered = np.zeros((m + 1, m + 1))
        bordered[:m, :m] = fd_jacobian(system, u)
        bordered[:m, m] = fd_c.ravel()
        bordered[m, np.ravel_multi_index(x0, res.shape)] = 1.0
        rhs = np.append(-res.ravel(), -system.interior(u)[x0])
        want = np.linalg.solve(bordered, rhs)
        got = np.append(du.ravel(), dc)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-6 * np.abs(want).max())
        assert du[x0] == pytest.approx(-system.interior(u)[x0])


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


class TestStageResidual:
    """The system residual, taken from raw arrays, against references."""

    coef = 1.5
    b = "1 + 0.5*x"
    f = "0.5*cos(3.0*x)"

    def system(self, grid, m_level, config, operator=None):
        inst = EquationInstance(
            operator=operator or ScaledTrace(self.coef),
            exponents=ExponentPair(0.0, 2.0),
            b=ScalarField.from_expression(self.b, dim=grid.dim),
            f=ScalarField.from_expression(self.f, dim=grid.dim), domain=grid.box,
        )
        return inst, make_system(inst, grid, 1e-3, m_level, 0.25, config)

    @pytest.mark.parametrize("dim", [1, 2])
    def test_centered_matches_residual_field(self, dim):
        # alpha = 0, M above max|grad u| and no upwinding: the regularized
        # system's residual is the equation's residual (the eps terms
        # cancel).  In 2D the Bellman operator's off-diagonal matrix reads
        # d_xy with its sign at the nodes where it is the maximiser.
        if dim == 1:
            grid, operator = interval_grid(41), None
            x = grid.axes()[0]
            u = 3.0 + np.sin(2.0 * x) + x**2
        else:
            grid = UniformGrid((13, 13), SQUARE)
            operator = ac6_operator("bellman-max", 2)
            x, y = grid.coords()
            u = 3.0 + np.sin(2.0 * x) + x**2 + 0.7 * x * y - 0.3 * y**2
        inst, system = self.system(grid, 10.0, SolverConfig(peclet_threshold=math.inf),
                                 operator)
        ev = system.evaluate(u)
        assert ev.gmag.max() < 10.0
        ref = residual_field(inst, GridFunction(grid, u))
        assert not ev.upwind.any()
        scale = float(np.abs(ref).max())
        np.testing.assert_allclose(ev.res, ref,
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
        inst, system = self.system(grid, m_level, SolverConfig())
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
        ev = system.evaluate(u)
        np.testing.assert_array_equal(ev.upwind, mask)
        np.testing.assert_allclose(ev.gmag, gmag, rtol=1e-12)
        scale = float(np.abs(ref).max())
        np.testing.assert_allclose(ev.res, ref,
                                   rtol=1e-12, atol=1e-12 * scale)


class TestTruncationLevel:
    """The automatic truncation level against the pairwise Lipschitz seminorm."""

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 60), st.integers(0, 2**32 - 1))
    def test_exact_in_1d(self, n, seed):
        grid = UniformGrid((n,), Box((-1.0,), (2.0,)))
        u = GridFunction(grid, np.random.default_rng(seed).normal(size=n))
        pairwise = lipschitz_seminorm(u)
        level = _max_axis_slope(u.values, grid.spacing)
        assert level == pytest.approx(pairwise, rel=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(3, 20), st.integers(3, 20), st.integers(0, 2**32 - 1))
    def test_within_sqrt2_in_2d(self, nx, ny, seed):
        # at most 400 nodes: the pairwise seminorm is exhaustive below 2000
        grid = UniformGrid((nx, ny), Box((0.0, -1.0), (1.0, 2.0)))
        u = GridFunction(grid, np.random.default_rng(seed).normal(size=(nx, ny)))
        pairwise = lipschitz_seminorm(u)
        level = _max_axis_slope(u.values, grid.spacing)
        assert pairwise / math.sqrt(2.0) * (1.0 - 1e-12) <= level
        assert level <= pairwise * (1.0 + 1e-12)


class TestInitialGuess:
    @pytest.mark.parametrize("fn", [
        lambda x, y: 1.0 + 2.0 * x - y + 3.0 * x * y,
        lambda x, y: np.cos(2.0 * x) - y * x**2,  # linear in y only
        lambda x, y: x * np.exp(y) + y**3,  # linear in x only
    ], ids=["bilinear", "linear-in-y", "linear-in-x"])
    def test_coons_patch_reproduces_data_linear_along_an_axis(self, fn):
        # the 2D start is P_x + P_y (I - P_x), with P_x, P_y the linear
        # interpolations across x and y: exact on every function linear in
        # x or in y, and the boundary stays as given
        grid = UniformGrid((6, 9), Box((-1.0, 0.5), (2.0, 1.5)))
        exact = fn(*grid.coords())
        edge = grid.boundary_mask()
        data = np.where(edge, exact, 0.0)
        given_data = data.copy()
        u = _initial_guess(grid, data)
        assert np.array_equal(data, given_data)
        assert np.array_equal(u[edge], data[edge])
        np.testing.assert_allclose(u, exact, rtol=0, atol=1e-14 * np.abs(exact).max())


class TestReports:
    def test_report_fields(self):
        inst = make_instance(0.0, 1.5, b="1", f="-2.0")
        u, rep = solve(inst, 5.0, 101)
        d = rep.to_dict()
        assert set(d) == {"final_residual", "iterations_per_stage", "truncation_M",
                          "truncation_rounds"}
        assert d["final_residual"] < 1e-6
        assert len(d["iterations_per_stage"]) == 1  # the last truncation round

    @pytest.mark.parametrize("case", ["log", "power", "alpha-one"])
    def test_final_residual_is_that_of_the_solved_system(self, case):
        # the Peclet-switched, regularized, final-M system that Newton
        # met its tolerance on; the centered residual of the original
        # equation reads 1.9e4 (log), 7.1e6 (power) and |f| = 1 at the apex
        # (alpha = 1) on these converged solves
        if case == "log":
            inst, datum, n = make_instance(0.0, 2.0).shifted_f(COSINE_C + 0.009), 20.0, 801
        elif case == "power":
            c_omega, _ = ergodic_constant_1d(ExponentPair(0.0, 1.5), ZERO)
            inst, datum, n = make_instance(0.0, 1.5).shifted_f(c_omega + 1e-4), 40.0, 401
        else:
            inst, datum, n = make_instance(1.0, 2.5, b="0", f="1"), 0.0, 257
        _, rep = solve(inst, datum, n)
        assert rep.final_residual < 1e-6

    def test_alpha_zero_does_not_depend_on_delta(self):
        # rho = 1 at alpha = 0: any delta gives the same bits
        inst = make_instance(0.0, 1.5, b="1", f=str(POWER_C + 1.0))
        u, rep = solve(inst, 40.0, 201)
        u_half, rep_half = solve(inst, 40.0, 201, SolverConfig(delta=0.5))
        assert np.array_equal(u.values, u_half.values)
        assert rep.truncation_rounds == rep_half.truncation_rounds > 1
        assert len(rep.iterations_per_stage) == len(rep_half.iterations_per_stage) == 1

    def test_steps_are_counted(self):
        # one truncation round of 4 Newton steps from the affine start, and
        # none when the start (u = 0 for f = 0) already solves the system
        inst = make_instance(0.0, 1.5, b="1", f="1 + 0.3*x")
        _, rep = solve(inst, 0.0, 101)
        assert rep.iterations_per_stage == (4,)
        assert rep.truncation_rounds == 1
        _, rep = solve(make_instance(0.0, 1.5, b="1", f="0"), 0.0, 101)
        assert rep.iterations_per_stage == (0,)

    def test_solutions_shift_with_boundary_datum(self):
        # u(.; L + s) = u(.; L) + s exactly (equation sees only derivatives)
        inst = make_instance(0.0, 2.0, b="1", f="-1.0")
        u5, _ = solve(inst, 5.0, 101)
        u9, _ = solve(inst, 9.0, 101)
        assert np.max(np.abs(u9.values - u5.values - 4.0)) < 1e-8


class TestFailureModes:
    def test_below_threshold_raises(self):
        # f = -5 is far below the solvability threshold -pi^2/4 on (-1,1):
        # the last truncation retry finds no descent step from its start
        inst = make_instance(0.0, 2.0, b="1", f="-5.0")
        with pytest.raises(NonConvergence, match=(
                r"^newton line search failed at delta=0\.0009765625: no step lowers "
                r"the residual 3\.015e\+03 after 0 steps$")):
            solve(inst, 10.0, 201)

    def test_stall_raises(self):
        # beta < 1 at alpha < 0: the first truncation round (M = 1) of the
        # BetaBelowOne solve on 81 nodes creeps at the one delta and never
        # halves its residual; the solve then falls back to the continuation
        system = _System(make_instance(-0.3, 0.9, b="1", f="1"), interval_grid(81),
                         SolverConfig())
        system.m_level = 1.0
        with pytest.raises(NonConvergence, match=(
                r"^newton stalled at delta=0\.0009765625: residual 1\.187e-01 after 20 "
                r"steps, not halved from 1\.250e-01 in the last 20$")):
            _run_newton(system, np.zeros(81))

    def test_failed_line_search_restores_c(self, monkeypatch):
        # a bordered run takes its first step whole; when every trial of the
        # second is non-finite, the run ends with c where the first step left it
        evaluate, shifts = _System.evaluate, []

        def failing(self, u):
            ev = evaluate(self, u)
            shifts.append(self.c)
            return ev if len(shifts) <= 2 else replace(ev, res=ev.res * math.nan)

        monkeypatch.setattr(_System, "evaluate", failing)
        system = _System(make_instance(0.0, 2.0), interval_grid(21), SolverConfig())
        system.set_c(-2.0)
        with pytest.raises(NonConvergence, match=(
                r"^newton line search failed at delta=0\.0009765625: no step lowers "
                r"the residual \S+ after 1 steps$")):
            _run_newton(system, np.full(21, 3.0), border=(9,))
        assert len(shifts) == 2 + 25
        assert shifts[1] != -2.0 and system.c == shifts[1]

    def test_invalid_config_rejected(self):
        from ergopde import OutOfRange
        for delta in (0.0, -0.5, math.inf, math.nan):
            with pytest.raises(OutOfRange):
                SolverConfig(delta=delta)
        for inner_tol in (0.0, math.inf, math.nan):
            with pytest.raises(OutOfRange):
                SolverConfig(inner_tol=inner_tol)

    @pytest.mark.parametrize("fault", ["nan-band", "inf-rhs", "singular"])
    def test_tridiagonal_solve_failures_raise(self, monkeypatch, fault):
        # in 1D solve_banded raises ValueError on a non-finite band or
        # right-hand side and LinAlgError on a singular band; the Newton
        # run reports either
        jacobian, solve_linear = _System.jacobian, _System.solve
        if fault == "inf-rhs":
            monkeypatch.setattr(_System, "solve", lambda self, ev, rhs:
                                solve_linear(self, ev, rhs + math.inf))
        else:
            scale = math.nan if fault == "nan-band" else 0.0
            monkeypatch.setattr(_System, "jacobian", lambda self, ev:
                                scale * jacobian(self, ev))
        with pytest.raises(NonConvergence, match=(
                r"^newton linear solve failed at delta=0\.0009765625: ")) as info:
            solve(make_instance(0.0, 1.5, b="1", f="1"), 0.0, 21)
        cause = np.linalg.LinAlgError if fault == "singular" else ValueError
        assert type(info.value.__cause__) is cause
