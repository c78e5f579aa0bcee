"""Discrete Dirichlet solver for -|grad u|^a F(D2 u) + b|grad u|^b = f.

The gradient degeneracy is regularized at one delta > 0 (none is needed
at alpha = 0, where rho = 1; at alpha != 0 a failed solve is retried as a
continuation in delta), and one engine, a semismooth Newton iteration
(Howard's policy iteration for the max-type operators), solves the
regularized system

    -F(D2 u) + eps |u|^alpha u
        = (f + eps |u|^alpha u - b min(|grad u|, M)^beta) rho,
    rho = (delta^2 + |grad u|^2)^(-alpha/2),

with the Hamiltonian clamped at a truncation level M, raised until no node
reaches it, for every operator in 1D and 2D.  F enters the Jacobian
through its policy at the current Hessian (`operators.policy_1d`,
`operators.policy_2d`).  The stencils are written once over the axes,
from each node's neighbours along it; only the d_xy stencil, the packing
of the Jacobian and the linear solve differ between the dimensions:
banded in 1D, a sparse 9-point CSC matrix in 2D, filled through a
pattern cached per grid shape.  The system and F's policy are evaluated
once per iterate (`_System.evaluate`), on raw value arrays and from the
stencils of `grid`; the Jacobian and the Newton step read that record,
and a solve reports the residual of the system it converged on.
`residual_field` is the residual of the original equation.
"""

from __future__ import annotations

import functools
import math
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass, replace

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import operators
from .errors import InvalidBoundary, NonConvergence, OutOfRange
from .grid import GridFunction, UniformGrid, gradient_field, hessian_field
from .model import EquationInstance, ScalarField

_GRAD_FLOOR = 1e-14
_DELTA_FLOOR = 1e-8
_U_FLOOR = 1e-6
# stabilization eps = _EPS_SCALE * (1 + |f|_inf).  Every solve converges
# without it, but at alpha = 1 (-|u'| u'' = 1, zero data) the observed
# orders on 129/257/513 nodes then fall from >= 1 to 0.97 and 0.98.
_EPS_SCALE = 1e-3
# Newton steps without halving the residual that stall a run.  Converging
# runs halve it within 6 steps in the tests, workloads and demos (16 inside
# solves that fail).
_STALL_STEPS = 20
_MAX_TRUNCATION_ROUNDS = 400


# ---------------------------------------------------------------------------
# configuration and report


@dataclass(frozen=True)
class SolverConfig:
    """Regularization delta, Newton residual tolerance and Peclet switch."""

    delta: float = 2.0**-10
    inner_tol: float = 1e-8
    peclet_threshold: float = 0.5  # inf -> centered, -inf -> Godunov everywhere

    def __post_init__(self):
        if not (math.isfinite(self.delta) and self.delta > 0.0):
            raise OutOfRange("delta must be positive and finite")
        if not (math.isfinite(self.inner_tol) and self.inner_tol > 0.0):
            raise OutOfRange("inner_tol must be positive and finite")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one converged Dirichlet solve (a failed one raises)."""

    final_residual: float
    iterations_per_stage: tuple  # Newton steps per delta of the last truncation round
    truncation_M: float
    truncation_rounds: int

    def to_dict(self) -> dict:
        return asdict(self)


# ---------------------------------------------------------------------------
# pointwise pieces


def _signed_power(u: np.ndarray, alpha: float) -> np.ndarray:
    """|u|^alpha * u, continuously extended by 0 at u = 0 for alpha > -1."""
    if alpha == 0.0:
        return u
    return np.sign(u) * np.abs(u) ** (1.0 + alpha)


def _regularization_factor(gmag: np.ndarray, delta: float, alpha: float):
    """(delta^2 + |g|^2)^(-alpha/2); the scalar 1.0 when alpha = 0."""
    if alpha == 0.0:
        return 1.0
    return (delta**2 + gmag**2) ** (-0.5 * alpha)


def _gradient_power(gmag, alpha: float):
    """|g|^alpha with the floored magnitude for alpha < 0 near g = 0."""
    gmag = np.asarray(gmag, dtype=float)
    if alpha == 0.0:
        return np.ones_like(gmag)
    if alpha > 0.0:
        return gmag**alpha
    reg = np.sqrt(_DELTA_FLOOR**2 + gmag**2)
    mag = np.where(gmag < _GRAD_FLOOR, reg, np.maximum(gmag, _GRAD_FLOOR))
    return mag**alpha


def _eval_f_hessian(spec, hess_components) -> tuple:
    """(F, F's Howard policy) at the second differences, the policy computed once."""
    if len(hess_components) == 1:
        t, = hess_components
        policy = operators.policy_1d(spec, t)
        return operators.eval_second_derivative_1d(spec, t, policy), policy
    policy = operators.policy_2d(spec, *hess_components)
    return operators.eval_hessian_2d(spec, *hess_components, policy), policy


def _interior_coords(grid: UniformGrid) -> tuple:
    inner = (slice(1, -1),) * grid.dim
    return tuple(c[inner] for c in grid.coords())


def _max_axis_slope(u: np.ndarray, h: tuple) -> float:
    """Largest one-sided difference quotient |D_k u| on any axis k.

    The discrete Lipschitz constant in 1D; in 2D within a factor sqrt(2)
    of the pairwise one, at O(n) cost instead of O(n^2).
    """
    return max(float(np.abs(np.diff(u, axis=k)).max()) / hk for k, hk in enumerate(h))


@functools.cache
def _neighbour_slices(ndim: int) -> tuple:
    """Per axis, the index tuples of the (lower, centre, upper) interior views."""
    inner = (slice(1, -1),) * ndim
    return tuple((inner[:k] + (slice(None, -2),) + inner[k + 1:], inner,
                  inner[:k] + (slice(2, None),) + inner[k + 1:]) for k in range(ndim))


def _axis_neighbours(u: np.ndarray) -> list:
    """Per axis, the (lower, centre, upper) values on the interior of u."""
    return [(u[lo], u[c], u[hi]) for lo, c, hi in _neighbour_slices(u.ndim)]


def _one_sided_slopes(nbrs: list, h: tuple) -> list:
    """Per axis, the backward and forward slopes (D-u, D+u)."""
    return [((c - lo) / hk, (hi - c) / hk) for (lo, c, hi), hk in zip(nbrs, h)]


def _norm(parts: list) -> np.ndarray:
    """Euclidean norm of nonnegative per-axis parts: the part itself in 1D."""
    return functools.reduce(np.hypot, parts)


def _centered_magnitude(grad: tuple) -> np.ndarray:
    """|grad u| from the centered slopes `grid.gradient_field(u, h)`."""
    return _norm([np.abs(g) for g in grad])


def _rms_magnitude(nbrs: list, h: tuple) -> np.ndarray:
    """Root-mean-square of the one-sided slopes, given `_axis_neighbours(u)`.

    Used in place of the centered magnitude inside the degenerate factor
    when alpha != 0: the centered difference vanishes identically at a
    smooth extremum, which would turn an integrable |grad u|^(-alpha)
    singularity into an O(h/delta) point defect.  The RMS form is smooth
    in u, second-order accurate away from extrema, and positive at them.
    """
    squares = [0.5 * (back**2 + fwd**2) for back, fwd in _one_sided_slopes(nbrs, h)]
    return np.sqrt(functools.reduce(np.add, squares))


def _godunov(back: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """max(D-, -D+, 0), the upwind one-dimensional slope."""
    return np.maximum(np.maximum(back, -fwd), 0.0)


def _upwind_magnitude(nbrs: list, h: tuple) -> np.ndarray:
    """Monotone (Rouy-Tourin) gradient magnitude, given `_axis_neighbours(u)`."""
    return _norm([_godunov(back, fwd) for back, fwd in _one_sided_slopes(nbrs, h)])


# ---------------------------------------------------------------------------
# residual of the original equation


def residual_field(instance: EquationInstance, u: GridFunction) -> np.ndarray:
    """Interior residual -|grad u|^alpha F(D2 u) + b|grad u|^beta - f."""
    grid = u.grid
    alpha = instance.exponents.alpha
    beta = instance.exponents.beta
    gmag = _centered_magnitude(gradient_field(u.values, grid.spacing))
    fvals, _ = _eval_f_hessian(instance.operator, hessian_field(u.values, grid.spacing))
    ic = _interior_coords(grid)
    return (
        -_gradient_power(gmag, alpha) * fvals
        + instance.b(*ic) * gmag**beta
        - instance.f(*ic)
    )


# ---------------------------------------------------------------------------
# the regularized system and its semismooth Newton (Howard) iteration


@functools.lru_cache(maxsize=16)
def _csc_pattern(shape: tuple, offsets: tuple) -> tuple:
    """(take, indices, indptr): the CSC form of a 2D stencil on `shape` nodes.

    The stencil's coefficient arrays, stacked in the order of `offsets`
    ((di, dj) pairs) and raveled, give the matrix's data as
    `stacked.ravel()[take]`; node (i, j) couples to node (i + di, j + dj),
    in C order, and couplings that leave the interior nodes (off the grid
    or across the end of a row) are not stored.  The row indices ascend
    within each column.  The arrays are read-only, as they are shared.
    """
    mx, my = shape
    i, j = np.indices(shape).reshape(2, -1)
    rows, cols, take = [], [], []
    for k, (di, dj) in enumerate(offsets):
        keep = (0 <= i + di) & (i + di < mx) & (0 <= j + dj) & (j + dj < my)
        row = (i * my + j)[keep]
        rows.append(row)
        cols.append(row + di * my + dj)
        take.append(k * mx * my + row)
    rows, cols, take = (np.concatenate(a) for a in (rows, cols, take))
    order = np.lexsort((rows, cols))  # by column, then by row
    indptr = np.concatenate(([0], np.cumsum(np.bincount(cols, minlength=mx * my))))
    pattern = (take[order], rows[order].astype(np.int32), indptr.astype(np.int32))
    for a in pattern:
        a.setflags(write=False)
    return pattern


@dataclass(frozen=True)
class _Evaluation:
    """The regularized system at one iterate u (full array), from `_System.evaluate`.

    `nbrs` is `_axis_neighbours(u)`, `grad` the centered slopes (alpha = 0
    only, else None), `hess` the second differences and `policy` F's
    policy there (`operators.policy_1d` or `policy_2d`); gmag is the
    Peclet-selected magnitude, `upwind` its Godunov mask, rho the
    regularization factor, t_m = min(gmag, M), p the lower-order part
    f + c + eps |u|^alpha u - b t_m^beta, and res the residual.
    """

    u: np.ndarray
    nbrs: list
    grad: tuple | None
    hess: tuple
    policy: np.ndarray | tuple
    gmag: np.ndarray
    upwind: np.ndarray
    rho: np.ndarray | float
    t_m: np.ndarray
    p: np.ndarray
    res: np.ndarray


class _System:
    """The regularized system of one solve: its residual and semismooth Jacobian.

    It evaluates f, b and the stabilization eps on the interior nodes and
    sets the constants (delta, spacing, h^2, |b| beta, the diffusion floor)
    once; the driver sets the truncation level m_level per round and the
    shift c (`set_c`), by default no truncation and c = 0.  `evaluate`
    computes the system at an iterate once; the Jacobian, the c column and
    the Newton steps read its record.
    """

    def __init__(self, instance, grid, config):
        self.instance = instance
        self.config = config
        ic = _interior_coords(grid)
        self.f_base, self.b_int = instance.f(*ic), instance.b(*ic)
        self.eps = _EPS_SCALE * (1.0 + float(np.abs(self.f_base).max()))
        self.delta = config.delta
        self.m_level = math.inf
        self.set_c(0.0)
        self.alpha = instance.exponents.alpha
        self.beta = instance.exponents.beta
        self.h = grid.spacing
        self.h2 = tuple(s**2 for s in self.h)
        self.h_min = min(self.h)
        self.b_beta = np.abs(self.b_int) * self.beta
        self.two_floor = 2.0 * instance.operator.bounds.a

    def set_c(self, c: float) -> None:
        """Shift the source term: the system is solved with f + c."""
        self.c = c
        self.f_int = self.f_base + c if c else self.f_base

    def interior(self, u_full):
        return u_full[(slice(1, -1),) * u_full.ndim]

    def evaluate(self, u_full) -> _Evaluation:
        """The regularized system at u (full array), computed once.

        The smooth (centered / one-sided RMS) magnitude is second-order
        accurate but loses the discrete maximum principle once the local
        cell Peclet number q h / (2 a) of the linearized Hamiltonian
        exceeds ~1; at such nodes the monotone Godunov magnitude
        max(D-, -D+, 0) is used instead.
        """
        nbrs = _axis_neighbours(u_full)
        grad = None
        if self.alpha != 0.0:
            g_c = _rms_magnitude(nbrs, self.h)
        else:
            grad = gradient_field(u_full, self.h)
            g_c = _centered_magnitude(grad)
        t_mc = np.minimum(g_c, self.m_level)
        # 0^(beta-1) = inf for beta < 1, and 0 * inf = nan where b = 0
        with np.errstate(divide="ignore", invalid="ignore") if self.beta < 1.0 \
                else nullcontext():
            tpow = t_mc ** (self.beta - 1.0)
            q = self.b_beta * tpow * _regularization_factor(g_c, self.delta, self.alpha)
        upwind = q * self.h_min / self.two_floor > self.config.peclet_threshold
        gmag = np.where(upwind, _upwind_magnitude(nbrs, self.h), g_c) \
            if upwind.any() else g_c
        rho = _regularization_factor(gmag, self.delta, self.alpha)
        t_m = np.minimum(gmag, self.m_level)
        es = self.eps * _signed_power(self.interior(u_full), self.alpha)
        p = self.f_int + es - self.b_int * t_m**self.beta
        hess = hessian_field(u_full, self.h)
        fvals, policy = _eval_f_hessian(self.instance.operator, hess)
        res = es - fvals - p * rho
        return _Evaluation(u_full, nbrs, grad, hess, policy, gmag, upwind, rho, t_m, p,
                           res)

    def _lower_order_slopes(self, ev: _Evaluation) -> tuple:
        """(q, dstab): the slopes of the residual's first-order part.

        q is its derivative in the gradient magnitude (Hamiltonian and
        regularization factor), dstab its derivative in the node value; at
        alpha = 0, where rho = 1, only the Hamiltonian's slope is left.
        """
        gmag, rho = ev.gmag, ev.rho
        with np.errstate(divide="ignore") if self.beta < 1.0 else nullcontext():
            tpow = ev.t_m ** (self.beta - 1.0)
        if self.beta < 1.0:
            tpow[ev.t_m == 0.0] = 0.0  # the semismooth slope at g = 0, as sign(0) = 0
        q = self.b_int * self.beta * tpow * (gmag < self.m_level) * rho
        if self.alpha == 0.0:
            return q, 0.0
        q = q + ev.p * self.alpha * gmag / (self.delta**2 + gmag**2) * rho
        mag = np.maximum(np.abs(self.interior(ev.u)), _U_FLOOR)
        dstab = self.eps * (1.0 + self.alpha) * mag**self.alpha * (1.0 - rho)
        return q, dstab

    def _magnitude_weights(self, ev: _Evaluation) -> list:
        """Per axis, gmag * (d gmag / d D-u, d gmag / d D+u) on the active branch.

        Centered: half the centered slope for both; RMS (alpha != 0): half
        the one-sided slopes; at masked nodes the Godunov slope G on the
        selected one-sided slope.  Where G = 0 both weights are 0, an element
        of the generalized gradient of max(D-, -D+, 0) there.
        """
        weights = []
        for k, ((lo, c, hi), h) in enumerate(zip(ev.nbrs, self.h)):
            back, fwd = (c - lo) / h, (hi - c) / h
            if ev.grad is None:
                wb, wf = 0.5 * back, 0.5 * fwd
            else:
                wb = wf = 0.5 * ev.grad[k]
            if ev.upwind.any():
                back_sel = (back >= -fwd) & (back >= 0.0)
                fwd_sel = ~back_sel & (-fwd >= 0.0)
                god = _godunov(back, fwd)
                wb = np.where(ev.upwind, god * back_sel, wb)
                wf = np.where(ev.upwind, -god * fwd_sel, wf)
            weights.append((wb, wf))
        return weights

    def jacobian(self, ev: _Evaluation):
        """Semismooth Jacobian of the residual.

        One {offset: coefficient} stencil on the interior nodes: F through
        its Howard policy at the current Hessian, the gradient magnitude
        through the chain rule of its active branch, and the stabiliser's
        slope.  Packed as the (3, n) band of `scipy.linalg.solve_banded`
        in 1D, and as a sparse 9-point CSC matrix on the interior nodes in
        C order in 2D, filled through `_csc_pattern` and without its zero
        entries.
        """
        ndim = ev.u.ndim
        if ndim == 1:
            axis_coefs = (ev.policy,)
        else:
            cxx, cxy, cyy = ev.policy
            axis_coefs = (cxx, cyy)
        q, dstab = self._lower_order_slopes(ev)
        centre = (0,) * ndim
        steps = [tuple(int(i == k) for i in range(ndim)) for k in range(ndim)]
        axes = [(tuple(-i for i in e), e) for e in steps]  # (lower, upper) offsets
        stencil = {centre: 0.0}
        for (lo, hi), c, h2 in zip(axes, axis_coefs, self.h2):
            stencil[centre] = stencil[centre] + 2.0 * c / h2
            stencil[hi] = stencil[lo] = -c / h2
        if ndim == 2:  # the d_xy corners: -F's weight is -2 cxy / (4 hx hy)
            kxy = cxy / (2.0 * self.h[0] * self.h[1])
            stencil.update({(1, 1): -kxy, (-1, -1): -kxy, (1, -1): kxy, (-1, 1): kxy})
        stencil[centre] = stencil[centre] + dstab
        safe = np.maximum(ev.gmag, _GRAD_FLOOR)  # the weights vanish with gmag
        d_centre = 0.0
        for (lo, hi), (wb, wf), h in zip(axes, self._magnitude_weights(ev), self.h):
            stencil[lo] = stencil[lo] - q * (wb / safe / h)
            stencil[hi] = stencil[hi] + q * (wf / safe / h)
            d_centre = d_centre + (wb - wf) / safe / h
        stencil[centre] = stencil[centre] + q * d_centre
        if ndim == 1:
            ab = np.zeros((3, ev.gmag.size))
            ab[0, 1:] = stencil[(1,)][:-1]
            ab[1] = stencil[centre]
            ab[2, :-1] = stencil[(-1,)][1:]
            return ab
        n = ev.gmag.size
        take, indices, indptr = _csc_pattern(ev.gmag.shape, tuple(stencil))
        stacked = np.stack(tuple(stencil.values()))
        # copies: csc_matrix shares the index arrays and eliminate_zeros
        # compacts them in place
        jac = scipy.sparse.csc_matrix((stacked.ravel()[take], indices.copy(),
                                       indptr.copy()), shape=(n, n))
        jac.eliminate_zeros()
        return jac

    def c_column(self, ev: _Evaluation):
        """dR/dc = -rho, the column of the shift c in the bordered Jacobian."""
        return np.broadcast_to(-ev.rho, self.f_base.shape)

    def bordered_step(self, ev: _Evaluation, border) -> tuple:
        """(du, dc) with J du + (dR/dc) dc = -res and du(x0) = -u(x0), x0 = border.

        J y = -res and J z = dR/dc share one factorization; then
        dc = (y(x0) + u(x0)) / z(x0) and du = y - z dc.
        """
        yz = self.solve(ev, np.stack([-ev.res, self.c_column(ev)], -1))
        y, z = yz[..., 0], yz[..., 1]
        dc = (y[border] + self.interior(ev.u)[border]) / z[border]
        return y - z * dc, float(dc)

    def solve(self, ev: _Evaluation, rhs):
        """Solve J d = rhs for one interior array or a stack of them (last axis)."""
        jac = self.jacobian(ev)
        if ev.u.ndim == 1:
            return scipy.linalg.solve_banded((1, 1), jac, rhs)
        with warnings.catch_warnings():  # a singular matrix gives NaN, tested below
            warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
            d = scipy.sparse.linalg.spsolve(jac, rhs.reshape(jac.shape[0], -1))
        if not np.all(np.isfinite(d)):
            raise np.linalg.LinAlgError("singular or non-finite sparse system")
        return d.reshape(rhs.shape)


def _rms_norm(r: np.ndarray) -> float:
    """|r|_2 / sqrt(size); the 2-norm is sqrt(r.r), as np.linalg.norm takes it."""
    r = r.ravel()
    return math.sqrt(r.dot(r)) / math.sqrt(r.size)


def _run_newton(system: _System, u_full, border=None) -> tuple:
    """Semismooth Newton (Howard's policy iteration) on the regularized system.

    Globalized by an Armijo line search on the l2 residual norm alone: a
    run whose 25 step halvings all fail to lower the residual ends there,
    as solving again would give the same direction.  Convergence is
    declared on the residual norm (scaled by the data), never on the
    update size alone, and checked at the start and after each step.  No
    step budget: the run stalls once `_STALL_STEPS` steps pass without the
    residual norm halving again (the progress tests of Deuflhard and of
    Kelley).
    Returns (evaluation, steps): the `_Evaluation` of the converged
    iterate, whose residual met the tolerance, and the number of Newton
    steps taken, 0 when the start already met it.

    With `border`, an interior index x0, the system is bordered (Keller):
    the shift c of f (`system.c`) is one more unknown and u(x0) = 0 one more
    equation (`_System.bordered_step`).  The first step is taken whole: from
    a predictor that solves the system, it is the tangent step, and the
    halvings count from where it lands.
    """
    config = system.config
    big_a = system.instance.operator.bounds.A
    h2 = min(system.h2) / u_full.ndim  # sum over axes of 1/h^2 is at most dim/h_min^2
    data_tol = config.inner_tol * (1.0 + float(np.abs(system.f_int).max()))
    macheps = float(np.finfo(float).eps)

    def norm(ev):  # bordered: u(x0) is one more entry of the residual
        return _rms_norm(ev.res if border is None else
                         np.append(ev.res, system.interior(ev.u)[border]))

    dc = 0.0
    ev = system.evaluate(u_full)
    res_norm = best = norm(ev)  # best: the residual norm at the last halving
    steps = halved_at = 0
    while True:
        # the second-difference evaluation has a rounding floor ~ |u| eps/h^2
        eval_floor = 4.0 * macheps * big_a * (1.0 + float(np.abs(ev.u).max())) / h2
        if res_norm <= data_tol + eval_floor:
            return ev, steps
        if steps - halved_at == _STALL_STEPS:
            raise NonConvergence(
                f"newton stalled at delta={system.delta}: residual {res_norm:.3e} after "
                f"{steps} steps, not halved from {best:.3e} in the last {_STALL_STEPS}")
        try:
            if border is None:
                delta_u = system.solve(ev, -ev.res)
            else:
                delta_u, dc = system.bordered_step(ev, border)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergence(
                f"newton linear solve failed at delta={system.delta}: {exc}"
            ) from exc
        c = system.c
        step = 1.0
        for _ in range(25):
            trial = ev.u.copy()
            system.interior(trial)[...] += step * delta_u
            system.set_c(c + step * dc)
            trial_ev = system.evaluate(trial)
            trial_norm = norm(trial_ev)
            if math.isfinite(trial_norm) and (
                    trial_norm <= res_norm * (1.0 - 1e-4 * step)
                    or (border is not None and steps == 0)):
                break
            step *= 0.5
        else:
            system.set_c(c)
            raise NonConvergence(
                f"newton line search failed at delta={system.delta}: no step lowers "
                f"the residual {res_norm:.3e} after {steps} steps")
        steps += 1
        ev, res_norm = trial_ev, trial_norm
        # strict, so a zero residual is never progress; a bordered run
        # counts from where its whole first step lands
        if res_norm < 0.5 * best or (border is not None and steps == 1):
            best, halved_at = res_norm, steps


# ---------------------------------------------------------------------------
# driver


def _boundary_values_full(grid: UniformGrid, boundary: ScalarField) -> np.ndarray:
    vals = np.zeros(grid.shape)
    coords = grid.coords()
    mask = grid.boundary_mask()
    pts = [c[mask] for c in coords]
    bvals = boundary(*pts)
    if not np.all(np.isfinite(bvals)):
        raise InvalidBoundary("boundary datum is non-finite on some node")
    vals[mask] = bvals
    return vals


def _initial_guess(grid: UniformGrid, boundary_full: np.ndarray) -> np.ndarray:
    """Fill of the boundary data: affine in 1D, the bilinear Coons patch in 2D.

    The Coons patch (transfinite interpolation) is the Boolean sum of the
    linear interpolations across each axis, P_x + P_y (I - P_x): it matches
    the data on all four sides and reproduces bilinear functions, with no
    solve.
    """
    u = boundary_full.copy()
    if grid.dim == 1:
        u[:] = np.linspace(boundary_full[0], boundary_full[-1], grid.shape[0])
        return u
    sx, sy = (np.linspace(0.0, 1.0, n) for n in grid.shape)
    sx, sy = sx[:, None], sy[None, :]
    across_x = (1.0 - sx) * u[:1] + sx * u[-1:]
    rest = u - across_x  # zero on the sides x = lo, hi
    coons = across_x + (1.0 - sy) * rest[:, :1] + sy * rest[:, -1:]
    u[1:-1, 1:-1] = coons[1:-1, 1:-1]
    return u


def _solve_round(system: _System, u_full) -> tuple:
    """One truncation round: Newton at `config.delta` from u_full.

    At alpha != 0 a failed solve is retried as a continuation through
    delta = 1, 1/2, 1/4, ... down to `config.delta`, each delta
    warm-started from the last: at alpha < 0 and small delta the
    single-delta Newton run plateaus (its steps grow like delta^(-1/2))
    and stalls.  Returns (evaluation, Newton steps per delta solved).
    """
    delta = system.delta = system.config.delta
    try:
        ev, steps = _run_newton(system, u_full)
        return ev, (steps,)
    except NonConvergence:
        if system.alpha == 0.0 or delta >= 1.0:
            raise
    steps = []
    for k in range(math.ceil(-math.log2(delta)) + 1):
        system.delta = max(2.0**-k, delta)
        ev, its = _run_newton(system, u_full)
        u_full = ev.u
        steps.append(its)
    return ev, tuple(steps)


def solve_dirichlet(
    instance: EquationInstance,
    boundary: ScalarField,
    grid: UniformGrid,
    config: SolverConfig | None = None,
) -> tuple:
    """Solve the Dirichlet problem at `config.delta`, raising the truncation M.

    Each truncation round is one Newton solve (`_solve_round`, with its
    delta continuation as a fallback at alpha != 0).  Returns (solution
    GridFunction, SolveReport).  Raises NonConvergence if a round cannot be
    completed.
    """
    config = config or SolverConfig()
    u_full = _initial_guess(grid, _boundary_values_full(grid, boundary))
    system = _System(instance, grid, config)
    m_level = max(1.0, 2.0 * _max_axis_slope(u_full, grid.spacing))
    rounds = 0
    growth = 2.0  # truncation continuation factor; shrunk on failures
    last_good = None  # (u_full, m_level) of the last completed round
    while True:
        rounds += 1
        system.m_level = m_level
        try:
            ev, steps = _solve_round(system, u_full)
        except NonConvergence:
            # retry the truncation continuation with a gentler growth factor
            if last_good is None or growth <= 1.05:
                raise
            growth = 1.0 + 0.5 * (growth - 1.0)
            u_full, prev_m = last_good
            m_level = growth * prev_m
            continue
        u_full = ev.u
        if not (ev.gmag >= m_level).any():  # the magnitude the clamp acts on
            break
        if rounds >= _MAX_TRUNCATION_ROUNDS:
            raise NonConvergence(
                f"truncation level still active after {rounds} rounds "
                f"(M = {m_level:.3g})"
            )
        last_good = (u_full, m_level)
        m_level = growth * max(_max_axis_slope(u_full, grid.spacing), m_level)

    report = SolveReport(
        final_residual=float(np.abs(ev.res).max()),
        iterations_per_stage=steps,
        truncation_M=m_level,
        truncation_rounds=rounds,
    )
    return GridFunction(grid, u_full), report


def solve_bordered(instance, guess: GridFunction, c: float, probe, config=None) -> tuple:
    """Newton on the pair (u, c) of the regularized system with f + c.

    The boundary values of `guess` are the data, u(probe) = 0 is the extra
    equation; the scheme is centered and the truncation off.  Returns
    (u, c, Newton steps).
    """
    config = replace(config or SolverConfig(), peclet_threshold=math.inf)
    system = _System(instance, guess.grid, config)
    system.set_c(c)
    border = tuple(int(i) - 1 for i in probe)
    ev, its = _run_newton(system, guess.values.copy(), border)
    return GridFunction(guess.grid, ev.u), system.c, its
