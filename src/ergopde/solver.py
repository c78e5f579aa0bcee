"""Discrete Dirichlet solver for -|grad u|^a F(D2 u) + b|grad u|^b = f.

The gradient degeneracy is removed by a continuation over a decreasing
schedule of regularization parameters delta; at each stage one engine, a
semismooth Newton iteration (Howard's policy iteration for the max-type
operators), solves the stage system

    -F(D2 u) + eps |u|^alpha u
        = (f + eps |u|^alpha u - b min(|grad u|, M)^beta) rho,
    rho = (delta^2 + |grad u|^2)^(-alpha/2),

with the Hamiltonian clamped at a truncation level M, for every operator
in 1D and 2D.  F enters the Jacobian through its policy at the current
Hessian (`operators.policy_1d`, `operators.policy_2d`); only the linear
solve differs between the dimensions: banded in 1D, a sparse 9-point
matrix in 2D.  The stage system is evaluated on raw value arrays, with
the constants of each stage computed once.
"""

from __future__ import annotations

import math
import warnings
from contextlib import nullcontext
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import operators
from .errors import (
    BoundaryNode,
    InvalidBoundary,
    NonConvergence,
    OutOfRange,
    PreconditionViolated,
)
from .grid import GridFunction, UniformGrid, gradient, hessian, hessian_field, \
    lipschitz_seminorm
from .model import EquationInstance, ScalarField

_GRAD_FLOOR = 1e-14
_DELTA_FLOOR = 1e-8
_U_FLOOR = 1e-6


# ---------------------------------------------------------------------------
# configuration and report


def default_delta_schedule() -> tuple:
    return tuple(2.0**-k for k in range(11))


@dataclass(frozen=True)
class SolverConfig:
    """Continuation ladder, truncation, upwinding and tolerances."""

    delta_schedule: tuple = field(default_factory=default_delta_schedule)
    epsilon_stab: float | None = None  # None -> 1e-3 * (1 + |f|_inf)
    truncation_M: float | str = "auto"
    theta: float = 0.5  # read by ergodic.verify_uniqueness, not by the solver
    inner_tol: float = 1e-8
    max_inner_iters: int = 400
    upwind: bool = False
    peclet_threshold: float = 0.5  # inf -> centered scheme everywhere
    divergence_guard: float = 1e9
    max_truncation_rounds: int = 400

    def __post_init__(self):
        sched = tuple(float(d) for d in self.delta_schedule)
        if len(sched) == 0 or any(d <= 0.0 for d in sched):
            raise OutOfRange("delta schedule must be nonempty and positive")
        if any(b >= a for a, b in zip(sched, sched[1:])):
            raise OutOfRange("delta schedule must be strictly decreasing")
        object.__setattr__(self, "delta_schedule", sched)
        if self.inner_tol <= 0.0:
            raise OutOfRange("inner_tol must be positive")
        if not (0.0 < self.theta <= 1.0):
            raise OutOfRange("theta must lie in (0, 1]")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Dirichlet solve."""

    converged: bool
    final_residual: float
    iterations_per_stage: tuple
    truncation_activity: float
    truncation_M: float
    delta_stability: float
    truncation_rounds: int

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "final_residual": self.final_residual,
            "iterations_per_stage": list(self.iterations_per_stage),
            "truncation_activity": self.truncation_activity,
            "truncation_M": self.truncation_M,
            "delta_stability": self.delta_stability,
            # constant keys, kept so that report.json keeps its schema
            "engine": "newton",
            "theta_final": 1.0,
            "fallback_used": False,
            "truncation_rounds": self.truncation_rounds,
        }


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


def _eval_f_hessian(spec, hess_components):
    if len(hess_components) == 1:
        return operators.eval_second_derivative_1d(spec, hess_components[0])
    return operators.eval_hessian_2d(spec, *hess_components)


def _interior_coords(grid: UniformGrid) -> tuple:
    coords = grid.coords()
    if grid.dim == 1:
        return (coords[0][1:-1],)
    return (coords[0][1:-1, 1:-1], coords[1][1:-1, 1:-1])


def _centered_magnitude(u: np.ndarray, h: tuple) -> np.ndarray:
    """|grad u| from centered differences on the interior of a raw array."""
    if u.ndim == 1:
        return np.abs((u[2:] - u[:-2]) / (2.0 * h[0]))
    return np.hypot(
        (u[2:, 1:-1] - u[:-2, 1:-1]) / (2.0 * h[0]),
        (u[1:-1, 2:] - u[1:-1, :-2]) / (2.0 * h[1]),
    )


def _onesided_slopes_1d(u: np.ndarray, h: float) -> tuple:
    back = (u[1:-1] - u[:-2]) / h
    fwd = (u[2:] - u[1:-1]) / h
    return back, fwd


def _rms_magnitude(u: np.ndarray, h: tuple) -> np.ndarray:
    """Root-mean-square of the one-sided slopes on the interior.

    Used in place of the centered magnitude inside the degenerate factor
    when alpha != 0: the centered difference vanishes identically at a
    smooth extremum, which would turn an integrable |grad u|^(-alpha)
    singularity into an O(h/delta) point defect.  The RMS form is smooth
    in u, second-order accurate away from extrema, and positive at them.
    """
    if u.ndim == 1:
        back, fwd = _onesided_slopes_1d(u, h[0])
        return np.sqrt(0.5 * (back**2 + fwd**2))
    ui = u[1:-1, 1:-1]
    gx2 = 0.5 * (
        ((ui - u[:-2, 1:-1]) / h[0]) ** 2 + ((u[2:, 1:-1] - ui) / h[0]) ** 2
    )
    gy2 = 0.5 * (
        ((ui - u[1:-1, :-2]) / h[1]) ** 2 + ((u[1:-1, 2:] - ui) / h[1]) ** 2
    )
    return np.sqrt(gx2 + gy2)


def _godunov(back: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """max(D-, -D+, 0), the upwind one-dimensional slope."""
    return np.maximum(np.maximum(back, -fwd), 0.0)


def _upwind_magnitude(u: np.ndarray, h: tuple) -> np.ndarray:
    """Monotone (Rouy-Tourin) gradient magnitude on the interior."""
    if u.ndim == 1:
        return _godunov(*_onesided_slopes_1d(u, h[0]))
    ui = u[1:-1, 1:-1]
    gx = _godunov((ui - u[:-2, 1:-1]) / h[0], (u[2:, 1:-1] - ui) / h[0])
    gy = _godunov((ui - u[1:-1, :-2]) / h[1], (u[1:-1, 2:] - ui) / h[1])
    return np.hypot(gx, gy)


# ---------------------------------------------------------------------------
# residual of the original equation


def residual_field(instance: EquationInstance, u: GridFunction) -> np.ndarray:
    """Interior residual -|grad u|^alpha F(D2 u) + b|grad u|^beta - f."""
    grid = u.grid
    alpha = instance.exponents.alpha
    beta = instance.exponents.beta
    gmag = _centered_magnitude(u.values, grid.spacing)
    fvals = _eval_f_hessian(instance.operator, hessian_field(u))
    ic = _interior_coords(grid)
    return (
        -_gradient_power(gmag, alpha) * fvals
        + instance.b(*ic) * gmag**beta
        - instance.f(*ic)
    )


def residual(instance: EquationInstance, u: GridFunction, node) -> float:
    """Residual of the original equation at one interior node."""
    grid = u.grid
    if not grid.is_interior(node):
        raise BoundaryNode(f"node {node} is not interior")
    g = gradient(u, node)
    gmag = float(np.linalg.norm(g))
    fval = operators.eval_operator(instance.operator, hessian(u, node))
    pos = grid.node_position(node)
    alpha = instance.exponents.alpha
    beta = instance.exponents.beta
    bval = float(instance.b(*pos))
    fxval = float(instance.f(*pos))
    return float(-_gradient_power(gmag, alpha) * fval + bval * gmag**beta - fxval)


# ---------------------------------------------------------------------------
# the stage system and its semismooth Newton (Howard) iteration


class _Stage:
    """One continuation stage: its residual and its semismooth Jacobian.

    The constants (spacing, h^2, |b| beta, the diffusion floor) are set
    once; the methods take their stencils straight from the value array.
    `fields` holds f and b on the interior nodes, which a solve evaluates once.
    """

    def __init__(self, instance, grid, eps, m_level, delta, config, fields):
        self.instance = instance
        self.grid = grid
        self.eps = eps
        self.m_level = m_level
        self.delta = delta
        self.config = config
        self.f_int, self.b_int = fields
        self.alpha = instance.exponents.alpha
        self.beta = instance.exponents.beta
        self.h = grid.spacing
        self.h2 = tuple(s**2 for s in self.h)
        self.h_min = min(self.h)
        self.b_beta = np.abs(self.b_int) * self.beta
        self.two_floor = 2.0 * instance.operator.bounds.a

    def interior(self, u_full):
        return u_full[1:-1] if u_full.ndim == 1 else u_full[1:-1, 1:-1]

    def magnitudes(self, u_full) -> tuple:
        """Gradient magnitude for the Hamiltonian/degenerate factor + mask.

        The smooth (centered / one-sided RMS) magnitude is second-order
        accurate but loses the discrete maximum principle once the local
        cell Peclet number q h / (2 a) of the linearized Hamiltonian
        exceeds ~1; at such nodes the monotone Godunov magnitude
        max(D-, -D+, 0) is used instead.  Returns (gmag, upwind_mask).
        """
        if self.config.upwind:
            gmag = _upwind_magnitude(u_full, self.h)
            return gmag, np.ones(gmag.shape, dtype=bool)
        if self.alpha != 0.0:
            g_c = _rms_magnitude(u_full, self.h)
        else:
            g_c = _centered_magnitude(u_full, self.h)
        t_mc = np.minimum(g_c, self.m_level)
        # 0^(beta-1) = inf for beta < 1, and 0 * inf = nan where b = 0
        with np.errstate(divide="ignore", invalid="ignore") if self.beta < 1.0 \
                else nullcontext():
            tpow = t_mc ** (self.beta - 1.0)
            q = self.b_beta * tpow * _regularization_factor(g_c, self.delta, self.alpha)
        mask = q * self.h_min / self.two_floor > self.config.peclet_threshold
        if not mask.any():
            return g_c, mask
        return np.where(mask, _upwind_magnitude(u_full, self.h), g_c), mask

    def hessian(self, u_full) -> tuple:
        if u_full.ndim == 1:  # the second difference straight from the array
            return ((u_full[2:] - 2.0 * u_full[1:-1] + u_full[:-2]) / self.h2[0],)
        return hessian_field(GridFunction(self.grid, u_full))

    def stage_residual(self, u_full):
        """Residual of the stage system at u (interior array)."""
        gmag = self.magnitudes(u_full)[0]
        rho = _regularization_factor(gmag, self.delta, self.alpha)
        es = self.eps * _signed_power(self.interior(u_full), self.alpha)
        p = self.f_int + es - self.b_int * np.minimum(gmag, self.m_level) ** self.beta
        return es - _eval_f_hessian(self.instance.operator, self.hessian(u_full)) \
            - p * rho

    def _lower_order_slopes(self, u_full) -> tuple:
        """(gmag, upwind_mask, q, dstab): the residual's first-order part.

        q is its derivative in the gradient magnitude (Hamiltonian and
        regularization factor), dstab its derivative in the node value.
        """
        u_int = self.interior(u_full)
        gmag, upwind_mask = self.magnitudes(u_full)
        rho = _regularization_factor(gmag, self.delta, self.alpha)
        t_m = np.minimum(gmag, self.m_level)
        p = self.f_int + self.eps * _signed_power(u_int, self.alpha) \
            - self.b_int * t_m**self.beta
        with np.errstate(divide="ignore") if self.beta < 1.0 else nullcontext():
            tpow = t_m ** (self.beta - 1.0)
        if self.beta < 1.0:
            tpow[t_m == 0.0] = 0.0  # the semismooth slope at g = 0, as sign(0) = 0
        q = self.b_int * self.beta * tpow * (gmag < self.m_level) * rho
        q = q + p * self.alpha * gmag / (self.delta**2 + gmag**2) * rho
        mag = np.maximum(np.abs(u_int), _U_FLOOR)
        dstab = self.eps * (1.0 + self.alpha) * mag**self.alpha * (1.0 - rho)
        return gmag, upwind_mask, q, dstab

    def jacobian_1d(self, u_full, lam=0.0):
        """Semismooth Jacobian of the stage residual, plus lam on the diagonal.

        F enters through its Howard policy at the current Hessian, the
        gradient magnitude through its active branch.  1D: the (3, n) band
        of `scipy.linalg.solve_banded`.
        """
        h = self.h[0]
        h2 = self.h2[0]
        n = u_full.size
        slope = operators.policy_1d(self.instance.operator, self.hessian(u_full)[0])
        gsig = (u_full[2:] - u_full[:-2]) / (2.0 * h)
        gmag, upwind_mask, q, dstab = self._lower_order_slopes(u_full)
        # derivative of the gradient magnitude w.r.t. the three stencil
        # values (RMS of one-sided slopes for alpha != 0, centered else)
        back, fwd = _onesided_slopes_1d(u_full, h)
        if self.alpha != 0.0:
            safe = np.maximum(gmag, _GRAD_FLOOR)
            d_up = 0.5 * fwd / (h * safe)
            d_lo = -0.5 * back / (h * safe)
            d_diag = 0.5 * (back - fwd) / (h * safe)
        else:
            sgn = np.sign(gsig)
            d_up = sgn / (2.0 * h)
            d_lo = -sgn / (2.0 * h)
            d_diag = np.zeros(n - 2)
        if upwind_mask.any():
            # Godunov branch selection: gmag = max(D-, -D+, 0)
            back_sel = (back >= -fwd) & (back >= 0.0)
            fwd_sel = ~back_sel & (-fwd >= 0.0)
            d_diag = np.where(upwind_mask, (back_sel | fwd_sel) / h, d_diag)
            d_lo = np.where(upwind_mask, -(back_sel / h), d_lo)
            d_up = np.where(upwind_mask, -(fwd_sel / h), d_up)
        ab = np.zeros((3, n - 2))
        ab[1, :] = 2.0 * slope / h2 + dstab + q * d_diag + lam
        upper = -slope / h2 + q * d_up
        lower = -slope / h2 + q * d_lo
        ab[0, 1:] = upper[:-1]
        ab[2, :-1] = lower[1:]
        return ab

    def _magnitude_slopes_2d(self, u_full, gmag, upwind_mask) -> dict:
        """d gmag / d u at the node and its four axis neighbours, by offset.

        Per axis the magnitude depends on the one-sided slopes D-u, D+u
        through weights (wb, wf) = gmag * (d gmag/d D-u, d gmag/d D+u):
        centered, RMS (alpha != 0) or, at masked nodes, the Godunov branch.
        """
        ui = u_full[1:-1, 1:-1]
        inv = 1.0 / np.maximum(gmag, _GRAD_FLOOR)  # the weights vanish with gmag
        slopes = {(0, 0): 0.0}
        neighbours = ((u_full[:-2, 1:-1], u_full[2:, 1:-1], (1, 0)),
                      (u_full[1:-1, :-2], u_full[1:-1, 2:], (0, 1)))
        for (lo, hi, (di, dj)), h in zip(neighbours, self.h):
            back, fwd = (ui - lo) / h, (hi - ui) / h
            wb, wf = (0.5 * back, 0.5 * fwd) if self.alpha != 0.0 \
                else (0.25 * (back + fwd),) * 2
            if upwind_mask.any():
                back_sel = (back >= -fwd) & (back >= 0.0)
                fwd_sel = ~back_sel & (-fwd >= 0.0)
                god = _godunov(back, fwd)
                wb = np.where(upwind_mask, god * back_sel, wb)
                wf = np.where(upwind_mask, -god * fwd_sel, wf)
            slopes[(0, 0)] = slopes[(0, 0)] + (wb - wf) * inv / h
            slopes[(-di, -dj)] = -wb * inv / h
            slopes[(di, dj)] = wf * inv / h
        return slopes

    def jacobian_2d(self, u_full, lam=0.0):
        """As `jacobian_1d`; a sparse 9-point CSC matrix on the interior nodes
        in C order."""
        (hx, hy), (hx2, hy2) = self.h, self.h2
        cxx, cxy, cyy = operators.policy_2d(self.instance.operator,
                                            *self.hessian(u_full))
        gmag, upwind_mask, q, dstab = self._lower_order_slopes(u_full)
        kxy = cxy / (2.0 * hx * hy)  # -F's corner weight is -2 cxy / (4 hx hy)
        stencil = {
            (0, 0): 2.0 * cxx / hx2 + 2.0 * cyy / hy2 + dstab + lam,
            (1, 0): -cxx / hx2, (-1, 0): -cxx / hx2, (0, 1): -cyy / hy2,
            (0, -1): -cyy / hy2, (1, 1): -kxy, (-1, -1): -kxy, (1, -1): kxy,
            (-1, 1): kxy,
        }
        for k, d in self._magnitude_slopes_2d(u_full, gmag, upwind_mask).items():
            stencil[k] = stencil[k] + q * d
        n, my = cxx.size, cxx.shape[1]
        offsets = [di * my + dj for di, dj in stencil]
        diagonals = []
        for ((di, dj), coef), k in zip(stencil.items(), offsets):
            coef = np.array(coef)
            if dj:  # no coupling across the ends of a grid row
                coef[:, -1 if dj > 0 else 0] = 0.0
            diagonals.append(coef.ravel()[: n - k] if k >= 0 else coef.ravel()[-k:])
        return scipy.sparse.diags(diagonals, offsets, shape=(n, n), format="csc")

    def newton_direction(self, u_full, res, lam):
        """Solve J d = -res for the interior update d (shape of res)."""
        if u_full.ndim == 1:
            jac = self.jacobian_1d(u_full, lam)
            return scipy.linalg.solve_banded((1, 1), jac, -res)
        jac = self.jacobian_2d(u_full, lam)
        with warnings.catch_warnings():  # a singular matrix gives NaN, tested below
            warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
            d = scipy.sparse.linalg.spsolve(jac, -res.ravel())
        if not np.all(np.isfinite(d)):
            raise np.linalg.LinAlgError("singular or non-finite sparse system")
        return d.reshape(res.shape)


def _rms_norm(r: np.ndarray) -> float:
    """|r|_2 / sqrt(size); the 2-norm is sqrt(r.r), as np.linalg.norm takes it."""
    r = r.ravel()
    return math.sqrt(r.dot(r)) / math.sqrt(r.size)


def _run_newton(stage: _Stage, u_full, config) -> tuple:
    """Semismooth Newton (Howard's policy iteration) on the stage system.

    Line search on the l2 residual norm; a Levenberg shift is added to the
    Jacobian diagonal whenever a full sweep of step halvings fails to
    reduce the residual.  Convergence is declared on the residual norm
    (scaled by the data), never on the update size alone.  Returns
    (u, iterations).
    """
    big_a = stage.instance.operator.bounds.A
    h = stage.h_min
    h2 = min(stage.h2) / u_full.ndim  # sum over axes of 1/h^2 is at most dim/h_min^2
    data_tol = config.inner_tol * (1.0 + float(np.abs(stage.f_int).max()))
    macheps = float(np.finfo(float).eps)
    lam = 0.0
    res = stage.stage_residual(u_full)
    res_norm = _rms_norm(res)
    for it in range(1, config.max_inner_iters + 1):
        # the second-difference evaluation has a rounding floor ~ |u| eps/h^2
        eval_floor = 4.0 * macheps * big_a * (1.0 + float(np.abs(u_full).max())) / h2
        if res_norm <= data_tol + eval_floor:
            return u_full, it
        try:
            delta_u = stage.newton_direction(u_full, res, lam)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergence(
                f"newton linear solve failed at delta={stage.delta}: {exc}",
                stage=stage.delta, iterations=it,
            ) from exc
        step = 1.0
        accepted = False
        for _ in range(25):
            trial = u_full.copy()
            stage.interior(trial)[...] += step * delta_u
            if np.abs(trial).max() > config.divergence_guard:
                step *= 0.5
                continue
            trial_res = stage.stage_residual(trial)
            trial_norm = _rms_norm(trial_res)
            if math.isfinite(trial_norm) and \
                    trial_norm <= res_norm * (1.0 - 1e-4 * step):
                accepted = True
                break
            step *= 0.5
        if accepted:
            u_full = trial
            res = trial_res
            res_norm = trial_norm
            lam = 0.5 * lam if lam > 1e-8 / h2 else 0.0
        else:
            # steepen the model and recompute the direction
            lam = max(4.0 * lam, 1.0 / h)
            if lam > 1e12 / h2:
                raise NonConvergence(
                    f"newton trust damping exhausted at delta={stage.delta}",
                    stage=stage.delta, iterations=it,
                )
    raise NonConvergence(
        f"no convergence in {config.max_inner_iters} newton steps "
        f"at delta={stage.delta}",
        stage=stage.delta, iterations=config.max_inner_iters,
    )


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


def _solve_trace_2d(grid, boundary_values):
    """Interior values of the discrete harmonic function with the given data."""
    (mx, my), (hx, hy) = (n - 2 for n in grid.shape), grid.spacing
    n = mx * my
    cx = 1.0 / hx**2
    cy = 1.0 / hy**2
    offs_x = -cx * np.ones(n - my)
    offs_y = -cy * np.ones(n - 1)
    offs_y[my - 1 :: my] = 0.0  # no coupling across grid rows
    mat = scipy.sparse.diags(
        [np.full(n, 2.0 * (cx + cy)), offs_x, offs_x, offs_y, offs_y],
        [0, -my, my, -1, 1],
        format="csc",
    )
    b = np.zeros((mx, my))
    b[0, :] += cx * boundary_values[0, 1:-1]
    b[-1, :] += cx * boundary_values[-1, 1:-1]
    b[:, 0] += cy * boundary_values[1:-1, 0]
    b[:, -1] += cy * boundary_values[1:-1, -1]
    return scipy.sparse.linalg.spsolve(mat, b.ravel()).reshape(mx, my)


def _initial_guess(grid: UniformGrid, boundary_full: np.ndarray) -> np.ndarray:
    """Harmonic fill of the boundary data (affine interpolation in 1D)."""
    u = boundary_full.copy()
    if grid.dim == 1:
        u[:] = np.linspace(boundary_full[0], boundary_full[-1], grid.shape[0])
        return u
    u[1:-1, 1:-1] = _solve_trace_2d(grid, boundary_full)
    return u


def solve_dirichlet(
    instance: EquationInstance,
    boundary: ScalarField,
    grid: UniformGrid,
    config: SolverConfig | None = None,
    initial: GridFunction | None = None,
) -> tuple:
    """Solve the Dirichlet problem by delta-continuation.

    Returns (solution GridFunction, SolveReport).  Raises NonConvergence if
    a continuation stage cannot be completed.
    """
    config = config or SolverConfig()
    boundary_full = _boundary_values_full(grid, boundary)
    if initial is not None:
        u_full = initial.values.copy()
        mask = grid.boundary_mask()
        u_full[mask] = boundary_full[mask]
    else:
        u_full = _initial_guess(grid, boundary_full)

    ic = _interior_coords(grid)
    fields = (instance.f(*ic), instance.b(*ic))
    f_scale = float(np.abs(fields[0]).max())
    eps = config.epsilon_stab
    if eps is None:
        eps = 1e-3 * (1.0 + f_scale)

    auto_m = isinstance(config.truncation_M, str)
    if auto_m and config.truncation_M != "auto":
        raise OutOfRange(f"unknown truncation level {config.truncation_M!r}")
    if auto_m:
        m_level = max(1.0, 2.0 * lipschitz_seminorm(GridFunction(grid, u_full)))
    else:
        m_level = float(config.truncation_M)
        if m_level <= 0.0:
            raise OutOfRange("truncation level must be positive")

    iterations = []
    delta_stability = math.inf
    rounds = 0
    growth = 2.0  # truncation continuation factor; shrunk on failures
    last_good = None  # (u_full, m_level) of the last completed round
    while True:
        rounds += 1
        round_iters = []
        u_prev_stage = None
        try:
            for delta in config.delta_schedule:
                stage = _Stage(instance, grid, eps, m_level, delta, config, fields)
                u_full, its = _run_newton(stage, u_full, config)
                round_iters.append(its)
                if u_prev_stage is not None:
                    delta_stability = float(np.abs(u_full - u_prev_stage).max())
                u_prev_stage = u_full.copy()
        except NonConvergence:
            # retry the truncation continuation with a gentler growth factor
            if not auto_m or last_good is None or growth <= 1.05:
                raise
            growth = 1.0 + 0.5 * (growth - 1.0)
            u_full, prev_m = last_good
            u_full = u_full.copy()
            m_level = growth * prev_m
            continue
        iterations = round_iters
        gmag = _centered_magnitude(u_full, grid.spacing)
        activity = float(np.mean(gmag >= m_level))
        if not auto_m or activity == 0.0:
            break
        if rounds >= config.max_truncation_rounds:
            raise NonConvergence(
                f"truncation level still active after {rounds} rounds "
                f"(M = {m_level:.3g})",
                stage=config.delta_schedule[-1], iterations=rounds,
            )
        last_good = (u_full.copy(), m_level)
        m_level = growth * max(
            lipschitz_seminorm(GridFunction(grid, u_full)), m_level
        )

    solution = GridFunction(grid, u_full)
    res = residual_field(instance, solution)
    report = SolveReport(
        converged=True,
        final_residual=float(np.abs(res).max()),
        iterations_per_stage=tuple(iterations),
        truncation_activity=activity,
        truncation_M=m_level,
        delta_stability=delta_stability,
        truncation_rounds=rounds,
    )
    return solution, report


# ---------------------------------------------------------------------------
# comparison diagnostic


def comparison_probe(
    instance: EquationInstance,
    u_sub: GridFunction,
    u_super: GridFunction,
    pre_tol: float = 1e-2,
    tol: float = 1e-10,
) -> dict:
    """Check the discrete ordering u_sub <= u_super + tol.

    Preconditions (residual signs within pre_tol, boundary ordering) are
    verified first; violations raise PreconditionViolated with the
    offending nodes.  This is a sanity diagnostic, not a proof.
    """
    if u_sub.grid != u_super.grid:
        raise PreconditionViolated("probe requires a shared grid")
    grid = u_sub.grid
    res_sub = residual_field(instance, u_sub)
    res_super = residual_field(instance, u_super)
    bad = []
    interior_idx = np.argwhere(grid.interior_mask())
    sub_bad = np.argwhere(res_sub > pre_tol)
    sup_bad = np.argwhere(res_super < -pre_tol)
    for row in sub_bad:
        bad.append(("sub", tuple(int(v) + 1 for v in row)))
    for row in sup_bad:
        bad.append(("super", tuple(int(v) + 1 for v in row)))
    mask = grid.boundary_mask()
    if np.any(u_sub.values[mask] > u_super.values[mask] + pre_tol):
        bad.append(("boundary", None))
    if bad:
        raise PreconditionViolated(
            "sub/supersolution preconditions violated", nodes=bad
        )
    gap = u_sub.values - u_super.values
    max_violation = float(gap.max())
    return {
        "passed": bool(max_violation <= tol),
        "max_violation": max_violation,
        "tol": tol,
        "pre_tol": pre_tol,
        "interior_nodes": int(interior_idx.shape[0]),
    }
