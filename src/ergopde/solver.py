"""Discrete Dirichlet solver for -|grad u|^a F(D2 u) + b|grad u|^b = f.

The gradient degeneracy is removed by a continuation over a decreasing
schedule of regularization parameters delta; at each stage a damped inner
iteration solves the frozen-coefficient problem

    -F(D2 w) + eps |w_prev|^alpha w = (f + eps |u_prev|^alpha u_prev
        - b min(|grad v|, M)^beta) (delta^2 + |grad v|^2)^(-alpha/2)

with the Hamiltonian clamped at a truncation level M.  Two inner engines
are provided: the damped fixed-point iteration with direct/Gauss-Seidel
linear solves (all operators), and a damped Newton iteration on the stage
system (scaled-trace operator in 1D), which is far more robust for steep
boundary-layer profiles.  Both evaluate the stage system on raw value
arrays, with the constants of each stage computed once.
"""

from __future__ import annotations

import math
from contextlib import nullcontext
from dataclasses import dataclass, field, replace

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
    """Continuation ladder, damping, truncation and tolerances."""

    delta_schedule: tuple = field(default_factory=default_delta_schedule)
    epsilon_stab: float | None = None  # None -> 1e-3 * (1 + |f|_inf)
    truncation_M: float | str = "auto"
    theta: float = 0.5
    inner_tol: float = 1e-8
    max_inner_iters: int = 400
    engine: str = "auto"  # auto | picard | newton
    upwind: bool = False
    peclet_threshold: float = 0.5  # inf -> centered scheme everywhere
    fallback: bool = False
    dt_factor: float = 0.2
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
        if self.engine not in ("auto", "picard", "newton"):
            raise OutOfRange(f"unknown engine {self.engine!r}")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of one Dirichlet solve."""

    converged: bool
    final_residual: float
    iterations_per_stage: tuple
    truncation_activity: float
    truncation_M: float
    delta_stability: float
    engine: str
    theta_final: float
    fallback_used: bool
    truncation_rounds: int

    def to_dict(self) -> dict:
        return {
            "converged": self.converged,
            "final_residual": self.final_residual,
            "iterations_per_stage": list(self.iterations_per_stage),
            "truncation_activity": self.truncation_activity,
            "truncation_M": self.truncation_M,
            "delta_stability": self.delta_stability,
            "engine": self.engine,
            "theta_final": self.theta_final,
            "fallback_used": self.fallback_used,
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
# linear solves for the frozen-coefficient problem


def _solve_trace_1d(coef, h, c0, rhs, left, right):
    n = rhs.size
    ab = np.zeros((3, n))
    ab[0, 1:] = -coef / h**2
    ab[1, :] = 2.0 * coef / h**2 + c0
    ab[2, :-1] = -coef / h**2
    b = rhs.copy()
    b[0] += coef / h**2 * left
    b[-1] += coef / h**2 * right
    return scipy.linalg.solve_banded((1, 1), ab, b)


def _solve_trace_2d(coef, grid, c0, rhs, boundary_values):
    nx, ny = grid.shape
    hx, hy = grid.spacing
    mx, my = nx - 2, ny - 2
    n = mx * my
    cx = coef / hx**2
    cy = coef / hy**2
    main = 2.0 * (cx + cy) + c0.ravel()
    offs_x = -cx * np.ones(n - my)
    offs_y = -cy * np.ones(n - 1)
    offs_y[my - 1 :: my] = 0.0  # no coupling across grid rows
    mat = scipy.sparse.diags(
        [main, offs_x, offs_x, offs_y, offs_y],
        [0, -my, my, -1, 1],
        format="csc",
    )
    b = rhs.copy()
    b[0, :] += cx * boundary_values[0, 1:-1]
    b[-1, :] += cx * boundary_values[-1, 1:-1]
    b[:, 0] += cy * boundary_values[1:-1, 0]
    b[:, -1] += cy * boundary_values[1:-1, -1]
    sol = scipy.sparse.linalg.spsolve(mat, b.ravel())
    return sol.reshape(mx, my)


def _branch_coefficients(spec) -> tuple:
    """(m_pos, m_neg): slope of F(t) for t > 0 and t < 0 in 1D."""
    if isinstance(spec, operators.ScaledTrace):
        return spec.coefficient, spec.coefficient
    if isinstance(spec, operators.PucciPlus):
        return spec.bounds.A, spec.bounds.a
    if isinstance(spec, operators.PucciMinus):
        return spec.bounds.a, spec.bounds.A
    if isinstance(spec, operators.BellmanMax):
        qs = [q.upper[0] for q in spec.matrices]
        return max(qs), min(qs)
    raise TypeError(f"unknown operator spec: {spec!r}")


def _gs_sweeps_1d(spec, h, c0, rhs, w_full, tol, max_sweeps=400):
    """Red-black nonlinear Gauss-Seidel for -F(w'') + c0 w = rhs (1D)."""
    m_pos, m_neg = _branch_coefficients(spec)
    n = w_full.size
    idx = np.arange(1, n - 1)
    colors = (idx[idx % 2 == 1], idx[idx % 2 == 0])
    for sweep in range(max_sweeps):
        change = 0.0
        for color in colors:
            s = w_full[color - 1] + w_full[color + 1]
            r = rhs[color - 1]
            c = c0[color - 1] if np.ndim(c0) else np.full(color.shape, c0)
            phi_kink = c * 0.5 * s - r
            m = np.where(phi_kink > 0.0, m_pos, m_neg)
            w_new = (r + m * s / h**2) / (2.0 * m / h**2 + c)
            change = max(change, float(np.abs(w_new - w_full[color]).max()))
            w_full[color] = w_new
        if change <= tol:
            break
    return w_full


def _gs_sweeps_2d(spec, grid, c0, rhs, w_full, tol, max_sweeps=400):
    """Red-black Gauss-Seidel with a contraction nodewise solve (2D)."""
    hx, hy = grid.spacing
    big_a = spec.bounds.A if hasattr(spec, "bounds") else spec.coefficient
    lmax = 2.0 * big_a * (1.0 / hx**2 + 1.0 / hy**2)
    nx, ny = grid.shape
    ii, jj = np.meshgrid(np.arange(1, nx - 1), np.arange(1, ny - 1), indexing="ij")
    parity = (ii + jj) % 2
    for sweep in range(max_sweeps):
        change = 0.0
        for p in (0, 1):
            sel = parity == p
            i = ii[sel]
            j = jj[sel]
            u_e = w_full[i + 1, j]
            u_w = w_full[i - 1, j]
            u_n = w_full[i, j + 1]
            u_s = w_full[i, j - 1]
            txy = (
                w_full[i + 1, j + 1]
                + w_full[i - 1, j - 1]
                - w_full[i + 1, j - 1]
                - w_full[i - 1, j + 1]
            ) / (4.0 * hx * hy)
            r = rhs[i - 1, j - 1]
            c = c0[i - 1, j - 1] if np.ndim(c0) else np.full(i.shape, c0)
            w = w_full[i, j].copy()
            denom = lmax + c
            for _ in range(40):
                txx = (u_e + u_w - 2.0 * w) / hx**2
                tyy = (u_n + u_s - 2.0 * w) / hy**2
                phi = -operators.eval_hessian_2d(spec, txx, txy, tyy) + c * w - r
                w = w - phi / denom
            change = max(change, float(np.abs(w - w_full[i, j]).max()))
            w_full[i, j] = w
        if change <= tol:
            break
    return w_full


def _solve_frozen(spec, grid, c0, rhs, boundary_values, w_start, tol):
    """Solve -F(D2 w) + c0 w = rhs with Dirichlet data from boundary_values."""
    if isinstance(spec, operators.ScaledTrace):
        if grid.dim == 1:
            w = boundary_values.copy()
            w[1:-1] = _solve_trace_1d(
                spec.coefficient, grid.spacing[0], c0, rhs,
                boundary_values[0], boundary_values[-1],
            )
            return w
        w = boundary_values.copy()
        w[1:-1, 1:-1] = _solve_trace_2d(spec.coefficient, grid, c0, rhs,
                                        boundary_values)
        return w
    w = w_start.copy()
    if grid.dim == 1:
        return _gs_sweeps_1d(spec, grid.spacing[0], c0, rhs, w, tol)
    return _gs_sweeps_2d(spec, grid, c0, rhs, w, tol)


# ---------------------------------------------------------------------------
# stage engines


class _Stage:
    """Shared per-stage data for the inner engines.

    The constants (spacing, h^2, |b| beta, the diffusion floor) are set
    once; the methods take their stencils straight from the value array.
    """

    def __init__(self, instance, grid, boundary_full, eps, m_level, delta, config):
        self.instance = instance
        self.grid = grid
        self.boundary_full = boundary_full
        self.eps = eps
        self.m_level = m_level
        self.delta = delta
        self.config = config
        ic = _interior_coords(grid)
        self.f_int = instance.f(*ic)
        self.b_int = instance.b(*ic)
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
        with np.errstate(divide="ignore") if self.beta < 1.0 else nullcontext():
            tpow = t_mc ** (self.beta - 1.0)  # 0^(beta-1) = inf for beta < 1
        q = self.b_beta * tpow * _regularization_factor(g_c, self.delta, self.alpha)
        mask = q * self.h_min / self.two_floor > self.config.peclet_threshold
        if not mask.any():
            return g_c, mask
        return np.where(mask, _upwind_magnitude(u_full, self.h), g_c), mask

    def rhs_and_c0(self, u_full):
        u_int = self.interior(u_full)
        gmag = self.magnitudes(u_full)[0]
        rho = _regularization_factor(gmag, self.delta, self.alpha)
        s_prev = _signed_power(u_int, self.alpha)
        rhs = (
            self.f_int
            + self.eps * s_prev
            - self.b_int * np.minimum(gmag, self.m_level) ** self.beta
        ) * rho
        if self.alpha == 0.0:
            c0 = np.full(u_int.shape, self.eps)
        else:
            mag = np.maximum(np.abs(u_int), _U_FLOOR) if self.alpha < 0.0 \
                else np.abs(u_int)
            c0 = self.eps * mag**self.alpha
        return rhs, c0

    def stage_residual(self, u_full):
        """Residual of the stage fixed-point system at u (interior array)."""
        if u_full.ndim == 1:  # the second difference straight from the array
            hess = ((u_full[2:] - 2.0 * u_full[1:-1] + u_full[:-2]) / self.h2[0],)
        else:
            hess = hessian_field(GridFunction(self.grid, u_full))
        gmag = self.magnitudes(u_full)[0]
        rho = _regularization_factor(gmag, self.delta, self.alpha)
        es = self.eps * _signed_power(self.interior(u_full), self.alpha)
        p = self.f_int + es - self.b_int * np.minimum(gmag, self.m_level) ** self.beta
        return es - _eval_f_hessian(self.instance.operator, hess) - p * rho


def _run_picard(stage: _Stage, u_full, theta, config) -> tuple:
    """Damped fixed-point iteration; returns (u, iterations, theta)."""
    halvings = 0
    prev_change = math.inf
    gs_tol = max(0.05 * config.inner_tol, 1e-14)
    for it in range(1, config.max_inner_iters + 1):
        rhs, c0 = stage.rhs_and_c0(u_full)
        w = _solve_frozen(
            stage.instance.operator, stage.grid, c0, rhs,
            stage.boundary_full, u_full, gs_tol,
        )
        u_new = (1.0 - theta) * u_full + theta * w
        change = float(np.abs(u_new - u_full).max())
        if not np.isfinite(change) or np.abs(u_new).max() > config.divergence_guard:
            raise NonConvergence(
                f"fixed-point iterate diverged at delta={stage.delta}",
                stage=stage.delta, iterations=it,
            )
        if change > prev_change * 1.2:
            if halvings < 4:
                theta *= 0.5
                halvings += 1
            else:
                raise NonConvergence(
                    f"damping exhausted at delta={stage.delta}",
                    stage=stage.delta, iterations=it,
                )
        prev_change = min(prev_change, change)
        u_full = u_new
        if change <= config.inner_tol:
            return u_full, it, theta
    raise NonConvergence(
        f"no convergence in {config.max_inner_iters} fixed-point steps "
        f"at delta={stage.delta}",
        stage=stage.delta, iterations=config.max_inner_iters,
    )


def _rms_norm(r: np.ndarray) -> float:
    """|r|_2 / sqrt(size); the 2-norm is sqrt(r.r), as np.linalg.norm takes it."""
    return math.sqrt(r.dot(r)) / math.sqrt(r.size)


def _run_newton_1d(stage: _Stage, u_full, config) -> tuple:
    """Semismooth Newton on the 1D scaled-trace stage system.

    Line search on the l2 residual norm; a Levenberg shift is added to the
    Jacobian diagonal whenever a full sweep of step halvings fails to
    reduce the residual.  Convergence is declared on the residual norm
    (scaled by the data), never on the update size alone.
    """
    coef = stage.instance.operator.coefficient
    h = stage.h[0]
    h2 = stage.h2[0]
    n = u_full.size
    data_tol = config.inner_tol * (1.0 + float(np.abs(stage.f_int).max()))
    macheps = float(np.finfo(float).eps)
    lam = 0.0
    res = stage.stage_residual(u_full)
    res_norm = _rms_norm(res)
    for it in range(1, config.max_inner_iters + 1):
        # the second-difference evaluation has a rounding floor ~ |u| eps/h^2
        eval_floor = 4.0 * macheps * coef * (1.0 + float(np.abs(u_full).max())) / h2
        if res_norm <= data_tol + eval_floor:
            return u_full, it, 1.0
        u_int = u_full[1:-1]
        gsig = (u_full[2:] - u_full[:-2]) / (2.0 * h)
        gmag, upwind_mask = stage.magnitudes(u_full)
        rho = _regularization_factor(gmag, stage.delta, stage.alpha)
        t_m = np.minimum(gmag, stage.m_level)
        p = stage.f_int + stage.eps * _signed_power(u_int, stage.alpha) \
            - stage.b_int * t_m**stage.beta
        # dG/d g   (through Hamiltonian and the regularization factor)
        q = stage.b_int * stage.beta * t_m ** (stage.beta - 1.0) \
            * (gmag < stage.m_level) * rho
        q = q + p * stage.alpha * gmag / (stage.delta**2 + gmag**2) * rho
        # derivative of the gradient magnitude w.r.t. the three stencil
        # values (RMS of one-sided slopes for alpha != 0, centered else)
        back, fwd = _onesided_slopes_1d(u_full, h)
        if stage.alpha != 0.0:
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
            d_diag = np.where(
                upwind_mask, (back_sel | fwd_sel) / h, d_diag
            )
            d_lo = np.where(upwind_mask, -(back_sel / h), d_lo)
            d_up = np.where(upwind_mask, -(fwd_sel / h), d_up)
        # diagonal contribution of the zero-order stabilizer
        mag = np.maximum(np.abs(u_int), _U_FLOOR)
        dstab = stage.eps * (1.0 + stage.alpha) * mag**stage.alpha * (1.0 - rho)
        ab = np.zeros((3, n - 2))
        ab[1, :] = 2.0 * coef / h2 + dstab + q * d_diag + lam
        upper = -coef / h2 + q * d_up
        lower = -coef / h2 + q * d_lo
        ab[0, 1:] = upper[:-1]
        ab[2, :-1] = lower[1:]
        try:
            delta_u = scipy.linalg.solve_banded((1, 1), ab, -res)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergence(
                f"newton linear solve failed at delta={stage.delta}: {exc}",
                stage=stage.delta, iterations=it,
            ) from exc
        step = 1.0
        accepted = False
        for _ in range(25):
            trial = u_full.copy()
            trial[1:-1] += step * delta_u
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


def _run_pseudo_time(stage: _Stage, u_full, config) -> tuple:
    """Explicit pseudo-time fallback on the stage system."""
    h2 = min(s**2 for s in stage.grid.spacing)
    big_a = stage.instance.operator.bounds.A
    max_steps = 50 * config.max_inner_iters
    for it in range(1, max_steps + 1):
        res = stage.stage_residual(u_full)
        gmag = stage.magnitudes(u_full)[0]
        rho_max = float(
            np.max(_regularization_factor(gmag, stage.delta, stage.alpha))
        )
        dt = config.dt_factor * h2 / (big_a * max(rho_max, 1.0))
        u_new = u_full.copy()
        if stage.grid.dim == 1:
            u_new[1:-1] -= dt * res
        else:
            u_new[1:-1, 1:-1] -= dt * res
        change = float(np.abs(u_new - u_full).max())
        if not np.isfinite(change) or np.abs(u_new).max() > config.divergence_guard:
            raise NonConvergence(
                f"pseudo-time fallback diverged at delta={stage.delta}",
                stage=stage.delta, iterations=it,
            )
        u_full = u_new
        if change <= config.inner_tol:
            return u_full, it
    raise NonConvergence(
        f"pseudo-time fallback exhausted at delta={stage.delta}",
        stage=stage.delta, iterations=max_steps,
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


def _initial_guess(grid: UniformGrid, boundary_full: np.ndarray) -> np.ndarray:
    """Harmonic fill of the boundary data (affine interpolation in 1D)."""
    u = boundary_full.copy()
    if grid.dim == 1:
        u[:] = np.linspace(boundary_full[0], boundary_full[-1], grid.shape[0])
        return u
    zeros = np.zeros((grid.shape[0] - 2, grid.shape[1] - 2))
    u[1:-1, 1:-1] = _solve_trace_2d(1.0, grid, zeros, zeros, boundary_full)
    return u


def _pick_engine(instance: EquationInstance, grid: UniformGrid, config) -> str:
    newton_capable = grid.dim == 1 and isinstance(
        instance.operator, operators.ScaledTrace
    )
    if config.engine == "newton":
        if not newton_capable:
            raise OutOfRange("newton engine requires a 1D scaled-trace instance")
        return "newton"
    if config.engine == "auto" and newton_capable:
        return "newton"
    return "picard"


def solve_dirichlet(
    instance: EquationInstance,
    boundary: ScalarField,
    grid: UniformGrid,
    config: SolverConfig | None = None,
    initial: GridFunction | None = None,
) -> tuple:
    """Solve the Dirichlet problem by delta-continuation.

    Returns (solution GridFunction, SolveReport).  Raises NonConvergence if
    a continuation stage cannot be completed (and the pseudo-time fallback
    is disabled or also fails).
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
    f_scale = float(np.abs(instance.f(*ic)).max())
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

    engine = _pick_engine(instance, grid, config)
    theta = config.theta
    fallback_used = False
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
                stage = _Stage(
                    instance, grid, boundary_full, eps, m_level, delta, config
                )
                try:
                    if engine == "newton":
                        u_full, its, theta_used = _run_newton_1d(stage, u_full, config)
                        theta = theta_used
                    else:
                        u_full, its, theta = _run_picard(stage, u_full, theta, config)
                except NonConvergence:
                    if not config.fallback:
                        raise
                    u_full, its = _run_pseudo_time(stage, u_full, config)
                    fallback_used = True
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
        engine=engine,
        theta_final=theta,
        fallback_used=fallback_used,
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
