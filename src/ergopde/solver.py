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
`operators.policy_2d`).  The stencils come from `grid`: the per-axis
slopes of `grid.axis_slopes` and the second differences of
`grid.hessian_field`.  Only the d_xy stencil, the packing of the Jacobian
and the linear solve differ between the dimensions: banded in 1D, a
sparse 9-point CSC matrix in 2D, filled through a pattern cached per grid
shape.  The system and F's policy are evaluated once per iterate
(`_System.evaluate`), from one set of axis slopes; the Jacobian and the
Newton step read that record, and a solve reports the residual of the
system it converged on.
`residual_field` is the residual of the original equation.

`solve_remainder` solves the ergodic problem on the same system: for the
bounded remainder w = u - s, s the leading blow-up term of the wall
(Lasry & Lions), with s's exact derivatives added to w's differences,
ghost values that copy the interior node next to them, and c one more
unknown (Keller's bordered step), from w = 0 or from a given (w, c).
"""

from __future__ import annotations

import functools
import math
import warnings
from contextlib import nullcontext
from dataclasses import asdict, dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from . import operators
from .errors import NonConvergence, OutOfRange
from .grid import GridFunction, UniformGrid, axis_slopes, hessian_field
from .model import EquationInstance, ScalarField, amplitude_C, chi, face_normals

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
# the factor by which a damped trial's residual norm may exceed the current
# one and still pass the natural monotonicity test (`_run_newton`); with no
# bound, a large-amplitude remainder solve ((1, 2.5) on 1601 nodes) climbs
# to a residual of 8e13 and stalls, and bounds from 4 to 100 all converge
_GROWTH_BOUND = 10.0
_MAX_TRUNCATION_ROUNDS = 400
# the cell Peclet number above which a Dirichlet node takes the Godunov
# magnitude (`_System.evaluate`); a remainder system is centered
_PECLET_THRESHOLD = 0.5


# ---------------------------------------------------------------------------
# configuration and report


@dataclass(frozen=True)
class SolverConfig:
    """Regularization delta and Newton residual tolerance."""

    delta: float = 2.0**-10
    inner_tol: float = 1e-8

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


def _norm(parts: list) -> np.ndarray:
    """Euclidean norm of nonnegative per-axis parts: the part itself in 1D."""
    return functools.reduce(np.hypot, parts)


def _smooth_magnitude(slopes: list, alpha: float) -> np.ndarray:
    """|grad u| from `grid.axis_slopes`: centered at alpha = 0, else RMS.

    The root-mean-square of the one-sided slopes is used in place of the
    centered magnitude inside the degenerate factor when alpha != 0: the
    centered difference vanishes identically at a smooth extremum, which
    would turn an integrable |grad u|^(-alpha) singularity into an
    O(h/delta) point defect.  The RMS form is smooth in u, second-order
    accurate away from extrema, and positive at them.
    """
    if alpha == 0.0:
        return _norm([np.abs(d0) for _, _, d0 in slopes])
    return np.sqrt(functools.reduce(
        np.add, [0.5 * (back**2 + fwd**2) for back, fwd, _ in slopes]))


def _godunov(back: np.ndarray, fwd: np.ndarray) -> np.ndarray:
    """max(D-, -D+, 0), the upwind one-dimensional slope."""
    return np.maximum(np.maximum(back, -fwd), 0.0)


def _blowup_part(instance: EquationInstance, grid: UniformGrid) -> tuple:
    """(slopes, second derivatives), per axis on the interior nodes, of s.

    s is the sum over the faces of C d^(-chi), or -C log d when chi = 0,
    with d the distance to the face and C the face's `amplitude_C` at the
    values of b on the face.  Each term is taken to depend on one
    coordinate, so s has no d_xy part; that is exact where b is constant
    along each face.
    """
    ep = instance.exponents
    x_chi = chi(ep)
    # d^(-chi) has the slope -chi d^(-chi-1) and -log d the slope -d^-1
    k1 = x_chi or 1.0
    normals = face_normals(instance.domain)
    ic = _interior_coords(grid)
    slopes, second = [], []
    for k, x in enumerate(ic):
        ds = d2s = 0.0
        for side, wall, sign in (("lo", grid.box.lo[k], 1.0), ("hi", grid.box.hi[k], -1.0)):
            d = sign * (x - wall)
            b_face = instance.b(*ic[:k], np.full_like(x, wall), *ic[k + 1:])
            amp = amplitude_C(instance.operator, normals[f"axis{k}_{side}"], ep, b_face)
            ds = ds - sign * amp * k1 * d ** (-x_chi - 1.0)
            d2s = d2s + amp * k1 * (x_chi + 1.0) * d ** (-x_chi - 2.0)
        slopes.append(ds)
        second.append(d2s)
    return slopes, second


def _copy_edges(u_full: np.ndarray) -> None:
    """Set each boundary node to the interior node next to it, in place.

    One slice copy per face, axis by axis, so a corner takes the value of
    its diagonal neighbour: `np.pad(interior, 1, mode="edge")`.
    """
    for k in range(u_full.ndim):
        lead = (slice(None),) * k
        u_full[lead + (0,)] = u_full[lead + (1,)]
        u_full[lead + (-1,)] = u_full[lead + (-2,)]


def _fold_edges(stencil: dict, shape: tuple) -> dict:
    """The stencil on the edge closure, where each ghost value copies the
    interior node next to it: a coupling to a ghost moves onto that node."""
    stencil = {o: np.array(np.broadcast_to(v, shape)) for o, v in stencil.items()}
    for k in range(len(shape)):
        for off in [o for o in stencil if o[k]]:
            edge = (slice(None),) * k + (-1 if off[k] > 0 else 0,)
            to = off[:k] + (0,) + off[k + 1:]
            stencil[to][edge] += stencil[off][edge]
            stencil[off][edge] = 0.0
    return stencil


# ---------------------------------------------------------------------------
# residual of the original equation


def residual_field(instance: EquationInstance, u: GridFunction) -> np.ndarray:
    """Interior residual -|grad u|^alpha F(D2 u) + b|grad u|^beta - f."""
    grid = u.grid
    alpha = instance.exponents.alpha
    beta = instance.exponents.beta
    gmag = _smooth_magnitude(axis_slopes(u.values, grid.spacing), 0.0)
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

    `slopes` is `grid.axis_slopes(u)` and `policy` F's policy at the
    second differences (`operators.policy_1d` or `policy_2d`); gmag is the
    Peclet-selected magnitude, `upwind` its Godunov mask, rho the
    regularization factor, t_m = min(gmag, M), p the lower-order part
    f + c + eps |u|^alpha u - b t_m^beta, and res the residual.
    """

    u: np.ndarray
    slopes: list
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

    With a `blowup` part ((slopes, second derivatives) from `_blowup_part`)
    the unknown is the remainder w = u - s on the edge closure: the ghost
    values copy the interior node next to them, and s's exact slopes and
    second derivatives are added to w's.  Such a system is centered (its
    `peclet_threshold` is +inf); `s_second`, per node the second
    derivatives that s adds, is 0 without one.
    """

    def __init__(self, instance, grid, config, blowup=None):
        self.instance = instance
        self.config = config
        self.blowup = blowup
        if blowup is None:
            self.peclet_threshold, self.s_second = _PECLET_THRESHOLD, 0.0
        else:
            self.peclet_threshold = math.inf
            self.s_second = functools.reduce(np.add, [np.abs(t) for t in blowup[1]])
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
        exceeds ~1; at such nodes the monotone Godunov (Rouy-Tourin)
        magnitude max(D-, -D+, 0) is used instead.  No node can exceed a
        `peclet_threshold` of +inf, so there the Peclet number is not computed.
        """
        slopes = axis_slopes(u_full, self.h) if self.blowup is None \
            else self._closed_slopes(u_full)
        g_c = _smooth_magnitude(slopes, self.alpha)
        if self.peclet_threshold == math.inf:  # no node can be upwinded
            gmag, upwind = g_c, np.zeros(g_c.shape, dtype=bool)
        else:
            gmag, upwind = self._switched_magnitude(slopes, g_c)
        rho = _regularization_factor(gmag, self.delta, self.alpha)
        t_m = np.minimum(gmag, self.m_level)
        es = self.eps * _signed_power(self.interior(u_full), self.alpha)
        p = self.f_int + es - self.b_int * t_m**self.beta
        hess = hessian_field(u_full, self.h)
        if self.blowup is not None:  # s adds to the diagonal entries only
            hess = tuple(t + self.blowup[1][i // 2] if i % 2 == 0 else t
                         for i, t in enumerate(hess))
        fvals, policy = _eval_f_hessian(self.instance.operator, hess)
        res = es - fvals - p * rho
        return _Evaluation(u_full, slopes, policy, gmag, upwind, rho, t_m, p, res)

    def _switched_magnitude(self, slopes: list, g_c: np.ndarray) -> tuple:
        """(gmag, upwind): g_c, with the Godunov magnitude at the nodes whose
        cell Peclet number exceeds `peclet_threshold`, and their mask."""
        t_mc = np.minimum(g_c, self.m_level)
        # 0^(beta-1) = inf for beta < 1, and 0 * inf = nan where b = 0
        with np.errstate(divide="ignore", invalid="ignore") if self.beta < 1.0 \
                else nullcontext():
            tpow = t_mc ** (self.beta - 1.0)
            q = self.b_beta * tpow * _regularization_factor(g_c, self.delta, self.alpha)
        upwind = q * self.h_min / self.two_floor > self.peclet_threshold
        gmag = np.where(upwind, _norm([_godunov(back, fwd) for back, fwd, _ in slopes]),
                        g_c) if upwind.any() else g_c
        return gmag, upwind

    def _closed_slopes(self, u_full) -> list:
        """Refresh the ghost values of w in place (`_copy_edges`) and return
        its axis slopes with those of s added."""
        _copy_edges(u_full)
        return [tuple(d + ds for d in axis)
                for axis, ds in zip(axis_slopes(u_full, self.h), self.blowup[0])]

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
        for back, fwd, d0 in ev.slopes:
            wb, wf = (0.5 * d0,) * 2 if self.alpha == 0.0 else (0.5 * back, 0.5 * fwd)
            if ev.upwind.any():
                back_sel = (back >= -fwd) & (back >= 0.0)
                fwd_sel = ~back_sel & (-fwd >= 0.0)
                god = _godunov(back, fwd)
                wb = np.where(ev.upwind, god * back_sel, wb)
                wf = np.where(ev.upwind, -god * fwd_sel, wf)
            weights.append((wb, wf))
        return weights

    def jacobian(self, ev: _Evaluation, border=None):
        """Semismooth Jacobian of the residual, plus e0 e0^T with `border` x0.

        One {offset: coefficient} stencil on the interior nodes: F through
        its Howard policy at the current Hessian, the gradient magnitude
        through the chain rule of its active branch, and the stabiliser's
        slope; on the edge closure its couplings to the ghosts are folded
        (`_fold_edges`).  Packed as the (3, n) band of
        `scipy.linalg.solve_banded` in 1D, and as a sparse 9-point CSC
        matrix on the interior nodes in C order in 2D, filled through
        `_csc_pattern` and without its zero entries.
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
        if self.blowup is not None:
            stencil = _fold_edges(stencil, ev.gmag.shape)
        if border is not None:
            stencil[centre][border] += 1.0
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

    def bordered_step(self, jac, ev: _Evaluation, border, at: _Evaluation | None = None) -> tuple:
        """(du, dc) with J du + (dR/dc) dc = -res and du(x0) = -u(x0), x0 = border.

        J is `jac`, the packed K = J + e0 e0^T of `ev`, and dR/dc is ev's;
        res and u are those of `at` (by default ev), so at a trial iterate
        this is the simplified Newton correction.  K stays regular where the
        constants lie in J's kernel (the edge closure at alpha = 0); it
        gives K y = -res - e0 u(x0) and K z = dR/dc from one solve, then
        dc = (y(x0) + u(x0)) / z(x0) and du = y - z dc.
        """
        at = at or ev
        u0 = self.interior(at.u)[border]
        rhs = np.stack([-at.res, self.c_column(ev)], -1)
        rhs[border + (0,)] -= u0
        yz = self.solve(jac, rhs)
        y, z = yz[..., 0], yz[..., 1]
        dc = (y[border] + u0) / z[border]
        return y - z * dc, float(dc)

    def solve(self, jac, rhs):
        """Solve jac d = rhs, jac packed by `jacobian`, for one interior
        array or a stack of them (last axis)."""
        if len(self.h) == 1:
            return scipy.linalg.solve_banded((1, 1), jac, rhs)
        with warnings.catch_warnings():  # a singular matrix gives NaN, tested below
            warnings.simplefilter("ignore", scipy.sparse.linalg.MatrixRankWarning)
            d = scipy.sparse.linalg.spsolve(jac, rhs.reshape(jac.shape[0], -1))
        if not np.all(np.isfinite(d)):
            raise np.linalg.LinAlgError("singular or non-finite sparse system")
        return d.reshape(rhs.shape)


def _run_newton(system: _System, u_full, border=None) -> tuple:
    """Semismooth Newton (Howard's policy iteration) on the regularized system.

    Globalized by damping.  A trial u + lambda du is accepted by the Armijo
    test on the RMS residual norm or, when that fails, by Deuflhard's natural
    monotonicity test (NLEQ-ERR, *Newton Methods for Nonlinear Problems*,
    2004, sec. 3.3): its simplified correction, solved with the step's own
    Jacobian, is at most (1 - lambda/4) times the step in the RMS norm, and
    its residual norm at most `_GROWTH_BOUND` times the current one.  That
    measure is affine invariant, so rows of a large scale (those next to the
    wall of a blow-up part) do not dominate it.  Otherwise lambda is halved;
    a run whose 25 halvings are all refused ends there, as solving again
    would give the same direction.  The Jacobian is packed once per step
    (`_System.jacobian`); the correction is solved only after the Armijo
    test refuses a trial, and no more in that step once a refused
    correction shows that no smaller lambda can pass.  That is read off
    the linear model of the correction along the step, corr(l) = du +
    l (corr - du) / lambda: it passes at some l < lambda only if
    (corr - du) . du < -(lambda/4) |du|^2.  A step that no lambda passes
    thus costs its halvings' evaluations and few linear solves.
    Convergence is declared on the residual norm, each node's residual
    less the rounding of s'' there (`system.s_second`, 0 without a blow-up
    part), against the tolerance (scaled by the data) plus the rounding
    floor of the second differences; never on the update size alone, and
    checked at the start and after each step.  No step budget: the run
    stalls once `_STALL_STEPS` steps pass without the residual norm halving
    again (the progress tests of Deuflhard and of Kelley).
    Returns (evaluation, steps): the `_Evaluation` of the converged
    iterate, whose residual met the tolerance, and the number of Newton
    steps taken, 0 when the start already met it.

    With `border`, an interior index x0, the system is bordered (Keller):
    the shift c of f (`system.c`) is one more unknown and u(x0) = 0 one more
    equation (`_System.bordered_step`); the norms then run over (u, c).
    """
    h2 = min(system.h2) / u_full.ndim  # sum over axes of 1/h^2 is at most dim/h_min^2
    data_tol = system.config.inner_tol * (1.0 + float(np.abs(system.f_int).max()))
    rounding = 4.0 * float(np.finfo(float).eps) * system.instance.operator.bounds.A
    s_floor = rounding * system.s_second  # each node's floor is raised by s'' there

    def rms(v, last):  # bordered: `last`, u(x0) of a residual or dc of a step, is one more entry
        r = v.ravel()
        return math.sqrt(r.dot(r) + last * last) / math.sqrt(r.size + (border is not None))

    def norm(ev, res):
        return rms(res, 0.0 if border is None else float(system.interior(ev.u)[border]))

    def newton_step(at):  # (du, dc) from the step's Jacobian and the residual at `at`
        if border is None:
            return system.solve(jac, -at.res), 0.0
        return system.bordered_step(jac, ev, border, at)

    def natural(trial_ev, step):  # the natural monotonicity test: (passed, may a smaller lambda pass)
        try:
            corr, dc_corr = newton_step(trial_ev)
        except (np.linalg.LinAlgError, ValueError):  # a failed solve refuses, and ends the tests
            return False, False
        if rms(corr, dc_corr) <= (1.0 - 0.25 * step) * rms(delta_u, dc):
            return True, True
        slope = (corr - delta_u).ravel().dot(delta_u.ravel()) + (dc_corr - dc) * dc
        return False, slope < -0.25 * step * (delta_u.ravel().dot(delta_u.ravel()) + dc * dc)

    ev = system.evaluate(u_full)
    res_norm = best = norm(ev, ev.res)  # best: the residual norm at the last halving
    steps = halved_at = 0
    while True:
        # the second-difference evaluation has a rounding floor ~ |u| eps/h^2
        eval_floor = rounding * (1.0 + float(np.abs(ev.u).max())) / h2
        if norm(ev, np.maximum(np.abs(ev.res) - s_floor, 0.0)) <= data_tol + eval_floor:
            return ev, steps
        if steps - halved_at == _STALL_STEPS:
            raise NonConvergence(
                f"newton stalled at delta={system.delta}: residual {res_norm:.3e} after "
                f"{steps} steps, not halved from {best:.3e} in the last {_STALL_STEPS}")
        try:
            jac = system.jacobian(ev, border)
            delta_u, dc = newton_step(ev)
        except (np.linalg.LinAlgError, ValueError) as exc:
            raise NonConvergence(
                f"newton linear solve failed at delta={system.delta}: {exc}"
            ) from exc
        c = system.c
        step, testing = 1.0, True  # testing: the natural test may still pass a trial
        for _ in range(25):
            trial = ev.u.copy()
            system.interior(trial)[...] += step * delta_u
            system.set_c(c + step * dc)
            trial_ev = system.evaluate(trial)
            trial_norm = norm(trial_ev, trial_ev.res)
            if math.isfinite(trial_norm) and trial_norm <= res_norm * (1.0 - 1e-4 * step):
                break
            if testing and math.isfinite(trial_norm) and trial_norm <= _GROWTH_BOUND * res_norm:
                passed, testing = natural(trial_ev, step)
                if passed:
                    break
            step *= 0.5
        else:
            system.set_c(c)
            raise NonConvergence(
                f"newton line search failed at delta={system.delta}: no step lowers "
                f"the residual {res_norm:.3e} after {steps} steps")
        steps += 1
        ev, res_norm = trial_ev, trial_norm
        if res_norm < 0.5 * best:  # strict, so a zero residual is never progress
            best, halved_at = res_norm, steps


# ---------------------------------------------------------------------------
# driver


def _boundary_values_full(grid: UniformGrid, boundary: ScalarField) -> np.ndarray:
    vals = np.zeros(grid.shape)
    mask = grid.boundary_mask()
    vals[mask] = boundary(*(c[mask] for c in grid.coords()))
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
    and stalls, or finds no damped step that `_run_newton` accepts.
    Returns (evaluation, Newton steps per delta solved).
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
    config: SolverConfig = SolverConfig(),
    start: GridFunction | None = None,
) -> tuple:
    """Solve the Dirichlet problem at `config.delta`, raising the truncation M.

    Newton starts from the interior of `start` when one is given (with the
    boundary values of the data), else from `_initial_guess`; the first
    truncation level is twice the start's largest slope, and at least 1.  Each truncation
    round is one damped Newton solve (`_run_newton`: the Armijo test, then
    the natural monotonicity test on a refused trial) through `_solve_round`,
    with its delta continuation as a fallback at alpha != 0.  A failed round
    is retried from the last completed one with a gentler growth of M.
    Returns (solution GridFunction, SolveReport).  Raises NonConvergence if
    a round cannot be completed.
    """
    u_full = _boundary_values_full(grid, boundary)
    if start is None:
        u_full = _initial_guess(grid, u_full)
    elif start.grid.shape != grid.shape:
        raise OutOfRange(f"start on {start.grid.shape} nodes, grid {grid.shape}")
    else:
        inner = (slice(1, -1),) * grid.dim
        u_full[inner] = start.values[inner]
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


def solve_remainder(instance: EquationInstance, grid: UniformGrid, probe,
                    config: SolverConfig = SolverConfig(), start: tuple | None = None) -> tuple:
    """Newton on the pair (w, c): the remainder w = u - s of the ergodic
    problem with f + c, s its blow-up part (`_blowup_part`).

    Bordered `_run_newton` on the edge closure, w(probe) = 0 the extra
    equation; the system is centered and the truncation off.  It starts from
    `start`, a pair (w GridFunction on `grid`, c), when one is given, else
    from w = 0 and c = -sup f - 1.  Returns (w, c, Newton steps); a failed
    solve raises NonConvergence naming the grid shape.
    """
    system = _System(instance, grid, config, _blowup_part(instance, grid))
    if start is None:
        w_full, c = np.zeros(grid.shape), -float(system.f_base.max()) - 1.0
    elif start[0].grid.shape != grid.shape:
        raise OutOfRange(f"start on {start[0].grid.shape} nodes, grid {grid.shape}")
    else:
        w_full, c = start[0].values.copy(), float(start[1])  # the ghosts are written
    system.set_c(c)
    border = tuple(int(i) - 1 for i in probe)
    try:
        ev, its = _run_newton(system, w_full, border)
    except NonConvergence as exc:
        raise NonConvergence(f"remainder solve on {grid.shape} nodes: {exc}") from exc
    return GridFunction(grid, ev.u), system.c, its
