"""Ergodic-constant estimation and blow-up asymptotics on the grid solver.

The ergodic problem replaces Dirichlet data with u = +infinity on the
boundary; the constant c_Omega is the unique c for which it has a
solution.  The estimate solves for the bounded remainder w = u - s, s the
leading blow-up term of each face, with c one more unknown and w(x0) = 0
at the probe point (`solver.solve_remainder`): one solve per grid on the
grid and its two refinements, extrapolated in h.

With c in hand, the boundary-layer behaviour is compared against the
predicted power/log profiles, the gradient rate, and uniqueness up to
additive constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    HypothesisViolated,
    OutOfRange,
    UnresolvedLayer,
    UnsupportedCase,
)
from .grid import GridFunction, UniformGrid, gradient_field, prolong
from .model import EquationInstance, ExponentPair, ScalarField, amplitude_C, chi, \
    face_normals
from .operators import ScaledTrace
from .oracle1d import blowup_profile_fit
from .solver import SolverConfig, solve_dirichlet, solve_remainder


@dataclass(frozen=True)
class ErgodicExperiment:
    """A gradient-coercive instance plus the ladder/probe/fit-layer data.

    The probe point normalizes the ergodic estimate; the ladder serves only
    the checks, which solve at its rungs.
    """

    instance: EquationInstance
    grid: UniformGrid
    ladder: tuple
    probe_point: tuple
    fit_span: tuple = (4.0, 64.0)
    solver_config: SolverConfig = SolverConfig()

    def __post_init__(self):
        ladder = tuple(float(v) for v in self.ladder)
        if len(ladder) < 2 or any(b <= a for a, b in zip(ladder, ladder[1:])):
            raise OutOfRange("ladder must contain >= 2 increasing amplitudes")
        object.__setattr__(self, "ladder", ladder)
        probe = tuple(float(v) for v in np.atleast_1d(self.probe_point))
        object.__setattr__(self, "probe_point", probe)
        node = self.grid.nearest_node(probe)
        if not self.grid.is_interior(node):
            raise OutOfRange("probe point must be interior")
        if len(self.fit_span) != 2 or not (0.0 < self.fit_span[0] < self.fit_span[1]):
            raise OutOfRange("fit span must be two numbers lo, hi with 0 < lo < hi")

    @property
    def probe_node(self) -> tuple:
        return self.grid.nearest_node(self.probe_point)

    @property
    def exponents(self) -> ExponentPair:
        return self.instance.exponents


def solve_at(exp: ErgodicExperiment, c: float, amplitude: float,
             start: GridFunction | None = None) -> tuple:
    """One ladder rung: the Dirichlet solve of the c-shifted instance with
    constant data, on the experiment's (Peclet-switched hybrid) scheme,
    from `start` if one is given (`solve_dirichlet`).

    Returns (u, SolveReport); a failed solve raises NonConvergence.
    """
    datum = ScalarField.constant(float(amplitude), exp.grid.dim)
    return solve_dirichlet(exp.instance.shifted_f(c), datum, exp.grid, exp.solver_config,
                           start=start)


# ---------------------------------------------------------------------------
# ergodic constant

_RICHARDSON = 1.0 / 3.0  # c_2h - c_h over 2^2 - 1: the h^2 term of c_h
_GCI_SAFETY = 1.25  # Roache's factor of safety for an order observed on three grids


def estimate_ergodic_constant(exp: ErgodicExperiment, tol: float = 1e-2) -> tuple:
    """The ergodic constant from one remainder solve per grid, extrapolated in h.

    c_h comes from `solve_remainder` on the experiment's grid, from w = 0,
    and on its refinements with 2n - 1 and 4n - 3 nodes per axis, each from
    the coarser grid's c and its w, prolonged (`grid.prolong`): Newton from
    there takes fewer steps, and their number does not grow with the grid
    (the mesh-independence principle of Allgower, Boehmer, Potra and
    Rheinboldt).  The report's `newton_steps` counts them per grid.
    The estimate is the Richardson value of the two finest at second order,
    and the bar its change from the coarser pair; at alpha != 0, where the
    order is not known, the bar adds the Grid Convergence Index at the
    order the three grids show (Roache), infinite if they show none.
    Returns (c_est, report); raises NonConvergence, naming the grid, if a
    solve fails, and UnresolvedLayer if the bar exceeds tol.
    """
    if not (math.isfinite(tol) and tol > 0.0):
        raise OutOfRange(f"tol must be a finite positive number, not {tol!r}")
    shapes = [tuple(m * (n - 1) + 1 for n in exp.grid.shape) for m in (1, 2, 4)]
    c_h, steps, start = [], [], None
    for m, shape in zip((1, 2, 4), shapes):
        grid = UniformGrid(shape, exp.grid.box)
        if start is not None:  # the coarser grid's (w, c), w prolonged
            start = (GridFunction(grid, prolong(start[0].values)), start[1])
        w, c, its = solve_remainder(exp.instance, grid, tuple(m * i for i in exp.probe_node),
                                    exp.solver_config, start)
        start = (w, c)
        c_h.append(c)
        steps.append(its)
    c_coarse, c_est = (fine + _RICHARDSON * (fine - coarse)
                       for coarse, fine in zip(c_h, c_h[1:]))
    bar = abs(c_est - c_coarse)
    if exp.exponents.alpha != 0.0:
        ratio = (c_h[0] - c_h[1]) / (c_h[1] - c_h[2]) if c_h[1] != c_h[2] else math.inf
        bar += _GCI_SAFETY * abs(c_h[2] - c_h[1]) / (ratio - 1.0) if ratio > 1.0 \
            else math.inf
    if bar > tol:
        raise UnresolvedLayer(f"error bar {bar:.3g} of the estimate {c_est:.6g} "
                              f"exceeds tol {tol:.3g} (c_h {c_h} on {shapes})")
    return c_est, {
        "c_est": c_est,
        "bar": bar,
        "bracket": [c_est - bar, c_est + bar],
        "tol": tol,
        "case": "log" if chi(exp.exponents) == 0.0 else "power",
        "grid_shapes": [list(shape) for shape in shapes],
        "c_h": c_h,  # the discrete constants, per grid
        "newton_steps": steps,  # per grid
        "c_richardson": [c_coarse, c_est],  # of the coarser and the finer pair
        # read by the benchmark's span counters until they are redefined
        # for this estimator: there are no verdicts any more
        "classifications": [],
    }


# ---------------------------------------------------------------------------
# boundary-layer sampling


def _face_rays(exp: ErgodicExperiment) -> list:
    """(face name, inward unit normal, midpoint boundary node, C) per face,
    C the face's `amplitude_C` at the value of b on that node."""
    grid, inst = exp.grid, exp.instance
    normals = face_normals(inst.domain)
    mids = [n // 2 for n in grid.shape]
    centre = [lo + i * h for lo, i, h in zip(grid.box.lo, mids, grid.spacing)]
    rays = []
    for k in range(grid.dim):
        for side, idx_val, wall in (("lo", 0, grid.box.lo[k]),
                                    ("hi", grid.shape[k] - 1, grid.box.hi[k])):
            name = f"axis{k}_{side}"
            node = list(mids)
            node[k] = idx_val
            b_face = inst.b.at(*centre[:k], wall, *centre[k + 1:])
            c_ref = amplitude_C(inst.operator, normals[name], inst.exponents, b_face)
            rays.append((name, normals[name], tuple(node), c_ref))
    return rays


def _layer_samples(exp: ErgodicExperiment, u: GridFunction, name, normal, node):
    """(distances, values, ray) along the inward normal in the fit layer.

    The ray is the index tuple of the sampled nodes: `u.values[ray]` are
    the values.
    """
    grid = exp.grid
    k = int(np.argmax(np.abs(normal)))
    lo_mult, hi_mult = exp.fit_span
    m = np.arange(max(1, math.ceil(lo_mult)), math.floor(hi_mult) + 1)
    m = m[m < grid.shape[k] - 1]  # the ray starts on the face: stop before the far one
    if m.size < 8:
        raise UnresolvedLayer(
            f"face {name}: only {m.size} usable shells in the fit layer (need >= 8)"
        )
    ray = node[:k] + (node[k] + int(np.sign(normal[k])) * m,) + node[k + 1:]
    return m * grid.spacing[k], u.values[ray], ray


def _power_normalization_shift(ds, vals) -> float:
    """Additive constant removing the regular part of a power-law layer.

    Solutions are determined up to additive constants and carry a bounded
    regular part next to the C d^-chi profile; both bias a two-parameter
    log-log fit at the coarse end of the layer.  A three-parameter fit of
    C d^-chi + k, with its Jacobian in closed form, is used only to
    estimate the normalization k.
    """
    from scipy.optimize import least_squares

    log_ds = np.log(ds)
    design = np.column_stack([log_ds, np.ones_like(ds)])
    coef, _, _, _ = np.linalg.lstsq(design, np.log(np.maximum(vals, 1e-300)),
                                    rcond=None)
    x0 = np.array([math.exp(coef[1]), -coef[0], 0.0])

    scale = np.maximum(np.abs(vals), 1e-300)

    def resid(params):
        c_amp, chi_v, k = params
        return (c_amp * ds ** (-chi_v) + k - vals) / scale

    def jac(params):
        c_amp, chi_v, _ = params
        power = ds ** (-chi_v)
        return np.column_stack([power, -c_amp * power * log_ds, np.ones_like(ds)]) \
            / scale[:, None]

    out = least_squares(resid, x0, jac=jac, method="lm", max_nfev=400)
    return float(out.x[2])


def verify_blowup_profile(exp: ErgodicExperiment, c: float, u: GridFunction) -> dict:
    """Fit the boundary-layer samples of u against the predicted blow-up profile.

    u is the solution at the shift c (`solve_at` at the top ladder
    amplitude, in the CLI and the demo).  Values are normalized before
    fitting: by u(probe) in the log case (pure additive-constant
    ambiguity) and by the estimated regular part in the power case.
    """
    chi_val = chi(exp.exponents)
    case = "power" if chi_val > 0.0 else "log"
    base_shift = float(u(exp.probe_node))
    faces = []
    for name, normal, node, c_ref in _face_rays(exp):
        ds, raw, _ = _layer_samples(exp, u, name, normal, node)
        shift = base_shift
        if case == "power":
            shift += _power_normalization_shift(ds, raw - base_shift)
        vals = raw - shift
        fit = blowup_profile_fit(ds, vals, case)
        entry = {
            "face": name,
            "c_ref": c_ref,
            "c_hat": fit["c_hat"],
            "c_rel_error": abs(fit["c_hat"] - c_ref) / abs(c_ref),
            "samples": fit["samples"],
            "profile_rows": [
                [float(d), float(v), float(v * d**chi_val / c_ref)]
                for d, v in zip(ds, vals)
            ],
        }
        if case == "power":
            entry["chi_hat"] = fit["chi_hat"]
            entry["chi_error"] = abs(fit["chi_hat"] - chi_val)
        faces.append(entry)
    report = {
        "case": case,
        "chi": chi_val,
        "c": c,
        "normalization_shift": shift,
        "fit_span": list(exp.fit_span),
        "faces": faces,
        "max_c_rel_error": max(fc["c_rel_error"] for fc in faces),
    }
    if case == "power":
        report["max_chi_error"] = max(fc["chi_error"] for fc in faces)
    return report


def verify_gradient_rate(
    exp: ErgodicExperiment,
    u: GridFunction,
) -> dict:
    """Trend of the normal gradient rate in the boundary layer.

    Power case: d^(chi+1) grad u . grad d / C(x) -> -chi.
    Log case (linear operator only): d grad u . grad d / C(x) -> -1.
    The trend is the d -> 0 extrapolation (intercept of a linear fit in d).
    """
    chi_val = chi(exp.exponents)
    if chi_val == 0.0 and not isinstance(exp.instance.operator, ScaledTrace):
        raise UnsupportedCase(
            "the log-case gradient rate is only established for linear operators"
        )
    target = -chi_val if chi_val > 0.0 else -1.0
    grad = gradient_field(u.values, u.grid.spacing)
    faces = []
    for name, normal, node, c_ref in _face_rays(exp):
        ds, _, ray = _layer_samples(exp, u, name, normal, node)
        inner = tuple(i - 1 for i in ray)  # the gradient lives on the interior
        # grad d is the inward normal: the distance grows away from the face
        slope = sum(nk * gk[inner] for nk, gk in zip(normal, grad))
        rate = ds ** (chi_val + 1.0) * slope / c_ref
        design = np.column_stack([np.ones_like(ds), ds])
        coef, _, _, _ = np.linalg.lstsq(design, rate, rcond=None)
        trend = float(coef[0])
        faces.append({
            "face": name,
            "trend": trend,
            "deviation": abs(trend - target),
            "samples": int(ds.size),
        })
    return {
        "chi": chi_val,
        "target": target,
        "faces": faces,
        "max_deviation": max(fc["deviation"] for fc in faces),
    }


# ---------------------------------------------------------------------------
# uniqueness up to additive constants


def _core_mask(grid: UniformGrid) -> np.ndarray:
    """Interior nodes of the inner-half subdomain (shrunk by 0.5)."""
    core = grid.box.shrunk(0.5)
    coords = grid.coords()
    mask = grid.interior_mask()
    for k in range(grid.dim):
        mask &= (coords[k] >= core.lo[k]) & (coords[k] <= core.hi[k])
    return mask


def check_uniqueness_hypotheses(exp: ErgodicExperiment, c: float) -> None:
    """Raise HypothesisViolated unless uniqueness up to constants is known.

    Requires sup f < -c; the strict exponent gap beta < alpha + 2 is only
    needed in the degenerate/singular regime alpha != 0 (the borderline
    beta = alpha + 2 is covered for alpha = 0).
    """
    ep = exp.exponents
    xs = exp.grid.coords()
    sup_f = float(np.max(exp.instance.f(*xs)))
    if sup_f >= -c:
        raise HypothesisViolated(
            f"sup f = {sup_f:.6g} is not below -c = {-c:.6g}"
        )
    if ep.alpha != 0.0 and ep.beta >= ep.alpha + 2.0:
        raise HypothesisViolated(
            "uniqueness requires beta < alpha + 2 when alpha != 0"
        )


def verify_uniqueness(
    exp: ErgodicExperiment, c: float, u: GridFunction | None = None
) -> dict:
    """Max deviation from constancy of u - v over the inner-half core.

    u and v are the solutions at the highest and the lowest ladder
    amplitude; u is solved here unless given.  At alpha = 0 the system is
    invariant under u -> u + k (rho = 1 and the eps terms cancel), so v is
    solved from u's translate to the lower data, and Newton only confirms
    its residual; otherwise v is solved cold.  The mean of u - v over the
    core is removed before the maximum is taken.  Raises HypothesisViolated
    if the experiment lies outside the regime where uniqueness holds
    (inapplicable, not a failure).
    """
    check_uniqueness_hypotheses(exp, c)
    lo_amp, hi_amp = exp.ladder[0], exp.ladder[-1]
    u_hi = u if u is not None else solve_at(exp, c, hi_amp)[0]
    start = None
    if exp.exponents.alpha == 0.0:
        start = GridFunction(exp.grid, u_hi.values - (hi_amp - lo_amp))
    u_lo, _ = solve_at(exp, c, lo_amp, start=start)
    mask = _core_mask(exp.grid)
    diff = u_hi.values[mask] - u_lo.values[mask]
    return {
        "c": c,
        "amplitudes": [lo_amp, hi_amp],
        "max_deviation": float(np.abs(diff - diff.mean()).max()),
        "core_nodes": int(mask.sum()),
    }


# ---------------------------------------------------------------------------
# zoom rescaling


def rescaled_solution(
    u: GridFunction,
    x0,
    delta: float,
    exponents: ExponentPair,
    zeta_counts,
    zeta_lo,
) -> GridFunction:
    """Zoomed field u_delta(zeta) = delta^chi u(x0 + delta zeta) on grid nodes.

    The zeta grid spacing is h/delta per axis, so the zeta nodes are
    consecutive nodes of u's grid once the first one lands on a node
    (OutOfRange otherwise, and when the window leaves the grid); the
    returned field therefore satisfies the rescaled equation to stencil
    accuracy.
    """
    from .model import Box

    grid = u.grid
    zeta_lo = np.atleast_1d(np.asarray(zeta_lo, dtype=float))
    counts = tuple(int(n) for n in np.atleast_1d(zeta_counts))
    first = np.atleast_1d(np.asarray(x0, dtype=float)) + delta * zeta_lo
    start = grid.nearest_node(first)
    landed = np.asarray(grid.box.lo) + np.asarray(start) * np.asarray(grid.spacing)
    if np.abs(landed - first).max() > 1e-9 * max(grid.spacing):
        raise OutOfRange("zeta node does not land on a grid node")
    if any(i < 0 or i + n > size for i, n, size in zip(start, counts, grid.shape)):
        raise OutOfRange("zeta window leaves the grid")
    window = tuple(slice(i, i + n) for i, n in zip(start, counts))
    spacing = [h / delta for h in grid.spacing]
    zeta_hi = [lo + (n - 1) * s for lo, n, s in zip(zeta_lo, counts, spacing)]
    zgrid = UniformGrid(counts, Box(tuple(zeta_lo), tuple(zeta_hi)))
    return GridFunction(zgrid, delta ** chi(exponents) * u.values[window])
