"""Ergodic-constant estimation and blow-up asymptotics on the grid solver.

The ergodic problem replaces Dirichlet data with u = +infinity on the
boundary; the constant c_erg is the unique c for which that problem has a
solution.  Numerically the infinite datum is approximated by a ladder of
finite boundary amplitudes L1 < L2 < ...:

* for c above c_erg the Dirichlet family exists for every amplitude and
  u(x0) - L stabilizes along the ladder (the solutions differ by nearly
  additive constants);
* for c below c_erg the maximal interior solution blows up strictly
  inside the domain, so the ladder solves either fail to converge or
  u(x0) - L keeps drifting downward as L grows.

Bisection on this classification yields c_erg.  With c in hand, the
boundary-layer behaviour is compared against the predicted power/log
profiles, the gradient rate, and uniqueness up to additive constants.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import (
    BracketFailure,
    HypothesisViolated,
    LadderNonConvergence,
    NonConvergence,
    OutOfRange,
    UnresolvedLayer,
    UnsupportedCase,
)
from .grid import GridFunction, UniformGrid, gradient
from .model import EquationInstance, ExponentPair, ScalarField, amplitude_C, chi, \
    face_normals
from .operators import ScaledTrace
from .oracle1d import blowup_profile_fit
from .solver import SolverConfig, solve_dirichlet


def _default_fit_span() -> tuple:
    return (4.0, 64.0)


@dataclass(frozen=True)
class ErgodicExperiment:
    """A gradient-coercive instance plus the ladder/probe/fit-layer data."""

    instance: EquationInstance
    grid: UniformGrid
    ladder: tuple
    probe_point: tuple
    fit_span: tuple = field(default_factory=_default_fit_span)
    solver_config: SolverConfig | None = None
    drift_tol: float | None = None

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
        lo, hi = self.fit_span
        if not (0.0 < lo < hi):
            raise OutOfRange("fit span must satisfy 0 < lo < hi")

    @property
    def probe_node(self) -> tuple:
        return self.grid.nearest_node(self.probe_point)

    @property
    def exponents(self) -> ExponentPair:
        return self.instance.exponents

    def config(self) -> SolverConfig:
        return self.solver_config or SolverConfig()

    def effective_drift_tol(self) -> float:
        if self.drift_tol is not None:
            return self.drift_tol
        gap = min(b - a for a, b in zip(self.ladder, self.ladder[1:]))
        return 1e-3 * gap


def solve_at(
    exp: ErgodicExperiment,
    c: float,
    amplitude: float,
    initial: GridFunction | None = None,
    strict: bool = False,
) -> tuple:
    """One ladder rung: Dirichlet solve of the c-shifted instance.

    The hybrid (Peclet-switched upwind) solve is robust but its numerical
    diffusion admits solutions slightly past the solvability threshold.
    A centered-scheme polish warm-started from the hybrid solution removes
    that bias.  If the polish fails, strict=True raises NonConvergence
    (the threshold classifier's choice); otherwise the hybrid solution is
    returned.
    """
    shifted = exp.instance.shifted_f(c)
    datum = ScalarField.constant(float(amplitude), exp.grid.dim)
    cfg = exp.config()
    u, report = solve_dirichlet(shifted, datum, exp.grid, cfg, initial=initial)
    centered = replace(cfg, peclet_threshold=math.inf)
    try:
        return solve_dirichlet(shifted, datum, exp.grid, centered, initial=u)
    except NonConvergence:
        if strict:
            raise
        return u, report


# ---------------------------------------------------------------------------
# ergodic constant


def _classify(exp: ErgodicExperiment, c: float) -> tuple:
    """Ladder classification of a candidate c: 'above' or 'below' c_erg."""
    drift_tol = exp.effective_drift_tol()
    node = exp.probe_node
    offsets = []
    warm = None
    for amp in exp.ladder:
        try:
            u, _ = solve_at(exp, c, amp, initial=warm, strict=True)
        except NonConvergence as exc:
            return "below", {"rung": amp, "failure": str(exc), "offsets": offsets}
        warm = u
        offsets.append(float(u(node)) - amp)
    drifts = [b - a for a, b in zip(offsets, offsets[1:])]
    if drifts[-1] < -drift_tol:
        return "below", {"offsets": offsets, "drifts": drifts}
    return "above", {"offsets": offsets, "drifts": drifts}


def estimate_ergodic_constant(exp: ErgodicExperiment, tol: float = 1e-2) -> tuple:
    """Bisection for the ergodic constant of the experiment's instance.

    Returns (c_est, report); the report records the final bracket (the
    upper end is always on the solvable side), the ladder classifications,
    and the drift tolerance.  Raises BracketFailure if no sign change is
    found, LadderNonConvergence if even the initial upper candidate fails.
    """
    if tol <= 0.0:
        raise OutOfRange("tol must be positive")
    xs = exp.grid.coords()
    f_min = float(np.min(exp.instance.f(*xs)))
    history = []

    c_hi = 1.0 - f_min
    label, detail = _classify(exp, c_hi)
    history.append({"c": c_hi, "label": label, **detail})
    if label != "above":
        raise LadderNonConvergence(
            f"initial upper candidate c={c_hi} did not produce a stable ladder"
        )
    step = 1.0
    c_lo = c_hi - step
    for _ in range(60):
        label, detail = _classify(exp, c_lo)
        history.append({"c": c_lo, "label": label, **detail})
        if label == "below":
            break
        c_hi = c_lo
        step *= 2.0
        c_lo = c_hi - step
    else:
        raise BracketFailure("no lower bracket end found within 60 expansions")

    while c_hi - c_lo > tol:
        mid = 0.5 * (c_lo + c_hi)
        label, detail = _classify(exp, mid)
        history.append({"c": mid, "label": label, **detail})
        if label == "above":
            c_hi = mid
        else:
            c_lo = mid
    c_est = 0.5 * (c_lo + c_hi)
    report = {
        "c_est": c_est,
        "bracket": [c_lo, c_hi],
        "tol": tol,
        "drift_tol": exp.effective_drift_tol(),
        "ladder": list(exp.ladder),
        "classifications": history,
        "grid_shape": list(exp.grid.shape),
    }
    return c_est, report


# ---------------------------------------------------------------------------
# boundary-layer sampling


def _face_rays(exp: ErgodicExperiment) -> list:
    """(face name, inward unit normal, midpoint boundary node) per face."""
    grid = exp.grid
    normals = face_normals(exp.instance.domain)
    rays = []
    for k in range(grid.dim):
        mids = [n // 2 for n in grid.shape]
        for side, idx_val in (("lo", 0), ("hi", grid.shape[k] - 1)):
            name = f"axis{k}_{side}"
            node = list(mids)
            node[k] = idx_val
            rays.append((name, normals[name], tuple(node)))
    return rays


def _layer_samples(exp: ErgodicExperiment, u: GridFunction, name, normal, node):
    """(distances, values, nodes) along the inward normal in the fit layer."""
    grid = exp.grid
    k = int(np.argmax(np.abs(normal)))
    step = int(np.sign(normal[k]))
    h = grid.spacing[k]
    lo_mult, hi_mult = exp.fit_span
    k_min = max(1, int(math.ceil(lo_mult)))
    k_max = int(math.floor(hi_mult))
    limit = grid.shape[k] - 1
    ds, vals, nodes = [], [], []
    for m in range(k_min, k_max + 1):
        idx = list(node)
        idx[k] += step * m
        if not (0 < idx[k] < limit):
            break
        ds.append(m * h)
        vals.append(float(u(tuple(idx))))
        nodes.append(tuple(idx))
    if len(ds) < 8:
        raise UnresolvedLayer(
            f"face {name}: only {len(ds)} usable shells in the fit layer (need >= 8)"
        )
    return np.array(ds), np.array(vals), nodes


def _power_normalization_shift(ds, vals) -> float:
    """Additive constant removing the regular part of a power-law layer.

    Solutions are determined up to additive constants and carry a bounded
    regular part next to the C d^-chi profile; both bias a two-parameter
    log-log fit at the coarse end of the layer.  A three-parameter fit of
    C d^-chi + k is used only to estimate the normalization k.
    """
    from scipy.optimize import least_squares

    design = np.column_stack([np.log(ds), np.ones_like(ds)])
    coef, _, _, _ = np.linalg.lstsq(design, np.log(np.maximum(vals, 1e-300)),
                                    rcond=None)
    x0 = np.array([math.exp(coef[1]), -coef[0], 0.0])

    scale = np.maximum(np.abs(vals), 1e-300)

    def resid(params):
        c_amp, chi_v, k = params
        return (c_amp * ds ** (-chi_v) + k - vals) / scale

    out = least_squares(resid, x0, method="lm", max_nfev=400)
    return float(out.x[2])


def verify_blowup_profile(
    exp: ErgodicExperiment,
    c: float,
    u: GridFunction | None = None,
) -> dict:
    """Fit the boundary-layer samples against the predicted blow-up profile.

    Solves at the top ladder amplitude unless a solution is supplied.
    Values are normalized before fitting: by u(probe) in the log case
    (pure additive-constant ambiguity) and by the estimated regular part
    in the power case.
    """
    if u is None:
        u, _ = solve_at(exp, c, exp.ladder[-1])
    chi_val = chi(exp.exponents)
    case = "power" if chi_val > 0.0 else "log"
    base_shift = float(u(exp.probe_node))
    faces = []
    for name, normal, node in _face_rays(exp):
        ds, raw, _ = _layer_samples(exp, u, name, normal, node)
        shift = base_shift
        if case == "power":
            shift += _power_normalization_shift(ds, raw - base_shift)
        vals = raw
        fit = blowup_profile_fit(ds, vals - shift, case)
        c_ref = amplitude_C(exp.instance.operator, normal, exp.exponents)
        entry = {
            "face": name,
            "c_ref": c_ref,
            "c_hat": fit["c_hat"],
            "c_rel_error": abs(fit["c_hat"] - c_ref) / abs(c_ref),
            "samples": fit["samples"],
            "profile_rows": [
                [float(d), float(v), float(v * d**chi_val / c_ref)]
                for d, v in zip(ds, vals - shift)
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
    faces = []
    for name, normal, node in _face_rays(exp):
        ds, _, nodes = _layer_samples(exp, u, name, normal, node)
        c_ref = amplitude_C(exp.instance.operator, normal, exp.exponents)
        rate = []
        for d, idx in zip(ds, nodes):
            grad_d = -np.asarray(normal)  # distance decreases toward the face
            g = gradient(u, idx)
            rate.append(d ** (chi_val + 1.0) * float(g @ (-grad_d)) / c_ref)
        rate = np.array(rate)
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
    amplitude; u is solved here unless given.  The mean of u - v over the
    core is removed before the maximum is taken.  Raises HypothesisViolated
    if the experiment lies outside the regime where uniqueness holds
    (inapplicable, not a failure).
    """
    check_uniqueness_hypotheses(exp, c)
    lo_amp, hi_amp = exp.ladder[0], exp.ladder[-1]
    u_lo, _ = solve_at(exp, c, lo_amp)
    u_hi = u if u is not None else solve_at(exp, c, hi_amp)[0]
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

    The zeta grid spacing is h/delta per axis so every zeta node lands
    exactly on a node of u's grid (OutOfRange otherwise); the returned
    field therefore satisfies the rescaled equation to stencil accuracy.
    """
    from .model import Box

    grid = u.grid
    x0 = np.atleast_1d(np.asarray(x0, dtype=float))
    zeta_lo = np.atleast_1d(np.asarray(zeta_lo, dtype=float))
    counts = tuple(int(n) for n in np.atleast_1d(zeta_counts))
    chi_val = chi(exponents)
    spacing = [h / delta for h in grid.spacing]
    zeta_hi = [lo + (n - 1) * s for lo, n, s in zip(zeta_lo, counts, spacing)]
    vals = np.empty(counts)
    for multi in np.ndindex(counts):
        point = x0 + delta * (zeta_lo + np.array(multi) * np.array(spacing))
        node = grid.nearest_node(point)
        exact = grid.node_position(node)
        if np.abs(exact - point).max() > 1e-9 * max(grid.spacing):
            raise OutOfRange("zeta node does not land on a grid node")
        vals[multi] = delta**chi_val * u.values[node]
    zgrid = UniformGrid(counts, Box(tuple(zeta_lo), tuple(zeta_hi)))
    return GridFunction(zgrid, vals)
