"""Command-line front end: config ingestion, orchestration, artifact emission.

Subcommands: solve, ergodic, asymptotics, convergence, property-suite,
oracle.  Every run reads a YAML config, writes a deterministic
``report.json`` (stable key order, no timestamps), optional CSV/binary
solution snapshots, and a ``manifest.json`` carrying the config hash,
package version and seed.  Exit codes: 0 success, 1 experiment failure
(report still written), 2 config error.  Output directories are never
overwritten unless ``--force`` is given.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from pathlib import Path

import numpy as np
import yaml

from . import __version__
from .errors import ConfigError, ErgopdeError
from .ergodic import (
    ErgodicExperiment,
    estimate_ergodic_constant,
    solve_at,
    verify_blowup_profile,
    verify_gradient_rate,
    verify_uniqueness,
)
from .grid import UniformGrid, save_binary, save_csv
from .model import (
    Box,
    ScalarField,
    instance_from_config,
    validate_exponents,
)
from .operators import (
    BellmanMax,
    EllipticityBounds,
    PucciMinus,
    PucciPlus,
    ScaledTrace,
    SymMatrix,
    check_homogeneity,
    check_uniform_ellipticity,
    eval_operator,
)
from .oracle1d import (
    ergodic_constant_1d,
    exact_dirichlet_1d,
    shoot_blowup,
)
from .solver import SolverConfig, residual_field, solve_dirichlet


# ---------------------------------------------------------------------------
# config parsing


def _require(cfg: dict, key: str):
    if key not in cfg:
        raise ConfigError(f"missing config key: {key!r}")
    return cfg[key]


def load_config(path: Path) -> tuple:
    """Returns (config dict, sha256 of the raw bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = yaml.safe_load(raw)
    except yaml.YAMLError as exc:
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg, digest


def solver_config_from(cfg: dict) -> SolverConfig:
    """SolverConfig from the `solver:` section (all keys optional)."""
    for key in ("engine", "fallback"):
        if key in cfg:
            raise ConfigError(
                f"solver key {key!r} is not supported: every solve runs the one "
                "semismooth Newton engine"
            )
    kwargs = {}
    if "delta_schedule" in cfg:
        kwargs["delta_schedule"] = tuple(float(d) for d in cfg["delta_schedule"])
    if "theta" in cfg:
        kwargs["theta"] = float(cfg["theta"])
    if "inner_tol" in cfg:
        kwargs["inner_tol"] = float(cfg["inner_tol"])
    if "max_iters" in cfg:
        kwargs["max_inner_iters"] = int(cfg["max_iters"])
    if "truncation" in cfg:
        trunc = cfg["truncation"]
        kwargs["truncation_M"] = "auto" if trunc == "auto" else float(trunc)
    try:
        return SolverConfig(**kwargs)
    except ErgopdeError as exc:
        raise ConfigError(f"invalid solver config: {exc}") from exc


def grid_from(cfg: dict, box: Box) -> UniformGrid:
    shape = _require(cfg, "shape")
    shape = tuple(int(n) for n in np.atleast_1d(shape))
    try:
        return UniformGrid(shape, box)
    except ErgopdeError as exc:
        raise ConfigError(f"invalid grid: {exc}") from exc


def _instance(cfg: dict):
    try:
        return instance_from_config(_require(cfg, "instance"))
    except ErgopdeError as exc:
        raise ConfigError(f"invalid instance: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid instance config: {exc}") from exc


def _experiment(cfg: dict, instance, grid) -> ErgodicExperiment:
    ladder = tuple(float(v) for v in _require(cfg, "ladder"))
    probe = tuple(float(v) for v in np.atleast_1d(_require(cfg, "probe_point")))
    kwargs = {}
    if "fit_span" in cfg:
        kwargs["fit_span"] = tuple(float(v) for v in cfg["fit_span"])
    if "drift_tol" in cfg:
        kwargs["drift_tol"] = float(cfg["drift_tol"])
    try:
        return ErgodicExperiment(
            instance=instance, grid=grid, ladder=ladder, probe_point=probe,
            solver_config=solver_config_from(cfg.get("solver", {})), **kwargs,
        )
    except ErgopdeError as exc:
        raise ConfigError(f"invalid experiment: {exc}") from exc


# ---------------------------------------------------------------------------
# artifact emission


def _json_ready(obj):
    if isinstance(obj, dict):
        return {str(k): _json_ready(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_json_ready(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    return obj


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(_json_ready(payload), sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8")


def prepare_outdir(out: Path, force: bool) -> Path:
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(
            f"output directory {out} is not empty (pass --force to overwrite)"
        )
    out.mkdir(parents=True, exist_ok=True)
    return out


def write_manifest(out: Path, digest: str, seed: int | None) -> None:
    write_json(out / "manifest.json", {
        "config_sha256": digest,
        "package": "ergopde",
        "version": __version__,
        "seed": seed,
    })


def _write_rows_csv(path: Path, header: list, rows: list) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v
                             for v in row])


# ---------------------------------------------------------------------------
# experiments


def run_solve(cfg: dict, out: Path, seed) -> dict:
    instance = _instance(cfg)
    grid = grid_from(_require(cfg, "grid"), instance.domain)
    boundary = ScalarField.from_expression(
        str(_require(cfg, "boundary")), dim=grid.dim
    )
    solver = solver_config_from(cfg.get("solver", {}))
    u, rep = solve_dirichlet(instance, boundary, grid, solver)
    probe = cfg.get("probe_point")
    report = {
        "experiment": "solve",
        "solver": rep.to_dict(),
        "grid_shape": list(grid.shape),
        "max_abs_residual": float(np.max(np.abs(residual_field(instance, u)))),
    }
    if probe is not None:
        node = grid.nearest_node(np.atleast_1d(probe))
        report["probe_point"] = list(np.atleast_1d(probe))
        report["u_probe"] = float(u.values[node])
    save_csv(u, out / "solution.csv")
    save_binary(u, out / "solution.bin")
    return report


def run_ergodic(cfg: dict, out: Path, seed) -> dict:
    instance = _instance(cfg)
    grid = grid_from(_require(cfg, "grid"), instance.domain)
    exp = _experiment(cfg, instance, grid)
    tol = float(cfg.get("tol", 1e-2))
    c_est, rep = estimate_ergodic_constant(exp, tol=tol)
    return {"experiment": "ergodic", **rep}


def run_asymptotics(cfg: dict, out: Path, seed) -> dict:
    instance = _instance(cfg)
    grid = grid_from(_require(cfg, "grid"), instance.domain)
    exp = _experiment(cfg, instance, grid)
    c = float(_require(cfg, "c"))
    u, _ = solve_at(exp, c, exp.ladder[-1])
    profile = verify_blowup_profile(exp, c, u=u)
    grad = verify_gradient_rate(exp, u)
    report = {
        "experiment": "asymptotics",
        "profile": {k: v for k, v in profile.items() if k != "faces"},
        "profile_faces": [
            {k: v for k, v in fc.items() if k != "profile_rows"}
            for fc in profile["faces"]
        ],
        "gradient_rate": grad,
    }
    if cfg.get("uniqueness", False):
        report["uniqueness"] = verify_uniqueness(exp, c)
    rows = []
    for fc in profile["faces"]:
        for d, v, scaled in fc["profile_rows"]:
            rows.append([fc["face"], d, v, scaled])
    _write_rows_csv(out / "profile.csv", ["face", "d", "u", "d_chi_u_over_C"],
                    rows)
    return report


def run_convergence(cfg: dict, out: Path, seed) -> dict:
    instance = _instance(cfg)
    sizes = [int(n) for n in _require(cfg, "grid_sizes")]
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ConfigError("grid_sizes must be strictly increasing")
    ref = _require(cfg, "reference")
    kind = _require(ref, "kind")
    if kind == "dirichlet-1d":
        exact = exact_dirichlet_1d(float(ref["alpha"]), float(ref["c0"]))
    elif kind == "cosine":
        c_val = float(ref["c"])
        amp = float(ref.get("amplitude", 0.0))
        if c_val >= 0.0 or c_val <= -np.pi**2 / 4:
            raise ConfigError("cosine reference requires c in (-pi^2/4, 0)")
        root = np.sqrt(-c_val)

        def exact(x):
            return amp + np.log(np.cos(root)) - np.log(np.cos(root * x))
    else:
        raise ConfigError(f"unknown reference kind: {kind!r}")
    boundary = ScalarField.from_expression(
        str(_require(cfg, "boundary")), dim=instance.domain.dim
    )
    solver = solver_config_from(cfg.get("solver", {}))
    rows, errors = [], []
    for n in sizes:
        grid = UniformGrid((n,), instance.domain)
        u, _ = solve_dirichlet(instance, boundary, grid, solver)
        x = grid.axes()[0]
        err = float(np.max(np.abs(u.values - exact(x))))
        h = grid.spacing[0]
        errors.append(err)
        rows.append([n, h, err])
    orders = [
        float(np.log2(a / b)) if b > 0 else float("inf")
        for a, b in zip(errors, errors[1:])
    ]
    _write_rows_csv(out / "errors.csv", ["nodes", "h", "max_error"], rows)
    return {
        "experiment": "convergence",
        "grid_sizes": sizes,
        "max_errors": errors,
        "observed_orders": orders,
        "reference": kind,
    }


def _suite_operators() -> tuple:
    bounds = EllipticityBounds(1.0, 2.0)
    bellman = BellmanMax(
        matrices=(
            SymMatrix.from_array(np.diag([1.0, 2.0])),
            SymMatrix.from_array(np.diag([2.0, 1.0])),
            SymMatrix.from_array(np.array([[1.5, 0.25], [0.25, 1.5]])),
        ),
        bounds=bounds,
    )
    return (ScaledTrace(), PucciPlus(bounds), PucciMinus(bounds), bellman)


def run_property_suite(cfg: dict, out: Path, seed) -> dict:
    trials = int(cfg.get("trials", 1000))
    seed = 0 if seed is None else int(seed)
    checks = []
    for spec in _suite_operators():
        for checker in (check_uniform_ellipticity, check_homogeneity):
            rep = checker(spec, trials, seed)
            checks.append(rep.to_dict())
    # Pucci duality: M-(M) = -M+(-M) on the shared sample stream.
    rng = np.random.default_rng(seed)
    bounds = EllipticityBounds(1.0, 2.0)
    plus, minus = PucciPlus(bounds), PucciMinus(bounds)
    worst = 0.0
    passes = 0
    for k in range(trials):
        dim = (1, 2, 3)[k % 3]
        m = rng.standard_normal((dim, dim))
        m = SymMatrix.from_array(0.5 * (m + m.T))
        neg = SymMatrix.from_array(-m.to_array())
        gap = abs(eval_operator(minus, m) + eval_operator(plus, neg))
        worst = max(worst, gap)
        passes += gap <= 1e-12 * (1.0 + abs(eval_operator(plus, neg)))
    checks.append({
        "name": "pucci-duality",
        "trials": trials,
        "passes": passes,
        "failures": trials - passes,
        "worst_margin": -worst,
    })
    all_passed = all(c["failures"] == 0 for c in checks)
    return {
        "experiment": "property-suite",
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "all_passed": bool(all_passed),
    }


def run_oracle(cfg: dict, out: Path, seed) -> dict:
    alpha = float(_require(cfg, "alpha"))
    beta = float(_require(cfg, "beta"))
    exponents = validate_exponents(alpha, beta)
    f = ScalarField.from_expression(str(cfg.get("f", "0")), dim=1)
    tol = float(cfg.get("tol", 1e-8))
    c_erg, rep = ergodic_constant_1d(exponents, f, tol=tol)
    report = {"experiment": "oracle", "c_erg": c_erg, **rep}
    if "shoot_c" in cfg:
        x_star, _ = shoot_blowup(exponents, float(cfg["shoot_c"]), f)
        report["x_star"] = x_star
    return report


_RUNNERS = {
    "solve": run_solve,
    "ergodic": run_ergodic,
    "asymptotics": run_asymptotics,
    "convergence": run_convergence,
    "property-suite": run_property_suite,
    "oracle": run_oracle,
}


# ---------------------------------------------------------------------------
# entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ergopde",
        description="experiments on gradient-degenerate elliptic PDEs",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, type=Path)
        p.add_argument("--out", required=True, type=Path)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--force", action="store_true")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg, digest = load_config(args.config)
        out = prepare_outdir(args.out, args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    write_manifest(out, digest, args.seed)
    runner = _RUNNERS[args.command]
    try:
        report = runner(cfg, out, args.seed)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgopdeError as exc:
        write_json(out / "report.json", {
            "experiment": args.command,
            "failed": True,
            "error": type(exc).__name__,
            "message": str(exc),
            "config_sha256": digest,
        })
        print(f"experiment failure: {exc}", file=sys.stderr)
        return 1
    report["config_sha256"] = digest
    report["failed"] = False
    write_json(out / "report.json", report)
    print(f"{args.command}: ok ({out / 'report.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
