"""Command-line front end: config reading, orchestration, artifact emission.

Subcommands: solve, ergodic, asymptotics, convergence, property-suite,
oracle.  Every run reads a YAML config, writes a deterministic
``report.json`` (stable key order, no timestamps), optional CSV/binary
solution snapshots, and a ``manifest.json`` carrying the config hash,
package version and seed.  Output directories are never overwritten
unless ``--force`` is given.

Each runner reads all of its inputs inside one ``with _reading():`` block
before it starts any work, so a missing key, a value of the wrong type or
a value the constructors refuse is a config error (exit 2, no report).
Exit 1 means only that the experiment itself failed; its failure report is
still written.  Exit 0 is success.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import sys
from contextlib import contextmanager
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
from .model import Box, EquationInstance, ExponentPair, ScalarField
from .operators import (
    BellmanMax,
    EllipticityBounds,
    OperatorSpec,
    PucciMinus,
    PucciPlus,
    ScaledTrace,
    SymMatrix,
    check_homogeneity,
    check_pucci_duality,
    check_uniform_ellipticity,
)
from .oracle1d import (
    ergodic_constant_1d,
    exact_dirichlet_1d,
    shoot_blowup,
)
from .solver import SolverConfig, solve_dirichlet


# ---------------------------------------------------------------------------
# config reading


@contextmanager
def _reading():
    """Turns what reading a config raises into a ConfigError (exit 2).

    A KeyError is a missing key; a TypeError or ValueError is a value of the
    wrong type; an ErgopdeError is a value a constructor refuses.  Only the
    reading of a run's inputs goes in the block, never the experiment.
    """
    try:
        yield
    except ConfigError:
        raise
    except KeyError as exc:
        raise ConfigError(f"missing config key: {exc}") from exc
    except (ErgopdeError, TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config: {exc}") from exc


def _number(cfg: dict, key: str, default=None, kind=float):
    """kind(cfg[key]), or of `default` when one is given and the key is absent.

    A value that kind cannot convert, or a YAML boolean, is a ConfigError
    naming the key.
    """
    value = cfg[key] if default is None else cfg.get(key, default)
    try:
        if isinstance(value, bool):  # float(True) would read as 1.0
            raise TypeError("a boolean is not a number")
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value for {key!r}: {value!r}") from exc


def _integer(value) -> int:
    """int(value), but a fractional or infinite value is a ValueError."""
    if not float(value).is_integer():
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _tol(cfg: dict, default: float) -> float:
    """The `tol` key as a float, which must be finite and positive."""
    tol = _number(cfg, "tol", default)
    if not (np.isfinite(tol) and tol > 0.0):
        raise ConfigError(f"tol must be a finite positive number, not {tol!r}")
    return tol


def _section(cfg: dict, key: str, default=None) -> dict:
    """cfg[key], or `default` when one is given and the key is absent; a mapping."""
    section = cfg[key] if default is None else cfg.get(key, default)
    if not isinstance(section, dict):
        raise ConfigError(f"the {key} section must be a mapping")
    return section


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


# solver key -> (SolverConfig field, conversion)
_SOLVER_KEYS = {
    "delta": ("delta", float),
    "inner_tol": ("inner_tol", float),
    "max_iters": ("max_inner_iters", _integer),
}


def _solver_config(cfg: dict) -> SolverConfig:
    """SolverConfig from the optional `solver:` section (all keys optional)."""
    section = _section(cfg, "solver", {})
    for key in section:
        if key not in _SOLVER_KEYS:
            raise ConfigError(
                f"unknown solver key {key!r}; the accepted keys are "
                + ", ".join(_SOLVER_KEYS)
            )
    return SolverConfig(**{
        _SOLVER_KEYS[key][0]: _number(section, key, kind=_SOLVER_KEYS[key][1])
        for key in section
    })


def _operator(cfg: dict) -> OperatorSpec:
    """F from the `operator:` section of an instance."""
    kind = cfg.get("kind")
    if kind == "trace":
        return ScaledTrace(_number(cfg, "a", 1.0))
    if kind not in ("pucci+", "pucci-", "bellman-max"):
        raise ConfigError(f"unknown operator kind {kind!r}")
    bounds = EllipticityBounds(_number(cfg, "a"), _number(cfg, "A"))
    if kind == "bellman-max":
        mats = tuple(SymMatrix.from_array(np.array(m, dtype=float))
                     for m in cfg["matrices"])
        return BellmanMax(mats, bounds)
    return (PucciPlus if kind == "pucci+" else PucciMinus)(bounds)


def _instance(cfg: dict) -> EquationInstance:
    """The equation from the `instance:` section."""
    cfg = _section(cfg, "instance")
    domain = Box(tuple(cfg["domain"]["lo"]), tuple(cfg["domain"]["hi"]))
    return EquationInstance(
        operator=_operator(_section(cfg, "operator")),
        exponents=ExponentPair(_number(cfg, "alpha"), _number(cfg, "beta")),
        b=ScalarField.from_expression(str(cfg["b"]), dim=domain.dim),
        f=ScalarField.from_expression(str(cfg["f"]), dim=domain.dim),
        domain=domain,
    )


def _grid(cfg: dict, box: Box) -> UniformGrid:
    shape = _section(cfg, "grid")["shape"]
    return UniformGrid(tuple(_integer(n) for n in np.atleast_1d(shape)), box)


def _experiment(cfg: dict) -> ErgodicExperiment:
    """The instance, grid, ladder, probe point, fit span and solver of a run."""
    if "drift_tol" in cfg:  # the ladder classifier's key: nothing reads it
        raise ConfigError("the key 'drift_tol' is refused: the estimate has no drifts")
    instance = _instance(cfg)
    kwargs = {}
    if "fit_span" in cfg:
        kwargs["fit_span"] = tuple(float(v) for v in cfg["fit_span"])
    return ErgodicExperiment(
        instance=instance, grid=_grid(cfg, instance.domain), ladder=cfg["ladder"],
        probe_point=cfg["probe_point"], solver_config=_solver_config(cfg), **kwargs,
    )


# ---------------------------------------------------------------------------
# artifact emission


def _json_default(obj):
    """numpy scalars and arrays, the values json cannot write itself."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.generic):
        return obj.item()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2, default=_json_default)
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
    with _reading():
        instance = _instance(cfg)
        grid = _grid(cfg, instance.domain)
        boundary = ScalarField.from_expression(str(cfg["boundary"]), dim=grid.dim)
        solver = _solver_config(cfg)
        probe = cfg.get("probe_point")
        if probe is not None:
            probe = np.atleast_1d(probe).astype(float)
            node = grid.nearest_node(probe)
            if not grid.is_interior(node):
                raise ConfigError(
                    f"probe point {probe.tolist()} is not an interior node")
    u, rep = solve_dirichlet(instance, boundary, grid, solver)
    report = {
        "experiment": "solve",
        "solver": rep.to_dict(),
        "grid_shape": list(grid.shape),
        "max_abs_residual": rep.final_residual,
    }
    if probe is not None:
        report["probe_point"] = probe.tolist()
        report["u_probe"] = float(u.values[node])
    save_csv(u, out / "solution.csv")
    save_binary(u, out / "solution.bin")
    return report


def run_ergodic(cfg: dict, out: Path, seed) -> dict:
    with _reading():
        exp = _experiment(cfg)
        tol = _tol(cfg, 1e-2)
    c_est, rep = estimate_ergodic_constant(exp, tol=tol)
    return {"experiment": "ergodic", **rep}


def run_asymptotics(cfg: dict, out: Path, seed) -> dict:
    with _reading():
        exp = _experiment(cfg)
        c = _number(cfg, "c")
        uniqueness = cfg.get("uniqueness", False)
        if not isinstance(uniqueness, bool):
            raise ConfigError(f"uniqueness must be true or false, not {uniqueness!r}")
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
    if uniqueness:
        report["uniqueness"] = verify_uniqueness(exp, c, u=u)
    rows = []
    for fc in profile["faces"]:
        for d, v, scaled in fc["profile_rows"]:
            rows.append([fc["face"], d, v, scaled])
    _write_rows_csv(out / "profile.csv", ["face", "d", "u", "d_chi_u_over_C"],
                    rows)
    return report


def _reference(ref: dict):
    """The exact solution u(x) named by the `reference:` section."""
    kind = ref["kind"]
    if kind == "dirichlet-1d":
        return exact_dirichlet_1d(_number(ref, "alpha"), _number(ref, "c0"))
    if kind != "cosine":
        raise ConfigError(f"unknown reference kind: {kind!r}")
    c_val = _number(ref, "c")
    amp = _number(ref, "amplitude", 0.0)
    if c_val >= 0.0 or c_val <= -np.pi**2 / 4:
        raise ConfigError("cosine reference requires c in (-pi^2/4, 0)")
    root = np.sqrt(-c_val)

    def exact(x):
        return amp + np.log(np.cos(root)) - np.log(np.cos(root * x))

    return exact


def run_convergence(cfg: dict, out: Path, seed) -> dict:
    with _reading():
        instance = _instance(cfg)
        sizes = _number(cfg, "grid_sizes", kind=lambda v: [_integer(n) for n in v])
        if any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("grid_sizes must be strictly increasing")
        grids = [UniformGrid((n,), instance.domain) for n in sizes]
        ref = _section(cfg, "reference")
        exact = _reference(ref)
        boundary = ScalarField.from_expression(
            str(cfg["boundary"]), dim=instance.domain.dim
        )
        solver = _solver_config(cfg)
    rows, errors = [], []
    for grid in grids:
        u, _ = solve_dirichlet(instance, boundary, grid, solver)
        x = grid.axes()[0]
        err = float(np.max(np.abs(u.values - exact(x))))
        h = grid.spacing[0]
        errors.append(err)
        rows.append([grid.shape[0], h, err])
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
        "reference": ref["kind"],
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
    with _reading():
        trials = _number(cfg, "trials", 1000, _integer)
        if trials < 1:
            raise ConfigError(f"trials must be at least 1, not {trials}")
    seed = 0 if seed is None else int(seed)
    checks = [
        checker(spec, trials, seed).to_dict()
        for spec in _suite_operators()
        for checker in (check_uniform_ellipticity, check_homogeneity)
    ]
    duality = check_pucci_duality(EllipticityBounds(1.0, 2.0), trials, seed)
    checks.append(duality.to_dict())
    all_passed = all(c["failures"] == 0 for c in checks)
    return {
        "experiment": "property-suite",
        "seed": seed,
        "trials": trials,
        "checks": checks,
        "all_passed": bool(all_passed),
    }


def run_oracle(cfg: dict, out: Path, seed) -> dict:
    with _reading():
        exponents = ExponentPair(_number(cfg, "alpha"), _number(cfg, "beta"))
        f = ScalarField.from_expression(str(cfg.get("f", "0")), dim=1)
        tol = _tol(cfg, 1e-8)
        shoot_c = _number(cfg, "shoot_c") if "shoot_c" in cfg else None
    c_erg, rep = ergodic_constant_1d(exponents, f, tol=tol)
    report = {"experiment": "oracle", "c_erg": c_erg, **rep}
    if shoot_c is not None:
        report["x_star"] = shoot_blowup(exponents, shoot_c, f)
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
