"""Command-line front end: config reading, orchestration, artifact emission.

Subcommands: solve, ergodic, asymptotics, convergence, property-suite,
oracle.  Every run reads a YAML config, writes a deterministic
``report.json`` (stable key order, no timestamps), optional CSV/binary
solution snapshots, and a ``manifest.json`` carrying the config hash,
package version and seed.  Output directories are never overwritten
unless ``--force`` is given.

Each runner reads all of its inputs inside one ``with _reading():`` block
before it starts any work, so a missing key, a key the run does not read,
a value of the wrong type or a value the constructors refuse is a config
error (exit 2): no report and no manifest, and ``--out`` is left as the run
found it.
Exit 1 means only that the experiment itself failed; its failure report is
still written.  Exit 0 is success.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import itertools
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


def _known(cfg: dict, accepted: tuple, where: str) -> dict:
    """cfg, once each of its keys is one of `accepted`, the keys the run reads.

    Any other key, such as a misspelt one, is a ConfigError naming it:
    a key nothing reads would otherwise be dropped without a word.
    """
    for key in cfg:
        if key not in accepted:
            raise ConfigError(f"the {where} key {key!r} is refused; the accepted keys "
                              "are " + ", ".join(accepted))
    return cfg


def _section(cfg: dict, key: str, accepted=None, default=None) -> dict:
    """cfg[key], or `default` when one is given and the key is absent; a
    mapping whose keys are among `accepted` when that is given."""
    section = cfg[key] if default is None else cfg.get(key, default)
    if not isinstance(section, dict):
        raise ConfigError(f"the {key} section must be a mapping")
    return section if accepted is None else _known(section, accepted, key)


# libyaml's parser with the safe constructor (the types of yaml.safe_load),
# about 6 times faster on a config; the pure-Python one if libyaml is absent
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


def load_config(path: Path) -> tuple:
    """Returns (config dict, sha256 of the raw bytes)."""
    try:
        raw = Path(path).read_bytes()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    digest = hashlib.sha256(raw).hexdigest()
    try:
        cfg = yaml.load(raw, Loader=_YAML_LOADER)
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: a tag like !!int 'x'
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg, digest


# the solver keys: each is the SolverConfig field of its name, a float
_SOLVER_KEYS = ("delta", "inner_tol")


def _solver_config(cfg: dict) -> SolverConfig:
    """SolverConfig from the optional `solver:` section (all keys optional)."""
    section = _section(cfg, "solver", _SOLVER_KEYS, {})
    return SolverConfig(**{key: _number(section, key) for key in section})


# the keys each operator kind reads
_OPERATOR_KEYS = {"trace": ("kind", "a"), "pucci+": ("kind", "a", "A"),
                  "pucci-": ("kind", "a", "A"),
                  "bellman-max": ("kind", "a", "A", "matrices")}


def _operator(cfg: dict) -> OperatorSpec:
    """F from the `operator:` section of an instance."""
    kind = cfg.get("kind")
    if kind not in _OPERATOR_KEYS:
        raise ConfigError(f"unknown operator kind {kind!r}")
    _known(cfg, _OPERATOR_KEYS[kind], "operator")
    if kind == "trace":
        return ScaledTrace(_number(cfg, "a", 1.0))
    bounds = EllipticityBounds(_number(cfg, "a"), _number(cfg, "A"))
    if kind == "bellman-max":
        mats = tuple(SymMatrix.from_array(np.array(m, dtype=float))
                     for m in cfg["matrices"])
        return BellmanMax(mats, bounds)
    return (PucciPlus if kind == "pucci+" else PucciMinus)(bounds)


def _instance(cfg: dict) -> EquationInstance:
    """The equation from the `instance:` section."""
    cfg = _section(cfg, "instance", ("operator", "alpha", "beta", "b", "f", "domain"))
    domain = _section(cfg, "domain", ("lo", "hi"))
    domain = Box(tuple(domain["lo"]), tuple(domain["hi"]))
    return EquationInstance(
        operator=_operator(_section(cfg, "operator")),
        exponents=ExponentPair(_number(cfg, "alpha"), _number(cfg, "beta")),
        b=ScalarField.from_expression(str(cfg["b"]), dim=domain.dim),
        f=ScalarField.from_expression(str(cfg["f"]), dim=domain.dim),
        domain=domain,
    )


def _grid(cfg: dict, box: Box) -> UniformGrid:
    shape = _section(cfg, "grid", ("shape",))["shape"]
    return UniformGrid(tuple(_integer(n) for n in np.atleast_1d(shape)), box)


def _experiment(cfg: dict, *run_keys: str) -> ErgodicExperiment:
    """The instance, grid, ladder, probe point, fit span and solver of a run
    whose config may hold, besides these, only `run_keys`."""
    _known(cfg, ("instance", "grid", "ladder", "probe_point", "fit_span", "solver")
           + run_keys, "top-level")
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


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, sort_keys=True, indent=2)
    path.write_text(text + "\n", encoding="utf-8")


def prepare_outdir(out: Path, force: bool) -> tuple:
    """(out, the directories made for it, innermost first)."""
    out = Path(out)
    if out.exists() and any(out.iterdir()) and not force:
        raise ConfigError(
            f"output directory {out} is not empty (pass --force to overwrite)"
        )
    made = list(itertools.takewhile(lambda p: not p.exists(), (out, *out.parents)))
    out.mkdir(parents=True, exist_ok=True)
    return out, made


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
        _known(cfg, ("instance", "grid", "boundary", "solver", "probe_point"),
               "top-level")
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
        exp = _experiment(cfg, "tol")
        tol = _tol(cfg, 1e-2)
    c_est, rep = estimate_ergodic_constant(exp, tol=tol)
    return {"experiment": "ergodic", **rep}


def run_asymptotics(cfg: dict, out: Path, seed) -> dict:
    with _reading():
        exp = _experiment(cfg, "c", "uniqueness")
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


def _reference(ref: dict, instance: EquationInstance, boundary: ScalarField, nodes):
    """The exact solution u(x) of the run's problem named by `reference: {kind}`.

    Its constants are the run's, each constant on the nodes: alpha from
    the instance, c0 (dirichlet-1d) or c (cosine) from f, and the cosine's
    amplitude from the boundary datum, so `kind` is the section's only key.
    A reference that does not solve the problem is a ConfigError.
    """
    kind = ref["kind"]

    def constant(field: ScalarField, name: str) -> float:
        values = field(nodes)
        if np.any(values != values[0]):
            raise ConfigError(f"the {kind} reference needs a constant {name}")
        return float(values[0])

    trace = (instance.operator == ScaledTrace(1.0)
             and instance.domain == Box((-1.0,), (1.0,)))
    if kind == "dirichlet-1d":
        if not (trace and constant(instance.b, "b") == 0.0
                and constant(boundary, "boundary") == 0.0):
            raise ConfigError("the dirichlet-1d reference solves only the trace with "
                              "a = 1, b = 0 and boundary 0 on (-1, 1)")
        return exact_dirichlet_1d(instance.exponents.alpha, constant(instance.f, "f"))
    if kind != "cosine":
        raise ConfigError(f"unknown reference kind: {kind!r}")
    if not (trace and instance.exponents == ExponentPair(0.0, 2.0)
            and constant(instance.b, "b") == 1.0):
        raise ConfigError("the cosine reference solves only the trace with a = 1, "
                          "alpha = 0, beta = 2 and b = 1 on (-1, 1)")
    c_val = constant(instance.f, "f")
    if c_val >= 0.0 or c_val <= -np.pi**2 / 4:
        raise ConfigError("the cosine reference requires f = c in (-pi^2/4, 0)")
    amp = constant(boundary, "boundary")
    root = np.sqrt(-c_val)

    def exact(x):
        return amp + np.log(np.cos(root)) - np.log(np.cos(root * x))

    return exact


def run_convergence(cfg: dict, out: Path, seed) -> dict:
    with _reading():
        _known(cfg, ("instance", "grid_sizes", "boundary", "reference", "solver"),
               "top-level")
        instance = _instance(cfg)
        sizes = _number(cfg, "grid_sizes", kind=lambda v: [_integer(n) for n in v])
        if not sizes or any(b <= a for a, b in zip(sizes, sizes[1:])):
            raise ConfigError("grid_sizes must be nonempty and strictly increasing")
        grids = [UniformGrid((n,), instance.domain) for n in sizes]
        boundary = ScalarField.from_expression(
            str(cfg["boundary"]), dim=instance.domain.dim
        )
        ref = _section(cfg, "reference", ("kind",))
        exact = _reference(ref, instance, boundary, grids[-1].axes()[0])
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
        _known(cfg, ("trials",), "top-level")
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
        _known(cfg, ("alpha", "beta", "a", "f", "tol", "shoot_c"), "top-level")
        exponents = ExponentPair(_number(cfg, "alpha"), _number(cfg, "beta"))
        a = _number(cfg, "a", 1.0)  # the trace coefficient: -a|u'|^alpha u''
        if not (np.isfinite(a) and a > 0.0):
            raise ConfigError(f"a must be a finite positive number, not {a!r}")
        f = ScalarField.from_expression(str(cfg.get("f", "0")), dim=1)
        tol = _tol(cfg, 1e-8)
        shoot_c = _number(cfg, "shoot_c") if "shoot_c" in cfg else None
    c_erg, rep = ergodic_constant_1d(exponents, f, trace_coefficient=a, tol=tol)
    report = {"experiment": "oracle", "c_erg": c_erg, **rep}
    if shoot_c is not None:
        report["x_star"] = shoot_blowup(exponents, shoot_c, f, trace_coefficient=a)
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


@functools.cache
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
        out, made = prepare_outdir(args.out, args.force)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    runner = _RUNNERS[args.command]
    try:
        report = runner(cfg, out, args.seed)
    except ConfigError as exc:
        # a runner refuses its config before it writes a file: leave --out
        # as the run found it
        for directory in made:
            directory.rmdir()
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except ErgopdeError as exc:
        write_manifest(out, digest, args.seed)
        write_json(out / "report.json", {
            "experiment": args.command,
            "failed": True,
            "error": type(exc).__name__,
            "message": str(exc),
            "config_sha256": digest,
        })
        print(f"experiment failure: {exc}", file=sys.stderr)
        return 1
    write_manifest(out, digest, args.seed)
    report["config_sha256"] = digest
    report["failed"] = False
    write_json(out / "report.json", report)
    print(f"{args.command}: ok ({out / 'report.json'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
