"""The benchmark's workloads: inputs, set-up, one timed pass, checks.

Each workload builds its inputs from the seed alone and hands the program
only those inputs.  A pass runs every task of the workload once; the same
inputs are used in every pass of a run, so counters repeat exactly from
pass to pass and from run to run with the same seed.  Checks compare the
outputs with references from `reference.py` or with the oracle, never with
the program's own diagnostics, and run outside the timed region.

Why each workload exists, and why some inputs are fixed rather than drawn
from the seed, is written down in README.md beside this file.
"""

from __future__ import annotations

import contextlib
import json
import math
import shutil
import sys
from dataclasses import dataclass
from pathlib import Path

import reference


def import_ergopde(src: Path):
    """Import ergopde from `src` and refuse any other copy of the package."""
    init = src / "ergopde" / "__init__.py"
    if not init.is_file():
        raise RuntimeError(f"no ergopde package under {src}")
    sys.path.insert(0, str(src))
    import ergopde
    import ergopde.cli  # not imported by the package itself

    if Path(ergopde.__file__).resolve() != init.resolve():
        raise RuntimeError(f"imported ergopde from {ergopde.__file__}, not {init}")
    return ergopde


@dataclass
class Check:
    """Outcome of checking one task's output against its reference."""

    task: str
    what: str  # the quantity `err` measures
    err: float  # the checked error, as reported (NaN if there is no output)
    ratio: float  # worst error over the error its check allows

    @property
    def ok(self) -> bool:
        return self.ratio <= 1.0


def check_c(task: str, c_est: float, c_ref: float, limit: float) -> Check:
    """|c_est - c_ref| <= limit; err is the relative error |c_est - c_ref| / |c_ref|."""
    return Check(task, "c_err_rel", abs(c_est - c_ref) / abs(c_ref),
                 abs(c_est - c_ref) / limit)


def check_sandwich(task: str, lower, middle, upper, tol: float = 1e-9) -> Check:
    """Node-wise lower <= middle <= upper (comparison principle)."""
    violation = max(float((lower - middle).max()), float((middle - upper).max()), 0.0)
    return Check(task, "sandwich_violation", violation, violation / tol)


def check_profile(task: str, report: dict, alpha: float, beta: float, a: float,
                  c_limit: float, limit: float = 0.10,
                  uniqueness_limit: float = 1e-2) -> Check:
    """Blow-up fit of an `asymptotics` report against the closed forms.

    err is the largest of the amplitude relative error, the chi error and
    the gradient-rate deviation over the faces.  The amplitude may be off
    by c_limit, the other two by `limit`; the uniqueness deviation must
    stay below uniqueness_limit.
    """
    if report.get("failed", True):
        return Check(task, "fit_err", math.nan, math.inf)
    c_ref = reference.amplitude(alpha, beta, a)
    x = reference.chi(alpha, beta)
    target = -x if x > 0.0 else -1.0
    c_errs = [abs(face["c_hat"] - c_ref) / c_ref for face in report["profile_faces"]]
    other = [abs(face["trend"] - target) for face in report["gradient_rate"]["faces"]]
    if x > 0.0:
        other += [abs(face["chi_hat"] - x) for face in report["profile_faces"]]
    ratio = max(max(c_errs) / c_limit, max(other) / limit,
                report["uniqueness"]["max_deviation"] / uniqueness_limit)
    return Check(task, "fit_err", max(c_errs + other), ratio)


class Workload:
    """Base: subclasses set `name` and implement the hooks below."""

    name = ""
    unit = None  # (ergopde module, function): long tasks are timed per call

    def __init__(self, ergopde, seed: int, workdir: Path):
        self.ep = ergopde
        self.seed = seed
        self.workdir = workdir

    def setup(self) -> None:
        """Build instances and grids from the seed (repeatable)."""

    def warm_up(self) -> None:
        """One small task so lazy imports and caches are filled."""

    def prepare_references(self) -> None:
        """Compute the references the checks need (untimed)."""

    def tasks(self) -> list:
        """[(task id, zero-argument callable)] for one pass."""
        raise NotImplementedError

    def check(self, outputs: dict) -> list:
        """[Check] for the outputs of one pass (task id -> return value)."""
        raise NotImplementedError

    def close(self) -> None:
        """Remove files the pass wrote."""


class Ergodic1D(Workload):
    """One estimate_ergodic_constant on (-1, 1) with f = 0.5 cos 3x."""

    name = "ergodic-1d"
    unit = ("ergodic", "solve_at")
    nodes = 101
    tol = 0.02
    forcing = "0.5*cos(3.0*x)"

    def setup(self):
        ep = self.ep
        self.domain = ep.Box((-1.0,), (1.0,))
        self.f = ep.ScalarField.from_expression(self.forcing, dim=1)
        instance = ep.EquationInstance(
            operator=ep.ScaledTrace(), exponents=ep.ExponentPair(0.0, 2.0),
            b=ep.ScalarField.constant(1.0, 1), f=self.f, domain=self.domain,
        )
        self.grid = ep.UniformGrid((self.nodes,), self.domain)
        self.exp = ep.ErgodicExperiment(
            instance=instance, grid=self.grid, ladder=(10.0, 15.0, 20.0),
            probe_point=(0.0,),
        )

    def warm_up(self):
        # the first candidate of the bisection: always "above", solves fast
        c_top = 1.0 - float(self.f(*self.grid.coords()).min())
        self.ep.ergodic.solve_at(self.exp, c_top, self.exp.ladder[0])

    def prepare_references(self):
        self.c_ref, _ = self.ep.ergodic_constant_1d(self.ep.ExponentPair(0.0, 2.0), self.f)

    def tasks(self):
        return [("estimate", lambda: self.ep.ergodic.estimate_ergodic_constant(
            self.exp, tol=self.tol))]

    def check(self, outputs):
        c_est, _ = outputs["estimate"]
        # bracket width tol, plus the first-order bias c_h - c_Omega ~ 3.07 h
        limit = self.tol + 4.0 * self.grid.spacing[0]
        return [check_c("estimate", c_est, self.c_ref, limit)]


class Asymptotics1D(Workload):
    """`ergopde asymptotics` with uniqueness, power and log case, via cli.main."""

    name = "asymptotics-1d"
    unit = ("ergodic", "solve_at")
    # (case, beta, a, nodes, c - c_Omega, ladder, amplitude limit): the AC-2
    # and AC-4 limits.  The log case sits just above its discrete threshold
    # c_h ~ c_Omega + 3 h (README.md, "Checks").
    cases = (
        ("power", 1.5, 1.0, 401, 1e-4, (10.0, 20.0, 40.0), 0.10),
        ("log", 2.0, 1.0, 801, 0.009, (10.0, 15.0, 20.0), 0.05),
    )

    def setup(self):
        import yaml

        self.configs = {}
        for case, beta, a, nodes, dc, ladder, _ in self.cases:
            cfg = {
                "instance": {
                    "operator": {"kind": "trace", "a": a}, "alpha": 0.0,
                    "beta": beta, "b": "1", "f": "0",
                    "domain": {"lo": [-1.0], "hi": [1.0]},
                },
                "grid": {"shape": [nodes]},
                "ladder": list(ladder),
                "probe_point": [0.0],
                "c": reference.c_omega(0.0, beta, a) + dc,
                "uniqueness": True,
            }
            path = self.workdir / f"asymptotics-{case}.yaml"
            path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
            self.configs[case] = path

    def _run(self, case):
        out = self.workdir / f"asymptotics-{case}"
        argv = ["asymptotics", "--config", str(self.configs[case]),
                "--out", str(out), "--force"]
        # the CLI's status line would land before the result line
        with contextlib.redirect_stdout(sys.stderr):
            return self.ep.cli.main(argv), out

    def warm_up(self):
        self._run("log")

    def tasks(self):
        return [(case, lambda case=case: self._run(case)) for case, *_ in self.cases]

    def check(self, outputs):
        checks = []
        for case, beta, a, _, _, _, c_limit in self.cases:
            code, out = outputs[case]
            report = json.loads((out / "report.json").read_text(encoding="utf-8"))
            if code != 0:
                report["failed"] = True
            checks.append(check_profile(case, report, 0.0, beta, a, c_limit))
        return checks

    def close(self):
        for case, *_ in self.cases:
            shutil.rmtree(self.workdir / f"asymptotics-{case}", ignore_errors=True)
            (self.workdir / f"asymptotics-{case}.yaml").unlink(missing_ok=True)


class Pucci2D(Workload):
    """solve_dirichlet on (-1, 1)^2 for Pucci-, a scaled trace and Pucci+."""

    name = "pucci-2d"
    nodes = 5
    bounds = (1.0, 2.0)
    beta = 1.5
    residual_limit = 1e-5

    def setup(self):
        import numpy as np

        ep = self.ep
        rng = np.random.default_rng(self.seed)
        self.amp = -0.8 + 1.6 * float(rng.uniform())  # f = 1 + A x y
        domain = ep.Box((-1.0, -1.0), (1.0, 1.0))
        self.grid = ep.UniformGrid((self.nodes, self.nodes), domain)
        ell = ep.EllipticityBounds(*self.bounds)
        trace_coef = 0.5 * sum(self.bounds)
        self.operators = {
            "pucci-": (ep.PucciMinus(ell), self.bounds),
            "trace": (ep.ScaledTrace(trace_coef), (trace_coef,)),
            "pucci+": (ep.PucciPlus(ell), self.bounds),
        }
        f = ep.ScalarField.from_expression(f"1 + {self.amp!r}*x*y", dim=2)
        self.instances = {
            key: ep.EquationInstance(
                operator=op, exponents=ep.ExponentPair(0.0, self.beta),
                b=ep.ScalarField.constant(1.0, 2), f=f, domain=domain,
            )
            for key, (op, _) in self.operators.items()
        }
        self.zero = ep.ScalarField.constant(0.0, 2)

    def _solve(self, key):
        return self.ep.solver.solve_dirichlet(self.instances[key], self.zero, self.grid)

    def warm_up(self):
        self._solve("trace")

    def prepare_references(self):
        x, y = self.grid.coords()
        self.f_interior = 1.0 + self.amp * x[1:-1, 1:-1] * y[1:-1, 1:-1]

    def tasks(self):
        return [(key, lambda key=key: self._solve(key)) for key in self.operators]

    def check(self, outputs):
        h = self.grid.spacing[0]
        values = {key: outputs[key][0].values for key in self.operators}
        checks = []
        for key, (_, coefs) in self.operators.items():
            res = reference.residual_2d(values[key], h, key, coefs, self.beta,
                                        self.f_interior)
            worst = float(abs(res).max())
            checks.append(Check(key, "max_residual", worst, worst / self.residual_limit))
        # the trace solution must lie between the two extremal solutions
        checks.append(check_sandwich("trace", values["pucci-"], values["trace"],
                                     values["pucci+"]))
        return checks


class Oracle1D(Workload):
    """ergodic_constant_1d with f = 0 on seeded (alpha, beta, a)."""

    name = "oracle-1d"
    calls = 8  # a short pass: ~15 passes a run, so each call is timed ~15 times
    rel_limit = 1e-8

    def setup(self):
        import numpy as np

        ep = self.ep
        rng = np.random.default_rng(self.seed)
        # a mirrored Latin hypercube over (alpha, beta - alpha - 1, a): every
        # call has its own stratum on each axis, so each seed covers the whole
        # box, and the second half of the calls mirrors the first (u -> 1 - u
        # on every axis).  A call's work grows fourfold towards one corner of
        # the box; pairing it with the opposite corner keeps the work of a
        # pass within about 4% of its mean over seeds, against 7% unmirrored.
        n, half = self.calls, self.calls // 2
        strata = []
        for _ in range(3):
            lower = rng.permutation(half)
            flip = rng.integers(0, 2, size=half).astype(bool)
            first = (np.where(flip, n - 1 - lower, lower) + rng.uniform(size=half)) / n
            strata.append(np.concatenate([first, 1.0 - first]))
        self.params = []
        for u_alpha, u_gap, u_a in zip(*strata):
            alpha = -0.5 + 1.5 * float(u_alpha)
            beta = alpha + 1.0 + 0.4 + 0.6 * float(u_gap)
            a = 0.5 + 1.5 * float(u_a)
            self.params.append((alpha, beta, a))
        self.exponents = [ep.ExponentPair(al, be) for al, be, _ in self.params]
        self.zero = ep.ScalarField.constant(0.0, 1)

    def warm_up(self):
        self.ep.oracle1d.ergodic_constant_1d(self.ep.ExponentPair(0.0, 2.0), self.zero)

    def prepare_references(self):
        self.c_ref = [reference.c_omega(*p) for p in self.params]

    def _solve(self, k):
        c, _ = self.ep.oracle1d.ergodic_constant_1d(
            self.exponents[k], self.zero, trace_coefficient=self.params[k][2])
        return c

    def tasks(self):
        return [(f"call{k}", lambda k=k: self._solve(k)) for k in range(self.calls)]

    def check(self, outputs):
        return [
            check_c(f"call{k}", outputs[f"call{k}"], c_ref, self.rel_limit * abs(c_ref))
            for k, c_ref in enumerate(self.c_ref)
        ]


WORKLOADS = {w.name: w for w in (Ergodic1D, Asymptotics1D, Pucci2D, Oracle1D)}
