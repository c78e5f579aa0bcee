"""Command-line interface: configs, artifacts, determinism, exit codes."""

import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import ergopde
from ergopde import (
    BellmanMax,
    Box,
    ConfigError,
    EllipticityBounds,
    EquationInstance,
    ExponentPair,
    ScalarField,
    SymMatrix,
    UniformGrid,
    solve_dirichlet,
)
from ergopde import cli
from ergopde.cli import _experiment, _solver_config, main

from conftest import COSINE_C, strict_json


INSTANCE_YAML = {
    "instance": {
        "operator": {"kind": "trace"},
        "alpha": 0.0,
        "beta": 2.0,
        "b": "1",
        "f": "0",
        "domain": {"lo": [-1.0], "hi": [1.0]},
    }
}


# -u'' + u'^2 = -1 on (-1, 1) with u(+-1) = 0.5: the cosine reference's problem
COSINE_CONVERGENCE = {
    "instance": dict(INSTANCE_YAML["instance"], f="-1"),
    "grid_sizes": [33, 65],
    "boundary": "0.5",
    "reference": {"kind": "cosine"},
}


# for each subcommand a config it reads in full, with no work done yet
BASE_CONFIGS = {
    "solve": dict(INSTANCE_YAML, grid={"shape": [21]}, boundary="0", probe_point=[0.0]),
    "ergodic": dict(INSTANCE_YAML, grid={"shape": [21]}, ladder=[10.0, 20.0],
                    probe_point=[0.0]),
    "asymptotics": dict(INSTANCE_YAML, grid={"shape": [21]}, ladder=[10.0, 20.0],
                        probe_point=[0.0], c=-1.0),
    "convergence": dict(COSINE_CONVERGENCE, grid_sizes=[21, 41]),
    "property-suite": {"trials": 10},
    "oracle": {"alpha": 0.0, "beta": 2.0},
}


def write_config(tmp_path: Path, payload: dict, name: str = "config.yaml") -> Path:
    path = tmp_path / name
    path.write_text(yaml.safe_dump(payload))
    return path


def read_report(out: Path) -> dict:
    return strict_json((out / "report.json").read_text())


class TestSolve:
    def test_solve_writes_report_and_fields(self, tmp_path):
        cfg = dict(INSTANCE_YAML)
        cfg["instance"] = dict(INSTANCE_YAML["instance"], f=str(COSINE_C + 0.5))
        cfg["grid"] = {"shape": [101]}
        cfg["boundary"] = "0"
        cfg["probe_point"] = [0.0]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        assert rc == 0
        report = read_report(out)
        assert report["failed"] is False
        assert report["experiment"] == "solve"
        assert "u_probe" in report and report["max_abs_residual"] < 1e-6
        assert (out / "solution.csv").exists()
        assert (out / "solution.bin").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"] == report["config_sha256"]
        assert len(manifest["config_sha256"]) == 64

    def test_solve_matches_closed_form(self, tmp_path):
        c = COSINE_C + 0.5
        cfg = dict(INSTANCE_YAML)
        cfg["instance"] = dict(INSTANCE_YAML["instance"], f=str(c))
        cfg["grid"] = {"shape": [201]}
        cfg["boundary"] = "0"
        cfg["probe_point"] = [0.0]
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        root = np.sqrt(-c)
        exact0 = np.log(np.cos(root))  # u(0) for zero boundary datum
        assert abs(read_report(out)["u_probe"] - exact0) < 1e-3


    def test_solve_pucci_plus_2d(self, tmp_path):
        cfg = {
            "instance": {
                "operator": {"kind": "pucci+", "a": 1.0, "A": 2.0},
                "alpha": 0.0, "beta": 1.5, "b": "1", "f": "1 + 0.5*x*y",
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            },
            "grid": {"shape": [9, 9]},
            "boundary": "0",
            "probe_point": [0.0, 0.0],
        }
        out = tmp_path / "out"
        path = write_config(tmp_path, cfg)
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert report["grid_shape"] == [9, 9]
        assert report["max_abs_residual"] < 1e-6
        assert 0.2 < report["u_probe"] < 0.3  # f >= 0.5 pushes u up from 0

    def test_solve_bellman_max_2d(self, tmp_path):
        # the operator section's matrices reach BellmanMax: the run writes
        # the field that solve_dirichlet gives on the same instance
        matrices = [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 0.0], [0.0, 1.0]],
                    [[1.5, 0.25], [0.25, 1.5]]]
        cfg = {
            "instance": {
                "operator": {"kind": "bellman-max", "a": 1.0, "A": 2.0,
                             "matrices": matrices},
                "alpha": 0.0, "beta": 1.5, "b": "1", "f": "1 + 0.5*x*y",
                "domain": {"lo": [-1.0, -1.0], "hi": [1.0, 1.0]},
            },
            "grid": {"shape": [9, 9]},
            "boundary": "0",
            "probe_point": [0.0, 0.0],
        }
        out = tmp_path / "out"
        assert main(["solve", "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 0
        domain = Box((-1.0, -1.0), (1.0, 1.0))
        inst = EquationInstance(
            operator=BellmanMax(tuple(SymMatrix.from_array(np.array(m)) for m in matrices),
                                EllipticityBounds(1.0, 2.0)),
            exponents=ExponentPair(0.0, 1.5), b=ScalarField.constant(1.0, 2),
            f=ScalarField.from_expression("1 + 0.5*x*y", dim=2), domain=domain)
        u, rep = solve_dirichlet(inst, ScalarField.constant(0.0, 2),
                                 UniformGrid((9, 9), domain))
        report = read_report(out)
        assert report["solver"] == json.loads(json.dumps(rep.to_dict()))
        assert report["u_probe"] == u.values[4, 4]
        written = np.loadtxt(out / "solution.csv", delimiter=",", skiprows=1)
        np.testing.assert_array_equal(written[:, -1], u.values.ravel())

    @pytest.mark.parametrize("key", ["engine", "fallback", "theta", "drift_tol",
                                     "delta_schedule", "max_iters"])
    def test_removed_solver_keys_are_rejected(self, key):
        value = {"engine": "picard", "fallback": True, "theta": 0.5, "drift_tol": 1e-3,
                 "delta_schedule": [0.5], "max_iters": 100}[key]
        with pytest.raises(ConfigError, match=key):
            if key == "drift_tol":  # an experiment key, not a solver key
                _experiment({key: value})
            else:
                _solver_config({"solver": {key: value}})

    def test_every_accepted_solver_key(self, tmp_path):
        # a key the CLI reads but SolverConfig has dropped fails here
        cfg = dict(INSTANCE_YAML)
        cfg["instance"] = dict(INSTANCE_YAML["instance"], f=str(COSINE_C + 0.5))
        cfg["grid"] = {"shape": [101]}
        cfg["boundary"] = "0"
        cfg["solver"] = {
            "delta": 0.25,
            "inner_tol": 1e-9,
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        # the Newton steps of the last truncation round
        assert len(read_report(out)["solver"]["iterations_per_stage"]) == 1

    def test_one_stage_schedule_writes_standard_json(self, tmp_path):
        cfg = dict(INSTANCE_YAML)
        cfg["instance"] = dict(INSTANCE_YAML["instance"], f=str(COSINE_C + 0.5))
        cfg["grid"] = {"shape": [101]}
        cfg["boundary"] = "0"
        cfg["solver"] = {"delta": 0.5}
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["solve", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)  # refuses Infinity and NaN
        assert report["max_abs_residual"] == report["solver"]["final_residual"] < 1e-6

    @pytest.mark.parametrize("command, key, value", [
        ("solve", "solver", {"truncation": "abc"}),
        ("solve", "solver", {"delta": "many"}),
        ("solve", "solver", {"truncation": -2}),
        ("solve", "solver", {"truncation": 50.0}),
        ("solve", "solver", {"inner_tol": [1e-8]}),
        ("ergodic", "ladder", [10.0, "twenty"]),
        ("solve", "solver", {"inner_tols": 1e-3, "delta": 0.5}),
        ("ergodic", "tol", "abc"),
        ("asymptotics", "c", "abc"),
        ("ergodic", "tol", float("nan")),
        ("convergence", "reference", 5),
        ("oracle", "tol", float("nan")),
        ("oracle", "tol", -1.0),
        ("solve", "grid", {"shape": ["abc"]}),
        ("solve", "grid", 5),
        ("solve", "instance", dict(INSTANCE_YAML["instance"], operator=5)),
        ("solve", "probe_point", ["abc"]),
        ("solve", "probe_point", [5.0]),
        ("solve", "probe_point", [-1.5]),
        ("ergodic", "fit_span", [4]),
        ("convergence", "grid_sizes", [2, 5]),
        ("convergence", "reference", {"kind": "dirichlet-1d", "c0": -1.0}),
        ("oracle", "alpha", 5),
        ("property-suite", "trials", 0),
        ("asymptotics", "uniqueness", "no"),
        ("solve", "grid", {"shape": [40.9]}),
        ("convergence", "grid_sizes", [21, 40.9]),
        ("property-suite", "trials", 2.5),
        ("property-suite", "trials", float("inf")),
        ("solve", "solver", {"inner_tol": True}),
        ("ergodic", "tol", True),
        ("solve", "solver", {"delta": 0.0}),
        ("solve", "solver", {"inner_tol": float("nan")}),
        ("oracle", "a", 0),
        ("oracle", "a", -1),
        ("oracle", "a", "x"),
        ("solve", "instance", dict(INSTANCE_YAML["instance"], operator={"kind": "laplace"})),
        ("solve", "instance", {k: v for k, v in INSTANCE_YAML["instance"].items()
                               if k != "f"}),
    ], ids=["truncation-abc", "delta-many", "truncation-negative",
            "truncation-number", "inner-tol-list", "ladder-word", "solver-key-misspelt",
            "tol-abc", "c-abc", "tol-nan", "reference-not-mapping", "oracle-tol-nan",
            "oracle-tol-negative", "grid-shape-word", "grid-not-mapping",
            "operator-not-mapping", "probe-word", "probe-outside-domain",
            "probe-negative-index", "fit-span-one-number", "grid-sizes-too-small",
            "reference-c0-negative", "oracle-alpha-out-of-range", "trials-zero",
            "uniqueness-string", "shape-fraction",
            "grid-sizes-fraction", "trials-fraction", "trials-infinite",
            "inner-tol-boolean", "tol-boolean", "delta-zero", "inner-tol-nan",
            "oracle-a-zero", "oracle-a-negative", "oracle-a-word",
            "operator-kind-unknown", "instance-f-missing"])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, monkeypatch, command,
                                          key, value):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started work before it had read its config")

        for name in ("solve_dirichlet", "solve_at", "estimate_ergodic_constant",
                     "ergodic_constant_1d", "check_uniform_ellipticity"):
            monkeypatch.setattr(cli, name, no_work)
        # the subcommand accepts its base: reading it reaches the stubbed work
        cfg = dict(BASE_CONFIGS[command])
        out = tmp_path / "out"
        with pytest.raises(AssertionError, match="started work"):
            main([command, "--config", str(write_config(tmp_path, cfg, "base.yaml")),
                  "--out", str(tmp_path / "base")])
        cfg[key] = value
        path = write_config(tmp_path, cfg)
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "config error: " in capsys.readouterr().err

    @pytest.mark.parametrize("command, path, key, value", [
        # ran without a uniqueness block, exit 0
        ("asymptotics", (), "uniquness", True),
        # returned -pi^2/4, the constant of f = 0
        ("oracle", (), "forcing", "0.5*cos(3.0*x)"),
        ("ergodic", (), "drift_tol", 1e-3),
        ("ergodic", (), "c", -1.0),
        ("asymptotics", (), "tol", 0.1),
        ("solve", (), "probe", [0.0]),
        ("convergence", (), "grid", {"shape": [21]}),
        ("property-suite", (), "seed", 3),
        ("solve", ("instance",), "g", "0"),
        ("solve", ("instance", "operator"), "A", 2.0),  # read by the Pucci kinds only
        ("solve", ("instance", "domain"), "high", [2.0]),
        ("solve", ("grid",), "shapes", [21]),
        ("convergence", ("reference",), "c0", -1.0),
    ], ids=["asymptotics-uniquness", "oracle-forcing", "ergodic-drift-tol",
            "ergodic-c", "asymptotics-tol", "solve-probe", "convergence-grid",
            "suite-seed", "instance-g", "trace-A", "domain-high", "grid-shapes",
            "reference-c0"])
    def test_unread_keys_are_refused_by_name(self, tmp_path, capsys, command, path,
                                             key, value):
        cfg = json.loads(json.dumps(BASE_CONFIGS[command]))  # a deep copy
        section = cfg
        for name in path:
            section = section[name]
        section[key] = value
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 2
        where = path[-1] if path else "top-level"
        assert f"the {where} key {key!r} is refused" in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestOracleAndErgodic:
    def test_oracle_log_case(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0, "tol": 1e-8})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert abs(report["c_erg"] - COSINE_C) < 1e-6

    def test_oracle_reads_the_trace_coefficient(self, tmp_path):
        # -a u'' + u'^2 = c: u = -a log cos(pi x / 2) gives c = -a^2 pi^2 / 4,
        # -pi^2 at a = 2; the shot takes a too: at c = -4, p = 2 tan x
        # blows up at pi/2 as for a = 1 at c = -1
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0, "a": 2.0,
                                       "shoot_c": -4.0})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert abs(report["c_erg"] + math.pi**2) <= 1e-9 * math.pi**2
        assert report["x_star"] == pytest.approx(np.pi / 2.0, rel=1e-9)

    def test_oracle_shoot_c(self, tmp_path):
        # c = -1, f = 0: p' = 1 + p^2 from p(0) = 0, so p = tan x and the
        # blow-up location is pi/2
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0, "f": "0",
                                       "shoot_c": -1.0})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert report["x_star"] == pytest.approx(np.pi / 2.0, rel=1e-9)
        assert abs(report["c_erg"] - COSINE_C) < 1e-6

    def test_ergodic_coarse(self, tmp_path):
        cfg = dict(INSTANCE_YAML)
        cfg["grid"] = {"shape": [201]}
        cfg["ladder"] = [10.0, 15.0, 20.0]
        cfg["probe_point"] = [0.0]
        cfg["tol"] = 0.05
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["ergodic", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert abs(report["c_est"] - COSINE_C) / abs(COSINE_C) < 0.05
        lo, hi = report["bracket"]
        assert lo <= COSINE_C <= hi


class TestConvergence:
    def test_orders_at_least_one(self, tmp_path):
        cfg = {
            "instance": {
                "operator": {"kind": "trace"},
                "alpha": 1.0,
                "beta": 2.5,
                "b": "0",
                "f": "1",
                "domain": {"lo": [-1.0], "hi": [1.0]},
            },
            "grid_sizes": [129, 257, 513],
            "boundary": "0",
            "reference": {"kind": "dirichlet-1d"},  # alpha = 1 and c0 = f = 1
            # small delta: the regularization floor must sit below the
            # finest grid's truncation error for the orders to be visible
            "solver": {"delta": 2.0**-23},
        }
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert all(o >= 1.0 for o in report["observed_orders"])
        assert (out / "errors.csv").exists()

    def test_cosine_orders(self, tmp_path):
        # -u'' + u'^2 = -1 with u(+-1) = 0.5: c = -1 from f, the amplitude
        # from the boundary datum; the centered scheme is second order
        cfg = dict(COSINE_CONVERGENCE, grid_sizes=[33, 65, 129, 257])
        out = tmp_path / "out"
        path = write_config(tmp_path, cfg)
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 0
        orders = read_report(out)["observed_orders"]
        assert len(orders) == 3 and min(orders) >= 1.99, orders

    def test_nonmonotone_sizes_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, dict(COSINE_CONVERGENCE, grid_sizes=[129, 65]))
        rc = main(["convergence", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["alpha", "c0", "c", "amplitude"])
    def test_reference_constants_are_refused_by_name(self, tmp_path, capsys, key):
        # the constants come from the instance and the boundary, never twice
        cfg = dict(COSINE_CONVERGENCE, reference={"kind": "cosine", key: -1.0})
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
        assert f"the reference key {key!r} is refused" in capsys.readouterr().err
        assert not (out / "report.json").exists()

    @pytest.mark.parametrize("kind, change, message", [
        # f = 0 with the cosine's c = -1 ran to max error 0.616 and orders 0
        ("cosine", {"f": "0"}, "f = c in"),
        ("cosine", {"f": "-1 + 0.1*x**2"}, "constant f"),
        ("cosine", {"b": "0"}, "solves only"),
        ("cosine", {"alpha": 0.5}, "solves only"),
        ("cosine", {"beta": 1.5}, "solves only"),
        ("cosine", {"operator": {"kind": "trace", "a": 2.0}}, "solves only"),
        ("cosine", {"operator": {"kind": "pucci+", "a": 1.0, "A": 2.0}}, "solves only"),
        ("cosine", {"domain": {"lo": [0.0], "hi": [1.0]}}, "solves only"),
        ("cosine", {"boundary": "0.5 + 0.1*x"}, "constant boundary"),
        ("dirichlet-1d", {}, "solves only"),
        ("dirichlet-1d", {"b": "0", "boundary": "0.5"}, "solves only"),
        ("dirichlet-1d", {"b": "0", "boundary": "0"}, "c0 must be positive"),
    ], ids=["cosine-f-zero", "cosine-f-varies", "cosine-b-zero", "cosine-alpha",
            "cosine-beta", "cosine-trace-coefficient", "cosine-pucci", "cosine-domain",
            "cosine-boundary-varies", "dirichlet-b-one", "dirichlet-boundary",
            "dirichlet-f-negative"])
    def test_reference_that_does_not_solve_the_run_is_refused(
            self, tmp_path, capsys, kind, change, message):
        instance = dict(COSINE_CONVERGENCE["instance"])
        instance.update({k: v for k, v in change.items() if k != "boundary"})
        cfg = dict(COSINE_CONVERGENCE, instance=instance, reference={"kind": kind},
                   boundary=change.get("boundary", COSINE_CONVERGENCE["boundary"]))
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main(["convergence", "--config", str(path), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "report.json").exists()


class TestAsymptotics:
    def test_log_case_with_uniqueness(self, tmp_path):
        # the config of the console-script check: alpha = 0, beta = 2, f = 0
        cfg = dict(INSTANCE_YAML, grid={"shape": [201]}, ladder=[8.0, 12.0],
                   probe_point=[0.0], c=-2.3674, uniqueness=True)
        path = write_config(tmp_path, cfg)
        reports = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["asymptotics", "--config", str(path), "--out", str(out)]) == 0
            reports.append((out / "report.json").read_bytes())
        assert reports[0] == reports[1]
        report = strict_json(reports[0])
        assert report["failed"] is False
        assert report["uniqueness"]["max_deviation"] <= 1e-8
        lines = (tmp_path / "a" / "profile.csv").read_text().splitlines()
        assert lines[0] == "face,d,u,d_chi_u_over_C"
        assert len(lines) == 1 + 122

    @pytest.mark.parametrize("command", ["asymptotics", "ergodic"])
    def test_b_zero_has_no_blowup_amplitude(self, tmp_path, command):
        # C includes b^(-1/(beta - alpha - 1)): at b = 0 there is none, and
        # the run fails by name instead of fitting against the b = 1 value
        cfg = dict(BASE_CONFIGS[command], instance=dict(INSTANCE_YAML["instance"], b="0"))
        out = tmp_path / "out"
        assert main([command, "--config", str(write_config(tmp_path, cfg)),
                     "--out", str(out)]) == 1
        report = read_report(out)
        assert report["failed"] is True and report["error"] == "OutOfRange"
        assert report["message"] == "the blow-up amplitude needs b > 0 on the face"


class TestPropertySuite:
    def test_deterministic_reports(self, tmp_path):
        path = write_config(tmp_path, {"trials": 200})
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = main(["property-suite", "--config", str(path),
                       "--out", str(out), "--seed", "42"])
            assert rc == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]
        report = strict_json(outs[0])
        assert report["all_passed"] is True
        assert all(c["failures"] == 0 for c in report["checks"])
        # a check's worst margin is >= 0 exactly when it has no failure
        for check in report["checks"]:
            assert (check["failures"] == 0) == (check["worst_margin"] >= 0.0), check

    def test_seed_changes_nothing_structural(self, tmp_path):
        path = write_config(tmp_path, {"trials": 50})
        out = tmp_path / "out"
        rc = main(["property-suite", "--config", str(path),
                   "--out", str(out), "--seed", "7"])
        assert rc == 0
        assert read_report(out)["seed"] == 7


class TestImports:
    def test_integrate_and_optimize_load_on_first_use(self):
        # only the oracle and the profile fits need them
        src = str(Path(ergopde.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p))
        code = ("import sys, ergopde, ergopde.cli; print(sorted(m for m in "
                "('scipy.integrate', 'scipy.optimize') if m in sys.modules))")
        run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True)
        assert run.stdout.strip() == "[]"


class TestExitCodes:
    def test_missing_config_is_usage_error(self, tmp_path):
        rc = main(["solve", "--config", str(tmp_path / "nope.yaml"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2

    @pytest.mark.parametrize("text", [
        b"alpha: [", b"alpha: 1\n beta: 2", b"- alpha\nbeta: 2", b"key: *undefined",
        b"\x80alpha: 0", b"alpha: \x07", b"!!python/object:os.system x",
        b"alpha: !!int 'x'", b"alpha: 2001-13-45", b"[0, 2]", b"",
    ], ids=["unclosed", "indent", "mixed-root", "alias", "utf8", "control-char",
            "python-tag", "int-tag", "bad-date", "list-root", "empty"])
    def test_invalid_yaml_is_usage_error(self, tmp_path, capsys, text):
        path = tmp_path / "config.yaml"
        path.write_bytes(text)
        rc = main(["oracle", "--config", str(path), "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    def test_config_reads_as_safe_load(self, tmp_path):
        # libyaml's parser, when present, gives the types yaml.safe_load gives
        text = ("a: 1\nb: 1.5e-3\nc: [1, -2.0, .inf]\nd: {e: true, f: null, "
                "g: '3'}\nh: 0x1f\ni: 2001-02-03\n")
        path = tmp_path / "config.yaml"
        path.write_text(text)
        cfg, _ = cli.load_config(path)
        expected = yaml.safe_load(text)
        assert cfg == expected
        assert repr(cfg) == repr(expected)

    def test_nonempty_outdir_requires_force(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0})
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        rc = main(["oracle", "--config", str(path), "--out", str(out)])
        assert rc == 2
        rc = main(["oracle", "--config", str(path), "--out", str(out), "--force"])
        assert rc == 0

    def test_refused_config_leaves_out_as_found(self, tmp_path):
        # a config the runner refuses writes no manifest, so the corrected
        # config runs into the same --out without --force
        cfg = json.loads(json.dumps(BASE_CONFIGS["solve"]))
        cfg["solver"] = {"delta": 0.0}
        out = tmp_path / "new" / "out"
        argv = ["solve", "--config", str(write_config(tmp_path, cfg)), "--out", str(out)]
        assert main(argv) == 2
        assert not (tmp_path / "new").exists()
        out.mkdir(parents=True)
        assert main(argv) == 2
        assert out.is_dir() and not any(out.iterdir())
        del cfg["solver"]
        write_config(tmp_path, cfg)
        assert main(argv) == 0
        assert read_report(out)["failed"] is False
        assert (out / "manifest.json").exists()

    def test_parser_is_built_once(self, tmp_path, capsys):
        # two invocations in one process share the parser: a refused one
        # (exit 2) leaves nothing behind that changes how the next parses
        assert cli.build_parser() is cli.build_parser()
        with pytest.raises(SystemExit) as info:
            main(["solve", "--config", str(tmp_path / "c.yaml")])  # no --out
        assert info.value.code == 2
        assert "--out" in capsys.readouterr().err
        bad = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0, "tol": -1.0}, "bad.yaml")
        assert main(["oracle", "--config", str(bad), "--out", str(tmp_path / "o1")]) == 2
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0})
        assert main(["oracle", "--config", str(path), "--out", str(tmp_path / "o2"),
                     "--seed", "5"]) == 0
        manifest = json.loads((tmp_path / "o2" / "manifest.json").read_text())
        assert manifest["seed"] == 5
        assert read_report(tmp_path / "o2")["c_erg"] == pytest.approx(-math.pi**2 / 4)
        cfg = write_config(tmp_path, BASE_CONFIGS["property-suite"], "suite.yaml")
        assert main(["property-suite", "--config", str(cfg),
                     "--out", str(tmp_path / "o3")]) == 0
        assert read_report(tmp_path / "o3")["experiment"] == "property-suite"

    def test_experiment_failure_writes_failure_report(self, tmp_path):
        cfg = dict(INSTANCE_YAML)
        # f far below the solvability threshold: the solve cannot converge
        cfg["instance"] = dict(INSTANCE_YAML["instance"], f="-8.0")
        cfg["grid"] = {"shape": [101]}
        cfg["boundary"] = "0"
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        assert rc == 1
        report = read_report(out)
        assert report["failed"] is True
        assert report["error"] == "NonConvergence"
        assert re.search(r"^newton line search failed at delta=0\.0009765625: no step "
                         r"lowers the residual 1\.831e\+05 after 0 steps$", report["message"])

    def test_manifest_records_seed(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 1.5})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out),
                     "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "version" in manifest
