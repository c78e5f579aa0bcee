"""Command-line interface: configs, artifacts, determinism, exit codes."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import ergopde
from ergopde import ConfigError
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
        ("convergence", "reference", {"kind": "dirichlet-1d", "alpha": 0.0, "c0": -1}),
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
    ], ids=["truncation-abc", "delta-many", "truncation-negative",
            "truncation-number", "inner-tol-list", "ladder-word", "solver-key-misspelt",
            "tol-abc", "c-abc", "tol-nan", "reference-not-mapping", "oracle-tol-nan",
            "oracle-tol-negative", "grid-shape-word", "grid-not-mapping",
            "operator-not-mapping", "probe-word", "probe-outside-domain",
            "probe-negative-index", "fit-span-one-number", "grid-sizes-too-small",
            "reference-c0-negative", "oracle-alpha-out-of-range", "trials-zero",
            "uniqueness-string", "shape-fraction",
            "grid-sizes-fraction", "trials-fraction", "trials-infinite",
            "inner-tol-boolean", "tol-boolean", "delta-zero", "inner-tol-nan"])
    def test_bad_values_are_config_errors(self, tmp_path, capsys, monkeypatch, command,
                                          key, value):
        def no_work(*args, **kwargs):
            raise AssertionError("the run started work before it had read its config")

        for name in ("solve_dirichlet", "solve_at", "estimate_ergodic_constant",
                     "ergodic_constant_1d", "check_uniform_ellipticity"):
            monkeypatch.setattr(cli, name, no_work)
        cfg = dict(INSTANCE_YAML)
        cfg["grid"] = {"shape": [21]}
        cfg["grid_sizes"] = [21, 41]
        cfg["reference"] = {"kind": "cosine", "c": -1.0}
        cfg["boundary"] = "0"
        cfg["ladder"] = [10.0, 20.0]
        cfg["probe_point"] = [0.0]
        cfg["c"] = -1.0
        cfg["alpha"], cfg["beta"] = 0.0, 2.0  # the oracle's exponents
        cfg[key] = value
        path = write_config(tmp_path, cfg)
        out = tmp_path / "out"
        assert main([command, "--config", str(path), "--out", str(out)]) == 2
        assert not (out / "report.json").exists()
        assert "config error: " in capsys.readouterr().err


class TestOracleAndErgodic:
    def test_oracle_log_case(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0, "tol": 1e-8})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
        assert abs(report["c_erg"] - COSINE_C) < 1e-6

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
            "reference": {"kind": "dirichlet-1d", "alpha": 1.0, "c0": 1.0},
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

    def test_nonmonotone_sizes_rejected(self, tmp_path):
        cfg = {
            "instance": INSTANCE_YAML["instance"],
            "grid_sizes": [129, 65],
            "boundary": "0",
            "reference": {"kind": "cosine", "c": -1.0},
        }
        path = write_config(tmp_path, cfg)
        rc = main(["convergence", "--config", str(path),
                   "--out", str(tmp_path / "out")])
        assert rc == 2


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

    def test_nonempty_outdir_requires_force(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0})
        out = tmp_path / "out"
        out.mkdir()
        (out / "stale.txt").write_text("x")
        rc = main(["oracle", "--config", str(path), "--out", str(out)])
        assert rc == 2
        rc = main(["oracle", "--config", str(path), "--out", str(out), "--force"])
        assert rc == 0

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
                         r"lowers the residual 2\.347e\+04 after 0 steps$", report["message"])

    def test_manifest_records_seed(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 1.5})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out),
                     "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "version" in manifest
