"""Command-line interface: configs, artifacts, determinism, exit codes."""

import json
from pathlib import Path

import numpy as np
import pytest
import yaml

from ergopde import ConfigError
from ergopde.cli import main, solver_config_from

from conftest import COSINE_C


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
    return json.loads((out / "report.json").read_text())


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

    @pytest.mark.parametrize("key", ["engine", "fallback"])
    def test_removed_solver_keys_are_rejected(self, key):
        with pytest.raises(ConfigError, match=key):
            solver_config_from({key: "picard" if key == "engine" else True})


class TestOracleAndErgodic:
    def test_oracle_log_case(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 2.0, "tol": 1e-8})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
        report = read_report(out)
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
            # deep schedule: the regularization floor must sit below the
            # finest grid's truncation error for the orders to be visible
            "solver": {"delta_schedule": [2.0**-k for k in range(24)]},
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
        report = json.loads(outs[0])
        assert report["all_passed"] is True
        assert all(c["failures"] == 0 for c in report["checks"])

    def test_seed_changes_nothing_structural(self, tmp_path):
        path = write_config(tmp_path, {"trials": 50})
        out = tmp_path / "out"
        rc = main(["property-suite", "--config", str(path),
                   "--out", str(out), "--seed", "7"])
        assert rc == 0
        assert read_report(out)["seed"] == 7


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

    def test_manifest_records_seed(self, tmp_path):
        path = write_config(tmp_path, {"alpha": 0.0, "beta": 1.5})
        out = tmp_path / "out"
        assert main(["oracle", "--config", str(path), "--out", str(out),
                     "--seed", "3"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 3
        assert "version" in manifest
