"""Tests of the benchmark's references, checks and span recorder.

Run with `python -m pytest perfbench/selftest.py`.  The file name keeps
the repository's test run from collecting it: importing the benchmark's
modules there would add their literals to the constants hypothesis draws
examples from, and so change the examples the package's property tests
see.  The check tests feed each workload's check a deliberately wrong
output (a shifted c, a swapped sandwich, a perturbed closed form, a
shifted amplitude) and require it to fail, so no check passes whatever
the program returns.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

import reference
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
ep = workloads.import_ergopde(ROOT / "src")


# ---------------------------------------------------------------------------
# closed forms


@pytest.mark.parametrize("alpha, beta, a", [
    (0.0, 2.0, 1.0), (0.0, 1.5, 1.0), (0.5, 2.1, 1.7), (-0.3, 1.3, 0.6),
])
def test_closed_form_c_omega_matches_oracle(alpha, beta, a):
    c_oracle, _ = ep.ergodic_constant_1d(
        ep.ExponentPair(alpha, beta), ep.ScalarField.constant(0.0, 1),
        trace_coefficient=a,
    )
    c_closed = reference.c_omega(alpha, beta, a)
    assert abs(c_oracle - c_closed) <= 1e-9 * abs(c_closed)


def test_closed_forms_pinned_values():
    assert reference.c_omega(0.0, 2.0) == pytest.approx(-math.pi**2 / 4, rel=1e-15)
    power = -((4.0 * math.pi / (3.0 * math.sqrt(3.0))) ** 3)
    assert reference.c_omega(0.0, 1.5) == pytest.approx(power, rel=1e-14)
    assert reference.chi(0.0, 1.5) == 1.0
    assert reference.amplitude(0.0, 1.5, 1.0) == pytest.approx(4.0, rel=1e-15)
    assert reference.amplitude(0.0, 2.0, 1.3) == 1.3
    with pytest.raises(ValueError):
        reference.c_omega(0.0, 1.0)


def test_closed_form_amplitude_matches_package():
    for beta, a in ((1.5, 1.0), (1.5, 0.7), (1.8, 2.0), (2.0, 1.4)):
        pkg = ep.amplitude_C(ep.ScaledTrace(a), (1.0,), ep.ExponentPair(0.0, beta))
        assert reference.amplitude(0.0, beta, a) == pytest.approx(pkg, rel=1e-12)


def test_residual_2d_vanishes_on_exact_quadratic():
    # u = (x^2 + y^2) / 4: D2u = I/2, |grad u| = r/2, exact for the stencils
    n = 7
    x, y = np.meshgrid(np.linspace(-1, 1, n), np.linspace(-1, 1, n), indexing="ij")
    u = 0.25 * (x**2 + y**2)
    h = 2.0 / (n - 1)
    g = np.hypot(x, y)[1:-1, 1:-1] / 2.0
    for op, coefs, fval in (("trace", (1.5,), 1.5), ("pucci+", (1.0, 2.0), 2.0),
                            ("pucci-", (1.0, 2.0), 1.0)):
        f = -fval + g**1.5
        res = reference.residual_2d(u, h, op, coefs, 1.5, f)
        assert np.abs(res).max() < 1e-12


# ---------------------------------------------------------------------------
# every workload's check can fail


def _workload(cls, tmp_path, seed=0, **overrides):
    wl = cls(ep, seed, tmp_path)
    for key, value in overrides.items():
        setattr(wl, key, value)
    wl.setup()
    return wl


def test_ergodic_check_fails_on_shifted_c(tmp_path):
    wl = _workload(workloads.Ergodic1D, tmp_path)
    wl.c_ref = -2.7
    limit = wl.tol + 4.0 * wl.grid.spacing[0]
    assert all(c.ok for c in wl.check({"estimate": (-2.7 + 0.9 * limit, {})}))
    assert not any(c.ok for c in wl.check({"estimate": (-2.7 + 1.1 * limit, {})}))
    assert not any(c.ok for c in wl.check({"estimate": (-2.7 - 1.1 * limit, {})}))


def test_oracle_check_fails_on_perturbed_closed_form(tmp_path):
    wl = _workload(workloads.Oracle1D, tmp_path, seed=3, calls=2)
    wl.prepare_references()
    outputs = {tid: fn() for tid, fn in wl.tasks()}
    assert all(c.ok for c in wl.check(outputs))
    wl.c_ref = [c * (1.0 + 1e-6) for c in wl.c_ref]
    assert not any(c.ok for c in wl.check(outputs))


def test_pucci_check_fails_on_swapped_sandwich(tmp_path):
    wl = _workload(workloads.Pucci2D, tmp_path, seed=5)
    wl.prepare_references()
    outputs = {tid: fn() for tid, fn in wl.tasks()}
    assert all(c.ok for c in wl.check(outputs))
    swapped = dict(outputs)
    swapped["pucci-"], swapped["pucci+"] = outputs["pucci+"], outputs["pucci-"]
    failed = {c.task for c in wl.check(swapped) if not c.ok}
    assert {"pucci-", "pucci+", "trace"} <= failed


def test_sandwich_check_orders_nodewise():
    lo, mid, hi = np.zeros((3, 3)), np.full((3, 3), 0.5), np.ones((3, 3))
    assert workloads.check_sandwich("t", lo, mid, hi).ok
    assert not workloads.check_sandwich("t", hi, mid, lo).ok
    bumped = mid.copy()
    bumped[1, 1] = 1.0 + 1e-6
    assert not workloads.check_sandwich("t", lo, bumped, hi).ok


def _profile_report(c_hat, chi_hat, trend, deviation=1e-12):
    return {
        "failed": False,
        "profile_faces": [{"c_hat": c_hat, "chi_hat": chi_hat}] * 2,
        "gradient_rate": {"faces": [{"trend": trend}] * 2},
        "uniqueness": {"max_deviation": deviation},
    }


def test_profile_check_fails_on_shifted_amplitude():
    good = _profile_report(4.1, 1.02, -1.03)
    assert workloads.check_profile("power", good, 0.0, 1.5, 1.0, 0.10).ok
    for bad in (_profile_report(4.5, 1.02, -1.03), _profile_report(4.1, 1.2, -1.03),
                _profile_report(4.1, 1.02, -0.8), _profile_report(4.1, 1.02, -1.03, 0.1),
                {"failed": True}):
        assert not workloads.check_profile("power", bad, 0.0, 1.5, 1.0, 0.10).ok


# ---------------------------------------------------------------------------
# span recorder


def test_self_time_is_duration_minus_children():
    rec = spans.SpanRecorder()
    rec.set_task("t")
    outer = rec.open("cli.main")
    inner = rec.open("solver.solve_dirichlet")
    time.sleep(0.01)
    rec.close(inner)
    time.sleep(0.005)
    rec.close(outer)
    assert rec.parent[inner] == outer and rec.parent[outer] == -1
    rec.notes[inner] = [2, 7]
    m = spans.layer_metrics(rec, 0, len(rec))
    outer_s = rec.end[outer] - rec.start[outer]
    inner_s = rec.end[inner] - rec.start[inner]
    assert m["cli.self_s"] == pytest.approx(outer_s - inner_s, abs=1e-12)
    assert m["solver.self_s"] == pytest.approx(inner_s, abs=1e-12)
    assert (m["solver.truncation_rounds"], m["solver.inner_iters"]) == (2, 7)


def test_verdicts_grouped_by_c():
    rec = spans.SpanRecorder()
    est = rec.open("ergodic.estimate")
    for c, fail in ((1.0, False), (1.0, False), (-3.0, True), (-1.0, False)):
        idx = rec.open("ergodic.solve_at")
        rec.notes[idx] = c
        rec.close(idx, failed=fail)
    rec.close(est)
    rec.notes[est] = ["above", "below", "above"]
    m = spans.layer_metrics(rec, 0, len(rec))
    assert m["ergodic.classify.count"] == 3
    assert m["ergodic.verdict_above.count"] == 2
    assert m["ergodic.verdict_below.count"] == 1
    assert m["ergodic.solve_at.calls"] == 4 and m["ergodic.solve_at.failed"] == 1


def test_instrument_wraps_every_binding_and_restores():
    import scipy.linalg

    from ergopde import grid, solver

    originals = (grid.hessian_field, solver.hessian_field, scipy.linalg.solve_banded,
                 ep.ScalarField.__call__)
    assert solver.hessian_field is grid.hessian_field
    rec = spans.SpanRecorder()
    inst = ep.EquationInstance(
        operator=ep.ScaledTrace(), exponents=ep.ExponentPair(0.0, 1.5),
        b=ep.ScalarField.constant(1.0, 1), f=ep.ScalarField.constant(1.0, 1),
        domain=ep.Box((-1.0,), (1.0,)),
    )
    with spans.instrument(rec):
        assert solver.hessian_field is grid.hessian_field
        assert solver.hessian_field is not originals[0]
        ep.solver.solve_dirichlet(inst, ep.ScalarField.constant(0.0, 1),
                                  ep.UniformGrid((21,), inst.domain))
    assert (grid.hessian_field, solver.hessian_field, scipy.linalg.solve_banded,
            ep.ScalarField.__call__) == originals
    m = spans.layer_metrics(rec, 0, len(rec))
    assert m["solver.solve_dirichlet.calls"] == 1
    assert m["grid.hessian_field.calls"] > 0 and m["solver.linear_solves.calls"] > 0
    assert m["model.field_eval.calls"] > 0 and m["operators.eval_1d.calls"] > 0
    top = [i for i in range(len(rec)) if rec.parent[i] == -1]
    assert [rec.names[rec.name_id[i]] for i in top] == ["solver.solve_dirichlet"]


def test_raise_counter_sees_caught_failures_and_restores():
    from ergopde import ergodic, solver

    original = solver.solve_dirichlet
    raised = []
    with spans.raise_counter(solver, "solve_dirichlet", raised):
        assert ergodic.solve_dirichlet is solver.solve_dirichlet is not original
        with pytest.raises(Exception):
            ergodic.solve_dirichlet(None, None, None)
    assert raised == [1]
    assert ergodic.solve_dirichlet is original and solver.solve_dirichlet is original
