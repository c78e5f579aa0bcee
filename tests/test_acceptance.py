"""Acceptance gate: end-to-end targets with closed-form references.

Each test prints a single PASS/FAIL line with the measured quantities.
"""

import math
import time

import numpy as np
import pytest
import yaml

from ergopde import (
    BellmanMax,
    Box,
    EllipticityBounds,
    ErgodicExperiment,
    ExponentPair,
    PucciMinus,
    PucciPlus,
    ScalarField,
    ScaledTrace,
    SolverConfig,
    SymMatrix,
    UniformGrid,
    check_homogeneity,
    check_uniform_ellipticity,
    ergodic_constant_1d,
    estimate_ergodic_constant,
    eval_operator,
    exact_dirichlet_1d,
    rescale_residual_factor,
    rescaled_solution,
    residual_field,
    solve_at,
    solve_dirichlet,
    verify_blowup_profile,
    verify_gradient_rate,
    verify_uniqueness,
)
from ergopde.cli import main as cli_main
from ergopde.grid import gradient_field, holder_seminorm, lipschitz_seminorm
from ergopde.model import EquationInstance

from conftest import COSINE_C, POWER_C, interval_grid, make_instance, strict_json


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{name}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok, f"{name}: {detail}"


def power_experiment(n: int, ladder=(10.0, 20.0, 40.0)) -> ErgodicExperiment:
    return ErgodicExperiment(
        instance=make_instance(0.0, 1.5), grid=interval_grid(n),
        ladder=ladder, probe_point=(0.0,),
    )


@pytest.fixture(scope="module")
def power_solution():
    """Converged power-case solution at h = 1/800, just above the threshold."""
    exp = power_experiment(1601)
    c = POWER_C + 1e-4
    u, _ = solve_at(exp, c, exp.ladder[-1])
    return exp, c, u


def test_ac1_ergodic_constant_exact_case():
    t0 = time.time()
    c_oracle, _ = ergodic_constant_1d(
        ExponentPair(0.0, 2.0), ScalarField.constant(0.0, 1), tol=1e-9
    )
    t_oracle = time.time() - t0
    oracle_err = abs(c_oracle - COSINE_C)

    exp = ErgodicExperiment(
        instance=make_instance(0.0, 2.0), grid=interval_grid(801),
        ladder=(10.0, 15.0, 20.0), probe_point=(0.0,),
    )
    t0 = time.time()
    c_pde, _ = estimate_ergodic_constant(exp, tol=0.02)
    t_pde = time.time() - t0
    pde_rel = abs(c_pde - COSINE_C) / abs(COSINE_C)
    ok = oracle_err < 1e-6 and t_oracle < 1.0 and pde_rel < 0.02 and t_pde < 60.0
    report(
        "AC-1", ok,
        f"oracle err {oracle_err:.2e} in {t_oracle:.2f}s; "
        f"pde estimate {c_pde:.4f} (rel err {pde_rel:.3%}) in {t_pde:.1f}s",
    )


def test_ac2_blowup_profile_power_case(power_solution):
    exp, c, u = power_solution
    t0 = time.time()
    prof = verify_blowup_profile(exp, c, u=u)
    elapsed = time.time() - t0
    chi_hat = max(fc["chi_hat"] for fc in prof["faces"])
    chi_lo = min(fc["chi_hat"] for fc in prof["faces"])
    c_rel = prof["max_c_rel_error"]
    ok = 0.9 <= chi_lo and chi_hat <= 1.1 and c_rel < 0.10 and elapsed < 120.0
    report(
        "AC-2", ok,
        f"chi_hat in [{chi_lo:.4f}, {chi_hat:.4f}] (target 1), "
        f"C_hat rel err {c_rel:.3%} (target C=4), fit in {elapsed:.1f}s",
    )


def test_ac3_gradient_rate_power_case(power_solution):
    exp, _, u = power_solution
    grad = verify_gradient_rate(exp, u)
    dev = grad["max_deviation"]  # |trend - (-1)|
    ok = dev < 0.10
    report("AC-3", ok, f"d^(chi+1) grad u . grad d / C trend deviation {dev:.3%} from -1")


def test_ac4_log_case_profile_and_rate():
    exp = ErgodicExperiment(
        instance=make_instance(0.0, 2.0), grid=interval_grid(1601),
        ladder=(10.0, 15.0, 20.0), probe_point=(0.0,),
    )
    c = COSINE_C + 1e-4
    u, _ = solve_at(exp, c, exp.ladder[-1])
    prof = verify_blowup_profile(exp, c, u=u)
    grad = verify_gradient_rate(exp, u)
    c_rel = prof["max_c_rel_error"]
    rate_dev = grad["max_deviation"]
    ok = c_rel < 0.05 and rate_dev < 0.10
    report(
        "AC-4", ok,
        f"log-case C_hat rel err {c_rel:.3%} (target 1), "
        f"d grad u . grad d / C trend deviation {rate_dev:.3%} from -1",
    )


def test_ac5_dirichlet_exactness():
    # delta tied to h^2 (the power of 2 at or below it): the regularization
    # error must sit below the stencil truncation error for the observed
    # order to be visible

    details = []
    ok = True
    u0_err = None
    for alpha in (-0.5, 0.0, 1.0):
        inst = make_instance(alpha, alpha + 1.5, b="0", f="1")
        exact = exact_dirichlet_1d(alpha, 1.0)
        errs = []
        for n in (129, 257, 513):
            grid = interval_grid(n)
            cfg = SolverConfig(delta=2.0**-math.ceil(-math.log2(grid.spacing[0] ** 2)))
            u, _ = solve_dirichlet(inst, ScalarField.constant(0.0, 1), grid, cfg)
            errs.append(float(np.max(np.abs(u.values - exact(grid.axes()[0])))))
            if alpha == 1.0 and n == 513:
                mid = (n - 1) // 2
                u0_err = abs(float(u.values[mid]) - 2.0 * math.sqrt(2.0) / 3.0)
        if max(errs) < 1e-10:
            # stencil-exact case (quadratic solution): orders are noise
            details.append(f"alpha={alpha}: exact to {max(errs):.1e}")
            continue
        orders = [float(np.log2(a / b)) for a, b in zip(errs, errs[1:])]
        ok = ok and all(o >= 1.0 for o in orders)
        details.append(f"alpha={alpha}: orders {['%.2f' % o for o in orders]}")
    ok = ok and u0_err is not None and u0_err < 1e-2
    report("AC-5", ok, "; ".join(details) + f"; u(0) err (alpha=1) {u0_err:.1e}")


SUITE_SEED = 20260826


def suite_operators():
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


def test_ac6_operator_property_suites():
    total = passes = 0
    for spec in suite_operators():
        for checker in (check_uniform_ellipticity, check_homogeneity):
            rep = checker(spec, 1000, SUITE_SEED)
            d = rep.to_dict()
            total += d["trials"]
            passes += d["trials"] - d["failures"]
    # duality and sandwich on one shared sample stream
    bounds = EllipticityBounds(1.0, 2.0)
    plus, minus = PucciPlus(bounds), PucciMinus(bounds)
    trace = ScaledTrace()
    rng = np.random.default_rng(SUITE_SEED)
    worst_dual = worst_sandwich = 0.0
    for k in range(1000):
        dim = (1, 2, 3)[k % 3]
        m = rng.standard_normal((dim, dim))
        m = SymMatrix.from_array(0.5 * (m + m.T))
        neg = SymMatrix.from_array(-m.to_array())
        lo = eval_operator(minus, m)
        hi = eval_operator(plus, m)
        mid = eval_operator(trace, m)  # trace is admissible for bounds (1, 2)
        worst_dual = max(worst_dual, abs(lo + eval_operator(plus, neg)))
        worst_sandwich = max(worst_sandwich, lo - mid, mid - hi)
    ok = passes == total == 8000 and worst_dual <= 1e-12 and worst_sandwich <= 1e-12
    report(
        "AC-6", ok,
        f"{passes}/{total} property trials (seed {SUITE_SEED}); "
        f"duality gap {worst_dual:.1e}, sandwich violation {worst_sandwich:.1e}",
    )


def test_ac7_rescaling_invariance(power_solution):
    exp, c, u = power_solution
    inst = exp.instance
    shifted = inst.shifted_f(c)
    h = u.grid.spacing[0]
    tol = h * h + 1e-8
    gaps = []
    for delta in (0.25, 0.125):
        spacing = h / delta
        # 129-node zeta window centered at x0 = 0; every node lands on the
        # fine grid because the zeta spacing is h/delta
        w = rescaled_solution(u, (0.0,), delta, inst.exponents, (129,),
                              (-64.0 * spacing,))
        zoom = EquationInstance(
            operator=inst.operator, exponents=inst.exponents,
            b=inst.b, f=ScalarField.constant(0.0, 1), domain=w.grid.box,
        )
        target = rescale_residual_factor(inst.exponents, delta) * c  # f+c, f=0
        gaps.append(float(np.max(np.abs(residual_field(zoom, w) - target))))
    ok = all(g <= tol for g in gaps)
    report(
        "AC-7", ok,
        f"identity gaps {[f'{g:.1e}' for g in gaps]} for delta in (1/4, 1/8), "
        f"tol h^2 + 1e-8 = {tol:.1e}",
    )


def test_ac8_uniqueness_up_to_constants():
    devs = {}
    for name, inst, c_ref in (
        ("log", make_instance(0.0, 2.0), COSINE_C),
        ("power", make_instance(0.0, 1.5), POWER_C),
    ):
        exp = ErgodicExperiment(
            instance=inst, grid=interval_grid(801),
            ladder=(10.0, 15.0), probe_point=(0.0,),
        )
        rep = verify_uniqueness(exp, c_ref + 0.01)
        devs[name] = rep["max_deviation"]
    ok = all(d <= 1e-2 for d in devs.values())
    report(
        "AC-8", ok,
        "core deviations from constancy: "
        + ", ".join(f"{k}={v:.1e}" for k, v in devs.items()),
    )


def test_ac9_regularity_surrogates():
    c = POWER_C + 0.01
    inner = Box((-0.5,), (0.5,))
    gamma = min(0.5, 1.0 / (1.0 + 0.0))  # alpha = 0 -> gamma = 0.5
    lips, hols = [], []
    for n in (201, 401, 801):
        exp = power_experiment(n, ladder=(10.0, 20.0))
        u, _ = solve_at(exp, c, 20.0)
        lips.append(lipschitz_seminorm(u, subregion=inner))
        g = gradient_field(u.values, u.grid.spacing)[0]
        h = exp.grid.spacing[0]
        igrid = UniformGrid((n - 2,), Box((-1.0 + h,), (1.0 - h,)))
        hols.append(holder_seminorm(g, igrid, gamma, subregion=inner))
    ok = all(b <= 1.1 * a for a, b in zip(lips, lips[1:]))
    ok = ok and all(b <= 1.1 * a for a, b in zip(hols, hols[1:]))
    report(
        "AC-9", ok,
        f"Lipschitz {['%.2f' % v for v in lips]}, "
        f"C^0,{gamma} of gradient {['%.2f' % v for v in hols]} "
        "(each non-increasing within 10% under refinement)",
    )


def test_ac10_deterministic_reports(tmp_path):
    cfg = tmp_path / "suite.yaml"
    cfg.write_text(yaml.safe_dump({"trials": 1000}))
    blobs = []
    for name in ("run1", "run2"):
        out = tmp_path / name
        rc = cli_main(["property-suite", "--config", str(cfg),
                       "--out", str(out), "--seed", str(SUITE_SEED)])
        assert rc == 0
        blobs.append((out / "report.json").read_bytes())
    identical = blobs[0] == blobs[1]
    all_passed = strict_json(blobs[0])["all_passed"]
    ok = identical and all_passed
    report(
        "AC-10", ok,
        f"repeated seeded runs byte-identical={identical}, "
        f"suite all_passed={all_passed}",
    )
