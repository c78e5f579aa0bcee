"""Estimate the ergodic constant of the log-case instance two ways.

For -u'' + |u'|^2 = c on (-1, 1) with boundary blow-up, the substitution
phi = exp(-u) turns the problem into phi'' = c phi with phi(+-1) = 0, so
the constant is -pi^2/4 exactly.  The 1D shooting oracle and the PDE-side
estimator (one bordered solve per grid for the bounded remainder
w = u - s, s = -log(1 - x) - log(1 + x), extrapolated in h) should both
land there.  Each refined grid starts from the coarser grid's solution,
so it takes fewer Newton steps than the first.

Run:  python3 demos/demo_ergodic_cosine.py
"""

import time

import numpy as np

from ergopde import (
    Box,
    EquationInstance,
    ErgodicExperiment,
    ExponentPair,
    ScalarField,
    ScaledTrace,
    UniformGrid,
    ergodic_constant_1d,
    estimate_ergodic_constant,
)

EXACT = -np.pi**2 / 4.0


def main():
    exponents = ExponentPair(0.0, 2.0)
    f = ScalarField.constant(0.0, 1)

    t0 = time.time()
    c_oracle, oracle_report = ergodic_constant_1d(exponents, f, tol=1e-9)
    print(f"shooting oracle: c = {c_oracle:.10f} "
          f"(exact {EXACT:.10f}, err {abs(c_oracle - EXACT):.1e}, "
          f"{time.time() - t0:.2f}s)")

    domain = Box((-1.0,), (1.0,))
    instance = EquationInstance(
        operator=ScaledTrace(), exponents=exponents,
        b=ScalarField.constant(1.0, 1), f=f, domain=domain,
    )
    exp = ErgodicExperiment(
        instance=instance,
        grid=UniformGrid((401,), domain),
        ladder=(10.0, 15.0, 20.0),
        probe_point=(0.0,),
    )
    t0 = time.time()
    c_pde, report = estimate_ergodic_constant(exp, tol=0.02)
    elapsed = time.time() - t0
    for shape, c_h, steps in zip(report["grid_shapes"], report["c_h"],
                                 report["newton_steps"]):
        print(f"  c_h on {shape[0]:4d} nodes: {c_h:.10f} (err {abs(c_h - EXACT):.1e}, "
              f"{steps} Newton steps)")
    print(f"Richardson from the two finest: c = {c_pde:.10f} +- {report['bar']:.1e} "
          f"(err {abs(c_pde - EXACT):.1e}, {elapsed:.3f}s)")

if __name__ == "__main__":
    main()
