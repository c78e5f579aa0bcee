"""Solve the gradient-degenerate Dirichlet problem and compare with the
closed-form solution -|u'|^alpha u'' = c0, u(+-1) = 0.

Run:  python3 demos/demo_dirichlet_1d.py
"""

import numpy as np

from ergopde import (
    Box,
    EquationInstance,
    ExponentPair,
    ScalarField,
    ScaledTrace,
    SolverConfig,
    UniformGrid,
    exact_dirichlet_1d,
    solve_dirichlet,
)


def main():
    domain = Box((-1.0,), (1.0,))
    for alpha in (-0.5, 0.0, 1.0):
        instance = EquationInstance(
            operator=ScaledTrace(),
            exponents=ExponentPair(alpha, alpha + 1.5),
            b=ScalarField.constant(0.0, 1),
            f=ScalarField.constant(1.0, 1),
            domain=domain,
        )
        exact = exact_dirichlet_1d(alpha, 1.0)
        print(f"alpha = {alpha}: u(0) = {exact.value_at_zero:.6f}, "
              f"u ~ 1 - |x|^{exact.exponent:.3f}")
        prev = None
        for n in (65, 129, 257):
            grid = UniformGrid((n,), domain)
            config = SolverConfig(delta=2.0**-17)
            u, report = solve_dirichlet(
                instance, ScalarField.constant(0.0, 1), grid, config
            )
            err = float(np.max(np.abs(u.values - exact(grid.axes()[0]))))
            # orders are meaningless once the stencil is exact for the solution
            order = ("" if prev is None or err < 1e-10
                     else f"  order {np.log2(prev / err):.2f}")
            steps = report.iterations_per_stage  # per delta solved
            print(f"  n = {n:4d}  max error {err:.3e}"
                  f"  ({sum(steps)} Newton steps at {len(steps)} delta values"
                  f" in truncation round {report.truncation_rounds}){order}")
            prev = err
        print()


if __name__ == "__main__":
    main()
