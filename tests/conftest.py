"""Shared fixtures: canonical 1D instances used across the suite."""

import json

import numpy as np
import pytest

from ergopde import (
    Box,
    EquationInstance,
    ExponentPair,
    ScalarField,
    ScaledTrace,
    UniformGrid,
)

# Closed-form reference constants for the interval (-1, 1):
# alpha=0, beta=2: threshold constant -pi^2/4 (logarithmic blow-up).
COSINE_C = -np.pi**2 / 4.0
# alpha=0, beta=1.5: threshold constant -(4 pi / (3 sqrt 3))^3 (power blow-up).
POWER_C = -((4.0 * np.pi / (3.0 * np.sqrt(3.0))) ** 3)

INTERVAL = Box(lo=(-1.0,), hi=(1.0,))


def interval_grid(n: int) -> UniformGrid:
    return UniformGrid(shape=(n,), box=INTERVAL)


def make_instance(alpha: float, beta: float, b: str = "1", f: str = "0"):
    return EquationInstance(
        operator=ScaledTrace(),
        exponents=ExponentPair(alpha=alpha, beta=beta),
        b=ScalarField.from_expression(b, dim=1),
        f=ScalarField.from_expression(f, dim=1),
        domain=INTERVAL,
    )


@pytest.fixture
def cosine_instance():
    """alpha=0, beta=2, b=1, f=0: log-case instance with threshold -pi^2/4."""
    return make_instance(0.0, 2.0)


@pytest.fixture
def power_instance():
    """alpha=0, beta=1.5, b=1, f=0: chi=1 instance with amplitude C=4."""
    return make_instance(0.0, 1.5)


def synthetic_power_field(grid: UniformGrid, chi: float, amplitude: float):
    """GridFunction amplitude * d(x)^-chi with d clipped below half a cell."""
    from ergopde import GridFunction

    x = grid.axes()[0]
    d = np.minimum(x - grid.box.lo[0], grid.box.hi[0] - x)
    d = np.maximum(d, 0.5 * grid.spacing[0])
    return GridFunction(grid, amplitude * d ** (-chi))


def cosine_exact(c: float, amplitude: float):
    """Exact Dirichlet solution for alpha=0, beta=2, f=c, datum `amplitude`.

    u(x) = amplitude + log cos(sqrt|c|) - log cos(sqrt|c| x), valid for
    c in (-pi^2/4, 0).
    """
    root = np.sqrt(-c)

    def u(x):
        return amplitude + np.log(np.cos(root)) - np.log(np.cos(root * np.asarray(x)))

    return u


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not standard JSON")


def strict_json(text):
    """json.loads that refuses the non-standard tokens Infinity and NaN."""
    return json.loads(text, parse_constant=_refuse_constant)
