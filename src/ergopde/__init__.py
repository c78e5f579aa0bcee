"""Numerical laboratory for singular/degenerate fully nonlinear elliptic PDEs.

The package studies equations of the form

    -|grad u|^alpha F(D^2 u) + b(x) |grad u|^beta = f(x)

with a delta-regularized Dirichlet solver, a 1D shooting oracle,
ergodic-constant estimation by bordered continuation in the boundary
offset with extrapolation in h and in the offset, and
verification of boundary blow-up asymptotics (exponent, amplitude,
gradient rate, uniqueness up to additive constants).
"""

from .errors import (
    BracketFailure,
    ConfigError,
    DegenerateOperator,
    DimensionMismatch,
    EmptyRegion,
    ErgopdeError,
    HypothesisViolated,
    InsufficientSpan,
    InvalidBoundary,
    InvalidRegime,
    NonConvergence,
    OutOfRange,
    UnresolvedLayer,
    UnsupportedCase,
)
from .model import (
    Box,
    EquationInstance,
    ExponentPair,
    ScalarField,
    amplitude_C,
    chi,
    face_normals,
    rescale_residual_factor,
)
from .operators import (
    BellmanMax,
    CheckReport,
    EllipticityBounds,
    PucciMinus,
    PucciPlus,
    ScaledTrace,
    SymMatrix,
    check_homogeneity,
    check_pucci_duality,
    check_uniform_ellipticity,
    eval_operator,
)
from .grid import (
    GridFunction,
    UniformGrid,
    holder_seminorm,
    lipschitz_seminorm,
    save_binary,
    save_csv,
)
from .solver import (
    SolveReport,
    SolverConfig,
    residual_field,
    solve_dirichlet,
)
from .oracle1d import (
    blowup_profile_fit,
    ergodic_constant_1d,
    exact_dirichlet_1d,
    shoot_blowup,
)
from .ergodic import (
    ErgodicExperiment,
    check_uniqueness_hypotheses,
    estimate_ergodic_constant,
    rescaled_solution,
    solve_at,
    verify_blowup_profile,
    verify_gradient_rate,
    verify_uniqueness,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "ErgopdeError", "OutOfRange", "DimensionMismatch", "DegenerateOperator",
    "EmptyRegion", "InsufficientSpan", "InvalidBoundary",
    "NonConvergence", "InvalidRegime",
    "BracketFailure", "UnresolvedLayer",
    "UnsupportedCase", "HypothesisViolated", "ConfigError",
    # model
    "ExponentPair", "ScalarField", "Box", "EquationInstance",
    "chi", "amplitude_C", "rescale_residual_factor", "face_normals",
    # operators
    "SymMatrix", "EllipticityBounds", "ScaledTrace", "PucciPlus",
    "PucciMinus", "BellmanMax", "CheckReport", "eval_operator",
    "check_uniform_ellipticity", "check_homogeneity", "check_pucci_duality",
    # grid
    "UniformGrid", "GridFunction",
    "holder_seminorm", "lipschitz_seminorm", "save_csv", "save_binary",
    # solver
    "SolverConfig", "SolveReport", "residual_field", "solve_dirichlet",
    # oracle1d
    "exact_dirichlet_1d", "shoot_blowup", "ergodic_constant_1d",
    "blowup_profile_fit",
    # ergodic
    "ErgodicExperiment", "solve_at", "estimate_ergodic_constant",
    "verify_blowup_profile", "verify_gradient_rate", "verify_uniqueness",
    "check_uniqueness_hypotheses", "rescaled_solution",
]
