"""Numerical laboratory for a coupled reaction-diffusion system.

Computes positive steady states of

    -Lap(u) = v^p + lam*f,   -Lap(v) = u^q + lam*f

on balls and rectangles (Dirichlet or Robin boundaries), evolves the
corresponding parabolic flow, and verifies the threshold picture: initial
data below a steady state decays, data above it blows up in finite time,
with the proof-layer functionals implemented as runtime diagnostics.
"""

__version__ = "0.1.0"

from .problem import (
    BoundarySpec,
    ExponentPair,
    ForcingSpec,
    ProblemSpec,
    RadialBall,
    Rectangle,
    ValidationReport,
    blowup_exponent,
    validate,
)
from .discrete import (
    DiscreteLaplacian,
    FieldPair,
    Grid,
    build_grid,
    build_laplacian,
    integrate,
    solve_shifted,
)
from .elliptic import (
    Equilibrium,
    MonotoneResult,
    lambda_star,
    residual,
    residual_norm,
    shooting_oracle,
    solve_monotone,
    solve_newton,
)
from .parabolic import IntegratorConfig, Outcome, adapt_dt, evolve, evolve_ordered, step
from .analysis import (
    TrajectoryRecord,
    blowup_bound_constant,
    dphi_identity_residual,
    energy,
    energy_monotonicity_violation,
    power_integral,
    power_sum_bound,
    product_integral,
    solution_pair_identity,
)

__all__ = [name for name in dir() if not name.startswith("_")]
