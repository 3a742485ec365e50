"""Experiment drivers: threshold bisection, extremal forcing scale, Robin runs.

Each driver returns an ExperimentResult carrying every run it performed,
the derived brackets, and enough provenance (problem digest, resolution,
stepping parameters, seed, tool version) to reproduce the result from its
JSON serialisation alone.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..discrete import DiscreteLaplacian, FieldPair
from ..elliptic import (
    EllipticError,
    Equilibrium,
    LambdaStarResult,
    lambda_star,
    shooting_oracle,
    solve_monotone,
    solve_newton,
)
from ..parabolic import IntegratorConfig, Outcome, evolve
from ..problem import ProblemSpec
from .config import spec_digest

__all__ = [
    "ExperimentResult",
    "threshold_experiment",
    "lambda_star_experiment",
    "robin_experiment",
]


@dataclass
class ExperimentResult:
    kind: str
    digest: str
    provenance: dict
    runs: list = field(default_factory=list)
    derived: dict = field(default_factory=dict)
    skipped: Optional[str] = None

    def to_payload(self) -> dict:
        return {
            "experiment": self.kind,
            "digest": self.digest,
            "provenance": self.provenance,
            "runs": self.runs,
            "derived": self.derived,
            **({"skipped": self.skipped} if self.skipped else {}),
        }


def _provenance(resolution, config: IntegratorConfig, seed: int | None) -> dict:
    return {
        "resolution": list(resolution) if isinstance(resolution, tuple) else resolution,
        "dt0": config.dt0,
        "t_max": config.t_max,
        "seed": seed,
        "version": __version__,
    }


def _run_entry(label: str, value: float, outcome: Outcome) -> dict:
    entry = {
        "param": label,
        "value": value,
        "outcome": outcome.kind,
        "t_end": outcome.t_end,
    }
    if outcome.kind == "blowup":
        entry["t_blowup_est"] = outcome.t_est
        entry["sup_at_stop"] = outcome.sup_at_stop
    return entry


def threshold_experiment(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    equilibrium: Equilibrium,
    config: IntegratorConfig = IntegratorConfig(),
    alphas: Sequence[float] = (0.5, 1.5),
    bisect_width: float = 0.02,
    seed: int | None = None,
) -> ExperimentResult:
    """Bisect the scaling threshold of an equilibrium under the flow.

    Runs initial data alpha*(U, V) for each requested alpha, then shrinks
    the bracket between the largest decaying and smallest blowing-up value
    until it is narrower than ``bisect_width``.  Probes use the golden-ratio
    split rather than the exact midpoint: the arithmetic midpoint of a
    symmetric bracket lands exactly on the metastable discrete equilibrium
    (alpha = 1), which cannot classify.  A run that still fails to classify
    stops the shrinking and is reported, widening the bracket rather than
    failing.
    """
    if spec.lam != 0.0:
        raise ValueError("threshold experiment requires the unforced problem")
    if equilibrium.residual_norm > equilibrium.steady_tol:
        raise ValueError("equilibrium residual exceeds its tolerance")
    resolution = A.grid.resolution
    result = ExperimentResult(
        kind="threshold",
        digest=spec_digest(spec, resolution),
        provenance=_provenance(resolution, config, seed),
    )

    outcomes: dict[float, str] = {}

    def run(alpha: float) -> str:
        outcome, _ = evolve(spec, A, equilibrium.pair.scaled(alpha), config)
        outcomes[alpha] = outcome.kind
        result.runs.append(_run_entry("alpha", alpha, outcome))
        return outcome.kind

    for alpha in alphas:
        run(alpha)
    decays = [a for a, k in outcomes.items() if k == "decay"]
    blows = [a for a, k in outcomes.items() if k == "blowup"]
    if not decays or not blows:
        result.skipped = "need at least one decaying and one blowing-up run to bisect"
        return result
    lo, hi = max(decays), min(blows)
    undecided_at = None
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    from_low = True
    while (hi - lo) > bisect_width:
        frac = golden if from_low else 1.0 - golden
        from_low = not from_low
        mid = lo + frac * (hi - lo)
        kind = run(mid)
        if kind == "decay":
            lo = mid
        elif kind == "blowup":
            hi = mid
        else:
            undecided_at = mid
            break
    result.derived["alpha_bracket"] = [lo, hi]
    if undecided_at is not None:
        result.derived["undecided_at"] = undecided_at
    return result


def lambda_star_experiment(
    spec_template: ProblemSpec,
    A: DiscreteLaplacian,
    bracket: tuple[float, float],
    rel_tol: float = 0.05,
    config: IntegratorConfig = IntegratorConfig(),
    seed: int | None = None,
) -> ExperimentResult:
    """Locate the extremal forcing scale and verify the dynamics on both sides.

    Below the bracket (at half its lower end) the flow from (0,0) must
    converge to the minimal steady solution; above (at twice its upper end)
    it must blow up.
    """
    resolution = A.grid.resolution
    ls: LambdaStarResult = lambda_star(spec_template, A, bracket, rel_tol)
    lo, hi = ls.bracket
    result = ExperimentResult(
        kind="lambda-star",
        digest=spec_digest(spec_template.with_lam(0.0), resolution),
        provenance=_provenance(resolution, config, seed),
        derived={
            "lambda_bracket": [lo, hi],
            "lambda_hat": ls.lambda_hat,
            # solvability probes in bisection order: the evidence that each
            # bracket side is backed by at least one run
            "probes": [[lam, bool(ok)] for lam, ok in ls.probes],
        },
    )

    lam_low = 0.5 * lo
    spec_low = spec_template.with_lam(lam_low)
    minimal = solve_monotone(spec_low, A).equilibrium(spec_low)
    outcome, _ = evolve(spec_low, A, FieldPair.zeros(A.grid), config)
    result.runs.append(_run_entry("lambda", lam_low, outcome))
    if outcome.kind == "steady":
        gap = max(
            float(np.max(np.abs(outcome.limit.u - minimal.pair.u))),
            float(np.max(np.abs(outcome.limit.v - minimal.pair.v))),
        )
        scale = minimal.pair.sup
        result.derived["steady_gap_rel"] = gap / scale
    else:
        result.derived["steady_gap_rel"] = None

    lam_high = 2.0 * hi
    outcome_hi, _ = evolve(spec_template.with_lam(lam_high), A, FieldPair.zeros(A.grid), config)
    result.runs.append(_run_entry("lambda", lam_high, outcome_hi))
    result.derived["dynamics_consistent"] = bool(
        outcome.kind == "steady"
        and outcome_hi.kind == "blowup"
        and result.derived["steady_gap_rel"] is not None
        and result.derived["steady_gap_rel"] <= 1e-4
    )
    return result


def robin_experiment(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    config: IntegratorConfig = IntegratorConfig(),
    alphas: Sequence[float] = (0.5, 1.5),
    seed: int | None = None,
) -> ExperimentResult:
    """Threshold runs against the Robin equilibrium.

    The equilibrium is computed by Newton seeded from the shooting solve;
    if neither route produces one, the experiment is reported as skipped
    with the solver diagnostics instead of failing.
    """
    if spec.boundary.kind != "robin":
        raise ValueError("robin_experiment requires a Robin boundary")
    resolution = A.grid.resolution
    result = ExperimentResult(
        kind="robin",
        digest=spec_digest(spec, resolution),
        provenance=_provenance(resolution, config, seed),
    )
    try:
        oracle = shooting_oracle(
            spec.exponents, spec.dimension, spec.boundary, spec.domain.radius
        )
        equilibrium = solve_newton(spec, A, initial_guess=oracle.to_pair(A.grid))
    except EllipticError as exc:
        result.skipped = f"equilibrium not found: {exc}"
        return result
    result.derived["bc_residual"] = oracle.bc_residual
    result.derived["equilibrium_residual"] = equilibrium.residual_norm
    result.derived["sup_u"] = equilibrium.pair.sup_u

    for alpha in alphas:
        outcome, _ = evolve(spec, A, equilibrium.pair.scaled(alpha), config)
        result.runs.append(_run_entry("alpha", alpha, outcome))
    return result
