"""Experiments: the threshold bracket, the extremal forcing scale.

Each driver returns an ExperimentResult carrying every run it performed,
the derived brackets, and enough provenance (problem digest, resolution,
stepping parameters, tool version) to reproduce the result from its JSON
serialisation alone.

The threshold experiment predicts, certifies, and bisects only on
contradiction: it predicts the threshold of data alpha*(U, V) at
alpha = 1, places two certifying probes around it, and bisects only what
a probe that contradicts the prediction leaves of the bracket.  It
classifies a probe by the certificates of
:func:`thresholdlab.parabolic.certificates`: it decays as soon as it enters
the decay cone and blows up as soon as its mass passes Kaplan's bound, on
a Dirichlet or a Robin boundary alike.  The lambda* experiment runs its
decays down to EPS_DECAY and its blow-ups up to M_BLOW.

The drivers read only each run's outcome, so they evolve with
``diagnostics=False``: no step pays for phi or E.
"""

from __future__ import annotations

import math

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .. import __version__
from ..discrete import DiscreteLaplacian, FieldPair
from ..elliptic import (
    Equilibrium,
    LambdaStarResult,
    lambda_star,
    solve_monotone,
)
from ..parabolic import CONE_THETA, IntegratorConfig, Outcome, certificates, evolve
from ..problem import ProblemSpec
from .config import spec_digest

__all__ = [
    "ExperimentResult",
    "threshold_experiment",
    "lambda_star_experiment",
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


def _provenance(resolution, config: IntegratorConfig) -> dict:
    return {
        "resolution": list(resolution) if isinstance(resolution, tuple) else resolution,
        "dt0": config.dt0,
        "t_max": config.t_max,
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


def _certifying_probes(alpha_hat: float, width: float, lo: float, hi: float
                       ) -> tuple[float, float]:
    """alpha_hat -/+ width/2 clipped into [lo, hi], the float distance between them at most width.

    An end clipped onto lo or hi is a run already made, not a probe.  The
    float difference of the two points can exceed ``width`` by rounding
    (1.01 - 0.99 is 0.020000000000000018), so an end that is a probe, the
    upper one first, steps inward one float at a time until it does not.
    """
    a, b = max(alpha_hat - width / 2, lo), min(alpha_hat + width / 2, hi)
    while b - a > width:
        if a > lo and b == hi:
            a = math.nextafter(a, b)
        else:
            b = math.nextafter(b, a)
    return a, b


def threshold_experiment(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    equilibrium: Equilibrium,
    config: IntegratorConfig = IntegratorConfig(),
    alphas: Sequence[float] = (0.5, 1.5),
    bisect_width: float = 0.02,
) -> ExperimentResult:
    """Bracket the scaling threshold of an equilibrium under the flow: predict, certify, bisect.

    Runs initial data alpha*(U, V) for each requested alpha; the bracket
    starts between the largest decaying and smallest blowing-up value.
    (U, V) is a fixed point of every discrete step, since A X = R(X) holds
    to the residual Equilibrium enforces, so the threshold is predicted at
    alpha = 1 (``alpha_predicted``).  A bracket wider than ``bisect_width``
    gets two certifying probes from :func:`_certifying_probes`, low one
    first; if both classify as predicted, they are the bracket.  A probe
    that contradicts the prediction moves the other end past the second
    probe, and what is left is bisected until it is no wider than
    ``bisect_width``.  Bisection probes use the golden-ratio split rather
    than the exact midpoint: the arithmetic midpoint of a symmetric bracket
    lands exactly on the metastable discrete equilibrium (alpha = 1), which
    cannot classify.  No alpha is run twice: a probe at an alpha already
    run reads that run's outcome.  A probe that fails to classify stops the
    experiment and is reported as ``undecided_at``, widening the bracket
    rather than failing.

    Every run gets the certificates, built once.  A probe that enters the
    decay cone is certified to decay there, and its entry records
    ``decay_rule`` "cone", or "sup" when the sup-norm rule fired first.  A
    probe whose mass passes Kaplan's bound is certified to blow up there,
    and its entry records ``blowup_rule`` "kaplan" (or "sup") and Kaplan's
    upper bound on the blow-up time as ``t_blowup_est``.  ``derived``
    records the cone's eigenvalue bound ``cone_mu``, its scale
    ``cone_theta`` and Kaplan's eigenvalue bound ``kaplan_lambda``.
    """
    if spec.lam != 0.0:
        raise ValueError("threshold experiment requires the unforced problem")
    resolution = A.grid.resolution
    result = ExperimentResult(
        kind="threshold",
        digest=spec_digest(spec, resolution),
        provenance=_provenance(resolution, config),
    )

    certs = certificates(spec, A)
    alpha_hat = 1.0
    result.derived.update(cone_mu=certs.mu, cone_theta=CONE_THETA,
                          kaplan_lambda=certs.kaplan_lambda, alpha_predicted=alpha_hat)
    outcomes: dict[float, str] = {}

    def run(alpha: float) -> str:
        outcome, _ = evolve(spec, A, equilibrium.pair.scaled(alpha), config, certs=certs,
                            diagnostics=False)
        outcomes[alpha] = outcome.kind
        entry = _run_entry("alpha", alpha, outcome)
        if outcome.kind in ("decay", "blowup"):
            entry[f"{outcome.kind}_rule"] = outcome.rule
        result.runs.append(entry)
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

    def probe(alpha: float) -> None:
        """Move the bracket end that ``alpha``'s outcome backs, or stop at an unclassified one."""
        nonlocal lo, hi, undecided_at
        kind = outcomes[alpha] if alpha in outcomes else run(alpha)
        if kind == "decay":
            lo = alpha
        elif kind == "blowup":
            hi = alpha
        else:
            undecided_at = alpha

    if hi - lo > bisect_width:
        for alpha in _certifying_probes(alpha_hat, bisect_width, lo, hi):
            # an end already run, or a probe a contradiction left outside, is skipped
            if undecided_at is None and lo < alpha < hi:
                probe(alpha)
    golden = (math.sqrt(5.0) - 1.0) / 2.0
    from_low = True
    while undecided_at is None and (hi - lo) > bisect_width:
        frac = golden if from_low else 1.0 - golden
        from_low = not from_low
        probe(lo + frac * (hi - lo))
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
) -> ExperimentResult:
    """Locate the extremal forcing scale and verify the dynamics on both sides.

    Below the bracket (at half its lower end) the flow from (0,0) must
    converge to the minimal steady solution; above (at twice its upper end)
    it must blow up.  The digest, the template's at lambda = 1, names the forcing kind.
    """
    resolution = A.grid.resolution
    ls: LambdaStarResult = lambda_star(spec_template, A, bracket, rel_tol)
    lo, hi = ls.bracket
    result = ExperimentResult(
        kind="lambda-star",
        digest=spec_digest(spec_template.with_lam(1.0), resolution),
        provenance=_provenance(resolution, config),
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
    outcome, _ = evolve(spec_low, A, FieldPair.zeros(A.grid), config, diagnostics=False)
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
    outcome_hi, _ = evolve(spec_template.with_lam(lam_high), A, FieldPair.zeros(A.grid), config,
                           diagnostics=False)
    result.runs.append(_run_entry("lambda", lam_high, outcome_hi))
    result.derived["dynamics_consistent"] = bool(
        outcome.kind == "steady"
        and outcome_hi.kind == "blowup"
        and result.derived["steady_gap_rel"] is not None
        and result.derived["steady_gap_rel"] <= 1e-4
    )
    return result

