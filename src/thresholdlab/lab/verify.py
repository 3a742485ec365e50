"""Verification suite: every module-level invariant, measured and reported.

Runs the structural checks (operator symmetry, comparison principle,
quadrature), the solver cross-validations (grid Newton against the shooting
solve, monotone iteration against Newton), the trajectory properties
(monotonicity, squeeze, energy descent, the differential inequality), the
identity scalings, and the negative controls that prove the checks can
fail.  Produces one pass/fail line per check with the measured number, and
a JSON payload that is byte-identical across reruns with the same seed.

Each property the acceptance gate shares is a public function that takes
what it inspects and returns its CheckResults, its bound written once here;
the acceptance tests call them on their own seeds, grids and resolutions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from ..analysis import (
    energy_monotonicity_violation,
    power_sum_bound,
    solution_pair_identity,
)
from ..discrete import (
    DiscreteLaplacian,
    FieldPair,
    build_grid,
    build_laplacian,
    integrate,
    solve_shifted,
)
from ..elliptic import (
    EllipticError,
    residual,
    residual_norm,
    shooting_oracle,
    solve_monotone,
    solve_newton,
)
from ..parabolic import IntegratorConfig, adapt_dt, evolve, evolve_ordered
from ..problem import (
    BoundarySpec,
    ExponentPair,
    ForcingSpec,
    ProblemSpec,
    RadialBall,
    Rectangle,
)

__all__ = [
    "CheckResult", "VerifyReport", "verify_suite", "blowup_checks", "bound_margin_check",
    "convergence_checks", "decay_checks", "duality_check", "energy_descent_check",
    "equilibrium_checks", "identity_gaps", "identity_scaling_check", "ordering_check",
    "power_sum_checks", "shifted_identity_check",
]


@dataclass
class CheckResult:
    name: str
    passed: bool
    value: float | str
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        val = f"{self.value:.6e}" if isinstance(self.value, float) else str(self.value)
        out = f"[{status}] {self.name}: {val}"
        return out + (f"  ({self.detail})" if self.detail else "")


@dataclass
class VerifyReport:
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def add(self, *args, **kwargs):
        self.checks.append(CheckResult(*args, **kwargs))

    def text(self) -> str:
        lines = [c.line() for c in self.checks]
        lines.append(f"{'OK' if self.passed else 'FAILED'}: "
                     f"{sum(c.passed for c in self.checks)}/{len(self.checks)} checks passed")
        return "\n".join(lines) + "\n"

    def to_payload(self) -> dict:
        return {
            "passed": self.passed,
            "checks": [
                {"name": c.name, "passed": c.passed, "value": c.value, "detail": c.detail}
                for c in self.checks
            ],
        }


def verify_suite(
    resolutions=(128, 256, 512), seed: int = 0, spec: ProblemSpec | None = None
) -> VerifyReport:
    """Run the full property suite on the resolution ladder.

    ``spec`` picks the unforced problem driving the solver and trajectory
    checks (radial Dirichlet only; defaults to p = q = 3 on the unit disk);
    the structural operator checks and the forced-problem checks (p = q = 2,
    constant sources, on the same domain) run regardless.  A resolution that
    appears twice is refused: its convergence ratio would compare a grid with
    itself.
    """
    for i, n in enumerate(resolutions):
        if n in resolutions[:i]:
            raise ValueError(f"resolution {n} appears twice in the ladder; "
                             "each convergence ratio needs two different grids")
    report = VerifyReport()
    rng = np.random.default_rng(seed)

    if spec is None:
        spec = ProblemSpec(
            ExponentPair(3.0, 3.0), RadialBall(dimension=2, radius=1.0),
            BoundarySpec.dirichlet(),
        )
    if not isinstance(spec.domain, RadialBall) or spec.boundary.kind != "dirichlet" \
            or spec.lam != 0.0:
        raise ValueError("verify_suite needs an unforced radial Dirichlet problem")
    ball = spec.domain
    dirichlet = spec.boundary
    spec3 = spec
    spec2 = ProblemSpec(
        ExponentPair(2.0, 2.0), ball, dirichlet, ForcingSpec.constant(1.0)
    )

    grids = [build_grid(ball, dirichlet, n) for n in resolutions]  # reject bad n first
    oracle3 = shooting_oracle(spec3.exponents, ball.dimension, dirichlet, ball.radius)
    poisson_errors, equilibrium_errors, solved = [], [], []

    for n, grid in zip(resolutions, grids):
        tag = f"n={n}"
        A = build_laplacian(grid)
        _structural_checks(report, grid, A, rng, tag)
        poisson_errors.append(_poisson_error(grid, A))

        eq = solve_newton(spec3, A)
        solved.append((A, eq))
        found = equilibrium_checks(eq, oracle3, tag)
        report.checks += found
        equilibrium_errors.append(found[-1].value)

        _scaling_sign_checks(report, spec3, A, eq, tag)
        _forced_solution_checks(report, spec2, A, tag)
        _trajectory_checks(report, spec3, A, eq, tag)

    report.checks += convergence_checks("poisson", resolutions, poisson_errors)
    report.checks += convergence_checks("equilibrium", resolutions, equilibrium_errors)

    A, eq = solved[0]
    report.checks += ordering_check(spec3, A, eq, rng)
    A_fine, eq_fine = solved[-1]
    report.checks += identity_scaling_check(
        *identity_gaps(spec3, A_fine, eq_fine.pair, (1e-5, 1e-7, 1e-9))
    )
    report.checks += power_sum_checks(seed)
    _negative_controls(report, A.grid, A, spec3, eq, rng)
    return report


def duality_check(operators, rng, pairs: int, tag: str) -> list[CheckResult]:
    """|<A x, y>_w - <x, A y>_w| <= 1e-12 |x| |y| on ``pairs`` seeded pairs per operator."""
    worst = 0.0
    for op in operators:
        g = op.grid
        for _ in range(pairs):
            x = rng.standard_normal(g.size)
            y = rng.standard_normal(g.size)
            gap = abs(
                integrate(g, op.apply(x) * y) - integrate(g, x * op.apply(y))
            ) / (np.linalg.norm(x) * np.linalg.norm(y))
            worst = max(worst, gap)
    return [CheckResult(f"duality [{tag}]", worst <= 1e-12, worst, "all supported grids")]


def _structural_checks(report, grid, A, rng, tag):
    n = grid.resolution[0]
    grids = [build_grid(grid.domain, BoundarySpec.robin(1.0), n)]
    if n <= 128:
        grids.append(build_grid(Rectangle(1.0, 1.0), BoundarySpec.dirichlet(), (n, n)))
    operators = [A] + [build_laplacian(g) for g in grids]
    report.checks += duality_check(operators, rng, 100 // len(operators), tag)

    x = solve_shifted(A, 0.5, rng.uniform(0.0, 1.0, grid.size))
    report.add(f"maximum-principle [{tag}]", bool(x.min() >= -1e-14), float(x.min()))

    vol_err = abs(grid.volume - grid.domain.volume)
    h = grid.h[0]
    report.add(f"volume [{tag}]", vol_err <= grid.domain.volume * h**2, vol_err)

    # -Lap(R^2 - r^2) = 2N; rows are exact on quadratics except the
    # boundary cell, which also owns the boundary half-shell quadrature mass
    n_dim = grid.dimension
    parab = grid.domain.radius**2 - grid.coords**2
    gap = float(np.max(np.abs(A.apply(parab)[:-1] - 2 * n_dim)))
    report.add(
        f"stencil-parabola [{tag}]",
        bool(gap <= 100 * h**2),
        gap,
        f"A(R^2-r^2) = {2 * n_dim} away from the boundary cell",
    )


def _poisson_error(grid, A) -> float:
    n_dim = grid.dimension
    x = solve_shifted(A, 0.0, np.full(grid.size, 2.0 * n_dim))
    return float(np.max(np.abs(x - (grid.domain.radius**2 - grid.coords**2))))


def equilibrium_checks(eq, oracle, tag: str) -> list[CheckResult]:
    """Residual <= 1e-10, u > 0, and sup error against the shooting oracle,
    over its larger sup-norm, <= 1e-3 (times (128/n)^2 below 128 nodes).

    The last check's value is that error, which convergence_checks takes.
    """
    grid = eq.pair.grid
    n = grid.resolution[0]
    ref = oracle.to_pair(grid)
    err = max(np.max(np.abs(eq.pair.u - ref.u)), np.max(np.abs(eq.pair.v - ref.v)))
    err /= max(oracle.sup_u, oracle.sup_v)
    tol = 1e-3 * max(1.0, (128 / n) ** 2)
    return [
        CheckResult(f"equilibrium-residual [{tag}]", eq.residual_norm <= 1e-10, eq.residual_norm),
        CheckResult(f"equilibrium-positive [{tag}]", bool(eq.pair.u.min() > 0),
                    float(eq.pair.u.min())),
        CheckResult(f"equilibrium-vs-shooting [{tag}]", err <= tol, float(err)),
    ]


def convergence_checks(label: str, resolutions, errors) -> list[CheckResult]:
    """Second order: each error ratio e(n1)/e(n2) within 25% of (n2/n1)^2."""
    checks = []
    for n1, n2, e1, e2 in zip(resolutions, resolutions[1:], errors, errors[1:]):
        expected = (n2 / n1) ** 2
        ratio = e1 / e2 if e2 > 0 else math.inf
        checks.append(CheckResult(
            f"{label}-convergence [{n1}->{n2}]",
            expected * 0.75 <= ratio <= expected * 1.25,
            ratio,
            f"error ratio, expected ~{expected:.0f}",
        ))
    return checks


def _scaling_sign_checks(report, spec, A, eq, tag):
    for factor, expect_super in ((0.5, True), (1.5, False)):
        su = residual(spec, A, eq.pair.scaled(factor)).u
        worst = float(su.min()) if expect_super else float(-su.max())
        name = "super-solution" if expect_super else "sub-solution"
        slack = 1e-8 * eq.pair.sup
        report.add(f"{name}-sign [{tag}]", worst > -slack, worst, f"alpha={factor}")


def _forced_solution_checks(report, spec2, A, tag):
    res = solve_monotone(spec2, A)
    report.add(f"monotone-converges [{tag}]", res.converged, res.residual_norm)
    if not res.converged:
        return
    minimal = res.equilibrium(spec2)
    try:
        homog = solve_newton(spec2.with_lam(0.0), A)
        seed_pair = FieldPair.wrap(homog.pair.block + minimal.pair.block, A.grid)
        second = solve_newton(spec2, A, initial_guess=seed_pair, deflation_against=[minimal])
        above = second.pair - minimal.pair
        gap = min(float(np.min(above.u)), float(np.min(above.v)))
        report.add(f"minimal-dominance [{tag}]", gap >= -1e-10 * second.pair.sup, gap,
                   "second solution dominates the minimal one")
        report.checks += shifted_identity_check(spec2, A, minimal.pair, second.pair, tag)
        try:
            third = solve_newton(
                spec2, A, initial_guess=seed_pair.scaled(2.0),
                deflation_against=[minimal, second],
            )
            d = third.pair - second.pair
            inter_lo = min(float(np.min(d.u)), float(np.min(d.v)))
            inter_hi = max(float(np.max(d.u)), float(np.max(d.v)))
            report.add(f"non-minimal-intersect [{tag}]", inter_lo < 0 < inter_hi,
                       f"range [{inter_lo:.3e}, {inter_hi:.3e}]")
        except EllipticError:
            report.add(f"non-minimal-intersect [{tag}]", True, "vacuous",
                       "no third solution found")
    except EllipticError as exc:
        report.add(f"minimal-dominance [{tag}]", False, str(exc))


def shifted_identity_check(spec, A, minimal: FieldPair, second: FieldPair,
                           tag: str) -> list[CheckResult]:
    """The shifted identity of second - minimal with itself is <= 1e-12; the
    difference must meet the difference system to 1e-8."""
    d = second - minimal
    _, _, gap = solution_pair_identity(
        A.grid, A, d, d, spec.exponents, shift=minimal, steady_tol=1e-8,
    )
    return [CheckResult(f"shifted-identity-self [{tag}]", gap <= 1e-12, gap)]


def decay_checks(outcome, rec, scale: float, tag: str) -> list[CheckResult]:
    """A run from below a steady state of sup-norm ``scale``: decay, no step
    rise above 1e-10*scale, no value below -1e-12*scale, and no excess over
    the squeeze bound above 1e-10*scale."""
    return [
        CheckResult(f"decay-classification [{tag}]", outcome.kind == "decay", outcome.kind),
        CheckResult(f"trajectory-nonincreasing [{tag}]",
                    rec.max_step_increase <= 1e-10 * scale, rec.max_step_increase),
        CheckResult(f"positivity [{tag}]", rec.squeeze_low >= -1e-12 * scale, rec.squeeze_low),
        CheckResult(f"squeeze [{tag}]", rec.squeeze_high <= 1e-10 * scale, rec.squeeze_high),
    ]


def blowup_checks(outcome, rec, scale: float, tag: str) -> list[CheckResult]:
    """A run started above the steady state of sup-norm ``scale``: classified
    blow-up, and no node falls by more than 1e-10*scale in a step."""
    return [
        CheckResult(f"blowup-classification [{tag}]", outcome.kind == "blowup", outcome.kind),
        CheckResult(f"trajectory-nondecreasing [{tag}]",
                    rec.max_step_decrease >= -1e-10 * scale, rec.max_step_decrease),
    ]


def energy_descent_check(rec, label: str, tag: str) -> list[CheckResult]:
    """E rises by at most tol = 1e-8 max(1, |E(0)|) in any step and never
    exceeds E(0) + tol; the value is the largest rise in one step."""
    energy = np.asarray(rec.energy)
    tol = 1e-8 * max(1.0, abs(energy[0]))
    rise = energy_monotonicity_violation(rec)
    return [CheckResult(f"energy-descent-{label} [{tag}]",
                        rise <= tol and bool(np.all(energy <= energy[0] + tol)), rise)]


def bound_margin_check(rec, tag: str) -> list[CheckResult]:
    """dphi/dt >= -2E(0) + C*phi^gamma at every row, allowing the measured
    gap of the dphi/dt identity plus 1e-9 relative rounding."""
    arrays = rec.arrays()
    lhs, rhs, bound = arrays["dphi_lhs"], arrays["dphi_rhs"], arrays["bound_rhs"]
    margin = lhs - bound
    allowance = np.abs(lhs - rhs) + 1e-9 * (1 + np.abs(bound))
    return [CheckResult(f"blowup-differential-bound [{tag}]", bool(np.all(margin >= -allowance)),
                        float(np.min(margin + allowance)), "dphi/dt >= -2E(0) + C*phi^gamma - tol")]


def _trajectory_checks(report, spec, A, eq, tag):
    config = IntegratorConfig()
    scale = eq.pair.sup

    outcome, rec = evolve(spec, A, eq.pair.scaled(0.5), config, squeeze_upper=eq.pair)
    report.checks += decay_checks(outcome, rec, scale, tag)
    report.checks += energy_descent_check(rec, "decay", tag)

    outcome_b, rec_b = evolve(spec, A, eq.pair.scaled(1.5), config)
    report.checks += blowup_checks(outcome_b, rec_b, scale, tag)
    report.checks += energy_descent_check(rec_b, "blowup", tag)
    report.checks += bound_margin_check(rec_b, tag)

    # The refinement knob must actually cap the step: pick the reference dt0
    # below the initial reaction-limited step, and a checkpoint that both
    # precedes blow-up and spans a couple dozen steps.
    dt0_ref = min(config.dt0, 0.5 * adapt_dt(eq.pair.scaled(1.5), spec.exponents))
    t_check = min(0.005, 0.4 * outcome_b.t_end)
    reference = _phi_at_checkpoint(spec, A, eq, dt0_ref, t_check)
    halved = _phi_at_checkpoint(spec, A, eq, dt0_ref / 2, t_check)
    quartered = _phi_at_checkpoint(spec, A, eq, dt0_ref / 4, t_check)
    diff1 = abs(reference - halved)
    diff2 = abs(halved - quartered)
    ratio = diff1 / diff2 if diff2 > 0 else math.inf
    report.add(f"dt-consistency [{tag}]", 1.3 <= ratio <= 3.2, ratio,
               "phi(t_check) differences scale O(dt)")


def _phi_at_checkpoint(spec, A, eq, dt0, t_check):
    config = IntegratorConfig(dt0=dt0, t_max=2 * t_check)
    _, rec = evolve(spec, A, eq.pair.scaled(1.5), config)
    return float(np.interp(t_check, np.asarray(rec.t), np.asarray(rec.phi)))


def ordering_check(spec, A, eq, rng) -> list[CheckResult]:
    """Comparison principle: for 10 seeded pairs a < b, the runs from a and
    b times the steady state stay ordered in every step."""
    config = IntegratorConfig(t_max=2.0)
    worst = -math.inf
    violations = 0
    for _ in range(10):
        a = rng.uniform(0.05, 0.8)
        b = a + rng.uniform(0.05, 0.7)
        rep = evolve_ordered(spec, A, eq.pair.scaled(a), eq.pair.scaled(b), config)
        worst = max(worst, rep.max_gap)
        violations += 0 if rep.ok else 1
    return [CheckResult("ordering-preserved", violations == 0, float(worst),
                        "10 seeded ordered pairs, largest low-over-high gap")]


def _relaxed_pair(spec, A, tight: FieldPair, target: float) -> tuple[FieldPair, float]:
    """A pair s*tight, 1 <= s <= 1.3, and its residual in (0.2, 1] * target."""
    lo, hi = 0.0, 1.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        pair = tight.scaled(1.0 + 0.3 * mid)
        rn = residual_norm(spec, A, pair)
        if rn > target:
            hi = mid
        elif rn > 0.2 * target:
            return pair, rn
        else:
            lo = mid
    raise EllipticError(f"no pair between tight and 1.3*tight has residual near {target:.1e}")


def identity_gaps(spec, A, tight: FieldPair, targets,
                  shift: FieldPair | None = None) -> tuple[list[float], list[float]]:
    """Residuals and identity gaps against ``tight`` of pairs relaxed from it
    to each target residual; with ``shift`` (a forced problem's minimal
    solution) both enter as differences from it, in the shifted form."""
    residuals, gaps = [], []
    ref = tight if shift is None else tight - shift
    for target in targets:
        relaxed, rn = _relaxed_pair(spec, A, tight, target)
        if shift is not None:
            relaxed = relaxed - shift
        _, _, gap = solution_pair_identity(
            A.grid, A, relaxed, ref, spec.exponents, shift=shift,
            steady_tol=10 * max(rn, 1e-16),
        )
        residuals.append(rn)
        gaps.append(max(gap, 1e-18))
    return residuals, gaps


def identity_scaling_check(residuals, gaps) -> list[CheckResult]:
    """The identity gap is linear in the equilibrium residual: log-log slope
    in [0.7, 1.3] over at least three decades of residual."""
    slope = float(np.polyfit(np.log(residuals), np.log(gaps), 1)[0])
    decades = math.log10(residuals[0] / residuals[-1])
    return [CheckResult("identity-residual-scaling", 0.7 <= slope <= 1.3 and decades >= 3.0,
                        slope, "log-log slope of |lhs-rhs| vs equilibrium residual")]


def power_sum_checks(seed: int) -> list[CheckResult]:
    """x^a + y^a <= 2^(1-a) (x+y)^a to 1e-12 on 10^6 seeded triples, equality
    at x = y to 1e-14 in 15 cases, and the same seed redraws the sample."""
    rng = np.random.default_rng(seed)
    x = 10 ** rng.uniform(-6, 6, 1_000_000)
    y = 10 ** rng.uniform(-6, 6, 1_000_000)
    a = rng.uniform(0.0, 1.0, 1_000_000)
    live = (a > 0) & (a < 1)
    _, _, holds = power_sum_bound(x[live], y[live], a[live])
    violations = int(np.sum(~holds))
    eq_gap = max(
        abs(l - r) / r
        for l, r, _ in (power_sum_bound(t, t, s)
                        for t in (1e-6, 1e-2, 1.0, 1e3, 1e6) for s in (0.1, 0.5, 0.9))
    )
    again = 10 ** np.random.default_rng(seed).uniform(-6, 6, 1_000_000)
    return [
        CheckResult("power-sum-random", violations == 0, float(violations),
                    "violations among 1e6 seeded triples"),
        CheckResult("power-sum-equality", eq_gap <= 1e-14, float(eq_gap), "x = y cases"),
        CheckResult("power-sum-deterministic", bool(np.array_equal(x, again)), "bitwise",
                    "same seed reproduces the sample"),
    ]


def _negative_controls(report, grid, A, spec, eq, rng):
    broken = sp.lil_matrix(A.K)
    broken[0, 1] = broken[0, 1] + 1e-3
    brokenA = DiscreteLaplacian(grid=grid, K=broken.tocsr())
    [asymmetry] = duality_check([brokenA], rng, 1, "broken")
    report.add("negative-control-asymmetry", not asymmetry.passed, asymmetry.value,
               "deliberately broken operator is detected")

    bumped = FieldPair.wrap(eq.pair.block + 0.1, grid)
    lhs, rhs, idgap = solution_pair_identity(
        grid, A, eq.pair, bumped, spec.exponents, steady_tol=math.inf
    )
    report.add("negative-control-identity", idgap > 1e-6 and lhs < 0 < rhs, idgap,
               "perturbed pair violates the identity with the ordered signs")
