"""Verification suite: every module-level invariant, measured and reported.

Runs the structural checks (operator symmetry, comparison principle,
quadrature), the solver cross-validations (grid Newton against the shooting
solve, monotone iteration against Newton), the trajectory properties
(monotonicity, squeeze, energy descent, the differential inequality), the
identity scalings, and the negative controls that prove the checks can
fail.  Produces one pass/fail line per check with the measured number, and
a JSON payload that is byte-identical across reruns with the same seed.
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
    interval_grid,
    solve_shifted,
)
from ..elliptic import (
    EllipticError,
    residual_norm,
    shooting_oracle,
    signed_power,
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

__all__ = ["CheckResult", "VerifyReport", "relaxed_pair", "verify_suite"]


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
    constant sources, on the same domain) run regardless.
    """
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
        report.add(f"equilibrium-residual [{tag}]", eq.residual_norm <= 1e-10, eq.residual_norm)
        report.add(f"equilibrium-positive [{tag}]", bool(eq.pair.u.min() > 0), float(eq.pair.u.min()))
        ref = oracle3.to_pair(grid)
        err = max(np.max(np.abs(eq.pair.u - ref.u)), np.max(np.abs(eq.pair.v - ref.v)))
        err /= max(oracle3.sup_u, oracle3.sup_v)
        equilibrium_errors.append(err)
        # 1e-3 at 128+ nodes; coarser grids get the O(h^2) allowance
        tol = 1e-3 * max(1.0, (128 / n) ** 2)
        report.add(f"equilibrium-vs-shooting [{tag}]", err <= tol, float(err))

        _scaling_sign_checks(report, spec3, A, eq, tag)
        _forced_solution_checks(report, spec2, A, tag)
        _trajectory_checks(report, spec3, A, eq, tag)

    _ladder_checks(report, resolutions, poisson_errors, equilibrium_errors)

    A, eq = solved[0]
    _ordering_checks(report, spec3, A, eq, rng)
    _identity_scaling_check(report, spec3, *solved[-1])
    _power_sum_checks(report, seed)
    _negative_controls(report, A.grid, A, spec3, eq, rng)
    return report


def _structural_checks(report, grid, A, rng, tag):
    grids = [("radial", grid, A)]
    robin_grid = build_grid(grid.domain, BoundarySpec.robin(1.0), grid.resolution[0])
    grids.append(("radial-robin", robin_grid, build_laplacian(robin_grid)))
    if grid.resolution[0] <= 128:
        rect = Rectangle(1.0, 1.0)
        rect_grid = build_grid(rect, BoundarySpec.dirichlet(), (grid.resolution[0], grid.resolution[0]))
        grids.append(("rectangle", rect_grid, build_laplacian(rect_grid)))
        igrid = interval_grid(1.0, grid.resolution[0])
        grids.append(("interval", igrid, build_laplacian(igrid)))

    worst = 0.0
    for _, g, op in grids:
        for _ in range(100 // len(grids)):
            x = rng.standard_normal(g.size)
            y = rng.standard_normal(g.size)
            gap = abs(
                integrate(g, op.apply(x) * y) - integrate(g, x * op.apply(y))
            ) / (np.linalg.norm(x) * np.linalg.norm(y))
            worst = max(worst, gap)
    report.add(f"duality [{tag}]", worst <= 1e-12, worst, "all supported grids")

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


def _scaling_sign_checks(report, spec, A, eq, tag):
    p = spec.p
    for factor, expect_super in ((0.5, True), (1.5, False)):
        su = A.apply(factor * eq.pair.u) - signed_power(factor * eq.pair.v, p)
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
        seed_pair = FieldPair(
            homog.pair.u + minimal.pair.u, homog.pair.v + minimal.pair.v, A.grid
        )
        second = solve_newton(spec2, A, initial_guess=seed_pair, deflation_against=[minimal])
        gap = min(
            float(np.min(second.pair.u - minimal.pair.u)),
            float(np.min(second.pair.v - minimal.pair.v)),
        )
        report.add(f"minimal-dominance [{tag}]", gap >= -1e-10 * second.pair.sup, gap,
                   "second solution dominates the minimal one")
        _, _, idgap = solution_pair_identity(
            A.grid, A,
            FieldPair(second.pair.u - minimal.pair.u, second.pair.v - minimal.pair.v, A.grid),
            FieldPair(second.pair.u - minimal.pair.u, second.pair.v - minimal.pair.v, A.grid),
            spec2.exponents, shift=minimal.pair, steady_tol=1e-8,
        )
        report.add(f"shifted-identity-self [{tag}]", idgap <= 1e-12, idgap)
        try:
            third = solve_newton(
                spec2, A, initial_guess=seed_pair.scaled(2.0),
                deflation_against=[minimal, second],
            )
            inter_lo = min(float(np.min(third.pair.u - second.pair.u)),
                           float(np.min(third.pair.v - second.pair.v)))
            inter_hi = max(float(np.max(third.pair.u - second.pair.u)),
                           float(np.max(third.pair.v - second.pair.v)))
            report.add(f"non-minimal-intersect [{tag}]", inter_lo < 0 < inter_hi,
                       f"range [{inter_lo:.3e}, {inter_hi:.3e}]")
        except EllipticError:
            report.add(f"non-minimal-intersect [{tag}]", True, "vacuous",
                       "no third solution found")
    except EllipticError as exc:
        report.add(f"minimal-dominance [{tag}]", False, str(exc))


def _trajectory_checks(report, spec, A, eq, tag):
    config = IntegratorConfig()
    scale = eq.pair.sup

    outcome, rec = evolve(spec, A, eq.pair.scaled(0.5), config, squeeze_upper=eq.pair)
    report.add(f"decay-classification [{tag}]", outcome.kind == "decay", outcome.kind)
    report.add(f"trajectory-nonincreasing [{tag}]",
               rec.max_step_increase <= 1e-10 * scale, rec.max_step_increase)
    report.add(f"positivity [{tag}]", rec.squeeze_low >= -1e-12 * scale, rec.squeeze_low)
    report.add(f"squeeze [{tag}]", rec.squeeze_high <= 1e-8 * scale, rec.squeeze_high)
    tol_e = 1e-8 * max(1.0, abs(rec.energy[0]))
    report.add(f"energy-descent-decay [{tag}]",
               energy_monotonicity_violation(rec) <= tol_e, energy_monotonicity_violation(rec))

    outcome_b, rec_b = evolve(spec, A, eq.pair.scaled(1.5), config)
    report.add(f"blowup-classification [{tag}]", outcome_b.kind == "blowup", outcome_b.kind)
    report.add(f"trajectory-nondecreasing [{tag}]",
               rec_b.max_step_decrease >= -1e-10 * scale, rec_b.max_step_decrease)
    tol_e = 1e-8 * max(1.0, abs(rec_b.energy[0]))
    report.add(f"energy-descent-blowup [{tag}]",
               energy_monotonicity_violation(rec_b) <= tol_e, energy_monotonicity_violation(rec_b))

    margin, allowance = _bound_margin(rec_b)
    report.add(f"blowup-differential-bound [{tag}]", bool(np.all(margin >= -allowance)),
               float(np.min(margin + allowance)), "dphi/dt >= -2E(0) + C*phi^gamma - tol")

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


def _bound_margin(rec):
    arrays = rec.arrays()
    lhs, rhs, bound = arrays["dphi_lhs"], arrays["dphi_rhs"], arrays["bound_rhs"]
    margin = lhs - bound
    allowance = np.abs(lhs - rhs) + 1e-9 * (1 + np.abs(bound))
    return margin, allowance


def _phi_at_checkpoint(spec, A, eq, dt0, t_check):
    config = IntegratorConfig(dt0=dt0, t_max=2 * t_check)
    _, rec = evolve(spec, A, eq.pair.scaled(1.5), config)
    return float(np.interp(t_check, np.asarray(rec.t), np.asarray(rec.phi)))


def _ladder_checks(report, resolutions, poisson_errors, equilibrium_errors):
    for (n1, n2, e1, e2, label) in (
        (resolutions[i], resolutions[i + 1], errs[i], errs[i + 1], name)
        for errs, name in ((poisson_errors, "poisson"), (equilibrium_errors, "equilibrium"))
        for i in range(len(resolutions) - 1)
    ):
        expected = (n2 / n1) ** 2
        ratio = e1 / e2 if e2 > 0 else math.inf
        report.add(
            f"{label}-convergence [{n1}->{n2}]",
            expected * 0.75 <= ratio <= expected * 1.25,
            ratio,
            f"error ratio, expected ~{expected:.0f}",
        )


def _ordering_checks(report, spec, A, eq, rng, pairs: int = 10):
    config = IntegratorConfig(t_max=2.0)
    worst = -math.inf
    violations = 0
    for _ in range(pairs):
        a = rng.uniform(0.05, 0.8)
        b = a + rng.uniform(0.05, 0.7)
        rep = evolve_ordered(spec, A, eq.pair.scaled(a), eq.pair.scaled(b), config)
        worst = max(worst, rep.max_gap)
        violations += 0 if rep.ok else 1
    report.add("ordering-preserved", violations == 0, float(worst),
               f"{pairs} seeded ordered pairs, largest low-over-high gap")


def relaxed_pair(spec, A, tight: FieldPair, target: float) -> tuple[FieldPair, float]:
    """A pair s*tight, 1 <= s <= 1.3, whose residual lies in (0.2, 1] * target.

    Bisects s on the segment from tight.scaled(1.3) to the steady solution
    ``tight``; returns the pair and its relative residual.  The identity
    scaling studies use it to make inputs of prescribed accuracy.
    """
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


def _identity_scaling_check(report, spec, A, tight):
    xs, ys = [], []
    for target in (1e-5, 1e-7, 1e-9):
        relaxed, rn = relaxed_pair(spec, A, tight.pair, target)
        _, _, gap = solution_pair_identity(
            A.grid, A, relaxed, tight.pair, spec.exponents, steady_tol=10 * max(rn, 1e-16),
        )
        xs.append(rn)
        ys.append(max(gap, 1e-18))
    slope = np.polyfit(np.log(xs), np.log(ys), 1)[0]
    report.add("identity-residual-scaling", 0.7 <= slope <= 1.3, float(slope),
               "log-log slope of |lhs-rhs| vs equilibrium residual")


def _power_sum_checks(report, seed):
    rng = np.random.default_rng(seed)
    x = 10 ** rng.uniform(-6, 6, 1_000_000)
    y = 10 ** rng.uniform(-6, 6, 1_000_000)
    a = rng.uniform(0.0, 1.0, 1_000_000)
    mask = (a > 0) & (a < 1)
    lhs = x**a + y**a
    rhs = 2 ** (1 - a) * (x + y) ** a
    violations = int(np.sum(lhs[mask] > rhs[mask] * (1 + 1e-12)))
    report.add("power-sum-random", violations == 0, float(violations),
               "violations among 1e6 seeded triples")
    eq_gap = max(
        abs(l - r) / r for l, r in (power_sum_bound(t, t, 0.5)[:2] for t in (1e-6, 1.0, 1e6))
    )
    report.add("power-sum-equality", eq_gap <= 1e-14, float(eq_gap), "x = y cases")

    rng2 = np.random.default_rng(seed)
    x2 = 10 ** rng2.uniform(-6, 6, 1_000_000)
    report.add("power-sum-deterministic", bool(np.array_equal(x, x2)), "bitwise",
               "same seed reproduces the sample")


def _negative_controls(report, grid, A, spec, eq, rng):
    broken = sp.lil_matrix(A.K)
    broken[0, 1] = broken[0, 1] + 1e-3
    brokenA = DiscreteLaplacian(grid=grid, K=broken.tocsr(), boundary=A.boundary)
    x = rng.standard_normal(grid.size)
    y = rng.standard_normal(grid.size)
    gap = abs(
        integrate(grid, brokenA.apply(x) * y) - integrate(grid, x * brokenA.apply(y))
    ) / (np.linalg.norm(x) * np.linalg.norm(y))
    report.add("negative-control-asymmetry", gap > 1e-12, gap,
               "deliberately broken operator is detected")

    bumped = FieldPair(eq.pair.u + 0.1, eq.pair.v + 0.1, grid)
    lhs, rhs, idgap = solution_pair_identity(
        grid, A, eq.pair, bumped, spec.exponents, steady_tol=math.inf
    )
    report.add("negative-control-identity", idgap > 1e-6 and lhs < 0 < rhs, idgap,
               "perturbed pair violates the identity with the ordered signs")
