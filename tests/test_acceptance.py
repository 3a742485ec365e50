"""Acceptance gate: one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with pytest -s or in the
captured output); together they certify the build end to end.
"""

import math
import time

import numpy as np
import pytest

from thresholdlab import (
    BoundarySpec,
    FieldPair,
    IntegratorConfig,
    RadialBall,
    Rectangle,
    build_grid,
    build_laplacian,
    evolve,
    solve_newton,
)
from thresholdlab.lab.cli import main
from thresholdlab.lab.experiments import threshold_experiment
from thresholdlab.lab.verify import (
    blowup_checks,
    bound_margin_check,
    convergence_checks,
    decay_checks,
    duality_check,
    energy_descent_check,
    equilibrium_checks,
    identity_gaps,
    identity_scaling_check,
    ordering_check,
    power_sum_checks,
    shifted_identity_check,
)

from conftest import assert_passed, disk_operator
from output_digests import CRITERION_10, digests


def report(criterion: str, detail: str):
    print(f"ACCEPTANCE {criterion}: PASS  ({detail})")


@pytest.fixture(scope="module")
def runs_512(eq3_512, spec3):
    A, eq = eq3_512
    decay_outcome, decay_rec = evolve(
        spec3, A, eq.pair.scaled(0.5), IntegratorConfig(), squeeze_upper=eq.pair
    )
    blow_outcome, blow_rec = evolve(spec3, A, eq.pair.scaled(1.5), IntegratorConfig())
    return {
        "A": A,
        "eq": eq,
        "decay": (decay_outcome, decay_rec),
        "blow": (blow_outcome, blow_rec),
    }


def test_criterion_1_power_sum_inequality():
    start = time.time()
    checks = power_sum_checks(20240801)
    elapsed = time.time() - start
    assert_passed(checks)
    assert elapsed < 5.0
    report("1", f"0 violations in 1e6 triples, equality gap {checks[1].value:.1e}, {elapsed:.2f}s")


def test_criterion_2_discrete_duality():
    start = time.time()
    grids = [build_grid(RadialBall(2, 1.0), BoundarySpec.dirichlet(), n) for n in (128, 256, 512)]
    grids.append(build_grid(RadialBall(2, 1.0), BoundarySpec.robin(1.0), 256))
    grids.append(build_grid(RadialBall(3, 1.0), BoundarySpec.dirichlet(), 128))
    grids.append(build_grid(Rectangle(1.0, 1.0), BoundarySpec.dirichlet(), (32, 32)))
    checks = duality_check([build_laplacian(g) for g in grids], np.random.default_rng(7), 100,
                           "criterion 2")
    elapsed = time.time() - start
    assert_passed(checks)
    assert elapsed < 5.0
    report("2", f"worst duality gap {checks[0].value:.2e} over {len(grids)} grids x 100 pairs, "
                f"{elapsed:.2f}s")


def test_criterion_3_equilibrium_vs_oracle(spec3, oracle3, eq3_512):
    start = time.time()
    ladder = (256, 512, 1024)
    checks, errors = [], []
    for n in ladder:
        eq = eq3_512[1] if n == 512 else solve_newton(spec3, disk_operator(n))
        found = equilibrium_checks(eq, oracle3, f"n={n}")
        checks += found
        errors.append(found[-1].value)
    ratios = convergence_checks("equilibrium", ladder, errors)
    elapsed = time.time() - start
    assert_passed(checks + ratios)
    assert elapsed < 30.0
    report("3", f"residual {eq3_512[1].residual_norm:.1e}, sup error {errors[1]:.2e}, "
                f"ratios {ratios[0].value:.2f}/{ratios[1].value:.2f}, {elapsed:.1f}s")


def test_criterion_4_threshold(runs_512, spec3):
    start = time.time()
    A, eq = runs_512["A"], runs_512["eq"]
    _, decay_rec = runs_512["decay"]
    blow_outcome, _ = runs_512["blow"]

    sup = np.maximum(np.asarray(decay_rec.sup_u), np.asarray(decay_rec.sup_v))
    assert sup[-1] <= 1e-8 * sup[0]
    assert blow_outcome.sup_at_stop >= 1e6
    assert math.isfinite(blow_outcome.t_est)

    result = threshold_experiment(
        spec3, A, eq, IntegratorConfig(), alphas=(0.5, 1.5), bisect_width=0.02
    )
    lo, hi = result.derived["alpha_bracket"]
    assert hi - lo <= 0.02
    assert 0.97 <= lo and hi <= 1.03
    elapsed = time.time() - start
    assert elapsed < 300.0
    report("4", f"decay/blowup certified, alpha bracket [{lo:.4f}, {hi:.4f}], {elapsed:.1f}s")


def test_criterion_5_monotone_and_squeeze(runs_512, eq3_128, spec3):
    scale = runs_512["eq"].pair.sup
    checks = decay_checks(*runs_512["decay"], scale, "n=512")
    checks += blowup_checks(*runs_512["blow"], scale, "n=512")
    checks += ordering_check(spec3, *eq3_128, np.random.default_rng(99))
    assert_passed(checks)
    report("5", "per-step monotone/squeeze bounds hold, 0/10 ordering violations")


def test_criterion_6_energy_machinery(runs_512, eq3_128, spec3):
    _, decay_rec = runs_512["decay"]
    _, blow_rec = runs_512["blow"]
    checks = energy_descent_check(decay_rec, "decay", "n=512")
    checks += energy_descent_check(blow_rec, "blowup", "n=512")
    checks += bound_margin_check(blow_rec, "n=512")
    assert_passed(checks)

    A128, eq128 = eq3_128
    t_check = 0.005

    def residual_at(dt0):
        config = IntegratorConfig(dt0=dt0, t_max=2 * t_check)
        _, rec = evolve(spec3, A128, eq128.pair.scaled(1.5), config)
        rec.finalize()
        return float(np.interp(t_check, np.asarray(rec.t),
                               np.abs(rec.dphi_lhs - rec.dphi_rhs)))

    ratio = residual_at(1e-3) / residual_at(5e-4)
    assert 2.0 * 0.7 <= ratio <= 2.0 * 1.3
    report("6", f"energy descent ok, identity ratio {ratio:.2f}, "
                f"bound margin plus allowance >= {checks[-1].value:.3g}")


def test_criterion_7_pair_identity(forced2_family):
    fam = forced2_family
    A = fam["A"]
    shift = fam["minimal"].pair
    # like verify's minimal-dominance check, a missing second solution fails
    assert fam["second"] is not None, "deflated Newton found no second solution"
    second = fam["second"].pair
    checks = shifted_identity_check(fam["spec_low"], A, shift, second, "n=256")
    # identity residual scales linearly with the equilibrium residual
    checks += identity_scaling_check(
        *identity_gaps(fam["spec_low"], A, second, (1e-4, 1e-6, 1e-8), shift=shift)
    )
    assert_passed(checks)
    report("7", f"identity gap {checks[0].value:.2e}, slope {checks[1].value:.2f}")


def test_criterion_8_extremal_forcing_scale(forced2_family):
    start = time.time()
    fam = forced2_family
    A = fam["A"]
    lo, hi = fam["lambda_star"].bracket
    assert (hi - lo) <= 0.05 * hi

    spec_low = fam["spec_low"]          # lambda = 0.5 * lo
    outcome, _ = evolve(spec_low, A, FieldPair.zeros(A.grid), IntegratorConfig())
    assert outcome.kind == "steady"
    minimal = fam["minimal"]
    gap = max(
        float(np.max(np.abs(outcome.limit.u - minimal.pair.u))),
        float(np.max(np.abs(outcome.limit.v - minimal.pair.v))),
    )
    assert gap <= 1e-4 * minimal.pair.sup

    spec_high = fam["template"].with_lam(2.0 * hi)
    outcome_hi, _ = evolve(spec_high, A, FieldPair.zeros(A.grid), IntegratorConfig())
    assert outcome_hi.kind == "blowup"
    elapsed = time.time() - start
    assert elapsed < 600.0
    report("8", f"bracket [{lo:.3f}, {hi:.3f}] (width {100 * (hi - lo) / hi:.1f}%), "
                f"steady gap {gap / minimal.pair.sup:.1e}*scale, high-lambda blowup, {elapsed:.1f}s")


def test_criterion_9_robin_threshold(robin3):
    spec, A, oracle, eq = robin3["spec"], robin3["A"], robin3["oracle"], robin3["eq"]
    assert eq.residual_norm <= 1e-10
    assert oracle.bc_residual <= 1e-8

    outcome_low, _ = evolve(spec, A, eq.pair.scaled(0.5), IntegratorConfig())
    outcome_high, _ = evolve(spec, A, eq.pair.scaled(1.5), IntegratorConfig())
    assert outcome_low.kind == "decay"
    assert outcome_high.kind == "blowup"
    report("9", f"robin residual {eq.residual_norm:.1e}, bc defect {oracle.bc_residual:.1e}, "
                f"alpha 0.5 decays / 1.5 blows up")


def test_criterion_10_determinism(tmp_path, capsys):
    # the command set tests/output_digests.py runs against any source tree
    outputs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        for name, argv in CRITERION_10:
            assert main([*argv, "--out", str(base / name)]) == 0, name
        outputs[tag] = digests(base)
    assert len(outputs["first"]) == 7
    assert outputs["first"] == outputs["second"], "outputs not byte-identical"
    with capsys.disabled():
        report("10", "verify + evolve CSV + threshold (Dirichlet, Robin)/lambda-star outputs "
                     "byte-identical")
