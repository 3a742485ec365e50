import math
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from thresholdlab import (
    BoundarySpec,
    ExponentPair,
    FieldPair,
    ForcingSpec,
    IntegratorConfig,
    ProblemSpec,
    RadialBall,
    Rectangle,
    adapt_dt,
    build_grid,
    build_laplacian,
    evolve,
    evolve_ordered,
    solve_newton,
    step,
)
from thresholdlab import parabolic
from thresholdlab.analysis import (
    dphi_identity_residual,
    energy,
    energy_monotonicity_violation,
    product_integral,
)
from thresholdlab.discrete import LinearSolveError, integrate
from thresholdlab.elliptic import AmplitudeOverflowError, forcing_arrays
from thresholdlab.parabolic import (
    CONE_THETA,
    DT_MAX,
    DT_MIN,
    EPS_DECAY,
    ETA,
    M_BLOW,
    NumericalFailureError,
    Outcome,
    certificates,
)
from thresholdlab.lab.verify import blowup_checks, decay_checks

from conftest import assert_passed, disk_operator, disk_spec


class TestStep:
    def test_zero_state_invariant(self, spec3):
        A = disk_operator(64)
        state = FieldPair.zeros(A.grid)
        for _ in range(5):
            state = step(spec3, A, state, 1e-3)
        assert state.sup == 0.0

    def test_equilibrium_near_fixed_point(self, eq3_128, spec3):
        A, eq = eq3_128
        dt = 1e-3
        new = step(spec3, A, eq.pair, dt)
        change = max(np.max(np.abs(new.u - eq.pair.u)), np.max(np.abs(new.v - eq.pair.v)))
        # drift bounded by dt * residual scale
        assert change <= 100 * dt * eq.residual_norm * eq.pair.sup + 1e-14

    def test_richardson_consistency(self, eq3_128, spec3):
        # one dt step vs two dt/2 steps differ at O(dt^2) on smooth data
        A, eq = eq3_128
        state = eq.pair.scaled(0.7)
        diffs = []
        for dt in (2e-3, 1e-3):
            big = step(spec3, A, state, dt)
            half = step(spec3, A, step(spec3, A, state, dt / 2), dt / 2)
            diffs.append(np.max(np.abs(big.u - half.u)))
        assert diffs[0] / diffs[1] == pytest.approx(4.0, rel=0.3)


class TestAdaptDt:
    def test_zero_state_gives_dt_max(self, spec3):
        A = disk_operator(64)
        assert adapt_dt(FieldPair.zeros(A.grid), spec3.exponents) == DT_MAX

    def test_saturation_at_dt_min(self, spec3):
        A = disk_operator(64)
        p = spec3.p
        level = (ETA / DT_MIN) ** (1 / (p - 1)) / p ** (1 / (p - 1))
        state = FieldPair(np.zeros(A.grid.size), np.full(A.grid.size, level), A.grid)
        assert adapt_dt(state, spec3.exponents) == pytest.approx(DT_MIN)

    def test_power_scaling(self, spec3):
        A = disk_operator(64)
        one = FieldPair(np.full(A.grid.size, 40.0), np.full(A.grid.size, 40.0), A.grid)
        two = one.scaled(2.0)
        dt1 = adapt_dt(one, spec3.exponents)
        dt2 = adapt_dt(two, spec3.exponents)
        assert dt1 / dt2 == pytest.approx(4.0, rel=1e-12)  # p = 3 doubling shrinks dt 4x


class TestEvolve:
    def test_zero_initial_decays_immediately(self, spec3):
        A = disk_operator(64)
        outcome, record = evolve(spec3, A, FieldPair.zeros(A.grid))
        assert outcome.kind == "decay"
        assert outcome.t_end == 0.0
        assert len(record) == 1

    def test_data_overflowing_at_start_fails_at_t0(self, eq3_128, spec3):
        # finite data whose diagnostic row or reaction overflows is refused
        # before the first step, without an overflow warning
        A, eq = eq3_128
        with pytest.raises(NumericalFailureError, match="diagnostic row") as exc:
            evolve(spec3, A, eq.pair.scaled(1e200))
        assert exc.value.t == 0.0
        with pytest.raises(NumericalFailureError, match="reaction") as exc:
            evolve_ordered(spec3, A, eq.pair.scaled(0.5), eq.pair.scaled(1e200))
        assert exc.value.t == 0.0

    def test_row_overflowing_after_a_step_fails_at_its_time(self, eq3_128, spec3):
        # the row at t = 0 is finite; the first step's is not, and the run
        # stops there by name, without an overflow warning
        A, eq = eq3_128
        with pytest.raises(NumericalFailureError, match="diagnostic row") as exc:
            evolve(spec3, A, eq.pair.scaled(1e30))
        assert exc.value.t > 0.0

    def test_subequilibrium_decays(self, eq3_128, spec3):
        A, eq = eq3_128
        outcome, record = evolve(spec3, A, eq.pair.scaled(0.5), squeeze_upper=eq.pair)
        sup = np.maximum(np.asarray(record.sup_u), np.asarray(record.sup_v))
        assert sup[-1] <= 1e-8 * sup[0]
        assert np.all(np.diff(sup) <= 1e-12 * sup[0])  # sup-norm monotone down
        assert_passed(decay_checks(outcome, record, eq.pair.sup, "n=128"))

    def test_superequilibrium_blows_up(self, eq3_128, spec3):
        A, eq = eq3_128
        outcome, record = evolve(spec3, A, eq.pair.scaled(1.5))
        assert_passed(blowup_checks(outcome, record, eq.pair.sup, "n=128"))
        assert outcome.sup_at_stop >= 1e6
        assert 0 < outcome.t_est < 1.0

    def test_blowup_time_stable_under_refinement(self, spec3):
        # t_est moves by less than 20% under dt0 halving and grid doubling
        times = []
        for n, dt0 in ((128, 1e-3), (128, 5e-4), (256, 1e-3)):
            A = disk_operator(n)
            from thresholdlab import solve_newton

            eq = solve_newton(spec3, A)
            outcome, _ = evolve(spec3, A, eq.pair.scaled(1.5), IntegratorConfig(dt0=dt0))
            times.append(outcome.t_est)
        base = times[0]
        assert abs(times[1] - base) <= 0.2 * base
        assert abs(times[2] - base) <= 0.2 * base

    def test_equilibrium_is_metastable(self, eq3_128, spec3):
        A, eq = eq3_128
        config = IntegratorConfig(t_max=5.0)
        outcome, _ = evolve(spec3, A, eq.pair, config)
        assert outcome.kind in ("steady", "undecided")
        if outcome.kind == "steady":
            gap = np.max(np.abs(outcome.limit.u - eq.pair.u))
            assert gap <= 1e-3 * eq.pair.sup

    def test_forced_run_reaches_minimal_state(self, forced2_family):
        fam = forced2_family
        outcome, _ = evolve(fam["spec_low"], fam["A"], FieldPair.zeros(fam["A"].grid))
        assert outcome.kind == "steady"
        gap = np.max(np.abs(outcome.limit.u - fam["minimal"].pair.u))
        assert gap <= 1e-4 * fam["minimal"].pair.sup

    def test_threshold_in_three_dimensions(self):
        # same dichotomy on the 3-ball (subcritical exponents)
        from thresholdlab import ProblemSpec, ExponentPair, RadialBall, build_grid, build_laplacian, solve_newton

        spec = ProblemSpec(ExponentPair(2.0, 2.0), RadialBall(3, 1.0))
        A = build_laplacian(build_grid(spec.domain, spec.boundary, 96))
        eq = solve_newton(spec, A)
        assert eq.residual_norm <= 1e-10
        low, _ = evolve(spec, A, eq.pair.scaled(0.5))
        high, _ = evolve(spec, A, eq.pair.scaled(1.5))
        assert low.kind == "decay"
        assert high.kind == "blowup"

    def test_positivity_preserved_from_random_data(self, spec3, rng):
        A = disk_operator(64)
        initial = FieldPair(
            rng.uniform(0.0, 2.0, A.grid.size), rng.uniform(0.0, 2.0, A.grid.size), A.grid
        )
        _, record = evolve(spec3, A, initial, IntegratorConfig(t_max=1.0))
        assert record.squeeze_low >= -1e-12 * initial.sup

    def test_negative_initial_rejected(self, spec3):
        A = disk_operator(64)
        bad = FieldPair(-np.ones(A.grid.size), np.ones(A.grid.size), A.grid)
        with pytest.raises(ValueError):
            evolve(spec3, A, bad)

    def test_overflow_reported_as_numerical_failure(self, spec3):
        A = disk_operator(64)
        huge = FieldPair(
            np.full(A.grid.size, 1e200), np.full(A.grid.size, 1e200), A.grid
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError):
                evolve(spec3, A, huge)

    def test_dt0_consistency(self, eq3_128, spec3):
        # phi at a fixed checkpoint moves O(dt0): halving dt0 halves the gap.
        # The checkpoint sits in the phase where dt0 caps the step; later the
        # reaction-limited formula takes over and the runs share their steps.
        A, eq = eq3_128
        t_check = 0.005

        def phi_at(dt0):
            config = IntegratorConfig(dt0=dt0, t_max=2 * t_check)
            _, rec = evolve(spec3, A, eq.pair.scaled(1.5), config)
            return np.interp(t_check, np.asarray(rec.t), np.asarray(rec.phi))

        d1 = abs(phi_at(1e-3) - phi_at(5e-4))
        d2 = abs(phi_at(5e-4) - phi_at(2.5e-4))
        assert d1 / d2 == pytest.approx(2.0, rel=0.4)


def _replay(spec, A, initial, config, upper, certs):
    """evolve rebuilt one step at a time from parabolic.step and the analysis functionals.

    Returns the outcome, the record's rows and its extrema.  It stops by the
    sup-norm blow-up and decay rules and, given ``certs``, the cone and
    Kaplan rules, in evolve's order; the runs it replays meet no other rule.
    """
    grid, (p, q) = A.grid, (spec.p, spec.q)
    sup_u = lambda pair: float(np.max(np.abs(pair.u)))
    sup_v = lambda pair: float(np.max(np.abs(pair.v)))
    row = lambda pair, t, dt: (
        t, dt, product_integral(grid, pair), energy(grid, A, pair, spec.exponents),
        integrate(grid, np.abs(pair.u) ** (q + 1)), integrate(grid, np.abs(pair.v) ** (p + 1)),
        sup_u(pair), sup_v(pair))
    state, t = initial, 0.0
    s0 = max(sup_u(state), sup_v(state))
    rows = [row(state, 0.0, 0.0)]
    increase, decrease, low, high = -math.inf, math.inf, 0.0, 0.0
    while True:
        dt = min(adapt_dt(state, spec.exponents), config.dt0)
        new = step(spec, A, state, dt)
        t += dt
        du, dv = new.u - state.u, new.v - state.v
        increase = max(increase, du.max(), dv.max())
        decrease = min(decrease, du.min(), dv.min())
        low = min(low, float(new.u.min()), float(new.v.min()))
        high = max(high, float(np.max(new.u - upper.u)), float(np.max(new.v - upper.v)))
        rows.append(row(new, t, dt))
        state, sup = new, max(sup_u(new), sup_v(new))
        if sup >= M_BLOW and dt <= DT_MIN * (1 + 1e-9):
            outcome = Outcome.blow_up(t, sup)
        elif sup <= max(EPS_DECAY * s0, np.finfo(float).tiny):
            outcome = Outcome.decay(t)
        elif certs is not None and np.all(new.u <= certs.cone.u) and np.all(new.v <= certs.cone.v):
            outcome = Outcome.decay(t, "cone")
        elif certs is not None and (rest := certs.kaplan_time(new)) is not None:
            outcome = Outcome.blow_up(t, sup, "kaplan", t + rest)
        else:
            continue
        return outcome, rows, (increase, decrease, low, high)


#: The replay's grids: the 64-node disk's banded route and the 16^2 square's eigenbasis route.
_REPLAY_GRIDS = {
    "disk": (RadialBall(2, 1.0), 64),
    "square": (Rectangle(1.0, 1.0), 16),
}


@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("alpha, kind, geometry", [
    pytest.param(alpha, kind, geometry, id=f"{alpha}-{kind}" if geometry == "disk"
                 else f"{geometry}-{alpha}-{kind}")
    for geometry in sorted(_REPLAY_GRIDS) for alpha, kind in [(0.9, "decay"), (1.1, "blowup")]
])
def test_evolve_replays_bitwise(alpha, kind, geometry, certified):
    # every value evolve records or classifies by equals, bit for bit, the
    # plain per-step computation it stands for: the sup-norms it takes once
    # per step, the extrema and the steady change from fewer reductions.
    # u and v differ, so a swapped column shows; the runs take 20-350 steps
    domain, n = _REPLAY_GRIDS[geometry]
    spec = ProblemSpec(ExponentPair(3.0, 3.0), domain)
    A = build_laplacian(build_grid(domain, spec.boundary, n))
    eq = solve_newton(spec, A)
    config = IntegratorConfig(dt0=1e-2)
    certs = certificates(spec, A) if certified else None
    initial = FieldPair(alpha * eq.pair.u, alpha**2 * eq.pair.v, A.grid)
    outcome, record = evolve(spec, A, initial, config, squeeze_upper=eq.pair, certs=certs)
    expected, rows, extrema = _replay(spec, A, initial, config, eq.pair, certs)
    assert outcome.kind == kind and outcome.rule == ("sup" if not certified else
                                                     "cone" if kind == "decay" else "kaplan")
    assert outcome == expected
    columns = ("t", "dt", "phi", "energy", "int_u_q1", "int_v_p1", "sup_u", "sup_v")
    for name, column in zip(columns, zip(*rows)):
        assert np.asarray(getattr(record, name)).tobytes() == np.asarray(column).tobytes(), name
    kept = (record.max_step_increase, record.max_step_decrease, record.squeeze_low,
            record.squeeze_high)
    assert np.asarray(kept).tobytes() == np.asarray(extrema).tobytes()


#: The lean-row problems: the 64-node disk, the 3-ball, the 16^2 square and p != q.
_LEAN_PROBLEMS = {
    "disk": (ExponentPair(3.0, 3.0), RadialBall(2, 1.0), 64),
    "ball": (ExponentPair(3.0, 3.0), RadialBall(3, 1.0), 64),
    "square": (ExponentPair(3.0, 3.0), Rectangle(1.0, 1.0), 16),
    "p-ne-q": (ExponentPair(3.0, 2.0), RadialBall(2, 1.0), 64),
}


def _outcome_bytes(outcome):
    """Every field of an Outcome, floats and limit state as bytes."""
    times = np.asarray([outcome.t_end, outcome.t_est, outcome.sup_at_stop], dtype=float)
    limit = None if outcome.limit is None else outcome.limit.u.tobytes() + outcome.limit.v.tobytes()
    return outcome.kind, outcome.rule, times.tobytes(), limit


@pytest.mark.parametrize("certified", [False, True])
@pytest.mark.parametrize("problem", sorted(_LEAN_PROBLEMS))
def test_lean_rows_match_full_rows(problem, certified, monkeypatch):
    # a run without diagnostics classifies bit for bit as the full run does
    # and keeps its t, dt, sup-norm and power-integral columns and the step
    # and squeeze extrema; either way a record has one row per step plus the
    # initial one, the count the benchmark reads as len(record) - 1.  alpha
    # 0.9 decays, 1.0 is steady at its first step, 1.1 blows up; u and v
    # differ, so a swapped column shows
    exponents, domain, n = _LEAN_PROBLEMS[problem]
    spec = ProblemSpec(exponents, domain)
    A = build_laplacian(build_grid(domain, spec.boundary, n))
    eq = solve_newton(spec, A)
    certs = certificates(spec, A) if certified else None
    steps = []

    def counted_step(*args, **kwargs):
        steps.append(args[-1])
        return step(*args, **kwargs)

    monkeypatch.setattr(parabolic, "step", counted_step)
    kept = ("t", "dt", "sup_u", "sup_v", "int_u_q1", "int_v_p1")
    extrema = ("max_step_increase", "max_step_decrease", "squeeze_low", "squeeze_high")
    for alpha, kind in ((0.9, "decay"), (1.0, "steady"), (1.1, "blowup")):
        initial = FieldPair(alpha * eq.pair.u, alpha**2 * eq.pair.v, A.grid)
        runs = []
        for diagnostics in (True, False):
            steps.clear()
            outcome, record = evolve(spec, A, initial, IntegratorConfig(dt0=1e-2), certs=certs,
                                     diagnostics=diagnostics)
            assert len(record) - 1 == len(steps) > 0
            runs.append((outcome, record))
        (full, full_record), (lean, lean_record) = runs
        assert full.kind == kind
        assert _outcome_bytes(lean) == _outcome_bytes(full)
        for name in kept + extrema:
            assert (np.asarray(getattr(lean_record, name)).tobytes()
                    == np.asarray(getattr(full_record, name)).tobytes()), name
        assert lean_record.phi == lean_record.energy == []
        for refuses in (lean_record.arrays, partial(dphi_identity_residual, lean_record, 0),
                        partial(energy_monotonicity_violation, lean_record)):
            with pytest.raises(ValueError, match="lean record has no phi or energy column"):
                refuses()


#: The full-row problems: the 64-node disk, 3-ball and Robin disk, the 16^2
#: square and the disk forced by lam f = lam g = 0.5.
_ROW_PROBLEMS = {
    "disk": (RadialBall(2, 1.0), BoundarySpec.dirichlet(), 0.0, 64),
    "ball": (RadialBall(3, 1.0), BoundarySpec.dirichlet(), 0.0, 64),
    "robin-disk": (RadialBall(2, 1.0), BoundarySpec.robin(1.0), 0.0, 64),
    "square": (Rectangle(1.0, 1.0), BoundarySpec.dirichlet(), 0.0, 16),
    "forced": (RadialBall(2, 1.0), BoundarySpec.dirichlet(), 0.5, 64),
}


def _row_problem(name):
    """(spec, A, initial) of a full-row problem; u and v differ, so a swapped column shows."""
    domain, boundary, lam, n = _ROW_PROBLEMS[name]
    forcing = ForcingSpec.constant(lam) if lam else ForcingSpec.none()
    spec = ProblemSpec(ExponentPair(3.0, 3.0), domain, boundary, forcing)
    A = build_laplacian(build_grid(domain, boundary, n))
    eq = solve_newton(spec.with_lam(0.0), A)
    return spec, A, FieldPair(0.9 * eq.pair.u, 0.81 * eq.pair.v, A.grid)


@pytest.mark.parametrize("refined", [False, True], ids=["first-solve", "refined"])
@pytest.mark.parametrize("problem", sorted(_ROW_PROBLEMS))
def test_full_row_energy_is_the_energy_of_its_state(problem, refined, monkeypatch):
    # a row reached by a step takes E's cross term from the K u and K v its
    # solve formed; E is bitwise analysis.energy of the state the step
    # returned.  With ``refined``, every step's first solve is perturbed to
    # miss the 1e-12 contract, so the products must be the refined answer's
    spec, A, initial = _row_problem(problem)
    states = [initial]

    def kept_step(*args, **kwargs):
        new = step(*args, **kwargs)
        states.append(new.copy())
        return new

    solves = []
    if refined:
        real = A._solve

        def perturbed(sigma, b):
            solves.append(sigma)
            x = real(sigma, b)
            return x * (1.0 + 1e-6) if len(solves) % 2 else x

        monkeypatch.setattr(A, "_solve", perturbed)
    monkeypatch.setattr(parabolic, "step", kept_step)
    _, record = evolve(spec, A, initial, IntegratorConfig(dt0=1e-2, t_max=0.3))
    assert len(states) == len(record) > 1
    if refined:         # one perturbed solve and one refinement per step
        assert len(solves) == 2 * (len(record) - 1)
    expected = [energy(A.grid, A, state, spec.exponents) for state in states]
    assert np.asarray(record.energy).tobytes() == np.asarray(expected).tobytes()


@pytest.mark.parametrize("problem", ["disk", "square", "forced"])
def test_march_evaluates_the_forcing_once_and_steps_bitwise_as_step(problem, monkeypatch):
    # the march hands its forcing arrays to every step; a step that
    # evaluates them itself gives the same state, bit for bit
    spec, A, initial = _row_problem(problem)
    calls = []

    def counted(*args):
        calls.append(args)
        return forcing_arrays(*args)

    monkeypatch.setattr(parabolic, "forcing_arrays", counted)
    march = parabolic._march(spec, A, [initial], IntegratorConfig())
    state = initial
    for n, (_, dt, (new,), _, _) in enumerate(march, 1):
        assert step(spec, A, state, dt).block.tobytes() == new.block.tobytes()
        state = new
        if n == 5:
            break
    # one by the march, one by each of the five reference steps
    assert len(calls) == 1 + 5


@pytest.mark.parametrize("problem", ["disk", "square"])
def test_full_rows_form_two_stiffness_products_per_step(problem, monkeypatch):
    # a step's solve multiplies K into u and v once each for its 1e-12
    # check, and a full row reuses them: two products per step, plus the
    # initial row's two.  A lean row forms none of its own
    spec, A, initial = _row_problem(problem)
    products = []

    class CountedK(type(A.K)):
        def __matmul__(self, other):
            products.append(np.ndim(other))
            return super().__matmul__(other)

    monkeypatch.setattr(A, "K", CountedK(A.K))
    for diagnostics, initial_row in ((True, 2), (False, 0)):
        products.clear()
        _, record = evolve(spec, A, initial, IntegratorConfig(dt0=1e-2, t_max=0.3),
                           diagnostics=diagnostics)
        assert len(record) > 1
        assert products == [1] * (2 * (len(record) - 1) + initial_row)


@pytest.mark.parametrize("certified", [True, False], ids=["threshold-probe", "uncertified"])
@pytest.mark.parametrize("alpha", [0.9, 1.1])
def test_lean_probe_factorises_once_per_sigma(alpha, certified, monkeypatch):
    # lean probes on the 64-node disk: the radial solve keeps the LDL^T
    # factors of its last sigma, so LAPACK's pttrf runs once per distinct
    # sigma = 1/dt, not once per step.  The threshold experiment's probes,
    # with certificates, step at dt0 throughout and factorise once; the
    # uncertified blow-up's step shrinks with its sup-norm to the floor and
    # never returns to an earlier one
    spec = disk_spec()
    A = build_laplacian(build_grid(spec.domain, spec.boundary, 64))
    eq = solve_newton(spec, A)
    certs = certificates(spec, A) if certified else None
    solve = A._solve
    pttrf = solve.args[0]
    factorised, sigmas = [], []

    def spy(*args, **kwargs):
        factorised.append(1)
        return pttrf(*args, **kwargs)

    spied = partial(solve.func, spy, *solve.args[1:])

    def recording(sigma, b):
        sigmas.append(sigma)
        return spied(sigma, b)

    monkeypatch.setattr(A, "_solve", recording)
    outcome, record = evolve(spec, A, eq.pair.scaled(alpha), certs=certs, diagnostics=False)
    steps = len(record) - 1
    assert outcome.kind == ("decay" if alpha < 1 else "blowup")
    assert len(sigmas) == steps > 50
    assert len(factorised) == len(set(sigmas))
    if certified:
        assert len(factorised) == 1


class TestEvolveOrdered:
    def test_zero_below_anything(self, eq3_128, spec3):
        A, eq = eq3_128
        report = evolve_ordered(
            spec3, A, FieldPair.zeros(A.grid), eq.pair.scaled(0.5),
            IntegratorConfig(t_max=1.0),
        )
        assert report.ok

    def test_ordered_scalings_stay_ordered(self, eq3_128, spec3):
        A, eq = eq3_128
        report = evolve_ordered(
            spec3, A, eq.pair.scaled(0.3), eq.pair.scaled(0.6),
            IntegratorConfig(t_max=5.0),
        )
        assert report.ok
        assert report.outcome_low is not None and report.outcome_low.kind == "decay"

    def test_equal_states_stay_equal(self, eq3_128, spec3):
        A, eq = eq3_128
        report = evolve_ordered(
            spec3, A, eq.pair.scaled(0.5), eq.pair.scaled(0.5),
            IntegratorConfig(t_max=0.5),
        )
        assert report.ok
        assert report.max_gap <= 1e-13 * eq.pair.sup

    def test_unordered_initial_rejected(self, eq3_128, spec3):
        A, eq = eq3_128
        with pytest.raises(ValueError):
            evolve_ordered(spec3, A, eq.pair, eq.pair.scaled(0.5))

    def test_negative_initial_rejected_like_evolve(self, spec3):
        A = disk_operator(32)
        eq = solve_newton(spec3, A)
        with pytest.raises(ValueError, match="initial data must be nonnegative"):
            evolve_ordered(spec3, A, eq.pair.scaled(-0.5), eq.pair.scaled(0.5))

    @pytest.mark.parametrize(
        "domain, resolution", [(Rectangle(1.0, 1.0), 16), (RadialBall(2, 1.0), 64)]
    )
    def test_overflow_reported_as_numerical_failure(self, domain, resolution):
        spec = ProblemSpec(ExponentPair(3.0, 3.0), domain)
        A = build_laplacian(build_grid(domain, spec.boundary, resolution))
        low, high = (FieldPair(np.full(A.grid.size, c), np.full(A.grid.size, c), A.grid)
                     for c in (5e199, 1e200))
        with pytest.raises(NumericalFailureError):
            evolve_ordered(spec, A, low, high)

    def test_overflow_after_a_step_ends_by_name_without_warning(self, spec3):
        # the march runs under evolve's float-range guard: the shifted solve's
        # norms overflow in the first step and end it by name, not by warning
        A = disk_operator(16)
        eq = solve_newton(spec3, A)
        with pytest.raises(LinearSolveError, match="norms overflow"):
            evolve_ordered(spec3, A, eq.pair.scaled(0.5), eq.pair.scaled(1e70))

    def test_forced_run_classified_steady_like_evolve(self):
        spec = disk_spec(2.0, 2.0, lam=1.0)
        A = disk_operator(32)
        config = IntegratorConfig(t_max=20.0)
        zeros = FieldPair.zeros(A.grid)
        high = FieldPair(np.full(A.grid.size, 0.1), np.full(A.grid.size, 0.1), A.grid)
        report = evolve_ordered(spec, A, zeros, high, config)
        outcome, _ = evolve(spec, A, zeros, config)
        assert outcome.kind == "steady"
        assert (report.outcome_low.kind, report.outcome_high.kind) == ("steady", "steady")
        assert report.ok and report.t_end < config.t_max


class TestConfigValidation:
    def test_dt_ordering(self):
        with pytest.raises(ValueError):
            IntegratorConfig(dt0=DT_MIN / 2)
        with pytest.raises(ValueError):
            IntegratorConfig(dt0=2 * DT_MAX)
        assert IntegratorConfig(dt0=DT_MIN).dt0 == DT_MIN
        assert IntegratorConfig(dt0=DT_MAX).dt0 == DT_MAX


# the decay cone on each kind of grid: disk, 3-ball, Dirichlet rectangle, Robin disk
_CONE_GRIDS = {
    "disk": (RadialBall(2, 1.0), BoundarySpec.dirichlet(), 64),
    "ball": (RadialBall(3, 1.0), BoundarySpec.dirichlet(), 64),
    "rect": (Rectangle(1.0, 1.0), BoundarySpec.dirichlet(), 16),
    "robin": (RadialBall(2, 1.0), BoundarySpec.robin(1.0), 64),
}
_EXPONENT = st.floats(1.5, 3.5)
_cone_settings = settings(max_examples=12, deadline=None, derandomize=True)


def _cone_problem(p, q, name):
    domain, boundary, resolution = _CONE_GRIDS[name]
    spec = ProblemSpec(ExponentPair(p, q), domain, boundary)
    A = build_laplacian(build_grid(domain, boundary, resolution))
    return spec, A, certificates(spec, A)


@_cone_settings
@given(p=_EXPONENT, q=_EXPONENT, name=st.sampled_from(sorted(_CONE_GRIDS)))
def test_decay_cone_is_a_supersolution(p, q, name):
    """A C_u >= C_v^p and A C_v >= C_u^q nodewise, theta included."""
    _, A, certs = _cone_problem(p, q, name)
    cone = certs.cone
    assert np.all(cone.u > 0) and np.all(cone.v > 0)
    assert np.all(A.apply(cone.u) >= cone.v**p)
    assert np.all(A.apply(cone.v) >= cone.u**q)


@_cone_settings
@given(p=_EXPONENT, q=_EXPONENT, name=st.sampled_from(sorted(_CONE_GRIDS)),
       seed=st.integers(0, 2**32 - 1), fill=st.floats(0.0, 1.0))
@example(p=1.5, q=3.5, name="disk", seed=0, fill=1.0)
@example(p=3.0, q=3.0, name="rect", seed=0, fill=1.0)
def test_data_inside_decay_cone_decays(p, q, name, seed, fill):
    """Data below the cone stays below it every step and decays by the sup-norm rule.

    A share ``fill`` of the nodes sits on the cone itself (fill = 1 is the cone),
    the rest at a random fraction of it.  The run is given no cone.
    """
    spec, A, certs = _cone_problem(p, q, name)
    cone = certs.cone
    rng = np.random.default_rng(seed)
    m = A.grid.size
    frac = lambda: np.where(rng.uniform(size=m) < fill, 1.0, rng.uniform(size=m))
    initial = FieldPair(frac() * cone.u, frac() * cone.v, A.grid)
    outcome, record = evolve(spec, A, initial, IntegratorConfig(dt0=DT_MAX),
                             squeeze_upper=cone)
    assert (outcome.kind, outcome.rule) == ("decay", "sup")
    assert record.squeeze_high <= 0.0


@_cone_settings
@given(p=_EXPONENT, q=_EXPONENT, name=st.sampled_from(sorted(_CONE_GRIDS)))
@example(p=3.5, q=3.5, name="ball")
def test_runs_above_equilibrium_never_enter_decay_cone(p, q, name):
    """Runs from alpha (U, V), alpha > 1, are not classified by the cone.

    alpha (U, V) is a strict subsolution, so the run rises (as
    test_superequilibrium_blows_up checks) and a run outside the cone up to
    the horizon stays outside it for good.  The horizon is short because
    asymmetric exponents take some 30k steps to blow up.
    """
    spec, A, certs = _cone_problem(p, q, name)
    eq = solve_newton(spec, A)
    for alpha in (1.01, 1.1):
        outcome, _ = evolve(spec, A, eq.pair.scaled(alpha),
                            IntegratorConfig(dt0=DT_MAX, t_max=0.25), certs=certs)
        assert outcome.kind in ("blowup", "undecided")


def test_certificates_near_pq_one_end_by_name():
    # lam1^((p+1)/(pq-1)) leaves the float range for pq - 1 = 0.002
    with pytest.raises(AmplitudeOverflowError, match="overflows"):
        certificates(disk_spec(1.001, 1.001), disk_operator(64))


def test_decay_cone_rule_fires_only_with_a_cone(eq3_128, spec3):
    A, eq = eq3_128
    certs = certificates(spec3, A)
    plain, plain_record = evolve(spec3, A, eq.pair.scaled(0.5))
    certified, record = evolve(spec3, A, eq.pair.scaled(0.5), certs=certs)
    assert (plain.kind, plain.rule) == ("decay", "sup")
    assert (certified.kind, certified.rule) == ("decay", "cone")
    assert len(record) < len(plain_record)
    final = record.final_state
    assert np.all(final.u <= certs.cone.u) and np.all(final.v <= certs.cone.v)


def test_decay_cone_rule_reads_both_components(eq3_128, spec3):
    # a state is in the cone when u and v both are: either component above
    # its half of the cone keeps the rule silent
    A, _ = eq3_128
    certs = certificates(spec3, A)
    cone = certs.cone
    config = IntegratorConfig()
    for (a, b), fires in (((0.5, 0.5), True), ((0.5, 2.0), False), ((2.0, 0.5), False)):
        state = FieldPair(a * cone.u, b * cone.v, A.grid)
        outcome = parabolic._classify(spec3, config, 1.0, 1.0, state, state.sup, 1.0, 0.1,
                                      1e-3, certs)
        assert outcome == (Outcome.decay(0.1, "cone") if fires else None)


def _kaplan_mass(certs, state):
    return float(certs.omega @ (state.u + state.v))


def _kaplan_root(certs):
    """The mass H* at which CONE_THETA (c H^r - s) = Lambda H; the rule holds above it."""
    r, c, s, lam = certs.r, certs.c, certs.s, certs.kaplan_lambda
    if s == 0.0:
        return (lam / (CONE_THETA * c)) ** (1.0 / (r - 1.0))
    gap = lambda x: CONE_THETA * (c * math.exp(r * x) - s) - lam * math.exp(x)
    return math.exp(brentq(gap, 0.0, 700.0 / r))


@_cone_settings
@given(p=_EXPONENT, q=_EXPONENT, name=st.sampled_from(sorted(_CONE_GRIDS)))
def test_kaplan_bound_brackets_the_operator(p, q, name):
    """A phi <= Lambda phi nodewise, omega is a probability weight, Lambda >= mu.

    Lambda is the largest quotient (A phi)_i / phi_i, so the product
    Lambda phi_i may round one ulp below (A phi)_i at that node; CONE_THETA
    leaves the rule a margin far above that.
    """
    _, A, certs = _cone_problem(p, q, name)
    phi = A.principal_vector
    assert np.all(A.apply(phi) <= certs.kaplan_lambda * phi * (1 + 2 * np.finfo(float).eps))
    assert np.all(certs.omega > 0)
    assert math.fsum(certs.omega) == pytest.approx(1.0, abs=1e-14)
    assert certs.kaplan_lambda >= certs.mu > 0
    assert (certs.r, certs.c, certs.s) == (min(p, q), 2.0 ** (1.0 - min(p, q)), float(p != q))


@settings(max_examples=8, deadline=None, derandomize=True)
@given(p=_EXPONENT, q=_EXPONENT, name=st.sampled_from(sorted(_CONE_GRIDS)),
       seed=st.integers(0, 2**32 - 1), excess=st.floats(1e-6, 1.0))
@example(p=3.0, q=3.0, name="disk", seed=0, excess=1e-6)
@example(p=3.0, q=2.0, name="robin", seed=0, excess=1e-6)
def test_data_meeting_kaplan_rule_blows_up(p, q, name, seed, excess):
    """Random data whose mass passes Kaplan's bound blows up by the sup-norm rule.

    The run is given no certificates.  Its mass H = omega . (u + v) never
    decreases, and the bound of the first state is an upper bound on the
    time at which the run stopped.
    """
    spec, A, certs = _cone_problem(p, q, name)
    rng = np.random.default_rng(seed)
    m = A.grid.size
    u, v = rng.uniform(size=m), rng.uniform(size=m)
    scale = _kaplan_root(certs) * (1.0 + excess) / float(certs.omega @ (u + v))
    initial = FieldPair(scale * u, scale * v, A.grid)
    rest = certs.kaplan_time(initial)
    assert rest is not None

    masses = [_kaplan_mass(certs, initial)]

    def traced_step(*args, **kwargs):
        new = step(*args, **kwargs)
        masses.append(_kaplan_mass(certs, new))
        return new

    with mock.patch("thresholdlab.parabolic.step", traced_step):
        outcome, _ = evolve(spec, A, initial, IntegratorConfig(dt0=DT_MAX))
    assert (outcome.kind, outcome.rule) == ("blowup", "sup")
    assert np.all(np.diff(masses) >= 0.0)
    assert outcome.t_end <= rest


@_cone_settings
@given(p=_EXPONENT, q=_EXPONENT, name=st.sampled_from(sorted(_CONE_GRIDS)),
       alpha=st.floats(0.0, 1.0, exclude_max=True))
@example(p=3.5, q=1.5, name="robin", alpha=1.0 - 1e-12)
def test_data_below_equilibrium_never_meets_kaplan_rule(p, q, name, alpha):
    """alpha (U, V) with alpha < 1 lies below Kaplan's bound.

    A U = V^p gives <V^p>_omega = <A U>_omega <= Lambda F_U, and likewise
    for U^q, so c H^r - s <= alpha Lambda H at every alpha < 1.
    """
    spec, A, certs = _cone_problem(p, q, name)
    eq = solve_newton(spec, A)
    U, V = eq.pair.u, eq.pair.v
    lam = certs.kaplan_lambda
    assert certs.omega @ V**p <= lam * (certs.omega @ U) * (1 + 1e-9)
    assert certs.omega @ U**q <= lam * (certs.omega @ V) * (1 + 1e-9)
    assert certs.kaplan_time(eq.pair.scaled(alpha)) is None
