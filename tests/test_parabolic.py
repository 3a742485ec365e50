import numpy as np
import pytest

from thresholdlab import (
    ExponentPair,
    FieldPair,
    IntegratorConfig,
    ProblemSpec,
    RadialBall,
    Rectangle,
    adapt_dt,
    build_grid,
    build_laplacian,
    evolve,
    evolve_ordered,
    step,
)
from thresholdlab.parabolic import NumericalFailureError

from conftest import disk_operator, disk_spec


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
        config = IntegratorConfig()
        assert adapt_dt(FieldPair.zeros(A.grid), spec3.exponents, config) == config.dt_max

    def test_saturation_at_dt_min(self, spec3):
        A = disk_operator(64)
        config = IntegratorConfig()
        p = spec3.p
        level = (config.eta / config.dt_min) ** (1 / (p - 1)) / p ** (1 / (p - 1))
        state = FieldPair(np.zeros(A.grid.size), np.full(A.grid.size, level), A.grid)
        assert adapt_dt(state, spec3.exponents, config) == pytest.approx(config.dt_min)

    def test_power_scaling(self, spec3):
        A = disk_operator(64)
        config = IntegratorConfig()
        one = FieldPair(np.full(A.grid.size, 40.0), np.full(A.grid.size, 40.0), A.grid)
        two = one.scaled(2.0)
        dt1 = adapt_dt(one, spec3.exponents, config)
        dt2 = adapt_dt(two, spec3.exponents, config)
        assert dt1 / dt2 == pytest.approx(4.0, rel=1e-12)  # p = 3 doubling shrinks dt 4x


class TestEvolve:
    def test_zero_initial_decays_immediately(self, spec3):
        A = disk_operator(64)
        outcome, record = evolve(spec3, A, FieldPair.zeros(A.grid))
        assert outcome.kind == "decay"
        assert outcome.t_end == 0.0
        assert len(record) == 1

    def test_subequilibrium_decays(self, eq3_128, spec3):
        A, eq = eq3_128
        outcome, record = evolve(spec3, A, eq.pair.scaled(0.5), squeeze_upper=eq.pair)
        assert outcome.kind == "decay"
        sup = np.maximum(np.asarray(record.sup_u), np.asarray(record.sup_v))
        assert sup[-1] <= 1e-8 * sup[0]
        assert np.all(np.diff(sup) <= 1e-12 * sup[0])  # sup-norm monotone down
        assert record.max_step_increase <= 1e-10 * eq.pair.sup
        assert record.squeeze_low >= -1e-12 * eq.pair.sup
        assert record.squeeze_high <= 1e-8 * eq.pair.sup

    def test_superequilibrium_blows_up(self, eq3_128, spec3):
        A, eq = eq3_128
        outcome, record = evolve(spec3, A, eq.pair.scaled(1.5))
        assert outcome.kind == "blowup"
        assert outcome.sup_at_stop >= 1e6
        assert 0 < outcome.t_est < 1.0
        assert record.max_step_decrease >= -1e-10 * eq.pair.sup

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

    @pytest.mark.parametrize(
        "domain, resolution", [(Rectangle(1.0, 1.0), 16), (RadialBall(2, 1.0), 64)]
    )
    def test_overflow_reported_as_numerical_failure(self, domain, resolution):
        spec = ProblemSpec(ExponentPair(3.0, 3.0), domain)
        A = build_laplacian(build_grid(domain, spec.boundary, resolution))
        low, high = (FieldPair(np.full(A.grid.size, c), np.full(A.grid.size, c), A.grid)
                     for c in (5e199, 1e200))
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalFailureError):
                evolve_ordered(spec, A, low, high)

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
            IntegratorConfig(dt0=1.0, dt_max=0.1)
        with pytest.raises(ValueError):
            IntegratorConfig(dt_min=0.0)

    def test_thresholds(self):
        with pytest.raises(ValueError):
            IntegratorConfig(m_blow=0.5)
        with pytest.raises(ValueError):
            IntegratorConfig(eps_decay=1.5)
        with pytest.raises(ValueError):
            IntegratorConfig(eta=1.0)
