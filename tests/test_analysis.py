import math

import numpy as np
import pytest

from thresholdlab import (
    ExponentPair,
    FieldPair,
    blowup_bound_constant,
    dphi_identity_residual,
    energy,
    energy_monotonicity_violation,
    evolve,
    power_integral,
    power_sum_bound,
    product_integral,
    solution_pair_identity,
)
from thresholdlab.analysis import NotEquilibriumError
from thresholdlab.discrete import integrate
from thresholdlab.lab.verify import energy_descent_check, power_sum_checks
from thresholdlab.parabolic import IntegratorConfig

from conftest import assert_passed, disk_operator


class TestProductIntegral:
    def test_zero(self):
        A = disk_operator(64)
        assert product_integral(A.grid, FieldPair.zeros(A.grid)) == 0.0

    def test_ones_give_disk_area(self):
        A = disk_operator(256)
        ones = FieldPair(np.ones(A.grid.size), np.ones(A.grid.size), A.grid)
        assert product_integral(A.grid, ones) == pytest.approx(math.pi, rel=1e-6)

    def test_parabola_refinement(self):
        # integral of (1-r^2)^2 over the unit disk is pi/3
        errs = []
        for n in (128, 256):
            A = disk_operator(n)
            parab = 1 - A.grid.coords**2
            pair = FieldPair(parab, parab.copy(), A.grid)
            errs.append(abs(product_integral(A.grid, pair) - math.pi / 3))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)


class TestEnergy:
    def test_zero(self, spec3):
        A = disk_operator(64)
        assert energy(A.grid, A, FieldPair.zeros(A.grid), spec3.exponents) == 0.0

    def test_equilibrium_internal_consistency(self, eq3_128, spec3):
        # at a steady state <A U, V> = int V^(p+1) = int U^(q+1), so the
        # energy collapses to (p/(p+1)) int V^(p+1) - 1/(q+1) int U^(q+1)
        A, eq = eq3_128
        grid = A.grid
        p, q = spec3.p, spec3.q
        cross = A.quadratic_form(eq.pair.u, eq.pair.v)
        int_vp1 = integrate(grid, eq.pair.v ** (p + 1))
        int_uq1 = integrate(grid, eq.pair.u ** (q + 1))
        scale = abs(cross)
        assert abs(cross - int_vp1) <= 1e-6 * scale
        assert abs(cross - int_uq1) <= 1e-6 * scale
        expected = (p / (p + 1)) * int_vp1 - int_uq1 / (q + 1)
        assert energy(grid, A, eq.pair, spec3.exponents) == pytest.approx(expected, rel=1e-9)


class TestPowerIntegral:
    def test_zero(self, spec3):
        A = disk_operator(64)
        assert power_integral(A.grid, FieldPair.zeros(A.grid), spec3.exponents) == 0.0

    def test_constant_fields(self, spec3):
        A = disk_operator(256)
        ones = FieldPair(np.ones(A.grid.size), np.ones(A.grid.size), A.grid)
        assert power_integral(A.grid, ones, spec3.exponents) == pytest.approx(
            2 * math.pi, rel=1e-6
        )

    def test_increasing_along_blowup(self, eq3_128, spec3):
        A, eq = eq3_128
        _, rec = evolve(spec3, A, eq.pair.scaled(1.5))
        assert np.all(np.diff(np.asarray(rec.bigT)) > 0)


class TestBlowupBoundConstant:
    def test_reference_value(self):
        # p = q = 3 on the unit disk: gamma = 2, K = (1/2) sqrt(2 pi), C = 1/pi
        c = blowup_bound_constant(ExponentPair(3, 3), math.pi)
        assert c == pytest.approx(1 / math.pi, rel=1e-14)

    def test_symmetric_simplification(self):
        # for p = q the constant reduces to c_min * ((gamma/(q+1)) * (2 vol)^(1-1/gamma))^(-gamma)
        for p, vol in ((2.0, math.pi), (3.0, 2.0), (4.5, 0.7)):
            gamma = (p + 1) ** 2 / (2 * p + 2)
            k = gamma / (p + 1) * (2 * vol) ** (1 - 1 / gamma)
            expected = (p - 1) / (p + 1) * k ** (-gamma)
            got = blowup_bound_constant(ExponentPair(p, p), vol)
            assert got == pytest.approx(expected, rel=1e-12)

    def test_positive(self, rng):
        for _ in range(100):
            p, q = rng.uniform(1.001, 8.0, 2)
            vol = rng.uniform(0.1, 10.0)
            assert blowup_bound_constant(ExponentPair(p, q), vol) > 0


class TestIdentityResidual:
    def test_stationary_trajectory(self, eq3_128, spec3):
        A, eq = eq3_128
        config = IntegratorConfig(t_max=0.05)
        _, rec = evolve(spec3, A, eq.pair, config)
        for k in range(len(rec)):
            assert dphi_identity_residual(rec, k) <= 1e-6

    def test_zero_state(self, spec3):
        A = disk_operator(64)
        _, rec = evolve(spec3, A, FieldPair.zeros(A.grid))
        assert dphi_identity_residual(rec, 0) == 0.0

    def test_residual_halves_with_dt(self, eq3_128, spec3):
        # checkpoint inside the dt0-capped phase of the blow-up run
        A, eq = eq3_128
        t_check = 0.005

        def residual_at(dt0):
            config = IntegratorConfig(dt0=dt0, t_max=2 * t_check)
            _, rec = evolve(spec3, A, eq.pair.scaled(1.5), config)
            rec.finalize()
            res = np.abs(rec.dphi_lhs - rec.dphi_rhs)
            return np.interp(t_check, np.asarray(rec.t), res)

        ratio = residual_at(1e-3) / residual_at(5e-4)
        assert ratio == pytest.approx(2.0, rel=0.3)

    def test_out_of_range(self, eq3_128, spec3):
        A, eq = eq3_128
        _, rec = evolve(spec3, A, eq.pair, IntegratorConfig(t_max=0.01))
        with pytest.raises(IndexError):
            dphi_identity_residual(rec, len(rec))


class TestEnergyMonotonicity:
    def test_stationary(self, eq3_128, spec3):
        A, eq = eq3_128
        _, rec = evolve(spec3, A, eq.pair, IntegratorConfig(t_max=0.05))
        assert energy_monotonicity_violation(rec) <= 1e-10 * max(1, abs(rec.energy[0]))

    def test_monotone_runs(self, eq3_128, spec3):
        A, eq = eq3_128
        for alpha, label in ((0.5, "decay"), (1.5, "blowup")):
            _, rec = evolve(spec3, A, eq.pair.scaled(alpha))
            assert_passed(energy_descent_check(rec, label, "n=128"))

    def test_needs_two_rows(self, spec3):
        A = disk_operator(64)
        _, rec = evolve(spec3, A, FieldPair.zeros(A.grid))
        with pytest.raises(ValueError):
            energy_monotonicity_violation(rec)


class TestPowerSumBound:
    def test_equality_at_diagonal(self):
        lhs, rhs, holds = power_sum_bound(1.0, 1.0, 0.5)
        assert holds and lhs == pytest.approx(2.0) and rhs == pytest.approx(2.0)
        assert abs(lhs - rhs) <= 1e-14 * rhs

    def test_specific_point(self):
        lhs, rhs, holds = power_sum_bound(4.0, 1.0, 0.5)
        assert holds
        assert lhs == pytest.approx(3.0)
        assert rhs == pytest.approx(math.sqrt(10.0))

    def test_random_sampling(self):
        assert_passed(power_sum_checks(42))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            power_sum_bound(-1.0, 1.0, 0.5)
        with pytest.raises(ValueError):
            power_sum_bound(1.0, 1.0, 1.0)


class TestSolutionPairIdentity:
    def test_identical_pairs_vanish(self, eq3_128, spec3):
        A, eq = eq3_128
        lhs, rhs, gap = solution_pair_identity(
            A.grid, A, eq.pair, eq.pair, spec3.exponents, steady_tol=1e-8
        )
        assert lhs == 0.0 and rhs == 0.0 and gap == 0.0

    def test_perturbed_pair_detected_with_signs(self, eq3_128, spec3):
        # ordered non-solutions: pair1 < pair2 forces lhs < 0 < rhs
        A, eq = eq3_128
        bumped = FieldPair(eq.pair.u + 0.1, eq.pair.v + 0.1, A.grid)
        lhs, rhs, gap = solution_pair_identity(
            A.grid, A, eq.pair, bumped, spec3.exponents, steady_tol=math.inf
        )
        assert gap > 1e-3
        assert lhs < 0 < rhs

    def test_equilibrium_precondition(self, eq3_128, spec3):
        A, eq = eq3_128
        junk = FieldPair(eq.pair.u + 0.1, eq.pair.v + 0.1, A.grid)
        with pytest.raises(NotEquilibriumError):
            solution_pair_identity(A.grid, A, eq.pair, junk, spec3.exponents)

    def test_shifted_negative_control(self, forced2_family):
        fam = forced2_family
        if fam["second"] is None:
            pytest.skip("second solution not found")
        A = fam["A"]
        shift = fam["minimal"].pair
        d1 = FieldPair(fam["second"].pair.u - shift.u, fam["second"].pair.v - shift.v, A.grid)
        d2 = FieldPair(d1.u + 0.1, d1.v + 0.1, A.grid)
        lhs, rhs, gap = solution_pair_identity(
            A.grid, A, d1, d2, fam["template"].exponents, shift=shift, steady_tol=math.inf
        )
        assert gap > 1e-3
        assert lhs > 0 > rhs  # shifted form flips the ordered-sign pattern


class TestTrajectoryRecord:
    def test_time_strictly_increasing(self, eq3_128, spec3):
        A, eq = eq3_128
        _, rec = evolve(spec3, A, eq.pair.scaled(1.5))
        assert np.all(np.diff(np.asarray(rec.t)) > 0)

    def test_csv_columns_present(self, eq3_128, spec3):
        A, eq = eq3_128
        _, rec = evolve(spec3, A, eq.pair.scaled(0.5), IntegratorConfig(t_max=0.01))
        arrays = rec.arrays()
        for name in ("t", "dt", "phi", "energy", "bigT", "sup_u", "sup_v",
                     "dphi_lhs", "dphi_rhs", "bound_rhs"):
            assert len(arrays[name]) == len(rec)
