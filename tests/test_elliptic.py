import math

import numpy as np
import pytest

from thresholdlab import (
    BoundarySpec,
    ExponentPair,
    FieldPair,
    integrate,
    residual,
    residual_norm,
    shooting_oracle,
    solution_pair_identity,
    solve_monotone,
    solve_newton,
)
from thresholdlab.elliptic import (
    InvalidBracketError,
    NonPositiveSolutionError,
    lambda_star,
    signed_power,
)

from conftest import disk_operator, disk_spec


class TestResidual:
    def test_zero_pair_unforced(self, spec3):
        A = disk_operator(64)
        r = residual(spec3, A, FieldPair.zeros(A.grid))
        np.testing.assert_array_equal(r.u, 0.0)
        np.testing.assert_array_equal(r.v, 0.0)

    def test_zero_pair_forced(self):
        spec = disk_spec(2.0, 2.0, lam=1.0)
        A = disk_operator(64)
        r = residual(spec, A, FieldPair.zeros(A.grid))
        np.testing.assert_allclose(r.u, -1.0)
        np.testing.assert_allclose(r.v, -1.0)

    def test_manufactured_solution(self, spec3):
        # choose forcing-free manufactured residual: for pair = (P, P) with
        # P = 1 - r^2 the exact steady defect is 4 - P^3; subtracting it
        # from the residual must leave O(h^2) at interior nodes
        errs = []
        for n in (64, 128):
            A = disk_operator(n)
            P = 1 - A.grid.coords**2
            pair = FieldPair(P, P.copy(), A.grid)
            r = residual(spec3, A, pair)
            defect = 4.0 - P**3
            errs.append(np.max(np.abs(r.u[:-1] - defect[:-1])))
        assert errs[0] <= 1e-9 and errs[1] <= 1e-9  # exact rows away from the boundary cell


class TestNewton:
    def test_zero_guess_flags_nonpositive(self, spec3):
        A = disk_operator(64)
        with pytest.raises(NonPositiveSolutionError):
            solve_newton(spec3, A, initial_guess=FieldPair.zeros(A.grid))

    def test_prescan_reaches_positive_equilibrium(self, eq3_128):
        A, eq = eq3_128
        assert eq.residual_norm <= 1e-10
        assert eq.pair.u.min() > 0 and eq.pair.v.min() > 0
        assert eq.method == "newton"

    def test_each_iterate_residual_evaluated_once(self, monkeypatch):
        # p = 3, q = 2 on the 512-node disk: 4 full steps, no halvings, so
        # one norm for the seed and one per accepted trial
        import thresholdlab.elliptic as el

        calls = []
        norm = el.residual_norm
        monkeypatch.setattr(el, "residual_norm", lambda *a: calls.append(1) or norm(*a))
        eq = el.solve_newton(disk_spec(3.0, 2.0), disk_operator(512))
        assert eq.residual_norm <= 1e-10
        assert len(calls) == 5

    def test_symmetric_exponents_give_symmetric_pair(self, eq3_128):
        _, eq = eq3_128
        np.testing.assert_allclose(eq.pair.u, eq.pair.v, rtol=1e-8)

    def test_matches_shooting_oracle(self, eq3_128, oracle3):
        A, eq = eq3_128
        ref = oracle3.to_pair(A.grid)
        gap = np.max(np.abs(eq.pair.u - ref.u)) / oracle3.sup_u
        assert gap <= 1e-3

    def test_scaled_pair_is_strict_supersolution(self, eq3_128, spec3):
        # alpha*(U,V) with alpha < 1: A(alpha U) - (alpha V)^p > 0 nodewise
        A, eq = eq3_128
        for alpha in (0.3, 0.5, 0.9):
            s = A.apply(alpha * eq.pair.u) - signed_power(alpha * eq.pair.v, spec3.p)
            assert s.min() > 0

    def test_scaled_pair_is_strict_subsolution(self, eq3_128, spec3):
        A, eq = eq3_128
        for beta in (1.1, 1.5, 2.0):
            s = A.apply(beta * eq.pair.u) - signed_power(beta * eq.pair.v, spec3.p)
            assert s.max() < 0


class TestMonotone:
    def test_unforced_zero_start_is_trivial(self, spec3):
        A = disk_operator(64)
        res = solve_monotone(spec3, A)
        assert res.converged
        assert res.iterations == 0
        assert res.pair.sup == 0.0

    def test_small_lambda_converges_to_minimal(self):
        spec = disk_spec(2.0, 2.0, lam=1e-3)
        A = disk_operator(64)
        res = solve_monotone(spec, A)
        assert res.converged
        eq = res.equilibrium(spec)
        assert eq.pair.u.min() > 0
        assert eq.residual_norm <= 1e-10
        # limit scales like lam*(principal solve) for tiny lam
        assert eq.pair.sup < 1e-2

    def test_large_lambda_diverges(self):
        spec = disk_spec(2.0, 2.0, lam=1e3)
        A = disk_operator(64)
        assert solve_monotone(spec, A).status == "diverged"

    def test_iterates_nondecreasing(self):
        # per-iterate monotonicity is asserted inside; convergence without
        # MonotonicityError plus a growing sup history is the check
        spec = disk_spec(2.0, 2.0, lam=2.0)
        A = disk_operator(64)
        res = solve_monotone(spec, A)
        assert res.converged
        assert np.all(np.diff(res.sup_history) >= -1e-12)

    def test_minimal_dominated_by_newton_solution(self, forced2_family):
        fam = forced2_family
        if fam["second"] is None:
            pytest.skip("second solution not found")
        gap_u = np.min(fam["second"].pair.u - fam["minimal"].pair.u)
        gap_v = np.min(fam["second"].pair.v - fam["minimal"].pair.v)
        assert gap_u >= -1e-10 * fam["second"].pair.sup
        assert gap_v >= -1e-10 * fam["second"].pair.sup


class TestSecondSolution:
    def test_distinct_from_minimal(self, forced2_family):
        fam = forced2_family
        if fam["second"] is None:
            pytest.skip("second solution not found")
        sup_gap = fam["second"].pair.sup_u - fam["minimal"].pair.sup_u
        assert sup_gap > 0.1 * fam["second"].pair.sup_u

    def test_residuals_certified(self, forced2_family):
        fam = forced2_family
        assert fam["minimal"].residual_norm <= 1e-10
        if fam["second"] is not None:
            assert fam["second"].residual_norm <= 1e-10

    def test_small_forcing_scale(self, forced2_family):
        # near-zero forcing: the second solution sits close to the unforced
        # equilibrium, well separated from the tiny minimal one
        fam = forced2_family
        A = fam["A"]
        lam = 0.01 * fam["lambda_star"].lambda_hat
        spec = fam["template"].with_lam(lam)
        minimal = solve_monotone(spec, A).equilibrium(spec)
        seed = FieldPair(
            fam["homog"].pair.u + minimal.pair.u,
            fam["homog"].pair.v + minimal.pair.v,
            A.grid,
        )
        second = solve_newton(spec, A, initial_guess=seed, deflation_against=[minimal])
        assert second.residual_norm <= 1e-10
        assert second.pair.sup_u > 10 * minimal.pair.sup_u
        shift = minimal.pair
        d = FieldPair(second.pair.u - shift.u, second.pair.v - shift.v, A.grid)
        _, _, gap = solution_pair_identity(
            A.grid, A, d, d, spec.exponents, shift=shift, steady_tol=1e-7
        )
        assert gap <= 1e-12


class TestLambdaStar:
    def test_bracket_width(self, forced2_family):
        lo, hi = forced2_family["lambda_star"].bracket
        assert (hi - lo) <= 0.05 * hi
        assert 0.001 < lo < hi < 1000.0

    def test_nested_brackets(self, forced2_family):
        fam = forced2_family
        wide = lambda_star(fam["template"], fam["A"], (0.001, 1000.0), rel_tol=0.5)
        lo, hi = fam["lambda_star"].bracket
        assert wide.bracket[0] <= lo and hi <= wide.bracket[1]

    def test_invalid_bracket(self, forced2_family):
        fam = forced2_family
        lo, hi = fam["lambda_star"].bracket
        with pytest.raises(InvalidBracketError):
            lambda_star(fam["template"], fam["A"], (2 * hi, 4 * hi), rel_tol=0.1)


class TestShooting:
    def test_symmetric_solution(self, oracle3):
        assert oracle3.center[0] == pytest.approx(oracle3.center[1])
        r = np.linspace(0, 1, 50)
        u, v = oracle3.profile(r)
        np.testing.assert_allclose(u, v, rtol=1e-12)
        assert oracle3.bc_residual <= 1e-10

    def test_boundary_value_vanishes(self, oracle3):
        u, v = oracle3.profile(np.array([1.0]))
        assert abs(u[0]) <= 1e-10 and abs(v[0]) <= 1e-10

    def test_grid_refinement_toward_oracle(self, spec3, oracle3):
        errs = []
        for n in (128, 256):
            A = disk_operator(n)
            eq = solve_newton(spec3, A)
            ref = oracle3.to_pair(A.grid)
            errs.append(np.max(np.abs(eq.pair.u - ref.u)) / oracle3.sup_u)
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.25)

    def test_robin_boundary_condition(self, robin3):
        oracle = robin3["oracle"]
        assert oracle.bc_residual <= 1e-10
        # U'(R) + beta U(R) = 0 checked from the dense profile
        r = np.array([1.0 - 1e-7, 1.0])
        u, _ = oracle.profile(r)
        du = (u[1] - u[0]) / 1e-7
        assert abs(du + 1.0 * u[1]) <= 1e-4

    def test_robin_newton_equilibrium(self, robin3):
        eq = robin3["eq"]
        assert eq.residual_norm <= 1e-10
        assert eq.pair.u.min() > 0

    def test_asymmetric_exponents(self):
        oracle = shooting_oracle(ExponentPair(2.0, 4.0), 2, BoundarySpec.dirichlet())
        assert oracle.bc_residual <= 1e-10
        assert oracle.center[0] > 0 and oracle.center[1] > 0
        assert not math.isclose(oracle.center[0], oracle.center[1])


class TestResidualNorm:
    def test_relative_normalisation(self, eq3_128, spec3):
        # scaling the fields changes the raw residual scale but the relative
        # norm of a non-solution stays O(1)
        A, eq = eq3_128
        bad = eq.pair.scaled(2.0)
        assert residual_norm(spec3, A, bad) > 1e-3

    def test_weighted_norm_used(self, eq3_128, spec3):
        A, eq = eq3_128
        r = residual(spec3, A, eq.pair)
        raw = math.sqrt(integrate(A.grid, r.u**2) + integrate(A.grid, r.v**2))
        assert raw / (1 + 0) >= residual_norm(spec3, A, eq.pair)  # scale >= 1
