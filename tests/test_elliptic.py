import math
import tracemalloc
import types

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from thresholdlab import (
    BoundarySpec,
    ExponentPair,
    FieldPair,
    ForcingSpec,
    ProblemSpec,
    RadialBall,
    Rectangle,
    build_grid,
    build_laplacian,
    integrate,
    residual,
    residual_norm,
    shooting_oracle,
    solution_pair_identity,
    solve_monotone,
    solve_newton,
)
from thresholdlab.discrete import solve_shifted
from thresholdlab.elliptic import (
    BC_TOL,
    DEFAULT_STEADY_TOL,
    KRYLOV_TOL,
    MONOTONE_CAP,
    NEWTON_HALVINGS,
    InvalidBracketError,
    MaxIterationsError,
    MonotonicityError,
    NonPositiveSolutionError,
    RootFindFailure,
    SingularJacobianError,
    _bc_rows,
    _bc_values,
    _escaped,
    _integrate_radial,
    _radial_rhs,
    _series_start,
    _too_large,
    forcing_arrays,
    lambda_star,
    signed_power,
)
from thresholdlab.lab.verify import convergence_checks, equilibrium_checks

from conftest import assert_passed, disk_operator, disk_spec


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
        # after the pre-scan one evaluation for the seed and one per
        # accepted trial; the accepted trial's fields are the next right-hand side
        import thresholdlab.elliptic as el

        calls, scans = [], []
        evaluate, prescan = el._steady_residual, el._amplitude_prescan

        def counted_prescan(*args):
            scans.append(1)
            seed = prescan(*args)
            calls.clear()
            return seed

        monkeypatch.setattr(el, "_steady_residual", lambda *a: calls.append(1) or evaluate(*a))
        monkeypatch.setattr(el, "_amplitude_prescan", counted_prescan)
        eq = el.solve_newton(disk_spec(3.0, 2.0), disk_operator(512))
        assert eq.residual_norm <= 1e-10
        assert len(scans) == 1
        assert len(calls) == 5

    def test_prescan_seed_converges_on_the_ball(self):
        # from this seed the relative residual, which falls as the amplitude
        # grows, would accept a halved overshoot (centre 11.6 against 6.1)
        import thresholdlab.elliptic as el

        spec = ProblemSpec(ExponentPair(3.5, 3.5), RadialBall(3, 1.0))
        A = build_laplacian(build_grid(spec.domain, spec.boundary, 64))
        shape = A.principal_vector
        lam1 = A.quadratic_form(shape, shape) / integrate(A.grid, shape**2)
        eq = el._newton(spec, A, el._amplitude_prescan(spec, A, shape, lam1), [])
        assert eq.residual_norm <= 1e-10
        assert eq.pair.u.min() > 0 and eq.pair.v.min() > 0

    def test_iteration_cap_reports_iterations_taken(self, monkeypatch):
        import thresholdlab.elliptic as el

        monkeypatch.setattr(el, "NEWTON_CAP", 2)   # this solve needs 4 iterations
        with pytest.raises(MaxIterationsError, match="in 2 iterations: iteration cap reached"):
            solve_newton(disk_spec(3.0, 2.0), disk_operator(512))

    def test_stalled_line_search_reports_iterations_taken(self, monkeypatch):
        import thresholdlab.elliptic as el

        monkeypatch.setattr(el, "NEWTON_HALVINGS", 0)   # no trial step at all
        with pytest.raises(MaxIterationsError, match="in 1 iterations: line search found no"):
            solve_newton(disk_spec(3.0, 2.0), disk_operator(512))

    def test_symmetric_exponents_give_symmetric_pair(self, eq3_128):
        _, eq = eq3_128
        np.testing.assert_allclose(eq.pair.u, eq.pair.v, rtol=1e-8)

    def test_matches_shooting_oracle(self, eq3_128, oracle3):
        assert_passed(equilibrium_checks(eq3_128[1], oracle3, "n=128"))

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
        # per-iterate monotonicity is asserted inside: convergence without
        # MonotonicityError is the check (test_decreasing_iterate_raises is
        # its negative control)
        spec = disk_spec(2.0, 2.0, lam=2.0)
        A = disk_operator(64)
        res = solve_monotone(spec, A)
        assert res.converged

    def test_decreasing_iterate_raises(self, monkeypatch):
        # one node of the third iterate drops below the second
        import thresholdlab.elliptic as el

        calls = []

        def dropping_solve(A, sigma, b):
            x = solve_shifted(A, sigma, b)
            calls.append(1)
            if len(calls) == 3:
                x[0, 0] = 0.0
            return x

        monkeypatch.setattr(el, "solve_shifted", dropping_solve)
        with pytest.raises(MonotonicityError, match="iterate decreased at step 3"):
            solve_monotone(disk_spec(2.0, 2.0, lam=2.0), disk_operator(64))

    def test_iterations_near_the_fold(self):
        # 24² square, (p, q) = (1.5, 3): lambda* lies in (58.106, 58.595), so
        # lambda_hat = 58.35.  The unshifted iteration takes 262 steps at
        # lambda = 58.1; the shifted one it replaced took 1883.
        square = Rectangle(1.0, 1.0)
        spec = ProblemSpec(ExponentPair(1.5, 3.0), square, BoundarySpec.dirichlet(),
                           ForcingSpec.constant(58.1))
        A = build_laplacian(build_grid(square, BoundarySpec.dirichlet(), 24))
        res = solve_monotone(spec, A)
        assert res.converged
        assert res.iterations <= 400

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

    def test_probe_just_below_the_fold_is_solvable(self):
        # this grid's discrete fold lies in (7.1989000803, 7.1989000839): the
        # monotone climb is still slow at the cap, and Newton from its last
        # iterate admits the equilibrium that makes the probe solvable
        import thresholdlab.elliptic as el

        template, A, lam = disk_spec(2.0, 2.0, lam=1.0), disk_operator(16), 7.1988993
        assert solve_monotone(template.with_lam(lam), A).status == "capped"
        assert el._solvable_probe(template, A, lam)

    def test_tolerance_below_float_resolution_ends(self, monkeypatch):
        # a relative tolerance no bracket can meet: bisection stops once the
        # ends are adjacent floats instead of probing their midpoint forever
        import thresholdlab.elliptic as el

        edge, calls = 4.482540002847047, []

        def probe(spec, A, lam):
            calls.append(lam)
            if len(calls) > 500:
                raise AssertionError("bisection did not stop")
            return lam < edge

        monkeypatch.setattr(el, "_solvable_probe", probe)
        result = lambda_star(disk_spec(lam=1.0), disk_operator(16), (0.001, 1000.0), 1e-300)
        lo, hi = result.bracket
        assert lo < edge <= hi and np.nextafter(lo, math.inf) == hi


def _assert_symmetric(oracle):
    """For p = q the maximum principle forces u = v: the oracle keeps it bitwise."""
    assert oracle.center[0] == oracle.center[1]
    u, v = oracle.profile(np.linspace(0, 1, 50))
    np.testing.assert_array_equal(u, v)
    assert oracle.bc_residual <= 1e-10


class TestShooting:
    def test_symmetric_solution(self, oracle3):
        _assert_symmetric(oracle3)

    def test_symmetric_solution_on_the_ball(self):
        # a centre off the diagonal by one rounding parts the 3-ball's
        # profiles by a fifth of v near r = 1
        _assert_symmetric(shooting_oracle(ExponentPair(3.0, 3.0), 3, BoundarySpec.dirichlet()))

    def test_boundary_value_vanishes(self, oracle3):
        u, v = oracle3.profile(np.array([1.0]))
        assert abs(u[0]) <= 1e-10 and abs(v[0]) <= 1e-10

    def test_grid_refinement_toward_oracle(self, spec3, oracle3):
        checks, errs = [], []
        for n in (128, 256):
            checks += equilibrium_checks(solve_newton(spec3, disk_operator(n)), oracle3, f"n={n}")
            errs.append(checks[-1].value)
        assert_passed(checks + convergence_checks("equilibrium", (128, 256), errs))

    def test_robin_boundary_condition(self, robin3):
        oracle = robin3["oracle"]
        assert oracle.bc_residual <= 1e-10
        # U'(R) + beta U(R) = 0 checked from the profile
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

    def test_overflowing_trajectory_counts_as_escaping(self):
        # a 342-dimensional ball of radius 6 builds a grid, but its shooting
        # trajectories leave the float range: under the suite's
        # error::RuntimeWarning filter this call used to raise
        sol = _integrate_radial(1e50, 1e50, 342, 3.0, 3.0, 6.0, [6.0])
        assert _bc_values(sol, BoundarySpec.dirichlet(), 6.0) == (-1e12, -1e12)
        sol = _integrate_radial(1e200, 1e200, 2, 3.0, 3.0, 1.0, [1.0])   # non-finite start
        assert _bc_values(sol, BoundarySpec.dirichlet(), 1.0) == (-1e12, -1e12)

    @pytest.mark.parametrize("variational", [False, True])
    @pytest.mark.parametrize("center, sign", [(1e200, -1.0), (-1e200, 1.0)])
    def test_start_outside_float_range_is_escaped(self, center, sign, variational):
        # the trajectory never starts: it ends at r0 with the series start,
        # whose escaping sign the defect keeps
        sol = _integrate_radial(center, center, 2, 3.0, 3.0, 1.0, [1.0], variational=variational)
        assert sol[0] == 1e-8 and _escaped(sol, 1.0)
        for boundary in (BoundarySpec.dirichlet(), BoundarySpec.robin(1.0)):
            assert _bc_values(sol, boundary, 1.0) == (sign * 1e12, sign * 1e12)

    def test_escaping_defect_fails_the_oracle(self, monkeypatch):
        # a defect that only ever escapes gives Newton no step to take
        import thresholdlab.elliptic as el

        monkeypatch.setattr(el, "_coarse_center", lambda *args: (1e50, 1e50))
        with pytest.raises(RootFindFailure):
            shooting_oracle(ExponentPair(3.0, 3.0), 2, BoundarySpec.dirichlet())

        # a seed that integrates, but every Newton trial escapes: the step
        # halves NEWTON_HALVINGS times, then the oracle gives up
        calls = []
        integrate = el._integrate_radial

        def escape_after_seed(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                return integrate(*args, **kwargs)
            return integrate(1e200, 1e200, *args[2:], **kwargs)

        monkeypatch.setattr(el, "_coarse_center", lambda *args: (5.0, 5.0))
        monkeypatch.setattr(el, "_integrate_radial", escape_after_seed)
        with pytest.raises(RootFindFailure):
            shooting_oracle(ExponentPair(3.0, 3.0), 2, BoundarySpec.dirichlet())
        assert len(calls) == 1 + NEWTON_HALVINGS

    @pytest.mark.parametrize("p, q", [(3.3, 3.5), (3.5, 3.3), (3.5, 3.5)])
    def test_large_exponents_on_the_ball(self, p, q):
        # the oracle's 96-node seed solve reaches these corner pairs only with
        # the raw residual norm as Newton's merit
        oracle = shooting_oracle(ExponentPair(p, q), 3, BoundarySpec.dirichlet())
        assert oracle.bc_residual <= BC_TOL
        A = build_laplacian(build_grid(RadialBall(3, 1.0), BoundarySpec.dirichlet(), 512))
        eq = solve_newton(ProblemSpec(ExponentPair(p, q), RadialBall(3, 1.0)), A)
        ref = oracle.to_pair(A.grid)
        assert np.max(np.abs(eq.pair.u - ref.u)) / oracle.sup_u <= 1e-4
        assert np.max(np.abs(eq.pair.v - ref.v)) / oracle.sup_v <= 1e-4

    # perfbench's steady-sweep pairs at seed 0 (disk, then 3-ball)
    SWEEP_PAIRS = [
        (2, 2.913, 1.638), (2, 1.968, 2.186), (2, 1.974, 1.738), (2, 3.105, 3.216),
        (3, 3.264, 2.736), (3, 1.596, 1.813), (3, 3.021, 2.615), (3, 1.633, 2.355),
    ]

    @pytest.mark.parametrize("n_dim, p, q", SWEEP_PAIRS)
    def test_few_integrations_per_call(self, monkeypatch, n_dim, p, q):
        # the seed shot and two or three Newton iterations, all variational;
        # the boundary defect is read from the run at the returned centre:
        # the last of them, or one more shot when Newton stops on its step
        import thresholdlab.elliptic as el

        calls = []
        integrate = el._integrate_radial

        def counted(a, b, *args, variational=False):
            calls.append(((float(a), float(b)), variational))
            return integrate(a, b, *args, variational=variational)

        monkeypatch.setattr(el, "_integrate_radial", counted)
        oracle = shooting_oracle(ExponentPair(p, q), n_dim, BoundarySpec.dirichlet())
        assert oracle.bc_residual <= BC_TOL
        assert len(calls) <= 6
        assert all(variational for _, variational in calls)
        assert [center for center, _ in calls].count(oracle.center) == 1

    @pytest.mark.parametrize("n_dim, p, q", SWEEP_PAIRS)
    def test_compiled_route_matches_solve_ivp(self, monkeypatch, n_dim, p, q):
        import thresholdlab.elliptic as el

        exponents, boundary = ExponentPair(p, q), BoundarySpec.dirichlet()
        oracle = shooting_oracle(exponents, n_dim, boundary)
        a, b = oracle.center
        r0 = 1e-8
        reference = _solve_ivp_endpoint(_radial_rhs(n_dim, p, q),
                                        _series_start(a, b, n_dim, p, q, r0), r0, 1.0).y[:, -1]
        for variational in (True, False):
            compiled = _integrate_radial(a, b, n_dim, p, q, 1.0, [1.0],
                                         variational=variational)[1][-1]
            assert np.max(np.abs(compiled[:4] - reference)) <= 1e-11 * max(a, b)

        def solve_ivp_run(self, rhs, y0, r0, radii):
            (radius,) = radii           # the oracle reads endpoints only
            sol = _solve_ivp_endpoint(rhs, y0, r0, radius)
            return sol.t[-1], sol.y[:, -1:].T

        monkeypatch.setattr(el._CompiledDOP853, "run", solve_ivp_run)
        reference = shooting_oracle(exponents, n_dim, boundary)
        np.testing.assert_allclose(oracle.center, reference.center, rtol=1e-12, atol=0)

    @pytest.mark.parametrize("resolution", [128, 512])
    @pytest.mark.parametrize("n_dim, p, q, beta",
                             [(*pair, None) for pair in SWEEP_PAIRS] + [(2, 3.0, 3.0, 1.0)])
    def test_profile_matches_the_dense_reference(self, n_dim, p, q, beta, resolution):
        boundary = BoundarySpec.dirichlet() if beta is None else BoundarySpec.robin(beta)
        oracle = shooting_oracle(ExponentPair(p, q), n_dim, boundary)
        r = build_grid(RadialBall(n_dim, 1.0), boundary, resolution).coords
        u, v = oracle.profile(r)
        ref_u, ref_v = _dense_profile(oracle, r)
        tol = 1e-11 * max(oracle.center)
        assert np.max(np.abs(u - ref_u)) <= tol and np.max(np.abs(v - ref_v)) <= tol
        if p == q:
            _assert_symmetric(oracle)

    def test_profile_takes_radii_in_any_order(self, oracle3, rng):
        # steps over the sorted distinct radii and scatters back: repeats
        # and radii at or below r0 neither stall nor fail the run
        r = np.concatenate([[0.0, 0.0, 1e-8, 5e-9, 1.0, 1.0], np.linspace(0, 1, 33)])
        shuffled = rng.permutation(r)
        u, v = oracle3.profile(shuffled)
        order = np.argsort(shuffled, kind="stable")
        su, sv = oracle3.profile(shuffled[order])
        np.testing.assert_array_equal(u[order], su)
        np.testing.assert_array_equal(v[order], sv)
        at_zero = shuffled == 0.0
        assert np.all(u[at_zero] == oracle3.center[0]) and np.all(v[at_zero] == oracle3.center[1])
        u, v = oracle3.profile(np.array([0.0]))
        assert (u[0], v[0]) == oracle3.center

    def test_profile_node_out_of_reach_fails_by_name(self):
        # a centre whose trajectory stops at the size event reaches no node
        # past it; the profile raises instead of reusing a state
        import thresholdlab.elliptic as el

        far = el.ShootingResult((1e7, 1e7), 0.0, 2, 1.0, ExponentPair(3.0, 3.0))
        with pytest.raises(RootFindFailure):
            far.profile(np.linspace(0, 1, 9))
        far = el.ShootingResult((1e200, 1e200), 0.0, 2, 1.0, ExponentPair(3.0, 3.0))
        with pytest.raises(RootFindFailure):
            far.profile(np.array([0.5]))
        u, _ = far.profile(np.array([0.0, 1e-9]))       # no node past r0: no run
        assert np.all(u == 1e200)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("center, n_dim, p, radius", [
        (1e50, 342, 3.0, 6.0),      # the grid builds; every trajectory overflows
        (1e160, 2, 1.5, 1.0),       # finite series start, overflow in the first step
    ])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_overflow_on_the_compiled_route_escapes(self, monkeypatch, capfd,
                                                     center, n_dim, p, radius, sign):
        import thresholdlab.elliptic as el

        overflows = []
        radial_rhs = el._radial_rhs

        def spied_rhs(*args):
            rhs = radial_rhs(*args)

            def f(r, y):
                try:
                    return rhs(r, y)
                except OverflowError:
                    overflows.append(r)
                    raise
            return f

        monkeypatch.setattr(el, "_radial_rhs", spied_rhs)
        a = sign * center
        sol = _integrate_radial(a, a, n_dim, p, p, radius, [radius], variational=True)
        assert overflows                    # the callback's overflow path ran
        assert _escaped(sol, radius)
        escaping = (-sign * 1e12, -sign * 1e12)
        for boundary in (BoundarySpec.dirichlet(), BoundarySpec.robin(1.0)):
            assert _bc_values(sol, boundary, radius) == escaping
        assert capfd.readouterr() == ("", "")

    @pytest.mark.filterwarnings("error")
    def test_size_event_is_a_crossing(self):
        # a start above 1e6 that stays above runs to the radius, as on the
        # solve_ivp reference
        r0 = 1e-13
        reference = _solve_ivp_endpoint(_radial_rhs(2, 1.5, 1.5),
                                        _series_start(2e6, 2e6, 2, 1.5, 1.5, r0), r0, 1e-5)
        assert reference.status == 0 and reference.t[-1] == 1e-5
        for variational in (True, False):
            sol = _integrate_radial(2e6, 2e6, 2, 1.5, 1.5, 1e-5, [1e-5], variational=variational)
            assert sol[0] == 1e-5 and not _escaped(sol, 1e-5)
        # one that falls through the level stops at the step that crosses it,
        # at or just past the reference's refined crossing
        r0 = 1e-8
        reference = _solve_ivp_endpoint(_radial_rhs(2, 3.0, 3.0),
                                        _series_start(1e7, 1e7, 2, 3.0, 3.0, r0), r0, 1.0)
        assert reference.status == 1
        for variational in (True, False):
            sol = _integrate_radial(1e7, 1e7, 2, 3.0, 3.0, 1.0, [1.0], variational=variational)
            assert reference.t[-1] <= sol[0] < 1.0 and _escaped(sol, 1.0)
            assert sol[1][-1][0] < 1e6 < reference.y[0, 0]

    def test_callback_exception_is_raised_after_the_run(self, monkeypatch, oracle3):
        # an exception other than overflow cannot cross the compiled callback;
        # it ends the run within a few dozen steps and is raised from it
        import thresholdlab.elliptic as el

        calls = []
        radial_rhs = el._radial_rhs

        def failing_rhs(*args):
            rhs = radial_rhs(*args)

            def f(r, y):
                calls.append(r)
                if len(calls) == 50:
                    raise ZeroDivisionError("in the callback")
                return rhs(r, y)
            return f

        a, b = oracle3.center
        r = np.linspace(0, 1, 64)
        expected = _integrate_radial(a, b, 2, 3.0, 3.0, 1.0, [1.0], variational=True)[1]
        expected_profile = oracle3.profile(r)
        monkeypatch.setattr(el, "_radial_rhs", failing_rhs)
        with pytest.raises(ZeroDivisionError, match="in the callback"):
            _integrate_radial(a, b, 2, 3.0, 3.0, 1.0, [1.0], variational=True)
        assert len(calls) == 50
        calls.clear()
        with pytest.raises(ZeroDivisionError, match="in the callback"):
            oracle3.profile(r)
        assert len(calls) == 50
        monkeypatch.undo()
        # the shared integrator runs on as before
        again = _integrate_radial(a, b, 2, 3.0, 3.0, 1.0, [1.0], variational=True)[1]
        np.testing.assert_array_equal(again, expected)
        np.testing.assert_array_equal(oracle3.profile(r), expected_profile)

    def test_compiled_runs_hold_no_memory(self, oracle3):
        # scipy's wrapper keeps every run's callbacks alive; a fresh integrator
        # per run held about 3 kB each, the shared one well under 0.3 kB, for
        # a shot and for a profile alike
        a, b = oracle3.center
        r = np.linspace(0, 1, 16)
        for run in (lambda: _integrate_radial(a, b, 2, 3.0, 3.0, 1.0, [1.0], variational=True),
                    lambda: oracle3.profile(r)):
            run()
            tracemalloc.start()
            try:
                before = tracemalloc.get_traced_memory()[0]
                for _ in range(100):
                    run()
                held = tracemalloc.get_traced_memory()[0] - before
            finally:
                tracemalloc.stop()
            assert held <= 100 * 300

    def test_profile_is_defined_on_the_radius_only(self, oracle3):
        for r in ([1.5, 3.0], [-0.5], [0.5, math.nan]):
            with pytest.raises(ValueError, match="defined on"):
                oracle3.profile(np.array(r))
        # the end up to rounding, as a Robin grid's last node may sit
        u, _ = oracle3.profile(np.array([0.0, np.nextafter(1.0, 2.0)]))
        assert u[0] == oracle3.center[0] and abs(u[1]) <= 1e-10

    def test_to_pair_refuses_another_radius(self, oracle3):
        grid = build_grid(RadialBall(2, 2.0), BoundarySpec.dirichlet(), 32)
        with pytest.raises(ValueError, match="differs from the shooting radius"):
            oracle3.to_pair(grid)

    def test_to_pair_refuses_another_dimension(self, oracle3):
        # the disk's profile on a 3-ball grid would be the wrong equilibrium:
        # the 3-ball's centre is 6.90, the disk's 3.57
        grid = build_grid(RadialBall(3, 1.0), BoundarySpec.dirichlet(), 64)
        with pytest.raises(ValueError, match="differs from the shooting dimension 2"):
            oracle3.to_pair(grid)


def _size_event(r, y):
    """_too_large as a terminal solve_ivp event; the compiled route needs no such flag."""
    return _too_large(r, y)


_size_event.terminal = True


def _solve_ivp_endpoint(rhs, y0, r0, radius, dense_output=False):
    """A shooting run on solve_ivp's DOP853: the reference for the compiled route."""
    return solve_ivp(rhs, (r0, radius), y0, method="DOP853", rtol=1e-12, atol=1e-12,
                     dense_output=dense_output, events=_size_event)


def _dense_profile(oracle, r):
    """(U, V) at ``r`` from the dense output of one solve_ivp run at the oracle's centre."""
    (a, b), n_dim = oracle.center, oracle.dimension
    p, q = oracle.exponents.p, oracle.exponents.q
    r0 = 1e-8 * oracle.radius
    sol = _solve_ivp_endpoint(_radial_rhs(n_dim, p, q), _series_start(a, b, n_dim, p, q, r0),
                              r0, oracle.radius, dense_output=True)
    y = sol.sol(np.maximum(r, r0))
    return np.where(r < r0, a, y[0]), np.where(r < r0, b, y[2])


def _radial_rhs_reference(n_dim, p, q, r, y):
    """The radial system and its variational equations written out one
    component at a time, on Python floats: the reference for _radial_rhs."""
    y = y.tolist()
    k = n_dim - 1
    u, du, v, dv = y[:4]
    out = [du, -math.copysign(abs(v) ** p, v) - k / r * du,
           dv, -math.copysign(abs(u) ** q, u) - k / r * dv]
    for j in range(4, len(y), 4):
        tu, tdu, tv, tdv = y[j:j + 4]
        out.append(tdu)
        out.append(-(p * abs(v) ** (p - 1)) * tv - k / r * tdu)
        out.append(tdv)
        out.append(-(q * abs(u) ** (q - 1)) * tu - k / r * tdv)
    return out


_RHS_ENTRIES = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0]),
                         st.floats(-10.0, 10.0), st.floats(-1e80, 1e80))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.sampled_from([2, 3, 10]), st.floats(1.1, 4.0), st.floats(1.1, 4.0), st.booleans(),
       st.floats(1e-8, 1.0), st.lists(_RHS_ENTRIES, min_size=12, max_size=12))
@example(3, 3.0, 3.0, True, 0.5, [0.0] * 12)
@example(2, 3.0, 2.0, False, 1e-8, [-1.0, 0.0, -0.0, 1e80] + [1e80, -1e80] * 4)
def test_radial_rhs_is_the_written_out_system(n_dim, p, q, same, r, state):
    # both closures equal the reference list for list, bitwise; a state
    # whose power leaves the float range raises OverflowError in both
    q = p if same else q
    y = np.array(state)
    for variational, y in ((False, y[:4]), (True, y)):
        rhs = _radial_rhs(n_dim, p, q, variational)
        try:
            expected = _radial_rhs_reference(n_dim, p, q, r, y)
        except OverflowError:
            with pytest.raises(OverflowError):
                rhs(r, y)
        else:
            assert rhs(r, y) == expected
            assert len(expected) == y.size


@pytest.mark.parametrize("variational", [False, True])
@pytest.mark.parametrize("n_dim, p, q", [(2, 3.0, 3.0), (10, 2.0, 3.5)])
def test_radial_rhs_overflow_raises(n_dim, p, q, variational):
    # abs(v) ** p leaves the float range: the closure raises as the
    # reference does, which _CompiledDOP853 turns into a failed step
    y = np.array([1.0, 0.0, -1e200, 0.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0])
    y = y if variational else y[:4]
    with pytest.raises(OverflowError):
        _radial_rhs_reference(n_dim, p, q, 0.5, y)
    with pytest.raises(OverflowError):
        _radial_rhs(n_dim, p, q, variational)(0.5, y)


_NEWTON_DOMAINS = {
    "disk": (RadialBall(2, 1.0), BoundarySpec.dirichlet(), 32),
    "ball": (RadialBall(3, 1.0), BoundarySpec.dirichlet(), 32),
    "square": (Rectangle(1.0, 1.0), BoundarySpec.dirichlet(), 16),
    "robin-disk": (RadialBall(2, 1.0), BoundarySpec.robin(1.0), 32),
}


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.floats(1.5, 3.5), st.floats(1.5, 3.5), st.sampled_from(sorted(_NEWTON_DOMAINS)))
@example(3.5, 3.5, "ball")
def test_unseeded_newton_property(p, q, name):
    """Newton from its own seed reaches the positive solution on every geometry."""
    domain, boundary, n = _NEWTON_DOMAINS[name]
    A = build_laplacian(build_grid(domain, boundary, n))
    eq = solve_newton(ProblemSpec(ExponentPair(p, q), domain, boundary), A)
    assert eq.residual_norm <= 1e-10
    assert eq.pair.u.min() > 0 and eq.pair.v.min() > 0


def _forced_principal_vector(A, iters=60):
    """Reference: inverse iteration for exactly ``iters`` solves, with no early stop."""
    x = np.ones(A.grid.size)
    for _ in range(iters):
        x = solve_shifted(A, 0.0, x)
        x /= np.max(np.abs(x))
    return x


def _loop_prescan(spec, A, shape, lam1):
    """Reference: the amplitude scan as 120 full steady-residual evaluations."""
    import thresholdlab.elliptic as el

    c_u, c_v = el._amplitudes(spec, lam1)
    best_t, best_val = None, math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for t in np.geomspace(1e-2, 1e2, 120):
            pair = FieldPair(t * c_u * shape, t * c_v * shape, A.grid)
            val = el._steady_residual(spec, A, pair)[1] / t
            if val < best_val:
                best_t, best_val = t, val
    if best_t is None:
        raise el.EllipticError("amplitude pre-scan found no finite residual")
    return FieldPair(best_t * c_u * shape, best_t * c_v * shape, A.grid)


#: Grids of the seed tests; the 16-node disk's inverse iteration reaches no fixed point within
#: 60 solves (rounding settles it into a period-3 cycle), so it runs to the cap.
_SEED_GRIDS = {
    "disk": (RadialBall(2, 1.0), BoundarySpec.dirichlet(), 512),
    "ball": (RadialBall(3, 1.0), BoundarySpec.dirichlet(), 64),
    "robin-disk": (RadialBall(2, 1.0), BoundarySpec.robin(1.0), 64),
    "rectangle": (Rectangle(2.0, 1.0), BoundarySpec.dirichlet(), (24, 12)),
    "disk-16": (RadialBall(2, 1.0), BoundarySpec.dirichlet(), 16),
}
_seed_operators = {}


def _seed_operator(name):
    if name not in _seed_operators:
        domain, boundary, n = _SEED_GRIDS[name]
        _seed_operators[name] = build_laplacian(build_grid(domain, boundary, n))
    return _seed_operators[name]


class TestNewtonSeed:
    # radial only: the rectangle's principal vector comes from its axes' eigenbases
    @pytest.mark.parametrize("name", sorted(n for n in _SEED_GRIDS if n != "rectangle"))
    def test_inverse_iteration_stops_at_its_fixed_point(self, name, monkeypatch):
        import thresholdlab.elliptic as el

        A = _seed_operator(name)
        calls = []
        monkeypatch.setattr(el, "solve_shifted", lambda *a: calls.append(1) or solve_shifted(*a))
        x = el._principal_eigenvector(A)
        np.testing.assert_array_equal(x, _forced_principal_vector(A))
        if name == "disk-16":   # no fixed point: the iteration runs to its cap
            assert len(calls) == 60
        else:
            assert len(calls) < 60

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.floats(1.2, 8.0), st.floats(1.2, 8.0), st.sampled_from([0.0, 0.5, 2.0]),
           st.sampled_from(sorted(_SEED_GRIDS)))
    @example(1.005, 1.005, 0.0, "disk")    # amplitudes near 1e152
    @example(1.005, 1.005, 2.0, "disk")
    def test_gram_prescan_is_the_residual_scan(self, p, q, lam, name):
        """The Gram-matrix scan picks the same amplitude as 120 residual evaluations."""
        import thresholdlab.elliptic as el

        domain, boundary, _ = _SEED_GRIDS[name]
        forcing = ForcingSpec.constant(lam) if lam > 0 else ForcingSpec.none()
        spec = ProblemSpec(ExponentPair(p, q), domain, boundary, forcing)
        A = _seed_operator(name)
        shape = A.principal_vector
        lam1 = A.quadratic_form(shape, shape) / integrate(A.grid, shape**2)
        seed, ref = (scan(spec, A, shape, lam1) for scan in (el._amplitude_prescan, _loop_prescan))
        np.testing.assert_array_equal(seed.u, ref.u)
        np.testing.assert_array_equal(seed.v, ref.v)

    def test_prescan_without_a_finite_residual_is_named(self):
        # lam f = 1e300 overflows the residual at every scan point
        import thresholdlab.elliptic as el

        spec = disk_spec(3.0, 3.0, lam=1e300)
        A = disk_operator(16)
        shape = A.principal_vector
        lam1 = A.quadratic_form(shape, shape) / integrate(A.grid, shape**2)
        for scan in (el._amplitude_prescan, _loop_prescan):
            with pytest.raises(el.EllipticError, match="amplitude pre-scan found no finite residual"):
                scan(spec, A, shape, lam1)


def _shifted_monotone(spec, A):
    """Reference: the iteration shifted by sigma = the largest reaction slope so far."""
    p, q = spec.p, spec.q
    f = forcing_arrays(spec, A.grid)
    u = v = np.zeros(A.grid.size)
    for k in range(1, MONOTONE_CAP + 1):
        sigma = max(p * v.max() ** (p - 1), q * u.max() ** (q - 1))
        rhs = np.column_stack([sigma * u + signed_power(v, p) + f,
                               sigma * v + signed_power(u, q) + f])
        u, v = solve_shifted(A, sigma, rhs).T
        if residual_norm(spec, A, FieldPair(u, v, A.grid)) <= DEFAULT_STEADY_TOL:
            return FieldPair(u, v, A.grid), k
    raise AssertionError("shifted reference iteration did not converge")


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(1.5, 3.0), st.floats(1.5, 3.0), st.floats(0.1, 0.9),
       st.sampled_from(sorted(_NEWTON_DOMAINS)))
def test_unshifted_monotone_matches_the_shifted_iteration(p, q, theta, name):
    """Below lambda*, the unshifted map reaches the shifted map's limit, never in more steps."""
    domain, boundary, n = _NEWTON_DOMAINS[name]
    A = build_laplacian(build_grid(domain, boundary, n))
    template = ProblemSpec(ExponentPair(p, q), domain, boundary, ForcingSpec.constant(1.0))
    lam_hat = lambda_star(template, A, (0.001, 1e4), rel_tol=0.05).lambda_hat
    spec = template.with_lam(theta * lam_hat)
    res = solve_monotone(spec, A)
    ref, ref_iterations = _shifted_monotone(spec, A)
    assert res.converged and res.iterations <= ref_iterations
    for x, y in ((res.pair.u, ref.u), (res.pair.v, ref.v)):
        assert np.max(np.abs(x - y)) <= 1e-9 * np.max(np.abs(y))


#: Grids of the Newton-step tests: 64-node radial grids and the 16² square.
_STEP_GRIDS = {name: (domain, boundary, 16 if name == "square" else 64)
               for name, (domain, boundary, _) in _NEWTON_DOMAINS.items()}


def _newton_system(p, q, name):
    """Newton's first linear system from the pre-scan seed: (A, sv, su, r) and J, dense."""
    import thresholdlab.elliptic as el

    domain, boundary, n = _STEP_GRIDS[name]
    spec = ProblemSpec(ExponentPair(p, q), domain, boundary)
    A = build_laplacian(build_grid(domain, boundary, n))
    shape = A.principal_vector
    lam1 = A.quadratic_form(shape, shape) / integrate(A.grid, shape**2)
    pair = el._amplitude_prescan(spec, A, shape, lam1)
    sv, su = p * pair.v ** (p - 1), q * pair.u ** (q - 1)
    dense = A.K.toarray() / A.grid.weights[:, None]
    J = np.block([[dense, -np.diag(sv)], [-np.diag(su), dense]])
    return A, sv, su, residual(spec, A, pair), J


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.floats(1.5, 3.5), st.floats(1.5, 3.5), st.sampled_from(["disk", "ball", "robin-disk"]))
def test_banded_newton_step_is_the_dense_solve(p, q, name):
    """On radial grids the interleaved banded solve is J's exact solve."""
    from thresholdlab.elliptic import _newton_step

    A, sv, su, r, J = _newton_system(p, q, name)
    du, dv = _newton_step(A, sv, su, r).T
    ref = np.linalg.solve(J, -np.concatenate([r.u, r.v]))
    step = np.concatenate([du, dv])
    assert np.linalg.norm(step - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=10, deadline=None, derandomize=True)
@given(st.floats(1.5, 3.5), st.floats(1.5, 3.5))
def test_krylov_newton_step_meets_its_tolerance(p, q):
    """On the rectangle the GMRES step's true residual, from J assembled, meets KRYLOV_TOL."""
    from thresholdlab.elliptic import _newton_step

    A, sv, su, r, J = _newton_system(p, q, "square")
    du, dv = _newton_step(A, sv, su, r).T
    rhs = np.concatenate([r.u, r.v])
    assert np.linalg.norm(J @ np.concatenate([du, dv]) + rhs) <= KRYLOV_TOL * np.linalg.norm(rhs)


class TestNewtonStepFailures:
    def test_singular_band_is_named(self, monkeypatch):
        import thresholdlab.elliptic as el

        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("singular matrix")

        monkeypatch.setattr(el, "solve_banded", singular)
        with pytest.raises(SingularJacobianError, match="singular Newton Jacobian"):
            solve_newton(disk_spec(3.0, 2.0), disk_operator(64))

    @pytest.mark.parametrize("name", ["disk", "square"])
    def test_non_finite_step_is_named(self, name):
        from thresholdlab.elliptic import _newton_step

        A, sv, su, r, _ = _newton_system(3.0, 2.0, name)
        with pytest.raises(SingularJacobianError):
            _newton_step(A, np.full_like(sv, np.nan), su, r)

    def test_unresolved_krylov_step_ends_by_name(self, monkeypatch, tmp_path, capsys):
        import thresholdlab.elliptic as el
        from thresholdlab.lab.cli import main

        A, sv, su, r, _ = _newton_system(3.0, 2.0, "square")
        monkeypatch.setattr(el, "KRYLOV_TOL", 1e-30)     # below the rounding floor
        with pytest.raises(SingularJacobianError, match="missed its tolerance"):
            el._newton_step(A, sv, su, r)
        assert main(["steady", "--geometry", "rect", "--resolution", "16",
                     "--out", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "GMRES Newton step missed its tolerance" in err and "Traceback" not in err


def _shooting_problems():
    boundary = st.one_of(
        st.just(BoundarySpec.dirichlet()),
        st.floats(0.5, 5.0).map(BoundarySpec.robin),
    )
    return st.tuples(st.floats(1.5, 3.5), st.floats(1.5, 3.5), st.sampled_from([2, 3]), boundary)


@settings(max_examples=24, deadline=None, derandomize=True)
@given(_shooting_problems())
def test_shooting_newton_property(problem):
    """The oracle converges, and its variational Jacobian is the defect's derivative."""
    p, q, n_dim, boundary = problem
    oracle = shooting_oracle(ExponentPair(p, q), n_dim, boundary)
    assert oracle.bc_residual <= BC_TOL
    a, b = oracle.center
    assert a > 0 and b > 0

    end = _integrate_radial(a, b, n_dim, p, q, 1.0, [1.0], variational=True)[1][-1]
    jac = np.column_stack([_bc_rows(end[4:8], boundary), _bc_rows(end[8:], boundary)])
    defect = lambda a, b: np.array(_bc_values(_integrate_radial(a, b, n_dim, p, q, 1.0, [1.0]),
                                              boundary, 1.0))
    h = 1e-5 * max(a, b)
    fd = np.column_stack([(defect(a + h, b) - defect(a - h, b)) / (2 * h),
                          (defect(a, b + h) - defect(a, b - h)) / (2 * h)])
    np.testing.assert_allclose(jac, fd, rtol=0, atol=1e-6 * np.max(np.abs(jac)))


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
