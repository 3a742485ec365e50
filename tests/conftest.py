import numpy as np
import pytest

from thresholdlab import (
    BoundarySpec,
    ExponentPair,
    FieldPair,
    ForcingSpec,
    ProblemSpec,
    RadialBall,
    build_grid,
    build_laplacian,
    shooting_oracle,
    solve_monotone,
    solve_newton,
)
from thresholdlab.elliptic import lambda_star


def disk_spec(p=3.0, q=3.0, lam=0.0, beta=None):
    boundary = BoundarySpec.robin(beta) if beta is not None else BoundarySpec.dirichlet()
    forcing = ForcingSpec.constant(lam) if lam > 0 else ForcingSpec.none()
    return ProblemSpec(ExponentPair(p, q), RadialBall(2, 1.0), boundary, forcing)


def assert_passed(checks):
    """Fail with the line of every failing check: its name, measured value and detail."""
    failed = [c.line() for c in checks if not c.passed]
    assert not failed, "\n".join(failed)


_operator_cache = {}


def disk_operator(resolution, beta=None):
    key = (resolution, beta)
    if key not in _operator_cache:
        boundary = BoundarySpec.robin(beta) if beta is not None else BoundarySpec.dirichlet()
        grid = build_grid(RadialBall(2, 1.0), boundary, resolution)
        _operator_cache[key] = build_laplacian(grid)
    return _operator_cache[key]


@pytest.fixture(scope="session")
def spec3():
    return disk_spec(3.0, 3.0)


@pytest.fixture(scope="session")
def oracle3():
    return shooting_oracle(ExponentPair(3.0, 3.0), 2, BoundarySpec.dirichlet())


@pytest.fixture(scope="session")
def eq3_128(spec3):
    return disk_operator(128), solve_newton(spec3, disk_operator(128))


@pytest.fixture(scope="session")
def eq3_512(spec3):
    return disk_operator(512), solve_newton(spec3, disk_operator(512))


@pytest.fixture(scope="session")
def forced2_family():
    """Forced disk problem p=q=2, f=g=1: extremal-scale bracket plus the
    minimal and second solutions at half the lower bracket end (n=256).

    ``second`` is None if the deflated solve fails to find it; criterion 7
    then fails and the other dependent tests skip rather than error."""
    from thresholdlab.elliptic import EllipticError

    A = disk_operator(256)
    template = disk_spec(2.0, 2.0, lam=1.0)
    ls = lambda_star(template, A, (0.001, 1000.0), rel_tol=0.05)
    lam = 0.5 * ls.bracket[0]
    spec_low = template.with_lam(lam)
    minimal = solve_monotone(spec_low, A).equilibrium(spec_low)
    homog = solve_newton(spec_low.with_lam(0.0), A)
    seed = FieldPair(
        homog.pair.u + minimal.pair.u, homog.pair.v + minimal.pair.v, A.grid
    )
    try:
        second = solve_newton(spec_low, A, initial_guess=seed, deflation_against=[minimal])
    except EllipticError:
        second = None
    return {
        "A": A,
        "template": template,
        "lambda_star": ls,
        "lam": lam,
        "spec_low": spec_low,
        "minimal": minimal,
        "second": second,
        "homog": homog,
    }


@pytest.fixture(scope="session")
def robin3():
    beta = 1.0
    spec = disk_spec(3.0, 3.0, beta=beta)
    A = disk_operator(512, beta=beta)
    oracle = shooting_oracle(spec.exponents, 2, spec.boundary)
    eq = solve_newton(spec, A, initial_guess=oracle.to_pair(A.grid))
    return {"spec": spec, "A": A, "oracle": oracle, "eq": eq}


@pytest.fixture
def rng():
    return np.random.default_rng(1234)
