import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from thresholdlab import (
    BoundarySpec,
    FieldPair,
    RadialBall,
    Rectangle,
    build_grid,
    build_laplacian,
    integrate,
    interval_grid,
    solve_shifted,
)
from thresholdlab.discrete import DiscreteLaplacian, GridError, LinearSolveError

DIRICHLET = BoundarySpec.dirichlet()
DISK = RadialBall(2, 1.0)


def disk_operator(n, boundary=DIRICHLET):
    grid = build_grid(DISK, boundary, n)
    return grid, build_laplacian(grid)


def rect_operator(lx, ly, resolution):
    grid = build_grid(Rectangle(lx, ly), DIRICHLET, resolution)
    return grid, build_laplacian(grid)


def backward_error(A, sigma, x, rhs):
    """The normwise weighted backward error that solve_shifted guarantees."""
    w = A.grid.weights
    wnorm = lambda z: np.sqrt(w @ z**2)
    res = rhs - sigma * x - A.apply(x)
    op = sigma + 2.0 * np.max(A.K.diagonal() / w)
    denom = wnorm(rhs) + op * wnorm(x)
    return wnorm(res) / denom if denom > 0 else 0.0


class TestBuildGrid:
    def test_radial_weight_formula(self):
        grid = build_grid(DISK, DIRICHLET, 4)
        # node r = 0.5 carries sigma * r * h = 2*pi * 0.5 * 0.25
        i = np.argmin(np.abs(grid.coords - 0.5))
        assert grid.weights[i] == pytest.approx(math.pi / 4, rel=1e-14)

    def test_radial_volume(self):
        grid = build_grid(DISK, DIRICHLET, 512)
        h = grid.h[0]
        assert abs(grid.volume - math.pi) <= math.pi * h**2

    def test_radial_volume_n3(self):
        grid = build_grid(RadialBall(3, 1.0), DIRICHLET, 256)
        h = grid.h[0]
        assert abs(grid.volume - 4 * math.pi / 3) <= 4 * math.pi / 3 * h**2

    def test_robin_volume(self):
        grid = build_grid(DISK, BoundarySpec.robin(1.0), 256)
        h = grid.h[0]
        assert grid.size == 257
        assert abs(grid.volume - math.pi) <= math.pi * h**2

    def test_rectangle_interior_nodes(self):
        grid = build_grid(Rectangle(1.0, 1.0), DIRICHLET, (8, 8))
        assert grid.size == 49
        np.testing.assert_allclose(grid.weights, 1 / 64)

    def test_positive_weights(self):
        for grid in (
            build_grid(DISK, DIRICHLET, 64),
            build_grid(DISK, BoundarySpec.robin(2.0), 64),
            build_grid(Rectangle(1.0, 2.0), DIRICHLET, (8, 16)),
            interval_grid(1.0, 16),
        ):
            assert np.all(grid.weights > 0)

    def test_resolution_too_small(self):
        with pytest.raises(GridError):
            build_grid(DISK, DIRICHLET, 3)

    def test_rectangle_robin_unsupported(self):
        with pytest.raises(GridError):
            build_grid(Rectangle(1.0, 1.0), BoundarySpec.robin(1.0), 8)

    @pytest.mark.parametrize("dim", [200, 340, 341, 400])
    def test_dimension_out_of_float_range(self, dim):
        # the inner shell volumes underflow to 0; at 400 the sphere area overflows
        with pytest.raises(GridError, match=f"dimension {dim}"):
            build_grid(RadialBall(dim, 1.0), DIRICHLET, 16)


class TestOperator:
    def test_interval_debug_stencil(self):
        grid = interval_grid(1.0, 4)  # h = 0.25, interior nodes at 0.25, 0.5, 0.75
        A = build_laplacian(grid)
        u = np.array([1.0, 2.0, 1.0])
        assert A.apply(u)[1] == pytest.approx((2 * 2 - 1 - 1) / 0.25**2)

    def test_duality_all_grids(self, rng):
        grids = [
            build_grid(DISK, DIRICHLET, 128),
            build_grid(DISK, BoundarySpec.robin(1.0), 128),
            build_grid(RadialBall(3, 1.0), DIRICHLET, 96),
            build_grid(Rectangle(1.0, 1.0), DIRICHLET, (24, 24)),
            interval_grid(1.0, 64),
        ]
        for grid in grids:
            A = build_laplacian(grid)
            for _ in range(20):
                x = rng.standard_normal(grid.size)
                y = rng.standard_normal(grid.size)
                gap = abs(integrate(grid, A.apply(x) * y) - integrate(grid, x * A.apply(y)))
                assert gap <= 1e-12 * np.linalg.norm(x) * np.linalg.norm(y)

    def test_m_matrix_structure(self):
        for grid in (
            build_grid(DISK, DIRICHLET, 64),
            build_grid(DISK, BoundarySpec.robin(1.0), 64),
            build_grid(Rectangle(1.0, 1.0), DIRICHLET, (12, 12)),
        ):
            K = build_laplacian(grid).K.tocoo()
            diag = K.diagonal()
            assert np.all(diag > 0)
            off = K.data[K.row != K.col]
            assert np.all(off <= 0)

    def test_parabola_exact_in_disk_interior(self):
        # -Lap(1 - r^2) = 4 in two dimensions; the radial rows reproduce it
        # exactly away from the boundary cell (which also owns the boundary
        # half-cell quadrature mass, trading pointwise consistency there).
        grid, A = disk_operator(128)
        values = A.apply(1 - grid.coords**2)
        np.testing.assert_allclose(values[:-1], 4.0, atol=1e-9)

    def test_parabola_n3(self):
        # -Lap(1 - r^2) = 2N = 6 in three dimensions; the shell-volume
        # weights make the flux-difference rows exact on quadratics as well
        grid = build_grid(RadialBall(3, 1.0), DIRICHLET, 96)
        A = build_laplacian(grid)
        np.testing.assert_allclose(A.apply(1 - grid.coords**2)[:-1], 6.0, atol=1e-9)


class TestSolveShifted:
    def test_zero_rhs(self):
        _, A = disk_operator(64)
        np.testing.assert_array_equal(solve_shifted(A, 0.0, np.zeros(A.grid.size)), 0.0)

    def test_poisson_disk_refinement(self):
        errs = []
        for n in (128, 256, 512):
            grid, A = disk_operator(n)
            x = solve_shifted(A, 0.0, np.full(grid.size, 4.0))
            errs.append(np.max(np.abs(x - (1 - grid.coords**2))))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)
        assert errs[1] / errs[2] == pytest.approx(4.0, rel=0.2)

    def test_random_rhs_residual(self, rng):
        grid, A = disk_operator(128)
        for sigma in (0.0, 1.0, 7.5):
            rhs = rng.standard_normal(grid.size)
            x = solve_shifted(A, sigma, rhs)
            res = np.linalg.norm(sigma * x + A.apply(x) - rhs)
            assert res <= 1e-12 * np.linalg.norm(rhs)

    def test_multiple_rhs(self, rng):
        grid, A = disk_operator(64)
        rhs = rng.standard_normal((grid.size, 2))
        x = solve_shifted(A, 0.3, rhs)
        for j in range(2):
            np.testing.assert_allclose(x[:, j], solve_shifted(A, 0.3, rhs[:, j]), rtol=1e-12)

    def test_negative_sigma_rejected(self):
        _, A = disk_operator(64)
        with pytest.raises(ValueError):
            solve_shifted(A, -0.1, np.ones(A.grid.size))

    def test_maximum_principle(self, rng):
        for boundary in (DIRICHLET, BoundarySpec.robin(1.0)):
            grid, A = disk_operator(128, boundary)
            for sigma in (0.0, 2.0):
                rhs = rng.uniform(0.0, 1.0, grid.size)
                assert solve_shifted(A, sigma, rhs).min() >= -1e-14

    def test_rectangle_poisson(self):
        # u = sin(pi x) sin(pi y), -Lap u = 2 pi^2 u on the unit square
        errs = []
        for n in (16, 32):
            grid = build_grid(Rectangle(1.0, 1.0), DIRICHLET, (n, n))
            A = build_laplacian(grid)
            exact = np.sin(np.pi * grid.coords[:, 0]) * np.sin(np.pi * grid.coords[:, 1])
            x = solve_shifted(A, 0.0, 2 * np.pi**2 * exact)
            errs.append(np.max(np.abs(x - exact)))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)

    @pytest.mark.parametrize("sigma", [0.0, 1.0, 1e3, 1e6])
    def test_rectangle_matches_dense_solve(self, rng, sigma):
        grid, A = rect_operator(2.0, 1.0, (24, 12))
        w = grid.weights
        rhs = rng.standard_normal(grid.size)
        dense = np.diag(sigma * w) + A.K.toarray()
        expected = np.linalg.solve(dense, w * rhs)
        x = solve_shifted(A, sigma, rhs)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-12 * np.max(np.abs(expected)))
        assert backward_error(A, sigma, x, rhs) <= 1e-12

    def test_rectangle_multiple_rhs(self, rng):
        grid, A = rect_operator(2.0, 1.0, (24, 12))
        rhs = rng.standard_normal((grid.size, 3))
        x = solve_shifted(A, 0.3, rhs)
        for j in range(3):
            np.testing.assert_allclose(x[:, j], solve_shifted(A, 0.3, rhs[:, j]), rtol=1e-12)

    def test_rectangle_maximum_principle(self, rng):
        grid, A = rect_operator(2.0, 1.0, (24, 12))
        point = np.zeros(grid.size)
        point[grid.size // 3] = 1.0
        for sigma in (0.0, 2.0, 1e6):
            for rhs in (rng.uniform(0.0, 1.0, grid.size), point):
                assert solve_shifted(A, sigma, rhs).min() >= 0.0

    @pytest.mark.parametrize("geometry", ["rectangle", "radial"])
    def test_mismatched_K_raises(self, rng, geometry):
        # the residual comes from K on every call, so a solve that does not
        # match K cannot return: first an edit after construction, which
        # leaves the prepared solve stale, then a hand-built operator whose K
        # the geometry's solve cannot represent
        if geometry == "rectangle":
            grid, A = rect_operator(2.0, 1.0, (24, 12))
        else:
            grid, A = disk_operator(64)
        rhs = rng.uniform(0.0, 1.0, grid.size)
        solve_shifted(A, 1.0, rhs)
        A.K = (A.K + sp.diags(0.01 * A.K.diagonal())).tocsr()
        with pytest.raises(LinearSolveError):
            solve_shifted(A, 1.0, rhs)

        # a symmetric M-matrix coupling nodes 0 and 5, outside both stencils
        c = 0.5 * A.K[0, 0]
        edited = sp.lil_matrix(A.K)
        edited[0, 5] = edited[5, 0] = -c
        edited[0, 0] += c
        edited[5, 5] += c
        handmade = DiscreteLaplacian(grid=grid, K=edited.tocsr(), boundary=A.boundary)
        with pytest.raises(LinearSolveError):
            solve_shifted(handmade, 1.0, rhs)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    lx=st.floats(0.2, 5.0),
    ly=st.floats(0.2, 5.0),
    nx=st.integers(4, 40),
    ny=st.integers(4, 40),
    sigma=st.floats(0.0, 1e6),
    seed=st.integers(0, 2**32 - 1),
    sparse=st.booleans(),
)
def test_rectangle_solve_property(lx, ly, nx, ny, sigma, seed, sparse):
    grid, A = rect_operator(lx, ly, (nx, ny))
    rng = np.random.default_rng(seed)
    rhs = rng.uniform(0.0, 1.0, (grid.size, 2))
    if sparse:
        # point-like sources: the solution is tiny far from them
        rhs[rng.uniform(size=rhs.shape) < 0.9] = 0.0
    x = solve_shifted(A, sigma, rhs)
    for j in range(2):
        assert backward_error(A, sigma, x[:, j], rhs[:, j]) <= 1e-12
    assert x.min() >= 0.0


@st.composite
def any_grid(draw):
    """(domain, boundary, resolution) over radial balls and rectangles."""
    if draw(st.booleans()):
        domain = RadialBall(draw(st.integers(2, 400)), draw(st.floats(0.1, 10.0)))
        robin = draw(st.booleans())
        boundary = BoundarySpec.robin(draw(st.floats(1e-3, 1e3))) if robin else DIRICHLET
        return domain, boundary, draw(st.integers(4, 128))
    domain = Rectangle(draw(st.floats(0.1, 10.0)), draw(st.floats(0.1, 10.0)))
    return domain, DIRICHLET, (draw(st.integers(4, 64)), draw(st.integers(4, 64)))


def covered_volume(grid):
    """The volume the weights must sum to.

    A ball's shell volumes cover the whole ball; its volume is taken through
    log-gamma, which stays finite where math.gamma overflows.  The Dirichlet
    rectangle's interior cells leave out a half-cell rim along the boundary.
    """
    domain = grid.domain
    if isinstance(domain, Rectangle):
        hx, hy = grid.h
        return (domain.lx - hx) * (domain.ly - hy)
    n, r = domain.dimension, domain.radius
    return math.exp(n / 2 * math.log(math.pi) + n * math.log(r) - math.lgamma(n / 2 + 1))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=any_grid())
def test_operator_structure_property(case):
    """Every grid that builds carries a symmetric M-matrix and exact volume weights."""
    domain, boundary, resolution = case
    try:
        grid = build_grid(domain, boundary, resolution)
    except GridError:
        assert isinstance(domain, RadialBall)
        return
    K = build_laplacian(grid).K
    asym = (K - K.T).tocsr()
    asym.eliminate_zeros()
    assert asym.nnz == 0
    assert np.all(K.diagonal() > 0)
    off = (K - sp.diags(K.diagonal())).tocoo()
    assert np.all(off.data <= 0)
    assert np.all(grid.weights > 0)
    assert grid.volume == pytest.approx(covered_volume(grid), rel=1e-12)


class TestQuadrature:
    def test_constant_over_disk(self):
        grid, _ = disk_operator(256)
        assert integrate(grid, np.ones(grid.size)) == pytest.approx(math.pi, rel=1e-4)

    def test_zero(self):
        grid, _ = disk_operator(64)
        assert integrate(grid, np.zeros(grid.size)) == 0.0

    def test_parabola_integral_refinement(self):
        # integral of (1 - r^2) over the unit disk is pi/2
        errs = []
        for n in (128, 256):
            grid, _ = disk_operator(n)
            errs.append(abs(integrate(grid, 1 - grid.coords**2) - math.pi / 2))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.3)

    def test_length_mismatch(self):
        grid, _ = disk_operator(64)
        with pytest.raises(ValueError):
            integrate(grid, np.ones(grid.size + 1))


class TestDirichletEnergy:
    def test_zero(self):
        grid, A = disk_operator(64)
        assert A.quadratic_form(np.zeros(grid.size), np.zeros(grid.size)) == 0.0

    def test_exact_symmetry(self, rng):
        grid, A = disk_operator(128)
        for _ in range(20):
            x = rng.standard_normal(grid.size)
            y = rng.standard_normal(grid.size)
            assert A.quadratic_form(x, y) == A.quadratic_form(y, x)

    def test_parabola_gradient_integral(self):
        # integral of |grad(1 - r^2)|^2 = 2*pi*int_0^1 (2r)^2 r dr = 2*pi
        errs = []
        for n in (128, 256):
            grid, A = disk_operator(n)
            parab = 1 - grid.coords**2
            errs.append(abs(A.quadratic_form(parab, parab) - 2 * math.pi))
        assert errs[0] <= 0.02
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.5)


class TestFieldPair:
    def test_length_checked(self):
        grid, _ = disk_operator(64)
        with pytest.raises(ValueError):
            FieldPair(np.zeros(3), np.zeros(3), grid)

    def test_helpers(self):
        grid, _ = disk_operator(64)
        pair = FieldPair.zeros(grid)
        assert pair.sup == 0.0
        scaled = FieldPair(np.ones(grid.size), 2 * np.ones(grid.size), grid).scaled(0.5)
        assert scaled.sup_u == 0.5 and scaled.sup_v == 1.0
