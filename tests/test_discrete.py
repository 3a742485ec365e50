import functools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.linalg import solveh_banded
from hypothesis import example, given, settings
from hypothesis.extra import numpy as hnp
from hypothesis import strategies as st

from thresholdlab import (
    BoundarySpec,
    FieldPair,
    RadialBall,
    Rectangle,
    build_grid,
    build_laplacian,
    integrate,
    solve_shifted,
)
from thresholdlab.discrete import (
    DiscreteLaplacian,
    GridError,
    LinearSolveError,
    _axis_eigenbasis,
    _backward_error,
    _rectangle_axes,
)
from thresholdlab.lab.verify import duality_check

from conftest import assert_passed, disk_spec

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
    def test_duality_all_grids(self, rng):
        grids = [
            build_grid(DISK, DIRICHLET, 128),
            build_grid(DISK, BoundarySpec.robin(1.0), 128),
            build_grid(RadialBall(3, 1.0), DIRICHLET, 96),
            build_grid(Rectangle(1.0, 1.0), DIRICHLET, (24, 24)),
        ]
        assert_passed(duality_check([build_laplacian(g) for g in grids], rng, 20, "unit"))

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
        # each column's products are the single column's, so the answers are bitwise equal
        grid, A = rect_operator(2.0, 1.0, (24, 12))
        rhs = rng.standard_normal((grid.size, 3))
        x = solve_shifted(A, 0.3, rhs)
        for j in range(3):
            assert x[:, j].tobytes() == solve_shifted(A, 0.3, rhs[:, j]).tobytes()

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
        handmade = DiscreteLaplacian(grid=grid, K=edited.tocsr())
        with pytest.raises(LinearSolveError):
            solve_shifted(handmade, 1.0, rhs)

    @pytest.mark.parametrize("geometry", ["rectangle", "radial"])
    def test_overflowing_norms_fail_the_contract(self, geometry):
        # the squares in the weighted norms overflow and make the backward
        # error NaN, which used to skip the contract; numpy's overflow
        # warning is the caller's to silence, as evolve does
        grid, A = rect_operator(1.0, 1.0, (16, 16)) if geometry == "rectangle" else disk_operator(16)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(LinearSolveError, match="norms overflow"):
                solve_shifted(A, 0.0, np.full(grid.size, 1e200))
        assert np.all(np.isfinite(solve_shifted(A, 0.0, np.full(grid.size, 1e150))))

    @pytest.mark.parametrize("geometry", ["rectangle", "radial"])
    def test_non_finite_input_refused(self, geometry, monkeypatch):
        # a NaN backward-error denominator once counted as an empty column, so
        # the rectangle returned all-NaN for sigma = NaN and for an inf in
        # the rhs, and zeros for sigma = inf
        grid, A = rect_operator(1.0, 1.0, (16, 16)) if geometry == "rectangle" else disk_operator(16)
        ones = np.ones(grid.size)
        for sigma in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite sigma and rhs"):
                solve_shifted(A, sigma, ones)
        for bad in (math.inf, -math.inf, math.nan):
            for rhs in (ones.copy(), np.ones((grid.size, 2))):
                rhs[3, ...] = bad
                with pytest.raises(ValueError, match="finite sigma and rhs"):
                    solve_shifted(A, 1.0, rhs)
        # finite data whose solve comes back NaN fails the contract
        monkeypatch.setattr(A, "_solve", lambda sigma, b: np.full(b.shape, math.nan))
        with pytest.raises(LinearSolveError):
            solve_shifted(A, 1.0, ones)


def dirichlet_axis_eigenvalues(n, h):
    """Eigenvalues (2/h sin(j pi/(2n)))^2, j = 1..n-1, of the stencil (-1, 2, -1)/h^2
    on the n - 1 interior nodes of a uniform Dirichlet axis, ascending."""
    return (2.0 / h * np.sin(np.arange(1, n) * np.pi / (2 * n))) ** 2


@pytest.mark.parametrize("m", [3, 11, 16, 23, 47, 127, 255])
def test_axis_eigenbasis_diagonalises_the_axis(m):
    # F G = I and G diag(lam) F = W^-1 K_axis to rounding (measured at most
    # 2.3e-15 and 3.7e-15 of the scale), and lam is the closed form above
    grid = build_grid(Rectangle(2.0, 1.0), DIRICHLET, (m + 1, 4))
    (diag, off, w), _ = _rectangle_axes(grid)
    lam, G, F = _axis_eigenbasis(diag, off, w)
    A = (np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)) / w[:, None]
    scale = np.max(np.abs(A))
    np.testing.assert_allclose(F @ G, np.eye(m), rtol=0, atol=1e-14)
    np.testing.assert_allclose(G @ np.diag(lam) @ F, A, rtol=0, atol=1e-14 * scale)
    expected = dirichlet_axis_eigenvalues(m + 1, grid.h[0])
    np.testing.assert_allclose(lam, expected, rtol=0, atol=2e-15 * expected.max())


def radial_stiffness_reference(grid):
    """The radial K written out row by row: face coefficients sigma r^(N-1)/h,
    zero flux at the origin, and on the last row the face to the eliminated
    boundary value (Dirichlet) or beta times the boundary area (Robin)."""
    N, R = grid.domain.dimension, grid.domain.radius
    (n,), (h,) = grid.resolution, grid.h
    sigma = grid.domain.sphere_area
    m = grid.size
    a = sigma * ((np.arange(m - 1) + 0.5) * h) ** (N - 1) / h
    diag = np.zeros(m)
    diag[:-1] += a
    diag[1:] += a
    if grid.boundary.kind == "robin":
        diag[-1] = a[-1] + sigma * R ** (N - 1) * grid.boundary.beta
    else:
        diag[-1] += sigma * ((n - 0.5) * h) ** (N - 1) / h
    return sp.diags([-a, diag, -a], [-1, 0, 1], format="csr")


def same_csr_bytes(K, ref):
    return all(getattr(K, a).tobytes() == getattr(ref, a).tobytes()
               for a in ("data", "indices", "indptr"))


@pytest.mark.parametrize("boundary", [DIRICHLET, BoundarySpec.robin(2.5)], ids=["dirichlet", "robin"])
@pytest.mark.parametrize("dim", [2, 3, 10])
def test_radial_axis_is_the_written_out_stiffness(dim, boundary):
    for n in (4, 17, 512):
        grid = build_grid(RadialBall(dim, 1.3), boundary, n)
        assert same_csr_bytes(build_laplacian(grid).K, radial_stiffness_reference(grid))


@pytest.mark.parametrize("lx, ly, resolution",
                         [(3.0, 1.0, (48, 20)), (1.0, 1.7, (17, 33)), (1.0, 1.0, (24, 24)),
                          (2.0, 2.0, (16, 16))])
def test_rectangle_axes_are_the_five_point_stiffness(lx, ly, resolution):
    # the weighted Kronecker sum of the two axes against hx*hy times the
    # 5-point stencil: the same pattern, entries within 1 ulp (2.2e-16
    # relative where hx != hy), bytewise equal on squares
    grid, A = rect_operator(lx, ly, resolution)
    (nx, ny), (hx, hy) = grid.resolution, grid.h
    D = lambda m: sp.diags([-np.ones(m - 1), 2 * np.ones(m), -np.ones(m - 1)], [-1, 0, 1])
    L = sp.kron(D(nx - 1), sp.eye(ny - 1)) / hx**2 + sp.kron(sp.eye(nx - 1), D(ny - 1)) / hy**2
    ref = (hx * hy * L).tocsr()
    np.testing.assert_array_equal(A.K.indptr, ref.indptr)
    np.testing.assert_array_equal(A.K.indices, ref.indices)
    np.testing.assert_array_max_ulp(A.K.data, ref.data, maxulp=1)
    if hx == hy:
        assert same_csr_bytes(A.K, ref)


@pytest.mark.parametrize("cols", [1, 2])
@pytest.mark.parametrize("resolution", [(24, 12), (17, 33), (48, 48)])
def test_rectangle_route_matches_fft_sine_transform(resolution, cols, rng):
    # the reference is scipy.fft's DST-I, which the program does not import,
    # divided by the 5-point eigenvalues written out here
    from scipy.fft import dstn, idstn

    grid, A = rect_operator(2.0, 1.0, resolution)
    (nx, ny), (hx, hy) = grid.resolution, grid.h
    axis = lambda n, h: (2.0 / h * np.sin(np.arange(1, n) * np.pi / (2 * n))) ** 2
    eig = axis(nx, hx)[:, None, None] + axis(ny, hy)[None, :, None]
    b = rng.standard_normal((grid.size, cols))
    for sigma in (0.0, 1.0, 1e6):
        coef = dstn(b.reshape(nx - 1, ny - 1, cols), type=1, axes=(0, 1))
        expected = idstn(coef / (sigma + eig), type=1, axes=(0, 1)).reshape(b.shape)
        x = solve_shifted(A, sigma, b)
        np.testing.assert_allclose(x, expected, rtol=0, atol=1e-13 * np.max(np.abs(expected)))


_RADIAL = {
    "disk": (DISK, DIRICHLET),
    "ball": (RadialBall(3, 1.0), DIRICHLET),
    "robin-disk": (DISK, BoundarySpec.robin(1.0)),
}


@pytest.mark.parametrize("cols", [1, 2])
@pytest.mark.parametrize("name", sorted(_RADIAL))
def test_radial_route_is_solveh_banded(name, cols, rng):
    # the direct ptsv call is the one solveh_banded makes for a two-row band
    # (overwrite flags aside): the answers are bitwise equal, and the
    # operator's band and K stay as built
    grid = build_grid(*_RADIAL[name], 64)
    A = build_laplacian(grid)
    w = grid.weights
    K = A.K.toarray()
    band = [a.copy() for a in A._solve.args if isinstance(a, np.ndarray)]
    b = rng.uniform(0.0, 1.0, (grid.size, cols))
    for sigma in (0.0, 1.0, 1e3, 1e10):
        ab = np.zeros((2, grid.size))
        ab[0] = A.K.diagonal()
        ab[1, :-1] = A.K.diagonal(-1)
        ab[0] += sigma * w
        expected = solveh_banded(ab, w[:, None] * b, lower=True)
        assert A._solve(sigma, b).tobytes() == expected.tobytes()
        solve_shifted(A, sigma, b)
    np.testing.assert_array_equal(A.K.toarray(), K)
    for kept, now in zip(band, (a for a in A._solve.args if isinstance(a, np.ndarray))):
        np.testing.assert_array_equal(now, kept)


_LAYOUT_GRIDS = {
    **{name: lambda d=d, bc=bc: build_grid(d, bc, 64) for name, (d, bc) in _RADIAL.items()},
    "rectangle": lambda: build_grid(Rectangle(2.0, 1.0), DIRICHLET, (24, 12)),
}


@pytest.mark.parametrize("cols", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(_LAYOUT_GRIDS))
def test_shifted_solves_are_column_major(name, cols, rng):
    # every route answers column-major whatever the rhs layout, with the same
    # bits, and the contract's residual is the one-block formula's
    grid = _LAYOUT_GRIDS[name]()
    A = build_laplacian(grid)
    w = grid.weights
    b = rng.standard_normal((grid.size, cols))
    for sigma in (0.0, 1.0, 1e3):
        x = solve_shifted(A, sigma, np.ascontiguousarray(b))
        assert x.flags.f_contiguous
        assert solve_shifted(A, sigma, np.asfortranarray(b)).tobytes() == x.tobytes()
        if cols == 1:
            assert solve_shifted(A, sigma, b[:, 0]).tobytes() == x[:, 0].tobytes()
        _, res, _ = _backward_error(A, sigma, b, x)
        assert res.tobytes() == (b - ((A.K @ x) / w[:, None] + sigma * x)).tobytes()


def test_rectangle_clip_in_place_per_column(rng):
    # at sigma = 1e6 a point source's solution is rounding-level far from the
    # point and the transforms leave negatives there: they are zeroed in the
    # nonnegative column only.  The point's negation is never clipped, so its
    # answer is the unclipped solution negated.
    grid, A = rect_operator(2.0, 1.0, (24, 12))
    point = np.zeros(grid.size)
    point[grid.size // 3] = 1.0
    signed = rng.standard_normal(grid.size)
    rhs = np.array([point, signed, -point]).T
    x = solve_shifted(A, 1e6, rhs)
    raw = -x[:, 2]
    assert raw.min() < 0.0
    assert x[:, 0].min() >= 0.0
    np.testing.assert_array_equal(x[:, 0], np.where(raw < 0, 0.0, raw))
    assert x[:, 1].min() < 0.0
    for j in range(3):
        assert x[:, j].tobytes() == solve_shifted(A, 1e6, rhs[:, j]).tobytes()


def test_singular_robin_operator_raises_by_name():
    # beta = 1e-300 leaves K singular to float precision: ptsv finds a
    # nonpositive pivot in the unshifted solve
    grid = build_grid(DISK, BoundarySpec.robin(1e-300), 64)
    A = build_laplacian(grid)
    with pytest.raises(LinearSolveError, match="operator singular to float precision"):
        solve_shifted(A, 0.0, np.ones(grid.size))


@st.composite
def sigma_runs(draw):
    """A sequence of sigmas drawn from a small pool that holds 0, so that it
    repeats sigmas and returns to earlier ones."""
    pool = [0.0, *draw(st.lists(st.floats(1e-3, 1e10), min_size=1, max_size=3))]
    return [pool[i] for i in draw(st.lists(st.integers(0, len(pool) - 1), min_size=1,
                                           max_size=12))]


@settings(max_examples=40, deadline=None, derandomize=True)
@given(name=st.sampled_from(sorted(_RADIAL)), cols=st.integers(1, 2), fortran=st.booleans(),
       sigmas=sigma_runs(), seed=st.integers(0, 2**32 - 1))
def test_kept_factors_follow_any_sigma_sequence(name, cols, fortran, sigmas, seed):
    # the radial route keeps pttrf's factors for the last sigma only: along
    # any sequence of sigmas, with repeats and returns, every answer is
    # bitwise solveh_banded's on the shifted band and bitwise the answer of
    # an operator built fresh for that one solve, in either layout
    grid = build_grid(*_RADIAL[name], 64)
    A = build_laplacian(grid)
    w = grid.weights
    rng = np.random.default_rng(seed)
    layout = np.asfortranarray if fortran else np.ascontiguousarray
    for sigma in sigmas:
        b = layout(rng.uniform(0.0, 1.0, (grid.size, cols)))
        ab = np.zeros((2, grid.size))
        ab[0] = A.K.diagonal() + sigma * w
        ab[1, :-1] = A.K.diagonal(-1)
        expected = solveh_banded(ab, w[:, None] * b, lower=True)
        assert A._solve(sigma, b).tobytes() == expected.tobytes()
        x = solve_shifted(A, sigma, b)
        assert x.tobytes() == solve_shifted(build_laplacian(grid), sigma, b).tobytes()


def test_failed_factorisation_is_never_kept():
    # the singular operator's factorisation fails on every call at sigma = 0,
    # also right after a solve at another sigma, whose factors stay usable
    grid = build_grid(DISK, BoundarySpec.robin(1e-300), 64)
    A = build_laplacian(grid)
    b = np.ones(grid.size)
    for _ in range(2):
        with pytest.raises(LinearSolveError, match="operator singular to float precision"):
            solve_shifted(A, 0.0, b)
    x = solve_shifted(A, 1.0, b)
    with pytest.raises(LinearSolveError, match="operator singular to float precision"):
        solve_shifted(A, 0.0, b)
    assert solve_shifted(A, 1.0, b).tobytes() == x.tobytes()


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
    # the principal vector is the eigenvector of the smallest 5-point eigenvalue
    phi = A.principal_vector
    scale = 2.0 * np.max(A.K.diagonal() / grid.weights)
    lam = sum(dirichlet_axis_eigenvalues(n, h)[0] for n, h in zip(grid.resolution, grid.h))
    assert np.max(np.abs(A.apply(phi) - lam * phi)) <= 1e-14 * scale


@pytest.mark.parametrize("lx, ly, resolution",
                         [(2.0, 1.0, (24, 12)), (1.0, 1.0, (48, 48)), (1.0, 1.0, (17, 33)),
                          (1.0, 1.0, (256, 256))])
def test_rectangle_principal_vector_is_the_first_sine_mode(lx, ly, resolution, monkeypatch):
    import thresholdlab.discrete as discrete
    import thresholdlab.elliptic as elliptic

    grid, A = rect_operator(lx, ly, resolution)
    calls = []
    counted = lambda *a: calls.append(1) or solve_shifted(*a)
    for module in (discrete, elliptic):
        monkeypatch.setattr(module, "solve_shifted", counted)
    phi = A.principal_vector
    assert calls == []
    assert phi.min() > 0 and phi.max() == 1.0
    assert not phi.flags.writeable


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


_NODES = 32
_disk32 = functools.lru_cache(maxsize=None)(lambda: disk_operator(_NODES))


@functools.lru_cache(maxsize=None)
def _steady_pairs():
    """The solvers' pairs on the 32-node disk: Newton's and the monotone
    iteration's equilibria, a residual, the shooting profile and the decay cone."""
    from thresholdlab import ExponentPair, residual, shooting_oracle, solve_monotone, solve_newton
    from thresholdlab.parabolic import certificates

    grid, A = _disk32()
    spec, forced = disk_spec(3.0, 3.0), disk_spec(2.0, 2.0, lam=0.5)
    newton = solve_newton(spec, A).pair
    return {
        "newton": newton,
        "residual": residual(spec, A, newton.scaled(0.5)),
        "monotone": solve_monotone(forced, A).equilibrium(forced).pair,
        "shooting": shooting_oracle(ExponentPair(3.0, 3.0), 2, DIRICHLET).to_pair(grid),
        "cone": certificates(spec, A).cone,
    }


def _stepped_pair(grid, A):
    """A parabolic step's new state, and the answer of the solve it made."""
    from unittest import mock

    from thresholdlab import parabolic

    answers = []

    def solve(*args, **kwargs):
        answers.append(solve_shifted(*args, **kwargs))
        return answers[-1]

    with mock.patch.object(parabolic, "solve_shifted", solve):
        new = parabolic.step(disk_spec(3.0, 3.0), A, _steady_pairs()["newton"].scaled(0.5), 1e-3)
    return new, answers


_FIELD = hnp.arrays(np.float64, _NODES, elements=st.floats(-1e6, 1e6, width=64))
_PRODUCERS = ["constructor", "zeros", "scaled", "copy", "difference", "step",
              "newton", "monotone", "residual", "shooting", "cone"]


@pytest.mark.parametrize("name", _PRODUCERS)
@settings(max_examples=10, deadline=None, derandomize=True)
@given(u=_FIELD, v=_FIELD)
@example(u=np.array([0.0, -0.0] * (_NODES // 2)),
         v=np.array([-0.0, 1e-300, -1e300, 0.0] * (_NODES // 4)))
def test_every_pair_is_one_column_major_block(name, u, v):
    """Every pair is one F-ordered (m, 2) block whose columns are u and v.

    The constructor copies u and v bitwise, signed zeros included, into a
    block of its own; a step's new state is the solve's answer itself; and
    no pair's u, v, block or grid can be rebound.
    """
    grid, A = _disk32()
    m = grid.size
    given_pair = FieldPair(u, v, grid)
    expected = {
        "constructor": (given_pair, (u, v)),
        "zeros": (FieldPair.zeros(grid), (np.zeros(m), np.zeros(m))),
        "scaled": (given_pair.scaled(-0.5), (-0.5 * u, -0.5 * v)),
        "copy": (given_pair.copy(), (u, v)),
        "difference": (given_pair - given_pair.scaled(2.0), (u - 2.0 * u, v - 2.0 * v)),
    }
    if name in expected:
        pair, (eu, ev) = expected[name]
        assert pair.u.tobytes() == eu.tobytes() and pair.v.tobytes() == ev.tobytes()
    elif name == "step":
        pair, answers = _stepped_pair(grid, A)
        assert len(answers) == 1 and pair.block is answers[0]
    else:
        pair = _steady_pairs()[name]
    block = pair.block
    assert block.shape == (m, 2) and block.dtype == np.float64 and block.flags.f_contiguous
    for column, values in enumerate((pair.u, pair.v)):
        assert values.flags.c_contiguous and np.shares_memory(values, block)
        assert values.ctypes.data == block[:, column].ctypes.data
    assert pair.grid is grid
    if name in ("constructor", "copy"):
        assert not np.shares_memory(block, u) and not np.shares_memory(block, v)
    if name == "copy":
        assert not np.shares_memory(block, given_pair.block)
    for attribute in ("u", "v", "block", "grid"):
        with pytest.raises(AttributeError):
            setattr(pair, attribute, getattr(pair, attribute))
