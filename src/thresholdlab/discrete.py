"""Grids, quadrature weights and the symmetric discrete Laplacian.

The operator A acting on nodal vectors is stored in stiffness form: a
symmetric sparse matrix K together with positive quadrature weights w, with
A = diag(1/w) K.  Every inner product below is the weighted one,
<x, y>_w = sum_i w_i x_i y_i, so <A x, y>_w = x^T K y holds exactly and
summation by parts carries no quadrature error.  K is an M-matrix
(positive diagonal, nonpositive off-diagonal) which gives the discrete
comparison principle used throughout the solver layers.

Supported grids:
  * radial ball in R^N (N >= 2): conservative finite-volume rows on nodes
    r_i = i*h including the origin, where the symmetry condition u'(0) = 0
    closes the stencil one-sidedly; Dirichlet eliminates the boundary node,
    Robin keeps it and encodes du/dn + beta*u = 0 through the boundary flux.
  * rectangle: uniform tensor grid, interior nodes, 5-point stencil,
    Dirichlet only.
  * interval: 1D debug geometry, not part of the public problem types.

Shifted solves (sigma I + A) x = b never factorise a matrix: each operator
sets up a solve once that takes sigma as an argument.  Radial and interval
operators are tridiagonal and use a banded symmetric solve; the Dirichlet
rectangle is diagonalised by the type-I discrete sine transform along each
axis (the fast Poisson solver of Buzbee, Golub & Nielson, 1970), so sigma
only shifts the known eigenvalues.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Optional

import numpy as np
import scipy.sparse as sp
from scipy.fft import dstn, idstn
from scipy.linalg import solveh_banded

from .problem import BoundarySpec, DomainSpec, RadialBall, Rectangle

__all__ = [
    "Grid",
    "DiscreteLaplacian",
    "FieldPair",
    "build_grid",
    "build_laplacian",
    "interval_grid",
    "solve_shifted",
    "integrate",
    "GridError",
    "LinearSolveError",
]

MIN_RESOLUTION = 4


class GridError(ValueError):
    """Bad resolution or unsupported geometry/boundary combination."""


class LinearSolveError(RuntimeError):
    def __init__(self, message: str, achieved_residual: float):
        super().__init__(f"{message} (achieved relative residual {achieved_residual:.3e})")
        self.achieved_residual = achieved_residual


@dataclass
class Grid:
    """Discretised domain: node coordinates, weights, geometry bookkeeping.

    Immutable after construction.  ``weights`` integrate nodal vectors over
    the domain; for radial grids they are exact finite-volume shell volumes
    (their sum reproduces the ball volume), for the rectangle they are the
    plain cell areas of the interior nodes.
    """

    geometry: str                 # "radial" | "rectangle" | "interval"
    dimension: int
    boundary: BoundarySpec
    resolution: tuple[int, ...]
    h: tuple[float, ...]
    coords: np.ndarray            # (m,) radii for radial/interval, (m,2) for rectangle
    center_dist: np.ndarray       # distance of each node to the domain centre
    weights: np.ndarray
    domain: Optional[DomainSpec] = None
    shape2d: Optional[tuple[int, int]] = None

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def volume(self) -> float:
        """Discrete volume sum(w); the constant used by quadrature inequalities."""
        return float(np.sum(self.weights))


@dataclass
class FieldPair:
    """Nodal values of the two solution components on a grid."""

    u: np.ndarray
    v: np.ndarray
    grid: Grid

    def __post_init__(self):
        m = self.grid.size
        if len(self.u) != m or len(self.v) != m:
            raise ValueError("field length does not match grid degrees of freedom")

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldPair":
        return cls(np.zeros(grid.size), np.zeros(grid.size), grid)

    def copy(self) -> "FieldPair":
        return FieldPair(self.u.copy(), self.v.copy(), self.grid)

    def scaled(self, alpha: float) -> "FieldPair":
        return FieldPair(alpha * self.u, alpha * self.v, self.grid)

    @property
    def sup(self) -> float:
        return max(self.sup_u, self.sup_v)

    @property
    def sup_u(self) -> float:
        return float(np.max(np.abs(self.u))) if len(self.u) else 0.0

    @property
    def sup_v(self) -> float:
        return float(np.max(np.abs(self.v))) if len(self.v) else 0.0


@dataclass
class DiscreteLaplacian:
    """Symmetric stiffness form of -Lap with the boundary condition baked in.

    apply(x) evaluates A x = K x / w nodewise; quadratic_form(x, y) returns
    <A x, y>_w = x^T K y, exactly symmetric by construction.  The solve used
    by solve_shifted is derived from grid and K on construction, so an
    operator built by hand gets one too.
    """

    grid: Grid
    K: sp.csr_matrix
    boundary: BoundarySpec
    # _solve(sigma, b) solves (sigma I + A) x = b for b of shape (m, k)
    _solve: Callable[[float, np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    _op_scale: float = field(init=False, repr=False, compare=False)  # 2 max(K_ii / w_i)

    def __post_init__(self):
        w = self.grid.weights
        self._op_scale = 2.0 * float(np.max(self.K.diagonal() / w))
        if self.grid.geometry == "rectangle":
            self._solve = partial(_sine_transform_solve, _rectangle_eigenvalues(self.grid))
        else:
            band = np.zeros((2, len(w)))
            band[0] = self.K.diagonal()
            band[1, :-1] = self.K.diagonal(-1)
            self._solve = partial(_banded_solve, band, w)

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (self.K @ x) / self.grid.weights

    def quadratic_form(self, x: np.ndarray, y: np.ndarray) -> float:
        """<A x, y>_w = x^T K y, the discrete grad-grad integral.

        Bitwise symmetric in (x, y); on Robin operators it includes the
        boundary term beta * integral of x*y over the boundary.
        """
        return float(0.5 * ((self.K @ y) @ x + (self.K @ x) @ y))


def build_grid(domain: DomainSpec, boundary: BoundarySpec, resolution) -> Grid:
    """Build the grid for a domain/boundary pair.

    ``resolution`` counts mesh intervals per axis (int, or (nx, ny) for the
    rectangle).  Radial balls yield nodes r_i = i*h with shell-volume
    weights, nominally sigma * r_i^(N-1) * h, endpoint-corrected (an origin
    cell and the boundary half-shell) so that sum(w) matches the ball volume
    exactly.  Rectangles yield interior nodes with uniform weight hx*hy.
    """
    if isinstance(domain, RadialBall):
        n = _check_resolution(resolution)
        return _radial_grid(domain, boundary, n)
    if isinstance(domain, Rectangle):
        if boundary.kind != "dirichlet":
            raise GridError("rectangle grids support Dirichlet boundaries only")
        if isinstance(resolution, int):
            nx = ny = _check_resolution(resolution)
        else:
            nx, ny = (_check_resolution(r) for r in resolution)
        return _rectangle_grid(domain, boundary, nx, ny)
    raise GridError(f"unsupported domain {domain!r}")


def _check_resolution(resolution) -> int:
    n = int(resolution)
    if n < MIN_RESOLUTION:
        raise GridError(f"resolution {n} too small (minimum {MIN_RESOLUTION})")
    return n


def _radial_grid(domain: RadialBall, boundary: BoundarySpec, n: int) -> Grid:
    N, R = domain.dimension, domain.radius
    h = R / n
    robin = boundary.kind == "robin"
    m = n + 1 if robin else n
    r = np.arange(m) * h
    # weights are exact shell volumes of the finite-volume cells, so they sum
    # to the ball volume exactly; the interior value is sigma * r^(N-1) * h
    # up to O(h^2) (exactly that for N = 2).  The outermost cell extends to
    # the boundary and owns the boundary half-shell.
    w = np.empty(m)
    try:
        sigma = domain.sphere_area
        shell = lambda a, b: sigma * (b**N - a**N) / N
        with np.errstate(over="ignore", invalid="ignore"):
            w[0] = shell(0.0, h / 2)
            for i in range(1, m - 1):
                w[i] = shell(r[i] - h / 2, r[i] + h / 2)
            w[-1] = shell(r[-1] - h / 2, R)
    except OverflowError:
        w[:] = np.inf       # refused below, like an underflow
    # in high dimension the shell volumes leave the float range: the inner
    # ones underflow to 0 and, beyond N = 343, the sphere area overflows
    if not np.all(np.isfinite(w) & (w > 0)):
        raise GridError(f"dimension {N} is out of range at radius {R:g} and resolution {n}: "
                        "shell volumes are not positive finite floats")
    return Grid(
        geometry="radial",
        dimension=N,
        boundary=boundary,
        resolution=(n,),
        h=(h,),
        coords=r,
        center_dist=r,
        weights=w,
        domain=domain,
    )


def _rectangle_grid(domain: Rectangle, boundary: BoundarySpec, nx: int, ny: int) -> Grid:
    hx, hy = domain.lx / nx, domain.ly / ny
    x = np.arange(1, nx) * hx
    y = np.arange(1, ny) * hy
    X, Y = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    center = np.array([domain.lx / 2, domain.ly / 2])
    dist = np.linalg.norm(pts - center, axis=1)
    w = np.full(len(pts), hx * hy)
    return Grid(
        geometry="rectangle",
        dimension=2,
        boundary=boundary,
        resolution=(nx, ny),
        h=(hx, hy),
        coords=pts,
        center_dist=dist,
        weights=w,
        domain=domain,
        shape2d=(nx - 1, ny - 1),
    )


def interval_grid(length: float, resolution: int) -> Grid:
    """1D Dirichlet interval (0, length): internal debug geometry.

    Used for stencil arithmetic checks only; never produced from a
    DomainSpec and excluded from theorem-level runs.
    """
    n = _check_resolution(resolution)
    h = length / n
    x = np.arange(1, n) * h
    return Grid(
        geometry="interval",
        dimension=1,
        boundary=BoundarySpec.dirichlet(),
        resolution=(n,),
        h=(h,),
        coords=x,
        center_dist=np.abs(x - length / 2),
        weights=np.full(n - 1, h),
    )


def build_laplacian(grid: Grid) -> DiscreteLaplacian:
    """Assemble the stiffness matrix K for -Lap on the grid.

    Radial rows are conservative flux differences with face coefficients
    sigma * r^(N-1) evaluated at cell faces; the origin row uses the zero
    flux forced by symmetry.  Robin adds beta times the boundary area to the
    boundary diagonal, which is exactly the boundary term produced by
    integration by parts.  All variants are symmetric M-matrices.
    """
    if grid.geometry == "radial":
        K = _radial_stiffness(grid)
    elif grid.geometry == "interval":
        K = _interval_stiffness(grid)
    elif grid.geometry == "rectangle":
        K = _rectangle_stiffness(grid)
    else:
        raise GridError(f"no operator for geometry {grid.geometry!r}")
    return DiscreteLaplacian(grid=grid, K=K, boundary=grid.boundary)


def _radial_stiffness(grid: Grid) -> sp.csr_matrix:
    domain = grid.domain
    N, R = domain.dimension, domain.radius
    (n,) = grid.resolution
    (h,) = grid.h
    sigma = domain.sphere_area
    robin = grid.boundary.kind == "robin"
    m = grid.size
    face = (np.arange(m - 1) + 0.5) * h
    a = sigma * face ** (N - 1) / h
    diag = np.zeros(m)
    diag[:-1] += a
    diag[1:] += a
    if robin:
        # flux through r = R:  sigma * R^(N-1) * u'(R) = -beta * sigma * R^(N-1) * u(R)
        diag[-1] = a[-1] + sigma * R ** (N - 1) * grid.boundary.beta
    else:
        # coupling to the eliminated boundary value through the face at R - h/2
        diag[-1] += sigma * ((n - 0.5) * h) ** (N - 1) / h
    return sp.diags([-a, diag, -a], [-1, 0, 1], format="csr")


def _interval_stiffness(grid: Grid) -> sp.csr_matrix:
    (h,) = grid.h
    m = grid.size
    a = np.full(m - 1, 1.0 / h)
    diag = np.full(m, 2.0 / h)
    return sp.diags([-a, diag, -a], [-1, 0, 1], format="csr")


def _rectangle_stiffness(grid: Grid) -> sp.csr_matrix:
    nx, ny = grid.resolution
    hx, hy = grid.h
    mx, my = nx - 1, ny - 1
    Dx = sp.diags([-np.ones(mx - 1), 2 * np.ones(mx), -np.ones(mx - 1)], [-1, 0, 1])
    Dy = sp.diags([-np.ones(my - 1), 2 * np.ones(my), -np.ones(my - 1)], [-1, 0, 1])
    L = sp.kron(Dx, sp.eye(my)) / hx**2 + sp.kron(sp.eye(mx), Dy) / hy**2
    return (hx * hy * L).tocsr()


def _banded_solve(band: np.ndarray, w: np.ndarray, sigma: float, b: np.ndarray) -> np.ndarray:
    """Tridiagonal route: K in lower-banded storage, shifted by sigma*w per call."""
    ab = band.copy()
    ab[0] += sigma * w
    return solveh_banded(ab, w[:, None] * b, lower=True)


def _rectangle_eigenvalues(grid: Grid) -> np.ndarray:
    """Eigenvalues of A on the Dirichlet rectangle, shaped (mx, my, 1).

    The 1D stencil (-1, 2, -1)/h^2 on m interior nodes has the DST-I
    eigenvectors and eigenvalues (2/h sin(j pi / (2(m+1))))^2, j = 1..m; the
    5-point eigenvalues are their sums over the two axes.
    """
    mx, my = grid.shape2d
    hx, hy = grid.h
    axis = lambda m, h: (2.0 / h * np.sin(np.arange(1, m + 1) * np.pi / (2 * (m + 1)))) ** 2
    return (axis(mx, hx)[:, None] + axis(my, hy)[None, :])[:, :, None]


def _sine_transform_solve(eig: np.ndarray, sigma: float, b: np.ndarray) -> np.ndarray:
    """Rectangle route: DST-I, division by sigma + eig, inverse DST-I.

    Where the solution of a nonnegative column is tiny, the transforms leave
    rounding-level negatives (below 1e-16 of its maximum); those are set to
    zero, so the rectangle keeps the discrete maximum principle exactly, as
    the banded route does.
    """
    mx, my, _ = eig.shape
    coef = dstn(b.reshape(mx, my, -1), type=1, axes=(0, 1))
    x = idstn(coef / (sigma + eig), type=1, axes=(0, 1), overwrite_x=True).reshape(b.shape)
    return np.where((x < 0) & np.all(b >= 0, axis=0), 0.0, x)


def solve_shifted(A: DiscreteLaplacian, sigma: float, rhs: np.ndarray) -> np.ndarray:
    """Solve (sigma*I + A) x = rhs to relative residual <= 1e-12.

    sigma >= 0 keeps the system positive definite.  rhs may be (m,) or
    (m, k) for multiple right-hand sides.  Nothing is factorised: radial and
    interval operators solve the tridiagonal system sigma*W + K with a banded
    symmetric solver, the Dirichlet rectangle applies DST-I along both axes
    and divides by the shifted eigenvalues.  One step of iterative refinement
    follows if the first solve misses the contract.

    The residual contract is the normwise backward error in the weighted L2
    norm, ||rhs - (sigma I + A) x|| / (||rhs|| + ||sigma I + A|| * ||x||):
    evaluating the residual itself carries eps/h^2 rounding from the
    operator rows, so the plain ||res||/||rhs|| quotient bottoms out around
    1e-11 on fine grids no matter how exact the solve is.  The residual is
    taken from A.K on every call, so a solve that does not match K raises
    LinearSolveError rather than returning a wrong answer.
    """
    if sigma < 0:
        raise ValueError("solve_shifted requires sigma >= 0")
    w = A.grid.weights
    rhs = np.asarray(rhs, dtype=float)
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    x = A._solve(sigma, b)

    shifted = lambda z: sigma * z + (A.K @ z) / w[:, None]
    wnorm = lambda z: np.sqrt(w @ z**2)
    op_scale = sigma + A._op_scale

    def backward_error(xc):
        res = b - shifted(xc)
        denom = wnorm(b) + op_scale * wnorm(xc)
        live = denom > 0
        return (np.max(wnorm(res)[live] / denom[live]) if np.any(live) else 0.0), res

    rel, res = backward_error(x)
    if rel > 1e-12:
        x = x + A._solve(sigma, res)
        rel, _ = backward_error(x)
        if rel > 1e-12:
            raise LinearSolveError("shifted solve failed to converge", rel)
    return x[:, 0] if single else x


def integrate(grid: Grid, x: np.ndarray) -> float:
    """Quadrature sum(w_i * x_i) realising the domain integral."""
    if len(x) != grid.size:
        raise ValueError("length mismatch")
    return float(np.dot(grid.weights, x))
