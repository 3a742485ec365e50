"""Grids, quadrature weights and the symmetric discrete Laplacian.

The operator A acting on nodal vectors is stored in stiffness form: a
symmetric sparse matrix K together with positive quadrature weights w, with
A = diag(1/w) K.  Every inner product below is the weighted one,
<x, y>_w = sum_i w_i x_i y_i, so <A x, y>_w = x^T K y holds exactly and
summation by parts carries no quadrature error.  K is an M-matrix
(positive diagonal, nonpositive off-diagonal) which gives the discrete
comparison principle used throughout the solver layers.

Every operator is built from conservative 1-D axes.  An axis's stiffness
is tridiagonal, assembled by one function from its face conductances and
its two end closures as two bands (diagonal, off-diagonal); it stays a
symmetric M-matrix for any face positions.  build_laplacian wraps the
bands into K, and the rectangle's eigenbases are read from them directly.
  * radial ball in R^N (N >= 2): one axis of nodes r_i = i*h including the
    origin, shell-volume weights and face conductances sigma r^(N-1) / h.
    Symmetry u'(0) = 0 closes the origin end; Dirichlet eliminates the
    boundary node, Robin keeps it and adds beta times the boundary area.
  * rectangle: the weighted Kronecker sum of two uniform Dirichlet axes on
    the interior nodes, which is the 5-point stencil.

Shifted solves (sigma I + A) x = b use no sparse LU: each operator sets
up a solve once that takes sigma as an argument.  Radial operators are
tridiagonal: LAPACK ``pttrf`` and ``pttrs``, bound once per operator,
factorise sigma*W + K as LDL^T and solve with the factors, which the
operator keeps for the last sigma, so a run of solves at one sigma
factorises once.  The rectangle is diagonalised axis by axis, the fast
Poisson solver of Buzbee, Golub & Nielson (1970) with each axis's
eigenbasis computed by ``eigh_tridiagonal`` rather than written out, so
sigma only shifts the eigenvalue sums; one solve is four BLAS products
with the axes' maps, built once per operator.  Non-finite input is
refused on every route.

Several right-hand sides are solved as the columns of one (m, k) array,
kept column-major from end to end: a column-major rhs reaches LAPACK and
the rectangle's product stack with no copy, every answer comes back
column-major, and the backward-error check multiplies K into one
contiguous column at a time.  Other layouts give the same bits, after a
copy.  A FieldPair is one such (m, 2) array, the columns u and v, and only
this module stacks or splits the two: a parabolic step, the monotone
iteration and Newton's line search each solve or update a pair's block
and wrap the result with no copy.  The products K x_j of the accepted
answer leave solve_shifted through its ``products`` list when a caller
asks: a parabolic step hands on K u and K v, and the full diagnostic row
takes the cross term <A u, v>_w of the energy from them through
quadratic_form, with no second product.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.linalg import eigh_tridiagonal, get_lapack_funcs

from .problem import BoundarySpec, DomainSpec, RadialBall, Rectangle

__all__ = [
    "Grid",
    "DiscreteLaplacian",
    "FieldPair",
    "build_grid",
    "build_laplacian",
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
    plain cell areas of the interior nodes.  ``geometry`` and ``dimension``
    are read from ``domain``; the rectangle's interior node counts per axis
    are ``resolution`` minus one.
    """

    domain: DomainSpec
    boundary: BoundarySpec
    resolution: tuple[int, ...]
    h: tuple[float, ...]
    coords: np.ndarray            # (m,) radii for radial, (m,2) for rectangle
    center_dist: np.ndarray       # distance of each node to the domain centre
    weights: np.ndarray

    @property
    def geometry(self) -> str:
        """The domain's kind: "rectangle" or "radial"."""
        return "rectangle" if isinstance(self.domain, Rectangle) else "radial"

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    @property
    def size(self) -> int:
        return len(self.weights)

    @property
    def volume(self) -> float:
        """Discrete volume sum(w); the constant used by quadrature inequalities."""
        return float(np.sum(self.weights))


class FieldPair:
    """Nodal values of the two solution components on a grid.

    The pair is one column-major (m, 2) array ``block``; u and v are its
    columns, contiguous views of it.  ``block``, ``u``, ``v`` and ``grid``
    are bound once and cannot be rebound, but values may be edited in place.
    ``FieldPair(u, v, grid)`` copies u and v into a fresh block, and
    :meth:`wrap` takes a block, such as a shifted solve's answer, as it is.
    """

    __slots__ = ("block", "u", "v", "grid")

    def __new__(cls, u, v, grid: Grid):
        m = grid.size
        if len(u) != m or len(v) != m:
            raise ValueError("field length does not match grid degrees of freedom")
        block = np.empty((m, 2), order="F")
        block[:, 0], block[:, 1] = u, v
        return cls.wrap(block, grid)

    @classmethod
    def wrap(cls, block: np.ndarray, grid: Grid) -> "FieldPair":
        """The pair on ``block``, a column-major (m, 2) array, with no copy."""
        pair = object.__new__(cls)
        _SET_BLOCK(pair, block)
        _SET_U(pair, block[:, 0])
        _SET_V(pair, block[:, 1])
        _SET_GRID(pair, grid)
        return pair

    def __setattr__(self, name, value):
        raise AttributeError(f"FieldPair.{name} cannot be rebound: u and v are views of the block")

    @classmethod
    def zeros(cls, grid: Grid) -> "FieldPair":
        return cls.wrap(np.zeros((grid.size, 2), order="F"), grid)

    def copy(self) -> "FieldPair":
        return FieldPair.wrap(self.block.copy(order="F"), self.grid)

    def scaled(self, alpha: float) -> "FieldPair":
        return FieldPair.wrap(alpha * self.block, self.grid)

    def __sub__(self, other: "FieldPair") -> "FieldPair":
        return FieldPair.wrap(self.block - other.block, self.grid)

    @property
    def sup(self) -> float:
        return max(self.sup_u, self.sup_v)

    @property
    def sup_u(self) -> float:
        return float(np.abs(self.u).max()) if len(self.u) else 0.0

    @property
    def sup_v(self) -> float:
        return float(np.abs(self.v).max()) if len(self.v) else 0.0


# the slots' own setters: wrap binds through them, as FieldPair.__setattr__ refuses
_SET_BLOCK, _SET_U, _SET_V, _SET_GRID = (FieldPair.__dict__[name].__set__
                                          for name in FieldPair.__slots__)


@dataclass
class DiscreteLaplacian:
    """Symmetric stiffness form of -Lap with the boundary condition baked in.

    apply(x) evaluates A x = K x / w nodewise; quadratic_form(x, y) returns
    <A x, y>_w = x^T K y, exactly symmetric by construction.  ``boundary`` is
    the grid's.  The solve used by solve_shifted is derived from grid and K
    on construction, so an operator built by hand gets one too.
    """

    grid: Grid
    K: sp.csr_matrix
    # _solve(sigma, b) solves (sigma I + A) x = b for b of shape (m, k); x is column-major
    _solve: Callable[[float, np.ndarray], np.ndarray] = field(init=False, repr=False, compare=False)
    _op_scale: float = field(init=False, repr=False, compare=False)  # 2 max(K_ii / w_i)
    # the rectangle's (lam, G, F) per axis, shared by _solve and principal_vector
    _axes: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self):
        w = self.grid.weights
        self._op_scale = 2.0 * float(np.max(self.K.diagonal() / w))
        if self.grid.geometry == "rectangle":
            self._axes = tuple(_axis_eigenbasis(*axis) for axis in _rectangle_axes(self.grid))
            (lx, Gx, Fx), (ly, Gy, Fy) = self._axes
            maps = [Fx, np.ascontiguousarray(Fy.T), Gx, np.ascontiguousarray(Gy.T),
                    lx[:, None] + ly[None, :]]
            for a in maps:
                a.flags.writeable = False
            self._solve = partial(_eigenbasis_solve, *maps)
        else:
            off = self.K.diagonal(-1)
            off.flags.writeable = False     # pttrf gets a copy; the band stays K's
            pttrf, pttrs = get_lapack_funcs(("pttrf", "pttrs"), (w,))
            self._solve = partial(_tridiagonal_solve, pttrf, pttrs, self.K.diagonal(), off, w,
                                  _KeptFactors())

    @property
    def boundary(self) -> BoundarySpec:
        return self.grid.boundary

    def apply(self, x: np.ndarray) -> np.ndarray:
        return (self.K @ x) / self.grid.weights

    @cached_property
    def principal_vector(self) -> np.ndarray:
        """Sup-normalised lowest eigenvector of A, positive at every node.

        On the rectangle it is the product of each axis's lowest
        eigenvector, from the eigenbases the solve uses, with no solve.  On
        radial grids it is elliptic._principal_eigenvector, inverse
        iteration to its fixed point.  Computed once per operator and
        read-only: the Newton seed and the threshold certificates share it.
        """
        if self._axes:
            (_, Gx, _), (_, Gy, _) = self._axes
            x = np.abs(np.outer(Gx[:, 0], Gy[:, 0])).ravel()
            x /= x.max()
        else:
            from .elliptic import _principal_eigenvector   # elliptic imports this module

            x = _principal_eigenvector(self)
        x.flags.writeable = False
        return x

    def quadratic_form(self, x: np.ndarray, y: np.ndarray,
                       products: Sequence[np.ndarray] | None = None) -> float:
        """<A x, y>_w = x^T K y, the discrete grad-grad integral.

        Bitwise symmetric in (x, y); on Robin operators it includes the
        boundary term beta * integral of x*y over the boundary.
        ``products`` is (K x, K y) when the caller holds them already, as
        solve_shifted hands them out for its answer's columns; the form is
        then bitwise the one it computes from x and y.
        """
        Kx, Ky = (self.K @ x, self.K @ y) if products is None else products
        return float(0.5 * (Ky @ x + Kx @ y))


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
        domain=domain,
        boundary=boundary,
        resolution=(n,),
        h=(h,),
        coords=r,
        center_dist=r,
        weights=w,
    )


def _rectangle_grid(domain: Rectangle, boundary: BoundarySpec, nx: int, ny: int) -> Grid:
    hx, hy = domain.lx / nx, domain.ly / ny
    with np.errstate(divide="ignore", over="ignore"):   # sides near the float range
        scales = np.array([hx * hy, *(1.0 / np.square([hx, hy]))])   # what K is built from
    if not np.all(np.isfinite(scales) & (scales > 0)):
        raise GridError(f"rectangle {domain.lx:g} x {domain.ly:g} is out of range at resolution "
                        f"({nx}, {ny}): hx*hy, 1/hx^2 or 1/hy^2 is not a positive finite float")
    x = np.arange(1, nx) * hx
    y = np.arange(1, ny) * hy
    X, Y = np.meshgrid(x, y, indexing="ij")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    center = np.array([domain.lx / 2, domain.ly / 2])
    dist = np.linalg.norm(pts - center, axis=1)
    w = np.full(len(pts), hx * hy)
    return Grid(
        domain=domain,
        boundary=boundary,
        resolution=(nx, ny),
        h=(hx, hy),
        coords=pts,
        center_dist=dist,
        weights=w,
    )


def build_laplacian(grid: Grid) -> DiscreteLaplacian:
    """Assemble the stiffness matrix K for -Lap on the grid.

    Radial rows are conservative flux differences with face coefficients
    sigma * r^(N-1) evaluated at cell faces; the origin row uses the zero
    flux forced by symmetry.  Robin adds beta times the boundary area to the
    boundary diagonal, which is exactly the boundary term produced by
    integration by parts.  The rectangle's K is kron(K_x, W_y) +
    kron(W_x, K_y) of its two axes.  All variants are symmetric M-matrices.
    """
    if grid.geometry == "rectangle":
        (dx, ox, wx), (dy, oy, wy) = _rectangle_axes(grid)
        Kx, Ky = _band_matrix(dx, ox), _band_matrix(dy, oy)
        K = (sp.kron(Kx, sp.diags(wy)) + sp.kron(sp.diags(wx), Ky)).tocsr()
    else:
        K = _radial_stiffness(grid)
    return DiscreteLaplacian(grid=grid, K=K)


def _axis_stiffness(face: np.ndarray, left: float, right: float) -> tuple[np.ndarray, np.ndarray]:
    """Tridiagonal stiffness of a conservative 1-D axis, a symmetric M-matrix,
    as its bands (diagonal, off-diagonal).

    ``face`` holds the conductances of the faces between neighbouring nodes,
    and row i is the flux difference across node i's two faces.  At each end
    a closure stands in for the missing face: 0 for symmetry at the origin,
    the face conductance to an eliminated Dirichlet value, or the Robin term
    beta times the boundary area.
    """
    diag = np.concatenate(([left], face)) + np.concatenate((face, [right]))
    return diag, -face


def _band_matrix(diag: np.ndarray, off: np.ndarray) -> sp.csr_matrix:
    """The symmetric tridiagonal CSR matrix with these bands."""
    return sp.diags([off, diag, off], [-1, 0, 1], format="csr")


def _radial_stiffness(grid: Grid) -> sp.csr_matrix:
    domain = grid.domain
    N, R = domain.dimension, domain.radius
    (h,) = grid.h
    sigma = domain.sphere_area
    face = (np.arange(grid.size - 1) + 0.5) * h
    if grid.boundary.kind == "robin":
        # flux through r = R:  sigma * R^(N-1) * u'(R) = -beta * sigma * R^(N-1) * u(R)
        right = sigma * R ** (N - 1) * grid.boundary.beta
    else:
        # coupling to the eliminated boundary value through the face at R - h/2
        right = sigma * ((grid.size - 0.5) * h) ** (N - 1) / h
    return _band_matrix(*_axis_stiffness(sigma * face ** (N - 1) / h, 0.0, right))


def _rectangle_axes(grid: Grid) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """(diag, off, w) of each uniform Dirichlet axis on its n - 1 interior
    nodes: the stiffness bands for conductance 1/h on every face, those to
    the boundary too, and node weights h."""
    return [(*_axis_stiffness(np.full(n - 2, 1.0 / h), 1.0 / h, 1.0 / h), np.full(n - 1, h))
            for n, h in zip(grid.resolution, grid.h)]


def _axis_eigenbasis(diag: np.ndarray, off: np.ndarray,
                     w: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(lam, G, F) of one axis with stiffness bands (diag, off) and weights w:
    W^-1 K = G diag(lam) F and F G = I, lam ascending.

    M = W^-1/2 K W^-1/2 is symmetric tridiagonal; eigh_tridiagonal gives
    M = Q diag(lam) Q^T, so G = W^-1/2 Q and F = Q^T W^1/2.
    """
    s = np.sqrt(w)
    lam, Q = eigh_tridiagonal(diag / w, off / (s[:-1] * s[1:]))
    return lam, Q / s[:, None], Q.T * s


class _KeptFactors:
    """(sigma, d, e): pttrf's LDL^T factors (d, e) of sigma*W + K for the last
    sigma factorised, one tuple so that it is read and replaced whole; None
    before the first solve."""

    __slots__ = ("last",)

    def __init__(self):
        self.last = None


def _tridiagonal_solve(pttrf: Callable, pttrs: Callable, diag: np.ndarray, off: np.ndarray,
                       w: np.ndarray, kept: _KeptFactors, sigma: float, b: np.ndarray
                       ) -> np.ndarray:
    """Radial route: LAPACK pttrf's LDL^T of sigma*W + K, kept for the last sigma, and pttrs.

    K's diagonal and off-diagonal are given.  ptsv is pttrf followed by
    pttrs, and ptsv is the call scipy's solveh_banded makes for a two-row
    band, so the answer is bitwise the same, without its validation:
    solve_shifted has already refused non-finite data.  The factors of the
    last sigma are kept in ``kept``, and sigma*W + K is factorised again only
    when sigma changes: a run of steps at one step size, and a refinement
    step, reuse them.  A failed factorisation raises and is never kept.
    The shifted diagonal is a fresh array that pttrf may overwrite, and the
    off-diagonal, K's, is copied.  The weighted right-hand side is a fresh
    array that keeps b's layout, so a column-major b reaches pttrs with no
    copy.
    """
    last = kept.last
    if last is None or last[0] != sigma:
        d, e, info = pttrf(sigma * w + diag, off, overwrite_d=True)
        if info > 0:   # e.g. a Robin beta near 0 with sigma = 0
            raise LinearSolveError("operator singular to float precision: "
                                   f"{info}th leading minor not positive definite", np.inf)
        kept.last = last = (sigma, d, e)
    return pttrs(last[1], last[2], w[:, None] * b, overwrite_b=True)[0]


def _eigenbasis_solve(Fx: np.ndarray, FyT: np.ndarray, Gx: np.ndarray, GyT: np.ndarray,
                      eig: np.ndarray, sigma: float, b: np.ndarray) -> np.ndarray:
    """Rectangle route: each axis's forward map, division by sigma + eig, inverse maps.

    Each column of b is laid out as an (mx, my) array B, so with the columns
    stacked first the forward map is ``Fx @ B @ Fy^T`` and the inverse
    ``Gx @ C @ Gy^T``: four BLAS products for any number of columns.  The
    y maps are held transposed and contiguous, and eig holds the sums
    lam_x[i] + lam_y[j].  For a column-major b the stack is a view of it,
    with no copy.  The answer is the (k, m) stack transposed, so it is
    column-major too.

    Where the solution of a nonnegative column is tiny, the maps leave
    rounding-level negatives (a few 1e-16 of its maximum); those are set to
    zero in place in that column's contiguous row of the stack, so the
    rectangle keeps the discrete maximum principle exactly, as the banded
    route does.  A column is nonnegative when its minimum is >= 0, so a
    column holding a NaN is never clipped.  This clip runs in every
    rectangle step and every GMRES preconditioner application.
    """
    k = b.shape[1]
    coef = Fx @ b.T.reshape(k, *eig.shape) @ FyT
    coef /= sigma + eig
    x = (Gx @ coef @ GyT).reshape(k, -1)
    for row, col in zip(x, b.T):
        if col.min() >= 0:
            np.copyto(row, 0.0, where=row < 0)
    return x.T


def solve_shifted(A: DiscreteLaplacian, sigma: float, rhs: np.ndarray, *,
                  products: list | None = None) -> np.ndarray:
    """Solve (sigma*I + A) x = rhs to relative residual <= 1e-12.

    sigma >= 0 keeps the system positive definite.  rhs may be (m,) or
    (m, k) for multiple right-hand sides; an (m, k) answer is column-major,
    and a column-major rhs, as parabolic.step builds, is solved and checked
    without a copy.  A sigma or rhs that is not finite raises ValueError on
    every route.  Radial operators solve the tridiagonal system
    sigma*W + K with LAPACK ``pttrs`` from ``pttrf``'s LDL^T factors, which
    the operator keeps for the last sigma and computes again only when
    sigma changes; the rectangle factorises nothing: it maps b into the
    product of its axes' eigenbases, divides by the shifted eigenvalue sums
    and maps back.  One step of iterative refinement follows if the first
    solve misses the contract; it reuses the kept factors.

    The residual contract is the normwise backward error in the weighted L2
    norm, ||rhs - (sigma I + A) x|| / (||rhs|| + ||sigma I + A|| * ||x||),
    per column; a column whose denominator is 0 (rhs and x both 0) is
    empty.  Evaluating the residual itself carries eps/h^2 rounding from the
    operator rows, so the plain ||res||/||rhs|| quotient bottoms out around
    1e-11 on fine grids no matter how exact the solve is.  The residual is
    taken from A.K on every call, so a solve that does not match K raises
    LinearSolveError rather than returning a wrong answer.  So does data
    whose norms overflow, since its backward error cannot be evaluated;
    numpy warns about that overflow unless the caller's error state, as in
    parabolic.evolve, ignores it.

    The check multiplies K into each column of x.  A caller that wants
    those products passes a list as ``products``: it is filled with K x_j
    for each column j of the returned x, the answer the check accepted
    (after a refinement step, the refined one).  parabolic.step hands them
    on, so a full diagnostic row reads K u and K v without forming them
    again.
    """
    if sigma < 0:
        raise ValueError("solve_shifted requires sigma >= 0")
    rhs = np.asarray(rhs, dtype=float)
    if not (math.isfinite(sigma) and np.isfinite(rhs).all()):
        raise ValueError("solve_shifted requires a finite sigma and rhs")
    single = rhs.ndim == 1
    b = rhs[:, None] if single else rhs
    x = A._solve(sigma, b)

    # written so that a NaN error, from norms that overflowed, fails the contract
    rel, res, kx = _backward_error(A, sigma, b, x)
    if not rel <= 1e-12:
        if not math.isfinite(rel):
            raise LinearSolveError("norms overflow on data near the float range", rel)
        x = x + A._solve(sigma, res)
        rel, _, kx = _backward_error(A, sigma, b, x)
        if not rel <= 1e-12:
            raise LinearSolveError("shifted solve failed to converge", rel)
    if products is not None:
        products[:] = kx
    return x[:, 0] if single else x


def _backward_error(A: DiscreteLaplacian, sigma: float, b: np.ndarray, x: np.ndarray
                    ) -> tuple[float, np.ndarray, list[np.ndarray]]:
    """(largest backward error over the columns of x, residual b - (sigma I + A) x,
    the products K x_j per column).

    Column-major like the answers: one product with A.K per contiguous
    column of x, divided by the weights into that column of a column-major
    residual, the rest in place.  scipy sums each row of a CSR product with
    one vector in the same order as with a block, so the residual is
    bitwise the block product's, without the block product's copy of x and
    its slower multi-vector loop.  The products themselves are returned
    untouched: K x_j is bitwise what ``A.K @ x[:, j]`` gives anywhere else.
    Each weighted sum of squares is one product with w over the columns;
    the square roots and the quotient are then taken per column in Python
    floats, the same correctly rounded operations in the same order as the
    plain formula, so the error is bitwise the plain formula's.  A NaN
    quotient, from norms that overflowed, is returned as NaN.
    """
    w = A.grid.weights
    res = np.empty(x.shape, order="F")
    kx = []
    for c, r in zip(x.T, res.T):
        kc = A.K @ c
        np.divide(kc, w, out=r)
        kx.append(kc)
    res += sigma * x
    np.subtract(b, res, out=res)
    scale = sigma + A._op_scale
    rel = 0.0
    # each column's weighted sum of squares, the square of its weighted L2 norm
    for sb, sx, sr in zip(*((w @ np.square(z)).tolist() for z in (b, x, res))):
        denom = math.sqrt(sb) + scale * math.sqrt(sx)
        if denom:           # an empty column (rhs and x both 0) has no error; NaN is kept
            q = math.sqrt(sr) / denom
            if q > rel or q != q:
                rel = q
    return rel, res, kx


def integrate(grid: Grid, x: np.ndarray) -> float:
    """Quadrature sum(w_i * x_i) realising the domain integral."""
    if len(x) != grid.size:
        raise ValueError("length mismatch")
    return float(np.dot(grid.weights, x))
