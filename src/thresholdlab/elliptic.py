"""Steady states: Newton solves, monotone iteration, extremal forcing scale, shooting.

The steady system on the grid reads

    A u = |v|^(p-1) v + lam*f,    A v = |u|^(q-1) u + lam*f,

with f the problem's one unit source (ForcingSpec).

The sign-preserving power extends x^s off the nonnegative cone while keeping
the nonlinearity monotone, so the discrete comparison principle survives;
on positive data it agrees with the plain power.

Residual norms are weighted-L2 and *relative*: the raw residual norm is
divided by (1 + weighted-L2 norm of the reaction plus forcing terms).  This
is the "scaled units" in which the steady tolerance 1e-10 is meant;
the raw norm has a float64 rounding floor of order sup(u)/h^2 * 1e-16 which
would make an absolute 1e-10 unreachable on fine grids.

Newton assembles and factorises no matrix.  Its linear step is one banded
solve on radial grids and preconditioned GMRES on the rectangle (see
_newton_step); scipy.sparse.linalg, which provides GMRES, is imported only
on the rectangle route.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from scipy.linalg import solve_banded

from .discrete import (
    DiscreteLaplacian,
    FieldPair,
    Grid,
    GridError,
    build_grid,
    build_laplacian,
    integrate,
    solve_shifted,
)
from .problem import BoundarySpec, ExponentPair, ProblemSpec, RadialBall

__all__ = [
    "DEFAULT_STEADY_TOL",
    "Equilibrium",
    "MonotoneResult",
    "LambdaStarResult",
    "ShootingResult",
    "residual",
    "residual_norm",
    "relative_residual",
    "solve_newton",
    "solve_monotone",
    "lambda_star",
    "shooting_oracle",
    "forcing_arrays",
    "signed_power",
    "EllipticError",
    "MaxIterationsError",
    "SingularJacobianError",
    "NonPositiveSolutionError",
    "AmplitudeOverflowError",
    "ConvergedToKnownError",
    "MonotonicityError",
    "InvalidBracketError",
    "RootFindFailure",
]

DEFAULT_STEADY_TOL = 1e-10
NEWTON_CAP = 50
NEWTON_HALVINGS = 30
M_BIG = 1e8
MONOTONE_CAP = 10_000
BC_TOL = 1e-10
SHOOTING_TOL = 1e-13
#: Where every radial run starts from the series at the centre, as a
#: fraction of the ball radius.
SERIES_R0 = 1e-8
#: Relative true residual each GMRES Newton step on the rectangle must meet,
#: within KRYLOV_CYCLES cycles of GMRES(20).  A cycle ends once the
#: preconditioned residual meets it; the next one starts if the true one
#: does not.
KRYLOV_TOL = 1e-12
KRYLOV_CYCLES = 10


class EllipticError(RuntimeError):
    pass


class MaxIterationsError(EllipticError):
    def __init__(self, best_residual: float, iterations: int, stalled: bool = False):
        why = "line search found no decrease" if stalled else "iteration cap reached"
        super().__init__(
            f"no convergence in {iterations} iterations: {why} "
            f"(best residual {best_residual:.3e})"
        )
        self.best_residual = best_residual


class SingularJacobianError(EllipticError):
    """Newton's linear step has no usable solution: a singular banded Jacobian,
    a non-finite step, or a GMRES step that missed KRYLOV_TOL."""


class NonPositiveSolutionError(EllipticError):
    """Converged, but the limit is not strictly positive (e.g. the zero state)."""

    def __init__(self, pair: FieldPair, residual: float):
        super().__init__(f"converged to a nonpositive solution (residual {residual:.3e})")
        self.pair = pair
        self.residual = residual


class AmplitudeOverflowError(EllipticError):
    """The amplitude scale lam1^((p+1)/(pq-1)) leaves the float range (pq close to 1)."""


class ConvergedToKnownError(EllipticError):
    """Deflation failed to escape an already-known solution."""


class MonotonicityError(EllipticError):
    """A monotone iterate decreased: scheme bug or broken comparison principle."""


class InvalidBracketError(ValueError):
    pass


class RootFindFailure(EllipticError):
    def __init__(self, bc_residual: float):
        super().__init__(f"shooting root find failed (boundary residual {bc_residual:.3e})")
        self.bc_residual = bc_residual


def signed_power(x: np.ndarray, s: float) -> np.ndarray:
    """|x|^(s-1) * x; equals x^s for x >= 0 and is increasing in x."""
    return np.sign(x) * np.abs(x) ** s


def forcing_arrays(spec: ProblemSpec, grid: Grid) -> np.ndarray:
    """Nodal values of lam*f, the forcing of both equations."""
    lam = spec.forcing.lam
    if lam == 0.0:
        return np.zeros(grid.size)
    return lam * spec.forcing.source(grid.center_dist)


@dataclass
class Equilibrium:
    """A certified steady solution: the one admission of a steady state.

    Invariants enforced at construction, with no per-instance tolerance:
    relative residual at most DEFAULT_STEADY_TOL (ValueError otherwise), and
    strict positivity at every degree of freedom (NonPositiveSolutionError
    otherwise).  Callers rely on both and check neither again.  ``method``
    records the route: newton | monotone.
    """

    pair: FieldPair
    residual_norm: float
    problem: ProblemSpec
    method: str

    def __post_init__(self):
        if self.residual_norm > DEFAULT_STEADY_TOL:
            raise ValueError(
                f"equilibrium residual {self.residual_norm:.3e} exceeds {DEFAULT_STEADY_TOL:.1e}"
            )
        if min(self.pair.u.min(), self.pair.v.min()) <= 0:
            raise NonPositiveSolutionError(self.pair, self.residual_norm)


def _reaction(spec: ProblemSpec, pair: FieldPair, forcing) -> FieldPair:
    """(|v|^(p-1) v + lam f, |u|^(q-1) u + lam f) at ``pair``; ``forcing`` is forcing_arrays'.

    The right-hand side of the steady system, and the explicit terms of a
    parabolic step, which finishes the fresh block in place.
    """
    r = FieldPair.wrap(np.empty((pair.grid.size, 2), order="F"), pair.grid)
    np.add(signed_power(pair.v, spec.p), forcing, out=r.u)
    np.add(signed_power(pair.u, spec.q), forcing, out=r.v)
    return r


def _steady_residual(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair):
    """_residual_parts at (bu, bv) = _reaction(pair), the steady system."""
    b = _reaction(spec, pair, forcing_arrays(spec, A.grid))
    return _residual_parts(A, pair, b.u, b.v)


def residual(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair) -> FieldPair:
    """Residual fields (A u - |v|^(p-1)v - lam f, A v - |u|^(q-1)u - lam f)."""
    return _steady_residual(spec, A, pair)[0]


def residual_norm(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair) -> float:
    """Relative weighted-L2 residual norm; see the module docstring."""
    return _steady_residual(spec, A, pair)[2]


def relative_residual(
    A: DiscreteLaplacian, pair: FieldPair, bu: np.ndarray, bv: np.ndarray
) -> float:
    """||(A u - bu, A v - bv)|| / (1 + ||(bu, bv)||) in the weighted L2 norm.

    The one relative residual of the steady systems: (bu, bv) holds the
    reaction plus forcing terms of whichever system ``pair`` should solve.
    """
    return _residual_parts(A, pair, bu, bv)[2]


def _residual_parts(A, pair, bu, bv) -> tuple[FieldPair, float, float]:
    """Residual fields (A u - bu, A v - bv), their raw weighted-L2 norm and relative_residual."""
    grid = A.grid
    r = FieldPair.wrap(np.empty((grid.size, 2), order="F"), grid)
    np.subtract(A.apply(pair.u), bu, out=r.u)
    np.subtract(A.apply(pair.v), bv, out=r.v)
    raw = math.sqrt(integrate(grid, r.u**2) + integrate(grid, r.v**2))
    scale = 1.0 + math.sqrt(integrate(grid, bu**2) + integrate(grid, bv**2))
    return r, raw, raw / scale


def _principal_eigenvector(A: DiscreteLaplacian, iters: int = 60) -> np.ndarray:
    """Lowest eigenvector of A by inverse power iteration, sup-normalised.

    Stops at the floating-point fixed point, the first iterate bitwise
    equal to its predecessor, or after ``iters`` solves; either way the
    result is the ``iters``-step vector, bitwise.  Callers use the
    operator's cached copy, ``A.principal_vector``, which runs this on
    radial grids only; the rectangle's comes from its axes' eigenbases.
    """
    x = np.ones(A.grid.size)
    for _ in range(iters):
        prev, x = x, solve_shifted(A, 0.0, x)
        x /= np.max(np.abs(x))
        if np.array_equal(x, prev):
            break
    return x


def _amplitudes(spec: ProblemSpec, lam1: float) -> tuple[float, float]:
    """(c_u, c_v) = (lam1^((p+1)/(pq-1)), lam1^((q+1)/(pq-1)))."""
    p, q = spec.p, spec.q
    try:
        return lam1 ** ((p + 1) / (p * q - 1)), lam1 ** ((q + 1) / (p * q - 1))
    except OverflowError:
        raise AmplitudeOverflowError(
            f"amplitude lam1^((p+1)/(pq-1)) = {lam1:.6g}^{(p + 1) / (p * q - 1):.6g} "
            f"overflows (pq = {p * q:.6g})"
        ) from None


def _amplitude_prescan(spec, A, shape: np.ndarray, lam1: float) -> FieldPair:
    """Seed t*(c_u shape, c_v shape) with t minimising the scale-relative residual.

    The component amplitudes come from balancing diffusion against reaction
    at the Rayleigh quotient lam1 of the shape: c_u = lam1^((p+1)/(pq-1)) and
    c_v = lam1^((q+1)/(pq-1)), which for p = q reduces to the familiar
    lam1^(1/(p-1)) scale.  The plain residual vanishes as t -> 0 (the zero
    state solves the unforced system), so the scan minimises ||R|| / t over
    120 geometric steps of t in [1e-2, 1e2], taking the first minimum.

    The shape is positive, so along the ray the residual components are
    fixed combinations of three vectors each,
    R_u = (t c_u) A shape - (t c_v)^p shape^p - lam f and
    R_v = (t c_v) A shape - (t c_u)^q shape^q - lam f,
    and ||R||^2 is a quadratic form in their coefficients: one weighted Gram
    matrix per component, built once, prices every scan point in O(1).
    Scan points whose norm is not finite are skipped.
    """
    grid = A.grid
    c_u, c_v = _amplitudes(spec, lam1)
    f = forcing_arrays(spec, grid)
    a_shape = A.apply(shape)
    ts = np.geomspace(1e-2, 1e2, 120)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (_ray_square(grid, (a_shape, shape**spec.p, f), ts * c_u, (ts * c_v) ** spec.p)
              + _ray_square(grid, (a_shape, shape**spec.q, f), ts * c_v, (ts * c_u) ** spec.q))
        merit = np.sqrt(np.maximum(sq, 0.0)) / ts   # round-off can leave sq just below 0
    merit[~np.isfinite(merit)] = np.inf
    best = np.argmin(merit)
    if merit[best] == np.inf:
        raise EllipticError("amplitude pre-scan found no finite residual")
    best_t = ts[best]
    return FieldPair(best_t * c_u * shape, best_t * c_v * shape, grid)


def _ray_square(grid: Grid, vectors, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """||a_k x - b_k y - z||_w^2 for each scan point k, with (x, y, z) = vectors."""
    V = np.stack(vectors)
    G = (V * grid.weights) @ V.T
    C = np.stack([a, -b, -np.ones_like(a)])
    return np.einsum("ik,ij,jk->k", C, G, C)


def _distance2(grid: Grid, a: FieldPair, b: FieldPair) -> float:
    """||a - b||_w^2, the squared weighted-L2 distance between two pairs."""
    return integrate(grid, (a.u - b.u) ** 2 + (a.v - b.v) ** 2)


def _deflation_factor(grid: Grid, pair: FieldPair, known: Sequence[FieldPair]) -> float:
    """Merit multiplier prod_k (1/||pair - pair_k||_w^2 + 1) repelling known solutions."""
    factor = 1.0
    for k in known:
        d2 = _distance2(grid, pair, k)
        if d2 == 0.0:
            return math.inf
        factor *= 1.0 / d2 + 1.0
    return factor


def solve_newton(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    initial_guess: Optional[FieldPair] = None,
    deflation_against: Optional[Sequence[Equilibrium]] = None,
) -> Equilibrium:
    """Damped Newton on the coupled steady system.

    The Jacobian blocks are (A, -diag(p|v|^(p-1)); -diag(q|u|^(q-1)), A).
    Each step solves them without assembling J: exactly, by one banded
    solve of the interleaved unknowns, on radial grids, and by GMRES
    preconditioned with A^-1 to a true relative residual of KRYLOV_TOL on
    the rectangle; a step that cannot be solved raises
    SingularJacobianError.  A step is accepted only if the merit decreases,
    with at most NEWTON_HALVINGS backtracking halvings, for at most
    NEWTON_CAP iterations.  The merit is the raw weighted-L2 residual norm
    (times the deflation factor when known solutions are supplied), which
    Newton's direction descends; the relative norm falls as the amplitude
    grows and would accept overshoots.  Convergence is judged by the
    relative norm against DEFAULT_STEADY_TOL, the bound the returned
    Equilibrium enforces, evaluated from the residual itself, so the linear
    solve's accuracy does not enter it.  A limit that is not strictly
    positive raises NonPositiveSolutionError; one within deflation distance
    of a known solution raises ConvergedToKnownError.  Without a guess the
    one seed is an amplitude pre-scan along the principal eigenvector of A.
    """
    known = [e.pair for e in (deflation_against or [])]
    if initial_guess is not None:
        return _newton(spec, A, initial_guess.copy(), known)
    shape = A.principal_vector
    lam1 = A.quadratic_form(shape, shape) / integrate(A.grid, shape**2)
    return _newton(spec, A, _amplitude_prescan(spec, A, shape, lam1), known)


def _newton(spec, A, pair, known) -> Equilibrium:
    """solve_newton's iteration from the seed ``pair``, one residual evaluation per iterate."""
    grid = A.grid
    r, raw, rn = _steady_residual(spec, A, pair)
    merit = raw * _deflation_factor(grid, pair, known)
    best = rn
    p, q = spec.p, spec.q

    for iteration in range(1, NEWTON_CAP + 1):
        if rn <= DEFAULT_STEADY_TOL:
            return _finish_newton(spec, A, pair, rn, known)
        delta = _newton_step(A, p * np.abs(pair.v) ** (p - 1), q * np.abs(pair.u) ** (q - 1), r)

        step = 1.0
        for _ in range(NEWTON_HALVINGS):
            trial = FieldPair.wrap(pair.block + step * delta, grid)
            trial_r, trial_raw, trial_rn = _steady_residual(spec, A, trial)
            trial_merit = trial_raw * _deflation_factor(grid, trial, known)
            if trial_merit < merit:
                pair, r, rn, merit = trial, trial_r, trial_rn, trial_merit
                break
            step /= 2
        else:
            raise MaxIterationsError(best, iteration, stalled=True)
        best = min(best, rn)

    if rn <= DEFAULT_STEADY_TOL:
        return _finish_newton(spec, A, pair, rn, known)
    raise MaxIterationsError(best, NEWTON_CAP)


def _newton_step(A: DiscreteLaplacian, sv: np.ndarray, su: np.ndarray,
                 r: FieldPair) -> np.ndarray:
    """Newton's step (du, dv), the solution of J (du, dv) = -(r.u, r.v), as a pair's block.

    J = (A, -diag(sv); -diag(su), A) with sv = p|v|^(p-1) and su = q|u|^(q-1).
    Nothing is assembled or factorised, and the route splits as the
    operator's shifted solve does.  On radial grids A is tridiagonal, so with
    the unknowns interleaved as (u_0, v_0, u_1, v_1, ...) J has two sub- and
    two super-diagonals, and one banded solve is exact.  On the Dirichlet
    rectangle GMRES applies J matrix-free, preconditioned block-diagonally by
    A^-1 through the eigenbasis solve; its true residual ||J delta + r||
    must be at most KRYLOV_TOL ||r||.  A singular band, a non-finite step or a
    missed Krylov tolerance raises SingularJacobianError.
    """
    grid = A.grid
    m = grid.size
    w = grid.weights
    rhs = -r.block.ravel()          # row by row: interleaved, as the unknowns
    if grid.geometry == "rectangle":
        from scipy.sparse.linalg import LinearOperator, gmres   # only the rectangle needs it

        coupling = np.column_stack([sv, su])

        def jac(x):
            z = x.reshape(m, 2)         # columns (u, v); z[:, ::-1] is (v, u)
            return ((A.K @ z) / w[:, None] - coupling * z[:, ::-1]).ravel()

        # A._solve, not solve_shifted: a preconditioner needs no backward-error check
        precond = lambda x: A._solve(0.0, x.reshape(m, 2)).ravel()
        shape = (2 * m, 2 * m)
        delta, _ = gmres(LinearOperator(shape, jac), rhs, rtol=KRYLOV_TOL, atol=0.0, restart=20,
                         maxiter=KRYLOV_CYCLES, M=LinearOperator(shape, precond))
        miss = np.linalg.norm(jac(delta) - rhs) / np.linalg.norm(rhs)
        if not miss <= KRYLOV_TOL:
            nx, ny = grid.resolution
            raise SingularJacobianError(
                f"GMRES Newton step missed its tolerance: true relative residual {miss:.3e} "
                f"> {KRYLOV_TOL:.0e} after {KRYLOV_CYCLES} cycles on the {nx}x{ny} grid; "
                "large exponents on a coarse rectangle may be under-resolved, and a finer "
                "--resolution may help")
    else:
        band = np.zeros((5, 2 * m))         # rows: offsets +2, +1, 0, -1, -2
        band[0, 2:] = np.repeat(A.K.diagonal(1) / w[:-1], 2)
        band[1, 1::2] = -sv
        band[2] = np.repeat(A.K.diagonal() / w, 2)
        band[3, 0::2] = -su
        band[4, :-2] = np.repeat(A.K.diagonal(-1) / w[1:], 2)
        try:
            delta = solve_banded((2, 2), band, rhs, overwrite_ab=True, check_finite=False)
        except np.linalg.LinAlgError as exc:
            raise SingularJacobianError(f"singular Newton Jacobian: {exc}") from exc
    if not np.all(np.isfinite(delta)):
        raise SingularJacobianError("non-finite Newton step")
    return np.asfortranarray(delta.reshape(m, 2))


def _finish_newton(spec, A, pair, rn, known) -> Equilibrium:
    """The Equilibrium at a converged iterate, unless it is a known solution."""
    grid = A.grid
    eq = Equilibrium(pair, rn, spec, "newton")
    for k in known:
        d2 = _distance2(grid, pair, k)
        scale2 = max(integrate(grid, k.u**2 + k.v**2), 1.0)
        if d2 <= 1e-12 * scale2:
            raise ConvergedToKnownError("deflated solve returned a known solution")
    return eq


@dataclass
class MonotoneResult:
    """Outcome of the monotone iteration.

    status: "converged" | "diverged" | "capped".  "diverged" means the
    sup-norm passed M_BIG, so the forcing scale lies above the solvable
    range; "capped" means MONOTONE_CAP steps ended with neither, which
    decides nothing (near the fold the climb is slow).  ``iterations``
    counts Picard steps of the unshifted map; see solve_monotone.
    """

    status: str
    pair: FieldPair
    residual_norm: float
    iterations: int

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def equilibrium(self, spec: ProblemSpec) -> Equilibrium:
        if not self.converged:
            raise EllipticError(f"monotone iteration did not converge ({self.status})")
        return Equilibrium(self.pair, self.residual_norm, spec, "monotone")


def solve_monotone(spec: ProblemSpec, A: DiscreteLaplacian) -> MonotoneResult:
    """Monotone fixed-point iteration climbing from (0,0).

    Update: the Picard map A u_new = |v|^(p-1)v + lam f, A v_new =
    |u|^(q-1)u + lam f.  Each equation's reaction depends only on the other
    component, and A^-1 >= 0 (A is an M-matrix), so the map is already
    order preserving with no shift: the iterates are nondecreasing and, with
    lam > 0, climb to the minimal solution (Sattinger 1972).  Near that
    limit an error mode with eigenvalue mu of A and reaction slope kappa
    < mu contracts by kappa/mu per step; a shift sigma would make that
    (sigma + kappa)/(sigma + mu), which is closer to 1, so it only slows
    convergence.  The reaction of each iterate is evaluated once and serves
    both the stopping test and the next right-hand side.  Every step asserts
    monotonicity; a decrease beyond rounding raises MonotonicityError.  The
    run ends in one of MonotoneResult's three states.
    """
    grid = A.grid
    forcing = forcing_arrays(spec, grid)
    pair = FieldPair.zeros(grid)
    b = FieldPair(forcing, forcing, grid)
    rn = relative_residual(A, pair, b.u, b.v)
    if rn <= DEFAULT_STEADY_TOL:
        return MonotoneResult("converged", pair, rn, 0)

    for k in range(1, MONOTONE_CAP + 1):
        new = FieldPair.wrap(solve_shifted(A, 0.0, b.block), grid)
        slack = 1e-12 * max(1.0, pair.sup)
        if np.min(new.u - pair.u) < -slack or np.min(new.v - pair.v) < -slack:
            raise MonotonicityError(f"iterate decreased at step {k}")
        pair = new
        if pair.sup > M_BIG:
            return MonotoneResult("diverged", pair, math.inf, k)
        b = _reaction(spec, pair, forcing)
        rn = relative_residual(A, pair, b.u, b.v)
        if rn <= DEFAULT_STEADY_TOL:
            return MonotoneResult("converged", pair, rn, k)
    return MonotoneResult("capped", pair, rn, MONOTONE_CAP)


@dataclass
class LambdaStarResult:
    bracket: tuple[float, float]
    probes: list = field(default_factory=list)   # (lam, converged) pairs in probe order

    @property
    def lambda_hat(self) -> float:
        """The midpoint of ``bracket``."""
        lo, hi = self.bracket
        return 0.5 * (lo + hi)


def lambda_star(
    spec_template: ProblemSpec,
    A: DiscreteLaplacian,
    bracket: tuple[float, float],
    rel_tol: float,
) -> LambdaStarResult:
    """Bisect the extremal forcing scale on solvability.

    Predicate: an Equilibrium is admitted at scale lam, the monotone limit
    or, when the iteration is capped, Newton's solve from its last iterate.
    Any positive solution bounds the monotone iterates from (0,0) (Sattinger
    1972; Keener & Keller 1974), so one admitted Equilibrium proves lam
    solvable.  It must hold at bracket[0] and fail at bracket[1].
    Bisection stops once the bracket's relative width is at most
    ``rel_tol``, or once its ends are adjacent floats, whose midpoint is one
    of them, whichever comes first.  Monotone dependence on lam is assumed
    and spot-checked at three points away from the final bracket (two
    below, one above).
    """
    lo, hi = bracket
    if not 0 < lo < hi:
        raise InvalidBracketError(f"bad bracket {bracket}: need 0 < lo < hi")
    probes: list = []

    def solvable(lam: float) -> bool:
        res = _solvable_probe(spec_template, A, lam)
        probes.append((lam, res))
        return res

    if not solvable(lo):
        raise InvalidBracketError(f"bad bracket: not solvable at lam={lo}")
    if solvable(hi):
        raise InvalidBracketError(f"bad bracket: solvable at lam={hi}")

    while (hi - lo) > rel_tol * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:       # lo and hi are adjacent floats
            break
        if solvable(mid):
            lo = mid
        else:
            hi = mid

    for lam, expect in ((0.25 * lo, True), (0.6 * lo, True), (1.75 * hi, False)):
        if lam > 0 and solvable(lam) != expect:
            raise EllipticError(
                f"solvability at lam={lam} contradicts the bisection bracket"
            )
    return LambdaStarResult((lo, hi), probes)


def _solvable_probe(spec_template, A, lam) -> bool:
    spec = spec_template.with_lam(lam)
    res = solve_monotone(spec, A)
    try:
        if res.status == "capped":
            solve_newton(spec, A, initial_guess=res.pair)
        else:
            res.equilibrium(spec)
    except EllipticError:
        return False
    return True


# ---------------------------------------------------------------------------
# shooting oracle for radial equilibria
# ---------------------------------------------------------------------------


@dataclass
class ShootingResult:
    """High-accuracy radial equilibrium from the two-point shooting solve.

    ``profile(r)`` evaluates (U, V) at radii in [0, ``radius``], in any order
    and with repeats, by stepping the radial system from the centre values
    through the sorted distinct radii (_integrate_radial, at the tolerances
    of the shooting runs).  Radii at or below the series start
    r0 = SERIES_R0 ``radius`` take the centre values; radii outside
    [0, ``radius``], beyond rounding at its end, raise ValueError instead of
    extrapolating, and a radius the run does not reach raises
    RootFindFailure.  ``bc_residual`` is the boundary-condition defect of
    the shot at exactly ``center`` on the same integrator: Newton's own
    final defect, at most SHOOTING_TOL, when Newton stopped on the defect,
    and that of one fresh shot when it stopped on its step (see
    shooting_oracle).  It is no cross-check against a second integrator.
    ``exponents``, ``dimension`` and ``radius`` are the problem and the
    ball it was shot in, and :meth:`to_pair` refuses a grid on another ball.
    """

    center: tuple[float, float]
    bc_residual: float
    dimension: int
    radius: float
    exponents: ExponentPair

    def profile(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(r, dtype=float)
        if not np.all((r >= 0) & (r <= self.radius * (1 + 4 * np.finfo(float).eps))):
            raise ValueError(f"shooting profile is defined on [0, {self.radius:g}] only")
        (a, b), n_dim = self.center, self.dimension
        p, q = self.exponents.p, self.exponents.q
        # integrating again to the radius just reached would fail the run
        nodes, at = np.unique(r, return_inverse=True)
        ahead = nodes > SERIES_R0 * self.radius
        uv = np.tile(self.center, (nodes.size, 1))
        if ahead.any():
            sol = _integrate_radial(a, b, n_dim, p, q, self.radius, nodes[ahead])
            if _escaped(sol, nodes[-1]):
                raise RootFindFailure(math.inf)
            uv[ahead] = sol[1][:, [0, 2]]
        uv = uv[at]
        return uv[..., 0], uv[..., 1]

    def to_pair(self, grid: Grid) -> FieldPair:
        if grid.geometry != "radial":
            raise ValueError("shooting profiles live on radial grids")
        if grid.dimension != self.dimension:
            raise ValueError(f"grid dimension {grid.dimension} differs from the "
                             f"shooting dimension {self.dimension}")
        if grid.domain.radius != self.radius:
            raise ValueError(f"grid radius {grid.domain.radius:g} differs from the "
                             f"shooting radius {self.radius:g}")
        u, v = self.profile(grid.coords)
        return FieldPair(u, v, grid)

    @property
    def sup_u(self) -> float:
        return self.center[0]

    @property
    def sup_v(self) -> float:
        return self.center[1]


def _radial_rhs(n_dim: int, p: float, q: float, variational: bool = False) -> Callable:
    """Right-hand side of the radial system, on Python floats.

    The state is (u, u', v, v'); with ``variational`` it is followed by its
    derivatives with respect to the centre values a and b (four components
    each, same layout), which obey the variational equations along the
    trajectory.  The compiled integrator calls this thousands of times per
    shot, so each closure is straight-line code: the state unpacked into
    names, k / r formed once, and the result one list literal.  Each entry
    is the written-out formula's expression, evaluated in its order (u'' and
    v'' before the powers of the Jacobian), so the runs are bitwise those of
    the formula and a power that leaves the float range raises OverflowError
    at the same place.
    """
    k = n_dim - 1

    def rhs(r, y):
        u, du, v, dv = y.tolist()
        kr = k / r
        return [du, -math.copysign(abs(v) ** p, v) - kr * du,
                dv, -math.copysign(abs(u) ** q, u) - kr * dv]

    def rhs_variational(r, y):
        u, du, v, dv, au, adu, av, adv, bu, bdu, bv, bdv = y.tolist()
        kr = k / r
        fu = -math.copysign(abs(v) ** p, v) - kr * du
        fv = -math.copysign(abs(u) ** q, u) - kr * dv
        sv, su = p * abs(v) ** (p - 1), q * abs(u) ** (q - 1)
        return [du, fu, dv, fv,
                adu, -sv * av - kr * adu, adv, -su * au - kr * adv,
                bdu, -sv * bv - kr * bdu, bdv, -su * bu - kr * bdv]

    return rhs_variational if variational else rhs


def _too_large(r, y) -> float:
    """The size event: a trajectory stops where max(|u|, |v|) crosses 1e6."""
    return max(abs(y[0]), abs(y[2])) - 1e6


def _series_start(a: float, b: float, n_dim: int, p: float, q: float, r0: float,
                  variational: bool = False) -> list:
    """The state at r0 << R from the centre values (a, b) with u'(0) = v'(0) = 0.

    The even-symmetry series u = a - phi_p(b) r^2/(2N), v = b - phi_q(a)
    r^2/(2N) clears the coordinate singularity at r = 0.  With
    ``variational`` the state also carries d(u, u', v, v')/da and d/db, the
    derivative of that series.  Entries that leave the float range are not
    warned about: they come back non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.float64(a), np.float64(b)
        fa, fb = signed_power(b, p), signed_power(a, q)
        y0 = [a - fa * r0**2 / (2 * n_dim), -fa * r0 / n_dim,
              b - fb * r0**2 / (2 * n_dim), -fb * r0 / n_dim]
        if variational:
            sa, sb = q * abs(a) ** (q - 1), p * abs(b) ** (p - 1)
            y0 += [1.0, 0.0, -sa * r0**2 / (2 * n_dim), -sa * r0 / n_dim,
                   -sb * r0**2 / (2 * n_dim), -sb * r0 / n_dim, 1.0, 0.0]
    return y0


def _integrate_radial(
    a: float, b: float, n_dim: int, p: float, q: float, radius: float,
    radii: Sequence[float], variational: bool = False,
) -> tuple[float, np.ndarray]:
    """Integrate outward from the centre values (a, b) through the increasing
    ``radii`` in (r0, ``radius``].

    Every radial run, the oracle's shots (``radii`` = [radius]) and
    ShootingResult.profile alike, starts here: at r0 = SERIES_R0 ``radius``
    from _series_start, on the shared compiled DOP853 (_CompiledDOP853) at
    rtol = atol = 1e-12 with the size event _too_large.  With
    ``variational`` the state also carries the derivatives in a and b, so
    the boundary Jacobian is exact.  Returns the run as _CompiledDOP853.run
    does: the end radius and the states at the radii passed.  Overflow is
    not warned about: a trajectory that leaves the float range stops short
    of its radius or ends non-finite, and _escaped says so.
    """
    r0 = SERIES_R0 * radius
    return _dop853().run(_radial_rhs(n_dim, p, q, variational),
                         _series_start(a, b, n_dim, p, q, r0, variational), r0, radii)


class _CompiledDOP853:
    """scipy's compiled DOP853 for every shooting run; one instance serves the process.

    rtol = atol = 1e-12, no step limit, and the size event: a run stops at
    the first accepted step across which _too_large changes sign.  A start
    above the level therefore runs on until it comes back down.  A float
    power that overflows inside the compiled callback cannot propagate (it
    would surface as an unrelated error), so the callback returns NaN
    instead: the step is rejected, and the run ends short of its radius with
    "step size becomes too small", whose warning is silenced here.  Any
    other exception in the callback (an interrupt, say) is held, every later
    call returns NaN so the run ends within a few dozen steps, and the
    exception is raised again once it has.  Left in the callback, it would
    have scipy call the right-hand side again at each of the unlimited steps.

    scipy's wrapper keeps a reference to the callbacks of every run, and
    through them to the integrator and its work arrays, for the life of the
    process: a fresh ``ode`` per run held about 3 kB per integration.  So
    one integrator, built on first use by _dop853, serves every run, and its
    callbacks are bound methods that read the current run's state.
    """

    def __init__(self):
        from scipy.integrate import ode     # loaded by shooting only, not on import

        self.rhs: Optional[Callable] = None
        self.last: Optional[float] = None   # _too_large at the last accepted step
        self.error: Optional[BaseException] = None
        self.solver = ode(self._f).set_integrator("dop853", rtol=1e-12, atol=1e-12,
                                                   nsteps=10**9)
        self.solver.set_solout(self._stop_on_crossing)

    def _f(self, r, y):
        if self.error is None:
            try:
                return self.rhs(r, y)
            except OverflowError:           # the step fails; the trajectory escapes
                pass
            except BaseException as exc:    # raised again by run
                self.error = exc
        return [math.nan] * len(y)

    def _stop_on_crossing(self, r, y):
        g = _too_large(r, y)
        crossed = self.last is not None and min(self.last, g) <= 0 <= max(self.last, g)
        self.last = g
        return -1 if crossed else 0

    def run(self, rhs: Callable, y0: list, r0: float,
            radii: Sequence[float]) -> tuple[float, np.ndarray]:
        """Run ``rhs`` from (r0, y0) through the increasing ``radii`` > r0.

        Returns the radius where the run ended and the states at the radii
        it passed, one row each, the last row the end state.  The run ends
        at the last radius or, escaped (see _escaped), at the first one it
        misses; a start outside the float range ends at once, at (r0, y0).
        """
        if not np.all(np.isfinite(y0)):
            return r0, np.array([y0])
        self.rhs, self.last, self.error = rhs, None, None
        self.solver.set_initial_value(y0, r0)
        states = []
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dop853", UserWarning)
            for r in radii:
                states.append(self.solver.integrate(r))
                if _escaped((self.solver.t, states), r):
                    break
        if self.error is not None:
            raise self.error
        return self.solver.t, np.array(states)


@functools.cache
def _dop853() -> _CompiledDOP853:
    return _CompiledDOP853()


def _escaped(sol: tuple[float, np.ndarray], radius: float) -> bool:
    """The run (end radius, states) stopped short of ``radius`` (size event
    or float range) or ended non-finite."""
    r_end, states = sol
    return r_end < radius or not np.all(np.isfinite(states[-1]))


def _bc_rows(state, boundary: BoundarySpec) -> tuple[float, float]:
    """The boundary functional applied to one (u, u', v, v') block."""
    u, du, v, dv = state
    if boundary.kind == "dirichlet":
        return u, v
    beta = boundary.beta
    return du + beta * u, dv + beta * v


def _bc_values(sol: tuple[float, np.ndarray], boundary: BoundarySpec,
               radius: float) -> tuple[float, float]:
    """The boundary defect at the end of the run (end radius, states)."""
    end = sol[1][-1]
    if _escaped(sol, radius):
        # escaping: keep the escaping sign with a huge magnitude
        return math.copysign(1e12, end[0]), math.copysign(1e12, end[2])
    return _bc_rows(end[:4], boundary)


def shooting_oracle(
    exponents: ExponentPair,
    n_dim: int,
    boundary: BoundarySpec,
    radius: float = 1.0,
) -> ShootingResult:
    """Independent radial equilibrium via shooting from the centre.

    It is the reference the grid solves are checked against, as in verify's
    equilibrium-vs-shooting check; no command seeds a grid solve with it.

    Adjusts the centre values (a, b) so the boundary condition holds at
    r = radius, by Newton's method seeded from a coarse grid Newton solve.
    For p = q the solution has u = v (the difference w = u - v solves
    -Lap w + c w = 0 with c >= 0), so the seed and every iterate keep a = b
    bitwise; the integration is then symmetric and the profiles equal.
    Each iteration integrates the radial system with its variational
    equations, so the 2x2 boundary Jacobian is exact.  An iterate whose
    trajectory escapes halves its step, at most NEWTON_HALVINGS times.
    Newton stops when the boundary defect or the relative step is at most
    SHOOTING_TOL.  The centre values must then be positive, and the shot at
    exactly the returned centre must leave a defect (``bc_residual``) of at
    most BC_TOL.  After a stop on the defect that shot is the last Newton
    shot, whose defect is already at most SHOOTING_TOL < BC_TOL, so the
    gate cannot fail there; it is live only after a stop on the step, where
    one more shot measures the defect.  Every failure, the seed's included,
    raises RootFindFailure.  Every run is variational and on the shared
    compiled DOP853 (see _integrate_radial); ``ShootingResult.profile``
    steps the same integrator afterwards.  The comparison with a second,
    independent integrator is kept in the test suite, where scipy's
    Python-level DOP853 is the reference for the shots' endpoints and for
    the profile, not in this call.
    """
    p, q = exponents.p, exponents.q
    shoot = lambda x: _integrate_radial(x[0], x[1], n_dim, p, q, radius, [radius],
                                        variational=True)
    x = np.array(_coarse_center(exponents, n_dim, boundary, radius))
    sol = shoot(x)
    if _escaped(sol, radius):
        raise RootFindFailure(abs(_bc_values(sol, boundary, radius)[0]))
    for _ in range(NEWTON_CAP):
        end = sol[1][-1]
        defect = np.array(_bc_rows(end[:4], boundary))
        resid = float(np.max(np.abs(defect)))
        if resid <= SHOOTING_TOL:
            break
        jac = np.column_stack([_bc_rows(end[4:8], boundary), _bc_rows(end[8:], boundary)])
        try:
            if p == q:      # stay on the diagonal a = b, along which the rows agree
                delta = np.full(2, -float(defect[0]) / float(jac[0, 0] + jac[0, 1]))
            else:
                delta = np.linalg.solve(jac, -defect)
        except (np.linalg.LinAlgError, ZeroDivisionError):
            raise RootFindFailure(resid) from None
        if not np.all(np.isfinite(delta)):
            raise RootFindFailure(resid)
        if np.max(np.abs(delta)) <= SHOOTING_TOL * np.max(np.abs(x)):
            x = x + delta
            sol = shoot(x)
            break
        step = 1.0
        for _ in range(NEWTON_HALVINGS):
            trial = x + step * delta
            trial_sol = shoot(trial)
            if not _escaped(trial_sol, radius):
                break
            step /= 2
        else:
            raise RootFindFailure(resid)
        x, sol = trial, trial_sol
    else:
        raise RootFindFailure(resid)
    if min(x) <= 0:
        raise RootFindFailure(resid)

    bc_res = float(np.max(np.abs(_bc_values(sol, boundary, radius))))
    if bc_res > BC_TOL:
        raise RootFindFailure(bc_res)
    return ShootingResult(center=(float(x[0]), float(x[1])), bc_residual=bc_res,
                          dimension=n_dim, radius=radius, exponents=exponents)


def _coarse_center(exponents, n_dim, boundary, radius) -> tuple[float, float]:
    """Centre values of a coarse grid Newton solve, seeding the shooting Newton.

    The coarse discrete solution is already in the basin of the positive
    solution, for skewed (p, q) too.  For p = q both values are u's, so the
    seed lies on the diagonal.  A seed whose grid cannot be built or whose
    solve fails is a shooting failure.
    """
    spec = ProblemSpec(exponents, RadialBall(n_dim, radius), boundary)
    try:
        A = build_laplacian(build_grid(spec.domain, boundary, 96))
        eq = solve_newton(spec, A)
    except (GridError, EllipticError) as exc:
        raise RootFindFailure(math.inf) from exc
    a = float(eq.pair.u[0])
    return a, (a if exponents.p == exponents.q else float(eq.pair.v[0]))
