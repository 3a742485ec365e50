"""Steady states: Newton solves, monotone iteration, extremal forcing scale, shooting.

The steady system on the grid reads

    A u = |v|^(p-1) v + lam*f,    A v = |u|^(q-1) u + lam*g.

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
from types import SimpleNamespace
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


def forcing_arrays(spec: ProblemSpec, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """Nodal values of (lam*f, lam*g)."""
    lam = spec.forcing.lam
    if lam == 0.0:
        z = np.zeros(grid.size)
        return z, z
    return (
        lam * spec.forcing.f.evaluate(grid.center_dist),
        lam * spec.forcing.g.evaluate(grid.center_dist),
    )


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


def _steady_residual(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair):
    """_residual_parts at (bu, bv) = (|v|^(p-1)v + lam f, |u|^(q-1)u + lam g), the steady system."""
    fu, gv = forcing_arrays(spec, A.grid)
    return _residual_parts(A, pair, signed_power(pair.v, spec.p) + fu,
                           signed_power(pair.u, spec.q) + gv)


def residual(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair) -> FieldPair:
    """Residual fields (A u - |v|^(p-1)v - lam f, A v - |u|^(q-1)u - lam g)."""
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
    ru = A.apply(pair.u) - bu
    rv = A.apply(pair.v) - bv
    raw = math.sqrt(integrate(grid, ru**2) + integrate(grid, rv**2))
    scale = 1.0 + math.sqrt(integrate(grid, bu**2) + integrate(grid, bv**2))
    return FieldPair(ru, rv, grid), raw, raw / scale


def _principal_eigenvector(A: DiscreteLaplacian, iters: int = 60) -> np.ndarray:
    """Lowest eigenvector of A by inverse power iteration, sup-normalised.

    At most ``iters`` solves; the iteration stops early at its floating-point
    fixed point, the first iterate bitwise equal to its predecessor.  The
    map is deterministic, so every later iterate would be that same vector
    and the result is bitwise the ``iters``-step one.  Callers use the
    operator's cached copy, ``A.principal_vector``.
    """
    x = np.ones(A.grid.size)
    for _ in range(iters):
        prev = x
        x = solve_shifted(A, 0.0, x)
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
    R_v = (t c_v) A shape - (t c_u)^q shape^q - lam g,
    and ||R||^2 is a quadratic form in their coefficients: one weighted Gram
    matrix per component, built once, prices every scan point in O(1).
    Scan points whose norm is not finite are skipped.
    """
    grid = A.grid
    c_u, c_v = _amplitudes(spec, lam1)
    fu, gv = forcing_arrays(spec, grid)
    a_shape = A.apply(shape)
    ts = np.geomspace(1e-2, 1e2, 120)
    with np.errstate(over="ignore", invalid="ignore"):
        sq = (_ray_square(grid, (a_shape, shape**spec.p, fu), ts * c_u, (ts * c_v) ** spec.p)
              + _ray_square(grid, (a_shape, shape**spec.q, gv), ts * c_v, (ts * c_u) ** spec.q))
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


def _deflation_factor(grid: Grid, pair: FieldPair, known: Sequence[FieldPair]) -> float:
    """Merit multiplier prod_k (1/||pair - pair_k||_w^2 + 1) repelling known solutions."""
    factor = 1.0
    for k in known:
        d2 = integrate(grid, (pair.u - k.u) ** 2 + (pair.v - k.v) ** 2)
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
        du, dv = _newton_step(A, p * np.abs(pair.v) ** (p - 1), q * np.abs(pair.u) ** (q - 1), r)

        step = 1.0
        for _ in range(NEWTON_HALVINGS):
            trial = FieldPair(pair.u + step * du, pair.v + step * dv, grid)
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
                 r: FieldPair) -> tuple[np.ndarray, np.ndarray]:
    """Newton's step (du, dv), the solution of J (du, dv) = -(r.u, r.v).

    J = (A, -diag(sv); -diag(su), A) with sv = p|v|^(p-1) and su = q|u|^(q-1).
    Nothing is assembled or factorised, and the route splits as the
    operator's shifted solve does.  On radial grids A is tridiagonal, so with
    the unknowns interleaved as (u_0, v_0, u_1, v_1, ...) J has two sub- and
    two super-diagonals, and one banded solve is exact.  On the Dirichlet
    rectangle GMRES applies J matrix-free, preconditioned block-diagonally by
    A^-1 through the sine-transform solve; its true residual ||J delta + r||
    must be at most KRYLOV_TOL ||r||.  A singular band, a non-finite step or a
    missed Krylov tolerance raises SingularJacobianError.
    """
    grid = A.grid
    m = grid.size
    w = grid.weights
    rhs = -np.column_stack([r.u, r.v]).ravel()       # interleaved, as the unknowns
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
            raise SingularJacobianError(
                f"GMRES Newton step missed its tolerance: true relative residual {miss:.3e} "
                f"> {KRYLOV_TOL:.0e} after {KRYLOV_CYCLES} cycles")
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
    delta = delta.reshape(m, 2)
    return delta[:, 0], delta[:, 1]


def _finish_newton(spec, A, pair, rn, known) -> Equilibrium:
    """The Equilibrium at a converged iterate, unless it is a known solution."""
    grid = A.grid
    eq = Equilibrium(pair, rn, spec, "newton")
    for k in known:
        d2 = integrate(grid, (pair.u - k.u) ** 2 + (pair.v - k.v) ** 2)
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
    |u|^(q-1)u + lam g.  Each equation's reaction depends only on the other
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
    p, q = spec.p, spec.q
    fu, gv = forcing_arrays(spec, grid)
    pair = FieldPair.zeros(grid)
    bu, bv = fu, gv
    rn = relative_residual(A, pair, bu, bv)
    if rn <= DEFAULT_STEADY_TOL:
        return MonotoneResult("converged", pair, rn, 0)

    for k in range(1, MONOTONE_CAP + 1):
        new = solve_shifted(A, 0.0, np.column_stack([bu, bv]))
        u_new, v_new = new[:, 0], new[:, 1]
        slack = 1e-12 * max(1.0, pair.sup)
        if np.min(u_new - pair.u) < -slack or np.min(v_new - pair.v) < -slack:
            raise MonotonicityError(f"iterate decreased at step {k}")
        pair = FieldPair(u_new, v_new, grid)
        if pair.sup > M_BIG:
            return MonotoneResult("diverged", pair, math.inf, k)
        bu, bv = signed_power(pair.v, p) + fu, signed_power(pair.u, q) + gv
        rn = relative_residual(A, pair, bu, bv)
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

    ``profile(r)`` evaluates (U, V) at radii in [0, ``radius``] from the
    dense output of the final ``solve_ivp`` integration (the compiled
    integrator behind the Newton iterates keeps no continuous extension);
    radii outside that interval, beyond rounding at its end, raise
    ValueError instead of extrapolating.  ``bc_residual`` is the achieved
    boundary-condition defect.  The problem solved is the caller's, not
    stored here.
    """

    center: tuple[float, float]
    bc_residual: float
    radius: float
    _dense: Callable

    def profile(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(r, dtype=float)
        r0 = 1e-8 * self.radius
        if not np.all((r >= 0) & (r <= self.radius * (1 + 4 * np.finfo(float).eps))):
            raise ValueError(f"shooting profile is defined on [0, {self.radius:g}] only")
        y = self._dense(np.maximum(r, r0))
        u = np.where(r < r0, self.center[0], y[0])
        v = np.where(r < r0, self.center[1], y[2])
        return u, v

    def to_pair(self, grid: Grid) -> FieldPair:
        if grid.geometry != "radial":
            raise ValueError("shooting profiles live on radial grids")
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


def _radial_rhs(n_dim: int, p: float, q: float) -> Callable:
    """Right-hand side of the radial system, on Python floats.

    The state is (u, u', v, v'), optionally followed by its derivatives with
    respect to the centre values a and b (four components each, same
    layout), which obey the variational equations along the trajectory.
    """
    k = n_dim - 1

    def rhs(r, y):
        u, du, v, dv, *tangents = y.tolist()
        out = [du, -math.copysign(abs(v) ** p, v) - k / r * du,
               dv, -math.copysign(abs(u) ** q, u) - k / r * dv]
        if tangents:
            sv, su = p * abs(v) ** (p - 1), q * abs(u) ** (q - 1)
            for j in (0, 4):
                tu, tdu, tv, tdv = tangents[j:j + 4]
                out += [tdu, -sv * tv - k / r * tdu, tdv, -su * tu - k / r * tdv]
        return out

    return rhs


def _too_large(r, y) -> float:
    """The size event: a trajectory stops where max(|u|, |v|) crosses 1e6."""
    return max(abs(y[0]), abs(y[2])) - 1e6


_too_large.terminal = True


def _integrate_radial(
    a: float, b: float, n_dim: int, p: float, q: float, radius: float,
    variational: bool = False,
):
    """Integrate outward from the centre values (a, b) with u'(0) = v'(0) = 0.

    Starts at r0 << R from the even-symmetry series u = a - phi_p(b) r^2/(2N)
    to clear the coordinate singularity.  Both routes run DOP853 at rtol =
    atol = 1e-12 with the size event _too_large.  With ``variational`` the
    solution also carries d(u, u', v, v')/da and d/db, started from the
    derivative of that series, so the boundary Jacobian is exact; only its
    endpoint is read, so it runs on scipy's compiled DOP853 (_CompiledDOP853),
    whose per-step driver is not Python.  Without it the solution has the
    dense output behind ``ShootingResult.profile``, which the compiled
    integrator lacks, so that run stays on ``solve_ivp``.  Overflow is not
    warned about: a trajectory that leaves the float range stops short of
    the radius or ends non-finite, and _bc_values counts it as escaping.
    """
    r0 = 1e-8 * radius
    with np.errstate(over="ignore", invalid="ignore"):
        a, b = np.float64(a), np.float64(b)
        fa, fb = signed_power(b, p), signed_power(a, q)
        y0 = [a - fa * r0**2 / (2 * n_dim), -fa * r0 / n_dim,
              b - fb * r0**2 / (2 * n_dim), -fb * r0 / n_dim]
        if variational:
            sa, sb = q * abs(a) ** (q - 1), p * abs(b) ** (p - 1)
            y0 += [1.0, 0.0, -sa * r0**2 / (2 * n_dim), -sa * r0 / n_dim,
                   -sb * r0**2 / (2 * n_dim), -sb * r0 / n_dim, 1.0, 0.0]
    # what _escaped and _bc_values read of a solve_ivp result
    escaped = SimpleNamespace(t=np.array([r0]), y=np.array(y0)[:, None], status=-1)
    if not np.all(np.isfinite(y0)):     # out of the float range at r0 already
        return escaped
    rhs = _radial_rhs(n_dim, p, q)
    if variational:
        return _dop853().endpoint(rhs, y0, r0, radius)
    from scipy.integrate import solve_ivp   # loaded by shooting only, not on import

    try:
        return solve_ivp(rhs, (r0, radius), y0, method="DOP853", rtol=1e-12, atol=1e-12,
                         dense_output=True, events=_too_large)
    except OverflowError:               # a float power left the range mid-step
        return escaped


class _CompiledDOP853:
    """scipy's compiled DOP853 for endpoint-only runs; one instance serves the process.

    The same method and tolerances as the ``solve_ivp`` route, and the same
    size event: a run stops at the first accepted step across which
    _too_large changes sign, as ``solve_ivp``'s event does (it then refines
    the crossing, which the endpoint's escaping sign does not need).  A start
    above the level therefore runs on until it comes back down.  A float
    power that overflows inside the compiled callback cannot propagate (it
    would surface as an unrelated error), so the callback returns NaN
    instead: the step is rejected, and the run ends short of the radius with
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
        # no step limit, as in solve_ivp
        self.solver = ode(self._f).set_integrator("dop853", rtol=1e-12, atol=1e-12,
                                                   nsteps=10**9)
        self.solver.set_solout(self._stop_on_crossing)

    def _f(self, r, y):
        if self.error is None:
            try:
                return self.rhs(r, y)
            except OverflowError:           # the step fails; the trajectory escapes
                pass
            except BaseException as exc:    # raised again by endpoint
                self.error = exc
        return [math.nan] * len(y)

    def _stop_on_crossing(self, r, y):
        g = _too_large(r, y)
        crossed = self.last is not None and min(self.last, g) <= 0 <= max(self.last, g)
        self.last = g
        return -1 if crossed else 0

    def endpoint(self, rhs: Callable, y0: list, r0: float, radius: float) -> SimpleNamespace:
        """Endpoint of ``rhs`` from (r0, y0) toward ``radius``: what _escaped
        and _bc_values read of a ``solve_ivp`` result, with its status codes."""
        self.rhs, self.last, self.error = rhs, None, None
        self.solver.set_initial_value(y0, r0)
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "dop853", UserWarning)
            y = self.solver.integrate(radius)
        if self.error is not None:
            raise self.error
        status = {1: 0, 2: 1}.get(self.solver.get_return_code(), -1)
        return SimpleNamespace(t=np.array([self.solver.t]), y=y[:, None], status=status)


@functools.cache
def _dop853() -> _CompiledDOP853:
    return _CompiledDOP853()


def _escaped(sol, radius: float) -> bool:
    """Stopped early (size event or float range) or ended non-finite."""
    return sol.t[-1] < radius or not np.all(np.isfinite(sol.y[:, -1]))


def _bc_rows(state, boundary: BoundarySpec) -> tuple[float, float]:
    """The boundary functional applied to one (u, u', v, v') block."""
    u, du, v, dv = state
    if boundary.kind == "dirichlet":
        return u, v
    beta = boundary.beta
    return du + beta * u, dv + beta * v


def _bc_values(sol, boundary: BoundarySpec, radius: float) -> tuple[float, float]:
    end = sol.y[:, -1]
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
    SHOOTING_TOL; a final integration at tolerance 1e-12 must then leave a
    defect of at most BC_TOL at positive centre values.  Every failure,
    the seed's included, raises RootFindFailure.  The seed shot, the Newton
    iterates and the halving trials read only endpoints and run on scipy's
    compiled DOP853; the final integration runs on ``solve_ivp``, whose
    dense output backs ``ShootingResult.profile`` (see _integrate_radial).
    """
    p, q = exponents.p, exponents.q
    shoot = lambda x: _integrate_radial(x[0], x[1], n_dim, p, q, radius, variational=True)
    x = np.array(_coarse_center(exponents, n_dim, boundary, radius))
    sol = shoot(x)
    if _escaped(sol, radius):
        raise RootFindFailure(abs(_bc_values(sol, boundary, radius)[0]))
    for _ in range(NEWTON_CAP):
        end = sol.y[:, -1]
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
    center = (float(x[0]), float(x[1]))

    sol = _integrate_radial(center[0], center[1], n_dim, p, q, radius)
    bc_res = float(np.max(np.abs(_bc_values(sol, boundary, radius))))
    if bc_res > BC_TOL:
        raise RootFindFailure(bc_res)
    return ShootingResult(center=center, bc_residual=bc_res, radius=radius, _dense=sol.sol)


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
