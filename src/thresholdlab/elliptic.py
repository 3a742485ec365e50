"""Steady states: Newton solves, monotone iteration, extremal forcing scale, shooting.

The steady system on the grid reads

    A u = |v|^(p-1) v + lam*f,    A v = |u|^(q-1) u + lam*g.

The sign-preserving power extends x^s off the nonnegative cone while keeping
the nonlinearity monotone, so the discrete comparison principle survives;
on positive data it agrees with the plain power.

Residual norms are weighted-L2 and *relative*: the raw residual norm is
divided by (1 + weighted-L2 norm of the reaction plus forcing terms).  This
is the "scaled units" in which the default steady tolerance 1e-10 is meant;
the raw norm has a float64 rounding floor of order sup(u)/h^2 * 1e-16 which
would make an absolute 1e-10 unreachable on fine grids.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.integrate import solve_ivp
from scipy.optimize import OptimizeResult, brentq, root

from .discrete import DiscreteLaplacian, FieldPair, Grid, integrate, solve_shifted
from .problem import BoundarySpec, ExponentPair, ProblemSpec

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


class EllipticError(RuntimeError):
    pass


class MaxIterationsError(EllipticError):
    def __init__(self, best_residual: float, iterations: int):
        super().__init__(
            f"no convergence in {iterations} iterations (best residual {best_residual:.3e})"
        )
        self.best_residual = best_residual


class SingularJacobianError(EllipticError):
    pass


class NonPositiveSolutionError(EllipticError):
    """Converged, but the limit is not strictly positive (e.g. the zero state)."""

    def __init__(self, pair: FieldPair, residual: float):
        super().__init__(f"converged to a nonpositive solution (residual {residual:.3e})")
        self.pair = pair
        self.residual = residual


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
    """A steady solution with its certificate.

    Invariants enforced at construction: relative residual at most the
    stated tolerance, and strict positivity at every degree of freedom.
    ``method`` records the route: newton | monotone | shooting.  For
    shooting the residual is the boundary-condition defect of the radial
    two-point problem rather than a grid residual.
    """

    pair: FieldPair
    residual_norm: float
    problem: ProblemSpec
    method: str
    steady_tol: float = DEFAULT_STEADY_TOL

    def __post_init__(self):
        if self.residual_norm > self.steady_tol:
            raise ValueError(
                f"equilibrium residual {self.residual_norm:.3e} exceeds {self.steady_tol:.1e}"
            )
        if min(self.pair.u.min(), self.pair.v.min()) <= 0:
            raise NonPositiveSolutionError(self.pair, self.residual_norm)


def residual(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair) -> FieldPair:
    """Residual fields (A u - |v|^(p-1)v - lam f, A v - |u|^(q-1)u - lam g)."""
    p, q = spec.p, spec.q
    fu, gv = forcing_arrays(spec, A.grid)
    ru = A.apply(pair.u) - signed_power(pair.v, p) - fu
    rv = A.apply(pair.v) - signed_power(pair.u, q) - gv
    return FieldPair(ru, rv, A.grid)


def residual_norm(spec: ProblemSpec, A: DiscreteLaplacian, pair: FieldPair) -> float:
    """Relative weighted-L2 residual norm; see the module docstring."""
    p, q = spec.p, spec.q
    fu, gv = forcing_arrays(spec, A.grid)
    return relative_residual(A, pair, signed_power(pair.v, p) + fu, signed_power(pair.u, q) + gv)


def relative_residual(
    A: DiscreteLaplacian, pair: FieldPair, bu: np.ndarray, bv: np.ndarray
) -> float:
    """||(A u - bu, A v - bv)|| / (1 + ||(bu, bv)||) in the weighted L2 norm.

    The one relative residual of the steady systems: (bu, bv) holds the
    reaction plus forcing terms of whichever system ``pair`` should solve.
    """
    grid = A.grid
    ru = A.apply(pair.u) - bu
    rv = A.apply(pair.v) - bv
    raw = math.sqrt(integrate(grid, ru**2) + integrate(grid, rv**2))
    scale = 1.0 + math.sqrt(integrate(grid, bu**2) + integrate(grid, bv**2))
    return raw / scale


def _principal_eigenvector(A: DiscreteLaplacian, iters: int = 60) -> np.ndarray:
    """Lowest eigenvector of A by inverse power iteration, sup-normalised."""
    x = np.ones(A.grid.size)
    for _ in range(iters):
        x = solve_shifted(A, 0.0, x)
        x /= np.max(np.abs(x))
    return x


def _amplitude_prescan(spec, A, shape: np.ndarray) -> FieldPair:
    """Seed t*(c_u shape, c_v shape) with t minimising the scale-relative residual.

    The component amplitudes come from balancing diffusion against reaction
    at the principal eigenvalue lam1: c_u = lam1^((p+1)/(pq-1)) and
    c_v = lam1^((q+1)/(pq-1)), which for p = q reduces to the familiar
    lam1^(1/(p-1)) scale.  The plain residual vanishes as t -> 0 (the zero
    state solves the unforced system), so the scan minimises ||R|| / t.
    """
    grid = A.grid
    p, q = spec.p, spec.q
    lam1 = A.quadratic_form(shape, shape) / integrate(grid, shape**2)
    c_u = lam1 ** ((p + 1) / (p * q - 1))
    c_v = lam1 ** ((q + 1) / (p * q - 1))
    best_t, best_val = None, math.inf
    for t in np.geomspace(1e-2, 1e2, 120):
        pair = FieldPair(t * c_u * shape, t * c_v * shape, grid)
        r = residual(spec, A, pair)
        val = math.sqrt(integrate(grid, r.u**2) + integrate(grid, r.v**2)) / t
        if val < best_val:
            best_t, best_val = t, val
    return FieldPair(best_t * c_u * shape, best_t * c_v * shape, grid)


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
    steady_tol: float = DEFAULT_STEADY_TOL,
) -> Equilibrium:
    """Damped Newton on the coupled steady system.

    The Jacobian blocks are (A, -diag(p|v|^(p-1)); -diag(q|u|^(q-1)), A).
    A step is accepted only if the merit (the relative residual norm, times
    the deflation factor when known solutions are supplied) decreases, with
    at most NEWTON_HALVINGS backtracking halvings, for at most NEWTON_CAP
    iterations.  Without a guess the solver seeds itself from an amplitude
    pre-scan along the principal eigenvector of A.
    """
    grid = A.grid
    known = [e.pair for e in (deflation_against or [])]
    if initial_guess is None:
        shape = _principal_eigenvector(A)
        pair = _amplitude_prescan(spec, A, shape)
    else:
        pair = initial_guess.copy()

    rn = residual_norm(spec, A, pair)
    cur_merit = rn * _deflation_factor(grid, pair, known)
    best = rn
    p, q = spec.p, spec.q
    m = grid.size
    w = grid.weights
    Aop = sp.diags(1.0 / w) @ A.K

    for _ in range(NEWTON_CAP):
        if rn <= steady_tol:
            return _finish_newton(spec, A, pair, rn, known, steady_tol)
        r = residual(spec, A, pair)
        J = sp.bmat(
            [
                [Aop, sp.diags(-p * np.abs(pair.v) ** (p - 1))],
                [sp.diags(-q * np.abs(pair.u) ** (q - 1)), Aop],
            ],
            format="csc",
        )
        try:
            delta = spla.splu(J).solve(-np.concatenate([r.u, r.v]))
        except RuntimeError as exc:
            raise SingularJacobianError(str(exc)) from exc
        if not np.all(np.isfinite(delta)):
            raise SingularJacobianError("non-finite Newton step")

        step, accepted = 1.0, False
        for _ in range(NEWTON_HALVINGS):
            trial = FieldPair(pair.u + step * delta[:m], pair.v + step * delta[m:], grid)
            trial_rn = residual_norm(spec, A, trial)   # each iterate's norm once
            trial_merit = trial_rn * _deflation_factor(grid, trial, known)
            if trial_merit < cur_merit:
                pair, rn, cur_merit = trial, trial_rn, trial_merit
                accepted = True
                break
            step /= 2
        if not accepted:
            break
        best = min(best, rn)

    if rn <= steady_tol:
        return _finish_newton(spec, A, pair, rn, known, steady_tol)
    raise MaxIterationsError(best, NEWTON_CAP)


def _finish_newton(spec, A, pair, rn, known, steady_tol):
    grid = A.grid
    if min(pair.u.min(), pair.v.min()) <= 0:
        raise NonPositiveSolutionError(pair, rn)
    for k in known:
        d2 = integrate(grid, (pair.u - k.u) ** 2 + (pair.v - k.v) ** 2)
        scale2 = max(integrate(grid, k.u**2 + k.v**2), 1.0)
        if d2 <= 1e-12 * scale2:
            raise ConvergedToKnownError("deflated solve returned a known solution")
    return Equilibrium(pair, rn, spec, "newton", steady_tol=steady_tol)


@dataclass
class MonotoneResult:
    """Outcome of the monotone iteration.

    status: "converged" | "diverged" | "stagnated".  Divergence (iterates
    escaping beyond M_BIG, or still growing at MONOTONE_CAP) signals
    that the forcing scale lies above the solvable range.
    """

    status: str
    pair: FieldPair
    residual_norm: float
    iterations: int
    sup_history: np.ndarray

    @property
    def converged(self) -> bool:
        return self.status == "converged"

    def equilibrium(self, spec: ProblemSpec) -> Equilibrium:
        if not self.converged:
            raise EllipticError(f"monotone iteration did not converge ({self.status})")
        return Equilibrium(self.pair, self.residual_norm, spec, "monotone")


def solve_monotone(spec: ProblemSpec, A: DiscreteLaplacian) -> MonotoneResult:
    """Monotone fixed-point iteration climbing from (0,0).

    Update: (sigma I + A) u_new = sigma u + |v|^(p-1)v + lam f (and
    symmetrically), with sigma at least the local slope of the nonlinearity
    over the current range, so the map is order preserving and the iterates
    are nondecreasing.  With lam > 0 the limit is the minimal solution.
    Every step asserts monotonicity; a decrease beyond rounding raises
    MonotonicityError.
    """
    grid = A.grid
    p, q = spec.p, spec.q
    fu, gv = forcing_arrays(spec, grid)
    pair = FieldPair.zeros(grid)
    sups = [pair.sup]
    rn = residual_norm(spec, A, pair)
    if rn <= DEFAULT_STEADY_TOL:
        return MonotoneResult("converged", pair, rn, 0, np.asarray(sups))

    for k in range(1, MONOTONE_CAP + 1):
        sigma = max(
            p * np.max(np.abs(pair.v)) ** (p - 1),
            q * np.max(np.abs(pair.u)) ** (q - 1),
        )
        rhs = np.column_stack(
            [
                sigma * pair.u + signed_power(pair.v, p) + fu,
                sigma * pair.v + signed_power(pair.u, q) + gv,
            ]
        )
        new = solve_shifted(A, sigma, rhs)
        u_new, v_new = new[:, 0], new[:, 1]
        slack = 1e-12 * max(1.0, pair.sup)
        if np.min(u_new - pair.u) < -slack or np.min(v_new - pair.v) < -slack:
            raise MonotonicityError(f"iterate decreased at step {k}")
        pair = FieldPair(u_new, v_new, grid)
        sups.append(pair.sup)
        if pair.sup > M_BIG:
            return MonotoneResult("diverged", pair, math.inf, k, np.asarray(sups))
        rn = residual_norm(spec, A, pair)
        if rn <= DEFAULT_STEADY_TOL:
            return MonotoneResult("converged", pair, rn, k, np.asarray(sups))

    # cap reached: still-growing increments mean divergence, otherwise stagnation
    s = np.asarray(sups)
    window = MONOTONE_CAP // 10
    recent = s[-1] - s[-1 - window]
    earlier = s[-1 - window] - s[-1 - 2 * window]
    status = "diverged" if recent > 0.5 * earlier and recent > 0 else "stagnated"
    return MonotoneResult(status, pair, rn, MONOTONE_CAP, s)


@dataclass
class LambdaStarResult:
    lambda_hat: float
    bracket: tuple[float, float]
    probes: list = field(default_factory=list)   # (lam, converged) pairs in probe order


def lambda_star(
    spec_template: ProblemSpec,
    A: DiscreteLaplacian,
    bracket: tuple[float, float],
    rel_tol: float,
) -> LambdaStarResult:
    """Bisect the extremal forcing scale using monotone-iteration solvability.

    Predicate: the monotone iteration from (0,0) at scale lam converges to a
    positive solution.  It must hold at bracket[0] and fail at bracket[1];
    monotone dependence on lam is assumed and spot-checked at three points
    away from the final bracket (two below, one above).
    """
    lo, hi = bracket
    if not 0 <= lo < hi:
        raise InvalidBracketError(f"bad bracket {bracket}: need 0 <= lo < hi")
    probes: list = []

    def solvable(lam: float) -> bool:
        res = _solvable_probe(spec_template, A, lam)
        probes.append((lam, res))
        return res

    if not solvable(lo):
        raise InvalidBracketError(f"monotone iteration does not converge at lam={lo}")
    if solvable(hi):
        raise InvalidBracketError(f"monotone iteration converges at lam={hi}")

    while (hi - lo) > rel_tol * 0.5 * (hi + lo):
        mid = 0.5 * (lo + hi)
        if solvable(mid):
            lo = mid
        else:
            hi = mid

    for lam, expect in ((0.25 * lo, True), (0.6 * lo, True), (1.75 * hi, False)):
        if lam > 0 and solvable(lam) != expect:
            raise EllipticError(
                f"solvability at lam={lam} contradicts the bisection bracket"
            )
    return LambdaStarResult(0.5 * (lo + hi), (lo, hi), probes)


def _solvable_probe(spec_template, A, lam) -> bool:
    spec = spec_template.with_lam(lam)
    res = solve_monotone(spec, A)
    if res.converged:
        return bool(min(res.pair.u.min(), res.pair.v.min()) >= 0)
    if res.status == "stagnated":
        # slow monotone convergence near the fold: let Newton settle it
        try:
            eq = solve_newton(spec, A, initial_guess=res.pair)
        except EllipticError:
            return False
        return bool(min(eq.pair.u.min(), eq.pair.v.min()) > 0)
    return False


# ---------------------------------------------------------------------------
# shooting oracle for radial equilibria
# ---------------------------------------------------------------------------


@dataclass
class ShootingResult:
    """High-accuracy radial equilibrium from the two-point shooting solve.

    ``profile(r)`` evaluates (U, V) at arbitrary radii from the dense ODE
    output; ``bc_residual`` is the achieved boundary-condition defect.
    """

    center: tuple[float, float]
    bc_residual: float
    exponents: ExponentPair
    dimension: int
    radius: float
    boundary: BoundarySpec
    _dense: Callable

    def profile(self, r: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        r = np.asarray(r, dtype=float)
        rr = np.maximum(r, 1e-8 * self.radius)
        y = self._dense(rr)
        u = np.where(r < 1e-8 * self.radius, self.center[0], y[0])
        v = np.where(r < 1e-8 * self.radius, self.center[1], y[2])
        return u, v

    def to_pair(self, grid: Grid) -> FieldPair:
        if grid.geometry != "radial":
            raise ValueError("shooting profiles live on radial grids")
        u, v = self.profile(grid.coords)
        return FieldPair(u, v, grid)

    @property
    def sup_u(self) -> float:
        return self.center[0]

    @property
    def sup_v(self) -> float:
        return self.center[1]


def _radial_rhs(r, y, n_dim, p, q):
    u, du, v, dv = y
    return (
        du,
        -signed_power(np.asarray(v), p) - (n_dim - 1) / r * du,
        dv,
        -signed_power(np.asarray(u), q) - (n_dim - 1) / r * dv,
    )


def _integrate_radial(a: float, b: float, n_dim: int, p: float, q: float, radius: float):
    """Integrate outward from the centre values (a, b) with u'(0) = v'(0) = 0.

    Starts at r0 << R from the even-symmetry series u = a - phi_p(b) r^2/(2N)
    to clear the coordinate singularity.  Overflow is not warned about: a
    trajectory that leaves the float range stops short of the radius or
    ends non-finite, and _bc_values counts it as escaping.
    """
    r0 = 1e-8 * radius

    def too_large(r, y, *args):
        return max(abs(y[0]), abs(y[2])) - 1e6

    too_large.terminal = True
    with np.errstate(over="ignore", invalid="ignore"):
        fa = float(signed_power(np.asarray(b), p))
        fb = float(signed_power(np.asarray(a), q))
        y0 = [a - fa * r0**2 / (2 * n_dim), -fa * r0 / n_dim,
              b - fb * r0**2 / (2 * n_dim), -fb * r0 / n_dim]
        if not np.all(np.isfinite(y0)):     # out of the float range at r0 already
            return OptimizeResult(t=np.array([r0]), y=np.array(y0)[:, None], status=-1)
        return solve_ivp(
            _radial_rhs,
            (r0, radius),
            y0,
            args=(n_dim, p, q),
            method="DOP853",
            rtol=1e-12,
            atol=1e-12,
            dense_output=True,
            events=too_large,
        )


def _bc_values(sol, boundary: BoundarySpec, radius: float) -> tuple[float, float]:
    u, du, v, dv = sol.y[:, -1]
    if sol.t[-1] < radius or not np.all(np.isfinite(sol.y[:, -1])):
        # stopped early (size event or float range) or overflowed: escaping,
        # so keep the escaping sign with a huge magnitude
        return math.copysign(1e12, u), math.copysign(1e12, v)
    if boundary.kind == "dirichlet":
        return u, v
    beta = boundary.beta
    return du + beta * u, dv + beta * v


def shooting_oracle(
    exponents: ExponentPair,
    n_dim: int,
    boundary: BoundarySpec,
    radius: float = 1.0,
) -> ShootingResult:
    """Independent radial equilibrium via shooting from the centre.

    Adjusts the centre values (a, b) so the boundary condition holds at
    r = radius: a scalar bracketed root for symmetric exponents (p = q
    forces U = V), a 2D quasi-Newton root find seeded by a coarse grid
    Newton solve otherwise.  Integration runs at tolerance 1e-12 and the
    boundary defect must end at most BC_TOL.
    """
    p, q = exponents.p, exponents.q

    if p == q:
        bc = lambda a: _bc_values(_integrate_radial(a, a, n_dim, p, q, radius), boundary, radius)[0]
        a_star = _bracketed_root(bc)
        center = (a_star, a_star)
    else:
        seed = _coarse_center(exponents, n_dim, boundary, radius)
        func = lambda ab: np.array(
            _bc_values(_integrate_radial(ab[0], ab[1], n_dim, p, q, radius), boundary, radius)
        )
        out = root(func, np.asarray(seed), method="hybr", tol=1e-13)
        resid = float(np.max(np.abs(func(out.x))))
        if resid > BC_TOL or min(out.x) <= 0:
            raise RootFindFailure(resid)
        center = (float(out.x[0]), float(out.x[1]))

    sol = _integrate_radial(center[0], center[1], n_dim, p, q, radius)
    bc_res = float(np.max(np.abs(_bc_values(sol, boundary, radius))))
    if bc_res > BC_TOL:
        raise RootFindFailure(bc_res)
    return ShootingResult(
        center=center,
        bc_residual=bc_res,
        exponents=exponents,
        dimension=n_dim,
        radius=radius,
        boundary=boundary,
        _dense=sol.sol,
    )


def _coarse_center(exponents, n_dim, boundary, radius) -> tuple[float, float]:
    """Centre values of a coarse grid Newton solve, seeding the 2D root find.

    A symmetric-exponent seed can land in the escape region of the coupled
    system for skewed (p, q); the coarse discrete solution is already in the
    right basin.
    """
    from .discrete import build_grid, build_laplacian
    from .problem import ProblemSpec, RadialBall

    spec = ProblemSpec(exponents, RadialBall(n_dim, radius), boundary)
    A = build_laplacian(build_grid(spec.domain, boundary, 96))
    eq = solve_newton(spec, A, steady_tol=1e-8)
    return float(eq.pair.u[0]), float(eq.pair.v[0])


def _bracketed_root(g: Callable[[float], float]) -> float:
    """Root of a scalar boundary defect, bracketed by doubling from a = 1."""
    a = 1.0
    ga = g(a)
    if ga == 0.0:
        return a
    b, gb = a, ga
    for _ in range(60):
        b *= 2.0 if ga > 0 else 0.5
        gb = g(b)
        if ga * gb < 0:
            lo, hi = (a, b) if a < b else (b, a)
            return brentq(g, lo, hi, xtol=1e-13, rtol=8.9e-16)
        a, ga = b, gb
    raise RootFindFailure(abs(gb))
