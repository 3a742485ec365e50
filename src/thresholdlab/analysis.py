"""Runtime diagnostics: the functionals and inequalities behind the threshold result.

Along a trajectory (u(t), v(t)) the monitors are

    phi(t) = integral of u*v
    E(t)   = <A u, v>_w - 1/(p+1) integral |v|^(p+1) - 1/(q+1) integral |u|^(q+1)
    T(t)   = integral |u|^(q+1) + integral |v|^(p+1)

with the exact semi-discrete identities

    d(phi)/dt = -2 E + (p-1)/(p+1) integral |v|^(p+1) + (q-1)/(q+1) integral |u|^(q+1)
    dE/dt     = -2 integral u_t * v_t   (<= 0 when u_t, v_t share signs)

and, for growing trajectories, the differential inequality

    d(phi)/dt >= -2 E(0) + C * phi^gamma

whose constant C is derived in :func:`blowup_bound_constant`.  Because the
discrete operator is exactly symmetric in the weighted inner product, the
identities hold on the semi-discrete level with no quadrature defect; the
only gap in a recorded trajectory is the O(dt) time-stepping error.

E and T have one definition each: :func:`energy`, :func:`power_integral`
and the per-step rows of :meth:`TrajectoryRecord.observe` share the two
halves of T and the formula for E.  E's cross term <A u, v>_w is always
:meth:`DiscreteLaplacian.quadratic_form`; a row reached by a step passes it
the K u and K v that the step's solve formed for its 1e-12 check, so the
row forms no product of its own and its E is bitwise :func:`energy`.
Steady residuals come from :func:`thresholdlab.elliptic.relative_residual`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .discrete import DiscreteLaplacian, FieldPair, Grid, integrate
from .elliptic import DEFAULT_STEADY_TOL, relative_residual, signed_power
from .problem import ExponentPair, blowup_exponent

__all__ = [
    "TrajectoryRecord",
    "product_integral",
    "energy",
    "power_integral",
    "dphi_identity_residual",
    "energy_monotonicity_violation",
    "blowup_bound_constant",
    "solution_pair_identity",
    "power_sum_bound",
    "NotEquilibriumError",
]


def product_integral(grid: Grid, pair: FieldPair) -> float:
    """phi = integral of u*v over the domain."""
    return integrate(grid, pair.u * pair.v)


def _power_halves(grid: Grid, pair: FieldPair, exponents: ExponentPair) -> tuple[float, float]:
    """The two halves of T: (int |u|^(q+1), int |v|^(p+1))."""
    p, q = exponents.p, exponents.q
    return integrate(grid, np.abs(pair.u) ** (q + 1)), integrate(grid, np.abs(pair.v) ** (p + 1))


def _energy(cross: float, int_u_q1: float, int_v_p1: float, exponents: ExponentPair) -> float:
    """E from its three parts: cross - int_v_p1/(p+1) - int_u_q1/(q+1)."""
    p, q = exponents.p, exponents.q
    return cross - int_v_p1 / (p + 1) - int_u_q1 / (q + 1)


def energy(grid: Grid, A: DiscreteLaplacian, pair: FieldPair, exponents: ExponentPair) -> float:
    """E = <A u, v>_w - 1/(p+1) int |v|^(p+1) - 1/(q+1) int |u|^(q+1)."""
    cross = A.quadratic_form(pair.u, pair.v)
    return _energy(cross, *_power_halves(grid, pair, exponents), exponents)


def power_integral(grid: Grid, pair: FieldPair, exponents: ExponentPair) -> float:
    """T = int |u|^(q+1) + int |v|^(p+1), the reaction mass of the pair."""
    int_u_q1, int_v_p1 = _power_halves(grid, pair, exponents)
    return int_u_q1 + int_v_p1


def blowup_bound_constant(exponents: ExponentPair, volume: float) -> float:
    """Constant C in the bound d(phi)/dt >= -2 E(0) + C * phi^gamma.

    Derivation (gamma = (p+1)(q+1)/(p+q+2), so gamma/(q+1) + gamma/(p+1) = 1):

    1. Young with conjugate exponents (q+1)/gamma and (p+1)/gamma, both > 1:
           u*v <= gamma/(q+1) * u^((q+1)/gamma) + gamma/(p+1) * v^((p+1)/gamma)
       pointwise on nonnegative fields, hence
           phi <= gamma/(q+1) * int u^((q+1)/gamma) + gamma/(p+1) * int v^((p+1)/gamma).
    2. Hoelder with exponent gamma against the constant 1:
           int u^((q+1)/gamma) <= (int u^(q+1))^(1/gamma) * volume^(1-1/gamma).
    3. The power-sum bound x^a + y^a <= 2^(1-a) (x+y)^a with a = 1/gamma
       (see :func:`power_sum_bound`) combines the two integrals into T:
           phi <= K * T^(1/gamma),
           K = max(gamma/(q+1), gamma/(p+1)) * volume^(1-1/gamma) * 2^(1-1/gamma).
    4. The rate identity gives d(phi)/dt >= -2 E(0) + c_min * T with
       c_min = min((p-1)/(p+1), (q-1)/(q+1)), so C = c_min * K^(-gamma).

    Every step holds exactly for the discrete quadrature provided ``volume``
    is the discrete weight sum, which is what trajectory monitors pass in.
    """
    p, q = exponents.p, exponents.q
    gamma = blowup_exponent(exponents)
    big_k = max(gamma / (q + 1), gamma / (p + 1)) * volume ** (1 - 1 / gamma) * 2 ** (1 - 1 / gamma)
    c_min = min((p - 1) / (p + 1), (q - 1) / (q + 1))
    return c_min * big_k ** (-gamma)


def power_sum_bound(x, y, a):
    """Evaluate both sides of x^a + y^a <= 2^(1-a) * (x+y)^a.

    Takes scalars or arrays, elementwise.  Requires x > 0, y > 0 and
    0 < a < 1.  Returns (lhs, rhs, holds) where ``holds`` allows a 1e-12
    relative slack for rounding.  Equality is attained exactly at x = y.
    """
    if not (np.all(x > 0) and np.all(y > 0)):
        raise ValueError("power_sum_bound requires x > 0 and y > 0")
    if not (np.all(0 < a) and np.all(a < 1)):
        raise ValueError("power_sum_bound requires 0 < a < 1")
    lhs = x**a + y**a
    rhs = 2 ** (1 - a) * (x + y) ** a
    return lhs, rhs, lhs <= rhs * (1 + 1e-12)


@dataclass
class TrajectoryRecord:
    """Per-step diagnostics of a parabolic run.

    Rows are added while stepping, by :meth:`observe` from a state or by
    :meth:`append` from precomputed values, and the derivative columns are
    filled by :meth:`finalize`:

        dphi_lhs  = centred finite difference of phi over accepted steps
        dphi_rhs  = -2 E + (p-1)/(p+1) int |v|^(p+1) + (q-1)/(q+1) int |u|^(q+1)
        bound_rhs = -2 E(0) + C * phi^gamma

    with C from :func:`blowup_bound_constant` at the discrete volume.
    Auxiliary per-step extrema (largest nodewise increase/decrease, squeeze
    violations) support the monotonicity assertions without storing states.

    A lean record, from ``evolve(..., diagnostics=False)``, holds t, dt, the
    sup-norms and the two power integrals of every row and the auxiliary
    extrema; its phi and energy columns stay empty.  :meth:`finalize` leaves
    its derivative columns None, and :meth:`arrays`,
    :func:`dphi_identity_residual` and :func:`energy_monotonicity_violation`
    raise ValueError naming the missing columns.
    """

    exponents: ExponentPair
    volume: float
    t: list = field(default_factory=list)
    dt: list = field(default_factory=list)
    phi: list = field(default_factory=list)
    energy: list = field(default_factory=list)
    sup_u: list = field(default_factory=list)
    sup_v: list = field(default_factory=list)
    int_u_q1: list = field(default_factory=list)
    int_v_p1: list = field(default_factory=list)
    max_step_increase: float = -math.inf
    max_step_decrease: float = math.inf
    squeeze_low: float = 0.0        # most negative nodal value seen
    squeeze_high: float = 0.0       # largest exceedance over the squeeze bound
    dphi_lhs: np.ndarray | None = None
    dphi_rhs: np.ndarray | None = None
    bound_rhs: np.ndarray | None = None
    final_state: FieldPair | None = None

    def append(self, t, dt, phi, energy_val, int_u_q1, int_v_p1, sup_u, sup_v):
        """Add one row; a lean row passes None for ``phi`` and ``energy_val``."""
        self.t.append(t)
        self.dt.append(dt)
        if phi is not None:
            self.phi.append(phi)
            self.energy.append(energy_val)
        self.int_u_q1.append(int_u_q1)
        self.int_v_p1.append(int_v_p1)
        self.sup_u.append(sup_u)
        self.sup_v.append(sup_v)

    def observe(self, A: DiscreteLaplacian, pair: FieldPair, t: float, dt: float,
                sup_u: float, sup_v: float, diagnostics: bool = True,
                products: Sequence[np.ndarray] | None = None) -> None:
        """Append the row of ``pair``, the state at time t reached by a step dt.

        ``sup_u`` and ``sup_v`` are the pair's sup-norms, which the stepping
        loop has already taken.  ``products`` is (K u, K v) of the pair when
        the step's solve has formed them (see :func:`parabolic.step`); E's
        cross term is then :meth:`DiscreteLaplacian.quadratic_form` of those
        products, bitwise the value it computes without them, as for the
        initial row.  Without ``diagnostics`` the row is lean: no phi and
        no E, and the products go unread.
        """
        grid = A.grid
        int_u_q1, int_v_p1 = _power_halves(grid, pair, self.exponents)
        phi = energy_val = None
        if diagnostics:
            phi = product_integral(grid, pair)
            energy_val = _energy(A.quadratic_form(pair.u, pair.v, products), int_u_q1, int_v_p1,
                                 self.exponents)
        self.append(t, dt, phi, energy_val, int_u_q1, int_v_p1, sup_u, sup_v)

    @property
    def bigT(self) -> np.ndarray:
        """T per row, int_u_q1 + int_v_p1 elementwise."""
        return np.add(self.int_u_q1, self.int_v_p1)

    def __len__(self) -> int:
        return len(self.t)

    def _is_lean(self) -> bool:
        return len(self.phi) < len(self.t)

    def _require_full(self) -> None:
        if self._is_lean():
            raise ValueError("lean record has no phi or energy column: "
                             "evolve it with diagnostics=True")

    def finalize(self) -> "TrajectoryRecord":
        if self._is_lean():
            return self     # a lean record has no derivative columns
        p, q = self.exponents.p, self.exponents.q
        t = np.asarray(self.t)
        phi = np.asarray(self.phi)
        e = np.asarray(self.energy)
        iu = np.asarray(self.int_u_q1)
        iv = np.asarray(self.int_v_p1)
        m = len(t)
        lhs = np.zeros(m)
        if m >= 2:
            lhs[0] = (phi[1] - phi[0]) / (t[1] - t[0])
            lhs[-1] = (phi[-1] - phi[-2]) / (t[-1] - t[-2])
            if m >= 3:
                lhs[1:-1] = (phi[2:] - phi[:-2]) / (t[2:] - t[:-2])
        self.dphi_lhs = lhs
        self.dphi_rhs = -2 * e + (p - 1) / (p + 1) * iv + (q - 1) / (q + 1) * iu
        gamma = blowup_exponent(self.exponents)
        c = blowup_bound_constant(self.exponents, self.volume)
        e0 = e[0] if m else 0.0
        self.bound_rhs = -2 * e0 + c * phi**gamma
        return self

    def arrays(self) -> dict[str, np.ndarray]:
        self._require_full()
        if self.dphi_lhs is None:
            self.finalize()
        return {
            "t": np.asarray(self.t),
            "dt": np.asarray(self.dt),
            "phi": np.asarray(self.phi),
            "energy": np.asarray(self.energy),
            "bigT": self.bigT,
            "sup_u": np.asarray(self.sup_u),
            "sup_v": np.asarray(self.sup_v),
            "dphi_lhs": self.dphi_lhs,
            "dphi_rhs": self.dphi_rhs,
            "bound_rhs": self.bound_rhs,
        }


def dphi_identity_residual(record: TrajectoryRecord, index: int) -> float:
    """|dphi_lhs - dphi_rhs| at a recorded row; O(dt) under refinement."""
    record._require_full()
    if record.dphi_lhs is None:
        record.finalize()
    if not 0 <= index < len(record):
        raise IndexError("row index out of range")
    return float(abs(record.dphi_lhs[index] - record.dphi_rhs[index]))


def energy_monotonicity_violation(record: TrajectoryRecord) -> float:
    """Largest increase E_(k+1) - E_k across consecutive accepted steps.

    Meaningful for monotone-in-time runs of the unforced problem, where the
    exact rate -2 * integral(u_t v_t) is nonpositive; forced runs only log
    the energy without this guarantee.
    """
    record._require_full()
    if len(record) < 2:
        raise ValueError("need at least two rows")
    return float(np.max(np.diff(np.asarray(record.energy))))


class NotEquilibriumError(ValueError):
    def __init__(self, which: str, residual: float, tol: float):
        super().__init__(
            f"{which} pair is not an equilibrium: relative residual {residual:.3e} > {tol:.1e}"
        )
        self.residual = residual


def _steady_residual_norm(A, pair, exponents, shift) -> float:
    """Relative steady residual of the plain or shifted system."""
    p, q = exponents.p, exponents.q
    if shift is None:
        bu = signed_power(pair.v, p)
        bv = signed_power(pair.u, q)
    else:
        bu = signed_power(pair.v + shift.v, p) - signed_power(shift.v, p)
        bv = signed_power(pair.u + shift.u, q) - signed_power(shift.u, q)
    return relative_residual(A, pair, bu, bv)


def _shifted_quotient(x: np.ndarray, base: np.ndarray, s: float) -> np.ndarray:
    """((x + base)^s - base^s) / x with the removable singularity filled.

    Near x = 0 the quotient tends to s * base^(s-1); switching to that limit
    below a relative threshold avoids catastrophic cancellation without
    moving the integral beyond quadrature error.
    """
    scale = max(np.max(np.abs(x)), 1e-300)
    small = np.abs(x) < 1e-8 * scale
    safe = np.where(small, 1.0, x)
    quot = (signed_power(x + base, s) - signed_power(base, s)) / safe
    return np.where(small, s * signed_power(base, s - 1), quot)


def solution_pair_identity(
    grid: Grid,
    A: DiscreteLaplacian,
    pair1: FieldPair,
    pair2: FieldPair,
    exponents: ExponentPair,
    shift: FieldPair | None = None,
    steady_tol: float = DEFAULT_STEADY_TOL,
):
    """Integral identity linking two steady solutions; returns (lhs, rhs, |lhs-rhs|).

    Plain form, for two solutions (g, h) = pair1 and (U, V) = pair2 of the
    unforced steady system:

        lhs = int g*U*(g^(q-1) - U^(q-1)),   rhs = int h*V*(V^(p-1) - h^(p-1)).

    Shifted form (``shift`` = the minimal solution of the forced problem),
    for two solutions of the difference system:

        lhs = int U1*U2*(G(U2) - G(U1)),     rhs = int V1*V2*(H(V1) - H(V2)),

    with G(x) = ((x + u_min)^q - u_min^q)/x and H likewise in v.  Both forms
    vanish for exact solutions because the operator is exactly symmetric;
    the measured gap scales linearly with the equilibrium residuals.
    """
    for which, pair in (("pair1", pair1), ("pair2", pair2)):
        rn = _steady_residual_norm(A, pair, exponents, shift)
        if rn > steady_tol:
            raise NotEquilibriumError(which, rn, steady_tol)
    return _pair_identity_values(grid, pair1, pair2, exponents, shift)


def _pair_identity_values(grid, pair1, pair2, exponents, shift):
    p, q = exponents.p, exponents.q
    if shift is None:
        lhs = integrate(
            grid,
            pair1.u * pair2.u * (signed_power(pair1.u, q - 1) - signed_power(pair2.u, q - 1)),
        )
        rhs = integrate(
            grid,
            pair1.v * pair2.v * (signed_power(pair2.v, p - 1) - signed_power(pair1.v, p - 1)),
        )
    else:
        g1 = _shifted_quotient(pair1.u, shift.u, q)
        g2 = _shifted_quotient(pair2.u, shift.u, q)
        h1 = _shifted_quotient(pair1.v, shift.v, p)
        h2 = _shifted_quotient(pair2.v, shift.v, p)
        lhs = integrate(grid, pair1.u * pair2.u * (g2 - g1))
        rhs = integrate(grid, pair1.v * pair2.v * (h1 - h2))
    return lhs, rhs, abs(lhs - rhs)
