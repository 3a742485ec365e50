"""Time evolution: semi-implicit stepping, adaptive steps, run classification.

One step treats diffusion implicitly and the reaction explicitly,

    (I + dt A) u_new = u + dt*(|v|^(p-1) v + lam f),

and symmetrically in v.  First order in dt, but it inherits the structure
the qualitative classification rests on: the implicit operator is an
M-matrix and the explicit reaction is monotone, so nonnegativity, nodewise
ordering of co-evolved states, and monotonicity in time from strict
super-/sub-solution data all hold step by step for any step-size sequence.
Accuracy is bought with small dt, not scheme order.

One stepping loop serves every driver: it advances k states under a shared
dt sequence (the smallest reaction-limited step among them), and one
classifier decides per state between blow-up, decay, steady convergence
and undecided.  :func:`evolve` runs it with k = 1 and records the
diagnostics, or, for callers that read only the outcome, lean rows that
skip phi and E; :func:`evolve_ordered` runs it with k = 2 and watches the
ordering of the pair.

Decay is declared when the sup-norm falls to EPS_DECAY of its start, and
blow-up when it passes M_BLOW with the step at its floor.  An unforced run
given the :class:`Certificates` of :func:`certificates` may be classified
earlier, from the principal vector phi of the operator: it decays as soon
as it enters the eigenfunction cone, a strict supersolution below which
every state decays (the comparison that proves the threshold theorem,
applied step by step), and it blows up as soon as its phi-weighted mass
passes Kaplan's bound, above which that mass grows without bound (Kaplan,
CPAM 16, 1963; Escobedo & Herrero, JDE 89, 1991).  The threshold experiment
passes the certificates; without them, evolve runs every decay down to
EPS_DECAY and every blow-up up to M_BLOW.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import TrajectoryRecord
from .discrete import DiscreteLaplacian, FieldPair, solve_shifted
from .elliptic import _amplitudes, _reaction, forcing_arrays
from .problem import ExponentPair, ProblemSpec

__all__ = [
    "DT_MIN",
    "DT_MAX",
    "ETA",
    "M_BLOW",
    "EPS_DECAY",
    "EPS_STEADY",
    "CONE_THETA",
    "IntegratorConfig",
    "Outcome",
    "Certificates",
    "OrderingReport",
    "step",
    "adapt_dt",
    "certificates",
    "evolve",
    "evolve_ordered",
    "NumericalFailureError",
]


class NumericalFailureError(RuntimeError):
    """NaN/Inf appeared before any classification fired (not a blow-up call).

    ``what`` names the quantity: the state, or, for data rejected at t = 0,
    its reaction or its diagnostic row.
    """

    def __init__(self, t: float, what: str = "state"):
        super().__init__(f"non-finite {what} at t={t:.6g} before classification")
        self.t = t


#: Step floor and ceiling (scaled time units); dt0 must lie between them.
DT_MIN = 1e-10
DT_MAX = 1e-2
#: Reaction safety factor: keeps the explicit reaction stable and the blow-up resolved.
ETA = 0.1
#: Sup-norm that, with the step at its floor, declares blow-up.
M_BLOW = 1e6
#: Relative sup-norm that declares decay (unforced runs).
EPS_DECAY = 1e-8
#: Relative change per unit time that declares convergence to a steady state.
EPS_STEADY = 1e-8
#: Nodewise ordering slack of :func:`evolve_ordered`, relative to max(1, sup).
TOL_ORDER = 1e-10
#: Scale theta < 1 of the decay cone; 1 - theta is its margin as a strict
#: supersolution, and the margin of Kaplan's blow-up bound.
CONE_THETA = 0.99


@dataclass(frozen=True)
class IntegratorConfig:
    """Step cap and horizon (scaled time units).

    dt0 caps every step and is the knob refinement studies halve; it must
    lie in [DT_MIN, DT_MAX].  t_max is the horizon at which a run that no
    other rule classified is undecided.
    """

    dt0: float = 1e-3
    t_max: float = 50.0

    def __post_init__(self):
        if not DT_MIN <= self.dt0 <= DT_MAX:
            raise ValueError(f"need {DT_MIN:g} <= dt0 <= {DT_MAX:g}")


@dataclass(frozen=True)
class Outcome:
    """Classification of a run.

    kind: "decay" | "blowup" | "steady" | "undecided".  Decay and blow-up
    carry the rule that declared them.  Decay: "sup" (the sup-norm fell to
    EPS_DECAY of its start) or "cone" (the state entered the decay cone).
    Blow-up: "sup" (the sup-norm passed M_BLOW with the step at its floor)
    or "kaplan" (the phi-weighted mass passed Kaplan's bound).  Blow-up also
    carries the sup-norm at stop and t_est, the blow-up time estimate: for
    "sup" the stopping time itself, with no extrapolation; for "kaplan" an
    upper bound, the stopping time plus Kaplan's bound on the remaining
    time of the space-discrete flow from the state at stop (see
    :meth:`Certificates.kaplan_time`).  Steady convergence carries the
    limit state.
    """

    kind: str
    t_end: float
    t_est: Optional[float] = None
    sup_at_stop: Optional[float] = None
    limit: Optional[FieldPair] = None
    rule: Optional[str] = None

    @classmethod
    def decay(cls, t: float, rule: str = "sup") -> "Outcome":
        return cls("decay", t, rule=rule)

    @classmethod
    def blow_up(cls, t: float, sup: float, rule: str = "sup", t_est: Optional[float] = None
                ) -> "Outcome":
        return cls("blowup", t, t_est=t if t_est is None else t_est, sup_at_stop=sup, rule=rule)

    @classmethod
    def steady(cls, t: float, limit: FieldPair) -> "Outcome":
        return cls("steady", t, limit=limit)

    @classmethod
    def undecided(cls, t: float) -> "Outcome":
        return cls("undecided", t)


def adapt_dt(state: FieldPair, exponents: ExponentPair,
             sups: Optional[tuple[float, float]] = None) -> float:
    """Reaction-limited step: clamp(ETA / rate, DT_MIN, DT_MAX).

    rate = max(p ||v||_inf^(p-1), q ||u||_inf^(q-1), ETA/DT_MAX); the guard
    term makes the reaction-free limit exactly DT_MAX.  ``sups`` is the
    state's (||u||_inf, ||v||_inf) when the caller has taken them already.
    """
    p, q = exponents.p, exponents.q
    sup_u, sup_v = (state.sup_u, state.sup_v) if sups is None else sups
    try:
        rate = max(
            p * sup_v ** (p - 1),
            q * sup_u ** (q - 1),
            ETA / DT_MAX,
        )
    except OverflowError:
        rate = math.inf
    return min(max(ETA / rate, DT_MIN), DT_MAX)


@dataclass(frozen=True)
class Certificates:
    """Decay and blow-up certificates of an unforced problem on one operator.

    Both come from phi > 0, the sup-normalised principal vector of A; phi
    need not be an exact eigenvector.  mu = min_i (A phi)_i / phi_i and
    Lambda = max_i (A phi)_i / phi_i are its lower and upper Collatz-Wielandt
    bounds, so mu phi <= A phi <= Lambda phi nodewise.

    ``cone`` is C = CONE_THETA * (a phi, b phi) with a = mu^((p+1)/(pq-1))
    and b = mu^((q+1)/(pq-1)), so b^p = mu a and a^q = mu b; since
    phi^p <= phi and theta^p < theta, A C_u >= C_v^p and A C_v >= C_u^q with
    a margin.  One semi-implicit step of the unforced flow therefore maps
    every nonnegative state below C below C again, shrunk by the factor
    (1 + dt mu theta^(p-1)) / (1 + dt mu) (and likewise with q), whatever
    dt is: such a state decays to 0.

    ``omega`` = w phi / <phi, 1>_w is a probability weight, and
    H = omega . (u + v) is the mass Kaplan's argument follows.  By the
    symmetry of K, A phi <= Lambda phi and Jensen's inequality, one step
    gives (1 + dt Lambda) H_new >= H + dt (c H^r - s) for any dt, with
    r = min(p, q), c = 2^(1-r), and s = 0 if p = q, else 1 (x^p >= x^r - 1
    for x >= 0).  Once CONE_THETA (c H^r - s) > Lambda H, H grows every
    step without bound: the flow blows up.
    """

    cone: FieldPair
    mu: float
    omega: np.ndarray
    kaplan_lambda: float
    r: float
    c: float
    s: float

    def kaplan_time(self, state: FieldPair) -> Optional[float]:
        """Kaplan's bound on the remaining time to blow-up; None while it does not apply.

        Along the space-discrete flow dH/dt >= c H^r - s - Lambda H, so the
        flow from ``state`` blows up within the integral of
        dh / (c h^r - s - Lambda h) from H to infinity: in closed form
        ln(c H^(r-1) / (c H^(r-1) - Lambda)) / ((r-1) Lambda) when s = 0,
        by quadrature otherwise, under the caller's numpy error state: in
        evolve's march, a power of H that overflows is inf and warns of nothing.
        """
        r, c, s, lam = self.r, self.c, self.s, self.kaplan_lambda
        H = self.omega @ (state.u + state.v)
        if not CONE_THETA * (c * H**r - s) > lam * H:
            return None
        y = float(c * H ** (r - 1))
        if s == 0.0:
            return -math.log1p(-lam / y) / ((r - 1) * lam)
        from scipy.integrate import quad    # p != q only; keeps scipy.integrate off the import
        # h = H x^(-1/(r-1)) maps [H, inf) onto (0, 1] and leaves a smooth,
        # positive integrand: its denominator falls to (c H^r - s - Lambda H) / H
        tail = lambda x: 1.0 / (y - lam * x - s / float(H) * x ** (r / (r - 1)))
        return quad(tail, 0.0, 1.0)[0] / (r - 1)


def certificates(spec: ProblemSpec, A: DiscreteLaplacian) -> Certificates:
    """The decay cone and Kaplan's blow-up bound of ``spec`` on ``A``, built once."""
    phi = A.principal_vector
    ratio = A.apply(phi) / phi
    mu = float(np.min(ratio))
    a, b = _amplitudes(spec, mu)
    weight = A.grid.weights * phi
    r = min(spec.p, spec.q)
    return Certificates(
        cone=FieldPair(CONE_THETA * a * phi, CONE_THETA * b * phi, A.grid),
        mu=mu,
        omega=weight / np.sum(weight),
        kaplan_lambda=float(np.max(ratio)),
        r=r,
        c=2.0 ** (1.0 - r),
        s=0.0 if spec.p == spec.q else 1.0,
    )


def step(spec: ProblemSpec, A: DiscreteLaplacian, state: FieldPair, dt: float, *,
         products: Optional[list] = None, forcing: Optional[np.ndarray] = None) -> FieldPair:
    """One semi-implicit step of length dt; the forcing is evaluated on A's grid.

    A caller that steps many times passes ``forcing``, its
    forcing_arrays(spec, A.grid), made once; by default the step evaluates
    it.  The right-hand side is the reaction's fresh (m, 2) block, finished
    by three in-place operations with the state's block, and the new state
    wraps the solve's answer: column-major blocks, the layout every
    shifted-solve route and its backward-error check work in, so none of
    them copies.  A ``products`` list is passed on to solve_shifted and
    comes back holding [K u, K v] of the new state, the products its 1e-12
    check formed; the full diagnostic row reads its energy's cross term
    from them.
    """
    if forcing is None:
        forcing = forcing_arrays(spec, A.grid)
    rhs = _reaction(spec, state, forcing).block
    # (I + dt A) x = u + dt r  <=>  (1/dt I + A) x = (u + dt r)/dt
    rhs *= dt
    rhs += state.block
    rhs /= dt
    return FieldPair.wrap(solve_shifted(A, 1.0 / dt, rhs, products=products), A.grid)


def _march(spec, A, states, config, keep_products=False):
    """Step every state under one shared dt sequence; yield (t, dt, new, sups, products).

    ``sups`` holds each new state's [||u||_inf, ||v||_inf], taken once per
    step on its block, the step's answer: the next step size, the caller's
    rows and its classification all read them.  With ``keep_products``,
    ``products`` holds each new state's [K u, K v], formed by its step's
    solve, in lists made fresh every step; a full row reads its energy from
    them, passed explicitly rather than kept on the FieldPair, where a copy
    or an in-place edit would leave them stale.  Without it, as for lean
    rows and ordered pairs, which read no energy, each entry is None and the
    solves hand out nothing.  The step is the smallest reaction-limited step
    over the states, capped at dt0.
    Non-finite data, whether a reaction of the initial states, rejected by
    the solver or produced by the step, raises NumericalFailureError.  The
    caller decides when to stop.
    """
    forcing = forcing_arrays(spec, A.grid)
    # checked at the initial states only: a guard in every step would cost every step
    with np.errstate(over="ignore", invalid="ignore"):
        finite = all(np.isfinite(_reaction(spec, s, forcing).block).all() for s in states)
    if not finite:
        raise NumericalFailureError(0.0, "reaction")
    sups = [(s.sup_u, s.sup_v) for s in states]
    t = 0.0
    while True:
        dt = min(*(adapt_dt(s, spec.exponents, m) for s, m in zip(states, sups)), config.dt0)
        products = [[] if keep_products else None for _ in states]
        try:
            new = [step(spec, A, s, dt, products=kx, forcing=forcing)
                   for s, kx in zip(states, products)]
        except ValueError as exc:          # non-finite data rejected by the solver
            raise NumericalFailureError(t + dt) from exc
        sups = [np.abs(s.block).max(axis=0).tolist() for s in new]
        # a sup-norm is finite only if every value is: NaN and inf both propagate
        if not all(math.isfinite(su) and math.isfinite(sv) for su, sv in sups):
            raise NumericalFailureError(t + dt)
        t += dt
        yield t, dt, new, sups, products
        states = new


def _classify(spec, config, s0, prev_sup, state, sup, change, t, dt, certs=None
              ) -> Optional[Outcome]:
    """Apply the rules of :func:`evolve` to ``state`` of sup-norm ``sup``; None while none fires."""
    if sup >= M_BLOW and dt <= DT_MIN * (1 + 1e-9):
        return Outcome.blow_up(t, sup)
    # the floor keeps the rule alive where EPS_DECAY * s0 underflows
    if spec.lam == 0.0 and sup <= max(EPS_DECAY * s0, np.finfo(float).tiny):
        return Outcome.decay(t)
    if spec.lam == 0.0 and certs is not None:
        if (state.block <= certs.cone.block).all():
            return Outcome.decay(t, "cone")
        rest = certs.kaplan_time(state)
        if rest is not None:
            return Outcome.blow_up(t, sup, "kaplan", t + rest)
    scale = max(sup, prev_sup)
    if dt * scale > 0 and change / (dt * scale) <= EPS_STEADY:   # dt * scale may underflow
        return Outcome.steady(t, state)
    if t >= config.t_max:
        return Outcome.undecided(t)
    return None


def _check_nonnegative(*states: FieldPair) -> None:
    """The drivers' one admission check of initial data, before any row or step."""
    if any(np.min(s.u) < 0 or np.min(s.v) < 0 for s in states):
        raise ValueError("initial data must be nonnegative")


def evolve(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    initial: FieldPair,
    config: IntegratorConfig = IntegratorConfig(),
    squeeze_upper: Optional[FieldPair] = None,
    certs: Optional[Certificates] = None,
    diagnostics: bool = True,
) -> tuple[Outcome, TrajectoryRecord]:
    """Evolve nonnegative initial data and classify the run.

    Diagnostics are recorded every accepted step.  Classification order per
    step: blow-up (sup >= M_BLOW with dt at the floor), decay (unforced runs
    whose relative sup-norm fell to EPS_DECAY), then, for unforced runs given
    ``certs`` from :func:`certificates`, decay when the state lies below the
    cone nodewise and blow-up when its mass passes Kaplan's bound; steady
    convergence (relative change per unit time at most EPS_STEADY; this also
    catches unforced runs parked at a metastable discrete equilibrium),
    undecided at the horizon.  ``squeeze_upper`` tracks the largest
    exceedance over a prescribed upper state without storing trajectories.
    Initial data whose diagnostic row or reaction is not finite raises
    NumericalFailureError at t = 0, before any step; a later row that is not
    finite raises it at its time, before that step is classified.

    Callers that read only the outcome pass ``diagnostics=False``.  Each row
    is then lean: t, dt, the sup-norms and the two power integrals, without
    phi or E.  The outcome, the columns kept and the auxiliary extrema are
    bitwise those of a full run, a lean row's finiteness check reads its
    power integrals, and the record refuses by name what it lacks (see
    :class:`TrajectoryRecord`).
    """
    _check_nonnegative(initial)
    record = TrajectoryRecord(exponents=spec.exponents, volume=A.grid.volume)
    state = initial.copy()
    sup_u, sup_v = state.sup_u, state.sup_v
    s0 = prev_sup = max(sup_u, sup_v)

    def observe(pair, t, dt, *sups, products=None):
        record.observe(A, pair, t, dt, *sups, diagnostics=diagnostics, products=products)
        # a sum of the row's terms is finite only if all of them are
        row = record.int_u_q1[-1] + record.int_v_p1[-1]
        if diagnostics:
            row = record.phi[-1] + record.energy[-1] + row
        if not math.isfinite(row):
            raise NumericalFailureError(t, "diagnostic row")

    # overflow while stepping is caught by the finiteness checks, not warned
    # about: one error state for the run, none per step
    with np.errstate(over="ignore", invalid="ignore"):
        observe(state, 0.0, 0.0, sup_u, sup_v)
        outcome = Outcome.decay(0.0) if spec.lam == 0.0 and s0 == 0.0 else None
        if outcome is None:
            march = _march(spec, A, [state], config, keep_products=diagnostics)
            for t, dt, (new,), ((sup_u, sup_v),), (kx,) in march:
                # per column of the (m, 2) blocks: a column's extremum is
                # bitwise the one its own array gives, signed zeros included
                change = new.block - state.block
                increase = max(change.max(axis=0).tolist())
                decrease = min(change.min(axis=0).tolist())
                record.max_step_increase = max(record.max_step_increase, increase)
                record.max_step_decrease = min(record.max_step_decrease, decrease)
                record.squeeze_low = min(record.squeeze_low, *new.block.min(axis=0).tolist())
                if squeeze_upper is not None:
                    excess = (new.block - squeeze_upper.block).max(axis=0).tolist()
                    record.squeeze_high = max(record.squeeze_high, *excess)
                observe(new, t, dt, sup_u, sup_v, products=kx)
                sup = max(sup_u, sup_v)
                # abs is exact, so max(increase, -decrease) is the largest
                # |du| or |dv|, the change the steady rule reads
                outcome = _classify(spec, config, s0, prev_sup, new, sup,
                                    max(increase, -decrease), t, dt, certs)
                state, prev_sup = new, sup
                if outcome is not None:
                    break
    record.final_state = state
    return outcome, record.finalize()


@dataclass
class OrderingReport:
    """Result of co-evolving an ordered pair of states with a shared dt sequence.

    ``ok`` is False once low exceeded high at some node, in some step, by
    more than TOL_ORDER * max(1, sup of high); ``max_gap`` is the largest
    such excess over the run (negative while high stays strictly above).
    """

    ok: bool
    t_end: float
    max_gap: float
    outcome_low: Optional[Outcome] = None
    outcome_high: Optional[Outcome] = None


def evolve_ordered(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    low: FieldPair,
    high: FieldPair,
    config: IntegratorConfig = IntegratorConfig(),
) -> OrderingReport:
    """Co-evolve low <= high under one dt sequence and watch the ordering.

    The scheme is order preserving (M-matrix solve plus monotone reaction),
    so any violation beyond TOL_ORDER * scale indicates a scheme bug and
    clears ``ok``.  Each state is classified by the same rules as
    :func:`evolve` and keeps its first outcome; the run stops when both
    states are classified or either blows up.  The march runs under the
    same float-range guard as :func:`evolve`: data that overflows raises
    NumericalFailureError, or LinearSolveError from the shifted solve,
    without a warning.  Initial data must be nonnegative, as for
    :func:`evolve`.
    """
    _check_nonnegative(low, high)
    if np.min(high.u - low.u) < -TOL_ORDER or np.min(high.v - low.v) < -TOL_ORDER:
        raise ValueError("initial states are not ordered low <= high")
    states = [low.copy(), high.copy()]
    s0 = sup = [s.sup for s in states]
    outcomes: list[Optional[Outcome]] = [None, None]
    t = 0.0
    ok, max_gap = True, -math.inf

    with np.errstate(over="ignore", invalid="ignore"):
        for t, dt, new, sups, _ in _march(spec, A, states, config):
            a, b = new
            new_sup = [max(m) for m in sups]
            gap = max((a.block - b.block).max(axis=0).tolist())
            max_gap = max(max_gap, gap)
            ok = ok and gap <= TOL_ORDER * max(1.0, new_sup[1])
            for i, (old, cur) in enumerate(zip(states, new)):
                if outcomes[i] is None:
                    change = max(np.abs(cur.block - old.block).max(axis=0).tolist())
                    outcomes[i] = _classify(spec, config, s0[i], sup[i], cur, new_sup[i],
                                            change, t, dt)
            states, sup = new, new_sup
            if all(outcomes) or any(o.kind == "blowup" for o in outcomes if o):
                break    # a blown-up state cannot be stepped further

    return OrderingReport(ok, t, max_gap, outcomes[0], outcomes[1])
