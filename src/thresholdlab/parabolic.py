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
diagnostics; :func:`evolve_ordered` runs it with k = 2 and watches the
ordering of the pair.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .analysis import TrajectoryRecord
from .discrete import DiscreteLaplacian, FieldPair, solve_shifted
from .elliptic import forcing_arrays, signed_power
from .problem import ExponentPair, ProblemSpec

__all__ = [
    "DT_MIN",
    "DT_MAX",
    "ETA",
    "M_BLOW",
    "EPS_DECAY",
    "EPS_STEADY",
    "IntegratorConfig",
    "Outcome",
    "OrderingReport",
    "step",
    "adapt_dt",
    "evolve",
    "evolve_ordered",
    "NumericalFailureError",
]


class NumericalFailureError(RuntimeError):
    """NaN/Inf appeared before any classification fired (not a blow-up call)."""

    def __init__(self, t: float):
        super().__init__(f"non-finite state at t={t:.6g} before classification")
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

    kind: "decay" | "blowup" | "steady" | "undecided".  Blow-up carries the
    stopping time t_est (an upper-bound estimate: the time at which the
    sup-norm passed M_BLOW with the step at its floor; no extrapolation is
    attempted) and the sup-norm at stop.  Steady convergence carries the
    limit state.
    """

    kind: str
    t_end: float
    t_est: Optional[float] = None
    sup_at_stop: Optional[float] = None
    limit: Optional[FieldPair] = None

    @classmethod
    def decay(cls, t: float) -> "Outcome":
        return cls("decay", t)

    @classmethod
    def blow_up(cls, t: float, sup: float) -> "Outcome":
        return cls("blowup", t, t_est=t, sup_at_stop=sup)

    @classmethod
    def steady(cls, t: float, limit: FieldPair) -> "Outcome":
        return cls("steady", t, limit=limit)

    @classmethod
    def undecided(cls, t: float) -> "Outcome":
        return cls("undecided", t)


def adapt_dt(state: FieldPair, exponents: ExponentPair) -> float:
    """Reaction-limited step: clamp(ETA / rate, DT_MIN, DT_MAX).

    rate = max(p ||v||_inf^(p-1), q ||u||_inf^(q-1), ETA/DT_MAX); the guard
    term makes the reaction-free limit exactly DT_MAX.
    """
    p, q = exponents.p, exponents.q
    try:
        rate = max(
            p * state.sup_v ** (p - 1),
            q * state.sup_u ** (q - 1),
            ETA / DT_MAX,
        )
    except OverflowError:
        rate = math.inf
    return min(max(ETA / rate, DT_MIN), DT_MAX)


def step(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    state: FieldPair,
    dt: float,
    _forcing: Optional[tuple[np.ndarray, np.ndarray]] = None,
) -> FieldPair:
    """One semi-implicit step of length dt."""
    p, q = spec.p, spec.q
    fu, gv = forcing_arrays(spec, A.grid) if _forcing is None else _forcing
    rhs = np.column_stack(
        [
            state.u + dt * (signed_power(state.v, p) + fu),
            state.v + dt * (signed_power(state.u, q) + gv),
        ]
    )
    # (I + dt A) x = b  <=>  (1/dt I + A) x = b/dt
    new = solve_shifted(A, 1.0 / dt, rhs / dt)
    return FieldPair(new[:, 0], new[:, 1], A.grid)


def _march(spec, A, states, config):
    """Step every state under one shared dt sequence; yield (t, dt, new_states).

    The step is the smallest reaction-limited step over the states, capped
    at dt0.  Non-finite data, whether rejected by the solver or produced by
    the step, raises NumericalFailureError.  The caller decides when to stop.
    """
    forcing = forcing_arrays(spec, A.grid)
    t = 0.0
    while True:
        dt = min(*(adapt_dt(s, spec.exponents) for s in states), config.dt0)
        try:
            new = [step(spec, A, s, dt, _forcing=forcing) for s in states]
        except ValueError as exc:          # non-finite data rejected by the solver
            raise NumericalFailureError(t + dt) from exc
        if not all(np.all(np.isfinite(s.u)) and np.all(np.isfinite(s.v)) for s in new):
            raise NumericalFailureError(t + dt)
        t += dt
        yield t, dt, new
        states = new


def _classify(spec, config, s0, prev_sup, state, change, t, dt) -> Optional[Outcome]:
    """Apply the rules of :func:`evolve` in order; None while no rule fires."""
    sup = state.sup
    if sup >= M_BLOW and dt <= DT_MIN * (1 + 1e-9):
        return Outcome.blow_up(t, sup)
    if spec.lam == 0.0 and sup <= EPS_DECAY * s0:
        return Outcome.decay(t)
    scale = max(sup, prev_sup)
    if scale > 0 and change / (dt * scale) <= EPS_STEADY:
        return Outcome.steady(t, state)
    if t >= config.t_max:
        return Outcome.undecided(t)
    return None


def _max_abs(du, dv) -> float:
    return max(float(np.max(np.abs(du))), float(np.max(np.abs(dv))))


def evolve(
    spec: ProblemSpec,
    A: DiscreteLaplacian,
    initial: FieldPair,
    config: IntegratorConfig = IntegratorConfig(),
    squeeze_upper: Optional[FieldPair] = None,
) -> tuple[Outcome, TrajectoryRecord]:
    """Evolve nonnegative initial data and classify the run.

    Diagnostics are recorded every accepted step.  Classification order per
    step: blow-up (sup >= M_BLOW with dt at the floor), decay (unforced runs
    whose relative sup-norm fell to EPS_DECAY), steady convergence (relative
    change per unit time at most EPS_STEADY; this also catches unforced runs
    parked at a metastable discrete equilibrium), undecided at the horizon.
    ``squeeze_upper`` tracks the largest exceedance over a prescribed upper
    state without storing trajectories.
    """
    if np.min(initial.u) < 0 or np.min(initial.v) < 0:
        raise ValueError("initial data must be nonnegative")
    record = TrajectoryRecord(exponents=spec.exponents, volume=A.grid.volume)
    state = initial.copy()
    s0 = state.sup
    record.observe(A, state, 0.0, 0.0)
    outcome = Outcome.decay(0.0) if spec.lam == 0.0 and s0 == 0.0 else None

    if outcome is None:
        for t, dt, (new,) in _march(spec, A, [state], config):
            du = new.u - state.u
            dv = new.v - state.v
            record.max_step_increase = max(record.max_step_increase, du.max(), dv.max())
            record.max_step_decrease = min(record.max_step_decrease, du.min(), dv.min())
            record.squeeze_low = min(record.squeeze_low, float(new.u.min()), float(new.v.min()))
            if squeeze_upper is not None:
                record.squeeze_high = max(
                    record.squeeze_high,
                    float(np.max(new.u - squeeze_upper.u)),
                    float(np.max(new.v - squeeze_upper.v)),
                )
            record.observe(A, new, t, dt)
            outcome = _classify(spec, config, s0, state.sup, new, _max_abs(du, dv), t, dt)
            state = new
            if outcome is not None:
                break
    record.final_state = state
    return outcome, record.finalize()


@dataclass
class OrderingReport:
    """Result of co-evolving an ordered pair of states with a shared dt sequence."""

    ok: bool
    steps: int
    t_end: float
    max_gap: float                      # largest nodewise amount by which low exceeded high
    first_violation: Optional[tuple[float, int, float]] = None   # (t, node, gap)
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
    so any violation beyond TOL_ORDER * scale indicates a scheme bug; the
    first one is reported with its time and node.  Each state is classified
    by the same rules as :func:`evolve` and keeps its first outcome; the run
    stops when both states are classified or either blows up.
    """
    if np.min(high.u - low.u) < -TOL_ORDER or np.min(high.v - low.v) < -TOL_ORDER:
        raise ValueError("initial states are not ordered low <= high")
    states = [low.copy(), high.copy()]
    s0 = [s.sup for s in states]
    outcomes: list[Optional[Outcome]] = [None, None]
    t, steps = 0.0, 0
    max_gap = -math.inf
    first = None

    for t, dt, new in _march(spec, A, states, config):
        steps += 1
        a, b = new
        scale = max(1.0, b.sup)
        gap = max(float(np.max(a.u - b.u)), float(np.max(a.v - b.v)))
        max_gap = max(max_gap, gap)
        if gap > TOL_ORDER * scale and first is None:
            node = int(np.argmax(np.maximum(a.u - b.u, a.v - b.v)))
            first = (t, node, gap)
        for i, (old, cur) in enumerate(zip(states, new)):
            if outcomes[i] is None:
                change = _max_abs(cur.u - old.u, cur.v - old.v)
                outcomes[i] = _classify(spec, config, s0[i], old.sup, cur, change, t, dt)
        states = new
        if all(outcomes) or any(o.kind == "blowup" for o in outcomes if o):
            break    # a blown-up state cannot be stepped further

    return OrderingReport(
        ok=first is None,
        steps=steps,
        t_end=t,
        max_gap=max_gap,
        first_violation=first,
        outcome_low=outcomes[0],
        outcome_high=outcomes[1],
    )
