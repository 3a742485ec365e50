"""The three benchmark workloads: seeded inputs, one pass of work, correctness gates.

A pass is a list of operations.  An operation is one CLI invocation or one
solver call; its ``work`` runs inside the timed region and its ``check``
runs afterwards, returning the problems found and the output bytes that
later passes must reproduce exactly.

Inputs come from ``inputs(workload, seed)`` alone, which uses only the
standard library so that it can be tested without the program.  The
program receives only the generated inputs, never the seed.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable


#: Seeded ranges of the threshold bracket ends.  A bisection's work is a
#: step function of where its probes land: over U[0.4, 0.6] x U[1.4, 1.6] one
#: bracket takes 12.0k to 21.6k steps, and even nine brackets per pass leave
#: about 8% spread between seeds.  Inside this box every bracket follows the
#: same probe path, so the seed moves the inputs but not the amount of work.
THRESHOLD_LO = (0.505, 0.525)
THRESHOLD_HI = (1.41, 1.43)
STEADY_PAIRS = 4        # seeded (p, q) pairs per radial dimension


def inputs(workload: str, seed: int) -> dict:
    """The generated inputs of one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{workload}:{seed}")
    draw = lambda lo, hi, digits: round(rng.uniform(lo, hi), digits)
    if workload == "threshold-disk":
        return {"alphas": (draw(*THRESHOLD_LO, 4), draw(*THRESHOLD_HI, 4))}
    if workload == "evolve-square":
        return {"alphas": (draw(0.4, 0.6, 4), draw(1.4, 1.6, 4))}
    if workload == "steady-sweep":
        pair = lambda: (draw(1.5, 3.5, 3), draw(1.5, 3.5, 3))
        return {
            "disk": [pair() for _ in range(STEADY_PAIRS)],
            "ball": [pair() for _ in range(STEADY_PAIRS)],
            "square": pair(),
        }
    raise KeyError(f"unknown workload {workload!r}")


@dataclass
class Operation:
    name: str
    work: Callable[[], Any]
    check: Callable[[Any], tuple[list, dict]]    # value -> (problems, outputs)


def plan(workload: str, data: dict, out: Path) -> list[Operation]:
    """The operations of one pass, writing their files under ``out``."""
    return WORKLOADS[workload](data, out)


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _cli(argv: list) -> int:
    from thresholdlab.lab import cli

    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.is_file() else b""


def _threshold_disk(data, out):
    lo, hi = data["alphas"]
    argv = ["threshold", "--geometry", "radial", "--dim", "2", "--p", "3", "--q", "3",
            "--resolution", "512", "--width", "0.02", "--alphas", f"{lo},{hi}",
            "--out", str(out)]
    return [Operation("threshold", lambda: _cli(argv),
                      lambda code: _check_threshold(code, out))]


def _check_threshold(code, target):
    problems = [] if code == 0 else [f"exit code {code}"]
    raw = _read(target / "result.json")
    result = json.loads(raw) if raw else {}
    bracket = result.get("derived", {}).get("alpha_bracket")
    if not bracket:
        problems.append("no alpha_bracket")
    else:
        lo, hi = bracket
        if not (0.97 <= lo <= hi <= 1.03 and hi - lo <= 0.02):
            problems.append(f"alpha_bracket {bracket} outside [0.97, 1.03] or wider than 0.02")
    kinds = [run["outcome"] for run in result.get("runs", [])]
    if not kinds or any(k not in ("decay", "blowup") for k in kinds):
        problems.append(f"undecided or missing runs: {kinds}")
    if "undecided_at" in result.get("derived", {}) or "skipped" in result:
        problems.append("bisection stopped early")
    return problems, {"result.json": raw}


def _evolve_square(data, out):
    ops = []
    for alpha, expect in zip(data["alphas"], ("decay", "blowup")):
        target = out / f"evolve-{expect}"
        argv = ["evolve", "--geometry", "rect", "--resolution", "48", "--alpha", str(alpha),
                "--format", "csv", "--out", str(target)]
        ops.append(Operation(f"evolve[{alpha}]", lambda argv=argv: _cli(argv),
                             lambda code, t=target, e=expect: _check_evolve(code, t, e)))
    return ops


def _check_evolve(code, target, expect):
    problems = [] if code == 0 else [f"exit code {code}"]
    raw_json = _read(target / "result.json")
    raw_csv = _read(target / "trajectory.csv")
    result = json.loads(raw_json) if raw_json else {}
    if result.get("outcome") != expect:
        problems.append(f"outcome {result.get('outcome')!r}, expected {expect!r}")
    problems += _csv_problems(raw_csv.decode(), result.get("t_end"))
    return problems, {"result.json": raw_json, "trajectory.csv": raw_csv}


def _csv_problems(text: str, t_end) -> list:
    """One row per accepted step plus the initial row: steps + 1 rows.

    Row k must sit at t_k = t_(k-1) + dt_k, exactly as the integrator adds
    them (17 significant digits round-trip a double), and the last row at
    the reported end time, so no step is missing or doubled.
    """
    lines = text.splitlines()
    if len(lines) < 3 or not lines[0].startswith("t,dt,"):
        return ["trajectory CSV has no steps"]
    rows = [tuple(float(x) for x in line.split(",")[:2]) for line in lines[1:]]
    if rows[0] != (0.0, 0.0):
        return [f"first CSV row {rows[0]} is not the initial state"]
    for k in range(1, len(rows)):
        if rows[k][0] != rows[k - 1][0] + rows[k][1] or rows[k][1] <= 0:
            return [f"CSV row {k} does not follow row {k - 1} by one step"]
    if rows[-1][0] != t_end:
        return [f"last CSV time {rows[-1][0]} differs from t_end {t_end}"]
    return []


# ---------------------------------------------------------------------------
# steady-sweep: direct calls into the elliptic and analysis API
# ---------------------------------------------------------------------------

STEADY_TOL = 1e-10
PROFILE_TOL = 1e-4        # Newton vs shooting, relative to the centre value
IDENTITY_TOL = 1e-12
LAMBDA_REL_WIDTH = 0.05


def _steady_sweep(data, out):
    import thresholdlab as tl
    from thresholdlab import elliptic as el
    from thresholdlab.analysis import solution_pair_identity
    from thresholdlab.lab import io as lab_io

    ctx: dict = {}
    ops: list[Operation] = []

    def steady(method, key, header, solver):
        """Operation: one steady solve, kept in ``ctx`` and written as a snapshot."""
        def work():
            ctx[key] = eq = solver()
            lab_io.save_snapshot(out / f"{key}.snap", eq.pair, header)
            return eq

        def check(eq):
            problems = []
            if not eq.residual_norm <= STEADY_TOL:
                problems.append(f"{key}: residual {eq.residual_norm:.3e} > {STEADY_TOL:.0e}")
            if min(eq.pair.u.min(), eq.pair.v.min()) <= 0:
                problems.append(f"{key}: not positive")
            return problems, {f"{key}.snap": _read(out / f"{key}.snap")}

        return Operation(f"{method}[{key}]", work, check)

    disk = lambda dim: tl.build_laplacian(
        tl.build_grid(tl.RadialBall(dim, 1.0), tl.BoundarySpec.dirichlet(), 512))
    operators = {2: disk(2), 3: disk(3)}
    for dim, pairs in ((2, data["disk"]), (3, data["ball"])):
        for i, (p, q) in enumerate(pairs):
            key = f"ball{dim}d-{i}"
            spec = tl.ProblemSpec(tl.ExponentPair(p, q), tl.RadialBall(dim, 1.0))
            header = {"geometry": "radial", "dim": dim, "resolution": 512, "p": p, "q": q}
            ops.append(steady("newton", key, header,
                              lambda spec=spec, A=operators[dim]: el.solve_newton(spec, A)))
            ops.append(Operation(
                f"shooting[{key}]",
                lambda spec=spec, dim=dim: el.shooting_oracle(
                    spec.exponents, dim, tl.BoundarySpec.dirichlet()),
                lambda oracle, key=key: _profile_check(ctx.get(key), oracle, key),
            ))

    p, q = data["square"]
    square = tl.ProblemSpec(tl.ExponentPair(p, q), tl.Rectangle(1.0, 1.0))
    A_square = tl.build_laplacian(tl.build_grid(square.domain, square.boundary, 48))
    ops.append(steady("newton", "square",
                      {"geometry": "rect", "resolution": 48, "p": p, "q": q},
                      lambda: el.solve_newton(square, A_square)))

    # forced problem p = q = 2, f = g = 1: lambda*, then two solutions below it
    A2 = operators[2]
    template = tl.ProblemSpec(tl.ExponentPair(2.0, 2.0), tl.RadialBall(2, 1.0),
                              forcing=tl.ForcingSpec.constant(1.0))
    low = lambda: template.with_lam(0.5 * ctx["lambda_star"].bracket[0])

    def lambda_work():
        ctx["lambda_star"] = el.lambda_star(template, A2, (0.001, 1000.0), LAMBDA_REL_WIDTH)
        return ctx["lambda_star"]

    def lambda_check(ls):
        lo, hi = ls.bracket
        width = (hi - lo) / (0.5 * (hi + lo))
        ok = 0 < lo < hi and width <= LAMBDA_REL_WIDTH
        return ([] if ok else [f"lambda bracket {ls.bracket} relative width {width:.3g}"]), {}

    def second():
        homog, minimal = ctx["homogeneous"].pair, ctx["minimal"]
        start = tl.FieldPair(homog.u + minimal.pair.u, homog.v + minimal.pair.v, A2.grid)
        return el.solve_newton(low(), A2, initial_guess=start, deflation_against=[minimal])

    def identity_work():
        # as in acceptance criterion 7: both arguments are second - minimal, so
        # the gap is 0 by symmetry and the admission test, which requires the
        # shifted residual of the difference to be <= 1e-10, is what can fail
        minimal, other = ctx["minimal"].pair, ctx["second"].pair
        diff = tl.FieldPair(other.u - minimal.u, other.v - minimal.v, A2.grid)
        return solution_pair_identity(A2.grid, A2, diff, diff, template.exponents,
                                      shift=minimal, steady_tol=STEADY_TOL)

    def identity_check(value):
        gap = value[2]
        return ([] if gap <= IDENTITY_TOL else [f"identity gap {gap:.3e}"]), {}

    forced = {"geometry": "radial", "dim": 2, "resolution": 512, "p": 2.0, "q": 2.0}
    ops += [
        Operation("lambda_star", lambda_work, lambda_check),
        steady("monotone", "minimal", forced,
               lambda: el.solve_monotone(low(), A2).equilibrium(low())),
        steady("newton", "homogeneous", forced,
               lambda: el.solve_newton(low().with_lam(0.0), A2)),
        steady("newton", "second", forced, second),
        Operation("solution_pair_identity", identity_work, identity_check),
    ]
    return ops


def _profile_check(eq, oracle, key):
    if eq is None:
        return [f"{key}: no Newton solution to compare"], {}
    u, v = oracle.profile(eq.pair.grid.coords)
    err = max(float(abs(eq.pair.u - u).max()), float(abs(eq.pair.v - v).max()))
    rel = err / max(oracle.sup_u, oracle.sup_v)
    ok = math.isfinite(rel) and rel <= PROFILE_TOL
    return ([] if ok else [f"{key}: Newton vs shooting error {rel:.3e} > {PROFILE_TOL:.0e}"]), {}


#: Workload name -> pass builder.  README.md says why each one is here.
WORKLOADS = {
    "threshold-disk": _threshold_disk,
    "evolve-square": _evolve_square,
    "steady-sweep": _steady_sweep,
}
