"""Command line interface.

Subcommands: steady, evolve, threshold, lambda-star, robin, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 undecided
classification, 4 verify-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from ..discrete import GridError, build_grid, build_laplacian, FieldPair
from ..elliptic import EllipticError, solve_monotone, solve_newton
from ..parabolic import IntegratorConfig, NumericalFailureError, evolve
from ..problem import validate
from .config import KNOWN_KEYS, ConfigError, build_problem, parse_config, spec_digest
from .experiments import lambda_star_experiment, robin_experiment, threshold_experiment
from .io import load_snapshot, save_snapshot, write_result_json, write_trajectory_csv
from .verify import verify_suite

USAGE_ERROR, NUMERICAL_FAILURE, UNDECIDED, VERIFY_FAILURE = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _add_shared(sub):
    sub.add_argument("--p", type=float, default=3.0)
    sub.add_argument("--q", type=float, default=3.0)
    sub.add_argument("--dim", type=int, default=2)
    sub.add_argument("--geometry", choices=("radial", "rect"), default="radial")
    sub.add_argument("--radius", type=float, default=1.0)
    sub.add_argument("--lx", type=float, default=1.0)
    sub.add_argument("--ly", type=float, default=1.0)
    sub.add_argument("--resolution", type=int, default=256)
    sub.add_argument("--bc", default="dirichlet", help="dirichlet | robin:<beta>")
    sub.add_argument("--lambda", dest="lam", type=float, default=0.0)
    sub.add_argument("--forcing", choices=("constant", "bump"), default="constant")
    sub.add_argument("--alpha", type=float, default=None)
    sub.add_argument("--config", type=Path, default=None)
    sub.add_argument("--out", type=Path, default=None)
    sub.add_argument("--format", choices=("csv", "json"), default="json")
    sub.add_argument("--seed", type=int, default=0)
    sub.add_argument("--dt0", type=float, default=1e-3)
    sub.add_argument("--t-max", dest="t_max", type=float, default=50.0)


def _build_parser() -> _Parser:
    parser = _Parser(prog="thresholdlab")
    subs = parser.add_subparsers(dest="command", required=True)
    for name in ("steady", "evolve", "threshold", "lambda-star", "robin", "verify"):
        sub = subs.add_parser(name)
        _add_shared(sub)
        if name == "steady":
            sub.add_argument("--method", choices=("newton", "monotone"), default="newton")
        if name == "evolve":
            sub.add_argument("--initial", type=Path, default=None, help="snapshot file")
        if name in ("threshold", "robin"):
            sub.add_argument("--alphas", default="0.5,1.5")
            sub.add_argument("--width", type=float, default=0.02)
        if name == "lambda-star":
            sub.add_argument("--lambda-lo", dest="lambda_lo", type=float, default=0.001)
            sub.add_argument("--lambda-hi", dest="lambda_hi", type=float, default=1000.0)
            sub.add_argument("--rel-tol", dest="rel_tol", type=float, default=0.05)
        if name == "verify":
            sub.add_argument("--resolutions", default="128,256,512")
    return parser


def _apply_config(args, argv):
    """Config-file values fill in flags not given on the command line."""
    if args.config is None:
        return
    options = parse_config(args.config.read_text(encoding="utf-8"))
    given = {a.split("=")[0].lstrip("-") for a in argv if a.startswith("--")}
    for key, raw in options.items():
        dest, cast = KNOWN_KEYS[key]
        if key not in given and hasattr(args, dest):
            setattr(args, dest, cast(raw))


def _problem_from_args(args):
    """Build and validate the problem before any solve.

    A rejected problem is a usage error naming the violated constraints;
    warnings go to stderr only, so they never reach the result files.
    """
    try:
        spec = build_problem(
            p=args.p, q=args.q, geometry=args.geometry, dim=args.dim, bc=args.bc,
            lam=args.lam, radius=args.radius, lx=args.lx, ly=args.ly, forcing=args.forcing,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate(spec)
    if not report.accepted:
        raise ConfigError("problem violates " + ", ".join(report.violations))
    for warning in report.warnings:
        print(f"warning: {warning}: 1/(p+1) + 1/(q+1) <= (N-2)/N, "
              "equilibria may not exist", file=sys.stderr)
    return spec


def _integrator(args) -> IntegratorConfig:
    return IntegratorConfig(dt0=args.dt0, t_max=args.t_max)


def _outdir(args) -> Path:
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _snapshot_header(args) -> dict:
    return {
        "geometry": args.geometry, "dim": args.dim, "resolution": args.resolution,
        "p": args.p, "q": args.q, "lambda": args.lam, "bc": args.bc,
    }


def _load_initial(args, grid) -> FieldPair:
    """The --initial snapshot, refused unless it matches this run.

    Its node count and every header key it shares with the run's own
    snapshot header must agree with the run; a mismatch names the keys.
    """
    try:
        header, u, v = load_snapshot(args.initial)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read snapshot {args.initial}: {exc}") from exc
    header.setdefault("nodes", str(len(u)))
    expected = {key: str(value) for key, value in _snapshot_header(args).items()}
    expected["nodes"] = str(grid.size)
    mismatched = [
        f"{key} {header[key]} (run has {expected[key]})"
        for key in expected if key in header and header[key] != expected[key]
    ]
    if mismatched:
        raise ConfigError(f"snapshot {args.initial} does not match the run: "
                          + ", ".join(mismatched))
    return FieldPair(u, v, grid)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        _apply_config(args, argv)
    except (ConfigError, KeyError, ValueError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    try:
        return _dispatch(args)
    except (ConfigError, GridError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NumericalFailureError, EllipticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE


def _dispatch(args) -> int:
    if args.command == "verify":
        resolutions = tuple(int(r) for r in args.resolutions.split(","))
        spec = _problem_from_args(args)
        try:
            report = verify_suite(resolutions=resolutions, seed=args.seed, spec=spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print(report.text(), end="")
        out = _outdir(args)
        write_result_json(report.to_payload(), out / "verify.json")
        (out / "verify.txt").write_text(report.text(), encoding="utf-8")
        return 0 if report.passed else VERIFY_FAILURE

    spec = _problem_from_args(args)
    grid = build_grid(spec.domain, spec.boundary, args.resolution)
    A = build_laplacian(grid)
    out = _outdir(args)
    config = _integrator(args)

    if args.command == "steady":
        if args.method == "monotone":
            eq = solve_monotone(spec, A).equilibrium(spec)
        else:
            eq = solve_newton(spec, A)
        save_snapshot(out / "steady.snap", eq.pair, _snapshot_header(args))
        write_result_json(
            {
                "outcome": "steady",
                "residual_norm": eq.residual_norm,
                "sup_u": eq.pair.sup_u,
                "sup_v": eq.pair.sup_v,
                "method": eq.method,
                "digest": spec_digest(spec, args.resolution),
            },
            out / "result.json",
        )
        print(f"steady state: sup_u={eq.pair.sup_u:.6g} residual={eq.residual_norm:.3e}")
        return 0

    if args.command == "evolve":
        if args.initial is not None:
            initial = _load_initial(args, grid)
        elif args.alpha is not None:
            eq = solve_newton(spec, A)
            initial = eq.pair.scaled(args.alpha)
        else:
            initial = FieldPair.zeros(grid)
        outcome, record = evolve(spec, A, initial, config)
        payload = {
            "outcome": outcome.kind,
            "t_end": outcome.t_end,
            "digest": spec_digest(spec, args.resolution),
            "provenance": {"resolution": args.resolution, "dt0": args.dt0, "seed": args.seed},
        }
        if outcome.kind == "blowup":
            payload["t_blowup_est"] = outcome.t_est
        if args.alpha is not None:
            payload["alpha"] = args.alpha
        write_result_json(payload, out / "result.json")
        if args.format == "csv":
            write_trajectory_csv(record, out / "trajectory.csv")
        print(f"outcome: {outcome.kind} at t={outcome.t_end:.6g}")
        return UNDECIDED if outcome.kind == "undecided" else 0

    if args.command == "threshold":
        eq = solve_newton(spec, A)
        alphas = tuple(float(a) for a in args.alphas.split(","))
        result = threshold_experiment(
            spec, A, eq, config, alphas=alphas, bisect_width=args.width, seed=args.seed
        )
        write_result_json(result.to_payload(), out / "result.json")
        print(f"alpha bracket: {result.derived.get('alpha_bracket')}")
        return UNDECIDED if result.skipped else 0

    if args.command == "lambda-star":
        result = lambda_star_experiment(
            spec, A, (args.lambda_lo, args.lambda_hi), args.rel_tol, config, seed=args.seed
        )
        write_result_json(result.to_payload(), out / "result.json")
        print(f"lambda bracket: {result.derived['lambda_bracket']}")
        return 0

    if args.command == "robin":
        alphas = tuple(float(a) for a in args.alphas.split(","))
        result = robin_experiment(spec, A, config, alphas=alphas, seed=args.seed)
        write_result_json(result.to_payload(), out / "result.json")
        if result.skipped:
            print(f"skipped: {result.skipped}")
            return UNDECIDED
        print(f"robin runs: {[(r['value'], r['outcome']) for r in result.runs]}")
        return 0

    raise ConfigError(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
