"""Command line interface.

Subcommands: steady, evolve, threshold, lambda-star, robin, verify.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 undecided
classification, 4 verify-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from ..discrete import GridError, build_grid, build_laplacian, FieldPair
from ..elliptic import EllipticError, InvalidBracketError, solve_monotone, solve_newton
from ..parabolic import IntegratorConfig, NumericalFailureError, evolve
from ..problem import validate
from .config import (COMMANDS, FLAGS, STEPPING, ConfigError, build_problem, canonical_lines,
                     parse_config, spec_digest)
from .experiments import lambda_star_experiment, robin_experiment, threshold_experiment
from .io import load_snapshot, save_snapshot, write_result_json, write_trajectory_csv
from .verify import verify_suite

USAGE_ERROR, NUMERICAL_FAILURE, UNDECIDED, VERIFY_FAILURE = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> _Parser:
    """Every subparser from the one flag table; abbreviations are rejected."""
    parser = _Parser(prog="thresholdlab", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subs.add_parser(command, allow_abbrev=False)
        for name, (commands, keywords) in FLAGS.items():
            if command in commands:
                sub.add_argument(f"--{name}", **keywords)
    return parser


def _parse(argv: list):
    """Parse argv; --config lines become ``--key=value`` flags that argv's own override."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config:     # a Path, None, or [] from `--config=--` (refused below)
        try:
            text = args.config.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        options = parse_config(text)
        args = parser.parse_args(argv[:1] + [f"--{k}={v}" for k, v in options.items()] + argv[1:])
    for name, value in vars(args).items():
        if value == []:     # argparse stores [] for `--key=--` instead of refusing it
            raise ConfigError(f"argument {name}: expected one argument")
    return args


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
    holds, need = {
        "threshold": (spec.lam == 0, "the unforced problem (--lambda 0)"),
        "lambda-star": (spec.lam > 0, "a forcing profile to scale (--lambda > 0)"),
        "robin": (spec.boundary.kind == "robin", "--bc robin:<beta>"),
    }.get(args.command, (True, ""))
    if not holds:
        raise ConfigError(f"{args.command} needs {need}")
    for warning in report.warnings:
        print(f"warning: {warning}: 1/(p+1) + 1/(q+1) <= (N-2)/N, "
              "equilibria may not exist", file=sys.stderr)
    return spec


def _outdir(args) -> Path:
    out = args.out or Path(".")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _problem_header(spec, resolution) -> dict:
    """Snapshot header: the problem's canonical lines, the text its digest hashes."""
    return parse_config("\n".join(canonical_lines(spec, resolution)))


def _load_initial(args, spec, grid) -> FieldPair:
    """The --initial snapshot, refused unless it matches this run.

    Its node count and every header key it shares with the run's own
    snapshot header must agree with the run; a mismatch names the keys.
    Its values must be finite and nonnegative, as evolve requires.
    """
    try:
        header, u, v = load_snapshot(args.initial)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read snapshot {args.initial}: {exc}") from exc
    header.setdefault("nodes", str(len(u)))
    expected = {**_problem_header(spec, args.resolution), "nodes": str(grid.size)}
    mismatched = [
        f"{key} {header[key]} (run has {expected[key]})"
        for key in expected if key in header and header[key] != expected[key]
    ]
    if mismatched:
        raise ConfigError(f"snapshot {args.initial} does not match the run: "
                          + ", ".join(mismatched))
    values = np.concatenate([u, v])
    if not (np.all(np.isfinite(values)) and values.min() >= 0):
        raise ConfigError(f"snapshot {args.initial} holds negative or non-finite values")
    return FieldPair(u, v, grid)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(_parse(argv))
    except (ConfigError, GridError, InvalidBracketError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NumericalFailureError, EllipticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE


def _dispatch(args) -> int:
    spec = _problem_from_args(args)
    if args.command == "verify":
        try:
            report = verify_suite(resolutions=args.resolutions, seed=args.seed, spec=spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print(report.text(), end="")
        out = _outdir(args)
        write_result_json(report.to_payload(), out / "verify.json")
        (out / "verify.txt").write_text(report.text(), encoding="utf-8")
        return 0 if report.passed else VERIFY_FAILURE

    config = None
    if args.command in STEPPING:
        try:
            config = IntegratorConfig(dt0=args.dt0, t_max=args.t_max)
        except ValueError as exc:
            raise ConfigError(f"--dt0 {args.dt0}: {exc}") from exc
    grid = build_grid(spec.domain, spec.boundary, args.resolution)
    A = build_laplacian(grid)
    out = _outdir(args)

    if args.command == "steady":
        if args.method == "monotone":
            eq = solve_monotone(spec, A).equilibrium(spec)
        else:
            eq = solve_newton(spec, A)
        save_snapshot(out / "steady.snap", eq.pair, _problem_header(spec, args.resolution))
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
            initial = _load_initial(args, spec, grid)
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
        result = threshold_experiment(
            spec, A, eq, config, alphas=args.alphas, bisect_width=args.width, seed=args.seed
        )
        summary = f"alpha bracket: {result.derived.get('alpha_bracket')}"
    elif args.command == "lambda-star":
        result = lambda_star_experiment(
            spec, A, (args.lambda_lo, args.lambda_hi), args.rel_tol, config, seed=args.seed
        )
        summary = f"lambda bracket: {result.derived['lambda_bracket']}"
    else:
        result = robin_experiment(spec, A, config, alphas=args.alphas, seed=args.seed)
        summary = (f"skipped: {result.skipped}" if result.skipped
                   else f"robin runs: {[(r['value'], r['outcome']) for r in result.runs]}")
    write_result_json(result.to_payload(), out / "result.json")
    print(summary)
    return UNDECIDED if result.skipped else 0

if __name__ == "__main__":
    sys.exit(main())
