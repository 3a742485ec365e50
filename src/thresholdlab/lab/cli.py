"""Command line interface.

Subcommands: steady, evolve, threshold, lambda-star, verify, each taking only
the flags that change its result, and a problem flag only where the problem
reads it.  The Robin threshold is ``threshold --bc robin:<beta>``.
Exit codes: 0 success, 1 usage error, 2 numerical failure, 3 undecided
classification, 4 verify-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..discrete import GridError, LinearSolveError, build_grid, build_laplacian, FieldPair
from ..elliptic import EllipticError, InvalidBracketError, solve_monotone, solve_newton
from ..parabolic import IntegratorConfig, NumericalFailureError, evolve
from ..problem import validate
from .config import (COMMANDS, FLAGS, STEPPING, ConfigError, build_problem, canonical_lines,
                     parse_config, spec_digest)
from .experiments import _provenance, lambda_star_experiment, threshold_experiment
from .io import load_snapshot, save_snapshot, write_result_json, write_trajectory_csv
from .verify import verify_suite

USAGE_ERROR, NUMERICAL_FAILURE, UNDECIDED, VERIFY_FAILURE = 1, 2, 3, 4


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _build_parser(argv: Optional[Sequence[str]] = None) -> _Parser:
    """Every subparser, with its flags from the one flag table; abbreviations are rejected.

    Given ``argv``, only the subparser that argv names gets its flags.
    argparse hands the rest of argv to the subparser named by its first
    token that is not an option, which is its first token in COMMANDS, and
    reads no other subparser's flags; so help, parses and errors are those
    of the full parser, which is built when argv is None.  Every subparser
    is built either way, as top-level help and invalid-choice errors list
    them all.
    """
    named = COMMANDS if argv is None else [next((a for a in argv if a in COMMANDS), None)]
    parser = _Parser(prog="thresholdlab", allow_abbrev=False)
    subs = parser.add_subparsers(dest="command", required=True)
    for command in COMMANDS:
        sub = subs.add_parser(command, allow_abbrev=False, argument_default=argparse.SUPPRESS)
        if command in named:
            for name, (commands, keywords) in FLAGS.items():
                if command in commands:
                    sub.add_argument(f"--{name}", **keywords)
    return parser


def _parse(argv: list):
    """Parse argv; --config lines become ``--key=value`` flags that argv's own override."""
    parser = _build_parser(argv)
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
    """Build and validate the problem from the problem flags given, before any solve.

    build_problem's defaults fill the flags not given, and lambda-star's
    template is at lambda = 1, as lambda_star sets lambda for each probe.  A
    rejected problem, or a given flag that the problem's canonical lines do
    not name, is a usage error naming them; warnings go to stderr only, so
    they never reach the result files.
    """
    given = {key: value for key, value in vars(args).items()
             if key in ("p", "q", "dim", "geometry", "radius", "lx", "ly", "bc", "lam", "forcing")}
    template = {"lam": 1.0} if args.command == "lambda-star" else {}
    try:
        spec = build_problem(**given, **template)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    report = validate(spec)
    if not report.accepted:
        raise ConfigError("problem violates " + ", ".join(report.violations))
    read = _problem_header(spec, None)
    unread = [f"--{name}" for name, (_, keywords) in FLAGS.items()
              if keywords.get("dest", name) in given and name not in read]
    if unread:
        raise ConfigError(f"the problem does not read {', '.join(unread)}")
    if vars(args).get("method") == "monotone" and spec.lam == 0:
        raise ConfigError("steady needs a forcing (--lambda > 0) for --method monotone, "
                          "which climbs from (0, 0)")
    for warning in report.warnings:
        print(f"warning: {warning}: 1/(p+1) + 1/(q+1) <= (N-2)/N, "
              "equilibria may not exist", file=sys.stderr)
    return spec


def _outdir(args) -> Path:
    """The --out directory, made before any solve; one that cannot be made is a usage error."""
    out = args.out or Path(".")
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot make output directory {out}: {exc.strerror}") from exc
    return out


def _problem_header(spec, resolution) -> dict:
    """Snapshot header: the problem's canonical lines, the text its digest hashes."""
    return parse_config("\n".join(canonical_lines(spec, resolution)))


def _load_initial(args, spec, grid) -> FieldPair:
    """The --initial snapshot, refused unless it matches this run.

    Its node count and every header key it shares with the run's own
    snapshot header must agree with the run; a mismatch names the keys.
    It must hold one data row per node, and its values must be finite and
    nonnegative, as evolve requires.
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
    if len(u) != grid.size:
        raise ConfigError(f"snapshot {args.initial} has {len(u)} data rows for {grid.size} nodes")
    pair = FieldPair(u, v, grid)
    if not (np.all(np.isfinite(pair.block)) and pair.block.min() >= 0):
        raise ConfigError(f"snapshot {args.initial} holds negative or non-finite values")
    return pair


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        return _dispatch(_parse(argv))
    except (ConfigError, GridError, InvalidBracketError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except (NumericalFailureError, EllipticError, LinearSolveError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return NUMERICAL_FAILURE


def _dispatch(args) -> int:
    spec = _problem_from_args(args)
    if args.command == "verify":
        out = _outdir(args)
        try:
            report = verify_suite(resolutions=args.resolutions, seed=args.seed, spec=spec)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        print(report.text(), end="")
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
            if args.alpha is not None:
                raise ConfigError("evolve takes --initial or --alpha, not both")
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
            "provenance": _provenance(args.resolution, config),
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
        result = threshold_experiment(spec, A, eq, config, alphas=args.alphas,
                                      bisect_width=args.width)
        summary = (f"alpha bracket: {result.derived.get('alpha_bracket')} "
                   f"from {len(result.runs)} runs")
    else:
        result = lambda_star_experiment(spec, A, (args.lambda_lo, args.lambda_hi),
                                        args.rel_tol, config)
        summary = f"lambda bracket: {result.derived['lambda_bracket']}"
    write_result_json(result.to_payload(), out / "result.json")
    print(summary)
    undecided = result.skipped or any(run["outcome"] == "undecided" for run in result.runs)
    return UNDECIDED if undecided else 0

if __name__ == "__main__":
    sys.exit(main())
