"""User-facing surface: experiments, configuration, serialisation, CLI."""

from .config import ConfigError, build_problem, parse_boundary, parse_config, spec_digest
from .experiments import (
    ExperimentResult,
    lambda_star_experiment,
    robin_experiment,
    threshold_experiment,
)
from .io import load_snapshot, result_json_text, save_snapshot, trajectory_csv_text, write_result_json, write_trajectory_csv
from .verify import CheckResult, VerifyReport, verify_suite

__all__ = [
    "ConfigError",
    "build_problem",
    "parse_boundary",
    "parse_config",
    "spec_digest",
    "ExperimentResult",
    "threshold_experiment",
    "lambda_star_experiment",
    "robin_experiment",
    "load_snapshot",
    "save_snapshot",
    "trajectory_csv_text",
    "result_json_text",
    "write_result_json",
    "write_trajectory_csv",
    "CheckResult",
    "VerifyReport",
    "verify_suite",
]
