"""One benchmark run of one workload, inside a process with BLAS pinned to one thread.

Started by ``run.py``; not meant to be run by hand.  It imports thresholdlab
from ``src/`` of the current directory, runs passes of the workload until
``--seconds`` have elapsed and prints one JSON object as its last line.

Untraced mode (``--trace 0``) times every pass.  Traced mode alternates
untraced and traced passes, so the per-layer numbers and the tracing
overhead come from the same process.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import workloads
from spans import TARGETS, Tracer, instrument

MIN_PASSES = 2           # the byte-identity gate needs a second pass
MIN_TRACED = 2           # the count-repeat gate needs two traced passes


class Run:
    """Passes of one workload with their timings, failures and reference outputs."""

    def __init__(self, workload: str, data: dict, workdir: Path):
        self.workload, self.data, self.workdir = workload, data, workdir
        self.reference: dict[str, dict] = {}
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def one_pass(self) -> float:
        """Run one pass; return its wall time.  Gates run after the clock stops."""
        out = self.workdir / "pass"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        values = []
        start = time.perf_counter()
        ops = workloads.plan(self.workload, self.data, out)
        for op in ops:
            try:
                values.append((op.work(), None))
            except Exception as exc:  # a failed operation is counted, never fatal
                values.append((None, f"{type(exc).__name__}: {exc}"))
        elapsed = time.perf_counter() - start
        for op, (value, error) in zip(ops, values):
            self.attempted += 1
            problems = [error] if error else []
            if not error:
                try:
                    found, outputs = op.check(value)
                except Exception as exc:  # a crashing gate fails its operation
                    found, outputs = [f"check raised {type(exc).__name__}: {exc}"], {}
                problems += found
                reference = self.reference.setdefault(op.name, outputs)
                problems += [f"{name} differs from the first pass"
                             for name in sorted(set(reference) | set(outputs))
                             if reference.get(name) != outputs.get(name)]
            if problems:
                self.failed += 1
                self.problems.append(f"{op.name}: {'; '.join(problems)}")
        return elapsed


def layer_metrics(summaries: list[dict], pass_times: list[float]) -> tuple[dict, list]:
    """Per-layer metrics averaged over traced passes, and any gate problems.

    Times are means, so the self times plus ``trace.unattributed_s`` add up
    to ``trace.pass_s``.  Counts must repeat exactly from pass to pass.
    """
    problems = []
    spans = {}
    counts = {}
    for summary, elapsed in zip(summaries, pass_times):
        self_sum = sum(s["self_s"] for s in summary["spans"].values())
        if abs(self_sum - summary["roots_s"]) > 1e-9 * max(1.0, elapsed):
            problems.append(f"self times {self_sum} do not add up to root spans "
                            f"{summary['roots_s']}")
        if summary["roots_s"] > elapsed or min(
                (s["self_s"] for s in summary["spans"].values()), default=0.0) < 0:
            problems.append("spans overlap or exceed their pass")
        for name, s in summary["spans"].items():
            entry = spans.setdefault(name, {"calls": [], "total_s": [], "self_s": []})
            for key in entry:
                entry[key].append(s[key])
        for name, value in summary["counts"].items():
            counts.setdefault(name, []).append(value)
        for name, value in summary["distinct"].items():
            counts.setdefault(name + ".distinct", []).append(value)
    n = len(summaries)
    count_keys = sorted(counts) + [f"{name}.calls" for name in sorted(spans)]
    for key in count_keys:
        series = (counts[key] if key in counts
                  else spans[key[: -len(".calls")]]["calls"])
        if len(series) != n or len(set(series)) != 1:
            problems.append(f"count {key} does not repeat across traced passes: {series}")

    mean = lambda xs: sum(xs) / n
    calls = lambda name: mean(spans[name]["calls"]) if name in spans else 0.0
    self_s = lambda name: mean(spans[name]["self_s"]) if name in spans else 0.0
    count = lambda key: mean(counts[key]) if key in counts else 0.0
    ratio = lambda a, b: a / b if b else 0.0

    evolve_total = mean(spans["parabolic.evolve"]["total_s"]) if "parabolic.evolve" in spans else 0
    shifted = calls("discrete.solve_shifted")
    traced_pass = mean(pass_times)
    m = {
        "discrete.solve_shifted.calls": (shifted, "count"),
        "discrete.solve_shifted.cols": (count("discrete.solve_shifted.cols"), "count"),
        "discrete.solve_shifted.self_s": (self_s("discrete.solve_shifted"), "s"),
        "discrete.solve_shifted.sigma_reuse": (
            ratio(shifted - count("discrete.solve_shifted.operator_sigma.distinct"), shifted),
            "ratio"),
        "discrete.quadratic_form.calls": (calls("discrete.quadratic_form"), "count"),
        "discrete.quadratic_form.self_s": (self_s("discrete.quadratic_form"), "s"),
        "discrete.build_laplacian.calls": (calls("discrete.build_laplacian"), "count"),
        "discrete.build_laplacian.self_s": (self_s("discrete.build_laplacian"), "s"),
        "elliptic.solve_newton.calls": (calls("elliptic.solve_newton"), "count"),
        "elliptic.solve_newton.self_s": (self_s("elliptic.solve_newton"), "s"),
        "elliptic.residual_norm.calls": (calls("elliptic.residual_norm"), "count"),
        "elliptic.residual_norm.self_s": (self_s("elliptic.residual_norm"), "s"),
        "elliptic.shooting_oracle.calls": (calls("elliptic.shooting_oracle"), "count"),
        "elliptic.shooting_oracle.self_s": (self_s("elliptic.shooting_oracle"), "s"),
        "elliptic.solve_monotone.calls": (calls("elliptic.solve_monotone"), "count"),
        "elliptic.solve_monotone.iterations": (count("elliptic.solve_monotone.iterations"),
                                               "count"),
        "elliptic.solve_monotone.self_s": (self_s("elliptic.solve_monotone"), "s"),
        "elliptic.lambda_star.probes": (count("elliptic.lambda_star.probes"), "count"),
        "elliptic.lambda_star.self_s": (self_s("elliptic.lambda_star"), "s"),
        "parabolic.evolve.calls": (calls("parabolic.evolve"), "count"),
        "parabolic.evolve.steps": (count("parabolic.evolve.steps"), "count"),
        "parabolic.evolve.self_s": (self_s("parabolic.evolve"), "s"),
        "parabolic.evolve.classified_frac": (
            ratio(count("parabolic.evolve.classified"), calls("parabolic.evolve")), "ratio"),
        "parabolic.step.self_s": (self_s("parabolic.step"), "s"),
        "parabolic.adapt_dt.self_s": (self_s("parabolic.adapt_dt"), "s"),
        "parabolic.steps_per_s": (ratio(count("parabolic.evolve.steps"), evolve_total), "1/s"),
        "analysis.finalize.self_s": (self_s("analysis.finalize"), "s"),
        "analysis.solution_pair_identity.self_s": (self_s("analysis.solution_pair_identity"),
                                                   "s"),
        "lab.threshold_experiment.runs": (count("lab.threshold_experiment.runs"), "count"),
        "lab.threshold_experiment.self_s": (self_s("lab.threshold_experiment"), "s"),
        "lab.cli.main.self_s": (self_s("lab.cli.main"), "s"),
        "lab.io.self_s": (self_s("lab.io"), "s"),
        "lab.io.bytes": (count("lab.io.bytes"), "count"),
        "trace.pass_s": (traced_pass, "s"),
        "trace.unattributed_s": (
            traced_pass - mean([s["roots_s"] for s in summaries]), "s"),
    }
    reported = {name.rsplit(".", 1)[0] for name in m if name.endswith(".self_s")}
    missing = sorted(set(spans) - reported)
    if missing:
        problems.append(f"spans without a reported self time: {missing}")
    return m, problems


def environment() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas.get("name", "unknown"),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args(argv)

    import thresholdlab
    import thresholdlab.lab  # noqa: F401  (every module the tracer patches is loaded)

    source = Path("src").resolve()
    if source not in Path(thresholdlab.__file__).resolve().parents:
        print(f"thresholdlab imported from {thresholdlab.__file__}, not {source}",
              file=sys.stderr)
        return 2

    data = workloads.inputs(args.workload, args.seed)
    run = Run(args.workload, data, args.workdir)
    untraced, traced, summaries = [], [], []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        if args.trace:
            done = elapsed >= args.seconds and len(traced) >= MIN_TRACED and untraced
        else:
            done = elapsed >= args.seconds and len(untraced) >= MIN_PASSES
        if done:
            break
        # traced mode: untraced first (it also fixes the reference bytes), then alternate
        if args.trace and untraced and len(traced) < len(untraced):
            # a fresh tracer per pass keeps only one pass of spans in memory
            tracer = Tracer(pass_id=len(traced))
            restore = instrument(tracer, TARGETS)
            try:
                traced.append(run.one_pass())
            finally:
                restore()
            summaries.append(tracer.summary(tracer.pass_id))
        else:
            untraced.append(run.one_pass())

    result = {
        "workload": args.workload,
        "inputs": data,
        "env": environment(),
        "attempted": run.attempted,
        "failed": run.failed,
        "problems": run.problems,
        "wall_samples": untraced,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if args.trace:
        layers, problems = layer_metrics(summaries, traced)
        layers["trace.overhead_s"] = (
            statistics.median(traced) - statistics.median(untraced), "s")
        result.update(layers=layers, trace_problems=problems, traced_samples=traced)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
