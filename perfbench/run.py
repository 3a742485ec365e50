"""thresholdlab benchmark: time to certified answers, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload threshold-disk --seed 0 --seconds 30 --trace 0

Workloads: threshold-disk, evolve-square, steady-sweep (see README.md in
this directory).  ``--trace 0`` reports the end-to-end metrics (wall_s,
setup_s, peak_rss_mb) and ``--trace 1`` the per-layer metrics of a traced
run.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.

Every process is single-threaded BLAS (the thread-count variables below are
set to 1) and reads and writes only inside the repository: the program is
imported from ``src/`` and scratch files go to ``.perfbench_work/``, which
is removed again at the end of the run.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0      # a run must end within 180 s
IMPORT_PROBE = ("import time; t = time.perf_counter(); import thresholdlab, thresholdlab.lab; "
                "print(repr(time.perf_counter() - t))")


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict, deadline: float) -> list[float]:
    """Import time of thresholdlab and thresholdlab.lab, each in a fresh process.

    The first import compiles bytecode and is not counted.
    """
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, cwd=ROOT,
                             capture_output=True, text=True, check=True,
                             timeout=max(1.0, deadline - time.monotonic()))
        if i:
            samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def quartiles(xs: list[float]) -> tuple[float, float]:
    if len(xs) < 2:
        return xs[0], xs[0]
    q = statistics.quantiles(xs, n=4, method="inclusive")
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "thresholdlab" / "__init__.py").is_file():
        print(f"no thresholdlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # SIGTERM becomes SystemExit, on which subprocess.run kills and reaps the worker
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    deadline = time.monotonic() + TIME_LIMIT_S
    env = child_env()
    setup = [] if args.trace else setup_times(env, deadline)
    (ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=ROOT / ".perfbench_work"))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--workdir", str(workdir)],
            env=env, cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:
        print(f"worker did not finish within {TIME_LIMIT_S:.0f} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()      # only when no other run is using it
        except OSError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        print(f"worker exited with code {proc.returncode}", file=sys.stderr)
        return 3
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    env_line = " ".join(f"{k}={v}" for k, v in result["env"].items())
    print(f"# env {env_line}")
    print(f"# workload {args.workload} seed {args.seed} inputs {json.dumps(result['inputs'])}")

    attempted, failed = result["attempted"], result["failed"]
    problems = list(result["problems"])
    rows = []
    if args.trace:
        problems += result["trace_problems"]
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in sorted(result["layers"].items())}
        traced, untraced = len(result["traced_samples"]), len(result["wall_samples"])
        rows = [(name, m["value"], m["unit"], f"mean of {traced} traced passes")
                for name, m in metrics.items() if name != "trace.overhead_s"]
        rows.append(("trace.overhead_s", metrics["trace.overhead_s"]["value"], "s",
                     f"median of {traced} traced minus median of {untraced} untraced passes"))
    else:
        wall = result["wall_samples"]
        metrics = {
            "wall_s": {"value": statistics.median(wall), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
        }
        q1, q3 = quartiles(wall)
        s1, s3 = quartiles(setup)
        rows = [
            ("wall_s", metrics["wall_s"]["value"], "s",
             f"median of {len(wall)} passes, quartiles {q1:.4g}..{q3:.4g}"),
            ("setup_s", metrics["setup_s"]["value"], "s",
             f"median of {len(setup)} fresh imports, quartiles {s1:.4g}..{s3:.4g}"),
            ("peak_rss_mb", metrics["peak_rss_mb"]["value"], "MB", "1 worker process"),
        ]
    rows.append(("failed_frac", failed / attempted if attempted else 1.0, "ratio",
                 f"{failed} of {attempted} operations"))
    for name, value, unit, note in rows:
        print(f"{name:42s} {value:14.6g} {unit:6s} {note}")
    for problem in problems[:20]:
        print(f"# FAILED {problem}")
    print(json.dumps({"correct": not problems and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
