"""Run a set of thresholdlab CLI commands against a source tree; print a sha256 per output file.

    python tests/output_digests.py SRC_DIR OUT_DIR [--wide]

SRC_DIR is the ``src`` directory of a checkout, for instance of a
``git archive`` copy of another commit.  Each command runs in a fresh
process with SRC_DIR as its PYTHONPATH and BLAS on one thread, and
writes under OUT_DIR/<name>.  One line "<sha256>  <name>/<file>" is
printed per output file, sorted by path, so two source trees print the
same lines exactly when their outputs are byte-identical:

    diff <(python tests/output_digests.py ../parent/src /tmp/parent) \\
         <(python tests/output_digests.py src /tmp/change)

The default set is criterion 10's, CRITERION_10, which
test_criterion_10_determinism also runs twice in-process.  ``--wide``
adds WIDE: the threshold bracket on the 512-node disk (predict, certify,
bisect only on contradiction), evolve CSV runs on the 48 x 48 square,
steady snapshots on the disk, the 3-ball and the square, verify at
128, 256 and 512 nodes, and the forced problem with either unit source:
monotone steady states on the disk, constant and bump, a Newton steady
state on the square and lambda* on the disk, both with the bump.  The
process exits 1 if any command exits nonzero.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

# (name, argv without --out): each writes under <out>/<name>
CRITERION_10 = [
    ("verify", ["verify", "--resolutions", "48,96", "--seed", "5"]),
    ("evolve", ["evolve", "--alpha", "1.5", "--resolution", "64", "--format", "csv"]),
    ("threshold", ["threshold", "--resolution", "64", "--width", "0.25"]),
    ("ls", ["lambda-star", "--p", "2", "--q", "2", "--resolution", "64",
            "--lambda-lo", "1", "--lambda-hi", "30", "--rel-tol", "0.2"]),
    ("threshold-robin", ["threshold", "--bc", "robin:1.0", "--resolution", "64"]),
]

WIDE = [
    ("threshold-disk", ["threshold", "--geometry", "radial", "--dim", "2", "--p", "3",
                        "--q", "3", "--resolution", "512", "--width", "0.02",
                        "--alphas", "0.515,1.42"]),
    ("evolve-square-decay", ["evolve", "--geometry", "rect", "--resolution", "48",
                             "--alpha", "0.5", "--format", "csv"]),
    ("evolve-square-blowup", ["evolve", "--geometry", "rect", "--resolution", "48",
                              "--alpha", "1.5", "--format", "csv"]),
    ("steady-disk", ["steady", "--resolution", "512"]),
    ("steady-ball", ["steady", "--dim", "3", "--p", "2", "--q", "4", "--resolution", "512"]),
    ("steady-square", ["steady", "--geometry", "rect", "--resolution", "48"]),
    ("verify-wide", ["verify", "--resolutions", "128,256,512", "--seed", "0"]),
    ("steady-monotone-constant", ["steady", "--p", "2", "--q", "2", "--lambda", "1",
                                  "--forcing", "constant", "--method", "monotone",
                                  "--resolution", "256"]),
    ("steady-monotone-bump", ["steady", "--p", "2", "--q", "2", "--lambda", "1",
                              "--forcing", "bump", "--method", "monotone",
                              "--resolution", "256"]),
    ("steady-square-bump", ["steady", "--geometry", "rect", "--p", "2", "--q", "2",
                            "--lambda", "1", "--forcing", "bump", "--resolution", "48"]),
    ("ls-bump", ["lambda-star", "--p", "2", "--q", "2", "--forcing", "bump",
                 "--resolution", "64", "--lambda-lo", "1", "--lambda-hi", "60",
                 "--rel-tol", "0.2"]),
]

_RUN = "import sys; from thresholdlab.lab.cli import main; sys.exit(main(sys.argv[1:]))"


def run(src: Path, out: Path, commands) -> bool:
    """Run ``commands`` against the tree ``src`` into ``out``; True if every one exited 0."""
    env = {**os.environ, "PYTHONPATH": str(src.resolve()), "OPENBLAS_NUM_THREADS": "1",
           "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
    ok = True
    for name, argv in commands:
        done = subprocess.run([sys.executable, "-c", _RUN, *argv, "--out", str(out / name)],
                              env=env, stdout=subprocess.DEVNULL)
        if done.returncode != 0:
            print(f"{name}: exit code {done.returncode}", file=sys.stderr)
            ok = False
    return ok


def digests(out: Path) -> list[str]:
    """One line "<sha256>  <path>" per file under ``out``, sorted by path."""
    return [f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.relative_to(out)}"
            for path in sorted(out.rglob("*")) if path.is_file()]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("src", type=Path, help="the src directory of a checkout")
    parser.add_argument("out", type=Path, help="where the commands write their outputs")
    parser.add_argument("--wide", action="store_true", help="add the WIDE command set")
    args = parser.parse_args(argv)
    ok = run(args.src, args.out, CRITERION_10 + (WIDE if args.wide else []))
    print("\n".join(digests(args.out)))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
