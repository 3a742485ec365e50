"""Which scipy subpackages a command loads.

scipy.integrate (which loads scipy.optimize) and scipy.sparse.linalg are
imported only where they are used: the shooting oracle (which, of the
commands, only verify calls), Kaplan's bound for p != q and the Dirichlet
rectangle's GMRES Newton steps.  scipy.fft and scipy.special are used
nowhere: the rectangle's solve is products with its axes' dense
eigenbasis maps.  The suite itself imports scipy.optimize, so each check
runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import thresholdlab

SRC = str(Path(thresholdlab.__file__).resolve().parents[1])
DEFERRED = ("scipy.integrate", "scipy.optimize", "scipy.fft", "scipy.special",
            "scipy.sparse.linalg")


def _loaded_after(code: str) -> set:
    """The DEFERRED modules loaded once ``code`` has run in a fresh interpreter."""
    probe = (f"import json, sys\n{code}\n"
             f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True,
                         check=True).stdout
    return set(json.loads(out.splitlines()[-1]))


def test_package_import_loads_no_deferred_subpackage():
    assert _loaded_after("import thresholdlab, thresholdlab.lab") == set()


@pytest.mark.parametrize("bc", [[], ["--bc", "robin:1"]], ids=["dirichlet", "robin"])
def test_radial_threshold_run_loads_neither_integrate_nor_fft(bc, tmp_path):
    # p = q, so Kaplan's bound needs no quadrature on either boundary
    argv = ["threshold", *bc, "--resolution", "16", "--out", str(tmp_path)]
    code = f"from thresholdlab.lab.cli import main\nassert main({argv!r}) == 0"
    loaded = _loaded_after(code)
    assert "scipy.integrate" not in loaded and "scipy.fft" not in loaded


def test_rectangle_evolve_loads_neither_fft_nor_special(tmp_path):
    code = ("from thresholdlab.lab.cli import main\n"
            f"assert main(['evolve', '--geometry', 'rect', '--resolution', '8', "
            f"'--out', {str(tmp_path)!r}]) == 0")
    loaded = _loaded_after(code)
    assert "scipy.fft" not in loaded and "scipy.special" not in loaded


@pytest.mark.parametrize("code, module", [
    ("from thresholdlab import BoundarySpec, ExponentPair, shooting_oracle\n"
     "shooting_oracle(ExponentPair(3.0, 3.0), 2, BoundarySpec.dirichlet())",
     "scipy.integrate"),
    ("from thresholdlab.lab.cli import main\n"
     "assert main(['steady', '--geometry', 'rect', '--resolution', '8', '--out', {out!r}]) == 0",
     "scipy.sparse.linalg"),
    ("from thresholdlab.lab.cli import main\n"   # its equilibrium-vs-shooting check
     "assert main(['verify', '--resolutions', '16,32', '--out', {out!r}]) == 0",
     "scipy.integrate"),
])
def test_deferred_subpackage_loads_where_it_is_used(code, module, tmp_path):
    assert module in _loaded_after(code.format(out=str(tmp_path)))
