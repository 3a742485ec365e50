"""Flat key = value configuration mapping one-to-one onto CLI flags.

The file format is UTF-8 text, one ``key = value`` per line, ``#`` starts a
comment; keys are exactly the CLI flag names (without the leading dashes),
all defined once in ``FLAGS``, and unknown keys are errors, so a run is
reproducible from the config file alone.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

from ..problem import (
    BoundarySpec,
    ExponentPair,
    ForcingSpec,
    ProblemSpec,
    RadialBall,
    Rectangle,
)

#: The subcommands, and those that step the parabolic flow.
COMMANDS = ("steady", "evolve", "threshold", "lambda-star", "verify")
STEPPING = ("evolve", "threshold", "lambda-star")


def finite(text: str) -> float:
    """argparse type: a finite float."""
    if not math.isfinite(value := float(text)):
        raise ValueError(text)
    return value


def positive(text: str) -> float:
    """argparse type: a finite float > 0."""
    if not (value := finite(text)) > 0:
        raise ValueError(text)
    return value


def _list_of(item):
    """argparse type: comma-separated ``item`` values, as a tuple."""
    def parse(text: str) -> tuple:
        return tuple(item(part) for part in text.split(","))
    parse.__name__ = f"{item.__name__} list"   # argparse names it in its errors
    return parse


#: The one definition of every CLI flag.  Each flag name is also its
#: config-file key: name -> (subcommands that read it, argparse keywords).
FLAGS = {
    "p": (COMMANDS, dict(type=float, default=3.0)),
    "q": (COMMANDS, dict(type=float, default=3.0)),
    "dim": (COMMANDS, dict(type=int, default=2)),
    "geometry": (COMMANDS, dict(choices=("radial", "rect"), default="radial")),
    "radius": (COMMANDS, dict(type=finite, default=1.0)),
    "lx": (COMMANDS, dict(type=finite, default=1.0)),
    "ly": (COMMANDS, dict(type=finite, default=1.0)),
    "bc": (COMMANDS, dict(default="dirichlet", help="dirichlet | robin:<beta>")),
    "lambda": (COMMANDS, dict(dest="lam", type=finite, default=0.0)),
    "forcing": (COMMANDS, dict(choices=("constant", "bump"), default="constant")),
    "config": (COMMANDS, dict(type=Path, default=None, help="key = value file")),
    "out": (COMMANDS, dict(type=Path, default=None)),
    "resolution": (COMMANDS[:-1], dict(type=int, default=256)),
    "seed": (STEPPING + ("verify",), dict(type=int, default=0)),
    "dt0": (STEPPING, dict(type=finite, default=1e-3)),
    "t-max": (STEPPING, dict(type=positive, default=50.0)),
    "method": (("steady",), dict(choices=("newton", "monotone"), default="newton")),
    "initial": (("evolve",), dict(type=Path, default=None, help="snapshot file")),
    "alpha": (("evolve",), dict(type=positive, default=None)),
    "format": (("evolve",), dict(choices=("csv", "json"), default="json")),
    "alphas": (("threshold",), dict(type=_list_of(positive), default=(0.5, 1.5))),
    "width": (("threshold",), dict(type=positive, default=0.02,
                                   help="bracket width: predict alpha = 1, certify with "
                                        "probes at 1 -/+ width/2, bisect only on "
                                        "contradiction")),
    "lambda-lo": (("lambda-star",), dict(type=finite, default=0.001)),
    "lambda-hi": (("lambda-star",), dict(type=finite, default=1000.0)),
    "rel-tol": (("lambda-star",), dict(type=positive, default=0.05)),
    "resolutions": (("verify",), dict(type=_list_of(int), default=(128, 256, 512))),
}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; keys that are not flags raise ConfigError."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in FLAGS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key == "config":
            raise ConfigError(f"line {lineno}: a config file cannot name another")
        options[key] = value
    return options


def parse_boundary(text: str) -> BoundarySpec:
    """Parse 'dirichlet' or 'robin:<beta>'."""
    if text == "dirichlet":
        return BoundarySpec.dirichlet()
    if text.startswith("robin:"):
        try:
            beta = finite(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad robin beta in {text!r}") from exc
        return BoundarySpec.robin(beta)
    raise ConfigError(f"bad boundary spec {text!r} (dirichlet | robin:<beta>)")


def build_problem(
    p: float,
    q: float,
    geometry: str,
    dim: int,
    bc: str,
    lam: float,
    radius: float = 1.0,
    lx: float = 1.0,
    ly: float = 1.0,
    forcing: str = "constant",
) -> ProblemSpec:
    if geometry == "radial":
        domain = RadialBall(dimension=dim, radius=radius)
    elif geometry == "rect":
        domain = Rectangle(lx, ly)
    else:
        raise ConfigError(f"bad geometry {geometry!r} (radial | rect)")
    boundary = parse_boundary(bc)
    # unforced, the source names no term of the system
    fs = ForcingSpec.none() if lam == 0 else ForcingSpec(lam, forcing)
    return ProblemSpec(ExponentPair(p, q), domain, boundary, fs)


def canonical_lines(spec: ProblemSpec, resolution) -> list[str]:
    """Config-style serialisation of a problem instance (stable ordering).

    The lines name every field of the spec, the forcing kind when lambda > 0,
    so build_problem reads them back into the spec itself.
    """
    lines = [f"p = {spec.p!r}", f"q = {spec.q!r}"]
    dom = spec.domain
    if isinstance(dom, RadialBall):
        lines += ["geometry = radial", f"dim = {dom.dimension}", f"radius = {dom.radius!r}"]
    else:
        lines += ["geometry = rect", f"lx = {dom.lx!r}", f"ly = {dom.ly!r}"]
    if spec.boundary.kind == "robin":
        lines.append(f"bc = robin:{spec.boundary.beta!r}")
    else:
        lines.append("bc = dirichlet")
    lines.append(f"lambda = {spec.lam!r}")
    if spec.lam > 0:
        lines.append(f"forcing = {spec.forcing.kind}")
    if isinstance(resolution, tuple) and len(set(resolution)) == 1:
        resolution = resolution[0]      # as the CLI's --resolution gives it
    if isinstance(resolution, tuple):
        lines.append("resolution = " + "x".join(str(r) for r in resolution))
    else:
        lines.append(f"resolution = {resolution}")
    return lines


def spec_digest(spec: ProblemSpec, resolution) -> str:
    blob = "\n".join(canonical_lines(spec, resolution)).encode()
    return hashlib.sha256(blob).hexdigest()
