"""Flat key = value configuration mapping one-to-one onto CLI flags.

The file format is UTF-8 text, one ``key = value`` per line, ``#`` starts a
comment; keys are exactly the CLI flag names (without the leading dashes)
and unknown keys are errors, so a run is reproducible from the config file
alone.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

from ..problem import (
    BoundarySpec,
    ExponentPair,
    ForcingSpec,
    ProblemSpec,
    Profile,
    RadialBall,
    Rectangle,
)

#: Config-file key -> (argparse dest, cast).  Each key is a CLI flag name.
KNOWN_KEYS = {
    "p": ("p", float), "q": ("q", float), "dim": ("dim", int),
    "geometry": ("geometry", str), "radius": ("radius", float),
    "lx": ("lx", float), "ly": ("ly", float), "resolution": ("resolution", int),
    "bc": ("bc", str), "lambda": ("lam", float), "forcing": ("forcing", str),
    "alpha": ("alpha", float), "alphas": ("alphas", str), "out": ("out", Path),
    "format": ("format", str), "seed": ("seed", int), "dt0": ("dt0", float),
    "t-max": ("t_max", float), "width": ("width", float),
    "lambda-lo": ("lambda_lo", float), "lambda-hi": ("lambda_hi", float),
    "rel-tol": ("rel_tol", float), "resolutions": ("resolutions", str),
    "initial": ("initial", Path),
}


class ConfigError(ValueError):
    pass


def parse_config(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; unknown keys raise ConfigError."""
    options: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KNOWN_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        options[key] = value
    return options


def parse_boundary(text: str) -> BoundarySpec:
    """Parse 'dirichlet' or 'robin:<beta>'."""
    if text == "dirichlet":
        return BoundarySpec.dirichlet()
    if text.startswith("robin:"):
        try:
            beta = float(text.split(":", 1)[1])
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
    if lam > 0:
        if forcing == "constant":
            fs = ForcingSpec.constant(lam)
        elif forcing == "bump":
            fs = ForcingSpec(lam, Profile("bump", 1.0), Profile("bump", 1.0))
        else:
            raise ConfigError(f"bad forcing {forcing!r} (constant | bump)")
    else:
        fs = ForcingSpec.none()
    return ProblemSpec(ExponentPair(p, q), domain, boundary, fs)


def canonical_lines(spec: ProblemSpec, resolution) -> list[str]:
    """Config-style serialisation of a problem instance (stable ordering)."""
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
        lines.append(f"forcing = {spec.forcing.f.kind}")
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
