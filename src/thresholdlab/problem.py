"""Problem instances: exponents, domain geometry, boundary condition, forcing.

A problem instance describes the coupled reaction-diffusion system

    u_t - Lap(u) = v^p + lam*f(x),   v_t - Lap(v) = u^q + lam*f(x)

on a bounded domain with homogeneous Dirichlet or Robin boundary data,
together with its steady-state counterpart.  The paper's system is the
unforced one, lam = 0; the source f, one named unit profile shared by both
equations, serves the extremal-scale study.  Instances are immutable and
shared read-only by the discretisation, solver and experiment layers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "ExponentPair",
    "RadialBall",
    "Rectangle",
    "BoundarySpec",
    "ForcingSpec",
    "ProblemSpec",
    "ValidationReport",
    "validate",
    "blowup_exponent",
]


@dataclass(frozen=True)
class ExponentPair:
    """Reaction exponents (p, q).

    The theory requires p > 1 and q > 1 (strict); construction is permissive
    so that invalid pairs can be fed to :func:`validate` and rejected with a
    named constraint instead of a stack trace.
    """

    p: float
    q: float


@dataclass(frozen=True)
class RadialBall:
    """Ball of radius ``radius`` in R^N, reduced to radial profiles."""

    dimension: int
    radius: float = 1.0

    def __post_init__(self):
        if self.dimension < 2:
            raise ValueError("RadialBall dimension must be >= 2")
        if self.radius <= 0:
            raise ValueError("RadialBall radius must be positive")

    @property
    def volume(self) -> float:
        n, r = self.dimension, self.radius
        return math.pi ** (n / 2) * r**n / math.gamma(n / 2 + 1)

    @property
    def sphere_area(self) -> float:
        """Surface area of the unit (N-1)-sphere."""
        n = self.dimension
        return 2 * math.pi ** (n / 2) / math.gamma(n / 2)


@dataclass(frozen=True)
class Rectangle:
    """Axis-aligned rectangle with side lengths (lx, ly)."""

    lx: float
    ly: float

    def __post_init__(self):
        if self.lx <= 0 or self.ly <= 0:
            raise ValueError("Rectangle side lengths must be positive")

    @property
    def dimension(self) -> int:
        return 2

    @property
    def volume(self) -> float:
        return self.lx * self.ly


DomainSpec = RadialBall | Rectangle


@dataclass(frozen=True)
class BoundarySpec:
    """Homogeneous boundary condition: Dirichlet, or Robin du/dn + beta*u = 0."""

    kind: str = "dirichlet"
    beta: float | None = None

    def __post_init__(self):
        if self.kind not in ("dirichlet", "robin"):
            raise ValueError(f"unknown boundary kind {self.kind!r}")
        if self.kind == "robin":
            if self.beta is None or self.beta <= 0:
                raise ValueError("Robin boundary requires beta > 0")
        elif self.beta is not None:
            raise ValueError("Dirichlet boundary takes no beta")

    @classmethod
    def dirichlet(cls) -> "BoundarySpec":
        return cls("dirichlet")

    @classmethod
    def robin(cls, beta: float) -> "BoundarySpec":
        return cls("robin", beta)


@dataclass(frozen=True)
class ForcingSpec:
    """Scale lam >= 0 of one named unit source, added as lam*f to both equations.

    kinds, at distance d from the domain centre:
        constant: f = 1
        bump:     f = exp(-(d/0.5)^2)
    """

    lam: float = 0.0
    kind: str = "constant"

    def __post_init__(self):
        if self.lam < 0:
            raise ValueError("forcing scale lambda must be >= 0")
        if self.kind not in ("constant", "bump"):
            raise ValueError(f"unknown forcing kind {self.kind!r}")

    @classmethod
    def none(cls) -> "ForcingSpec":
        return cls(0.0)

    @classmethod
    def constant(cls, lam: float) -> "ForcingSpec":
        """Scale ``lam`` of the unit constant source f = 1."""
        return cls(lam)

    def source(self, center_dist: np.ndarray) -> np.ndarray:
        """The unit source f at each distance in ``center_dist``."""
        if self.kind == "constant":
            return np.ones_like(center_dist, dtype=float)
        return np.exp(-((center_dist / 0.5) ** 2))

    def with_lam(self, lam: float) -> "ForcingSpec":
        return replace(self, lam=lam)


@dataclass(frozen=True)
class ProblemSpec:
    """Full instance definition shared by all solver modules."""

    exponents: ExponentPair
    domain: DomainSpec
    boundary: BoundarySpec = field(default_factory=BoundarySpec.dirichlet)
    forcing: ForcingSpec = field(default_factory=ForcingSpec.none)

    @property
    def p(self) -> float:
        return self.exponents.p

    @property
    def q(self) -> float:
        return self.exponents.q

    @property
    def lam(self) -> float:
        return self.forcing.lam

    @property
    def dimension(self) -> int:
        return self.domain.dimension

    def with_lam(self, lam: float) -> "ProblemSpec":
        return replace(self, forcing=self.forcing.with_lam(lam))


@dataclass
class ValidationReport:
    """Named violations, which reject a problem, and warnings, which do not."""

    violations: list[str] = field(default_factory=list)
    warnings: list[str] = field(default_factory=list)

    @property
    def accepted(self) -> bool:
        return not self.violations


SUBCRITICALITY = "SUBCRITICALITY"


def validate(spec: ProblemSpec) -> ValidationReport:
    """Check a problem instance; reject broken exponents, warn on supercritical ones.

    Rejection names the violated constraint.  Exponents on or beyond the
    critical hyperbola 1/(p+1) + 1/(q+1) = (N-2)/N only produce a warning:
    equilibria may fail to exist on star-shaped domains there, but the
    parabolic flow itself is still well defined.
    """
    report = ValidationReport()
    p, q = spec.exponents.p, spec.exponents.q
    if not p > 1:
        report.violations.append("p>1")
    if not q > 1:
        report.violations.append("q>1")
    if math.isinf(p) or math.isinf(q):
        report.violations.append("finite-exponents")
    if report.violations:
        return report

    n = spec.dimension
    if 1 / (p + 1) + 1 / (q + 1) <= (n - 2) / n:
        report.warnings.append(SUBCRITICALITY)
    return report


def blowup_exponent(exponents: ExponentPair) -> float:
    """Exponent gamma = (p+1)(q+1)/(p+q+2) governing the blow-up bound.

    Satisfies gamma > 1 and gamma/(q+1) + gamma/(p+1) = 1 for all valid
    exponent pairs; the latter identity is what makes the Young step in the
    blow-up bound tight.
    """
    p, q = exponents.p, exponents.q
    if p <= 1 or q <= 1:
        raise ValueError("blowup_exponent requires p > 1 and q > 1")
    return (p + 1) * (q + 1) / (p + q + 2)
