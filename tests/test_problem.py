import math
from dataclasses import replace

import numpy as np
import pytest

from thresholdlab import (
    BoundarySpec,
    ExponentPair,
    ForcingSpec,
    ProblemSpec,
    RadialBall,
    Rectangle,
    blowup_exponent,
    build_grid,
    validate,
)
from thresholdlab.elliptic import forcing_arrays
from thresholdlab.problem import SUBCRITICALITY


def make_spec(p, q, dim=3, lam=0.0):
    forcing = ForcingSpec.constant(lam) if lam > 0 else ForcingSpec.none()
    return ProblemSpec(ExponentPair(p, q), RadialBall(dim, 1.0), forcing=forcing)


class TestValidate:
    def test_subcritical_accepted(self):
        report = validate(make_spec(2, 2, dim=3))  # 1/3 + 1/3 > 1/3
        assert report.accepted and not report.warnings

    def test_critical_warns(self):
        report = validate(make_spec(5, 5, dim=3))  # 1/6 + 1/6 = 1/3, not >
        assert report.accepted
        assert SUBCRITICALITY in report.warnings

    def test_bad_exponent_rejected_with_name(self):
        report = validate(make_spec(1, 3, dim=2))
        assert not report.accepted
        assert report.violations == ["p>1"]

    def test_both_exponents_named(self):
        report = validate(make_spec(0.5, 1.0))
        assert set(report.violations) == {"p>1", "q>1"}

    def test_pure_function(self):
        spec = make_spec(5, 5, dim=3)
        first, second = validate(spec), validate(spec)
        assert first.accepted == second.accepted
        assert first.warnings == second.warnings

    def test_dimension_two_never_warns(self):
        report = validate(make_spec(50, 50, dim=2))
        assert report.accepted and not report.warnings


class TestBlowupExponent:
    def test_values(self):
        assert blowup_exponent(ExponentPair(3, 3)) == pytest.approx(2.0)
        assert blowup_exponent(ExponentPair(2, 2)) == pytest.approx(1.5)

    def test_limit_toward_one(self):
        eps = 1e-6
        g = blowup_exponent(ExponentPair(1 + eps, 1 + eps))
        assert 1.0 < g < 1.0 + 2 * eps

    def test_rejects_boundary(self):
        with pytest.raises(ValueError):
            blowup_exponent(ExponentPair(1.0, 3.0))

    def test_exponent_identities(self, rng):
        for _ in range(200):
            p, q = rng.uniform(1.0001, 10.0, 2)
            g = blowup_exponent(ExponentPair(p, q))
            assert g > 1
            assert (q + 1) / g > 1
            assert (p + 1) / g > 1
            assert g / (q + 1) + g / (p + 1) == pytest.approx(1.0, abs=1e-14)


class TestConstruction:
    def test_ball_dimension(self):
        with pytest.raises(ValueError):
            RadialBall(1, 1.0)

    def test_ball_radius(self):
        with pytest.raises(ValueError):
            RadialBall(2, -1.0)

    def test_ball_volume(self):
        assert RadialBall(2, 1.0).volume == pytest.approx(math.pi)
        assert RadialBall(3, 1.0).volume == pytest.approx(4 * math.pi / 3)
        assert RadialBall(2, 2.0).volume == pytest.approx(4 * math.pi)

    def test_sphere_area(self):
        assert RadialBall(2, 1.0).sphere_area == pytest.approx(2 * math.pi)
        assert RadialBall(3, 1.0).sphere_area == pytest.approx(4 * math.pi)

    def test_rectangle(self):
        assert Rectangle(2.0, 3.0).volume == pytest.approx(6.0)
        with pytest.raises(ValueError):
            Rectangle(-1.0, 1.0)

    def test_robin_beta_positive(self):
        with pytest.raises(ValueError):
            BoundarySpec.robin(0.0)
        with pytest.raises(ValueError):
            BoundarySpec("robin")
        assert BoundarySpec.robin(1.5).beta == 1.5

    def test_profile_evaluation(self):
        d = np.array([0.0, 0.5, 1.0])
        np.testing.assert_array_equal(ForcingSpec(2.0, "constant").source(d), 1.0)
        bump = ForcingSpec(2.0, "bump").source(d)
        np.testing.assert_allclose(bump, np.exp(-((d / 0.5) ** 2)))
        with pytest.raises(ValueError, match="unknown forcing kind"):
            ForcingSpec(1.0, "ramp")

    def test_forcing_scale_nonnegative(self):
        with pytest.raises(ValueError):
            ForcingSpec(-0.5)

    def test_zero_lambda_reproduces_homogeneous(self):
        spec = make_spec(3, 3, lam=0.0)
        assert spec.lam == 0.0
        grid = build_grid(spec.domain, spec.boundary, 16)
        for kind in ("constant", "bump"):
            unforced = replace(spec, forcing=ForcingSpec(0.0, kind))
            assert not forcing_arrays(unforced, grid).any()
