import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from inellipse.conic import ConicCoeffs, geometry, scale_normalized
from inellipse.errors import InEllipseError

from conics import (center, discriminants, evaluate, gradient, is_ellipse,
                    line_intersect, proportional, sign_normalized)
from sampling import random_ellipse
from conftest import EXAMPLE_CONIC, EXAMPLE_R, assert_points_close

UNIT_CIRCLE = ConicCoeffs(1, 0, 1, 0, 0, -1)


class TestDiscriminants:
    def test_example_conic(self):
        # oracle: direct evaluation of 4AC - B^2 and CD^2 + AE^2 - BDE - F*Delta
        big, small = discriminants(EXAMPLE_CONIC)
        assert big == 4 * 33 * 196 - 148 ** 2 == 3968
        assert small == (196 * 28 ** 2 + 33 * 168 ** 2
                         - (-148) * 28 * (-168) - 36 * 3968) == 246016

    def test_unit_circle(self):
        assert discriminants(UNIT_CIRCLE) == (4, 4)

    def test_degenerate_line_pair(self):
        big, _ = discriminants(ConicCoeffs(1, 0, -1, 0, 0, 0))
        assert big == -4

    def test_sign_normalization(self):
        flipped = ConicCoeffs(*(-x for x in EXAMPLE_CONIC))
        assert discriminants(flipped) == discriminants(EXAMPLE_CONIC)
        assert sign_normalized(flipped) == EXAMPLE_CONIC


class TestIsEllipse:
    def test_example_conic(self):
        assert is_ellipse(EXAMPLE_CONIC)

    def test_unit_circle(self):
        assert is_ellipse(UNIT_CIRCLE)

    def test_empty_conic(self):
        assert not is_ellipse(ConicCoeffs(1, 0, 1, 0, 0, 1))

    def test_hyperbola(self):
        assert not is_ellipse(ConicCoeffs(1, 0, -1, 0, 0, -1))


class TestCenter:
    def test_example_conic(self):
        assert_points_close(center(EXAMPLE_CONIC), (3.5, 1.75), 1e-12)

    def test_translated_circle(self):
        assert_points_close(center(ConicCoeffs(1, 0, 1, -2, -2, 1)), (1, 1), 1e-14)

    def test_gradient_vanishes_at_center(self):
        from paper import qst_conic
        conic = qst_conic(2.0, 2.0, 0.5)
        c = center(conic)
        assert_points_close(c, (2 / 3, 2 / 3), 1e-14)
        gx, gy = gradient(scale_normalized(conic), c)
        assert abs(gx) <= 1e-10 and abs(gy) <= 1e-10

    def test_rejects_non_ellipse(self):
        with pytest.raises(InEllipseError):
            center(ConicCoeffs(1, 0, -1, 0, 0, -1))


class TestGeometry:
    def test_unit_circle(self):
        geo = geometry(UNIT_CIRCLE)
        assert geo.semi_major == geo.semi_minor == pytest.approx(1.0)
        assert geo.eccentricity == 0.0

    def test_axis_aligned(self):
        geo = geometry(ConicCoeffs(1, 0, 4, 0, 0, -4))
        assert geo.semi_major == pytest.approx(2.0, abs=1e-14)
        assert geo.semi_minor == pytest.approx(1.0, abs=1e-14)
        assert geo.eccentricity == pytest.approx(math.sqrt(3) / 2, abs=1e-14)
        assert abs(geo.major_axis_direction[1]) <= 1e-14

    def test_example_ecc_matches_G(self):
        # two independent formulas for the axis ratio must agree
        from paper import G_value
        geo = geometry(EXAMPLE_CONIC)
        assert geo.eccentricity ** 2 == pytest.approx(
            1.0 - G_value(8, 4, 6, 2, EXAMPLE_R), abs=1e-12)

    def test_eccab_ratio_consistency(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            conic = random_ellipse(rng)
            a, b, c, *_ = sign_normalized(conic)
            root = math.hypot(a - c, b)
            ratio_eccab = (a + c - root) / (a + c + root)
            geo = geometry(conic)
            assert geo.axis_ratio_sq == pytest.approx(ratio_eccab, rel=1e-12)

    def test_axis_endpoints_on_conic(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            conic = scale_normalized(random_ellipse(rng))
            geo = geometry(conic)
            ux, uy = geo.major_axis_direction
            cx, cy = geo.center
            scale = geo.semi_major + math.hypot(cx, cy)
            for sgn in (1, -1):
                p_major = (cx + sgn * geo.semi_major * ux,
                           cy + sgn * geo.semi_major * uy)
                p_minor = (cx - sgn * geo.semi_minor * uy,
                           cy + sgn * geo.semi_minor * ux)
                assert abs(evaluate(conic, p_major)) <= 1e-9 * scale * scale
                assert abs(evaluate(conic, p_minor)) <= 1e-9 * scale * scale


class TestEvaluateGradient:
    def test_example_tangency_point(self):
        assert evaluate(EXAMPLE_CONIC, (0.0, 3.0 / 7.0)) == pytest.approx(0.0, abs=1e-12)

    def test_circle_point(self):
        assert evaluate(UNIT_CIRCLE, (1.0, 0.0)) == 0.0
        assert gradient(UNIT_CIRCLE, (1.0, 0.0)) == (2.0, 0.0)


class TestLineIntersect:
    def test_circle_horizontal(self):
        pts = line_intersect(UNIT_CIRCLE, (0.0, 0.0), (1.0, 0.0))
        assert_points_close(pts[0], (-1, 0), 1e-14)
        assert_points_close(pts[1], (1, 0), 1e-14)

    def test_example_diameter(self):
        pts = line_intersect(EXAMPLE_CONIC, (3.5, 1.75), (2.0, 1.0))
        lo = 0.25 * (7 - math.sqrt(31))
        hi = 0.25 * (7 + math.sqrt(31))
        assert_points_close(pts[0], (2 * lo, lo), 1e-10)
        assert_points_close(pts[1], (2 * hi, hi), 1e-10)

    def test_tangent_side_double_root(self):
        # bottom side of the worked-example quad touches at (18/7, 6/7)
        pts = line_intersect(EXAMPLE_CONIC, (0.0, 0.0), (6.0, 2.0))
        assert len(pts) == 1
        assert_points_close(pts[0], (18 / 7, 6 / 7), 1e-9)

    def test_miss(self):
        assert line_intersect(UNIT_CIRCLE, (0.0, 2.0), (1.0, 0.0)) == []

    def test_zero_direction_rejected(self):
        with pytest.raises(InEllipseError):
            line_intersect(UNIT_CIRCLE, (0.0, 0.0), (0.0, 0.0))


nonzero_scalars = st.floats(min_value=1e-6, max_value=1e6,
                            allow_nan=False, allow_infinity=False)


class TestScaleInvariance:
    @given(lam=nonzero_scalars, flip=st.booleans())
    def test_ellipse_ops_projective(self, lam, flip):
        if flip:
            lam = -lam
        scaled = ConicCoeffs(*(lam * x for x in EXAMPLE_CONIC))
        assert is_ellipse(scaled) == is_ellipse(EXAMPLE_CONIC)
        assert_points_close(center(scaled), center(EXAMPLE_CONIC), 1e-9)
        g1, g2 = geometry(scaled), geometry(EXAMPLE_CONIC)
        assert g1.semi_major == pytest.approx(g2.semi_major, rel=1e-9)
        assert g1.eccentricity == pytest.approx(g2.eccentricity, rel=1e-9)


class TestProportional:
    def test_matches_scaled(self):
        assert proportional(EXAMPLE_CONIC,
                            ConicCoeffs(*(2.5 * x for x in EXAMPLE_CONIC)))

    def test_rejects_other(self):
        assert not proportional(EXAMPLE_CONIC, UNIT_CIRCLE)
