import math

import numpy as np
import pytest

from inellipse.conic import NEAR_CIRCLE_ECC, ConicCoeffs, shape_geometry
from inellipse.diameters import (check_T2, conjugate_direction, equal_diameter_pair,
                                 parallel_margin, slope_of, t1_margin, tangency_chords)
from inellipse.errors import InEllipseError, IsCircle
from inellipse.family import inscribe
from inellipse.quad import canonicalize, quadrilateral

from conics import (center, check_T1, diameter_endpoints,
                    equal_conjugate_diameters, line_intersect)
from sampling import (frame_quad, random_convex_quad, random_diagonal_quad,
                      random_ellipse, random_mdq_quad, random_nonmdq_frame,
                      random_parallelogram)
from conftest import EXAMPLE_CONIC, EXAMPLE_R, assert_points_close

UNIT_CIRCLE = ConicCoeffs(1, 0, 1, 0, 0, -1)


def _assert_conjugate_and_equal(pair, a, b, c):
    """`pair` is conjugate for the quadratic part (a, b, c), and its two
    diameters, measured between their endpoints, have its equal length."""
    u, v = pair.dir1, pair.dir2
    form = a * u[0] * v[0] + 0.5 * b * (u[0] * v[1] + u[1] * v[0]) + c * u[1] * v[1]
    scale = max(abs(a), abs(b), abs(c)) * math.hypot(*u) * math.hypot(*v)
    assert abs(form) <= 1e-9 * scale
    l1 = math.dist(*pair.endpoints1) ** 2
    l2 = math.dist(*pair.endpoints2) ** 2
    assert l1 == pytest.approx(pair.len1_sq, rel=1e-9)
    assert l2 == pytest.approx(l1, rel=1e-9)


class TestConjugateDirection:
    def test_circle_perpendicular(self):
        v = conjugate_direction(UNIT_CIRCLE, (1.0, 0.0))
        assert parallel_margin(v, (0.0, 1.0)) <= 1e-15

    def test_example_diagonal_pairing(self):
        # the diameter along the first diagonal pairs with the second one
        v = conjugate_direction(EXAMPLE_CONIC, (2.0, 1.0))
        assert parallel_margin(v, (6.0, 1.0)) <= 1e-12

    def test_involution(self):
        rng = np.random.default_rng(30)
        for _ in range(100):
            conic = random_ellipse(rng)
            u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*u) < 0.1:
                continue
            back = conjugate_direction(conic, conjugate_direction(conic, u))
            assert parallel_margin(back, u) <= 1e-12


class TestDiameterEndpoints:
    def test_example_slope_half(self):
        p1, p2 = diameter_endpoints(EXAMPLE_CONIC, (2.0, 1.0))
        lo, hi = 0.25 * (7 - math.sqrt(31)), 0.25 * (7 + math.sqrt(31))
        assert_points_close(p1, (2 * lo, lo), 1e-10)
        assert_points_close(p2, (2 * hi, hi), 1e-10)

    def test_example_slope_sixth(self):
        p3, p4 = diameter_endpoints(EXAMPLE_CONIC, (6.0, 1.0))
        s2 = math.sqrt(2)
        assert_points_close(p3, (0.5 * (7 - 3 * s2), 0.25 * (7 - s2)), 1e-10)
        assert_points_close(p4, (0.5 * (7 + 3 * s2), 0.25 * (7 + s2)), 1e-10)

    def test_circle(self):
        p1, p2 = diameter_endpoints(UNIT_CIRCLE, (1.0, 0.0))
        assert_points_close(p1, (-1, 0), 1e-14)
        assert_points_close(p2, (1, 0), 1e-14)


class TestEqualConjugateDiameters:
    def test_axis_aligned(self):
        pair = equal_conjugate_diameters(ConicCoeffs(1, 0, 4, 0, 0, -4))
        # oracle: equal conjugate semidiameter length is sqrt((a^2+b^2)/2)
        assert pair.len1_sq == pytest.approx(2 * (4 + 1), rel=1e-12)
        assert pair.len2_sq == pytest.approx(pair.len1_sq, rel=1e-12)
        assert parallel_margin(pair.dir1, (2, 1)) <= 1e-12 or \
            parallel_margin(pair.dir1, (2, -1)) <= 1e-12
        assert parallel_margin(pair.dir2, (2, 1)) <= 1e-12 or \
            parallel_margin(pair.dir2, (2, -1)) <= 1e-12
        assert parallel_margin(pair.dir1, pair.dir2) > 0.1

    def test_circle_rejected(self):
        with pytest.raises(IsCircle):
            equal_conjugate_diameters(UNIT_CIRCLE)

    def test_pair_is_conjugate_and_equal(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            conic = random_ellipse(rng)
            _assert_conjugate_and_equal(equal_conjugate_diameters(conic), *conic[:3])

    def test_uniqueness_by_direction_sweep(self):
        rng = np.random.default_rng(32)
        for _ in range(10):
            conic = random_ellipse(rng)

            def len_sq(u):
                p, q = diameter_endpoints(conic, u)
                return math.dist(p, q) ** 2

            thetas = np.linspace(0.0, math.pi, 721)[:-1]
            f = []
            for th in thetas:
                u = (math.cos(th), math.sin(th))
                f.append(len_sq(u) - len_sq(conjugate_direction(conic, u)))
            f = np.asarray(f)
            sign_changes = int(np.sum(np.sign(f[:-1]) * np.sign(f[1:]) < 0))
            wraps = 1 if np.sign(f[0]) * np.sign(f[-1]) < 0 else 0
            # the unordered equal pair is hit twice per half-turn
            assert sign_changes + wraps == 2


def _near_circle_shape(ecc, angle):
    """(Sxx, 2 Sxy, Syy, det S) of the ellipse x' S^-1 x = 1 with semi-axes 1
    and sqrt(1 - ecc^2), its major axis at `angle`."""
    k, c, s = 1.0 - ecc * ecc, math.cos(angle), math.sin(angle)
    return (c * c + k * s * s, 2.0 * (1.0 - k) * c * s, s * s + k * c * c, k)


class TestEqualDiameterPairThreshold:
    """Either side of the one near-circle rule, `EllipseGeometry.near_circle`."""

    ANGLES = (0.0, 0.3, 1.0, 2.5, -0.7)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_just_inside_raises(self, angle):
        geo = shape_geometry((0.0, 0.0), _near_circle_shape(0.99 * NEAR_CIRCLE_ECC, angle))
        assert geo.near_circle
        with pytest.raises(IsCircle):
            equal_diameter_pair(geo)

    @pytest.mark.parametrize("angle", ANGLES)
    def test_just_outside_is_conjugate_and_equal(self, angle):
        # on the pair's own ellipse: conjugate for its quadratic part adj(S),
        # with its endpoints on it
        shape = _near_circle_shape(1.01 * NEAR_CIRCLE_ECC, angle)
        geo = shape_geometry((0.5, -2.0), shape)
        assert not geo.near_circle
        pair = equal_diameter_pair(geo)
        a, b, c = shape[2], -shape[1], shape[0]
        _assert_conjugate_and_equal(pair, a, b, c)
        for x, y in pair.endpoints1 + pair.endpoints2:
            x, y = x - 0.5, y + 2.0
            assert (a * x * x + b * x * y + c * y * y) / shape[3] == pytest.approx(1.0, rel=1e-9)


class TestChordMidpointLaw:
    def test_example_closed_form(self):
        # chords y = x/2 + b have midpoints (7/2 - 3b, 7/4 - b/2)
        for b in np.linspace(-0.65, 0.65, 20):
            pts = line_intersect(EXAMPLE_CONIC, (0.0, float(b)), (2.0, 1.0))
            assert len(pts) == 2
            mx = 0.5 * (pts[0][0] + pts[1][0])
            my = 0.5 * (pts[0][1] + pts[1][1])
            assert_points_close((mx, my), (3.5 - 3 * b, 1.75 - 0.5 * b), 1e-9)
            # and the midpoint lies on the conjugate line of slope 1/6
            assert abs((my - 1.75) - (mx - 3.5) / 6.0) <= 1e-9

    def test_random_ellipses(self):
        rng = np.random.default_rng(33)
        for _ in range(20):
            conic = random_ellipse(rng)
            c = center(conic)
            u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*u) < 0.1:
                continue
            v = conjugate_direction(conic, u)
            vn = math.hypot(*v)
            half = 0.5 * math.dist(*diameter_endpoints(conic, v))
            scale = math.hypot(*c) + half
            for k in np.linspace(-0.9, 0.9, 20):
                p0 = (c[0] + k * half * v[0] / vn, c[1] + k * half * v[1] / vn)
                pts = line_intersect(conic, p0, u)
                assert len(pts) == 2
                mid = (0.5 * (pts[0][0] + pts[1][0]),
                       0.5 * (pts[0][1] + pts[1][1]))
                # midpoint on the line through the center with direction v
                dev = abs((mid[0] - c[0]) * v[1] - (mid[1] - c[1]) * v[0]) / vn
                assert dev <= 1e-9 * max(scale, 1.0)


class TestTangencyChords:
    def test_example_slopes(self, example_quad):
        ie = inscribe(example_quad, EXAMPLE_R)
        chords = tangency_chords(ie)
        s12, s23, s34, s14 = chords.slopes
        assert s23 == pytest.approx(1 / 6, abs=1e-10)
        assert s14 == pytest.approx(1 / 6, abs=1e-10)

    def test_qst_type1_slopes(self):
        quad = quadrilateral([(0, 0), (0, 1), (2, 2), (1, 0)])
        ie = inscribe(quad, 0.5)
        chords = tangency_chords(ie)
        assert chords.slopes[1] == pytest.approx(-1.0, abs=1e-10)
        assert chords.slopes[3] == pytest.approx(-1.0, abs=1e-10)

    def test_parallelogram_slopes_constant(self):
        rng = np.random.default_rng(34)
        quad = random_parallelogram(rng)
        slopes = []
        for v in (-0.7, -0.2, 0.3, 0.8):
            chords = tangency_chords(inscribe(quad, v))
            slopes.append(chords.slopes)
        for i in range(4):
            vals = [s[i] for s in slopes]
            if None in vals:
                assert all(x is None for x in vals)
            else:
                assert max(vals) - min(vals) <= 1e-9 * max(1.0, abs(vals[0]))

    def test_vertical_tagged(self):
        assert slope_of((1.0, 0.0), (1.0, 5.0)) is None


def qst_chord_slopes(s, t, q):
    """Closed-form chord slopes for the (s,t) frame, used as oracles."""
    return {
        "q1q2": t * (2 * q * (t - 1) + s) / (s * ((t - s) * q + s)),
        "q3q4": t / ((s + t - 2) * q + s),
        "q2q3": -t * (2 * (t - 1) * q + s - t + 1)
                / ((s * s + t * t - s - t) * q - s * s + s * t + s),
        "q1q4": t / ((s - t) * q - s),
    }


class TestT2SlopeFormulas:
    def test_against_tangency_points(self):
        rng = np.random.default_rng(35)
        for _ in range(100):
            while True:
                s = rng.uniform(0.3, 4.0)
                t = rng.uniform(0.3, 4.0)
                if s + t > 1.1 and abs(s - 1.0) > 0.05:
                    break
            q = rng.uniform(0.05, 0.95)
            # chords built straight from the closed-form tangency points
            from paper import qst_tangency
            p1, p2, p3, p4 = qst_tangency(s, t, q)
            expected = qst_chord_slopes(s, t, q)
            got = {
                "q1q2": slope_of(p1, p2),
                "q2q3": slope_of(p2, p3),
                "q3q4": slope_of(p3, p4),
                "q1q4": slope_of(p1, p4),
            }
            for name, val in expected.items():
                assert got[name] == pytest.approx(val, abs=1e-10 * (1 + abs(val)))


class TestCheckT2:
    def test_type1_chords_parallel_d2(self, example_quad):
        ie = inscribe(example_quad, EXAMPLE_R)
        rep = check_T2(example_quad, ie, 1e-9)
        assert rep.parallel_to_d2 == frozenset({"q2q3", "q1q4"})
        assert rep.parallel_to_d1 == frozenset()

    def test_type2_chords_parallel_d1(self):
        quad = quadrilateral([(0, 0), (0, 1), (1.5, 0.5), (1, 0)])
        ie = inscribe(quad, 0.37)
        rep = check_T2(quad, ie, 1e-9)
        assert rep.parallel_to_d1 == frozenset({"q1q2", "q3q4"})
        assert rep.parallel_to_d2 == frozenset()

    def test_non_mdq_nothing_parallel(self):
        quad = quadrilateral([(0, 0), (0, 1), (2, 3), (1, 0)])
        for q in (0.2, 0.5, 0.8):
            rep = check_T2(quad, inscribe(quad, q), 1e-9)
            assert rep.parallel_to_d1 == frozenset()
            assert rep.parallel_to_d2 == frozenset()

    def test_parallelogram_both_pairs(self):
        quad = canonicalize([(0, 0), (1, 2), (4, 2), (3, 0)])
        rep = check_T2(quad, inscribe(quad, 0.4), 1e-9)
        assert rep.parallel_to_d1 == frozenset({"q1q2", "q3q4"})
        assert rep.parallel_to_d2 == frozenset({"q2q3", "q1q4"})


class TestChordContract:
    """`check_T2` and `tangency_chords` against `parallel_margin` and
    `slope_of` applied chord by chord."""

    NAMES = ("q1q2", "q2q3", "q3q4", "q1q4")

    @staticmethod
    def _members():
        rng = np.random.default_rng(36)
        for _ in range(10):
            for quad in (random_convex_quad(rng), random_mdq_quad(rng, type1=True),
                         random_mdq_quad(rng, type1=False), random_parallelogram(rng)):
                for param in (0.15, 0.5, 0.85):
                    yield quad, inscribe(quad, param)
        # thin quads down to rho = 1e-9 and quads moved by up to 1e8
        rng = np.random.default_rng(24)
        for _ in range(4):
            quads = [random_diagonal_quad(rng, rho=rho) for rho in (1e-3, 1e-6, 1e-9)]
            shift = rng.uniform(-1e8, 1e8, 2)
            quads += [quadrilateral([(x + shift[0], y + shift[1]) for x, y in q.vertices])
                      for q in (random_convex_quad(rng), random_mdq_quad(rng, type1=True),
                                random_mdq_quad(rng, type1=False), random_parallelogram(rng))]
            for quad in quads:
                for param in (0.15, 0.5, 0.85):
                    yield quad, inscribe(quad, param)

    @staticmethod
    def _chords(ie):
        q1, q2, q3, q4 = ie.tangency
        return (q1, q2), (q2, q3), (q3, q4), (q1, q4)

    def test_margins_and_sets(self):
        for quad, ie in self._members():
            diags = quad.diagonal_vectors()
            rep = check_T2(quad, ie)
            for margins, diag in ((rep.margins_d1, diags[0]), (rep.margins_d2, diags[1])):
                assert list(margins) == list(self.NAMES)
                for name, (p, q) in zip(self.NAMES, self._chords(ie)):
                    assert margins[name] == parallel_margin((q[0] - p[0], q[1] - p[1]), diag)
            # every margin as the tolerance is on the boundary: `<=` keeps it
            for tol in [1e-9] + list(rep.margins_d1.values()) + list(rep.margins_d2.values()):
                got = check_T2(quad, ie, tol)
                assert got.margins_d1 == rep.margins_d1 and got.margins_d2 == rep.margins_d2
                assert got.parallel_to_d1 == {n for n, m in rep.margins_d1.items() if m <= tol}
                assert got.parallel_to_d2 == {n for n, m in rep.margins_d2.items() if m <= tol}
            tol = rep.margins_d1["q2q3"]
            assert "q2q3" in check_T2(quad, ie, tol).parallel_to_d1
            assert "q2q3" not in check_T2(quad, ie, math.nextafter(tol, 0.0)).parallel_to_d1

    def test_zero_length_chord_raises(self):
        quad, ie = next(self._members())
        q1, q2, q3, q4 = ie.tangency
        for tangency in ((q1, q1, q3, q4), (q1, q2, q3, q1)):
            with pytest.raises(InEllipseError):
                check_T2(quad, ie._replace(tangency=tangency))

    def test_chords_and_slopes(self):
        _, first = next(self._members())
        q1, q2, q3, q4 = first.tangency
        vertical = first._replace(tangency=(q1, (q1[0], q1[1] + 1.0), q3, q4))
        for ie in [vertical] + [ie for _, ie in self._members()]:
            chords = tangency_chords(ie)
            assert chords[:4] == self._chords(ie)
            assert chords.slopes == tuple(slope_of(p, q) for p, q in self._chords(ie))
        assert tangency_chords(vertical).slopes[0] is None


class TestCheckT1:
    # a conic and a member's shape both supply the quadratic part (a, b, c)
    def test_example(self, example_quad):
        ie = inscribe(example_quad, EXAMPLE_R)
        assert check_T1(example_quad, ie.conic, 1e-9)
        assert check_T1(example_quad, ie.adjugate, 1e-9)

    def test_non_mdq_fails(self):
        rng = np.random.default_rng(36)
        for _ in range(20):
            quad = frame_quad(*random_nonmdq_frame(rng))
            ie = inscribe(quad, rng.uniform(0.1, 0.9))
            for quadratic in (ie.conic, ie.adjugate):
                assert not check_T1(quad, quadratic, 1e-7)
                assert t1_margin(quad, quadratic) > 1e-5
            assert t1_margin(quad, ie.adjugate) == pytest.approx(
                t1_margin(quad, ie.conic), rel=1e-9)

    def test_circle_in_square(self):
        square = canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)])
        ie = inscribe(square, 0.0)
        assert check_T1(square, ie.conic, 1e-9)
        assert check_T1(square, ie.adjugate, 1e-9)
