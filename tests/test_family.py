import math
import pickle

import numpy as np
import pytest

from inellipse.affine import normalize_to_qstvw
from inellipse.conic import ConicCoeffs
from inellipse.errors import InEllipseError, ParamOutOfRegion
from inellipse import family
from inellipse.family import InscribedEllipse, inscribe
from inellipse.minecc import min_ecc, min_ecc_numeric
from inellipse.quad import Quadrilateral, canonicalize, diagonals, quadrilateral

from conics import center, evaluate, gradient, is_ellipse, proportional
from paper import (AffineMap, CollinearTriangle, NonPositiveWeights,
                   marden_foci, qst_center_param, qst_conic, qst_newton_line,
                   qst_tangency, qstvw_coeff_polys, qstvw_conic,
                   qstvw_tangency, similarity_map, square_inellipse_conic)
from sampling import (frame_quad, random_convex_quad, random_diagonal_quad,
                      random_frame, random_kite, random_mdq_quad,
                      random_parallelogram, random_s1s3_trapezoid,
                      random_similarity)
from conftest import (EXAMPLE_CONIC, EXAMPLE_R, assert_inscribed,
                      assert_on_open_segment, assert_points_close,
                      assert_tangent_at, diagonal_midpoints)


def random_g_region(rng):
    while True:
        s = rng.uniform(0.3, 4.0)
        t = rng.uniform(0.3, 4.0)
        if s + t > 1.05 and abs(s - 1.0) > 0.05:
            return s, t


class TestQstConic:
    def test_golden_s2t2(self):
        conic = qst_conic(2.0, 2.0, 0.5)
        assert conic == ConicCoeffs(4.0, -2.0, 4.0, -4.0, -4.0, 1.0)
        # center sits on the diagonal y = x of this type-1 frame
        assert_points_close(center(conic), (2 / 3, 2 / 3), 1e-14)

    def test_endpoints_rejected(self):
        for q in (0.0, 1.0, -0.2, 1.3):
            with pytest.raises(ParamOutOfRegion):
                qst_conic(2.0, 2.0, q)

    def test_is_ellipse_and_tangent_below(self):
        rng = np.random.default_rng(10)
        for _ in range(100):
            s, t = random_g_region(rng)
            q = rng.uniform(0.02, 0.98)
            conic = qst_conic(s, t, q)
            assert is_ellipse(conic)
            # tangency at (q, 0) with vertical gradient
            assert abs(evaluate(conic, (q, 0.0))) <= 1e-9 * max(abs(x) for x in conic)
            gx, gy = gradient(conic, (q, 0.0))
            assert abs(gx) <= 1e-9 * math.hypot(gx, gy)


class TestQstCenterParam:
    def test_golden(self):
        h, c = qst_center_param(2.0, 2.0, 0.5)
        assert h == pytest.approx(2 / 3, abs=1e-15)
        assert_points_close(c, (2 / 3, 2 / 3), 1e-14)

    def test_limit_q_to_zero(self):
        h, _ = qst_center_param(3.0, 1.5, 1e-9)
        assert h == pytest.approx(1.5, abs=1e-6)  # h -> s/2

    def test_matches_conic_center_and_newton_segment(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            s, t = random_g_region(rng)
            q = rng.uniform(0.02, 0.98)
            h, c = qst_center_param(s, t, q)
            assert_points_close(c, center(qst_conic(s, t, q)), 1e-10)
            assert_on_open_segment(c, (s / 2, t / 2), (0.5, 0.5), 1e-9)


class TestQstTangency:
    def test_golden_s2t2(self):
        q1, q2, q3, q4 = qst_tangency(2.0, 2.0, 0.5)
        assert_points_close(q1, (0.0, 0.5), 1e-14)
        assert_points_close(q2, (0.5, 1.25), 1e-14)
        assert_points_close(q3, (1.25, 0.5), 1e-14)
        assert_points_close(q4, (0.5, 0.0), 1e-14)

    def test_chord_slope_when_type1(self):
        # with s = t the chord q1q4 is parallel to the diagonal y = 1 - x
        s = t = 2.5
        rng = np.random.default_rng(12)
        for _ in range(20):
            q = rng.uniform(0.05, 0.95)
            p1, _, _, p4 = qst_tangency(s, t, q)
            slope = (p4[1] - p1[1]) / (p4[0] - p1[0])
            assert slope == pytest.approx(t / ((s - t) * q - s), rel=1e-12)
            assert slope == pytest.approx(-1.0, rel=1e-12)

    def test_points_interior_and_tangent(self):
        rng = np.random.default_rng(13)
        for _ in range(100):
            s, t = random_g_region(rng)
            q = rng.uniform(0.02, 0.98)
            conic = qst_conic(s, t, q)
            verts = [(0.0, 0.0), (0.0, 1.0), (s, t), (1.0, 0.0)]
            scale = max(s + t, 2.0)
            pts = qst_tangency(s, t, q)
            for p, i in zip(pts, range(4)):
                assert_tangent_at(conic, p, verts[i], verts[(i + 1) % 4], scale)


class TestDerivationConsistency:
    def test_proportional_to_family_conic(self):
        from conftest import centered_form_conic
        rng = np.random.default_rng(14)
        for _ in range(200):
            s, t = random_g_region(rng)
            q = rng.uniform(0.02, 0.98)
            assert proportional(centered_form_conic(s, t, q),
                                qst_conic(s, t, q), 1e-9)


#: the square [-1, 1]^2, labeled clockwise from its lower-left corner
SQUARE = quadrilateral([(-1, -1), (-1, 1), (1, 1), (1, -1)])


def _centered_parallelogram(l, k, d):
    """Vertices (-l-d, -k), (-l+d, k), (l+d, k), (l-d, -k), in that order."""
    return quadrilateral([(-l - d, -k), (-l + d, k), (l + d, k), (l - d, -k)])


class TestParallelogramFamily:
    # a parallelogram's member at v touches S1 at the fraction (1 + v)/2
    # along A1 -> A2
    def test_square_midpoint_tangency(self):
        pts = inscribe(SQUARE, 0.0).tangency
        for got, expect in zip(pts, ((-1.0, 0.0), (0.0, 1.0), (1.0, 0.0), (0.0, -1.0))):
            assert_points_close(got, expect, 1e-12)

    def test_square_family_matches_formula(self):
        rng = np.random.default_rng(15)
        for _ in range(50):
            v = rng.uniform(-0.95, 0.95)
            conic = square_inellipse_conic(v)
            assert is_ellipse(conic)
            ie = inscribe(SQUARE, v)
            assert ie.param == v and ie.frame == "parallelogram"
            assert proportional(ie.conic, conic, 1e-12)
            for got, expect in zip(ie.tangency, ((-1.0, v), (-v, 1.0), (1.0, -v), (v, -1.0))):
                assert_points_close(got, expect, 1e-12)
                assert abs(evaluate(conic, got)) <= 1e-12

    def test_coeff_polys_are_the_squeezed_square_family(self):
        # the (s,t,v,w) family of the frame (s, t, s, t - 1) at r is the
        # unit-square family at v = 2r - 1 pushed through the map taking
        # the square's corners to the frame's
        rng = np.random.default_rng(24)
        for _ in range(50):
            s = rng.uniform(0.3, 3.0)
            t = rng.uniform(0.2, 3.0)
            r = rng.uniform(0.025, 0.975)
            conic = ConicCoeffs(*(sum(c * r ** i for i, c in enumerate(poly))
                                  for poly in qstvw_coeff_polys(s, t, s, t - 1.0)))
            square_to_frame = AffineMap(((s / 2.0, 0.0), (t / 2.0 - 0.5, 0.5)),
                                        (s / 2.0, t / 2.0))
            assert proportional(conic, square_to_frame.apply_to_conic(
                square_inellipse_conic(2.0 * r - 1.0)), 1e-12)
            for p in qstvw_tangency(s, t, s, t - 1.0, r):
                assert abs(evaluate(conic, p)) <= 1e-12 * max(abs(x) for x in conic)

    def test_chord_slopes_independent_of_param(self):
        rng = np.random.default_rng(16)
        for _ in range(50):
            l = rng.uniform(0.5, 3.0)
            k = rng.uniform(0.5, 3.0)
            d = rng.uniform(-0.9, 0.9) * l
            v = rng.uniform(-0.9, 0.9)
            q1, q2, q3, q4 = inscribe(_centered_parallelogram(l, k, d), v).tangency
            assert_points_close(q1, (-l + d * v, k * v), 1e-12)
            slope12 = (q2[1] - q1[1]) / (q2[0] - q1[0])
            slope23 = (q3[1] - q2[1]) / (q3[0] - q2[0])
            assert slope12 == pytest.approx(k / (l + d), rel=1e-10)
            assert slope23 == pytest.approx(k / (d - l), rel=1e-10)

    def test_param_range_open(self):
        for v in (1.0, -1.0, 1.5):
            with pytest.raises(ParamOutOfRegion):
                inscribe(SQUARE, v)
        with pytest.raises(ParamOutOfRegion):
            square_inellipse_conic(-1.0)

    def test_tangency_interior_across_range(self):
        # the (-1, 1) range keeps every tangency point strictly inside its side
        for v in np.linspace(-0.999, 0.999, 41):
            pts = inscribe(SQUARE, float(v)).tangency
            square = SQUARE.vertices
            for p, i in zip(pts, range(4)):
                assert_on_open_segment(p, square[i], square[(i + 1) % 4], 1e-12)


class TestQstvwConic:
    def test_example_proportional(self):
        conic = qstvw_conic(8, 4, 6, 2, EXAMPLE_R)
        assert proportional(conic, EXAMPLE_CONIC, 1e-12)
        # the family representative is 576/49 times the printed one
        assert conic.c / EXAMPLE_CONIC.c == pytest.approx(576 / 49, rel=1e-14)

    def test_structural_coefficients(self):
        rng = np.random.default_rng(17)
        for _ in range(50):
            s, t, v, w = random_frame(rng)
            r = rng.uniform(0.05, 0.95)
            conic = qstvw_conic(s, t, v, w, r)
            assert conic.c == pytest.approx(v * v * s * s, rel=1e-14)
            assert conic.e == pytest.approx(-2 * r * v * v * s * s, rel=1e-14)
            assert conic.f == pytest.approx(r * r * s * s * v * v, rel=1e-14)

    def test_is_ellipse_across_family(self):
        rng = np.random.default_rng(18)
        for _ in range(50):
            s, t, v, w = random_frame(rng)
            for r in np.linspace(0.01, 0.99, 21):
                assert is_ellipse(qstvw_conic(s, t, v, w, float(r)))

    def test_endpoint_params_rejected(self):
        with pytest.raises(ParamOutOfRegion):
            qstvw_conic(8, 4, 6, 2, 0.0)
        with pytest.raises(ParamOutOfRegion):
            qstvw_conic(8, 4, 6, 2, 1.0)


class TestQstvwTangency:
    def test_example_points(self):
        p1, p2, p3, p4 = qstvw_tangency(8, 4, 6, 2, EXAMPLE_R)
        assert_points_close(p1, (0.0, 3 / 7), 1e-12)
        assert_points_close(p2, (32 / 9, 7 / 3), 1e-9)
        assert_points_close(p3, (62 / 9, 26 / 9), 1e-9)
        assert_points_close(p4, (18 / 7, 6 / 7), 1e-12)

    def test_closed_forms_hold_randomly(self):
        rng = np.random.default_rng(19)
        for _ in range(100):
            s, t, v, w = random_frame(rng)
            r = rng.uniform(0.02, 0.98)
            p1, _, _, p4 = qstvw_tangency(s, t, v, w, r)
            assert p1 == (0.0, r)
            from inellipse.affine import f_values
            _, f2, _ = f_values(s, t, v, w)
            qq = s * v * r / ((s - f2) * r + f2)
            assert_points_close(p4, (qq, w / v * qq), 1e-10 * max(s, v))

    def test_full_inscription_oracle(self):
        rng = np.random.default_rng(20)
        for _ in range(100):
            s, t, v, w = random_frame(rng)
            r = rng.uniform(0.02, 0.98)
            conic = qstvw_conic(s, t, v, w, r)
            verts = [(0.0, 0.0), (0.0, 1.0), (s, t), (v, w)]
            scale = max(s, t, v, 1.0)
            for p, i in zip(qstvw_tangency(s, t, v, w, r), range(4)):
                assert_tangent_at(conic, p, verts[i], verts[(i + 1) % 4], scale)


class TestInscribe:
    def test_example_quad(self, example_quad):
        ie = inscribe(example_quad, EXAMPLE_R)
        assert proportional(ie.conic, EXAMPLE_CONIC, 1e-9)
        assert_points_close(ie.tangency[0], (0, 3 / 7), 1e-9)
        assert_points_close(ie.tangency[3], (18 / 7, 6 / 7), 1e-9)
        assert_inscribed(ie)

    def test_square_incircle(self):
        square = canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)])
        ie = inscribe(square, 0.0)
        assert proportional(ie.conic, ConicCoeffs(1, 0, 1, -1, -1, 0.25), 1e-12)
        assert_inscribed(ie)

    def test_isometry_equivariance(self, example_quad):
        rng = np.random.default_rng(21)
        for _ in range(20):
            sim = random_similarity(rng)
            moved = quadrilateral([sim.apply(p) for p in example_quad.vertices])
            ie = inscribe(moved, EXAMPLE_R)
            base = inscribe(example_quad, EXAMPLE_R)
            for got, src in zip(ie.tangency, base.tangency):
                assert_points_close(got, sim.apply(src),
                                    1e-8 * moved.diameter())

    def test_open_interval_reaches_its_ends(self, example_quad):
        # every r in (0, 1) names a member, however near an end it lies
        for r in (1e-12, 1.0 - 1e-12):
            ie = inscribe(example_quad, r)
            assert ie.param == r and 0.0 < ie.geometry.axis_ratio_sq < 1.0
            assert_points_close(ie.tangency[0], (0.0, r), 1e-15)

    def test_random_quads_inscribed(self):
        rng = np.random.default_rng(22)
        for _ in range(50):
            quad = frame_quad(*random_frame(rng))
            ie = inscribe(quad, rng.uniform(0.05, 0.95))
            assert_inscribed(ie)
        for _ in range(20):
            quad = random_parallelogram(rng)
            ie = inscribe(quad, rng.uniform(-0.9, 0.9))
            assert_inscribed(ie)

    def test_centers_on_newton_segment_500_draws(self):
        rng = np.random.default_rng(23)
        for _ in range(500):
            kind = rng.integers(3)
            if kind == 0:
                quad = frame_quad(*random_frame(rng))
                param = rng.uniform(0.02, 0.98)
            elif kind == 1:
                s, t = random_g_region(rng)
                quad = quadrilateral([(0, 0), (0, 1), (s, t), (1, 0)])
                param = rng.uniform(0.02, 0.98)
            else:
                quad = random_parallelogram(rng)
                param = rng.uniform(-0.95, 0.95)
            ie = inscribe(quad, param)
            m1, m2 = diagonal_midpoints(quad)
            c = center(ie.conic)
            if diagonals(quad).names_v:
                assert_points_close(c, m1, 1e-9 * quad.diameter())
            else:
                assert_on_open_segment(c, m1, m2, 1e-9)


class TestInscribedEllipseContract:
    """`InscribedEllipse` is an immutable record: fields by name and
    position, no assignment or deletion, `_replace`, equality and hashing
    by value, pickling."""

    FIELDS = ("param", "tangency", "frame", "quad", "center", "shape")

    @pytest.fixture(params=["qstvw", "parallelogram"])
    def member(self, request, example_quad):
        if request.param == "qstvw":
            return inscribe(example_quad, EXAMPLE_R)
        member = inscribe(canonicalize([(0, 0), (1, 2), (4, 2), (3, 0)]), 0.25)
        assert member.frame == "parallelogram"
        return member

    def test_fields_are_set_by_name_and_position(self, member):
        assert member._fields == self.FIELDS
        values = [getattr(member, name) for name in self.FIELDS]
        assert InscribedEllipse(*values) == member
        assert InscribedEllipse(**dict(zip(self.FIELDS, values))) == member
        assert repr(member).startswith(f"InscribedEllipse(param={member.param!r}, ")

    def test_assignment_and_deletion_raise(self, member):
        with pytest.raises(AttributeError):
            member.param = 0.5
        with pytest.raises(AttributeError):
            del member.center
        with pytest.raises(AttributeError):
            member.label = "new"
        assert not hasattr(member, "label")

    def test_replace(self, member):
        assert member._replace() == member
        moved = member._replace(center=(0.0, 0.0))
        assert moved.center == (0.0, 0.0) and moved != member
        assert moved.shape == member.shape and moved.quad is member.quad

    def test_equal_members_compare_and_hash_equal(self, member):
        again = inscribe(member.quad, member.param)
        assert again is not member and again == member
        assert hash(again) == hash(member)
        assert len({member, again}) == 1
        assert inscribe(member.quad, member.param / 2) != member

    def test_pickle_round_trip(self, member):
        for read_geometry in (False, True):
            if read_geometry:
                member.geometry
            copy = pickle.loads(pickle.dumps(member))
            assert copy == member and hash(copy) == hash(member)
            assert copy.geometry == member.geometry

    def test_geometry_is_computed_once_per_instance(self, member, monkeypatch):
        calls = []

        def counted(*args):
            calls.append(args)
            return shape_geometry(*args)
        shape_geometry = family.shape_geometry
        monkeypatch.setattr(family, "shape_geometry", counted)
        first = member.geometry
        assert member.geometry is first and len(calls) == 1
        other = inscribe(member.quad, member.param)
        assert other.geometry == first and len(calls) == 2


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InEllipseError as exc:
        return type(exc), str(exc)


def _shifted(make, n):
    """The first n draws of `make` whose first admissible (s,t,v,w) frame
    shifts the labels."""
    drawn = []
    for _ in range(100 * n):
        quad = make()
        if normalize_to_qstvw(quad).shift != 0:
            drawn.append(quad)
            if len(drawn) == n:
                return drawn
    raise AssertionError("too few draws with a shifted frame")


class TestParameterMeaning:
    def test_param_is_the_s1_contact_fraction(self):
        # r names the member touching A1A2 at A1 + r(A2 - A1) on every quad,
        # whichever label shift its first admissible (s,t,v,w) frame takes
        rng = np.random.default_rng(61)
        quads = ([random_convex_quad(rng) for _ in range(20)]
                 + [random_mdq_quad(rng, type1=bool(i % 2)) for i in range(20)]
                 + [random_kite(rng) for _ in range(20)]
                 + [random_s1s3_trapezoid(rng) for _ in range(20)]
                 + _shifted(lambda: random_diagonal_quad(rng), 10)
                 + _shifted(lambda: random_diagonal_quad(rng, b=0.5), 10)
                 + _shifted(lambda: random_diagonal_quad(rng, a=0.5), 10)
                 + _shifted(lambda: random_s1s3_trapezoid(rng).rotate_labels(1), 10))
        for quad in quads:
            (x1, y1), (x2, y2) = quad.a1, quad.a2
            for r in (0.1, 0.3, 0.5, 0.8):
                ie = inscribe(quad, r)
                assert ie.param == r and ie.frame == "qstvw"
                assert_points_close(ie.tangency[0], (x1 + r * (x2 - x1), y1 + r * (y2 - y1)),
                                    1e-12 * quad.diameter())
                assert_inscribed(ie)

    def test_frame_family_is_the_pencil_on_shift_zero_quads(self):
        # the paper's (s,t,v,w) family, pulled back from the frame of the
        # quad's own labeling, names the same member at the same r
        rng = np.random.default_rng(62)
        makers = (lambda: random_diagonal_quad(rng),
                  lambda: random_diagonal_quad(rng, b=0.5),
                  lambda: random_diagonal_quad(rng, a=0.5),
                  lambda: random_parallelogram(rng),
                  lambda: random_s1s3_trapezoid(rng))
        compared = 0
        for quad in (make() for _ in range(60) for make in makers):
            fr = normalize_to_qstvw(quad)
            if fr.shift != 0:
                continue
            to_quad = similarity_map(quad).invert()
            for r in (0.05, 0.3, 0.6, 0.95):
                pulled = to_quad.apply_to_conic(
                    qstvw_conic(fr.s, fr.t, fr.v, fr.w, r))
                ie = inscribe(quad, r)
                if ie.frame == "parallelogram":
                    ie = inscribe(quad, 2.0 * r - 1.0)
                assert max(abs(x - y) for x, y in zip(pulled, ie.conic)) <= 1e-12
                for got, want in zip(ie.tangency, qstvw_tangency(fr.s, fr.t, fr.v, fr.w, r)):
                    assert_points_close(got, to_quad.apply(want),
                                        1e-12 * quad.diameter())
            compared += 1
        assert compared >= 250

    def test_counterclockwise_labels_get_the_pencil_member(self):
        # labels in counterclockwise order, past `canonicalize`: the pencil
        # does not depend on the orientation, so the member is inscribed
        # and touches A1A2 at the fraction r, and both solvers agree
        quad = Quadrilateral(((0.0, 0.0), (1.0, 0.0), (1.2, 1.0), (0.1, 0.8)))
        ie = inscribe(quad, 0.3)
        assert ie.tangency[0] == (0.3, 0.0)
        assert_inscribed(ie)
        res = min_ecc(quad)
        assert res.method == "quartic_numeric"
        assert res.r_star == pytest.approx(0.5713885125998222, abs=1e-12)
        assert res.axis_ratio_sq == pytest.approx(0.7332921077719837, abs=1e-12)
        assert_inscribed(res.ellipse)
        assert min_ecc_numeric(quad) == res


class TestWarmEqualsCold:
    @staticmethod
    def _quads():
        rng = np.random.default_rng(41)
        makers = (lambda: random_convex_quad(rng),
                  lambda: random_mdq_quad(rng, type1=True),
                  lambda: random_mdq_quad(rng, type1=False),
                  lambda: random_parallelogram(rng),
                  lambda: random_kite(rng),
                  lambda: random_s1s3_trapezoid(rng))
        return [make() for _ in range(84) for make in makers]

    def test_results_equal_with_and_without_the_memo(self):
        # repeated calls on one quad give equal results
        # 0.3 is a parameter of every family: r in (0,1), a parallelogram's v
        calls = ((inscribe, 0.3), (inscribe, 0.7), (min_ecc,), (min_ecc_numeric,))
        for quad in self._quads():
            first = [_outcome(fn, quad, *args) for fn, *args in calls]
            for _ in range(2):
                assert [_outcome(fn, quad, *args) for fn, *args in calls] == first

    def test_type2_min_ecc_between_inscribes(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            quad = random_mdq_quad(rng, type1=False)
            before = inscribe(quad, 0.3)
            res = min_ecc(quad)
            assert res.method == "alpha_closed_form"
            assert inscribe(quad, 0.3) == before


class TestMarden:
    def test_equal_weights_steiner(self):
        rng = np.random.default_rng(24)
        for _ in range(50):
            z = rng.uniform(-3, 3, size=(3, 2))
            try:
                _, zetas = marden_foci(tuple(z[0]), tuple(z[1]), tuple(z[2]),
                                       1 / 3, 1 / 3, 1 / 3)
            except CollinearTriangle:
                continue
            mids = [(z[1] + z[2]) / 2, (z[0] + z[2]) / 2, (z[0] + z[1]) / 2]
            scale = float(np.abs(z).max())
            for zeta, mid in zip(zetas, mids):
                assert_points_close(zeta, tuple(mid), 1e-12 * max(scale, 1.0))

    def test_right_triangle_foci(self):
        # oracle: the foci are the roots of the derivative of z(z-1)(z-i)
        roots = np.roots([3.0, -2.0 * (1 + 1j), 1j])
        (f1, f2), _ = marden_foci((0, 0), (1, 0), (0, 1), 1 / 3, 1 / 3, 1 / 3)
        got = sorted([complex(*f1), complex(*f2)], key=lambda z: z.real)
        expect = sorted(roots, key=lambda z: z.real)
        for g, e in zip(got, expect):
            assert abs(g - e) <= 1e-12

    def test_focal_distance_sum_constant(self):
        rng = np.random.default_rng(25)
        for _ in range(50):
            z = [tuple(p) for p in rng.uniform(-3, 3, size=(3, 2))]
            t = rng.uniform(0.1, 1.0, size=3)
            try:
                (f1, f2), zetas = marden_foci(z[0], z[1], z[2], *t)
            except CollinearTriangle:
                continue
            sums = [math.dist(zeta, f1) + math.dist(zeta, f2) for zeta in zetas]
            assert max(sums) - min(sums) <= 1e-10 * max(sums)

    def test_foci_match_fitted_conic(self):
        # independent route: fit the conic through the three tangency points
        # with the side lines as tangents, then read the foci off its axes
        from inellipse.conic import ConicCoeffs, geometry
        rng = np.random.default_rng(26)
        checked = 0
        while checked < 30:
            z = rng.uniform(-3, 3, size=(3, 2))
            u, v = z[1] - z[0], z[2] - z[0]
            if abs(u[0] * v[1] - u[1] * v[0]) < 0.5:
                continue
            weights = rng.uniform(0.2, 1.0, size=3)
            (f1, f2), zetas = marden_foci(tuple(z[0]), tuple(z[1]), tuple(z[2]),
                                          *weights)
            sides = [(z[1], z[2]), (z[0], z[2]), (z[0], z[1])]
            rows = []
            for (p, q), (x, y) in zip(sides, zetas):
                dx, dy = q[0] - p[0], q[1] - p[1]
                rows.append([x * x, x * y, y * y, x, y, 1.0])
                rows.append([2 * x * dx, y * dx + x * dy, 2 * y * dy, dx, dy, 0.0])
            _, _, vt = np.linalg.svd(np.asarray(rows))
            conic = ConicCoeffs(*vt[-1])
            geo = geometry(conic)
            c = math.sqrt(max(geo.semi_major ** 2 - geo.semi_minor ** 2, 0.0))
            ux, uy = geo.major_axis_direction
            got = sorted([(geo.center[0] + c * ux, geo.center[1] + c * uy),
                          (geo.center[0] - c * ux, geo.center[1] - c * uy)])
            expect = sorted([f1, f2])
            scale = max(1.0, float(np.abs(z).max()))
            for g, e in zip(got, expect):
                assert_points_close(g, e, 1e-8 * scale)
            checked += 1

    def test_collinear_rejected(self):
        with pytest.raises(CollinearTriangle):
            marden_foci((0, 0), (1, 1), (2, 2), 1 / 3, 1 / 3, 1 / 3)

    def test_bad_weights_rejected(self):
        with pytest.raises(NonPositiveWeights):
            marden_foci((0, 0), (1, 0), (0, 1), 1.0, -0.5, 0.5)
