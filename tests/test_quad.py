import copy
import itertools
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inellipse import quad as quad_module
from inellipse.affine import f_values
from inellipse.cli import main
from inellipse.diameters import check_T2
from inellipse.errors import (DuplicateVertex, InEllipseError, NonConvexInput,
                              ParamOutOfRegion)
from inellipse.family import inscribe
from inellipse.quad import (Quadrilateral, canonicalize, classify, diagonals,
                            quadrilateral)

from paper import mdq_type_qstvw
from sampling import (frame_quad, random_affine, random_kite, random_mdq_quad,
                      random_orthodiagonal_quad, random_parallelogram,
                      random_tangential_quad, random_type1_frame,
                      random_type2_frame)
from conftest import EXAMPLE_VERTICES, assert_points_close


class TestCanonicalize:
    def test_example_ordering(self):
        quad = canonicalize([(8, 4), (0, 0), (6, 2), (0, 1)])
        assert quad.vertices == ((0, 0), (0, 1), (8, 4), (6, 2))

    def test_ccw_square_reversed(self):
        quad = canonicalize([(0, 0), (1, 0), (1, 1), (0, 1)])
        assert quad.vertices == ((0, 0), (0, 1), (1, 1), (1, 0))

    def test_collinear_rejected(self):
        with pytest.raises(NonConvexInput):
            canonicalize([(0, 0), (1, 1), (2, 2), (0, 1)])

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateVertex):
            canonicalize([(0, 0), (0, 0), (1, 1), (0, 1)])

    def test_interior_point_rejected(self):
        with pytest.raises(NonConvexInput):
            canonicalize([(0, 0), (4, 0), (2, 3), (2, 1)])

    def test_idempotent(self):
        quad = canonicalize(EXAMPLE_VERTICES)
        assert canonicalize(quad.vertices).vertices == quad.vertices

    def test_permutation_invariant(self):
        pts = EXAMPLE_VERTICES
        expected = canonicalize(pts).vertices
        for perm in itertools.permutations(pts):
            assert canonicalize(perm).vertices == expected


@st.composite
def convex_frames(draw):
    s = draw(st.floats(0.5, 4.0))
    v = draw(st.floats(0.5, 4.0))
    w = draw(st.floats(-0.8, 1.5))
    t = w + draw(st.floats(0.4, 3.0))
    f1, f2, _ = f_values(s, t, v, w)
    if min(f1, f2) <= 0.05 or abs(s - v) <= 0.05:
        return None
    return s, t, v, w


@given(frame=convex_frames())
@settings(max_examples=100)
def test_canonicalize_rotation_and_reversal(frame):
    if frame is None:
        return
    quad = frame_quad(*frame)
    pts = list(quad.vertices)
    expected = canonicalize(pts).vertices
    for k in range(4):
        rotated = pts[k:] + pts[:k]
        assert canonicalize(rotated).vertices == expected
        assert canonicalize(rotated[::-1]).vertices == expected


class TestDiagonals:
    def test_example(self, example_quad):
        dd = diagonals(example_quad)
        assert dd.m1 == (4.0, 2.0)
        assert dd.m2 == (3.0, 1.5)
        # diagonal lines: y = x/2 and y = 1 + x/6 meet at (3, 1.5)
        assert_points_close(dd.p, (3.0, 1.5), 1e-12)

    def test_parallelogram_midpoints_coincide(self):
        dd = diagonals(canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)]))
        assert dd.m1 == dd.m2 == (0.5, 0.5)
        assert dd.p == (0.5, 0.5)
        assert dd.newton_line is None

    def test_offsets_are_the_quads_own_on_a_thin_near_parallelogram(self):
        # D1 = A1A3 bisected, D2 cut at b = 0.7 and 1e-9 of the diameter long:
        # the bisection test passes for D2 too, which names the parameter v,
        # but M2 keeps its offset from P
        b, length = 0.7, 2e-9
        quad = quadrilateral([(0.0, 0.0), (1.0, b * length), (2.0, 0.0),
                              (1.0, (b - 1.0) * length)])
        dd = diagonals(quad)
        assert dd.newton_line is None
        assert dd.off1 == 0.5 - dd.a and dd.off2 == 0.5 - dd.b
        assert abs(dd.off2 - (0.5 - b)) <= 1e-9

    def test_qst_intersection(self):
        s, t = 2.0, 3.0
        dd = diagonals(quadrilateral([(0, 0), (0, 1), (s, t), (1, 0)]))
        assert_points_close(dd.p, (s / (s + t), t / (s + t)), 1e-14)


class TestClassify:
    def test_example_is_type1(self, example_quad):
        rep = classify(example_quad)
        assert rep.mdq_type1 and not rep.mdq_type2
        assert not rep.parallelogram and not rep.trapezoid

    def test_unit_square(self):
        rep = classify(canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)]))
        assert rep.parallelogram and rep.trapezoid and rep.tangential
        assert rep.orthodiagonal and rep.kite
        assert rep.mdq_type1 and rep.mdq_type2
        assert rep.side_lengths == (1.0, 1.0, 1.0, 1.0)

    def test_kite(self):
        rep = classify(canonicalize([(0, 0), (-1, 2), (0, 5), (1, 2)]))
        assert rep.kite and rep.orthodiagonal and rep.mdq
        # cross-check orthodiagonality via the side-length identity
        a, b, c, d = rep.side_lengths
        assert a * a + c * c == pytest.approx(b * b + d * d, rel=1e-12)

    def test_trapezoid_not_mdq(self):
        rep = classify(canonicalize([(0, 0), (0, 1), (1, 0.5), (1, 0)]))
        assert rep.trapezoid and not rep.mdq and not rep.parallelogram


class TestMdqTypeQstvw:
    def test_example(self):
        assert mdq_type_qstvw(8, 4, 6, 2) == (True, False)

    def test_direct_substitution(self):
        # (2,3,4,1): type1 needs 4*3 = 2*8, type2 needs (3-2)*4 = 0
        assert mdq_type_qstvw(2, 3, 4, 1) == (False, False)

    def test_region_rejected(self):
        with pytest.raises(ParamOutOfRegion):
            mdq_type_qstvw(2, 1, 3, 1)  # t = w

    def test_matches_classify_on_random_frames(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            s, t, v, w = random_type1_frame(rng)
            assert classify(frame_quad(s, t, v, w)).mdq_type1
            assert mdq_type_qstvw(s, t, v, w)[0]
        for _ in range(50):
            s, t, v, w = random_type2_frame(rng)
            assert classify(frame_quad(s, t, v, w)).mdq_type2
            assert mdq_type_qstvw(s, t, v, w)[1]


class TestFValues:
    def test_example(self):
        assert f_values(8, 4, 6, 2) == (10.0, 8.0, -2.0)

    def test_boundary(self):
        f1, f2, f3 = f_values(1, 1, 1, 0)
        assert (f1, f2, f3) == (1.0, 1.0, 0.0)

    def test_third_value(self):
        assert f_values(2, 2, 1, 0) == (3.0, 2.0, -1.0)


class TestClassificationImplications:
    """tangential&MDQ => kite => orthodiagonal; tangential&ortho => MDQ;
    MDQ&trapezoid => parallelogram; parallelogram <=> both MDQ types."""

    def _check(self, rep):
        assert rep.parallelogram == (rep.mdq_type1 and rep.mdq_type2)
        if rep.tangential and rep.mdq:
            assert rep.kite
        if rep.kite:
            assert rep.orthodiagonal
        if rep.tangential and rep.orthodiagonal:
            assert rep.mdq
        if rep.mdq and rep.trapezoid:
            assert rep.parallelogram

    def test_over_random_quads(self):
        rng = np.random.default_rng(42)
        tol = 1e-8
        for _ in range(60):
            self._check(classify(random_kite(rng), tol))
            self._check(classify(random_tangential_quad(rng), tol))
            self._check(classify(random_orthodiagonal_quad(rng), tol))
            self._check(classify(random_parallelogram(rng), tol))

    def test_over_near_parallelograms(self):
        # one vertex moved by 10^U(-11,-7) of the diameter: the draws fall on
        # both sides of the parallelogram and MDQ boundaries.  `_check` as a
        # whole does not hold here: `trapezoid` measures side angles, not
        # where the diagonals meet, so about 1.6% of these draws are an MDQ
        # and a trapezoid at 1e-9 without being a parallelogram
        rng = np.random.default_rng(14)
        counts = {True: 0, False: 0}
        for _ in range(400):
            quad = random_parallelogram(rng)
            pts = list(quad.vertices)
            k = int(rng.integers(4))
            size = 10.0 ** rng.uniform(-11.0, -7.0) * quad.diameter()
            angle = rng.uniform(0.0, 2.0 * math.pi)
            pts[k] = (pts[k][0] + size * math.cos(angle),
                      pts[k][1] + size * math.sin(angle))
            quad = quadrilateral(pts)
            for tol in (1e-9, 1e-7):
                rep = classify(quad, tol)
                assert rep.parallelogram == (rep.mdq_type1 and rep.mdq_type2)
            # the missing Newton line and v = 2r - 1 relabel are the same test
            par = classify(quad).parallelogram
            assert (inscribe(quad, 0.3).frame == "parallelogram") == par
            counts[par] += 1
        assert min(counts.values()) >= 100, counts


class TestAffineInvariance:
    def test_mdq_type_preserved_under_label_correspondence(self):
        rng = np.random.default_rng(3)
        for _ in range(40):
            quad = random_mdq_quad(rng, type1=bool(rng.integers(2)))
            rep = classify(quad)
            m = random_affine(rng)
            pts = [m.apply(p) for p in quad.vertices]
            if m.det() < 0:
                pts = [pts[0], pts[3], pts[2], pts[1]]  # restore clockwise
            # the reversal keeps both diagonals as sets, so the type survives
            # reflections as well
            rep2 = classify(quadrilateral(pts))
            assert rep2.mdq_type1 == rep.mdq_type1
            assert rep2.mdq_type2 == rep.mdq_type2


class TestDiameter:
    @staticmethod
    def _widest(vertices):
        return max(math.dist(p, q) for p, q in itertools.combinations(vertices, 2))

    def test_largest_vertex_distance_of_every_constructor(self):
        rng = np.random.default_rng(5)
        for _ in range(40):
            pts = [tuple(p) for p in rng.uniform(-10.0, 10.0, size=(4, 2))]
            try:
                quad = canonicalize(pts)
            except (NonConvexInput, DuplicateVertex):
                continue
            for q in [quad, quadrilateral(quad.vertices)] + [
                    quad.rotate_labels(k) for k in range(1, 4)]:
                assert q.diameter() == pytest.approx(self._widest(q.vertices),
                                                     rel=1e-15)

    def test_cached_diameter_keeps_equality_hash_and_repr(self):
        quad = canonicalize(EXAMPLE_VERTICES)
        fresh = canonicalize(EXAMPLE_VERTICES)
        before = repr(quad)
        assert quad.diameter() == math.hypot(8.0, 4.0)
        assert quad == fresh and fresh == quad
        assert hash(quad) == hash(fresh)
        assert repr(quad) == before == repr(fresh)
        assert len({quad, fresh}) == 1

    def test_constructors_keep_the_diameter_they_validated(self):
        # canonicalize and quadrilateral store the diameter that convexity
        # validation computed, in the slot the cached_property fills; it is
        # the max of the same six distances, bit for bit
        rng = np.random.default_rng(23)
        checked = 0
        for _ in range(300):
            scale, offset = 10.0 ** rng.uniform(-100, 100), rng.uniform(-1e3, 1e3, 2)
            pts = [tuple(p) for p in scale * (rng.uniform(-10.0, 10.0, (4, 2)) + offset)]
            try:
                quad = canonicalize(pts)
            except (NonConvexInput, DuplicateVertex):
                continue
            for q in (quad, quadrilateral(quad.vertices)):
                v = q.vertices
                fresh = max(quad_module._dist(v[i], v[j])
                            for i in range(4) for j in range(i + 1, 4))
                assert "_diameter" in vars(q)
                assert vars(q)["_diameter"].hex() == fresh.hex()
            checked += 1
        assert checked >= 100


class TestOnePencilPerQuad:
    """`diagonals` is computed once per `Quadrilateral` and then shared."""

    @pytest.fixture
    def builds(self, monkeypatch):
        calls = []
        build = quad_module._diagonal_data

        def counted(quad):
            calls.append(quad)
            return build(quad)
        monkeypatch.setattr(quad_module, "_diagonal_data", counted)
        return calls

    def test_every_reader_shares_one_pencil(self):
        quad = canonicalize(EXAMPLE_VERTICES)
        dd = diagonals(quad)
        assert diagonals(quad) is dd
        assert classify(quad, 1e-9).diagonals is dd
        assert classify(quad, 1e-5).diagonals is dd

    def test_member_sweep_builds_the_pencil_once(self, builds):
        quad = canonicalize(EXAMPLE_VERTICES)
        for k in range(1, 17):
            inscribe(quad, k / 17)
        assert builds == [quad]

    def test_verify_t2_builds_the_pencil_once(self, builds, tmp_path, capsys):
        path = tmp_path / "example.json"
        path.write_text(json.dumps({"vertices": EXAMPLE_VERTICES}))
        assert main(["verify", "--theorem", "t2", "--trials", "20", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["passes"] == 20
        assert len(builds) == 1

    def test_derived_quads_never_read_a_stale_pencil(self):
        rng = np.random.default_rng(18)
        for quad in [canonicalize(EXAMPLE_VERTICES), random_parallelogram(rng),
                     random_mdq_quad(rng, type1=False), random_kite(rng)]:
            dd = diagonals(quad)
            derived = [quad.rotate_labels(1),
                       quad._replace(vertices=quad.rotate_labels(2).vertices),
                       copy.copy(quad), pickle.loads(pickle.dumps(quad))]
            # a `_replace`d quad, even one with the same vertices, is a new
            # instance that computes its own pencil
            same = quad._replace()
            assert same == quad and "_diagonals" not in vars(same)
            assert "_diagonals" not in vars(derived[1])
            assert diagonals(same) is not dd and diagonals(same) == dd
            for other in derived:
                assert diagonals(other) == quad_module._diagonal_data(other)
            assert diagonals(derived[0]) != dd
            assert diagonals(derived[0]).d1 == dd.d2

    def test_a_degenerate_quad_raises_on_every_call(self):
        quad = Quadrilateral(((0.0, 0.0), (1.0, 1.0), (2.0, 2.0), (3.0, 3.0)))
        for _ in range(2):
            with pytest.raises(ZeroDivisionError):
                diagonals(quad)

    def test_check_t2_reads_one_pair_of_diagonal_units(self):
        # kept like the pencil; a zero-length diagonal raises on every call
        quad = canonicalize(EXAMPLE_VERTICES)
        member = inscribe(quad, 0.3)
        units = quad._diagonal_units
        for k in range(1, 17):
            check_T2(quad, inscribe(quad, k / 17))
        assert quad._diagonal_units is units and vars(quad)["_diagonal_units"] is units
        flat = Quadrilateral((quad.a1, quad.a2, quad.a1, quad.vertices[3]))
        for _ in range(2):
            with pytest.raises(InEllipseError, match="zero direction"):
                check_T2(flat, member)
        assert "_diagonal_units" not in vars(flat)
