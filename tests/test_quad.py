import copy
import itertools
import json
import math
import pickle
import random
import struct
from typing import Sequence

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from inellipse import quad as quad_module
from inellipse.affine import f_values
from inellipse.cli import main
from inellipse.conic import Point
from inellipse.diameters import check_T2
from inellipse.errors import (DuplicateVertex, InEllipseError, NonConvexInput,
                              ParamOutOfRegion)
from inellipse.family import inscribe
from inellipse.quad import (CONVEXITY_TOL, Quadrilateral, canonicalize, classify,
                            diagonals, quadrilateral)

from paper import mdq_type_qstvw
from sampling import (frame_quad, random_affine, random_kite, random_mdq_quad,
                      random_orthodiagonal_quad, random_parallelogram,
                      random_tangential_quad, random_type1_frame,
                      random_type2_frame)
from conftest import EXAMPLE_VERTICES, assert_points_close, diagonal_midpoints


def _hexed(dd):
    """A `DiagonalData` with every float as its hex string."""
    return [[x.hex() for x in f] if isinstance(f, tuple) else
            f if isinstance(f, bool) else f.hex() for f in dd]


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
        # both constructors share one validator: an infinite vertex and an
        # overflowing diameter are named as such, not as coinciding vertices
        for build, vertices, message in (
                (quadrilateral, [(0, 0), (0, 1), (1, 1), (math.inf, 0)],
                 "non-finite vertex"),
                (canonicalize, [(-1e308, -1e308), (-1e308, 1e308), (1e308, 1e308),
                                (1e308, -1e308)], "diameter overflows")):
            with pytest.raises(NonConvexInput, match=message) as info:
                build(vertices)
            assert not isinstance(info.value, DuplicateVertex)

    def test_two_coincident_pairs_name_the_first_in_scan_order(self):
        # the angle sort puts the pair astride the negative x axis first and
        # last, and the exact pair at (1, 0) in between: pairs are scanned
        # (0, 1), (0, 2), (0, 3), (1, 2), ..., so the 2e-13 pair is named
        # before the one at distance 0
        with pytest.raises(DuplicateVertex) as info:
            canonicalize([(-1.0, 1e-13), (1.0, 0.0), (-1.0, -1e-13), (1.0, 0.0)])
        assert str(info.value) == "vertices (-1.0, -1e-13) and (-1.0, 1e-13) coincide"

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
        m1, m2 = diagonal_midpoints(example_quad)
        assert m1 == (4.0, 2.0)
        assert m2 == (3.0, 1.5)
        # diagonal lines: y = x/2 and y = 1 + x/6 meet at (3, 1.5)
        assert_points_close(dd.p, (3.0, 1.5), 1e-12)

    def test_parallelogram_midpoints_coincide(self):
        quad = canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)])
        dd = diagonals(quad)
        m1, m2 = diagonal_midpoints(quad)
        assert m1 == m2 == (0.5, 0.5)
        assert dd.p == (0.5, 0.5)
        assert dd.names_v

    def test_offsets_are_the_quads_own_on_a_thin_near_parallelogram(self):
        # D1 = A1A3 bisected, D2 cut at b = 0.7 and 1e-9 of the diameter long:
        # however short, D2 is not bisected, so the parameter is not v, and
        # M2 keeps its offset from P: M2 = P + D (1/2 - b) u2
        b, length = 0.7, 2e-9
        quad = quadrilateral([(0.0, 0.0), (1.0, b * length), (2.0, 0.0),
                              (1.0, (b - 1.0) * length)])
        dd = diagonals(quad)
        assert not dd.names_v
        d, (m1, m2) = quad.diameter(), diagonal_midpoints(quad)
        for m, off, u in ((m1, 0.5 - dd.a, dd.u1), (m2, 0.5 - dd.b, dd.u2)):
            assert_points_close(m, (dd.p[0] + d * off * u[0], dd.p[1] + d * off * u[1]),
                                1e-15 * d)
        assert abs((0.5 - dd.b) - (0.5 - b)) <= 1e-9

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

    def _check(self, rep, wide=None):
        # `wide`, the report at a looser tol, is where MDQ&trapezoid at rep's
        # tol must be a parallelogram; rep itself on exact classes
        assert rep.parallelogram == (rep.mdq_type1 and rep.mdq_type2)
        if rep.tangential and rep.mdq:
            assert rep.kite
        if rep.kite:
            assert rep.orthodiagonal
        if rep.tangential and rep.orthodiagonal:
            assert rep.mdq
        if rep.mdq and rep.trapezoid:
            assert (wide or rep).parallelogram

    def test_thin_quad_with_paired_sides_is_no_kite(self):
        # its sides pair up within 1e-9 of the perimeter, yet neither diagonal
        # is bisected and they cross at |cos| about 0.32: a kite is an MDQ
        # whose diagonals are perpendicular, not a quad with paired sides
        rep = classify(canonicalize([(0, 0), (0.3, -1e-9), (1, 0), (0.300000001, 2e-9)]))
        assert not (rep.kite or rep.mdq or rep.orthodiagonal)
        self._check(rep)

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
        # both sides of the parallelogram and MDQ boundaries.  The MDQ flags
        # and `trapezoid` read the same fractions: |1/2 - a| is at most
        # |1/2 - b| + |a - b| and at most |1/2 - b| + |a + b - 1|, so an MDQ
        # that is a trapezoid at tol is a parallelogram at 2 tol, in floats
        # at 2 tol + 2^-52, as a + b rounds once
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
                self._check(classify(quad, tol), classify(quad, 2.0 * tol + 2.0 ** -52))
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
        # canonicalize and quadrilateral store the diameter that validation
        # computed, in the slot `_kept` fills: the max of the six distances,
        # bit for bit; and the pencil they validated the quad on, which is
        # the one a bare `Quadrilateral` on the same vertices builds
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
                fresh = max(math.hypot(v[i][0] - v[j][0], v[i][1] - v[j][1])
                            for i in range(4) for j in range(i + 1, 4))
                assert "_diameter" in vars(q)
                assert vars(q)["_diameter"].hex() == fresh.hex()
                kept, bare = vars(q)["_diagonals"], diagonals(Quadrilateral(v))
                assert _hexed(kept) == _hexed(bare)
            checked += 1
        assert checked >= 100

    def test_dist_is_hypot_bit_for_bit(self):
        # `_dist` is math.dist, which rounds as math.hypot of the differences
        # does: at scales 1e-300 to 1e300 and on random bit patterns, which
        # reach the subnormals and the edge of overflow
        rng = random.Random(31)
        scaled = [[rng.uniform(-1.0, 1.0) * 10.0 ** rng.uniform(-300, 300)
                   for _ in range(4)] for _ in range(20000)]
        patterns = [list(struct.unpack("4d", rng.randbytes(32))) for _ in range(20000)]
        for x0, y0, x1, y1 in scaled + patterns:
            dx, dy = x0 - x1, y0 - y1
            if math.isfinite(dx) and math.isfinite(dy):
                want = math.hypot(dx, dy)
                assert quad_module._dist((x0, y0), (x1, y1)).hex() == want.hex()


# The validator that tested convexity on consecutive unit edges before the
# pencil did, and the helpers it read, kept unchanged as the oracle.
def _validate_convex(vertices: Sequence[Point]) -> tuple[float, float]:
    """Reject non-finite or non-convex vertices; return (first edges' unit-scale
    cross, diameter)."""
    for p in vertices:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise NonConvexInput(f"non-finite vertex {p}")
    pairs = [(p, q, _dist(p, q)) for i, p in enumerate(vertices)
             for q in vertices[i + 1:]]
    diam = max(dist for _, _, dist in pairs)
    if diam == 0.0:
        raise DuplicateVertex("all vertices coincide")
    if not math.isfinite(diam):
        raise NonConvexInput("the diameter overflows the float range")
    for p, q, dist in pairs:
        if dist <= 1e-12 * diam:
            raise DuplicateVertex(f"vertices {p} and {q} coincide")
    crosses = []
    for i in range(4):
        e1 = _unit_sub(vertices[(i + 1) % 4], vertices[i], diam)
        e2 = _unit_sub(vertices[(i + 2) % 4], vertices[(i + 1) % 4], diam)
        crosses.append(_cross(e1, e2))
    if any(abs(x) <= CONVEXITY_TOL for x in crosses):
        raise NonConvexInput("near-collinear consecutive vertices")
    if not (all(x > 0 for x in crosses) or all(x < 0 for x in crosses)):
        raise NonConvexInput("vertices are not in convex position")
    return crosses[0], diam


def _dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _unit_sub(p: Point, q: Point, diam: float) -> Point:
    """p - q over the diameter: an edge whose products cannot over- or underflow."""
    return ((p[0] - q[0]) / diam, (p[1] - q[1]) / diam)


def _cross(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _oracle_quadrilateral(vertices):
    pts = tuple((float(x), float(y)) for x, y in vertices)
    cross, diam = _validate_convex(pts)
    if cross > 0:
        raise NonConvexInput("vertices are counterclockwise; expected clockwise")
    return pts, diam


def _oracle_canonicalize(raw_vertices):
    pts = [(float(x), float(y)) for x, y in raw_vertices]
    cx = sum(0.25 * p[0] for p in pts)
    cy = sum(0.25 * p[1] for p in pts)
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    _, diam = _validate_convex(ordered)
    ordered = [ordered[0]] + ordered[:0:-1]
    start = min(range(4), key=lambda i: (ordered[i][1], ordered[i][0]))
    return tuple(ordered[start:] + ordered[:start]), diam


def _acceptance_inputs(rng, n):
    """n seeded inputs of each kind: uniform draws, a vertex 1e-16 to 1e-8
    diameters off the line through its neighbours, scales 1e-200 to 1e200,
    small integer grids, where duplicates and parallel diagonals are common,
    and two pairs of vertices each within 1e-13 of one another, which the
    message names in the order the pairs are scanned."""
    def uniform():
        return [(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(4)]

    for _ in range(n):
        yield uniform()
        pts = sorted(uniform(), key=lambda p: math.atan2(p[1], p[0]))
        k, t = rng.randrange(4), rng.uniform(0.05, 0.95)
        (px, py), (qx, qy) = pts[k - 1], pts[(k + 1) % 4]
        off = 10.0 ** rng.uniform(-16, -8) * rng.choice((-1, 1))
        pts[k] = (px + t * (qx - px) - (qy - py) * off, py + t * (qy - py) + (qx - px) * off)
        rng.shuffle(pts)
        yield pts
        scale = 10.0 ** rng.uniform(-200, 200)
        yield [(scale * (x + 3.0), scale * (y - 2.0)) for x, y in uniform()]
        m = rng.choice((2, 3, 4, 6))
        yield [(float(rng.randint(0, m)), float(rng.randint(0, m))) for _ in range(4)]
        pts = [q for p in uniform()[:2]
               for q in (p, (p[0] + rng.uniform(-1e-13, 1e-13), p[1]))]
        rng.shuffle(pts)
        yield pts


def _outcome(build, vertices):
    try:
        got = build(vertices)
    except InEllipseError as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, Quadrilateral):
        assert "_diagonals" in vars(got)
        return got.vertices, got.diameter().hex()
    return got[0], got[1].hex()


class TestValidationOnThePencil:
    """`canonicalize` and `quadrilateral` test convexity on the pencil's
    crosses b X, (1 - a) X, (1 - b) X and a X; they accept, reject, name and
    label every input as the unit-edge validator did."""

    def test_matches_the_unit_edge_validator(self):
        rng = random.Random(7)
        kinds = {"accepted": 0, "NonConvexInput": 0, "DuplicateVertex": 0}
        for pts in _acceptance_inputs(rng, 1000):
            # convex inputs to `quadrilateral` in either orientation
            cx, cy = sum(p[0] for p in pts) / 4.0, sum(p[1] for p in pts) / 4.0
            srt = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
            for build, oracle, given in (
                    (canonicalize, _oracle_canonicalize, pts),
                    (quadrilateral, _oracle_quadrilateral, pts),
                    (quadrilateral, _oracle_quadrilateral, srt),
                    (quadrilateral, _oracle_quadrilateral, srt[::-1])):
                want = _outcome(oracle, given)
                assert _outcome(build, given) == want, (build.__name__, given)
                kinds[want[0] if isinstance(want[0], str) else "accepted"] += 1
        # every kind of outcome is well represented
        assert min(kinds.values()) >= 1000, kinds

    def test_parallel_diagonals_are_named_as_before(self):
        # the pencil cannot be built when X = 0; the crosses then come in
        # opposite pairs, near zero on a line and of both signs on a bowtie
        for vertices in ([(0, 0), (1, 0), (1, 1), (2, 1)], [(0, 0), (1, 1), (2, 2), (3, 3)],
                         [(0, 0), (2, 1), (1, 1), (3, 2)], [(0, 0), (2, 2), (1, 1), (3, 3)]):
            for build, oracle in ((quadrilateral, _oracle_quadrilateral),
                                  (canonicalize, _oracle_canonicalize)):
                assert _outcome(build, vertices) == _outcome(oracle, vertices)


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
        # `classify` at any tol reads the kept pencil, never a new one
        for tol in (1e-9, 1e-5):
            classify(quad, tol)
            assert vars(quad)["_diagonals"] is dd

    def test_member_sweep_builds_the_pencil_once(self, builds):
        quad = canonicalize(EXAMPLE_VERTICES)
        for k in range(1, 17):
            inscribe(quad, k / 17)
        assert builds == [quad]

    def test_verify_t2_builds_the_pencil_once(self, builds, tmp_path, capsys):
        path = tmp_path / "example.json"
        path.write_text(json.dumps({"vertices": EXAMPLE_VERTICES}))
        assert main(["verify", "--theorem", "t2", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["holds"] is True
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
            assert diagonals(derived[0]).u1 == dd.u2

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
