"""Each per-member read and each `min_ecc` solve runs in one pass; these pin
it, bit for bit, to the composition of the helpers it fuses:
`inscribe` to `diagonals`, `check_unit_interval`, `_weights` and
`_inscribed`, values and errors alike, `InscribedEllipse.conic` to the
max-abs scaling then `sign_normalized`, `conic.geometry` to
`shape_geometry` of the sign-normalized conic's `center`, Delta and delta
(`tests/test_diameters.py::TestChordContract` pins
the chords and `check_T2`), and `min_ecc`, `min_ecc_numeric`, `classify` and
the members' contacts to the separate predicates, quartic, Newton loop and
contact helper they replace, copied below as oracles, and `verify_T3` to
`t1_margin`, the length formula 4|u|^2 det S / (u' adj(S) u) and the
`T3Report` constructor.  `check_unit_interval` and `_weights` are the
tests' `paper` helpers, and `sign_normalized`, `discriminants` and
`center` those of `conics`.  The quads come from
seeded draws of every class, thin quads, quads far from the origin and
quads whose side lengths sum past the float range.  `canonicalize` is
pinned to the closure-based ordering it replaces, on those quads in every
input order and on inputs whose keys tie or that it rejects.  Floats compare
by `repr`, which tells -0.0 from 0.0."""

import itertools
import math
import sys

import numpy as np
import pytest

from inellipse.affine import normalize_to_qstvw
from inellipse.conic import (NEAR_CIRCLE_ECC, ConicCoeffs, geometry, scale_normalized,
                             shape_geometry)
from inellipse.diameters import check_T2, t1_margin, tangency_chords
from inellipse.errors import InEllipseError, NonConvexInput, NotMDQ
from inellipse.family import InscribedEllipse, _at_ratio, _inscribed, inscribe
from inellipse.minecc import (MinEccResult, T3Report, _positive_root, min_ecc,
                              min_ecc_numeric, verify_T3)
from inellipse.quad import (Quadrilateral, _convex, canonicalize, classify, diagonals,
                            quadrilateral)

from conics import center, discriminants, sign_normalized
from paper import _weights, check_unit_interval
from sampling import (random_convex_quad, random_diagonal_quad, random_kite,
                      random_mdq_quad, random_orthodiagonal_quad,
                      random_parallelogram, random_s1s3_trapezoid,
                      random_tangential_quad, random_thin_tangential_quad)
from conftest import EXAMPLE_VERTICES
from test_scale import GENERIC, KITE, SQUARE, TRAPEZOID, _top_exponent, scaled

PARAMS = (0.05, 0.3, 0.5, 0.7, 0.95)


def _quads():
    rng = np.random.default_rng(24)
    quads = []
    for _ in range(4):
        plain = [random_convex_quad(rng), random_mdq_quad(rng, type1=True),
                 random_mdq_quad(rng, type1=False), random_kite(rng),
                 random_parallelogram(rng), random_tangential_quad(rng),
                 random_orthodiagonal_quad(rng), random_s1s3_trapezoid(rng)]
        thin = [random_diagonal_quad(rng, rho=rho) for rho in (1e-3, 1e-6, 1e-9)]
        thin += [random_thin_tangential_quad(rng, 1e-4)]
        shift = rng.uniform(-1e8, 1e8, 2)
        far = [quadrilateral([(x + shift[0], y + shift[1]) for x, y in q.vertices])
               for q in plain]
        quads += plain + thin + far
    return quads


QUADS = _quads()

#: each test_scale shape at about its largest accepted size
LARGEST = [canonicalize(scaled(v, _top_exponent(v)))
           for v in (EXAMPLE_VERTICES, GENERIC, SQUARE, KITE, TRAPEZOID)]
TOLS = (1e-9, 1e-5, 0.0)


def _members():
    for quad in QUADS:
        for param in PARAMS:
            yield quad, inscribe(quad, param)


def _outcome(fn, *args):
    """repr of the value, or the error's type and message."""
    try:
        return repr(fn(*args))
    except InEllipseError as exc:
        return type(exc).__name__, str(exc)


def _scaled_then_flipped(conic):
    # the composition `scale_normalized` replaces: x / m, then the flip
    m = max(map(abs, conic))
    return sign_normalized(ConicCoeffs(*[x / m for x in conic]))


def _composed_geometry(conic):
    # the composition `geometry` replaces: every helper normalizes for itself
    norm = sign_normalized(conic)
    a, b, c, d, e, f = norm
    big, small = discriminants(norm)
    if big <= 0.0 or small <= 0.0:
        raise InEllipseError("geometry() requires an ellipse")
    mu = 4.0 * small / big / big
    return shape_geometry(center(norm), (mu * c, -mu * b, mu * a,
                                         0.25 * mu * (mu * big)))


def _composed_inscribe(quad, param):
    # the composition `inscribe` replaces: the pencil, the interval check on
    # r (v's (1 + v) / 2 on a parallelogram), then the weights
    dd = diagonals(quad)
    r = (1.0 + param) / 2.0 if dd.names_v else param
    check_unit_interval(r, "(1 + v) / 2" if dd.names_v else "param")
    return _inscribed(quad, dd, *_weights(dd, r), r, param)


def test_the_draws_cover_far_and_failing_members():
    # far-off quads and a geometry that raises are among the draws, so both
    # branches of each pin below are exercised
    assert sum(max(map(abs, sum(q.vertices, ()))) > 1e6 for q in QUADS) >= 8
    assert any(isinstance(_outcome(geometry, ie.conic), tuple) for _, ie in _members())


def test_inscribe_is_the_composition_of_the_helpers():
    # 0, 1 and 1.5 are out of range as r, and -1 and 1 as a parallelogram's v
    names_v = [diagonals(q).names_v for q in QUADS + LARGEST]
    assert any(names_v) and not all(names_v)
    for quad, v in zip(QUADS + LARGEST, names_v):
        for param in PARAMS + (0, 1, 1.5) + ((-1, 1) if v else ()):
            assert _outcome(inscribe, quad, param) == _outcome(_composed_inscribe, quad, param)


def test_member_conic_is_the_scaled_raw_coefficients():
    for _, ie in _members():
        (cx, cy), (a, b, c), d = ie.center, ie.adjugate, ie.quad.diameter()
        raw = (a, b, c, -b * cy - 2.0 * a * cx, -b * cx - 2.0 * c * cy,
               a * cx * cx + b * cx * cy + c * cy * cy - ie.shape[3] * (d * d))
        assert repr(ie.conic) == repr(scale_normalized(raw)) == repr(_scaled_then_flipped(raw))
        assert type(ie.conic) is ConicCoeffs


@pytest.mark.parametrize("conic", [
    (1.0, 2.0, 3.0, -4.0, 5.0, -6.0), (-1.0, 2.0, -3.0, -4.0, 5.0, 0.0),
    (0.0, 2.0, -3.0, 4.0, -5.0, 6.0), (-0.0, 2.0, -3.0, 4.0, -5.0, 0.0),
    (0.0, 2.0, 3.0, 4.0, -5.0, -0.0), (-1e-320, 1.0, -1.0, 1e10, 0.0, 1.0),
    (1e-320, 1.0, 1.0, -1e10, 0.0, 1.0), (-3.0, 0.0, -1.0, 0.0, 0.0, 3.0),
])
def test_scale_normalized_flips_as_the_composition_does(conic):
    # x / -m and -(x / m) are the same float, signed zeros and underflow included
    for c in (conic, tuple(-x for x in conic)):
        assert repr(scale_normalized(c)) == repr(_scaled_then_flipped(c))


def test_geometry_is_the_composition_of_the_helpers():
    for _, ie in _members():
        for conic in (ie.conic, ConicCoeffs(*[-x for x in ie.conic])):
            assert _outcome(geometry, conic) == _outcome(_composed_geometry, conic)


def test_records_built_past_their_new_have_every_field():
    # `tuple.__new__` skips the generated `__new__` and its field count
    near_circle = verify_T3(min_ecc(canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)])))
    assert near_circle.near_circle
    records = [near_circle]
    for quad in QUADS:
        records += [canonicalize(quad.vertices), diagonals(quad), classify(quad),
                    normalize_to_qstvw(quad), quad.rotate_labels(1)]
    for quad, ie in _members():
        records += [ie, ie.conic, ie.geometry, tangency_chords(ie), check_T2(quad, ie),
                    min_ecc(quad), min_ecc_numeric(quad)]
    for rec in records:
        assert len(rec) == len(type(rec)._fields), type(rec).__name__


def _closure_canonicalize(raw_vertices):
    # the ordering `canonicalize` replaces: a lambda per angle key and per
    # lower-left key, and each centroid coordinate summed from a generator
    pts = [(float(x), float(y)) for x, y in raw_vertices]
    if len(pts) != 4:
        raise NonConvexInput("exactly four vertices required")
    cx = sum(0.25 * p[0] for p in pts)
    cy = sum(0.25 * p[1] for p in pts)
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    cw = [ordered[0]] + ordered[:0:-1]
    start = min(range(4), key=lambda i: (cw[i][1], cw[i][0]))
    return _convex(ordered, tuple(cw[start:] + cw[:start]))


def _canonical(fn, verts):
    """repr of the labeled quad, its kept diameter and pencil, or the error's
    type and message."""
    try:
        quad = fn(verts)
    except InEllipseError as exc:
        return type(exc).__name__, str(exc)
    return repr(quad), repr(quad._diameter), repr(quad._diagonals)


#: inputs whose angle or lower-left keys tie, or that `canonicalize` rejects
ODD_VERTICES = (
    ((0, 1), (1, 0), (0, -1), (-1, 0)),  # at equal angles about the centroid, one at pi
    ((1, 0), (2, 0), (-1.5, 1), (-1.5, -1)),  # two at one angle
    ((0, 0), (1, 0), (1, 1), (0, 1)),  # two lowest vertices
    ((0, 0), (0, 0), (1, 1), (1, 0)),  # a duplicated vertex
    ((1, 0), (1 + 2 ** -44, 0), (-1, 1), (-1, -1)),  # two coincide, on one ray
    ((1, 1), (1, 1), (1, 1), (1, 1)),
    ((0, 0), (math.nan, 1), (1, 1), (1, 0)),
    ((0, 0), (0, 1), (math.inf, 1), (1, 0)),
    ((0, 0), (1, 0), (2, 0), (1, 1)),  # three collinear
    ((0, 0), (1, 0), (2, 0), (3, 0)),
    ((0, 0), (4, 0), (0, 4), (1, 1)),  # one inside the triangle of the others
)


def test_canonicalize_orders_as_the_closures_did():
    # every input order, so that ties meet in each position
    for verts in [q.vertices for q in QUADS] + list(ODD_VERTICES):
        for order in itertools.permutations(verts):
            assert _canonical(canonicalize, order) == _canonical(_closure_canonicalize, order)


# The oracles: the steps `min_ecc` and `_inscribed` fuse, each its own
# helper reading the pencil by attribute.

def _summable(sides):
    return sides if sum(sides) < math.inf else tuple(0.25 * x for x in sides)


def _tangential(sides, tol):
    a, b, c, d = sides
    return abs(a + c - (b + d)) <= tol * (a + b + c + d)


def _bisects(frac, tol):
    return abs(0.5 - frac) <= tol


def _mdq_types(dd, tol):
    return _bisects(dd.b, tol), _bisects(dd.a, tol)


def _trapezoid(dd, tol):
    return abs(dd.a - dd.b) <= tol or abs(dd.a + dd.b - 1.0) <= tol


def _pencil_contacts(quad, dd, r, lam, mu):
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = quad.vertices
    lb, lb1 = lam * dd.b, lam * (1.0 - dd.b)
    ma, ma1 = mu * dd.a, mu * (1.0 - dd.a)
    f2, f3, f4 = lb / (lb + ma1), ma1 / (lb1 + ma1), lb1 / (lb1 + ma)
    return ((x1 + r * (x2 - x1), y1 + r * (y2 - y1)),
            (x2 + f2 * (x3 - x2), y2 + f2 * (y3 - y2)),
            (x3 + f3 * (x4 - x3), y3 + f3 * (y4 - y3)),
            (x4 + f4 * (x1 - x4), y4 + f4 * (y1 - y4)))


def _bracket_root(p, a, b, pa, pb, x):
    (p0, p1, p2, p3, p4), d2, d3, d4 = p, 2.0 * p[2], 3.0 * p[3], 4.0 * p[4]
    x = x if a < x < b else a + (b - a) * pa / (pa - pb)
    for _ in range(100):
        px = (((p4 * x + p3) * x + p2) * x + p1) * x + p0
        if px == 0.0:
            return x
        if (px < 0.0) == (pa < 0.0):
            a = x
        else:
            b = x
        slope = ((d4 * x + d3) * x + d2) * x + p1
        nx = x - px / slope if slope != 0.0 else 0.5 * (a + b)
        if abs(nx - x) <= 4.0 * sys.float_info.epsilon * abs(x):
            return nx if a < nx < b else x
        x = nx if a < nx < b else 0.5 * (a + b)
    return x


def _t3_root(dd):
    (x1, y1), (x2, y2), p, q = dd.u1, dd.u2, 0.5 - dd.a, 0.5 - dd.b
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    al, be = dd.a * (1.0 - dd.a), dd.b * (1.0 - dd.b)
    return _positive_root(n1 * (p * p + al), n1 * al - n2 * be, n2 * (q * q + be))


def _critical_quartic(dd):
    (x1, y1), (x2, y2), p, q = dd.u1, dd.u2, 0.5 - dd.a, 0.5 - dd.b
    n1, n2, c = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x1 * x2 + y1 * y2
    al, be = dd.a * (1.0 - dd.a), dd.b * (1.0 - dd.b)
    pp, qq = p * p, q * q
    l0, l1 = al * (qq + be), be * (pp + al)
    t0, t1, t2 = n2 * (qq + be), n1 * al + n2 * be + 2.0 * c * p * q, n1 * (pp + al)
    return ((l0 * t0, 2.0 * (l0 + l1) * t0 - l0 * t1, 3.0 * (l1 * t0 - l0 * t2),
             l1 * t1 - 2.0 * (l0 + l1) * t2, -l1 * t2),
            _positive_root(t2, n1 * al - n2 * be, t0))


def _numeric(quad, dd):
    crit, x3 = _critical_quartic(dd)
    at1, x = sum(crit), 1.0
    if at1 != 0.0:
        p = crit if at1 < 0.0 else crit[::-1]
        y = _bracket_root(p, 0.0, 1.0, p[0], at1,
                          x3 if at1 < 0.0 else 1.0 / x3 if x3 > 0.0 else 0.0)
        x = y if at1 < 0.0 else 1.0 / y
    return MinEccResult(_at_ratio(quad, dd, x), "quartic_numeric")


def _min_ecc(quad, tol):
    dd = diagonals(quad)
    tangential = _tangential(_summable(quad.side_lengths()), tol)
    if tangential or any(_mdq_types(dd, tol)):
        return MinEccResult(_at_ratio(quad, dd, _t3_root(dd)),
                            "incircle" if tangential else "alpha_closed_form")
    return _numeric(quad, dd)


def test_the_solve_draws_cover_every_method_and_an_overflowing_perimeter():
    methods = {_min_ecc(q, tol).method for q in QUADS + LARGEST for tol in TOLS}
    assert methods == {"incircle", "alpha_closed_form", "quartic_numeric"}
    assert any(sum(q.side_lengths()) == math.inf for q in LARGEST)


def test_min_ecc_is_the_composition_of_the_helpers():
    for quad in QUADS + LARGEST:
        for tol in TOLS:
            assert _outcome(min_ecc, quad, tol) == _outcome(_min_ecc, quad, tol)
        assert _outcome(min_ecc_numeric, quad) == _outcome(_numeric, quad, diagonals(quad))


def test_classify_reads_the_oracle_predicates():
    for quad in QUADS + LARGEST:
        dd = diagonals(quad)
        assert dd.names_v == all(_mdq_types(dd, 1e-9))
        for tol in TOLS:
            type1, type2 = _mdq_types(dd, tol)
            rep = classify(quad, tol)
            want = rep._replace(
                parallelogram=type1 and type2, mdq_type1=type1, mdq_type2=type2,
                trapezoid=_trapezoid(dd, tol),
                tangential=_tangential(_summable(quad.side_lengths()), tol))
            assert repr(rep) == repr(want)


def test_member_contacts_are_the_pencil_contacts():
    for quad in QUADS + LARGEST:
        dd = diagonals(quad)
        for param in PARAMS:
            r = (1.0 + param) / 2.0 if dd.names_v else param
            ie = inscribe(quad, param)
            assert repr(ie.tangency) == repr(_pencil_contacts(quad, dd, r, *_weights(dd, r)))


def _verify_T3(quad, tol=1e-7):
    # the composition `verify_T3` fuses: `t1_margin` on adj(S), then the
    # diameter lengths, each pencil quantity read by attribute
    if isinstance(quad, MinEccResult):
        res, quad = quad, quad.ellipse.quad
    else:
        if not classify(quad).mdq:
            raise NotMDQ("quad is not a midpoint diagonal quadrilateral")
        res = min_ecc(quad)
    if res.eccentricity < NEAR_CIRCLE_ECC:
        return T3Report(True, True, 0.0, 0.0, True, 0.0, 0.0)
    (a, b, c), det, d = res.ellipse.adjugate, res.ellipse.shape[3], quad.diameter()
    par_margin, dd = t1_margin(quad, (a, b, c)), diagonals(quad)
    unit = [4.0 * (x * x + y * y) * det / (a * x * x + b * x * y + c * y * y)
            for x, y in (dd.u1, dd.u2)]
    len_margin = abs(unit[0] - unit[1]) / max(unit)
    return T3Report(par_margin <= tol, len_margin <= tol, unit[0] * d * d,
                    unit[1] * d * d, False, par_margin, len_margin)


def _degenerate_results():
    """Optima whose shape has a zero quadratic part, and one whose quad's
    kept pencil has a zero D2 direction: each member keeps the real
    optimum's geometry, so that the check gets past the near-circle test."""
    res = min_ecc(canonicalize(EXAMPLE_VERTICES))
    ie = res.ellipse
    flat = tuple.__new__(InscribedEllipse, (*ie[:5], (0.0, 0.0, 0.0, 1.0)))
    quad = Quadrilateral(ie.quad.vertices)
    quad.__dict__["_diagonals"] = diagonals(ie.quad)._replace(u2=(0.0, 0.0))
    no_d2 = tuple.__new__(InscribedEllipse, (*ie[:3], quad, *ie[4:]))
    for member in (flat, no_d2):
        member.__dict__["geometry"] = ie.geometry
    return [MinEccResult(m, res.method) for m in (flat, no_d2)]


def test_verify_T3_is_the_composition_of_the_helpers():
    results = [min_ecc(q, tol) for q in QUADS + LARGEST for tol in TOLS]
    # MDQs and non-MDQs, and a near-circle optimum that takes the early return
    assert {r.method for r in results} == {"incircle", "alpha_closed_form",
                                           "quartic_numeric"}
    assert any(r.eccentricity < NEAR_CIRCLE_ECC for r in results)
    for res in results:
        for tol in (1e-7, 1e-12, 0.0):
            assert _outcome(verify_T3, res, tol) == _outcome(_verify_T3, res, tol)
    for quad in QUADS + LARGEST:  # a quad in, NotMDQ off the MDQs
        assert _outcome(verify_T3, quad) == _outcome(_verify_T3, quad)
    degenerate = _degenerate_results()
    assert [_outcome(verify_T3, r) for r in degenerate] == [
        ("InEllipseError", "degenerate quadratic part"),
        ("InEllipseError", "zero direction")]
    for res in degenerate:
        assert _outcome(verify_T3, res) == _outcome(_verify_T3, res)
