"""Quadrilateral representation, canonical ordering and classification.

Vertices are labeled A1..A4 in clockwise cyclic order.  `canonicalize`
additionally starts the labeling at the lower-left vertex (minimum y,
ties broken by minimum x).  Sides are S1 = A1A2, S2 = A2A3, S3 = A3A4,
S4 = A4A1 and side lengths are measured as

    a = |A1A4|,  b = |A1A2|,  c = |A2A3|,  d = |A3A4|.

Diagonals are D1 = A1A3 and D2 = A2A4.  A midpoint diagonal quadrilateral
(MDQ) has its diagonal intersection at the midpoint of at least one
diagonal: type 1 bisects D2, type 2 bisects D1.  A parallelogram, whose
diagonals bisect one another, is both: `classify` reports `parallelogram`
exactly when it reports both types.  Both, and `trapezoid`, read the
fractions at which the diagonals cut one another.  `diagonals` is the one
place that decides where they meet; its `DiagonalData` is the quad's pencil:
the intersection P, the unit-scale directions u1 = (A3 - A1) / D,
u2 = (A4 - A2) / D (D the diameter) and the fractions P = A1 + a D u1 =
A2 + b D u2, so that the midpoints are M1 = P + D (1/2 - a) u1 and
M2 = P + D (1/2 - b) u2; `names_v` is true on a parallelogram (at
CLASSIFY_TOL), whose parameter is v.  It decides convexity too, so the
validating constructors build it and keep it with the quad, like its
diameter; any other `Quadrilateral` computes it on first use.  Immutable,
it lives as long as the quad, shared by every reader.  No exception is kept.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Sequence

from .conic import Point
from .errors import DuplicateVertex, InEllipseError, NonConvexInput

CONVEXITY_TOL = 1e-12
CLASSIFY_TOL = 1e-9


def _cross(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


#: |p - q|, the same float as math.hypot(p[0] - q[0], p[1] - q[1]) in one C call
_dist = math.dist


def _midpoint(p: Point, q: Point) -> Point:
    return (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))


def _unit_sub(p: Point, q: Point, diam: float) -> Point:
    """p - q over the diameter: an edge whose products cannot over- or underflow."""
    return ((p[0] - q[0]) / diam, (p[1] - q[1]) / diam)


class _kept(functools.cached_property):
    """`functools.cached_property` without its lock, which an immutable record
    does not need: kept in the instance dict on first read.  No exception is kept."""

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.attrname] = self.func(obj)
        return value


class _Frozen:
    """Refuses to assign or delete any attribute, as a frozen record does.

    `_kept` writes the instance dict directly, so the lazily computed slots
    of a subclass still fill on first read."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class _QuadrilateralFields(NamedTuple):
    vertices: tuple[Point, Point, Point, Point]


class Quadrilateral(_Frozen, _QuadrilateralFields):
    """A strictly convex quadrilateral with clockwise-labeled vertices.

    An immutable record of its `vertices`; unlike its `NamedTuple` base it
    has an instance dict, which holds its diameter, pencil and diagonal
    directions once computed and which equality, hashing and `repr` never read."""

    @property
    def a1(self) -> Point:
        return self.vertices[0]

    @property
    def a2(self) -> Point:
        return self.vertices[1]

    @property
    def a3(self) -> Point:
        return self.vertices[2]

    @property
    def a4(self) -> Point:
        return self.vertices[3]

    def side_lengths(self) -> tuple[float, float, float, float]:
        """(a, b, c, d) = (|A1A4|, |A1A2|, |A2A3|, |A3A4|)."""
        v = self.vertices
        return (_dist(v[0], v[3]), _dist(v[0], v[1]),
                _dist(v[1], v[2]), _dist(v[2], v[3]))

    def diameter(self) -> float:
        """The largest distance between two vertices."""
        return self._diameter

    @_kept
    def _diameter(self) -> float:
        # set by canonicalize and quadrilateral, else computed on first use;
        # kept in the instance's __dict__, which equality, hash and repr never read
        v = self.vertices
        return max(_dist(v[i], v[j]) for i in range(4) for j in range(i + 1, 4))

    @_kept
    def _diagonals(self) -> DiagonalData:
        # set and kept like _diameter; an exception is not kept, so a
        # degenerate quad raises on every read
        return _diagonal_data(self)

    @_kept
    def _diagonal_units(self) -> tuple[Point, Point]:
        # (A3 - A1) / |A3 - A1| and (A4 - A2) / |A4 - A2|, for check_T2
        (x1, y1), (x2, y2) = self.diagonal_vectors()
        n1, n2 = math.hypot(x1, y1), math.hypot(x2, y2)
        if n1 == 0.0 or n2 == 0.0:
            raise InEllipseError("zero direction")
        return (x1 / n1, y1 / n1), (x2 / n2, y2 / n2)

    def diagonal_vectors(self) -> tuple[Point, Point]:
        """Direction vectors (A3 - A1, A4 - A2) of the diagonals D1 and D2."""
        a1, a2, a3, a4 = self.vertices
        return (a3[0] - a1[0], a3[1] - a1[1]), (a4[0] - a2[0], a4[1] - a2[1])

    def rotate_labels(self, k: int) -> "Quadrilateral":
        """Cyclically shift the labels by k positions (A1 <- A1+k).

        The vertex set and its clockwise orientation are unchanged; only
        which vertex is called A1 moves, which swaps the roles of the two
        diagonals when k is odd.
        """
        k %= 4
        v = self.vertices
        return tuple.__new__(Quadrilateral, (v[k:] + v[:k],))  # skips __new__


class DiagonalData(NamedTuple):
    p: Point
    u1: Point  # (A3 - A1) / D
    u2: Point  # (A4 - A2) / D
    a: float  # P = A1 + a D u1
    b: float  # P = A2 + b D u2
    names_v: bool  # a parallelogram at CLASSIFY_TOL, whose parameter is v


class ClassificationReport(NamedTuple):
    """`classify`'s flags, each testing `tol` in one unit.  On the pencil's
    fractions a of D1 and b of D2: `mdq_type1` |1/2 - b|, `mdq_type2` |1/2 - a|,
    `parallelogram` both, `trapezoid` |a - b| or |a + b - 1|, so an MDQ and
    trapezoid is a parallelogram at 2 tol.  `orthodiagonal` the diagonals'
    |cos|; `kite` an MDQ type and `orthodiagonal`, each at its own unit;
    `tangential` Pitot's defect over the perimeter."""

    convex: bool
    parallelogram: bool
    trapezoid: bool
    tangential: bool
    orthodiagonal: bool
    kite: bool
    mdq_type1: bool
    mdq_type2: bool
    side_lengths: tuple[float, float, float, float]

    @property
    def mdq(self) -> bool:
        return self.mdq_type1 or self.mdq_type2


def _convex(checked: Sequence[Point], labeled: tuple) -> Quadrilateral:
    """The quad `labeled`, keeping its diameter and pencil, if its vertices are
    finite, distinct (pairs scanned in the order `checked`) and strictly convex:
    the consecutive edges' crosses over D^2, b X, (1 - a) X, (1 - b) X and a X
    (X = u1 x u2), each exceed CONVEXITY_TOL in size, and a and b lie in (0, 1)."""
    for p in checked:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise NonConvexInput(f"non-finite vertex {p}")
    p0, p1, p2, p3 = checked
    dists = (_dist(p0, p1), _dist(p0, p2), _dist(p0, p3),
             _dist(p1, p2), _dist(p1, p3), _dist(p2, p3))
    diam = max(dists)
    if diam == 0.0:
        raise DuplicateVertex("all vertices coincide")
    if not math.isfinite(diam):
        raise NonConvexInput("the diameter overflows the float range")
    if min(dists) <= 1e-12 * diam:  # name the first coincident pair
        for (i, j), dist in zip(((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)), dists):
            if dist <= 1e-12 * diam:
                raise DuplicateVertex(f"vertices {checked[i]} and {checked[j]} coincide")
    quad = tuple.__new__(Quadrilateral, (labeled,))  # `_kept` slots set past __setattr__
    quad.__dict__["_diameter"] = diam
    try:
        dd = _diagonal_data(quad)
    except ZeroDivisionError:  # X = 0: the crosses are +-e x u1 and +-e x u2
        e, u1, u2 = (_unit_sub(labeled[i], labeled[j], diam)
                     for i, j in ((1, 0), (2, 0), (3, 1)))
        near, convex = min(abs(_cross(e, u1)), abs(_cross(e, u2))), False
    else:
        near = min(abs(dd.a), abs(dd.b), abs(1.0 - dd.a), abs(1.0 - dd.b)) * abs(
            _cross(dd.u1, dd.u2))
        convex = 0.0 < dd.a < 1.0 and 0.0 < dd.b < 1.0
    if near <= CONVEXITY_TOL:
        raise NonConvexInput("near-collinear consecutive vertices")
    if not convex:
        raise NonConvexInput("vertices are not in convex position")
    quad.__dict__["_diagonals"] = dd
    return quad


def quadrilateral(vertices: Iterable[Point]) -> Quadrilateral:
    """Build a Quadrilateral from vertices already given in clockwise order.

    Unlike `canonicalize` this keeps the given starting vertex, which is
    what label-sensitive constructions (canonical frames, diagonal-role
    swaps) need.
    """
    pts = tuple((float(x), float(y)) for x, y in vertices)
    if len(pts) != 4:
        raise NonConvexInput("exactly four vertices required")
    quad = _convex(pts, pts)
    dd = quad._diagonals
    if _cross(dd.u1, dd.u2) > 0:
        raise NonConvexInput("vertices are counterclockwise; expected clockwise")
    return quad


def canonicalize(raw_vertices: Iterable[Point]) -> Quadrilateral:
    """Order four points clockwise starting from the lower-left vertex.

    Accepts the vertices in any order (they are sorted by angle around
    the centroid), rejects inputs that are not in strictly convex
    position, and reverses counterclockwise input.
    """
    pts = [(float(x), float(y)) for x, y in raw_vertices]
    if len(pts) != 4:
        raise NonConvexInput("exactly four vertices required")
    (x0, y0), (x1, y1), (x2, y2), (x3, y3) = pts
    # quarters first, so that the sum cannot overflow; exact but for subnormals
    cx = sum((0.25 * x0, 0.25 * x1, 0.25 * x2, 0.25 * x3))
    cy = sum((0.25 * y0, 0.25 * y1, 0.25 * y2, 0.25 * y3))
    keys = (math.atan2(y0 - cy, x0 - cx), math.atan2(y1 - cy, x1 - cx),
            math.atan2(y2 - cy, x2 - cx), math.atan2(y3 - cy, x3 - cx))
    i0, i1, i2, i3 = sorted(range(4), key=keys.__getitem__)  # tied angles keep input order
    # angle sort is counterclockwise; flip to clockwise and start at the lower
    # left before `_convex` builds the pencil, as 1 - a rounds on a relabel
    cw = (pts[i0], pts[i3], pts[i2], pts[i1])
    low = [(y, x) for x, y in cw]
    start = low.index(min(low))  # the first of equal minima
    return _convex((pts[i0], pts[i1], pts[i2], pts[i3]), cw[start:] + cw[:start])


def _summable(sides: tuple[float, float, float, float]) -> tuple[float, ...]:
    """The side lengths, quartered where their sum, below pi diameters,
    overflows: exactly, as none of them is then near the subnormals."""
    return sides if sum(sides) < math.inf else tuple(0.25 * x for x in sides)


def _tangential(sides: tuple[float, float, float, float], tol: float) -> bool:
    """Pitot's test on the side lengths (a, b, c, d), `_summable` where their
    sum overflows: a + c = b + d within `tol` of the perimeter.  Only
    `classify` reads it."""
    a, b, c, d = sides
    perim = a + b + c + d
    if not perim < math.inf:
        a, b, c, d = _summable(sides)
        perim = a + b + c + d
    return abs(a + c - (b + d)) <= tol * perim


def _mdq_types(a: float, b: float, tol: float) -> tuple[bool, bool]:
    """(type 1, type 2): |1/2 - b| <= tol and |1/2 - a| <= tol, fractions of D2
    and D1.  `classify`, `min_ecc`'s dispatch and the pencil's `names_v` read it."""
    return abs(0.5 - b) <= tol, abs(0.5 - a) <= tol


def diagonals(quad: Quadrilateral) -> DiagonalData:
    """The quad's `DiagonalData`, kept by the quad and shared by every call:
    `classify` at any `tol`, `inscribe`, `min_ecc` and `verify_T3` read it."""
    return quad._diagonals


def _diagonal_data(quad: Quadrilateral) -> DiagonalData:
    a1, a2, a3, a4 = quad.vertices
    d = quad.diameter()
    u1, u2, e = _unit_sub(a3, a1, d), _unit_sub(a4, a2, d), _unit_sub(a2, a1, d)
    cross = _cross(u1, u2)
    a, b = _cross(e, u2) / cross, _cross(e, u1) / cross
    p = (a1[0] + a * (a3[0] - a1[0]), a1[1] + a * (a3[1] - a1[1]))
    return tuple.__new__(DiagonalData, (  # skips __new__ and its field-count check
        p, u1, u2, a, b, all(_mdq_types(a, b, CLASSIFY_TOL))))


def classify(quad: Quadrilateral, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Every classification flag at `tol`, each in its `ClassificationReport` unit."""
    sides = quad.side_lengths()
    _, u, v, a, b, _ = diagonals(quad)
    mdq1, mdq2 = _mdq_types(a, b, tol)
    # S1 x S3 = D^2 (a - b) (u1 x u2) and S2 x S4 = D^2 (a + b - 1) (u1 x u2)
    trapezoid = abs(a - b) <= tol or abs(a + b - 1.0) <= tol
    orthodiagonal = abs(u[0] * v[0] + u[1] * v[1]) <= tol * math.hypot(*u) * math.hypot(*v)
    # a convex kite: one diagonal bisected by the other at a right angle
    kite = (mdq1 or mdq2) and orthodiagonal
    return tuple.__new__(ClassificationReport, (  # skips __new__ and its field-count check
        True, mdq1 and mdq2, trapezoid, _tangential(sides, tol), orthodiagonal, kite,
        mdq1, mdq2, sides))
