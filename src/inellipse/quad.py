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
exactly when it reports both types.  `diagonals` is the one place that
decides where the diagonals meet; its `DiagonalData` carries, besides the
segments, M1, M2, P and the Newton line M1M2, the unit-scale directions
u1 = (A3 - A1) / D, u2 = (A4 - A2) / D (D the diameter), the fractions
P = A1 + a D u1 = A2 + b D u2, and the midpoint offsets off1 = 1/2 - a,
off2 = 1/2 - b, M1 = P + D off1 u1, M2 = P + D off2 u2; the Newton line is
None on a parallelogram (at CLASSIFY_TOL), which names its parameter v.  It
is computed once per `Quadrilateral`, on first use, and kept with the
instance, like its diameter: immutable, living as long as the quad and
shared by every function that reads its pencil.  An exception is not kept.
"""

from __future__ import annotations

import functools
import math
from typing import Iterable, NamedTuple, Optional, Sequence

from .conic import Point
from .errors import DuplicateVertex, InEllipseError, NonConvexInput

CONVEXITY_TOL = 1e-12
CLASSIFY_TOL = 1e-9


def _cross(u: Point, v: Point) -> float:
    return u[0] * v[1] - u[1] * v[0]


def _dist(p: Point, q: Point) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def _midpoint(p: Point, q: Point) -> Point:
    return (0.5 * (p[0] + q[0]), 0.5 * (p[1] + q[1]))


def _unit_sub(p: Point, q: Point, diam: float) -> Point:
    """p - q over the diameter: an edge whose products cannot over- or underflow."""
    return ((p[0] - q[0]) / diam, (p[1] - q[1]) / diam)


class _Frozen:
    """Refuses to assign or delete any attribute, as a frozen record does.

    `cached_property` writes the instance dict directly, so the lazily
    computed slots of a subclass still fill on first read."""

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
    has an instance dict, which holds the lazily computed diameter, pencil
    and diagonal directions and which equality, hashing and `repr` never read."""

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

    @functools.cached_property
    def _diameter(self) -> float:
        # set by canonicalize and quadrilateral, else computed on first use;
        # kept in the instance's __dict__, which equality, hash and repr never read
        v = self.vertices
        return max(_dist(v[i], v[j]) for i in range(4) for j in range(i + 1, 4))

    @functools.cached_property
    def _diagonals(self) -> DiagonalData:
        # kept like _diameter; an exception is not kept, so a degenerate
        # quad raises on every read
        return _diagonal_data(self)

    @functools.cached_property
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
        return Quadrilateral(tuple(v[(i + k) % 4] for i in range(4)))


class DiagonalData(NamedTuple):
    d1: tuple[Point, Point]
    d2: tuple[Point, Point]
    m1: Point
    m2: Point
    p: Point
    newton_line: Optional[tuple[Point, Point]]  # None names a parallelogram's v
    u1: Point  # (A3 - A1) / D
    u2: Point  # (A4 - A2) / D
    a: float  # P = A1 + a D u1
    b: float  # P = A2 + b D u2
    off1: float  # M1 = P + D off1 u1, off1 = 1/2 - a
    off2: float  # M2 = P + D off2 u2, off2 = 1/2 - b


class ClassificationReport(NamedTuple):
    convex: bool
    parallelogram: bool
    trapezoid: bool
    tangential: bool
    orthodiagonal: bool
    kite: bool
    mdq_type1: bool
    mdq_type2: bool
    side_lengths: tuple[float, float, float, float]
    diagonals: DiagonalData

    @property
    def mdq(self) -> bool:
        return self.mdq_type1 or self.mdq_type2


def _validate_convex(vertices: Sequence[Point]) -> tuple[float, float]:
    """Reject non-convex vertices; return (first edges' unit-scale cross, diameter)."""
    pairs = [(p, q, _dist(p, q)) for i, p in enumerate(vertices)
             for q in vertices[i + 1:]]
    diam = max(dist for _, _, dist in pairs)
    if diam == 0.0:
        raise DuplicateVertex("all vertices coincide")
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


def _with_diameter(vertices, diam: float) -> Quadrilateral:
    """A `Quadrilateral` whose `_diameter` (the `cached_property`'s slot) is
    diam, already known from validation; `object.__setattr__` passes over
    the quad's refusing `__setattr__`."""
    quad = Quadrilateral(vertices)
    object.__setattr__(quad, "_diameter", diam)
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
    cross, diam = _validate_convex(pts)
    if cross > 0:
        raise NonConvexInput("vertices are counterclockwise; expected clockwise")
    return _with_diameter(pts, diam)


def canonicalize(raw_vertices: Iterable[Point]) -> Quadrilateral:
    """Order four points clockwise starting from the lower-left vertex.

    Accepts the vertices in any order (they are sorted by angle around
    the centroid), rejects inputs that are not in strictly convex
    position, and reverses counterclockwise input.
    """
    pts = [(float(x), float(y)) for x, y in raw_vertices]
    if len(pts) != 4:
        raise NonConvexInput("exactly four vertices required")
    for p in pts:
        if not (math.isfinite(p[0]) and math.isfinite(p[1])):
            raise NonConvexInput(f"non-finite vertex {p}")
    cx = sum(p[0] for p in pts) / 4.0
    cy = sum(p[1] for p in pts) / 4.0
    ordered = sorted(pts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    _, diam = _validate_convex(ordered)
    # angle sort is counterclockwise; flip to clockwise
    ordered = [ordered[0]] + ordered[:0:-1]
    start = min(range(4), key=lambda i: (ordered[i][1], ordered[i][0]))
    return _with_diameter(tuple(ordered[start:] + ordered[:start]), diam)


def _bisects(frac: float, u: Point, tol: float) -> bool:
    """Whether P, at `frac` along the diagonal D u, is its midpoint within
    `tol`: |P - M| / D = |1/2 - frac| |u|."""
    return abs(0.5 - frac) * math.hypot(*u) <= tol


def _tangential(sides: tuple[float, float, float, float], tol: float) -> bool:
    """Pitot's test on the side lengths (a, b, c, d): a + c = b + d within
    `tol` of the perimeter.  `classify` and `min_ecc` both read it."""
    a, b, c, d = sides
    return abs(a + c - (b + d)) <= tol * (a + b + c + d)


def _mdq_types(dd: DiagonalData, tol: float) -> tuple[bool, bool]:
    """(type 1, type 2): whether P bisects D2, D1 within `tol` of the
    diameter.  `classify` and `min_ecc` both read it."""
    return _bisects(dd.b, dd.u2, tol), _bisects(dd.a, dd.u1, tol)


def diagonals(quad: Quadrilateral) -> DiagonalData:
    """The quad's `DiagonalData`, computed on the first call for this
    `Quadrilateral` and shared by every later call: `classify` at any `tol`,
    `inscribe`, `min_ecc_numeric` and `verify_T3` read the one immutable
    pencil.  On a parallelogram (both diagonals bisected at CLASSIFY_TOL) the
    Newton line is None, which names the family's parameter v = 2r - 1."""
    return quad._diagonals


def _diagonal_data(quad: Quadrilateral) -> DiagonalData:
    a1, a2, a3, a4 = quad.vertices
    d = quad.diameter()
    u1, u2, e = _unit_sub(a3, a1, d), _unit_sub(a4, a2, d), _unit_sub(a2, a1, d)
    cross = _cross(u1, u2)
    a, b = _cross(e, u2) / cross, _cross(e, u1) / cross
    m1, m2 = _midpoint(a1, a3), _midpoint(a2, a4)
    p = (a1[0] + a * (a3[0] - a1[0]), a1[1] + a * (a3[1] - a1[1]))
    par = _bisects(a, u1, CLASSIFY_TOL) and _bisects(b, u2, CLASSIFY_TOL)
    return DiagonalData((a1, a3), (a2, a4), m1, m2, p, None if par else (m1, m2),
                        u1, u2, a, b, 0.5 - a, 0.5 - b)


def classify(quad: Quadrilateral, tol: float = CLASSIFY_TOL) -> ClassificationReport:
    """Evaluate all classification predicates at relative tolerance `tol`."""
    diam = quad.diameter()
    sides = quad.side_lengths()
    a, b, c, d = sides
    perim = a + b + c + d
    dd = diagonals(quad)

    mdq1, mdq2 = _mdq_types(dd, tol)
    u, v = dd.u1, dd.u2
    # |S1 x S3| = D^2 |dd.a - dd.b| |u x v|, |S2 x S4| = D^2 |dd.a + dd.b - 1| |u x v|
    cross = abs(_cross(u, v))
    trapezoid = (abs(dd.a - dd.b) * cross <= tol * (b / diam) * (d / diam)
                 or abs(dd.a + dd.b - 1.0) * cross <= tol * (c / diam) * (a / diam))
    tangential = _tangential(sides, tol)
    orthodiagonal = abs(u[0] * v[0] + u[1] * v[1]) <= tol * math.hypot(*u) * math.hypot(*v)
    kite = ((abs(a - b) <= tol * perim and abs(c - d) <= tol * perim)
            or (abs(b - c) <= tol * perim and abs(a - d) <= tol * perim))
    return ClassificationReport(True, mdq1 and mdq2, trapezoid, tangential,
                                orthodiagonal, kite, mdq1, mdq2, sides, dd)
