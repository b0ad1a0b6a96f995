"""General-conic algebra: ellipse test, center, axes, eccentricity, line queries.

A conic is the coefficient sextuple (a, b, c, d, e, f) of

    a*x^2 + b*x*y + c*y^2 + d*x + e*y + f = 0,

meaningful only up to a nonzero scalar.  All computations are plain
binary64; points and directions are float pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InEllipseError

Point = tuple[float, float]
Direction = tuple[float, float]

#: relative discriminant tolerance used to flag a double root in line_intersect
TANGENT_TOL = 1e-9


class ConicCoeffs(NamedTuple):
    a: float
    b: float
    c: float
    d: float
    e: float
    f: float


class EllipseGeometry(NamedTuple):
    center: Point
    semi_major: float
    semi_minor: float
    eccentricity: float
    major_axis_direction: Direction
    axis_ratio_sq: float  # (semi_minor / semi_major)^2 = 1 - eccentricity^2


def sign_normalized(conic: ConicCoeffs) -> ConicCoeffs:
    """Flip all six coefficients when a < 0 (or a = 0 and c < 0); else return conic.

    The ellipse test assumes the leading quadratic coefficients are
    positive; a real ellipse always has a*c > 0 so flipping on `a`
    suffices, with `c` as the tie-break when a = 0.
    """
    a, b, c, d, e, f = conic
    if a < 0.0 or (a == 0.0 and c < 0.0):
        return ConicCoeffs(-a, -b, -c, -d, -e, -f)
    return conic


def scale_normalized(conic: ConicCoeffs) -> ConicCoeffs:
    """Rescale so the maximum absolute coefficient is 1, then sign-normalize:
    x / -m where `sign_normalized` would flip x / m, the same float."""
    m = max(map(abs, conic))
    if m == 0.0:
        raise InEllipseError("all conic coefficients are zero")
    a, b, c, d, e, f = conic
    if a / m < 0.0 or (a / m == 0.0 and c / m < 0.0):
        m = -m
    return tuple.__new__(ConicCoeffs, (  # skips __new__ and its field-count check
        a / m, b / m, c / m, d / m, e / m, f / m))


def discriminants(conic: ConicCoeffs) -> tuple[float, float]:
    """Return (Delta, delta) = (4ac - b^2, c d^2 + a e^2 - b d e - f*Delta).

    Coefficients are sign-normalized first so the positivity convention
    of the ellipse test applies.
    """
    a, b, c, d, e, f = sign_normalized(conic)
    big = 4.0 * a * c - b * b
    small = c * d * d + a * e * e - b * d * e - f * big
    return big, small


def is_ellipse(conic: ConicCoeffs) -> bool:
    """True iff the conic is a nondegenerate real ellipse."""
    big, small = discriminants(conic)
    return big > 0.0 and small > 0.0


def center(conic: ConicCoeffs) -> Point:
    """Center of an ellipse: the unique stationary point of the quadratic form."""
    a, b, c, d, e, f = conic
    big = 4.0 * a * c - b * b
    if big <= 0.0:
        raise InEllipseError("conic has no center of ellipse type (Delta <= 0)")
    x0 = (b * e - 2.0 * c * d) / big
    y0 = (b * d - 2.0 * a * e) / big
    return (x0, y0)


def shape_geometry(c: Point, shape: tuple[float, float, float, float],
                   unit: float = 1.0) -> EllipseGeometry:
    """Axes of the ellipse (x - c)' S^-1 (x - c) = unit^2, `shape` being
    (Sxx, 2 Sxy, Syy, det S): the semi-axes^2 are unit^2 times S's
    eigenvalues lam+ = (tr S + sqrt((Sxx - Syy)^2 + 4 Sxy^2)) / 2 and
    det S / lam+, which does not cancel; the major axis is lam+'s eigenvector.
    The axis ratio^2 det S / lam+^2 and the eccentricity are unit-scale values."""
    sxx, sxy2, syy, det = shape
    if not det > 0.0:
        raise InEllipseError("geometry() requires an ellipse")
    root = math.hypot(sxx - syy, sxy2)
    major_sq = 0.5 * (sxx + syy + root)
    minor_sq = det / major_sq
    ratio = minor_sq / major_sq
    half = 0.5 * (abs(sxx - syy) + root)
    vx, vy = (-0.5 * sxy2, -half) if syy >= sxx else (-half, -0.5 * sxy2)
    n = math.hypot(vx, vy)  # 0 on a circle, where any direction qualifies
    direction = (vx / n, vy / n) if n > 0.0 else (1.0, 0.0)
    return tuple.__new__(EllipseGeometry, (  # skips __new__ and its field-count check
        c, math.sqrt(major_sq) * unit, math.sqrt(minor_sq) * unit,
        math.sqrt(max(1.0 - ratio, 0.0)), direction, ratio))


def geometry(conic: ConicCoeffs) -> EllipseGeometry:
    """Semi-axes, eccentricity and major-axis direction of an ellipse: the
    sign-normalized conic is (x - c)' S^-1 (x - c) = 1 with c its centre,
    S = mu [[c, -b/2], [-b/2, a]], mu = 4 delta / Delta^2 and det S =
    mu^2 Delta / 4 (`shape_geometry`).  It normalizes the signs and computes
    Delta, delta and c itself, the same floats as `sign_normalized`,
    `discriminants` and `center`, which stay public and serve the tests as
    oracles.  delta cancels on thin or far-off ellipses;
    `InscribedEllipse.geometry` reads the pencil's own c and S."""
    a, b, c, d, e, f = conic
    if a < 0.0 or (a == 0.0 and c < 0.0):
        a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
    big = 4.0 * a * c - b * b
    small = c * d * d + a * e * e - b * d * e - f * big
    if big <= 0.0 or small <= 0.0:
        raise InEllipseError("geometry() requires an ellipse")
    mu = 4.0 * small / big / big
    return shape_geometry(((b * e - 2.0 * c * d) / big, (b * d - 2.0 * a * e) / big),
                          (mu * c, -mu * b, mu * a, 0.25 * mu * (mu * big)))


def evaluate(conic: ConicCoeffs, p: Point) -> float:
    """Residual of the conic equation at p."""
    a, b, c, d, e, f = conic
    x, y = p
    return a * x * x + b * x * y + c * y * y + d * x + e * y + f


def gradient(conic: ConicCoeffs, p: Point) -> Direction:
    """Gradient (2ax + by + d, bx + 2cy + e) of the quadratic form at p."""
    a, b, c, d, e, f = conic
    x, y = p
    return (2.0 * a * x + b * y + d, b * x + 2.0 * c * y + e)


def line_intersect(conic: ConicCoeffs, p0: Point, direction: Direction) -> list[Point]:
    """Real intersections of the parametric line p0 + t*direction with the conic.

    Substituting the line into the conic gives a quadratic in t.  A
    discriminant within TANGENT_TOL of zero (relative to the quadratic's scale)
    is treated as a double root and yields a single point; for an ellipse
    a singleton result therefore means the line is tangent.
    """
    dx, dy = direction
    if dx == 0.0 and dy == 0.0:
        raise InEllipseError("line direction must be nonzero")
    a, b, c, d, e, f = conic
    x0, y0 = p0
    qa = a * dx * dx + b * dx * dy + c * dy * dy
    qb = (2.0 * a * x0 * dx + b * (x0 * dy + y0 * dx) + 2.0 * c * y0 * dy
          + d * dx + e * dy)
    qc = evaluate(conic, p0)
    scale_sq = qb * qb + 4.0 * abs(qa) * abs(qc)
    if qa == 0.0:
        # line direction is asymptotic (never happens for an ellipse)
        if qb == 0.0:
            return []
        t = -qc / qb
        return [(x0 + t * dx, y0 + t * dy)]
    disc = qb * qb - 4.0 * qa * qc
    if abs(disc) <= TANGENT_TOL * scale_sq:
        t = -qb / (2.0 * qa)
        return [(x0 + t * dx, y0 + t * dy)]
    if disc < 0.0:
        return []
    root = math.sqrt(disc)
    # Citardauq pairing avoids cancellation in the smaller root
    q = -0.5 * (qb + math.copysign(root, qb))
    t1, t2 = q / qa, qc / q
    if t1 > t2:
        t1, t2 = t2, t1
    return [(x0 + t1 * dx, y0 + t1 * dy), (x0 + t2 * dx, y0 + t2 * dy)]


def proportional(c1: ConicCoeffs, c2: ConicCoeffs, tol: float = 1e-9) -> bool:
    """True if the two sextuples agree up to a nonzero scalar.

    The scalar is fitted by least squares, then the residual is compared
    against `tol` times the max-abs coefficient.
    """
    dot11 = sum(x * x for x in c1)
    dot12 = sum(x * y for x, y in zip(c1, c2))
    if dot11 == 0.0:
        raise InEllipseError("all conic coefficients are zero")
    lam = dot12 / dot11
    m2 = max(abs(y) for y in c2)
    if m2 == 0.0 or lam == 0.0:
        return False
    return all(abs(lam * x - y) <= tol * m2 for x, y in zip(c1, c2))
