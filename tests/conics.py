"""General-conic algebra, the tests' oracle for the members' (c, S).

A conic is the coefficient sextuple (a, b, c, d, e, f) of

    a*x^2 + b*x*y + c*y^2 + d*x + e*y + f = 0,

meaningful only up to a nonzero scalar: its sign normalization,
discriminants and ellipse test, its centre, residual and gradient, its
intersections with a line and proportionality of two sextuples, and, on
top of them, a conic's diameters and the T1 margin and check.  The package
builds every member as (c, S) in the quad's dual pencil and reads none of
these; `inellipse.conic` keeps the coefficient records, `scale_normalized`
for the CLI's JSON and `geometry(conic)`, and `inellipse.diameters` keeps
the pieces the CLI and the solvers read.
"""

from __future__ import annotations

import math

from inellipse.conic import ConicCoeffs, Direction, Point, geometry
from inellipse.diameters import (PARALLEL_TOL, DiameterPair, conjugate_direction,
                                 equal_diameter_pair, parallel_margin)
from inellipse.errors import InEllipseError
from inellipse.quad import Quadrilateral, diagonals

#: relative discriminant tolerance used to flag a double root in line_intersect
TANGENT_TOL = 1e-9


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


def diameter_endpoints(conic: ConicCoeffs, u: Direction) -> tuple[Point, Point]:
    """The two intersections of the diameter with direction u."""
    pts = line_intersect(conic, center(conic), u)
    if len(pts) != 2:
        raise InEllipseError("diameter does not meet the conic twice")
    return pts[0], pts[1]


def equal_conjugate_diameters(conic: ConicCoeffs) -> DiameterPair:
    """`equal_diameter_pair` of the conic's `geometry`."""
    if not is_ellipse(conic):
        raise InEllipseError("equal conjugate diameters require an ellipse")
    return equal_diameter_pair(geometry(conic))


def t1_margin(quad: Quadrilateral, conic: tuple) -> float:
    """Angle margin between conj(direction of D1) and the direction of D2.
    Only the quadratic part is read, so adj(S) serves as well as a conic."""
    dd = diagonals(quad)  # at unit scale, where no product of u1, u2 underflows
    return parallel_margin(conjugate_direction(conic, dd.u1), dd.u2)


def check_T1(quad: Quadrilateral, conic: tuple, tol: float = PARALLEL_TOL) -> bool:
    """True iff the conjugate of the D1-parallel diameter is parallel to D2."""
    return t1_margin(quad, conic) <= tol
