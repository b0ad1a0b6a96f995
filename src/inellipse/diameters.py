"""Conjugate diameters, tangency chords, and the diagonal-parallelism checks.

Two directions u, v are conjugate for an ellipse when u^T Q2 v = 0, with
Q2 = [[a, b/2], [b/2, c]] the quadratic part of the conic: the midpoints
of all chords parallel to u then lie on the diameter with direction v.
For an ellipse that is not a circle there is exactly one conjugate pair of
equal length, at angle +/-45 degrees from the axes in the parametric sense.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .conic import Direction, EllipseGeometry, Point
from .errors import InEllipseError, IsCircle
from .family import InscribedEllipse
from .quad import Quadrilateral

PARALLEL_TOL = 1e-9


class DiameterPair(NamedTuple):
    dir1: Direction
    dir2: Direction
    endpoints1: tuple[Point, Point]
    endpoints2: tuple[Point, Point]
    len1_sq: float
    len2_sq: float


class TangencyChords(NamedTuple):
    c12: tuple[Point, Point]
    c23: tuple[Point, Point]
    c34: tuple[Point, Point]
    c14: tuple[Point, Point]
    slopes: tuple[Optional[float], Optional[float], Optional[float], Optional[float]]


class T2Report(NamedTuple):
    parallel_to_d1: frozenset[str]
    parallel_to_d2: frozenset[str]
    margins_d1: dict[str, float]
    margins_d2: dict[str, float]


def parallel_margin(u: Direction, v: Direction) -> float:
    """|sin(angle)| between two directions (sign-insensitive), taken on the
    unit vectors so that no length overflows or underflows it."""
    nu, nv = math.hypot(*u), math.hypot(*v)
    if nu == 0.0 or nv == 0.0:
        raise InEllipseError("zero direction")
    return abs(u[0] / nu * (v[1] / nv) - u[1] / nu * (v[0] / nv))


def slope_of(p: Point, q: Point) -> Optional[float]:
    """Slope of the line pq; None encodes a vertical line."""
    dx, dy = q[0] - p[0], q[1] - p[1]
    if abs(dx) <= 1e-12 * math.hypot(dx, dy):
        return None
    return dy / dx


def conjugate_direction(conic: tuple, u: Direction) -> Direction:
    """The direction conjugate to u, unique up to sign and scale.  Only the
    quadratic part (a, b, c) = conic[:3] is read, so adj(S) serves too."""
    a, b, c = conic[:3]
    wx = a * u[0] + 0.5 * b * u[1]
    wy = 0.5 * b * u[0] + c * u[1]
    if wx == 0.0 and wy == 0.0:
        raise InEllipseError("degenerate quadratic part")
    return (-wy, wx)


def equal_diameter_pair(geo: EllipseGeometry) -> DiameterPair:
    """The unique conjugate diameter pair of equal length of an ellipse.

    The directions are a*u_major +/- b*u_minor for semi-axes a, b; both
    diameters have squared length 2(a^2 + b^2).  It raises `IsCircle` where
    `geo.near_circle`, as every perpendicular pair would qualify; elsewhere
    the pair is conjugate on `geo`, its direction good to about eps / ecc^2.
    """
    if geo.near_circle:
        raise IsCircle("equal conjugate diameters of a circle are ambiguous")
    ux, uy = geo.major_axis_direction
    vx, vy = -uy, ux
    a, b = geo.semi_major, geo.semi_minor
    d1 = (a * ux + b * vx, a * uy + b * vy)
    d2 = (a * ux - b * vx, a * uy - b * vy)
    cx, cy = geo.center
    half = 1.0 / math.sqrt(2.0)
    ep1 = ((cx + half * d1[0], cy + half * d1[1]),
           (cx - half * d1[0], cy - half * d1[1]))
    ep2 = ((cx + half * d2[0], cy + half * d2[1]),
           (cx - half * d2[0], cy - half * d2[1]))
    len_sq = 2.0 * (a * a + b * b)
    return DiameterPair(d1, d2, ep1, ep2, len_sq, len_sq)


def tangency_chords(ie: InscribedEllipse) -> TangencyChords:
    """Chords joining tangency points on consecutive sides."""
    q1, q2, q3, q4 = ie.tangency
    return tuple.__new__(TangencyChords, (  # skips __new__ and its field-count check
        (q1, q2), (q2, q3), (q3, q4), (q1, q4),
        (slope_of(q1, q2), slope_of(q2, q3), slope_of(q3, q4), slope_of(q1, q4))))


def check_T2(quad: Quadrilateral, ie: InscribedEllipse,
             tol: float = PARALLEL_TOL) -> T2Report:
    """Test each tangency chord for parallelism against each diagonal.

    For a type-1 midpoint diagonal quadrilateral the chords q2q3 and q1q4
    come out parallel to D2; for type 2, q1q2 and q3q4 parallel to D1; for
    a non-MDQ quad both sets are empty.
    """
    q1, q2, q3, q4 = ie.tangency
    (d1x, d1y), (d2x, d2y) = quad._diagonal_units
    margins_d1, margins_d2, par1, par2 = {}, {}, [], []
    # each margin is `parallel_margin(chord, diagonal)`, raising as it does,
    # with the diagonals' unit vectors kept by the quad
    for name, p, q in (("q1q2", q1, q2), ("q2q3", q2, q3),
                       ("q3q4", q3, q4), ("q1q4", q1, q4)):
        ux, uy = q[0] - p[0], q[1] - p[1]
        nu = math.hypot(ux, uy)
        if nu == 0.0:
            raise InEllipseError("zero direction")
        ux, uy = ux / nu, uy / nu
        m1 = margins_d1[name] = abs(ux * d1y - uy * d1x)
        m2 = margins_d2[name] = abs(ux * d2y - uy * d2x)
        if m1 <= tol:
            par1.append(name)
        if m2 <= tol:
            par2.append(name)
    return tuple.__new__(T2Report, (  # skips __new__ and its field-count check
        frozenset(par1), frozenset(par2), margins_d1, margins_d2))
