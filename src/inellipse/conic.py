"""Conic coefficients and ellipse axes: records, normalization, geometry.

A conic is the coefficient sextuple (a, b, c, d, e, f) of

    a*x^2 + b*x*y + c*y^2 + d*x + e*y + f = 0,

meaningful only up to a nonzero scalar.  The package builds each ellipse
as a centre and shape (c, S); this module keeps the records, the max-abs
normalization of the coefficients the CLI prints, the axes and
eccentricity of (c, S) (`shape_geometry`) and those of a sextuple
(`geometry`).  All computations are plain binary64; points and directions
are float pairs.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import InEllipseError

Point = tuple[float, float]
Direction = tuple[float, float]

#: below this eccentricity an ellipse is treated as a circle
NEAR_CIRCLE_ECC = 1e-6


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

    @property
    def near_circle(self) -> bool:
        """The package's one near-circle rule, which `verify_T3`,
        `equal_diameter_pair` and the CLI read: eccentricity below 1e-6."""
        return self.eccentricity < NEAR_CIRCLE_ECC


def scale_normalized(conic: ConicCoeffs) -> ConicCoeffs:
    """Rescale so the maximum absolute coefficient is 1, then sign-normalize
    as `geometry` does: x / -m where a / m < 0 (or a / m = 0 and c / m < 0),
    the same float as flipping x / m."""
    m = max(map(abs, conic))
    if m == 0.0:
        raise InEllipseError("all conic coefficients are zero")
    a, b, c, d, e, f = conic
    if a / m < 0.0 or (a / m == 0.0 and c / m < 0.0):
        m = -m
    return tuple.__new__(ConicCoeffs, (  # skips __new__ and its field-count check
        a / m, b / m, c / m, d / m, e / m, f / m))


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
    mu^2 Delta / 4 (`shape_geometry`).  No solver or CLI path reads it; it
    is the public reader of a sextuple, with which the benchmark's
    `family_sweep` job scores each member's printed coefficients.  The
    sextuple is lossy: delta cancels on thin or far-off ellipses, so
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
