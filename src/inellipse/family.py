"""The ellipses inscribed in a convex quadrilateral, as one dual pencil.

The ellipses inscribed in a convex quad A1A2A3A4 are the line conics
C*(lam) = lam (A1 A3' + A3 A1') + mu (A2 A4' + A4 A2'), lam, mu > 0,
lam + mu = 1, A_i = (x_i, y_i, 1).  `inscribe` builds each member from the
quad's pencil, `quad.diagonals`: the diagonal intersection P = A1 + a D u1 =
A2 + b D u2 of the diagonals u1 = (A3 - A1) / D, u2 = (A4 - A2) / D, D the
quad's diameter, with the diagonal midpoints M1 = P + D p u1, M2 = P + D q u2
(p = 1/2 - a, q = 1/2 - b, computed from a and b where they are read).
The member is the ellipse (x - c)' S^-1 (x - c) = D^2 with
centre c = lam M1 + mu M2 and shape

    S = (lam^2 p^2 + lam a(1-a)) u1u1' + (mu^2 q^2 + mu b(1-b)) u2u2'
        + lam mu p q (u1u2' + u2u1'),
    det S = lam mu (lam p^2 b(1-b) + mu q^2 a(1-a) + a(1-a) b(1-b)) (u1 x u2)^2.

Every entry of S has degree <= 2 in lam.  S is built at unit scale, in
units of D, so that no quad's size or position can overflow or cancel it.
`InscribedEllipse` carries c and S; its `geometry` and `verify_T3` read
them, and `conic` derives the (lossy) coefficients.  The member touches each
side at C*(lam) l_i, a weighted mean of the side's two vertices, which
`_inscribed` computes in the same pass as c and S.  The public
parameter r in (0, 1) is the S1 contact's fraction along A1->A2 on every
quad, lam = a(1 - r) / (a(1 - r) + b r); a parallelogram's is v = 2r - 1 in
(-1, 1), v = 0 touching the side midpoints.  The solvers carry a member as
the ratio x = lam / mu in (0, inf), r = a / (a + x b), and build
lam = x / (1 + x) and mu = 1 / (1 + x) from it, so that neither weight is a
difference, however small it is.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .conic import (ConicCoeffs, EllipseGeometry, Point, scale_normalized,
                    shape_geometry)
from .errors import InEllipseError, ParamOutOfRegion
from .quad import DiagonalData, Quadrilateral, _Frozen, _kept


class _InscribedEllipseFields(NamedTuple):
    param: float
    tangency: tuple[Point, Point, Point, Point]
    frame: str
    quad: Quadrilateral
    center: Point
    shape: tuple[float, float, float, float]


class InscribedEllipse(_Frozen, _InscribedEllipseFields):
    """An inscribed ellipse together with its provenance.

    `tangency` lists one point per side, in side order S1..S4 of `quad`'s
    labeling.  `param` is named by `frame`: r in (0,1), the S1 contact's
    fraction along A1->A2, for "qstvw", or a parallelogram's v = 2r - 1 in
    (-1,1) for "parallelogram".  The ellipse is (x - c)' S^-1 (x - c) = D^2,
    D the quad's diameter: `center` is c, `shape` is (Sxx, 2 Sxy, Syy, det S)
    in units of D; `conic`, the max-abs normalized coefficients, is derived.
    An immutable record, like `Quadrilateral`: its instance dict holds the
    cached `geometry`, which equality, hashing and `repr` never read.
    """

    @_kept
    def geometry(self) -> EllipseGeometry:
        return shape_geometry(self.center, self.shape, self.quad.diameter())

    @property
    def adjugate(self) -> tuple[float, float, float]:
        """adj(S) = (Syy, -2 Sxy, Sxx): the conic's (a, b, c) up to scale."""
        return self.shape[2], -self.shape[1], self.shape[0]

    @property
    def conic(self) -> ConicCoeffs:
        """(x - c)' adj(S) (x - c) = D^2 det S, built per read; raises if not finite."""
        (cx, cy), (c, b, a, det), d = self.center, self.shape, self.quad._diameter
        b = -b  # (a, b, c) is the adjugate
        coeffs = (a, b, c, -b * cy - 2.0 * a * cx, -b * cx - 2.0 * c * cy,
                  a * cx * cx + b * cx * cy + c * cy * cy - det * (d * d))
        if not all(map(math.isfinite, coeffs)):
            raise InEllipseError("conic coefficients overflow the float range")
        return scale_normalized(coeffs)


def _inscribed(quad: Quadrilateral, dd: DiagonalData, lam: float, mu: float,
               r: float, param: float) -> InscribedEllipse:
    """The member of `quad`'s pencil, about its `diagonals` dd, at the weights
    (lam, mu), which touches S1 at the fraction r along A1->A2, named
    `param`: c = P + D (lam p u1 + mu q u2), S = f1 u1u1' + f2 u2u2'
    + f12 (u1u2' + u2u1') with f1 = lam (lam p^2 + a(1-a)),
    f2 = mu (mu q^2 + b(1-b)), f12 = lam mu p q (p = 1/2 - a, q = 1/2 - b),
    and det S as a product.  Its contacts C*(lam) l_i on S1..S4 weight each
    side's two vertices lam b and mu a on S1 (the fraction r), lam b and
    mu (1 - a) on S2, lam (1 - b) and mu (1 - a) on S3, lam (1 - b) and mu a
    on S4, lam on A1 or A3: each the point Ai + f (Aj - Ai) at its fraction f."""
    (px, py), (x1, y1), (x2, y2), a, b, names_v = dd
    p, q, al, be, d = 0.5 - a, 0.5 - b, a * (1.0 - a), b * (1.0 - b), quad._diameter
    f1, f2, f12 = lam * (lam * p * p + al), mu * (mu * q * q + be), lam * mu * p * q
    sxx = f1 * x1 * x1 + f2 * x2 * x2 + 2.0 * f12 * x1 * x2
    sxy2 = 2.0 * (f1 * x1 * y1 + f2 * x2 * y2 + f12 * (x1 * y2 + y1 * x2))
    syy = f1 * y1 * y1 + f2 * y2 * y2 + 2.0 * f12 * y1 * y2
    det = (lam * mu * (lam * p * p * be + mu * q * q * al + al * be)
           * (x1 * y2 - y1 * x2) ** 2)
    center = (px + d * (lam * p * x1 + mu * q * x2), py + d * (lam * p * y1 + mu * q * y2))
    (v1x, v1y), (v2x, v2y), (v3x, v3y), (v4x, v4y) = quad.vertices
    lb, lb1, ma, ma1 = lam * b, lam * (1.0 - b), mu * a, mu * (1.0 - a)
    c2, c3, c4 = lb / (lb + ma1), ma1 / (lb1 + ma1), lb1 / (lb1 + ma)
    tangency = ((v1x + r * (v2x - v1x), v1y + r * (v2y - v1y)),
                (v2x + c2 * (v3x - v2x), v2y + c2 * (v3y - v2y)),
                (v3x + c3 * (v4x - v3x), v3y + c3 * (v4y - v3y)),
                (v4x + c4 * (v1x - v4x), v4y + c4 * (v1y - v4y)))
    return tuple.__new__(InscribedEllipse, (  # skips __new__ and its field-count check
        param, tangency, "parallelogram" if names_v else "qstvw", quad, center,
        (sxx, sxy2, syy, det)))


def _at_ratio(quad: Quadrilateral, dd: DiagonalData, x: float) -> InscribedEllipse:
    """The member at the pencil ratio x = lam / mu, as the solvers carry it:
    lam = x / (1 + x), mu = 1 / (1 + x) and the S1 contact's fraction
    r = a / (a + x b), none of them a difference, named as `inscribe` names
    it.  r rounds to 1 where x b < eps a, and then cannot name the member in
    `inscribe`; the ellipse itself is exact."""
    r = dd.a / (dd.a + x * dd.b)
    return _inscribed(quad, dd, x / (1.0 + x), 1.0 / (1.0 + x), r,
                      2.0 * r - 1.0 if dd.names_v else r)


def inscribe(quad: Quadrilateral, param: float) -> InscribedEllipse:
    """Inscribe the family member at `param` in an arbitrary convex quad.

    `param` is r in (0,1), the fraction along A1->A2 at which the member
    touches S1, except on a parallelogram, whose parameter is v = 2r - 1
    in (-1,1), so that v = 0 touches the side midpoints.
    """
    dd = quad._diagonals
    if dd.names_v:
        r, name = (1.0 + param) / 2.0, "(1 + v) / 2"
    else:
        r, name = param, "param"
    if not 0.0 < r < 1.0:
        raise ParamOutOfRegion(f"{name}={r} not in the open unit interval")
    wa, wb = dd.a * (1.0 - r), dd.b * r  # lam = a(1 - r) / (a(1 - r) + b r)
    return _inscribed(quad, dd, wa / (wa + wb), wb / (wa + wb), r, param)
