"""The paper's frames and closed forms, the tests' oracle for the pencil.

Every formula here is in the paper's coordinates, A1 at (0,0) and A2 at
(0,1): the (s,t) frame (0,0), (0,1), (s,t), (1,0) with the bottom-side
contact q (`qst_*`), the unit square's family, and the (s,t,v,w) frame
(0,0), (0,1), (s,t), (v,w) with the left-side contact r (`qstvw_*`, the
pencil's r when the quad's own labeling is admissible) and its
eccentricity functional; beside them affine maps on points, quads, conics
and directions, the similarity that `inellipse.affine.normalize_to_qstvw`
applies (`similarity_map`), `marden_foci`, a triangle's inellipse foci,
and the pencil's weights at the S1 contact r (`_weights`) with the open
interval check on a parameter (`check_unit_interval`), which `inscribe`
does inline.
The frame's region check, `f_values` and the type-1 root `alpha_root` stay
in `inellipse.affine`, whose `normalize_to_qstvw` the CLI reads;
`alpha_root_two_roots` is the oracle for that root.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

from inellipse.affine import alpha_coeffs, check_qstvw_region, f_values
from inellipse.conic import ConicCoeffs, Direction, Point, scale_normalized
from inellipse.errors import InEllipseError, NoRootInJ, ParamOutOfRegion
from inellipse.family import _inscribed
from inellipse.minecc import _bracket_root
from inellipse.quad import (CLASSIFY_TOL, DiagonalData, Quadrilateral, canonicalize,
                            diagonals)

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


class SingularMap(InEllipseError):
    """Affine map is not invertible."""


class CollinearTriangle(InEllipseError):
    """Triangle vertices for the focus construction are collinear."""


class NonPositiveWeights(InEllipseError):
    """Weight product must be positive for the focus construction."""


class _AffineMapFields(NamedTuple):
    linear: Matrix2
    translation: Point


class AffineMap(_AffineMapFields):
    """x -> linear @ x + translation with invertible linear part."""

    __slots__ = ()

    def __new__(cls, linear: Matrix2, translation: Point):
        (m00, m01), (m10, m11) = linear
        k = max(abs(m00), abs(m01), abs(m10), abs(m11))
        # det over k^2, taken on the entries over k so that neither overflows
        if k == 0.0 or abs(m00 / k * (m11 / k) - m01 / k * (m10 / k)) <= 1e-12:
            raise SingularMap(f"linear part {linear} is singular")
        return super().__new__(cls, linear, translation)

    @classmethod
    def _make(cls, iterable) -> "AffineMap":
        # the base's `_make`, which `_replace` calls, would skip the check
        return cls(*iterable)

    def det(self) -> float:
        (m00, m01), (m10, m11) = self.linear
        return m00 * m11 - m01 * m10

    def apply(self, p: Point) -> Point:
        (m00, m01), (m10, m11) = self.linear
        tx, ty = self.translation
        x, y = p
        return (m00 * x + m01 * y + tx, m10 * x + m11 * y + ty)

    def apply_direction(self, u: Direction) -> Direction:
        """Push a direction forward through the linear part only."""
        (m00, m01), (m10, m11) = self.linear
        return (m00 * u[0] + m01 * u[1], m10 * u[0] + m11 * u[1])

    def apply_to_quad(self, quad: Quadrilateral) -> Quadrilateral:
        """Image quadrilateral, re-canonicalized to the lower-left convention."""
        return canonicalize([self.apply(p) for p in quad.vertices])

    def apply_to_conic(self, conic: ConicCoeffs) -> ConicCoeffs:
        """Coefficients of the image conic (max-abs normalized).

        Substitutes the inverse map into the quadratic form via congruence
        of the homogeneous 3x3 conic matrix.
        """
        inv = self.invert()
        (i00, i01), (i10, i11) = inv.linear
        h = ((i00, i01, inv.translation[0]), (i10, i11, inv.translation[1]),
             (0.0, 0.0, 1.0))
        a, b, c, d, e, f = conic
        m = ((a, b / 2.0, d / 2.0), (b / 2.0, c, e / 2.0), (d / 2.0, e / 2.0, f))
        # Hinv' M Hinv, with M the symmetric matrix of the conic
        n = [[sum(h[k][i] * m[k][g] * h[g][j] for k in range(3) for g in range(3))
              for j in range(3)] for i in range(3)]
        return scale_normalized(ConicCoeffs(n[0][0], 2.0 * n[0][1], n[1][1],
                                            2.0 * n[0][2], 2.0 * n[1][2], n[2][2]))

    def compose(self, inner: "AffineMap") -> "AffineMap":
        """Map equal to applying `inner` first, then self."""
        (a00, a01), (a10, a11) = self.linear
        (b00, b01), (b10, b11) = inner.linear
        lin = ((a00 * b00 + a01 * b10, a00 * b01 + a01 * b11),
               (a10 * b00 + a11 * b10, a10 * b01 + a11 * b11))
        tr = self.apply(inner.translation)
        return AffineMap(lin, tr)

    def invert(self) -> "AffineMap":
        (m00, m01), (m10, m11) = self.linear
        det = self.det()
        lin = ((m11 / det, -m01 / det), (-m10 / det, m00 / det))
        tx, ty = self.translation
        return AffineMap(lin, (-(lin[0][0] * tx + lin[0][1] * ty),
                               -(lin[1][0] * tx + lin[1][1] * ty)))


IDENTITY = AffineMap(((1.0, 0.0), (0.0, 1.0)), (0.0, 0.0))


def translation(tx: float, ty: float) -> AffineMap:
    return AffineMap(((1.0, 0.0), (0.0, 1.0)), (tx, ty))


def rotation(angle: float) -> AffineMap:
    ca, sa = math.cos(angle), math.sin(angle)
    return AffineMap(((ca, -sa), (sa, ca)), (0.0, 0.0))


def scaling(k: float) -> AffineMap:
    return AffineMap(((k, 0.0), (0.0, k)), (0.0, 0.0))


def in_region_g(s: float, t: float) -> bool:
    """Membership in the parameter region {s,t > 0, s+t > 1, s != 1}."""
    return s > 0.0 and t > 0.0 and s + t > 1.0 and abs(s - 1.0) > CLASSIFY_TOL


def mdq_type_qstvw(s: float, t: float, v: float, w: float,
                   tol: float = CLASSIFY_TOL) -> tuple[bool, bool]:
    """MDQ types of the frame with vertices (0,0),(0,1),(s,t),(v,w).

    Type 1 holds iff vt = (w+1)s, type 2 iff (t-2)v = (w-1)s.
    """
    check_qstvw_region(s, t, v, w)
    scale1 = abs(v * t) + abs((w + 1.0) * s) + 1.0
    scale2 = abs((t - 2.0) * v) + abs((w - 1.0) * s) + 1.0
    type1 = abs(v * t - (w + 1.0) * s) <= tol * scale1
    type2 = abs((t - 2.0) * v - (w - 1.0) * s) <= tol * scale2
    return type1, type2


def similarity_map(quad: Quadrilateral) -> AffineMap:
    """The similarity that `normalize_to_qstvw` applies to this labeling:
    A1 to (0,0) and A2 to (0,1), so A3 and A4 go to (s,t) and (v,w)."""
    a1, a2 = quad.a1, quad.a2
    n = math.hypot(a2[0] - a1[0], a2[1] - a1[1])
    # rotate A1A2 onto the +y axis, then scale it to unit length (divided by
    # |A1A2| twice, as its square can overflow or underflow)
    ux, uy = (a2[0] - a1[0]) / n / n, (a2[1] - a1[1]) / n / n
    lin = ((uy, -ux), (ux, uy))
    return AffineMap(lin, (-(lin[0][0] * a1[0] + lin[0][1] * a1[1]),
                           -(lin[1][0] * a1[0] + lin[1][1] * a1[1])))


def check_unit_interval(x: float, name: str = "param") -> None:
    if not 0.0 < x < 1.0:
        raise ParamOutOfRegion(f"{name}={x} not in the open unit interval")


def _weights(dd: DiagonalData, r: float) -> tuple[float, float]:
    """(lam, 1 - lam) of the member touching S1 at the fraction r along A1->A2."""
    wa, wb = dd.a * (1.0 - r), dd.b * r
    return wa / (wa + wb), wb / (wa + wb)


def _check_qst(s: float, t: float, q: float) -> None:
    if not in_region_g(s, t):
        raise ParamOutOfRegion(f"(s,t)=({s},{t}) outside region G")
    check_unit_interval(q, "q")


def qst_conic(s: float, t: float, q: float) -> ConicCoeffs:
    """Inscribed-ellipse coefficients for the (s,t) frame, tangent at (q, 0)."""
    _check_qst(s, t, q)
    a = t * t
    b = 4.0 * q * q * (t - 1.0) * t + 2.0 * q * t * (s - t + 2.0) - 2.0 * s * t
    cc = ((1.0 - q) * s + q * t) ** 2
    d = -2.0 * q * t * t
    e = -2.0 * q * t * ((1.0 - q) * s + q * t)
    f = q * q * t * t
    return ConicCoeffs(a, b, cc, d, e, f)


def qst_newton_line(s: float, t: float, x: float) -> float:
    """Ordinate of the line through the diagonal midpoints of the (s,t) frame."""
    return 0.5 * (s - t + 2.0 * x * (t - 1.0)) / (s - 1.0)


def qst_center_param(s: float, t: float, q: float) -> tuple[float, Point]:
    """Center abscissa h and center point of the family member at q.

    The center lies on the open segment between the diagonal midpoints
    (s/2, t/2) and (1/2, 1/2), at (h, L(h)) with h determined by q.
    """
    _check_qst(s, t, q)
    h = 0.5 * (q * (t - s) + s) / (q * (t - 1.0) + 1.0)
    return h, (h, qst_newton_line(s, t, h))


def qst_tangency(s: float, t: float, q: float) -> tuple[Point, Point, Point, Point]:
    """Closed-form tangency points on sides S1..S4 of the (s,t) frame."""
    _check_qst(s, t, q)
    den1 = (t - s) * q + s
    den2 = (t - 1.0) * (s + t) * q + s
    den3 = (s + t - 2.0) * q + 1.0
    q1 = (0.0, q * t / den1)
    q2 = ((1.0 - q) * s * s / den2, t * (s + q * (t - 1.0)) / den2)
    q3 = ((s + q * (t - 1.0)) / den3, (1.0 - q) * t / den3)
    q4 = (q, 0.0)
    return q1, q2, q3, q4


def square_inellipse_conic(v: float) -> ConicCoeffs:
    """Inscribed-ellipse coefficients for the square [-1,1]^2 at parameter v.

    Tangent to the sides at (-1, v), (-v, 1), (1, -v), (v, -1); v = 0 is
    the unit incircle.
    """
    if not abs(v) < 1.0:
        raise ParamOutOfRegion(f"v={v} not in (-1, 1)")
    return ConicCoeffs(1.0, 2.0 * v, 1.0, 0.0, 0.0, v * v - 1.0)


def qstvw_coeff_polys(s: float, t: float, v: float,
                      w: float) -> tuple[tuple[float, ...], ...]:
    """Coefficient polynomials (ascending powers of r) of the (s,t,v,w) family.

    Returns six tuples for A, B, C, D, E, F of the family conic
    A(r)x^2 + B(r)xy + C(r)y^2 + D(r)x + E(r)y + F(r).
    """
    a2 = (s * s + v * v * t * t + w * w * s * s
          - 2.0 * t * v * s * (w + 1.0) + 2.0 * w * s * (2.0 * v - s))
    a1 = 2.0 * v * (s * t - 2.0 * w * s - t * t * v + t * s * w)
    a0 = t * t * v * v
    b2 = -4.0 * v * s * (v - s)
    b1 = -2.0 * v * s * (s * (w + 1.0) - v * (t + 2.0))
    b0 = -2.0 * v * v * s * t
    c0 = v * v * s * s
    d2 = 2.0 * s * v * (t * v - s * (w + 1.0))
    d1 = 2.0 * s * v * (2.0 * w * s - t * v)
    e1 = -2.0 * v * v * s * s
    f2 = s * s * v * v
    return ((a0, a1, a2), (b0, b1, b2), (c0,), (0.0, d1, d2), (0.0, e1), (0.0, 0.0, f2))


def qstvw_conic(s: float, t: float, v: float, w: float, r: float) -> ConicCoeffs:
    """Inscribed-ellipse coefficients for the (s,t,v,w) frame at parameter r.

    The family remains well defined when sides S2 and S4 are parallel (f3 = 0).
    """
    check_qstvw_region(s, t, v, w)
    check_unit_interval(r, "r")
    return ConicCoeffs(*(_horner(poly, r) for poly in qstvw_coeff_polys(s, t, v, w)))


def _horner(coeffs, x):
    """Ascending coefficients evaluated at x (a float, or an array with + and *)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def qstvw_tangency(s: float, t: float, v: float, w: float,
                   r: float) -> tuple[Point, Point, Point, Point]:
    """Tangency points on sides S1..S4 of the (s,t,v,w) frame at parameter r:
    the contacts of the frame quad's pencil member touching S1 at (0, r).
    On S4 this is the paper's (q, (w/v)q), q = svr/((s - f2)r + f2)."""
    check_qstvw_region(s, t, v, w)
    check_unit_interval(r, "r")
    quad = Quadrilateral(((0.0, 0.0), (0.0, 1.0), (s, t), (v, w)))
    dd = diagonals(quad)
    return _inscribed(quad, dd, *_weights(dd, r), r, r).tangency


def _mul(p, q) -> list[float]:
    """Product of two ascending coefficient sequences, in plain floats."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


class EccFunctional:
    """Ascending coefficients of the (s,t,v,w) family's O = A + C,
    M = (A - C)^2 + B^2, N = O^2 - M and G's critical quartic
    p = 2*M*O' - O*M', from the quadratic part A, B, C of its conic."""

    def __init__(self, s: float, t: float, v: float, w: float):
        check_qstvw_region(s, t, v, w)
        self.s, self.t, self.v, self.w = s, t, v, w
        pa, pb, pc, _, _, _ = qstvw_coeff_polys(s, t, v, w)
        pc = pc + (0.0,) * (3 - len(pc))
        o = [x + y for x, y in zip(pa, pc)]
        d = [x - y for x, y in zip(pa, pc)]
        m = [x + y for x, y in zip(_mul(d, d), _mul(pb, pb))]
        # p's degree-5 terms cancel identically
        p = [2.0 * x - y for x, y in zip(
            _mul(m, (o[1], 2.0 * o[2])),
            _mul(o, (m[1], 2.0 * m[2], 3.0 * m[3], 4.0 * m[4])))]
        self.o_coeffs, self.m_coeffs, self.p_coeffs = tuple(o), tuple(m), tuple(p[:5])
        self.n_coeffs = tuple(x - y for x, y in zip(_mul(o, o), m))

    def o(self, r):
        return _horner(self.o_coeffs, r)

    def m(self, r):
        return _horner(self.m_coeffs, r)

    def n(self, r):
        return _horner(self.n_coeffs, r)

    def p(self, r):
        return _horner(self.p_coeffs, r)

    def g(self, r):
        """Squared axis ratio (b/a)^2 of the member at r (float or array)."""
        o, m = self.o(r), self.m(r)
        m = (0.5 * (m + abs(m))) ** 0.5  # the root of max(m, 0)
        return (o - m) / (o + m)


def G_value(s: float, t: float, v: float, w: float, r: float) -> float:
    """Squared axis ratio of the (s,t,v,w) family member at r."""
    check_unit_interval(r, "r")
    return float(EccFunctional(s, t, v, w).g(r))


def N_factorization(s: float, t: float, v: float, w: float,
                    tol: float = 1e-9) -> tuple[float, float, float, float]:
    """Roots (0, 1, f2/(v-s), v/(v-s)) of N, verified against the expansion.

    N must factor as 16 s^2 v^2 r (1-r) ((s-v)r + v) ((s-v)r + f2); the
    roots are all distinct for an admissible frame (f3 = 0 would merge the
    last two, which is rejected).  The last two divide by v - s, so sides
    S1 and S3 must not be parallel.
    """
    check_qstvw_region(s, t, v, w)
    _, f2, f3 = f_values(s, t, v, w)
    scale = max(abs(s), abs(t), abs(v), abs(w), 1.0)
    if abs(f3) <= tol * scale * scale:
        raise ParamOutOfRegion("frame requires f3 != 0 (parallel sides S2, S4)")
    if abs(s - v) <= tol * scale:
        raise ParamOutOfRegion("roots of N require s != v (parallel sides S1, S3)")
    roots = (0.0, 1.0, f2 / (v - s), v / (v - s))
    scale = max(1.0, *(abs(r) for r in roots))
    for i in range(4):
        for j in range(i + 1, 4):
            if abs(roots[i] - roots[j]) <= tol * scale:
                raise ParamOutOfRegion("roots of N are not distinct")
    func = EccFunctional(s, t, v, w)
    k = 16.0 * s * s * v * v
    expanded = [k * x for x in _mul(_mul([0.0, 1.0], [1.0, -1.0]),
                                    _mul([v, s - v], [f2, s - v]))]
    top = max(abs(x) for x in expanded + list(func.n_coeffs))
    if max(abs(x - y) for x, y in zip(expanded, func.n_coeffs)) > tol * top:
        raise InEllipseError("N does not match its factorization")
    return roots


def p_quartic(s: float, t: float, v: float, w: float) -> tuple[float, ...]:
    """Ascending coefficients (degree <= 4) of p = 2*M*O' - O*M'."""
    return EccFunctional(s, t, v, w).p_coeffs


def alpha_root_two_roots(s: float, v: float, w: float) -> float:
    """The type-1 root from both roots of the optimizer quadratic, keeping the
    one in (0, 1), with `inellipse.affine.alpha_root`'s errors and bracketed
    fallback: the oracle for that function, which takes only the root that
    does not cancel."""
    if not (s > 0.0 and v > 0.0):
        raise ParamOutOfRegion("type-1 frame requires s, v > 0")
    if not 2.0 * s - v > 0.0:
        raise ParamOutOfRegion("type-1 frame requires 2s - v > 0")
    a0, a1, a2 = alpha_coeffs(s, v, w)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        raise NoRootInJ("optimizer quadratic has no real root")
    q = -0.5 * (a1 + math.sqrt(disc))
    candidates = [q / a2, a0 / q] if a2 != 0.0 else [a0 / q]
    in_j = [r for r in candidates if 0.0 < r < 1.0]
    if len(in_j) == 1:
        return in_j[0]
    if a0 >= 0.0:
        raise NoRootInJ("optimizer quadratic does not change sign on (0,1)")
    return _bracket_root((a0, a1, a2, 0.0, 0.0), 0.0, 1.0, a0,
                         s * (v * v + (w - 1.0) ** 2), 0.5)


def closed_form_diameter_len_sq(s: float, v: float, w: float,
                                r1: float) -> tuple[float, float]:
    """Frame-coordinate squared lengths of the two diagonal-parallel diameters.

    With beta = (s-v)r1 + v and zeta = (s-v)r1 + s, the diameter parallel
    to D1 has squared length (1 + ((w+1)/v)^2) v^2 s (1-r1) zeta / beta^2
    and the one parallel to D2 has (1 + ((w-1)/v)^2) r1 s v^2 / beta.
    """
    beta = (s - v) * r1 + v
    zeta = (s - v) * r1 + s
    len1 = (1.0 + ((w + 1.0) / v) ** 2) * v * v * s * (1.0 - r1) * zeta / (beta * beta)
    len2 = (1.0 + ((w - 1.0) / v) ** 2) * r1 * s * v * v / beta
    return len1, len2


def marden_foci(z1: Point, z2: Point, z3: Point,
                t1: float, t2: float, t3: float
                ) -> tuple[tuple[Point, Point], tuple[Point, Point, Point]]:
    """Foci and tangency points of the ellipse inscribed in a triangle.

    The foci are the zeros of t1/(z-z1) + t2/(z-z2) + t3/(z-z3) with the
    weights normalized to sum to 1; the inscribed ellipse touches the side
    z2z3 at (t2*z3 + t3*z2)/(t2 + t3) and cyclically.  Requires a positive
    weight product and a nondegenerate triangle.
    """
    area2 = ((z2[0] - z1[0]) * (z3[1] - z1[1])
             - (z2[1] - z1[1]) * (z3[0] - z1[0]))
    scale = max(abs(z2[0] - z1[0]), abs(z2[1] - z1[1]),
                abs(z3[0] - z1[0]), abs(z3[1] - z1[1]), 1e-300)
    if abs(area2) <= 1e-12 * scale * scale:
        raise CollinearTriangle("triangle vertices are collinear")
    total = t1 + t2 + t3
    if abs(total) <= 1e-300:
        raise NonPositiveWeights("weights sum to zero")
    t1, t2, t3 = t1 / total, t2 / total, t3 / total
    if t1 * t2 * t3 <= 0.0:
        raise NonPositiveWeights("weight product must be positive")
    w1, w2, w3 = complex(*z1), complex(*z2), complex(*z3)
    # numerator of the weighted pole sum: z^2 - b z + c
    b = t1 * (w2 + w3) + t2 * (w1 + w3) + t3 * (w1 + w2)
    c = t1 * w2 * w3 + t2 * w1 * w3 + t3 * w1 * w2
    root = cmath.sqrt(b * b - 4.0 * c)
    f1, f2 = (b + root) / 2.0, (b - root) / 2.0
    zeta1 = (t2 * w3 + t3 * w2) / (t2 + t3)
    zeta2 = (t1 * w3 + t3 * w1) / (t1 + t3)
    zeta3 = (t1 * w2 + t2 * w1) / (t1 + t2)
    as_pt = lambda z: (z.real, z.imag)
    return (as_pt(f1), as_pt(f2)), (as_pt(zeta1), as_pt(zeta2), as_pt(zeta3))
