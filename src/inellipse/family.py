"""One-parameter families of ellipses inscribed in canonical quadrilateral frames.

Two frames are covered:

* the (s,t) frame with vertices (0,0), (0,1), (s,t), (1,0), parametrized by
  the bottom-side tangency abscissa q in (0,1) (the paper's closed forms;
  no runtime path reduces a quad to this frame);
* the (s,t,v,w) frame with vertices (0,0), (0,1), (s,t), (v,w), parametrized
  by the left-side tangency ordinate r in (0,1).

Every convex quad, parallelograms included, is inscribed in its (s,t,v,w)
frame, whose family is six coefficient polynomials of degree <= 2 in r
(`qstvw_coeff_polys`); a parallelogram's frame is (s, t, s, t - 1) and its
public parameter is v = 2r - 1 in (-1, 1), v = 0 touching the side
midpoints.  `inscribe` evaluates the member in the quad's frame, takes the
closed-form tangency points (on a side tangent by construction, the vertex
of the conic restricted to the side line) and pulls both back to the quad.

What does not depend on the parameter (the classification, the frame, its
inverse map and the coefficient polynomials) is computed once per quad and
labeling and held in a small memo that `inscribe` and `minecc` share, so
the members of one quad's family cost only their own evaluation.  The memo
keys on the quad object itself and is kept off the quad.  It is bounded
(`functools.lru_cache` of 4 entries per table): it serves the calls of one
job on one quad (a sweep, a plot, a verify run), which need one report and
at most two frames, not a pass over many quads.  It is kept that small
because each entry it holds is more for the garbage collector to scan:
at 32 entries that slowed the work that solves each quad only once.

`marden_foci` locates the foci of the ellipse inscribed in a triangle from
weighted pole placement.
"""

from __future__ import annotations

import cmath
import functools
from dataclasses import dataclass
from typing import NamedTuple

from .conic import ConicCoeffs, Point, _line_quadratic
from .affine import AffineMap, QstvwFrame, _substitute, normalize_to_qstvw
from .errors import CollinearTriangle, NonPositiveWeights, ParamOutOfRegion
from .quad import (ClassificationReport, Quadrilateral, classify,
                   check_qstvw_region, f_values, in_region_g)

#: margin keeping family parameters strictly inside their open interval
J_MARGIN = 1e-9
#: entries per memo table: one job on one quad uses one report and at most
#: two frames (label shifts 0 and 1); see the module docstring
_MEMO_SIZE = 4


def check_unit_interval(x: float, name: str = "param") -> None:
    if not (J_MARGIN <= x <= 1.0 - J_MARGIN):
        raise ParamOutOfRegion(f"{name}={x} not in the open unit interval")


@dataclass(frozen=True)
class InscribedEllipse:
    """An inscribed ellipse together with its provenance.

    `tangency` lists one point per side, in side order S1..S4 of `quad`'s
    labeling.  `param` is the family parameter named by `frame`: the
    (s,t,v,w) frame's r in (0,1) for "qstvw", or a parallelogram's
    v = 2r - 1 in (-1,1) for "parallelogram".
    """

    conic: ConicCoeffs
    param: float
    tangency: tuple[Point, Point, Point, Point]
    frame: str
    quad: Quadrilateral


def qst_conic(s: float, t: float, q: float) -> ConicCoeffs:
    """Inscribed-ellipse coefficients for the (s,t) frame, tangent at (q, 0)."""
    if not in_region_g(s, t):
        raise ParamOutOfRegion(f"(s,t)=({s},{t}) outside region G")
    check_unit_interval(q, "q")
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
    if not in_region_g(s, t):
        raise ParamOutOfRegion(f"(s,t)=({s},{t}) outside region G")
    check_unit_interval(q, "q")
    h = 0.5 * (q * (t - s) + s) / (q * (t - 1.0) + 1.0)
    return h, (h, qst_newton_line(s, t, h))


def qst_tangency(s: float, t: float, q: float) -> tuple[Point, Point, Point, Point]:
    """Closed-form tangency points on sides S1..S4 of the (s,t) frame."""
    if not in_region_g(s, t):
        raise ParamOutOfRegion(f"(s,t)=({s},{t}) outside region G")
    check_unit_interval(q, "q")
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
    if not (abs(v) <= 1.0 - J_MARGIN):
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


def qstvw_conic(s: float, t: float, v: float, w: float, r: float,
                require_f3: bool = False) -> ConicCoeffs:
    """Inscribed-ellipse coefficients for the (s,t,v,w) frame at parameter r.

    The family remains well defined when sides S2 and S4 happen to be
    parallel (f3 = 0), so that constraint is only enforced on request.
    """
    check_qstvw_region(s, t, v, w, require_f3=require_f3)
    check_unit_interval(r, "r")
    return ConicCoeffs(*(_horner(poly, r) for poly in qstvw_coeff_polys(s, t, v, w)))


def _horner(coeffs, x):
    """Ascending coefficients evaluated at x (a float or a numpy array)."""
    acc = 0.0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _tangent_point(conic: ConicCoeffs, p0: Point, direction: Point) -> Point:
    """Contact point of a line tangent to `conic` by construction: the vertex
    t = -qb/(2qa) of the conic restricted to p0 + t*direction."""
    qa, qb = _line_quadratic(conic, p0, direction)
    t = -qb / (2.0 * qa)
    return (p0[0] + t * direction[0], p0[1] + t * direction[1])


def _contacts(conic: ConicCoeffs, s: float, t: float, v: float, w: float,
              f2: float, r: float) -> tuple[Point, Point, Point, Point]:
    """Tangency points on S1..S4 of the (s,t,v,w) frame's member `conic` at r."""
    qq = s * v * r / ((s - f2) * r + f2)
    p1 = (0.0, r)
    p4 = (qq, (w / v) * qq)
    p2 = _tangent_point(conic, (0.0, 1.0), (s, t - 1.0))
    p3 = _tangent_point(conic, (s, t), (v - s, w - t))
    return p1, p2, p3, p4


def qstvw_tangency(s: float, t: float, v: float, w: float, r: float,
                   conic: ConicCoeffs | None = None
                   ) -> tuple[Point, Point, Point, Point]:
    """Tangency points on sides S1..S4 of the (s,t,v,w) frame at parameter r.

    S1 and S4 have closed forms, (0, r) and (q, (w/v)q) with
    q = svr/((s - f2)r + f2); the S2 and S3 points are the vertices of the
    conic restricted to their side lines, which are tangent by construction.
    """
    check_qstvw_region(s, t, v, w, require_f3=False)
    check_unit_interval(r, "r")
    if conic is None:
        conic = qstvw_conic(s, t, v, w, r)
    _, f2, _ = f_values(s, t, v, w)
    return _contacts(conic, s, t, v, w, f2, r)


class _Prepared(NamedTuple):
    """What a quad's family in one labeling needs that no parameter changes."""

    frame: QstvwFrame  # first admissible frame, its shift counted from the quad
    inverse: AffineMap  # frame -> quad, for points
    # `inverse.invert()`, the map `inverse.apply_to_conic` substitutes, kept
    # rather than `frame.map` so pulled-back conics round as they always did
    pull: AffineMap
    polys: tuple[tuple[float, ...], ...]  # `qstvw_coeff_polys` of the frame
    f2: float


class _Same:
    """A quad as the memo's key, equal only to the same object.

    An equal quad built anew (say, by each `canonicalize` of the same
    vertices) gets an entry of its own, so the memo never hands one
    object's work to another, such as a copy whose zeros differ in sign.
    """

    __slots__ = ("quad",)

    def __init__(self, quad: Quadrilateral):
        self.quad = quad

    def __hash__(self) -> int:
        return id(self.quad)

    def __eq__(self, other) -> bool:
        return isinstance(other, _Same) and self.quad is other.quad


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _classified(key: _Same) -> ClassificationReport:
    return classify(key.quad)


@functools.lru_cache(maxsize=_MEMO_SIZE)
def _framed(key: _Same, shift: int) -> _Prepared:
    fr = normalize_to_qstvw(key.quad.rotate_labels(shift))
    fr = fr._replace(shift=(fr.shift + shift) % 4)
    inverse = fr.map.invert()
    return _Prepared(fr, inverse, inverse.invert(),
                     qstvw_coeff_polys(fr.s, fr.t, fr.v, fr.w),
                     f_values(fr.s, fr.t, fr.v, fr.w)[1])


def _report(quad: Quadrilateral) -> ClassificationReport:
    """`classify(quad)`, held in the memo."""
    return _classified(_Same(quad))


def _prepared(quad: Quadrilateral, shift: int) -> _Prepared:
    """The family of `quad`'s labeling shifted by `shift`, held in the memo.

    A quad with no admissible frame raises `ParamOutOfRegion` on every
    call, as `lru_cache` keeps no exception.
    """
    return _framed(_Same(quad), shift)


def _member(quad: Quadrilateral, prep: _Prepared, r: float, param: float,
            frame: str) -> InscribedEllipse:
    """The member at `r` of the family `prep` of `quad`, pulled back and named
    `param` in `frame`.  Tangency points are listed in `quad`'s side order."""
    check_unit_interval(r, "param")
    fr = prep.frame
    conic = ConicCoeffs(*(_horner(poly, r) for poly in prep.polys))
    pts = [None] * 4
    for i, p in enumerate(_contacts(conic, fr.s, fr.t, fr.v, fr.w, prep.f2, r)):
        pts[(i + fr.shift) % 4] = prep.inverse.apply(p)
    return InscribedEllipse(_substitute(conic, prep.pull), param, tuple(pts),
                            frame, quad)


def inscribe(quad: Quadrilateral, param: float) -> InscribedEllipse:
    """Inscribe the family member at `param` in an arbitrary convex quad.

    Every quad uses the (s,t,v,w) family in its similarity frame.  `param`
    is that family's r in (0,1), except for a parallelogram, whose
    parameter is v = 2r - 1 in (-1,1): r is the S1 contact's fraction
    along A1->A2, so v = 0 touches the side midpoints.  The conic and the
    tangency points are pulled back to the quad.
    """
    if not _report(quad).parallelogram:
        return _member(quad, _prepared(quad, 0), param, param, "qstvw")
    if not abs(param) <= 1.0 - 2.0 * J_MARGIN:
        raise ParamOutOfRegion(f"v={param} not in (-1, 1)")
    return _member(quad, _prepared(quad, 0), (1.0 + param) / 2.0, param,
                   "parallelogram")


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
