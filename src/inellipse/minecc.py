"""Eccentricity functional over the inscribed family and its minimizer.

For a family whose conic has coefficient polynomials A, B, C, ... in its
parameter, the squared axis ratio of the member there is

    G = (O - sqrt(M)) / (O + sqrt(M)),   O = A + C,   M = (A - C)^2 + B^2.

Minimizing the eccentricity means maximizing G, whose critical points are
the roots of p = 2*M*O' - O*M', a quartic when A, B, C are quadratic, as
the entries Sxx, 2 Sxy, Syy of the dual pencil's shape are in lam.  One
solver takes p's real roots as companion-matrix eigenvalues, polishes them
by Newton steps and compares G at each.  An MDQ's optimum is the member
whose diagonal-parallel diameters are equal (the paper's T3), the root of
a quadratic in lam.  The paper's (s,t,v,w) formulas (`EccFunctional`,
`G_value`, `N_factorization`, `alpha_root`) stay as cross-checks, which
no solver calls.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

import numpy as np

from .diameters import diameter_endpoints, t1_margin
from .errors import InEllipseError, NoRootInJ, NotMDQ, ParamOutOfRegion
from .family import (InscribedEllipse, J_MARGIN, check_unit_interval,
                     qstvw_coeff_polys, _Pencil, _horner, _inscribed, _pencil,
                     _shape, _shape_polys, _weights)
from .quad import (ClassificationReport, Quadrilateral, check_qstvw_region,
                   classify, f_values)

#: below this eccentricity the minimal ellipse is reported as a circle
NEAR_CIRCLE_ECC = 1e-6
#: relative rounding bound below which a coefficient of p is taken as zero
P_ROUNDOFF = 8.0 * sys.float_info.epsilon


def _mul(p, q) -> list[float]:
    """Product of two ascending coefficient sequences, in plain floats."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _sq(x) -> list[float]:
    """`_mul(x, x)` of a degree-2 x, with the same sums in the same order."""
    x0, x1, x2 = x
    c01, c02, c12 = x0 * x1, x0 * x2, x1 * x2
    return [x0 * x0, c01 + c01, c02 + x1 * x1 + c02, c12 + c12, x2 * x2]


def _m_and_p(o, diff, b, sign: float):
    """M = diff^2 + B^2 and 2*M*O' + sign*O*M' (degree 5), ascending."""
    m = [x + y for x, y in zip(_sq(diff), _sq(b))]
    do = (o[1], 2.0 * o[2])
    dm = (m[1], 2.0 * m[2], 3.0 * m[3], 4.0 * m[4])
    return m, [2.0 * x + sign * y for x, y in zip(_mul(m, do), _mul(o, dm))]


def _ecc_polys(pa, pb, pc):
    """O (degree 2), M (degree 4) and p = 2*M*O' - O*M' (degree 4) of a family.

    `pa`, `pb`, `pc` are the ascending coefficients (degree <= 2) of the
    quadratic part A, B, C of the family conic.
    """
    a, b, c = ((tuple(x) + (0.0, 0.0))[:3] for x in (pa, pb, pc))
    o = [a[i] + c[i] for i in range(3)]
    m, p = _m_and_p(o, [a[i] - c[i] for i in range(3)], b, -1.0)
    top = max(abs(x) for x in p)
    # the degree-5 terms cancel identically; drop the roundoff residue
    if abs(p[5]) > 1e-9 * top:
        raise InEllipseError("critical-point polynomial has degree > 4")
    # a coefficient below its rounding bound (the same products taken on
    # absolute values) is residue of a cancellation, as in the degree 2-4
    # terms of a parallelogram's p; left in, it moves p's roots
    abs_o = [abs(a[i]) + abs(c[i]) for i in range(3)]
    _, bound = _m_and_p(abs_o, abs_o, [abs(x) for x in b], 1.0)
    p = [0.0 if abs(x) <= P_ROUNDOFF * y else x for x, y in zip(p[:5], bound)]
    return tuple(o), tuple(m), tuple(p)


def _g_at(o, m, r: float) -> float:
    """G at r from the ascending coefficients of O and M."""
    on, root_m = _horner(o, r), math.sqrt(max(_horner(m, r), 0.0))
    return (on - root_m) / (on + root_m)


def _family_argmax(o, m, p, lo: float, hi: float) -> tuple[float, float]:
    """Maximizer of G over (lo, hi) and G there, for a family's O, M and p.

    The candidates are the real parts of the roots of p (companion-matrix
    eigenvalues) that fall inside the interval, each polished by a few
    Newton steps on p that reduce |p| and stay inside.
    """
    dp = [k * p[k] for k in range(1, 5)]
    best = None
    for root in np.roots(p[::-1]).real:
        r = float(root)
        if not lo < r < hi:
            continue
        pr = _horner(p, r)
        for _ in range(3):
            slope = _horner(dp, r)
            if slope == 0.0:
                break
            nxt = r - pr / slope
            pn = _horner(p, nxt)
            if not (lo < nxt < hi and abs(pn) < abs(pr)):
                break
            r, pr = nxt, pn
        g = _g_at(o, m, r)
        if best is None or g > best[1]:
            best = (r, g)
    if best is None:
        raise NoRootInJ("no critical point of G found in the open interval")
    return best


class EccFunctional:
    """Cached polynomials O, M, N, p of the (s,t,v,w) family (ascending coeffs)."""

    def __init__(self, s: float, t: float, v: float, w: float):
        check_qstvw_region(s, t, v, w)
        self.s, self.t, self.v, self.w = s, t, v, w
        pa, pb, pc, _, _, _ = qstvw_coeff_polys(s, t, v, w)
        self.o_coeffs, self.m_coeffs, self.p_coeffs = _ecc_polys(pa, pb, pc)
        self.n_coeffs = tuple(x - y for x, y in zip(_sq(self.o_coeffs), self.m_coeffs))

    def o(self, r):
        return _horner(self.o_coeffs, r)

    def m(self, r):
        return _horner(self.m_coeffs, r)

    def n(self, r):
        return _horner(self.n_coeffs, r)

    def p(self, r):
        return _horner(self.p_coeffs, r)

    def g(self, r):
        """Squared axis ratio (b/a)^2 of the family member at r."""
        o = self.o(r)
        m = np.sqrt(np.maximum(self.m(r), 0.0))
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


def alpha_coeffs(s: float, v: float, w: float) -> tuple[float, float, float]:
    """Ascending coefficients of the type-1 optimizer quadratic.

    alpha(r) = 2(s-v)(v^2+w^2+1) r^2 + 2v(v^2+w^2+1) r - s(v^2+(w+1)^2).
    """
    k = v * v + w * w + 1.0
    return (-s * (v * v + (w + 1.0) ** 2), 2.0 * v * k, 2.0 * (s - v) * k)


def alpha_root(s: float, v: float, w: float) -> float:
    """Unique root in (0,1) of the type-1 optimizer quadratic.

    Valid for type-1 frames, where t is determined by t = s(w+1)/v; the
    admissibility conditions reduce to s, v > 0 and 2s - v > 0.
    alpha(0) < 0 < alpha(1) guarantees the root exists.  On a
    parallelogram's frame s = v, and alpha is linear with root -a0/a1.
    """
    if not (s > 0.0 and v > 0.0):
        raise ParamOutOfRegion("type-1 frame requires s, v > 0")
    if not 2.0 * s - v > 0.0:
        raise ParamOutOfRegion("type-1 frame requires 2s - v > 0")
    a0, a1, a2 = alpha_coeffs(s, v, w)
    disc = a1 * a1 - 4.0 * a2 * a0
    if disc < 0.0:
        raise NoRootInJ("optimizer quadratic has no real root")
    # a1 > 0, so q < 0 and a0/q is the root that does not cancel
    q = -0.5 * (a1 + math.sqrt(disc))
    candidates = [q / a2, a0 / q] if a2 != 0.0 else [a0 / q]
    in_j = [r for r in candidates if 0.0 < r < 1.0]
    if len(in_j) == 1:
        return in_j[0]
    # ill-conditioned quadratic: fall back to bisection on the sign change
    lo, hi = 0.0, 1.0
    flo = a0
    if flo >= 0.0:
        raise NoRootInJ("optimizer quadratic does not change sign on (0,1)")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        fm = (a2 * mid + a1) * mid + a0
        if fm == 0.0:
            return mid
        if (fm < 0.0) == (flo < 0.0):
            lo = mid
        else:
            hi = mid
        if hi - lo <= 1e-15:
            break
    return 0.5 * (lo + hi)


class MinEccResult(NamedTuple):
    r_star: float  # family parameter of the optimum, as `ellipse.param`
    ellipse: InscribedEllipse
    eccentricity: float
    axis_ratio_sq: float
    method: str


class T3Report(NamedTuple):
    parallel: bool
    equal_len: bool
    len1_sq: float
    len2_sq: float
    near_circle: bool
    parallel_margin: float
    length_margin: float
    closed_form_len_sq: Optional[tuple[float, float]]


def _t3_root(pen: _Pencil) -> float:
    """The lam in (0,1) whose member has equal diameters parallel to the
    two diagonals (T3): the closed-form optimum of an MDQ.

    The lengths 4|u|^2 det S / (u' adj(S) u) are equal where
    |u1|^2 k1 = |u2|^2 k2, with k1 = lam (lam p^2 + a(1-a)) and
    k2 = mu (mu q^2 + b(1-b)) the diagonal of S in the basis u1, u2: a
    quadratic in lam, -|u2|^2/4 at 0 and |u1|^2/4 at 1, with one root between.
    """
    (x1, y1), (x2, y2) = pen.u1, pen.u2
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    al, be = pen.a * (1.0 - pen.a), pen.b * (1.0 - pen.b)
    pp, qq = pen.p * pen.p, pen.q * pen.q
    c2, c1, c0 = n1 * pp - n2 * qq, n1 * al + n2 * (2.0 * qq + be), n2 * (qq + be)
    # c2 lam^2 + c1 lam - c0 with c1, c0 > 0: the root that does not cancel
    return 2.0 * c0 / (c1 + math.sqrt(max(c1 * c1 + 4.0 * c2 * c0, 0.0)))


def _optimum(pen: _Pencil, lam: float, method: str) -> MinEccResult:
    """The member at lam as a result, built as `inscribe` builds it from its
    parameter, so that `inscribe(quad, r_star)` returns the same ellipse."""
    wa, wb = lam * pen.b, (1.0 - lam) * pen.a
    r = wb / (wa + wb)  # the S1 contact's fraction along A1->A2
    ie, ratio = _inscribed(pen, r, 2.0 * r - 1.0 if pen.parallelogram else r)
    return MinEccResult(ie.param, ie, math.sqrt(max(1.0 - ratio, 0.0)), ratio, method)


def _numeric(pen: _Pencil) -> MinEccResult:
    o, m, p = _ecc_polys(*_shape_polys(pen))
    lam, _ = _family_argmax(o, m, p, J_MARGIN, 1.0 - J_MARGIN)
    return _optimum(pen, lam, "quartic_numeric")


def min_ecc(quad: Quadrilateral,
            report: Optional[ClassificationReport] = None) -> MinEccResult:
    """The unique minimal-eccentricity inscribed ellipse, in the quad's dual
    pencil.  A tangential quad's incircle, whose diameters along the two
    diagonals are equal, and an MDQ's optimum, parallelograms included, are
    the T3 member (`_t3_root`); every other quad gets `min_ecc_numeric`'s
    optimum.  A parallelogram's `r_star` is its v = 2r - 1.

    The method is chosen from `report`, the quad's `classify` report, so a
    caller that classified the quad at its own tolerance gets the method
    that report names; without one the quad is classified at the default
    tolerance."""
    rep = classify(quad) if report is None else report
    pen = _pencil(quad)
    if rep.tangential or rep.mdq:
        return _optimum(pen, _t3_root(pen),
                        "incircle" if rep.tangential else "alpha_closed_form")
    return _numeric(pen)


def min_ecc_numeric(quad: Quadrilateral) -> MinEccResult:
    """Numeric minimal-eccentricity solver, independent of the closed form:
    G compared at every real root in (0,1) of the critical polynomial p of
    the quad's dual pencil (companion-matrix eigenvalues, Newton-polished)."""
    return _numeric(_pencil(quad))


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


def verify_T3(quad: Quadrilateral | MinEccResult, tol: float = 1e-7) -> T3Report:
    """Check that the minimal ellipse's diagonal-parallel diameters are equal.

    `quad` is an MDQ, whose minimal-eccentricity ellipse is computed here,
    or a `MinEccResult` from `min_ecc`, which is checked as it stands,
    without classifying the quad again.  Verifies that the conjugate of the
    ellipse's D1-parallel diameter is parallel to D2 and that the two
    diameters have equal length.  Near-circular optima (eccentricity below
    1e-6) are reported as vacuously true with the `near_circle` flag, as
    equal conjugate diameters degenerate there.  For closed-form optima the
    squared lengths are also given from the pencil's shape at the optimum,
    independently of the conic's coefficients.
    """
    if isinstance(quad, MinEccResult):
        res, quad = quad, quad.ellipse.quad
    else:
        rep = classify(quad)
        if not (rep.mdq or rep.parallelogram):
            raise NotMDQ("quad is not a midpoint diagonal quadrilateral")
        res = min_ecc(quad, rep)
    conic = res.ellipse.conic
    d1, d2 = quad.diagonal_vectors()
    if res.eccentricity < NEAR_CIRCLE_ECC:
        return T3Report(True, True, 0.0, 0.0, True, 0.0, 0.0, None)

    par_margin = t1_margin(quad, conic)
    p1, p2 = diameter_endpoints(conic, d1)
    p3, p4 = diameter_endpoints(conic, d2)
    len1 = (p2[0] - p1[0]) ** 2 + (p2[1] - p1[1]) ** 2
    len2 = (p4[0] - p3[0]) ** 2 + (p4[1] - p3[1]) ** 2
    len_margin = abs(len1 - len2) / max(len1, len2)

    closed: Optional[tuple[float, float]] = None
    if res.method == "alpha_closed_form":
        # 4|u|^2 det S / (u' adj(S) u) for S of the pencil member at the
        # optimum; a parallelogram reports v = 2r - 1
        pen = _pencil(quad)
        r = (1.0 + res.r_star) / 2.0 if pen.parallelogram else res.r_star
        _, sxx, sxy2, syy, det = _shape(pen, *_weights(pen, r))
        closed = tuple(4.0 * (x * x + y * y) * det
                       / (syy * x * x - sxy2 * x * y + sxx * y * y)
                       for x, y in (d1, d2))
    return T3Report(par_margin <= tol, len_margin <= tol, len1, len2,
                    False, par_margin, len_margin, closed)
