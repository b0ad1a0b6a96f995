"""Eccentricity functional over the inscribed family and its minimizer.

The squared axis ratio k of the dual pencil's member at lam, with shape S,
rises with H = det S / (tr S)^2 = k / (1 + k)^2.  This is the paper's
N = O^2 - M (`N_factorization`) in the pencil: O = tr S, N = 4 det S, and
G = (O - sqrt(M)) / (O + sqrt(M)) = k.  det S / (u1 x u2)^2 is the cubic
lam (1 - lam) (l0 + l1 lam) and tr S is quadratic in lam, so H's critical
points are the roots of one quartic, det' tr - 2 det tr', with no square
root and no cusp at a circle.  One solver isolates its real roots in
plain floats (`_real_roots`) and compares H at each.  An MDQ's optimum is
the member whose diagonal-parallel diameters are equal (the paper's T3),
the root of a quadratic in lam.  Both read the pencil from the quad's
`DiagonalData` (a `classify` report's, when one is given).  The paper's
(s,t,v,w) formulas (`EccFunctional`, `G_value`, `N_factorization`,
`alpha_root`) stay as cross-checks, which no solver calls.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple, Optional

from .diameters import t1_margin
from .errors import InEllipseError, NoRootInJ, NotMDQ, ParamOutOfRegion
from .family import (InscribedEllipse, J_MARGIN, check_unit_interval,
                     qstvw_coeff_polys, _horner, _inscribed)
from .quad import (ClassificationReport, DiagonalData, Quadrilateral,
                   check_qstvw_region, classify, diagonals, f_values)

#: below this eccentricity the minimal ellipse is reported as a circle
NEAR_CIRCLE_ECC = 1e-6


def _mul(p, q) -> list[float]:
    """Product of two ascending coefficient sequences, in plain floats."""
    out = [0.0] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _bracket_root(p, dp, a: float, b: float, pa: float, pb: float) -> float:
    """The root of p in (a, b), where p is monotone and p(a) = pa and
    p(b) = pb differ in sign: Newton steps from the secant point, and
    bisection wherever a step would leave the shrinking bracket."""
    x = a + (b - a) * pa / (pa - pb)
    for _ in range(100):
        px = _horner(p, x)
        if px == 0.0:
            return x
        if (px < 0.0) == (pa < 0.0):
            a = x
        else:
            b = x
        slope = _horner(dp, x)
        nx = x - px / slope if slope != 0.0 else 0.5 * (a + b)
        if abs(nx - x) <= 4.0 * sys.float_info.epsilon * abs(x):
            return x
        x = nx if a < nx < b else 0.5 * (a + b)
    return x


def _real_roots(p, lo: float, hi: float) -> list[float]:
    """Ascending points of (lo, hi) where the polynomial p (ascending
    coefficients) changes sign, and the roots of p' there at which p is 0.

    The roots of p', found by the same recursion down to degree 1, split
    (lo, hi) into brackets on which p is monotone; each bracket whose ends
    differ in sign holds one root (`_bracket_root`).
    """
    p = list(p)
    while p and p[-1] == 0.0:
        p.pop()
    if len(p) < 3:
        x = -p[0] / p[1] if len(p) == 2 else lo
        return [x] if lo < x < hi else []
    dp = [k * p[k] for k in range(1, len(p))]
    xs = [lo, *_real_roots(dp, lo, hi), hi]
    vals = [_horner(p, x) for x in xs]
    roots = []
    for a, b, pa, pb in zip(xs, xs[1:], vals, vals[1:]):
        if pa == 0.0 and a != lo:
            roots.append(a)
        elif pa != 0.0 and pb != 0.0 and (pa < 0.0) != (pb < 0.0):
            roots.append(_bracket_root(p, dp, a, b, pa, pb))
    return roots


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
    """The optimal member and its method; each number about it reads `ellipse`."""

    ellipse: InscribedEllipse
    method: str

    @property
    def r_star(self) -> float:
        return self.ellipse.param

    @property
    def eccentricity(self) -> float:
        return self.ellipse.geometry.eccentricity

    @property
    def axis_ratio_sq(self) -> float:
        return self.ellipse.geometry.axis_ratio_sq


class T3Report(NamedTuple):
    parallel: bool
    equal_len: bool
    len1_sq: float
    len2_sq: float
    near_circle: bool
    parallel_margin: float
    length_margin: float


def _t3_root(dd: DiagonalData) -> float:
    """The lam in (0,1) whose member has equal diameters parallel to the
    two diagonals (T3): the closed-form optimum of an MDQ.

    The lengths 4|u|^2 det S / (u' adj(S) u) are equal where
    |u1|^2 k1 = |u2|^2 k2, with k1 = lam (lam p^2 + a(1-a)) and
    k2 = mu (mu q^2 + b(1-b)) (p, q the midpoint offsets) the diagonal of S
    in the basis u1, u2: a quadratic in lam, -|u2|^2/4 at 0 and |u1|^2/4 at
    1, with one root between.
    """
    (x1, y1), (x2, y2) = dd.u1, dd.u2
    n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
    al, be = dd.a * (1.0 - dd.a), dd.b * (1.0 - dd.b)
    pp, qq = dd.off1 * dd.off1, dd.off2 * dd.off2
    c2, c1, c0 = n1 * pp - n2 * qq, n1 * al + n2 * (2.0 * qq + be), n2 * (qq + be)
    # c2 lam^2 + c1 lam - c0 with c1, c0 > 0: the root that does not cancel
    return 2.0 * c0 / (c1 + math.sqrt(max(c1 * c1 + 4.0 * c2 * c0, 0.0)))


def _optimum(quad: Quadrilateral, dd: DiagonalData, lam: float,
             method: str) -> MinEccResult:
    """The member at lam as a result, built as `inscribe` builds it from its
    parameter, so that `inscribe(quad, r_star)` returns the same ellipse."""
    wa, wb = lam * dd.b, (1.0 - lam) * dd.a
    r = wb / (wa + wb)  # the S1 contact's fraction along A1->A2
    param = 2.0 * r - 1.0 if dd.newton_line is None else r
    return MinEccResult(_inscribed(quad, dd, r, param), method)


def _numeric(quad: Quadrilateral, dd: DiagonalData) -> MinEccResult:
    """The member maximizing H = det S / (tr S)^2, which rises with the
    squared axis ratio k as k / (1 + k)^2: the best root in J of H's
    critical quartic det' tr - 2 det tr', det S taken over (u1 x u2)^2 as
    lam (1 - lam) (l0 + l1 lam), a product with no cancellation."""
    (x1, y1), (x2, y2) = dd.u1, dd.u2
    n1, n2, c = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x1 * x2 + y1 * y2
    al, be = dd.a * (1.0 - dd.a), dd.b * (1.0 - dd.b)
    pp, qq, pq = dd.off1 * dd.off1, dd.off2 * dd.off2, dd.off1 * dd.off2
    l0, l1 = al * (qq + be), pp * be - qq * al
    # tr S = f1 |u1|^2 + f2 |u2|^2 + 2 f12 u1.u2, `_inscribed`'s weights expanded
    tr = (n2 * (qq + be), n1 * al - n2 * (2.0 * qq + be) + 2.0 * c * pq,
          n1 * pp + n2 * qq - 2.0 * c * pq)
    crit = [x - 2.0 * y for x, y in zip(
        _mul((l0, 2.0 * (l1 - l0), -3.0 * l1), tr),
        _mul((0.0, l0, l1 - l0, -l1), (tr[1], 2.0 * tr[2])))]
    roots = _real_roots(crit, J_MARGIN, 1.0 - J_MARGIN)
    if not roots:
        raise NoRootInJ("no critical point of H found in the open interval")
    lam = max(roots, key=lambda x: x * (1.0 - x) * (l0 + l1 * x)
              / _horner(tr, x) ** 2)
    return _optimum(quad, dd, lam, "quartic_numeric")


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
    tolerance.  The pencil is the report's `diagonals`."""
    rep = classify(quad) if report is None else report
    dd = rep.diagonals
    if rep.tangential or rep.mdq:
        return _optimum(quad, dd, _t3_root(dd),
                        "incircle" if rep.tangential else "alpha_closed_form")
    return _numeric(quad, dd)


def min_ecc_numeric(quad: Quadrilateral) -> MinEccResult:
    """Numeric minimal-eccentricity solver, independent of the closed form
    and valid on every class: H = det S / (tr S)^2 compared at every root
    in (0,1) of its critical quartic, isolated on monotone brackets."""
    return _numeric(quad, diagonals(quad))


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
    ellipse's D1-parallel diameter is parallel to D2, on the conic's
    quadratic part, and that the two diameters have equal squared length
    4 |u|^2 det S / (u' adj(S) u), read from the result's own shape S at unit
    scale.  Near-circular optima (eccentricity below 1e-6) are reported as
    vacuously true with the `near_circle` flag, as equal conjugate diameters
    degenerate there."""
    if isinstance(quad, MinEccResult):
        res, quad = quad, quad.ellipse.quad
    else:
        rep = classify(quad)
        if not rep.mdq:
            raise NotMDQ("quad is not a midpoint diagonal quadrilateral")
        res = min_ecc(quad, rep)
    if res.eccentricity < NEAR_CIRCLE_ECC:
        return T3Report(True, True, 0.0, 0.0, True, 0.0, 0.0)

    par_margin = t1_margin(quad, res.ellipse.conic)
    sxx, sxy2, syy, det = res.ellipse.shape
    d = quad.diameter()
    unit = [4.0 * (x * x + y * y) * det / (syy * x * x - sxy2 * x * y + sxx * y * y)
            for x, y in ((x / d, y / d) for x, y in quad.diagonal_vectors())]
    len_margin = abs(unit[0] - unit[1]) / max(unit)
    return T3Report(par_margin <= tol, len_margin <= tol, unit[0] * d * d,
                    unit[1] * d * d, False, par_margin, len_margin)
