"""Eccentricity functional over the inscribed family and its minimizer.

The squared axis ratio k of the dual pencil's member, with shape S, rises
with H = det S / (tr S)^2 = k / (1 + k)^2, the paper's N = O^2 - M (the
tests' `paper.N_factorization`) in the pencil: O = tr S, N = 4 det S and
G = (O - sqrt(M)) / (O + sqrt(M)) = k.  Both solvers carry the member as the
ratio x = lam / mu in (0, inf) of its weights, which holds 1e-20 as well as
1/2.  H's critical points are the positive roots of one quartic in x, whose
coefficients change sign exactly once (`_numeric`), so one bracketed Newton
solve finds the optimum.  An MDQ's optimum is the member whose
diagonal-parallel diameters are equal (the paper's T3), the positive root of
a quadratic in x that `_critical_quartic` returns, and the Newton start on
every quad.  Both read the pencil from the quad's `DiagonalData`, the
midpoint offsets p = 1/2 - a and q = 1/2 - b computed where they are read.
"""

from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .diameters import conjugate_direction, parallel_margin
from .errors import NotMDQ
from .family import InscribedEllipse, _at_ratio
from .quad import (CLASSIFY_TOL, DiagonalData, Quadrilateral, classify,
                   diagonals, _mdq_types, _tangential)

#: `_bracket_root`'s last step, relative to x: 4 eps, a power of two
_STEP_TOL = 4.0 * sys.float_info.epsilon


def _bracket_root(p, a: float, b: float, pa: float, pb: float, x: float) -> float:
    """The one root in (a, b) of the quartic p, p(a) = pa and p(b) = pb of
    opposite sign: Newton steps from x (the secant point if x is outside),
    bisecting where one would leave the bracket, and taking the last one."""
    (p0, p1, p2, p3, p4), d2, d3, d4 = p, 2.0 * p[2], 3.0 * p[3], 4.0 * p[4]
    x = x if a < x < b else a + (b - a) * pa / (pa - pb)
    neg_a = pa < 0.0
    for _ in range(100):
        px = (((p4 * x + p3) * x + p2) * x + p1) * x + p0
        if px == 0.0:
            return x
        if (px < 0.0) == neg_a:
            a = x
        else:
            b = x
        slope = ((d4 * x + d3) * x + d2) * x + p1
        nx = x - px / slope if slope != 0.0 else 0.5 * (a + b)
        if abs(nx - x) <= _STEP_TOL * abs(x):
            return nx if a < nx < b else x
        x = nx if a < nx < b else 0.5 * (a + b)
    return x


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


def _positive_root(qa: float, qb: float, qc: float) -> float:
    """The root x > 0 of qa x^2 + qb x - qc, qa, qc > 0, taken without cancellation."""
    disc = math.sqrt(qb * qb + 4.0 * qa * qc)
    return 2.0 * qc / (qb + disc) if qb >= 0.0 else (disc - qb) / (2.0 * qa)


def _critical_quartic(dd: DiagonalData) -> tuple[tuple[float, ...], float]:
    """q0..q4 of N' t - 2 N t', H = N / t^2 (u1 x u2)^2 in x: N = x (1 + x)
    (l1 x + l0) = det S / (mu^4 (u1 x u2)^2), t = t2 x^2 + t1 x + t0 =
    tr S / mu^2 (n1 = |u1|^2, n2 = |u2|^2, c = u1.u2, al = a(1-a), be = b(1-b),
    p, q the midpoint offsets), and the T3 root, where the diameters along u1
    and u2 are equal: n1 k1 = n2 k2 for S's diagonal k1 = lam (lam p^2 + al),
    k2 = mu (mu q^2 + be) in u1, u2, over mu^2 t2 x^2 + (n1 al - n2 be) x = t0."""
    _, (x1, y1), (x2, y2), a, b, _ = dd
    n1, n2, c = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x1 * x2 + y1 * y2
    p, q, al, be = 0.5 - a, 0.5 - b, a * (1.0 - a), b * (1.0 - b)
    pp, qq = p * p, q * q
    l0, l1 = al * (qq + be), be * (pp + al)
    t0, t1, t2 = n2 * (qq + be), n1 * al + n2 * be + 2.0 * c * p * q, n1 * (pp + al)
    return ((l0 * t0, 2.0 * (l0 + l1) * t0 - l0 * t1, 3.0 * (l1 * t0 - l0 * t2),
             l1 * t1 - 2.0 * (l0 + l1) * t2, -l1 * t2),
            _positive_root(t2, n1 * al - n2 * be, t0))


def _numeric(quad: Quadrilateral, dd: DiagonalData) -> MinEccResult:
    """The member maximizing H = det S / (tr S)^2, which rises with the
    squared axis ratio k as k / (1 + k)^2: the one positive root of its
    critical quartic (`_critical_quartic`).

    Certificate: q0 = l0 t0 > 0 > q4 = -l1 t2.  As t0 = n2 l0 / al and
    t2 = n1 l1 / be, with A = 2 (l0 + l1) n2 / al and B = 2 (l0 + l1) n1 / be,
    sign q1 = sign(A - t1), sign q2 = sign(A - B) and sign q3 = sign(t1 - B).
    (A + B) / 2 - t1 = n1 p^2 + n2 q^2 - 2 c p q + n1 al + n2 be
    + n2 be p^2 / al + n1 al q^2 / be, and n1 p^2 + n2 q^2 >= 2 |c p q|
    (AM-GM, |c| <= sqrt(n1 n2)), so t1 < (A + B) / 2 <= max(A, B): q1 > 0
    if A >= B, and q3 < 0 otherwise.  The signs run + ... - with exactly one
    change, so by Descartes' rule H has exactly one critical point in the
    whole pencil, its maximum.  It lies in x < 1 where the quartic is
    negative at 1, and otherwise at 1 / y, y the root in (0, 1) of the
    reversed quartic: one bracket from the T3 root, no margin."""
    crit, x3 = _critical_quartic(dd)
    at1, x = sum(crit), 1.0
    if at1 != 0.0:
        p = crit if at1 < 0.0 else crit[::-1]
        y = _bracket_root(p, 0.0, 1.0, p[0], at1,
                          x3 if at1 < 0.0 else 1.0 / x3 if x3 > 0.0 else 0.0)
        x = y if at1 < 0.0 else 1.0 / y
    return tuple.__new__(MinEccResult, (  # skips __new__ and its field-count check
        _at_ratio(quad, dd, x), "quartic_numeric"))


def min_ecc(quad: Quadrilateral, tol: float = CLASSIFY_TOL) -> MinEccResult:
    """The unique minimal-eccentricity inscribed ellipse, in the quad's dual
    pencil.  A tangential quad's incircle, whose diameters along the two
    diagonals are equal, and an MDQ's optimum, parallelograms included, are
    the T3 member (`_critical_quartic`'s root); every other quad gets
    `min_ecc_numeric`'s optimum.  A parallelogram's `r_star` is v = 2r - 1.

    The method reads two predicates at `tol`, through the functions
    `classify` itself calls: "incircle" if the quad is tangential
    (`quad._tangential` on the side lengths), else "alpha_closed_form" if it
    is an MDQ (`quad._mdq_types` on the kept pencil's fractions a and b), else
    "quartic_numeric".  So the method is the one that `classify(quad, tol)`
    names, and no full report is built."""
    dd = quad._diagonals
    tangential = _tangential(quad.side_lengths(), tol)
    type1, type2 = _mdq_types(dd.a, dd.b, tol)
    if tangential or type1 or type2:
        return tuple.__new__(MinEccResult, (  # skips __new__ and its field-count check
            _at_ratio(quad, dd, _critical_quartic(dd)[1]),
            "incircle" if tangential else "alpha_closed_form"))
    return _numeric(quad, dd)


def min_ecc_numeric(quad: Quadrilateral) -> MinEccResult:
    """Numeric minimal-eccentricity solver, independent of the closed form
    and valid on every class: the one critical point of H = det S / (tr S)^2
    in the pencil, one certified bracket from the T3 root (`_numeric`)."""
    return _numeric(quad, diagonals(quad))


def verify_T3(quad: Quadrilateral | MinEccResult, tol: float = 1e-7) -> T3Report:
    """Check that the minimal ellipse's diagonal-parallel diameters are equal.

    `quad` is an MDQ, whose minimal-eccentricity ellipse is computed here,
    or a `MinEccResult` from `min_ecc`, which is checked as it stands,
    without classifying the quad again.  Verifies that the conjugate of the
    ellipse's D1-parallel diameter is parallel to D2, on adj(S), and that
    the two diameters have equal squared length 4 |u|^2 det S /
    (u' adj(S) u), from the result's own shape S at unit scale, with no
    conic.  An optimum that is `EllipseGeometry.near_circle` (the rule the
    CLI and `equal_diameter_pair` read too) passes vacuously, flagged
    `near_circle`, as equal conjugate diameters degenerate there."""
    if isinstance(quad, MinEccResult):
        res, quad = quad, quad.ellipse.quad
    else:
        if not classify(quad).mdq:
            raise NotMDQ("quad is not a midpoint diagonal quadrilateral")
        res = min_ecc(quad)
    ie = res.ellipse
    if ie.geometry.near_circle:
        return tuple.__new__(T3Report, (  # skips __new__ and its field-count check
            True, True, 0.0, 0.0, True, 0.0, 0.0))

    adj, dd = ie.adjugate, quad._diagonals  # `t1_margin` on adj(S), with the kept pencil
    par_margin = parallel_margin(conjugate_direction(adj, dd.u1), dd.u2)
    (a, b, c), det, d, (x1, y1), (x2, y2) = adj, ie.shape[3], quad._diameter, dd.u1, dd.u2
    len1 = 4.0 * (x1 * x1 + y1 * y1) * det / (a * x1 * x1 + b * x1 * y1 + c * y1 * y1)
    len2 = 4.0 * (x2 * x2 + y2 * y2) * det / (a * x2 * x2 + b * x2 * y2 + c * y2 * y2)
    len_margin = abs(len1 - len2) / max(len1, len2)
    return tuple.__new__(T3Report, (  # skips __new__ and its field-count check
        par_margin <= tol, len_margin <= tol, len1 * d * d, len2 * d * d, False,
        par_margin, len_margin))
