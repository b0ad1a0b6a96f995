"""The paper's (s,t,v,w) frame, as far as the CLI's `paper_r_star` reads it;
no solver reads it.

The frame puts a convex quad's vertices at (0,0), (0,1), (s,t), (v,w),
A1 at (0,0) and A2 at (0,1); it is admissible where s, v > 0, t > w and
f1, f2 > 0.  `normalize_to_qstvw` maps a convex quad to that frame by a
similarity, which preserves eccentricity, choosing only a cyclic label
shift k (frame A_i is the original A_(i+k)); an odd shift swaps the
diagonals' roles, so a type-2 MDQ is type 1 there.  `alpha_root`, a type-1
MDQ's optimum in its frame, takes the T3 root's `minecc._positive_root`.
The tests' `paper` module holds the paper's other frame formulas.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .errors import NoRootInJ, ParamOutOfRegion
from .minecc import _bracket_root, _positive_root
from .quad import Quadrilateral


def f_values(s: float, t: float, v: float, w: float) -> tuple[float, float, float]:
    """Auxiliary frame quantities (f1, f2, f3).

    f1 = v(t-1) + (1-w)s and f2 = vt - ws are positive exactly when the
    frame vertices are convex; f3 = ws - v(t-1) is nonzero exactly when
    sides S2 and S4 are not parallel.
    """
    f1 = v * (t - 1.0) + (1.0 - w) * s
    f2 = v * t - w * s
    f3 = w * s - v * (t - 1.0)
    return f1, f2, f3


def check_qstvw_region(s: float, t: float, v: float, w: float) -> None:
    """Raise ParamOutOfRegion unless (s,t,v,w) is an admissible frame.

    Checks s,v > 0, t > w and f1, f2 > 0.  Sides S1 and S3 may be parallel
    (s = v), and so may S2 and S4 (f3 = 0): a parallelogram or a trapezoid
    has an admissible frame like any other convex quad.
    """
    if not (s > 0.0 and v > 0.0):
        raise ParamOutOfRegion("frame requires s, v > 0")
    if not t > w:
        raise ParamOutOfRegion("frame requires t > w")
    f1, f2, _ = f_values(s, t, v, w)
    if f1 <= 0.0 or f2 <= 0.0:
        raise ParamOutOfRegion("frame is not convex (f1, f2 must be positive)")


class QstvwFrame(NamedTuple):
    s: float
    t: float
    v: float
    w: float
    shift: int


def normalize_to_qstvw(quad: Quadrilateral) -> QstvwFrame:
    """Similarity reduction to the frame with vertices (0,0),(0,1),(s,t),(v,w).

    The similarity preserves eccentricities of inscribed ellipses.  The
    frame is the first admissible one among the label shifts 0, 2, 1, 3;
    even shifts come first because they keep each diagonal's role, so a
    type-1 frame stays type 1.  A shift is inadmissible when t <= w; s = v
    (S1 || S3) is admissible, so a parallelogram always gets its shift-0
    frame (s, t, s, t - 1).  A trapezoid whose parallel pair is S2/S4 yields
    f3 = 0 in its admissible frames, which are returned too: the inscribed
    family is still well defined.
    """
    first_error = None
    for shift in (0, 2, 1, 3):
        a1, a2, (x3, y3), (x4, y4) = quad.rotate_labels(shift).vertices
        n = math.hypot(a2[0] - a1[0], a2[1] - a1[1])
        # rotate A1A2 onto the +y axis, then scale it to unit length (divided
        # by |A1A2| twice, as its square can overflow or underflow)
        ux, uy = (a2[0] - a1[0]) / n / n, (a2[1] - a1[1]) / n / n
        tx, ty = -(uy * a1[0] - ux * a1[1]), -(ux * a1[0] + uy * a1[1])
        s, t = uy * x3 - ux * y3 + tx, ux * x3 + uy * y3 + ty
        v, w = uy * x4 - ux * y4 + tx, ux * x4 + uy * y4 + ty
        try:
            check_qstvw_region(s, t, v, w)
        except ParamOutOfRegion as exc:
            first_error = first_error or exc
            continue
        return tuple.__new__(QstvwFrame, (s, t, v, w, shift))  # skips __new__
    raise first_error


def alpha_coeffs(s: float, v: float, w: float) -> tuple[float, float, float]:
    """Ascending coefficients of the type-1 optimizer quadratic.

    alpha(r) = 2(s-v)(v^2+w^2+1) r^2 + 2v(v^2+w^2+1) r - s(v^2+(w+1)^2).
    """
    k = v * v + w * w + 1.0
    return (-s * (v * v + (w + 1.0) ** 2), 2.0 * v * k, 2.0 * (s - v) * k)


def alpha_root(s: float, v: float, w: float) -> float:
    """Unique root in (0,1) of the type-1 optimizer quadratic.

    Valid for type-1 frames (t = s(w+1)/v); checks s, v > 0 and 2s - v > 0
    (f1 > 0), not t > w.  alpha(0) < 0 < alpha(1) guarantees the root.  On
    a parallelogram's frame s = v, and alpha is linear with root -a0/a1.
    Where its discriminant rounds below 0 (a2 < 0, a near-double root at 1),
    the root is 1 - y, y that of alpha(1 - y), whose discriminant does not cancel.
    """
    if not (s > 0.0 and v > 0.0):
        raise ParamOutOfRegion("type-1 frame requires s, v > 0")
    if not 2.0 * s - v > 0.0:
        raise ParamOutOfRegion("type-1 frame requires 2s - v > 0")
    a0, a1, a2 = alpha_coeffs(s, v, w)
    try:  # a1 > 0: the root that does not cancel, whatever a2's sign
        r = _positive_root(a2, a1, -a0)
    except ValueError:  # alpha(1 - y) = alpha(1) - 2k (2s - v) y + a2 y^2
        k = v * v + w * w + 1.0
        y = _positive_root(-a2, 2.0 * k * (2.0 * s - v), s * (v * v + (w - 1.0) ** 2))
        return min(1.0 - y, math.nextafter(1.0, 0.0))  # kept below 1 if it rounds to 1
    if 0.0 < r < 1.0:
        return r
    # ill-conditioned quadratic: bracket the sign change, alpha(1) = s (v^2 + (w-1)^2)
    if a0 >= 0.0:
        raise NoRootInJ("optimizer quadratic does not change sign on (0,1)")
    return _bracket_root((a0, a1, a2, 0.0, 0.0), 0.0, 1.0, a0,
                         s * (v * v + (w - 1.0) ** 2), 0.5)
