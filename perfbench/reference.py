"""Independent reference and output checks; uses no `inellipse` code.

The ellipses inscribed in a convex quad A1A2A3A4 form the dual pencil

    C*(lam) = lam (A1 A3^T + A3 A1^T) + (1 - lam) (A2 A4^T + A4 A2^T),

lam in (0, 1), with A_i = (x_i, y_i, 1).  An ellipse with center c and shape
S, {x : (x-c)^T S^-1 (x-c) = 1}, has dual matrix proportional to
[[S - c c^T, -c], [-c^T, -1]], so along the pencil c = lam M1 + (1-lam) M2
(the diagonal midpoints, Newton's line) and S = c c^T - lam sym(A1, A3)
- (1 - lam) sym(A2, A4).  The optimum is the member with the largest squared
axis ratio lam_min(S) / lam_max(S), found on a dense lam grid and refined
by zooming around the best grid maxima.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

#: largest allowed shortfall of a returned optimum's squared axis ratio
SHORTFALL_TOL = 1e-9
#: largest allowed gap between a side and the ellipse's parallel support
#: line, relative to the quad's diameter.  Thin family members computed in
#: binary64 reach about 3e-7 (largest of 19.5k members over three seeds).
TANGENCY_TOL = 1e-6
#: slack, in side-length units, for a tangency point lying inside its side
INSIDE_TOL = 1e-9

_GRID = 2049
_ZOOM = 33
_ROUNDS = 12
_PEAKS = 3


def _normalized(quads: np.ndarray) -> np.ndarray:
    """Translate to the vertex centroid and scale to unit size (ratio is invariant)."""
    centered = quads - quads.mean(axis=1, keepdims=True)
    return centered / np.abs(centered).max(axis=(1, 2), keepdims=True)


def _ratio(q: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """Squared axis ratio of the pencil member at lam, for (N, 4, 2) quads."""
    a1, a2, a3, a4 = (q[:, i, :, None] for i in range(4))
    cx = 0.5 * (lam * (a1[:, 0] + a3[:, 0]) + (1 - lam) * (a2[:, 0] + a4[:, 0]))
    cy = 0.5 * (lam * (a1[:, 1] + a3[:, 1]) + (1 - lam) * (a2[:, 1] + a4[:, 1]))
    sxx = cx * cx - lam * a1[:, 0] * a3[:, 0] - (1 - lam) * a2[:, 0] * a4[:, 0]
    syy = cy * cy - lam * a1[:, 1] * a3[:, 1] - (1 - lam) * a2[:, 1] * a4[:, 1]
    sxy = (cx * cy - 0.5 * lam * (a1[:, 0] * a3[:, 1] + a3[:, 0] * a1[:, 1])
           - 0.5 * (1 - lam) * (a2[:, 0] * a4[:, 1] + a4[:, 0] * a2[:, 1]))
    tr = sxx + syy
    root = np.hypot(sxx - syy, 2.0 * sxy)
    return (tr - root) / (tr + root)


def max_ratio_sq(quads) -> np.ndarray:
    """Largest squared axis ratio over the inscribed ellipses of each quad.

    `quads` is an (N, 4, 2) array of vertices in cyclic order.
    """
    q = _normalized(np.asarray(quads, float))
    n = len(q)
    lam = np.broadcast_to(np.linspace(0.0, 1.0, _GRID + 2)[1:-1], (n, _GRID))
    vals = _ratio(q, lam)
    # refine the best few local maxima of the grid, not just the argmax
    peak = np.zeros_like(vals, bool)
    peak[:, 1:-1] = (vals[:, 1:-1] >= vals[:, :-2]) & (vals[:, 1:-1] >= vals[:, 2:])
    peak[:, 0] = vals[:, 0] >= vals[:, 1]
    peak[:, -1] = vals[:, -1] >= vals[:, -2]
    ranked = np.argsort(np.where(peak, vals, -np.inf), axis=1)[:, ::-1][:, :_PEAKS]
    best = np.full(n, -np.inf)
    h0 = 1.0 / (_GRID + 1)
    rows = np.arange(n)[:, None]
    for k in range(_PEAKS):
        centre = lam[np.arange(n), ranked[:, k]]
        half = np.full(n, h0)
        for _ in range(_ROUNDS):
            lo = np.maximum(centre - half, 0.0)
            hi = np.minimum(centre + half, 1.0)
            grid = lo[:, None] + (hi - lo)[:, None] * np.linspace(0.0, 1.0, _ZOOM)
            gv = _ratio(q, grid)
            centre = grid[rows[:, 0], np.argmax(gv, axis=1)]
            half = 2.0 * (hi - lo) / (_ZOOM - 1)
        best = np.maximum(best, gv.max(axis=1))
    return best


def ellipse_of(conic):
    """(center, S, squared axis ratio) of the conic a x^2 + b xy + c y^2 + d x + e y + f.

    Center and S are computed exactly from the float coefficients: a small
    ellipse far from the origin makes the conic's value at its center a
    difference of much larger terms.  Returns None for a non-ellipse.
    """
    a, b, c, d, e, f = (Fraction(float(x)) for x in conic)
    if a + c < 0:
        a, b, c, d, e, f = -a, -b, -c, -d, -e, -f
    det = a * c - b * b / 4
    if not det > 0:
        return None
    cx = (b * e / 4 - c * d / 2) / det
    cy = (b * d / 4 - a * e / 2) / det
    k = -(f + d * cx / 2 + e * cy / 2)
    if not k > 0:
        return None
    # S = k Q^-1 with Q = [[a, b/2], [b/2, c]]
    s = (float(k * c / det), float(-k * b / (2 * det)), float(k * a / det))
    root = math.hypot(float(a - c), float(b))
    ratio = (float(a + c) - root) / (float(a + c) + root)
    return (cx, cy), s, ratio


def tangency(conic, vertices):
    """Per-side tangency residuals and contact points of a conic in a quad.

    The residual of side i is the distance between the side's line and the
    ellipse's support line parallel to it, over the quad's diameter.  The
    contact point is where that support line touches the ellipse.  Returns
    (residuals, contacts, inside flags), or None when the conic is not an
    ellipse.
    """
    geo = ellipse_of(conic)
    if geo is None:
        return None
    (cx, cy), (sxx, sxy, syy), _ = geo
    diam = max(math.dist(p, q) for p in vertices for q in vertices)
    resid, contacts, inside = [], [], []
    for i in range(4):
        p, q = vertices[i], vertices[(i + 1) % 4]
        ux, uy = q[0] - p[0], q[1] - p[1]
        length = math.hypot(ux, uy)
        nx, ny = -uy / length, ux / length
        offset = nx * float(p[0] - cx) + ny * float(p[1] - cy)
        sn = (sxx * nx + sxy * ny, sxy * nx + syy * ny)
        support = math.sqrt(max(nx * sn[0] + ny * sn[1], 0.0))
        resid.append(abs(abs(offset) - support) / diam)
        sign = 1.0 if offset >= 0.0 else -1.0
        if support > 0.0:
            x = (float(cx) + sign * sn[0] / support, float(cy) + sign * sn[1] / support)
        else:
            x = (float(cx), float(cy))
        contacts.append(x)
        t = ((x[0] - p[0]) * ux + (x[1] - p[1]) * uy) / (length * length)
        inside.append(-INSIDE_TOL <= t <= 1.0 + INSIDE_TOL)
    return resid, contacts, inside


def score_optimum(conic, vertices, ref_ratio):
    """Check a returned optimum on its conic alone.

    Returns (problem or None, shortfall, worst tangency residual); the
    problem is "not_ellipse", "tangency" or "shortfall".
    """
    tan = tangency(conic, vertices)
    if tan is None:
        return "not_ellipse", math.inf, math.inf
    resid, _, inside = tan
    worst = max(resid)
    shortfall = ref_ratio - ellipse_of(conic)[2]
    if worst > TANGENCY_TOL or not all(inside):
        return "tangency", shortfall, worst
    if shortfall > SHORTFALL_TOL:
        return "shortfall", shortfall, worst
    return None, shortfall, worst
