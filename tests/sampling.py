"""Seeded random generators for frames, quadrilaterals and maps.

Everything takes a numpy Generator so callers control determinism; the
generators do rejection sampling against the admissibility regions and
against conditioning floors (distance from degenerate configurations),
since downstream property checks assert tight numeric tolerances.
"""

from __future__ import annotations

import math

import numpy as np

from inellipse.affine import alpha_root, f_values
from inellipse.conic import ConicCoeffs
from inellipse.quad import Quadrilateral, canonicalize, quadrilateral

from paper import AffineMap, G_value, rotation, scaling, translation

Frame = tuple[float, float, float, float]


def frame_quad(s: float, t: float, v: float, w: float) -> Quadrilateral:
    """The labeled quadrilateral (0,0), (0,1), (s,t), (v,w)."""
    return quadrilateral([(0.0, 0.0), (0.0, 1.0), (s, t), (v, w)])


def mdq_frame_margins(s: float, t: float, v: float, w: float) -> tuple[float, float]:
    """Normalized distances of a frame from the type-1 and type-2 identities."""
    m1 = abs(v * t - (w + 1.0) * s) / (abs(v * t) + abs((w + 1.0) * s) + 1.0)
    m2 = (abs((t - 2.0) * v - (w - 1.0) * s)
          / (abs((t - 2.0) * v) + abs((w - 1.0) * s) + 1.0))
    return m1, m2


def _frame_ok(s: float, t: float, v: float, w: float, floor: float = 0.05) -> bool:
    if not (s > 0.0 and v > 0.0 and t > w):
        return False
    scale = max(s, t, v, abs(w), 1.0)
    if abs(s - v) <= floor * scale:
        return False
    f1, f2, f3 = f_values(s, t, v, w)
    if f1 <= floor * scale or f2 <= floor * scale:
        return False
    if abs(f3) <= floor * scale:
        return False
    return True


def random_frame(rng: np.random.Generator, max_tries: int = 1000) -> Frame:
    """A generic admissible (s,t,v,w) frame, away from degeneracies."""
    for _ in range(max_tries):
        s = rng.uniform(0.6, 4.0)
        v = rng.uniform(0.6, 4.0)
        w = rng.uniform(-0.8, 1.5)
        t = w + rng.uniform(0.4, 3.0)
        if _frame_ok(s, t, v, w):
            return s, t, v, w
    raise RuntimeError("frame sampling failed")


def random_type1_frame(rng: np.random.Generator, min_ecc: float = 0.0,
                       max_tries: int = 1000) -> Frame:
    """A type-1 MDQ frame (vt = (w+1)s), optionally bounded away from circles."""
    for _ in range(max_tries):
        s = rng.uniform(0.6, 4.0)
        v = rng.uniform(0.6, 4.0)
        w = rng.uniform(-0.6, 1.5)
        t = s * (w + 1.0) / v
        if not (w + 0.3 < t <= 8.0):
            continue
        if not _frame_ok(s, t, v, w):
            continue
        if min_ecc > 0.0:
            r1 = alpha_root(s, v, w)
            ecc = math.sqrt(max(1.0 - G_value(s, t, v, w, r1), 0.0))
            if ecc < min_ecc:
                continue
        return s, t, v, w
    raise RuntimeError("type-1 frame sampling failed")


def random_type2_frame(rng: np.random.Generator, max_tries: int = 1000) -> Frame:
    """A type-2 MDQ frame ((t-2)v = (w-1)s)."""
    for _ in range(max_tries):
        s = rng.uniform(0.6, 4.0)
        v = rng.uniform(0.6, 4.0)
        w = rng.uniform(-0.6, 1.5)
        t = 2.0 + (w - 1.0) * s / v
        if not (w + 0.3 < t <= 8.0):
            continue
        if _frame_ok(s, t, v, w):
            return s, t, v, w
    raise RuntimeError("type-2 frame sampling failed")


def random_nonmdq_frame(rng: np.random.Generator, min_margin: float = 1e-3,
                        max_tries: int = 1000) -> Frame:
    """An admissible frame at least `min_margin` from both MDQ identities."""
    for _ in range(max_tries):
        s, t, v, w = random_frame(rng)
        m1, m2 = mdq_frame_margins(s, t, v, w)
        if m1 > min_margin and m2 > min_margin:
            return s, t, v, w
    raise RuntimeError("non-MDQ frame sampling failed")


def random_similarity(rng: np.random.Generator) -> AffineMap:
    """Random rotation + positive uniform scaling + translation."""
    m = rotation(rng.uniform(0.0, 2.0 * math.pi)).compose(
        scaling(math.exp(rng.uniform(math.log(0.3), math.log(3.0)))))
    return translation(rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)).compose(m)


def random_affine(rng: np.random.Generator, max_tries: int = 1000) -> AffineMap:
    """Random invertible affine map with determinant bounded away from zero."""
    for _ in range(max_tries):
        m = rng.uniform(-2.0, 2.0, size=4)
        det = m[0] * m[3] - m[1] * m[2]
        if abs(det) > 0.1:
            return AffineMap(((m[0], m[1]), (m[2], m[3])),
                             (rng.uniform(-5.0, 5.0), rng.uniform(-5.0, 5.0)))
    raise RuntimeError("affine sampling failed")


def random_ellipse(rng: np.random.Generator) -> ConicCoeffs:
    """Random nondegenerate ellipse conic with axis ratio away from 1."""
    a = rng.uniform(0.5, 3.0)
    b = rng.uniform(0.2, 0.9) * a
    ang = rng.uniform(0.0, math.pi)
    ca, sa = math.cos(ang), math.sin(ang)
    m = AffineMap(((a * ca, -b * sa), (a * sa, b * ca)),
                  (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)))
    return m.apply_to_conic(ConicCoeffs(1.0, 0.0, 1.0, 0.0, 0.0, -1.0))


def random_convex_quad(rng: np.random.Generator, max_tries: int = 1000) -> Quadrilateral:
    """Four uniform points in convex position, not too thin."""
    for _ in range(max_tries):
        pts = rng.uniform(0.0, 3.0, size=(4, 2))
        try:
            quad = canonicalize([tuple(p) for p in pts])
        except Exception:
            continue
        a, b, c, d = quad.side_lengths()
        if min(a, b, c, d) > 0.15 * quad.diameter():
            return quad
    raise RuntimeError("convex quad sampling failed")


def random_kite(rng: np.random.Generator) -> Quadrilateral:
    """Random convex kite (two pairs of equal adjacent sides)."""
    p = rng.uniform(0.5, 3.0)
    q = rng.uniform(0.5, 3.0)
    h = rng.uniform(0.3, 2.0)
    span = p + q
    m = rng.uniform(-p + 0.15 * span, q - 0.15 * span)
    raw = [(-p, 0.0), (m, h), (q, 0.0), (m, -h)]
    sim = random_similarity(rng)
    return canonicalize([sim.apply(pt) for pt in raw])


def random_tangential_quad(rng: np.random.Generator,
                           max_tries: int = 1000) -> Quadrilateral:
    """Random quad circumscribing a circle (four tangent lines)."""
    for _ in range(max_tries):
        rho = rng.uniform(0.5, 2.0)
        angles = np.sort(rng.uniform(0.0, 2.0 * math.pi, size=4))
        gaps = np.diff(np.append(angles, angles[0] + 2.0 * math.pi))
        if gaps.min() < 0.35 or gaps.max() > math.pi - 0.35:
            continue
        verts = []
        for i in range(4):
            t1, t2 = angles[i], angles[(i + 1) % 4]
            p1 = (rho * math.cos(t1), rho * math.sin(t1))
            d1 = (-math.sin(t1), math.cos(t1))
            p2 = (rho * math.cos(t2), rho * math.sin(t2))
            d2 = (-math.sin(t2), math.cos(t2))
            det = d1[0] * (-d2[1]) - (-d2[0]) * d1[1]
            rx, ry = p2[0] - p1[0], p2[1] - p1[1]
            lam = (rx * (-d2[1]) - (-d2[0]) * ry) / det
            verts.append((p1[0] + lam * d1[0], p1[1] + lam * d1[1]))
        sim = random_similarity(rng)
        try:
            return canonicalize([sim.apply(p) for p in verts])
        except Exception:
            continue
    raise RuntimeError("tangential quad sampling failed")


def random_thin_tangential_quad(rng: np.random.Generator, rho: float) -> Quadrilateral:
    """A quad circumscribing a circle of radius rho, of diameter about 2:
    two of its tangent lines turn by about rho from the top of the circle
    and two from its bottom, so its diagonals differ in length by about
    1 / rho; it is turned and moved at random by up to 1."""
    turn = min(rho, 0.5) * rng.uniform(0.5, 1.5, size=4)
    angles = (0.5 * math.pi - turn[0], 0.5 * math.pi + turn[1],
              1.5 * math.pi - turn[2], 1.5 * math.pi + turn[3])
    verts = []
    for t1, t2 in zip(angles, angles[1:] + angles[:1]):
        # lines x cos t + y sin t = rho meet at angle (t1 + t2) / 2
        mid, half = 0.5 * (t1 + t2), 0.5 * (t2 - t1)
        dist = rho / math.cos(half)
        verts.append((dist * math.cos(mid), dist * math.sin(mid)))
    rot = rotation(rng.uniform(0.0, 2.0 * math.pi))
    shift = translation(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))
    return canonicalize([shift.compose(rot).apply(p) for p in verts])


def random_orthodiagonal_quad(rng: np.random.Generator) -> Quadrilateral:
    """Random quad with perpendicular diagonals."""
    ang = rng.uniform(0.0, math.pi)
    u = (math.cos(ang), math.sin(ang))
    n = (-u[1], u[0])
    e = rng.uniform(0.4, 2.5, size=4)
    raw = [(-e[0] * u[0], -e[0] * u[1]), (e[1] * n[0], e[1] * n[1]),
           (e[2] * u[0], e[2] * u[1]), (-e[3] * n[0], -e[3] * n[1])]
    sim = random_similarity(rng)
    return canonicalize([sim.apply(p) for p in raw])


def random_diagonal_quad(rng: np.random.Generator, a: float | None = None,
                         b: float | None = None, orthodiagonal: bool = False,
                         rho: float | None = None) -> Quadrilateral:
    """A quad drawn from its diagonals u1 = A3 - A1 and u2 = A4 - A2, labeled
    clockwise from any vertex: A1 = P - a u1, A3 = P + (1 - a) u1,
    A2 = P - b u2 and A4 = P + (1 - b) u2 about the diagonal intersection P.

    a and b are uniform in (0.1, 0.9) unless given: b = 1/2 makes a type-1
    MDQ, a = 1/2 a type-2 MDQ, and a = 1/2 with `orthodiagonal` a kite.
    |u2| = rho |u1| when `rho` is given.
    """
    a = rng.uniform(0.1, 0.9) if a is None else a
    b = rng.uniform(0.1, 0.9) if b is None else b
    t1 = rng.uniform(0.0, 2.0 * math.pi)
    # u2 turned clockwise from u1 labels the vertices clockwise
    t2 = t1 - (0.5 * math.pi if orthodiagonal else rng.uniform(0.3, math.pi - 0.3))
    l1, l2 = rng.uniform(0.5, 3.0, size=2)
    if rho is not None:
        l2 = rho * l1
    u1 = (l1 * math.cos(t1), l1 * math.sin(t1))
    u2 = (l2 * math.cos(t2), l2 * math.sin(t2))
    px, py = rng.uniform(-3.0, 3.0, size=2)
    return quadrilateral([(px - a * u1[0], py - a * u1[1]),
                          (px - b * u2[0], py - b * u2[1]),
                          (px + (1.0 - a) * u1[0], py + (1.0 - a) * u1[1]),
                          (px + (1.0 - b) * u2[0], py + (1.0 - b) * u2[1])])


def random_parallelogram(rng: np.random.Generator,
                         max_tries: int = 1000) -> Quadrilateral:
    """Random parallelogram, bounded away from degenerate shear."""
    for _ in range(max_tries):
        a1 = (rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0))
        u = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        v = (rng.uniform(-2.0, 2.0), rng.uniform(-2.0, 2.0))
        cross = u[0] * v[1] - u[1] * v[0]
        if abs(cross) < 0.3 * math.hypot(*u) * math.hypot(*v):
            continue
        pts = [a1, (a1[0] + u[0], a1[1] + u[1]),
               (a1[0] + u[0] + v[0], a1[1] + u[1] + v[1]),
               (a1[0] + v[0], a1[1] + v[1])]
        try:
            return canonicalize(pts)
        except Exception:
            continue
    raise RuntimeError("parallelogram sampling failed")


def random_s1s3_trapezoid(rng: np.random.Generator) -> Quadrilateral:
    """A trapezoid whose sides S1 = A1A2 and S3 = A3A4 are parallel."""
    x1, x2 = sorted(rng.uniform(-3.0, 3.0, 2))
    x3, x4 = sorted(rng.uniform(-3.0, 3.0, 2))
    x2, x4 = x2 + 0.2, x4 + 0.2
    h = rng.uniform(0.1, 3.0)
    sim = random_similarity(rng)
    # top base left to right, then the bottom base right to left: clockwise
    raw = [(x3, h), (x4, h), (x2, 0.0), (x1, 0.0)]
    return quadrilateral([sim.apply(p) for p in raw])


def random_mdq_quad(rng: np.random.Generator, type1: bool = True) -> Quadrilateral:
    """Random MDQ in general position (frame pushed through a similarity)."""
    frame = random_type1_frame(rng) if type1 else random_type2_frame(rng)
    sim = random_similarity(rng)
    base = frame_quad(*frame)
    return quadrilateral([sim.apply(p) for p in base.vertices])
