"""Seeded quad generators of the benchmark, independent of `inellipse.sampling`.

Every class comes from one parametrisation: the diagonal intersection P, the
directions of the two diagonals, their lengths, and the fractions f1, f2 at
which P splits D1 = A1A3 and D2 = A2A4.  Type 1 bisects D2 (f2 = 1/2),
type 2 bisects D1 (f1 = 1/2), a parallelogram bisects both, a kite has D1
as the perpendicular bisector of D2, and a rhombus is a parallelogram with
perpendicular diagonals.  Tangential quads are cut out by four tangent lines
of a circle.  Vertices are returned in cyclic order A1, A2, A3, A4; the
benchmark's reference and checks use this order.

Two kinds of corpus are drawn:

* the timed corpus (`MIXES`) holds well-conditioned quads on which every
  job completes and passes its checks: split fractions in [0.15, 0.85],
  crossing angles in [0.4, pi - 0.4], diagonal lengths within a factor
  10**0.5 of each other, parallelograms centred at the origin, and only
  quads whose (s, t, v, w) frames are admissible with a margin (`admissible`);
* the census corpus (`CENSUS_MIXES`) covers the whole convex space, thin and
  near-degenerate quads, tangential non-MDQs and parallelograms anywhere
  included.  It is never timed; its failures are counted and reported.

Apart from `admissible`, no draw is filtered: the other redraws are
geometric (tangent gaps that leave the quad unbounded) and the draws that
`canonicalize` rejects, which the caller handles.
"""

from __future__ import annotations

import math

import numpy as np

#: timed class mix per workload, in shares of the corpus (counts are rounded)
MIXES = {
    # parallelograms take the 1025-point grid, about 7x a generic job, so
    # the p99 latency falls among them
    "solve_numeric": {"generic": 0.90, "parallelogram": 0.10},
    "report_mdq": {"type1": 0.35, "type2": 0.35, "kite": 0.15, "rhombus": 0.15},
    "family_sweep": {"generic": 0.50, "type1": 0.15, "type2": 0.15,
                     "parallelogram": 0.20},
}
#: census class mix per workload: the whole convex space
CENSUS_MIXES = {
    "solve_numeric": {"generic": 0.70, "tangential": 0.15, "parallelogram": 0.15},
    "report_mdq": {"type1": 0.35, "type2": 0.30, "kite": 0.20, "parallelogram": 0.15},
    "family_sweep": {"generic": 0.50, "type1": 0.15, "type2": 0.15,
                     "parallelogram": 0.20},
}
#: smallest (t - w) / max(1, |s|, |t|, |v|, |w|) of a timed quad's frames
FRAME_MARGIN = 0.05

#: fixed stream ids, so that each corpus draws its own inputs from one seed
_STREAMS = {"solve_numeric": 1, "report_mdq": 2, "family_sweep": 3}
_CENSUS_STREAM = 10


def _fraction(rng: np.random.Generator, whole: bool) -> float:
    """Split fraction of a diagonal; in the census a quarter sit near an end."""
    if not whole:
        return rng.uniform(0.15, 0.85)
    if rng.random() < 0.25:
        f = 10.0 ** rng.uniform(-3.0, -1.0)
        return f if rng.random() < 0.5 else 1.0 - f
    return rng.uniform(0.0, 1.0)


def _crossing_angle(rng: np.random.Generator, whole: bool) -> float:
    """Angle between the diagonals; in the census a quarter give thin quads."""
    if not whole:
        return rng.uniform(0.4, math.pi - 0.4)
    if rng.random() < 0.25:
        a = 10.0 ** rng.uniform(-2.0, -1.0)
        return a if rng.random() < 0.5 else math.pi - a
    return rng.uniform(0.1, math.pi - 0.1)


def from_diagonals(p, theta1, phi, len1, len2, f1, f2):
    """Vertices A1..A4 with D1 along theta1 and D2 at angle phi from it."""
    u1 = (math.cos(theta1), math.sin(theta1))
    u2 = (math.cos(theta1 + phi), math.sin(theta1 + phi))
    a1 = (p[0] - f1 * len1 * u1[0], p[1] - f1 * len1 * u1[1])
    a3 = (p[0] + (1.0 - f1) * len1 * u1[0], p[1] + (1.0 - f1) * len1 * u1[1])
    a2 = (p[0] - f2 * len2 * u2[0], p[1] - f2 * len2 * u2[1])
    a4 = (p[0] + (1.0 - f2) * len2 * u2[0], p[1] + (1.0 - f2) * len2 * u2[1])
    return (a1, a2, a3, a4)


def _diagonal_draw(rng: np.random.Generator, cls: str, whole: bool):
    p = (rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0))
    theta1 = rng.uniform(0.0, 2.0 * math.pi)
    len1 = 10.0 ** rng.uniform(-1.0, 1.0)
    len2 = len1 * 10.0 ** (rng.uniform(-1.3, 1.3) if whole else rng.uniform(-0.5, 0.5))
    phi = _crossing_angle(rng, whole)
    f1, f2 = _fraction(rng, whole), _fraction(rng, whole)
    if cls in ("type1", "kite", "parallelogram", "rhombus"):
        f2 = 0.5
    if cls in ("type2", "parallelogram", "rhombus"):
        f1 = 0.5
    if cls in ("kite", "rhombus"):
        phi = 0.5 * math.pi
    if cls in ("parallelogram", "rhombus") and not whole:
        p = (0.0, 0.0)
    return from_diagonals(p, theta1, phi, len1, len2, f1, f2)


def _tangential_draw(rng: np.random.Generator):
    """Quad cut out by the tangents of a circle at four increasing angles."""
    while True:
        gaps = rng.dirichlet((2.0, 2.0, 2.0, 2.0)) * 2.0 * math.pi
        if gaps.max() < math.pi - 0.05:
            break
    cx, cy = rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)
    radius = 10.0 ** rng.uniform(-1.0, 1.0)
    angles = rng.uniform(0.0, 2.0 * math.pi) + np.concatenate(([0.0], np.cumsum(gaps[:3])))
    verts = []
    for i in range(4):
        gap = gaps[i]
        mid = angles[i] + 0.5 * gap
        dist = radius / math.cos(0.5 * gap)
        verts.append((cx + dist * math.cos(mid), cy + dist * math.sin(mid)))
    return tuple(verts)


def draw(rng: np.random.Generator, cls: str, whole: bool = True):
    """One quad of class `cls`, vertices in cyclic order; `whole` draws from
    the census's whole convex space, otherwise from the well-conditioned one."""
    if cls == "tangential":
        return _tangential_draw(rng)
    return _diagonal_draw(rng, cls, whole)


def lower_left_labeling(verts):
    """The vertices clockwise from the lower-left one (minimum y, then x)."""
    cx = sum(p[0] for p in verts) / 4.0
    cy = sum(p[1] for p in verts) / 4.0
    ccw = sorted(verts, key=lambda p: math.atan2(p[1] - cy, p[0] - cx))
    cw = [ccw[0]] + ccw[:0:-1]
    start = min(range(4), key=lambda i: (cw[i][1], cw[i][0]))
    return cw[start:] + cw[:start]


def frame(labeled):
    """(s, t, v, w): A3 and A4 after the similarity taking A1 to (0, 0) and A2 to (0, 1)."""
    a1, a2, a3, a4 = labeled
    ux, uy = a2[0] - a1[0], a2[1] - a1[1]
    norm_sq = ux * ux + uy * uy

    def image(p):
        x, y = p[0] - a1[0], p[1] - a1[1]
        return ((uy * x - ux * y) / norm_sq, (ux * x + uy * y) / norm_sq)
    return image(a3) + image(a4)


def admissible(verts) -> bool:
    """Whether both frames the library solves in are admissible with a margin.

    The library labels a quad clockwise from its lower-left vertex and solves
    in that labeling's (s, t, v, w) frame, or, for a type-2 MDQ, in the frame
    of the labeling shifted by one vertex.  A frame needs t > w, and the
    library raises `ParamOutOfRegion` for a frame without it instead of
    relabeling, so the timed corpus keeps only quads with t - w above
    FRAME_MARGIN (scaled) in both frames.  The census keeps the rest.
    """
    labeled = lower_left_labeling(verts)
    for shift in (0, 1):
        s, t, v, w = frame(labeled[shift:] + labeled[:shift])
        if t - w < FRAME_MARGIN * max(1.0, abs(s), abs(t), abs(v), abs(w)):
            return False
    return True


def class_counts(mix: dict[str, float], size: int) -> dict[str, int]:
    """Fixed number of quads per class; the rounding remainder goes to the first."""
    counts = {cls: int(round(share * size)) for cls, share in mix.items()}
    first = next(iter(mix))
    counts[first] += size - sum(counts.values())
    return counts


def build(workload: str, seed: int, size: int, accept, census: bool = False):
    """Seeded corpus of `size` (class, vertices, accepted) entries in shuffled order.

    `accept(vertices)` returns the accepted input object (the library's
    quadrilateral), or None to have the draw redrawn.  The timed corpus
    (`census` false) also redraws quads that are not `admissible`; the
    census corpus comes from its own stream.  Same seed, same corpus.
    """
    mix = (CENSUS_MIXES if census else MIXES)[workload]
    stream = _STREAMS[workload] + (_CENSUS_STREAM if census else 0)
    rng = np.random.default_rng([seed, stream])
    items = []
    for cls, count in class_counts(mix, size).items():
        for _ in range(count):
            while True:
                verts = draw(rng, cls, whole=census)
                if not census and cls not in ("parallelogram", "rhombus") \
                        and not admissible(verts):
                    continue
                accepted = accept(verts)
                if accepted is not None:
                    items.append((cls, verts, accepted))
                    break
    order = rng.permutation(len(items))
    return [items[i] for i in order]
