"""Affine maps on points, quads, conics and directions; the paper's frame reduction.

`normalize_to_qstvw` reduces a convex quad, parallelograms included, to the
paper's (s,t,v,w) frame by a similarity only (translation, rotation,
uniform positive scaling), sending A1 to (0,0) and A2 to (0,1);
similarities preserve eccentricity.  The only frame choice is a cyclic
label shift k (frame A_i is the original A_(i+k)); the returned `shift`
records it.  An odd shift swaps the roles of the two diagonals, so a
type-2 MDQ is a type-1 MDQ in the labeling shifted by one vertex.  The
frame is the paper's coordinate system: the tests check the dual pencil of
`inellipse.family` against it, and the CLI's min-ecc report of a type-1
MDQ gives the paper's root `alpha_root` in it; no solver reduces a quad to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from .conic import ConicCoeffs, Direction, Point, scale_normalized
from .errors import SingularMap, ParamOutOfRegion
from .quad import Quadrilateral, canonicalize, check_qstvw_region

Matrix2 = tuple[tuple[float, float], tuple[float, float]]


@dataclass(frozen=True)
class AffineMap:
    """x -> linear @ x + translation with invertible linear part."""

    linear: Matrix2
    translation: Point

    def __post_init__(self):
        (m00, m01), (m10, m11) = self.linear
        k = max(abs(m00), abs(m01), abs(m10), abs(m11))
        # det over k^2, taken on the entries over k so that neither overflows
        if k == 0.0 or abs(m00 / k * (m11 / k) - m01 / k * (m10 / k)) <= 1e-12:
            raise SingularMap(f"linear part {self.linear} is singular")

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


class QstvwFrame(NamedTuple):
    map: AffineMap
    s: float
    t: float
    v: float
    w: float
    shift: int

    @property
    def scale(self) -> float:
        """Uniform length contraction applied by the similarity."""
        (m00, m01), (m10, m11) = self.map.linear
        return math.hypot(m00, m10)


def _similarity_map(quad: Quadrilateral) -> AffineMap:
    a1, a2 = quad.a1, quad.a2
    n = math.hypot(a2[0] - a1[0], a2[1] - a1[1])
    # rotate A1A2 onto the +y axis, then scale it to unit length (divided by
    # |A1A2| twice, as its square can overflow or underflow)
    ux, uy = (a2[0] - a1[0]) / n / n, (a2[1] - a1[1]) / n / n
    lin = ((uy, -ux), (ux, uy))
    return AffineMap(lin, (-(lin[0][0] * a1[0] + lin[0][1] * a1[1]),
                           -(lin[1][0] * a1[0] + lin[1][1] * a1[1])))


def normalize_to_qstvw(quad: Quadrilateral) -> QstvwFrame:
    """Similarity reduction to the frame with vertices (0,0),(0,1),(s,t),(v,w).

    The similarity preserves eccentricities of inscribed ellipses.  The
    frame is the first admissible one among the label shifts 0, 2, 1, 3;
    even shifts come first because they keep each diagonal's role, so a
    type-1 frame stays type 1.  A shift is inadmissible when t <= w; s = v
    (S1 || S3) is admissible, so a parallelogram always gets its shift-0
    frame (s, t, s, t - 1).  A trapezoid whose parallel pair is S2/S4 yields
    f3 = 0 in its admissible frames, which are returned too: the inscribed
    family is still well defined, and only `N_factorization`, which divides
    by f3, rejects them.
    """
    first_error = None
    for shift in (0, 2, 1, 3):
        labeled = quad.rotate_labels(shift)
        m = _similarity_map(labeled)
        (s, t), (v, w) = m.apply(labeled.a3), m.apply(labeled.a4)
        try:
            check_qstvw_region(s, t, v, w)
        except ParamOutOfRegion as exc:
            first_error = first_error or exc
            continue
        return QstvwFrame(m, s, t, v, w, shift)
    raise first_error
