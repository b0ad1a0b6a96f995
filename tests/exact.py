"""The pencil in exact arithmetic, the tests' proof of T1 and T2 as identities.

Notation as in `inellipse.family`, at unit scale (the quad's diameter D = 1;
every identity below is homogeneous in D).  The diagonals meet at P, with

    A1 = P - a u1,  A3 = P + (1 - a) u1,  A2 = P - b u2,  A4 = P + (1 - b) u2,

0 < a, b < 1, u x v = ux vy - uy vx, X = u1 x u2 != 0, the midpoint defects
p = 1/2 - a, q = 1/2 - b, and al = a(1 - a), be = b(1 - b).  The member at
the weights lam, mu = 1 - lam > 0 has the shape

    S = f1 u1u1' + f2 u2u2' + f12 (u1u2' + u2u1'),
    f1 = lam (lam p^2 + al),  f2 = mu (mu q^2 + be),  f12 = lam mu p q,

and touches S1..S4 at the weighted means of their vertices that
`family._inscribed` names (lam on A1 or A3, mu on A2 or A4):

    q1 = (lam b A1 + mu a A2) / W1,               W1 = lam b + mu a,
    q2 = (mu (1 - a) A2 + lam b A3) / W2,         W2 = lam b + mu (1 - a),
    q3 = (lam (1 - b) A3 + mu (1 - a) A4) / W3,   W3 = lam (1 - b) + mu (1 - a),
    q4 = (mu a A4 + lam (1 - b) A1) / W4,         W4 = lam (1 - b) + mu a.

T1.  On 2x2 symmetric matrices the adjugate, adj [[x, y], [y, z]] =
[[z, -y], [-y, x]], is linear, with adj(w w') = w+ w+' for the turned
vector w+ = (-wy, wx) and adj(u1u2' + u2u1') = u1+ u2+' + u2+ u1+'.  As
v . w+ = w x v,

    u1' adj(S) u2 = f1 (u1 x u1)(u1 x u2) + f2 (u2 x u1)(u2 x u2)
                    + f12 ((u1 x u1)(u2 x u2) + (u2 x u1)(u1 x u2))
                  = -lam mu p q X^2.

The member's quadratic part is adj(S) / det S, det S > 0, so the direction
conjugate to D1, (adj(S) u1)+, crosses u2 as -u1' adj(S) u2: it is parallel
to D2 on one member iff on every member iff p q = 0, that is on an MDQ.

T2.  With P at the origin (a cross of two differences does not read it),

    q1 = -a b (lam u1 + mu u2) / W1,          q2 = b (1 - a)(lam u1 - mu u2) / W2,
    q3 = (1 - a)(1 - b)(lam u1 + mu u2) / W3, q4 = a (1 - b)(mu u2 - lam u1) / W4.

Crossed with u2 a contact keeps its u1 part times lam X, and crossed with
u1 its u2 part times -mu X.  Over the common denominator each numerator is
one combination of weight sums: (1 - b) W2 - b W3 = mu (1 - a)(1 - 2b),
(1 - b) W1 - b W4 = mu a (1 - 2b), (1 - a) W1 - a W2 = lam b (1 - 2a) and
a W3 - (1 - a) W4 = lam (1 - b)(2a - 1).  So

    (q3 - q2) x u2 = lam mu (1 - a)^2 (1 - 2b) X / (W2 W3),
    (q4 - q1) x u2 = lam mu a^2 (2b - 1) X / (W1 W4),
    (q2 - q1) x u1 = lam mu b^2 (1 - 2a) X / (W1 W2),
    (q4 - q3) x u1 = lam mu (1 - b)^2 (1 - 2a) X / (W3 W4),

each over a product of two positive weight sums: the chords q2q3 and q1q4
are parallel to D2 on one member iff on every member iff q = 0 (type 1),
and q1q2 and q3q4 are parallel to D1 iff p = 0 (type 2).

The proof on one quad.  With mu = 1 - lam, f1, f2 and f12 are polynomials
in lam of degree at most 2, and each Wi and each Wi qi of degree at most 1.
So u1' adj(S) u2, and each chord's cross times its two weight sums
((q3 - q2) x u2 W2 W3 = (W3 q3 x u2) W2 - (W2 q2 x u2) W3 and so on), is
a polynomial in lam of degree at most `DEGREE`, as is each right-hand side.
Two such polynomials that agree at `DEGREE` + 1 distinct values of lam are
equal, so checking both identities exactly at that many values proves them
for every member of that quad.

In integers.  The functions below take a = A/N, b = B/N and lam = L/N over
one denominator N, mu = M/N with M = N - L, and integer P, u1 and u2 (each
identity is homogeneous in P, u1 and u2, so integer vectors lose nothing).
Then 4 N^4 S, N Ai, N^2 times each weight, N^2 Wi and N^3 Wi qi are
integers: with 2 N p = N - 2A and 2 N q = N - 2B,

    4 N^4 f1 = L (L (N - 2A)^2 + 4 N A (N - A)),
    4 N^4 f2 = M (M (N - 2B)^2 + 4 N B (N - B)),  4 N^4 f12 = L M (N - 2A)(N - 2B).

T1 times 4 N^4 and T2 times N^5 are then identities between integers,
which Python checks exactly and about 20 times faster than the same sums in
`fractions.Fraction`:

    u1' adj(4 N^4 S) u2 = -L M (N - 2A)(N - 2B) X^2,
    N^5 (q3 - q2) x u2 W2 W3 = L M (N - A)^2 (N - 2B) X, and so on.

The incircle is the T3 root.  A tangential quad's incircle is inscribed,
so it is a member of the pencil, and it is the member centred at the
circle's centre O: the centre c = lam M1 + mu M2 runs once along the open
segment M1M2, so no other member has centre O.  In the ratio x = lam / mu,
`_critical_quartic`'s T3 condition, that the diameters along u1 and u2 have
equal length, |u1|^2 k1 = |u2|^2 k2 with k1 = lam (lam p^2 + al) and
k2 = mu (mu q^2 + be), is over mu^2 (writing al = al (lam + mu) and
be = be (lam + mu))

    T(x) = |u1|^2 (p^2 + al) x^2 + (|u1|^2 al - |u2|^2 be) x
           - |u2|^2 (q^2 + be) = 0.

A circle has equal diameters in every direction, so the incircle's ratio
x* satisfies T.  T's leading coefficient is positive and its constant term
negative, so its roots have a negative product: x* is its one positive
root, the member the closed form returns on an MDQ and the start of the
numeric solve on every quad.  The numeric solve's quartic vanishes there
too: H = det S / (tr S)^2 = k / (1 + k)^2 <= 1/4 for the squared axis
ratio k, with equality only at k = 1, so the circle is H's maximum, where
its derivative and the quartic N' t - 2 N t' (`_critical_quartic`) vanish.
Each coefficient of T and of the quartic is homogeneous in |u1|^2, |u2|^2
and u1 . u2, so the unscaled diagonals A3 - A1 and A4 - A2 give the same
roots as the unit-scale u1 and u2.

In rationals.  The tangent line of the unit circle at the rational point
((1 - m^2) / (1 + m^2), 2m / (1 + m^2)) is t . X = 1, and four of them,
in increasing angle with each turn between consecutive points below pi,
meet consecutively in the vertices of a tangential quad with rational
vertices and O the origin.  Its pencil is rational, so is x*, found from
lam M1 + mu M2 = 0, and T(x*) = 0, the quartic at x* and S(x*) a multiple
of I are identities that `fractions.Fraction` checks exactly.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

Vec = tuple[int, int]

#: the largest degree in lam of either side of each identity, cleared of
#: its weight sums
DEGREE = 2

#: the four tangency chords: their ends' indices in q1..q4, and the diagonal
#: each is crossed with (0 for u1, 1 for u2)
CHORDS = {"q2q3": (1, 2, 1), "q1q4": (0, 3, 1), "q1q2": (0, 1, 0), "q3q4": (2, 3, 0)}


class Pencil(NamedTuple):
    """A quad's pencil, as `quad.DiagonalData` holds it, in integers: P, u1
    and u2, and the fractions a = A / N and b = B / N of D1 and D2."""

    p: Vec
    u1: Vec
    u2: Vec
    n: int
    a: int
    b: int


def cross(u: Vec, v: Vec) -> int:
    return u[0] * v[1] - u[1] * v[0]


def vertices(pen: Pencil) -> tuple[Vec, Vec, Vec, Vec]:
    """N A1..N A4 = N P - A u1, N P - B u2, N P + (N - A) u1, N P + (N - B) u2."""
    (px, py), (x1, y1), (x2, y2), n, a, b = pen
    return ((n * px - a * x1, n * py - a * y1), (n * px - b * x2, n * py - b * y2),
            (n * px + (n - a) * x1, n * py + (n - a) * y1),
            (n * px + (n - b) * x2, n * py + (n - b) * y2))


def shape(pen: Pencil, lam: int) -> tuple[int, int, int]:
    """4 N^4 S's entries (Sxx, Sxy, Syy) at the weights L = `lam` and N - L."""
    _, (x1, y1), (x2, y2), n, a, b = pen
    mu, p, q = n - lam, n - 2 * a, n - 2 * b
    f1 = lam * (lam * p * p + 4 * n * a * (n - a))
    f2 = mu * (mu * q * q + 4 * n * b * (n - b))
    f12 = lam * mu * p * q
    return (f1 * x1 * x1 + f2 * x2 * x2 + 2 * f12 * x1 * x2,
            f1 * x1 * y1 + f2 * x2 * y2 + f12 * (x1 * y2 + y1 * x2),
            f1 * y1 * y1 + f2 * y2 * y2 + 2 * f12 * y1 * y2)


def adjugate_form(s: tuple[int, int, int], u: Vec, v: Vec) -> int:
    """u' adj(S) v, adj(S) = [[Syy, -Sxy], [-Sxy, Sxx]]."""
    sxx, sxy, syy = s
    return syy * u[0] * v[0] - sxy * (u[0] * v[1] + u[1] * v[0]) + sxx * u[1] * v[1]


def contacts(pen: Pencil, lam: int) -> tuple[tuple[Vec, ...], tuple[int, ...]]:
    """N^3 Wi qi for the contacts q1..q4 at the weights L = `lam` and N - L,
    each its side's vertices summed with the weights, and N^2 W1..N^2 W4."""
    v1, v2, v3, v4 = vertices(pen)
    mu, n, a, b = pen.n - lam, pen.n, pen.a, pen.b
    sides = ((v1, lam * b, v2, mu * a), (v2, mu * (n - a), v3, lam * b),
             (v3, lam * (n - b), v4, mu * (n - a)), (v4, mu * a, v1, lam * (n - b)))
    return (tuple((wi * xi + wj * xj, wi * yi + wj * yj)
                  for (xi, yi), wi, (xj, yj), wj in sides),
            tuple(wi + wj for _, wi, _, wj in sides))


def chord_crosses(pen: Pencil, lam: int) -> dict[str, int]:
    """N^5 (qj - qi) x u Wi Wj for each chord qi qj and its diagonal u, by name."""
    (qs, ws), units = contacts(pen, lam), (pen.u1, pen.u2)
    out = {}
    for name, (i, j, k) in CHORDS.items():
        (xi, yi), (xj, yj), (ux, uy) = qs[i], qs[j], units[k]
        dx, dy = xj * ws[i] - xi * ws[j], yj * ws[i] - yi * ws[j]
        out[name] = dx * uy - dy * ux
    return out


def t1_closed_form(pen: Pencil, lam: int) -> int:
    """-L M (N - 2A)(N - 2B) X^2, which u1' adj(4 N^4 S) u2 equals."""
    x, n = cross(pen.u1, pen.u2), pen.n
    return -lam * (n - lam) * (n - 2 * pen.a) * (n - 2 * pen.b) * x * x


def t2_closed_forms(pen: Pencil, lam: int) -> dict[str, int]:
    """`chord_crosses` in closed form: L M X times (N - A)^2 (N - 2B),
    A^2 (2B - N), B^2 (N - 2A) and (N - B)^2 (N - 2A)."""
    n, a, b = pen.n, pen.a, pen.b
    k = lam * (n - lam) * cross(pen.u1, pen.u2)
    return {"q2q3": k * (n - a) ** 2 * (n - 2 * b), "q1q4": k * a * a * (2 * b - n),
            "q1q2": k * b * b * (n - 2 * a), "q3q4": k * (n - b) ** 2 * (n - 2 * a)}


FVec = tuple[Fraction, Fraction]


def tangent_point(m: Fraction) -> FVec:
    """The unit circle's point ((1 - m^2) / (1 + m^2), 2m / (1 + m^2)), at
    the angle 2 atan(m)."""
    return (1 - m * m) / (1 + m * m), 2 * m / (1 + m * m)


def circumscribed(ms: list[Fraction]) -> tuple[FVec, ...] | None:
    """The tangential quad whose sides touch the unit circle at the points
    of the increasing slopes `ms`, counterclockwise, its vertex i where the
    tangent lines at points i and i + 1 meet; None unless each turn between
    consecutive points is below pi."""
    ts = [tangent_point(m) for m in ms]
    out = []
    for (x0, y0), (x1, y1) in zip(ts, ts[1:] + ts[:1]):
        det = x0 * y1 - y0 * x1  # the sine of the turn, > 0 below pi
        if det <= 0:
            return None
        out.append(((y1 - y0) / det, (x0 - x1) / det))  # t0 . X = t1 . X = 1
    return tuple(out)


def fraction_pencil(verts: tuple[FVec, ...]) -> tuple[FVec, FVec, Fraction, Fraction]:
    """The unscaled diagonals u1 = A3 - A1 and u2 = A4 - A2 and the fractions
    a and b at which they cross, A1 + a u1 = A2 + b u2, as `quad` computes them."""
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = verts
    u1, u2, e = (x3 - x1, y3 - y1), (x4 - x2, y4 - y2), (x2 - x1, y2 - y1)
    x = cross(u1, u2)
    return u1, u2, cross(e, u2) / x, cross(e, u1) / x


def centred_ratio(verts: tuple[FVec, ...]) -> Fraction | None:
    """The ratio x = lam / mu of the member centred at the origin,
    lam M1 + mu M2 = 0, or None if the diagonal midpoints M1 and M2 are
    not on opposite sides of the origin on one line."""
    a1, a2, a3, a4 = verts
    m1 = ((a1[0] + a3[0]) / 2, (a1[1] + a3[1]) / 2)
    m2 = ((a2[0] + a4[0]) / 2, (a2[1] + a4[1]) / 2)
    k = 0 if m1[0] != m2[0] else 1
    if m1[k] == m2[k]:
        return None
    lam = m2[k] / (m2[k] - m1[k])
    if not 0 < lam < 1 or lam * m1[1 - k] + (1 - lam) * m2[1 - k] != 0:
        return None
    return lam / (1 - lam)


def t3_quadratic(u1: FVec, u2: FVec, a: Fraction, b: Fraction, x: Fraction) -> Fraction:
    """T(x) = |u1|^2 (p^2 + al) x^2 + (|u1|^2 al - |u2|^2 be) x - |u2|^2 (q^2 + be)."""
    n1, n2 = u1[0] ** 2 + u1[1] ** 2, u2[0] ** 2 + u2[1] ** 2
    p, q, al, be = Fraction(1, 2) - a, Fraction(1, 2) - b, a * (1 - a), b * (1 - b)
    return n1 * (p * p + al) * x * x + (n1 * al - n2 * be) * x - n2 * (q * q + be)


def critical_quartic(u1: FVec, u2: FVec, a: Fraction,
                     b: Fraction) -> tuple[Fraction, ...]:
    """q0..q4 of N' t - 2 N t' in x, `minecc._critical_quartic`'s formulas
    in Fractions: N = x (1 + x)(l1 x + l0), t = t2 x^2 + t1 x + t0."""
    (x1, y1), (x2, y2) = u1, u2
    n1, n2, c = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2, x1 * x2 + y1 * y2
    p, q, al, be = Fraction(1, 2) - a, Fraction(1, 2) - b, a * (1 - a), b * (1 - b)
    l0, l1 = al * (q * q + be), be * (p * p + al)
    t0, t1, t2 = n2 * (q * q + be), n1 * al + n2 * be + 2 * c * p * q, n1 * (p * p + al)
    return (l0 * t0, 2 * (l0 + l1) * t0 - l0 * t1, 3 * (l1 * t0 - l0 * t2),
            l1 * t1 - 2 * (l0 + l1) * t2, -l1 * t2)

