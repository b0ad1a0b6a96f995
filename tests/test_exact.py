"""T1 and T2 as identities in the pencil, proved quad by quad in exact arithmetic.

`exact`'s docstring derives both.  Each test draws rational pencils of one
class and checks the identity at `exact.DEGREE` + 1 distinct rational
weights, which proves it for every member of the drawn quad.  The last two
tests tie `exact`'s integers to the pencil in `Fraction`s and to the
package's float member, T1 margin and T2 margins.
"""

import math
import random
from fractions import Fraction

import pytest

from inellipse.diameters import check_T2
from inellipse.family import _inscribed
from inellipse.quad import quadrilateral

from conics import t1_margin
from exact import (CHORDS, DEGREE, Pencil, adjugate_form, chord_crosses, contacts,
                   cross, shape, t1_closed_form, t2_closed_forms, vertices)

DRAWS = 1000
CLASSES = ("generic", "type1", "type2", "parallelogram", "thin")


def _numerator(rng: random.Random, n: int) -> int:
    """k in [1, n - 1] with k / n != 1/2."""
    k = rng.randint(1, n - 1)
    return k + 1 if 2 * k == n else k


def _vector(rng: random.Random, m: int) -> tuple[int, int]:
    return rng.randint(-m, m), rng.randint(-m, m)


def draw(rng: random.Random, kind: str) -> Pencil:
    """A pencil of the class `kind` over an even denominator N, its diagonals
    crossing and P up to 10^8 of its size from the origin.  A thin one has
    fractions 1e-12 to 1e-3 from 0 or 1, a D2 1e-12 to 1e-3 as long as D1,
    and diagonals 1e-12 to 1e-3 rad from parallel."""
    n = 2 * rng.randint(2, 10**6)
    a, b = _numerator(rng, n), _numerator(rng, n)
    u1 = u2 = (0, 0)
    while cross(u1, u2) == 0:
        u1, u2 = _vector(rng, 10**6), _vector(rng, 10**6)
    if kind in ("type1", "parallelogram"):
        b = n // 2
    if kind in ("type2", "parallelogram"):
        a = n // 2
    if kind == "thin":
        n = 2 * 10**12
        a, b = (n // 10**rng.randint(3, 12) for _ in range(2))
        a, b = (n - a if rng.random() < 0.5 else a), (n - b if rng.random() < 0.5 else b)
        # u2 = 10^-short (u1 + 10^-tilt u1 turned), in integers
        tilt, short, (x, y) = rng.randint(3, 12), rng.randint(3, 12), u1
        u1 = (10**(tilt + short) * x, 10**(tilt + short) * y)
        u2 = (10**tilt * x - y, 10**tilt * y + x)
    size = max(map(abs, u1 + u2))
    return Pencil(_vector(rng, 10**rng.randint(0, 8) * size), u1, u2, n, a, b)


def _weights(rng: random.Random, n: int) -> list[int]:
    """`DEGREE` + 1 distinct weights L in [1, N - 1], lam = L / N."""
    lams = set()
    while len(lams) < DEGREE + 1:
        lams.add(_numerator(rng, n) if rng.random() < 0.9 else n // 2)
    return sorted(lams)


@pytest.mark.parametrize("kind", CLASSES)
def test_t1_is_the_product_of_the_midpoint_defects(kind):
    # u1' adj(S) u2 = -lam mu p q X^2 on every member: zero on all of them
    # exactly on an MDQ
    rng = random.Random(f"t1 {kind}")
    for i in range(DRAWS):
        pen = draw(rng, kind)
        for lam in _weights(rng, pen.n):
            value = adjugate_form(shape(pen, lam), pen.u1, pen.u2)
            assert value == t1_closed_form(pen, lam), (i, pen, lam)
            assert (value == 0) is (kind not in ("generic", "thin")), (i, pen)


@pytest.mark.parametrize("kind", CLASSES)
def test_t2_chords_carry_the_midpoint_defects(kind):
    # each chord's cross with its diagonal carries 1 - 2b (with D2) or
    # 1 - 2a (with D1): zero on every member exactly on the MDQ type
    rng = random.Random(f"t2 {kind}")
    zero = {"generic": set(), "thin": set(), "type1": {"q2q3", "q1q4"},
            "type2": {"q1q2", "q3q4"}, "parallelogram": set(CHORDS)}[kind]
    for i in range(DRAWS):
        pen = draw(rng, kind)
        for lam in _weights(rng, pen.n):
            crosses = chord_crosses(pen, lam)
            assert crosses == t2_closed_forms(pen, lam), (i, pen, lam)
            assert {name for name, c in crosses.items() if c == 0} == zero, (i, pen)


def _fraction_member(pen: Pencil, lam: Fraction):
    """S's entries and the contacts q1..q4 with their weight sums, in
    Fractions, as `family`'s docstring and `_inscribed` build them."""
    (px, py), (x1, y1), (x2, y2) = pen.p, pen.u1, pen.u2
    a, b, mu = Fraction(pen.a, pen.n), Fraction(pen.b, pen.n), 1 - lam
    p, q = Fraction(1, 2) - a, Fraction(1, 2) - b
    f1, f2 = lam * (lam * p * p + a * (1 - a)), mu * (mu * q * q + b * (1 - b))
    f12 = lam * mu * p * q
    s = (f1 * x1 * x1 + f2 * x2 * x2 + 2 * f12 * x1 * x2,
         f1 * x1 * y1 + f2 * x2 * y2 + f12 * (x1 * y2 + y1 * x2),
         f1 * y1 * y1 + f2 * y2 * y2 + 2 * f12 * y1 * y2)
    a1, a3 = (px - a * x1, py - a * y1), (px + (1 - a) * x1, py + (1 - a) * y1)
    a2, a4 = (px - b * x2, py - b * y2), (px + (1 - b) * x2, py + (1 - b) * y2)
    sides = ((a1, lam * b, a2, mu * a), (a2, mu * (1 - a), a3, lam * b),
             (a3, lam * (1 - b), a4, mu * (1 - a)), (a4, mu * a, a1, lam * (1 - b)))
    qs = tuple(((wi * xi + wj * xj) / (wi + wj), (wi * yi + wj * yj) / (wi + wj))
               for (xi, yi), wi, (xj, yj), wj in sides)
    return s, qs, tuple(wi + wj for _, wi, _, wj in sides)


@pytest.mark.parametrize("kind", CLASSES)
def test_integers_are_the_fraction_pencil_cleared_of_denominators(kind):
    # 4 N^4 S, N^3 Wi qi and N^2 Wi from `exact` are the pencil's S, contacts
    # and weight sums in Fractions times those powers of N, and T1 holds in
    # Fractions as it does in integers
    rng = random.Random(f"fractions {kind}")
    for i in range(40):
        pen = draw(rng, kind)
        n = pen.n
        for lam in _weights(rng, n):
            s, qs, ws = _fraction_member(pen, Fraction(lam, n))
            assert shape(pen, lam) == tuple(4 * n**4 * x for x in s), (i, pen)
            int_qs, int_ws = contacts(pen, lam)
            assert int_ws == tuple(n * n * w for w in ws), (i, pen)
            assert int_qs == tuple((n**3 * w * x, n**3 * w * y)
                                   for w, (x, y) in zip(ws, qs)), (i, pen)
            assert adjugate_form(s, pen.u1, pen.u2) == Fraction(
                t1_closed_form(pen, lam), 4 * n**4), (i, pen)


@pytest.mark.parametrize("kind", ["generic", "type1", "type2", "parallelogram"])
def test_package_member_and_margins_match_the_exact_pencil(kind):
    # the package's member at the same weights, on the float copy of the
    # vertices of a quad near the origin, has the exact contacts to 1e-12 of
    # the quad's extent and the exact unit-scale shape to 1e-12 of S's
    # largest entry; its T1 margin, a sine read off rounded directions, is
    # lam mu |p q| X^2 / (|adj(S) u1| |u2|) to 1e-12 / sin^2 of the angle
    # between the diagonals (measured: at most 8.5e-14 / sin^2); each of
    # `check_T2`'s margins, the sine between a chord and its diagonal, is
    # the exact one to 1e-12 (measured: at most 2e-13)
    rng = random.Random(f"float {kind}")
    for i in range(200):
        pen = draw(rng, kind)
        pen = pen._replace(p=_vector(rng, max(map(abs, pen.u1 + pen.u2))))
        if cross(pen.u1, pen.u2) > 0:  # A2 and A4 swap: clockwise, as the package labels
            pen = pen._replace(u2=(-pen.u2[0], -pen.u2[1]), b=pen.n - pen.b)
        (x1, y1), (x2, y2), n, lam = pen.u1, pen.u2, pen.n, _numerator(rng, pen.n)
        quad = quadrilateral([(float(Fraction(x, n)), float(Fraction(y, n)))
                              for x, y in vertices(pen)])
        (qs, ws), s = contacts(pen, lam), shape(pen, lam)
        member = _inscribed(quad, quad._diagonals, lam / n, (n - lam) / n,
                            (n - lam) * pen.a / ((n - lam) * pen.a + lam * pen.b), 0.5)
        extent = max(abs(x) for v in quad.vertices for x in v)
        for got, (x, y), w in zip(member.tangency, qs, ws):
            want = (float(Fraction(x, n * w)), float(Fraction(y, n * w)))
            assert math.dist(got, want) <= 1e-12 * extent, (i, pen)
        unit = 4 * n**4 * Fraction(quad.diameter()) ** 2
        want = [float(Fraction(x) / unit) for x in (s[0], 2 * s[1], s[2])]
        top = max(map(abs, want))
        for got, w in zip(member.shape, want):
            assert abs(got - w) <= 1e-12 * top, (i, pen)
        wx, wy = s[2] * x1 - s[1] * y1, s[0] * y1 - s[1] * x1  # adj(4 N^4 S) u1
        n1, n2 = x1 * x1 + y1 * y1, x2 * x2 + y2 * y2
        exact = math.sqrt(Fraction(t1_closed_form(pen, lam) ** 2,
                                   (wx * wx + wy * wy) * n2))
        sin_sq = Fraction(cross(pen.u1, pen.u2) ** 2, n1 * n2)
        assert abs(t1_margin(quad, member.adjugate) - exact) <= 1e-12 / sin_sq, (i, pen)
        t2 = check_T2(quad, member)
        for name, (j, k, d) in CHORDS.items():
            (xj, yj), (xk, yk), (ux, uy) = qs[j], qs[k], (pen.u1, pen.u2)[d]
            dx, dy = xk * ws[j] - xj * ws[k], yk * ws[j] - yj * ws[k]
            exact = math.sqrt(Fraction((dx * uy - dy * ux) ** 2,
                                       (dx * dx + dy * dy) * (ux * ux + uy * uy)))
            got = (t2.margins_d1, t2.margins_d2)[d][name]
            assert abs(got - exact) <= 1e-12, (i, pen, name)
