"""Thin quads: diagonals whose lengths differ by up to 1e10, either one the
short one, held to a reference that searches the pencil in Decimal over
log x, x = lam / mu, on both sides of x = 1."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest

from inellipse.family import inscribe
from inellipse.minecc import min_ecc, min_ecc_numeric, verify_T3
from inellipse.quad import classify, diagonals

from sampling import random_diagonal_quad, random_thin_tangential_quad

RHOS = [10.0 ** -k for k in range(11)]

MAKERS = {
    "generic": lambda rng, rho: random_diagonal_quad(rng, rho=rho),
    "type1": lambda rng, rho: random_diagonal_quad(rng, b=0.5, rho=rho),
    "type2": lambda rng, rho: random_diagonal_quad(rng, a=0.5, rho=rho),
    "parallelogram": lambda rng, rho: random_diagonal_quad(rng, 0.5, 0.5, rho=rho),
    "tangential": random_thin_tangential_quad,
}


def reference_axis_ratio_sq(quad) -> float:
    """The largest squared axis ratio in the quad's dual pencil
    x (A1 A3' + A3 A1') + (A2 A4' + A4 A2'), found at 60 digits: a grid of
    quarter decades of x from 1e-30 to 1e30, then golden sections of log x
    about the grid's best point.  The member's shape is m m' - k M for the
    dual conic [[M, m], [m', k]], and its squared axis ratio is
    4 det / (tr + sqrt(tr^2 - 4 det))^2."""
    with localcontext() as ctx:
        ctx.prec = 60
        pts = [(Decimal(x), Decimal(y), Decimal(1)) for x, y in quad.vertices]

        def pair(p, q):
            return [[p[i] * q[j] + q[i] * p[j] for j in range(3)] for i in range(3)]

        p1, p2 = pair(pts[0], pts[2]), pair(pts[1], pts[3])

        def ratio(log_x):
            x = Decimal(10.0 ** log_x)
            c = [[x * p1[i][j] + p2[i][j] for j in range(3)] for i in range(3)]
            k = c[2][2]
            sxx = c[0][2] * c[0][2] - k * c[0][0]
            sxy = c[0][2] * c[1][2] - k * c[0][1]
            syy = c[1][2] * c[1][2] - k * c[1][1]
            tr, det = sxx + syy, sxx * syy - sxy * sxy
            return 4 * det / (tr + max(tr * tr - 4 * det, Decimal(0)).sqrt()) ** 2

        grid = [j / 4.0 for j in range(-120, 121)]
        best = max(range(len(grid)), key=lambda j: ratio(grid[j]))
        lo, hi = grid[max(best - 1, 0)], grid[min(best + 1, len(grid) - 1)]
        g = (math.sqrt(5.0) - 1.0) / 2.0
        x1, x2 = hi - g * (hi - lo), lo + g * (hi - lo)
        f1, f2 = ratio(x1), ratio(x2)
        for _ in range(60):
            if f1 < f2:
                lo, x1, f1 = x1, x2, f2
                x2 = lo + g * (hi - lo)
                f2 = ratio(x2)
            else:
                hi, x2, f2 = x2, x1, f1
                x1 = hi - g * (hi - lo)
                f1 = ratio(x1)
        return float(max(f1, f2))


def side_gap(member) -> float:
    """How far the member misses its quad's sides, in minor semi-axes: the
    largest |h(n) - dist(c, side)| over the four sides, c the centre and
    h(n) = sqrt(A^2 (n.e1)^2 + B^2 (n.e2)^2) the support function of the
    ellipse with semi-axes A, B along e1, e2, at the side's unit normal n.
    It is 0 exactly when the ellipse touches every side's line."""
    g = member.geometry
    (cx, cy), (ex, ey) = g.center, g.major_axis_direction
    v = member.quad.vertices
    gap = 0.0
    for (px, py), (qx, qy) in zip(v, v[1:] + v[:1]):
        side = math.hypot(qx - px, qy - py)
        nx, ny = (qy - py) / side, (px - qx) / side
        h = math.hypot(g.semi_major * (nx * ex + ny * ey),
                       g.semi_minor * (ny * ex - nx * ey))
        gap = max(gap, abs(h - abs(nx * (cx - px) + ny * (cy - py))))
    return gap / g.semi_minor


@pytest.mark.parametrize("kind", list(MAKERS))
def test_thin_quads_reach_the_reference(kind):
    # in both labelings, so that either diagonal is D1; every optimum, and
    # one more member per quad, touches all four sides, every MDQ's optimum
    # also passes verify_T3, and no call raises
    rng = np.random.default_rng(76)
    for rho in RHOS:
        for _ in range(6):
            quad = MAKERS[kind](rng, rho)
            ref = reference_axis_ratio_sq(quad)
            for labeled in (quad, quad.rotate_labels(1)):
                rep = classify(labeled)
                res, num = min_ecc(labeled), min_ecc_numeric(labeled)
                for got in (res, num):
                    assert abs(got.axis_ratio_sq - ref) <= 1e-9 * ref, (
                        kind, rho, labeled.vertices, got.method,
                        got.axis_ratio_sq, ref)
                for member in (res.ellipse, num.ellipse, inscribe(labeled, 0.3)):
                    assert side_gap(member) <= 1e-3, (
                        kind, rho, labeled.vertices, member.param,
                        side_gap(member))
                if rep.mdq:
                    t3 = verify_T3(res)
                    assert t3.parallel and t3.equal_len, (kind, rho, t3)


@pytest.mark.parametrize("rho", [1e-6, 1e-8, 1e-9])
def test_a_short_diagonal_is_bisected_only_at_its_midpoint(rho):
    # the MDQ flags are fractions of a diagonal, so a D2 far shorter than
    # D1, cut away from its midpoint, is not bisected, however short
    rng = np.random.default_rng(1)
    for _ in range(50):
        quad = random_diagonal_quad(rng, rho=rho)
        dd = diagonals(quad)
        assert min(abs(0.5 - dd.a), abs(0.5 - dd.b)) > 1e-5
        assert not dd.names_v
        for tol in (1e-9, 1e-5):
            rep = classify(quad, tol)
            assert not (rep.mdq_type1 or rep.mdq_type2), (tol, dd)
            assert min_ecc(quad, tol).method != "alpha_closed_form", (tol, dd)
