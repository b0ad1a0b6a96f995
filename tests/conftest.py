"""Shared fixtures and numeric oracles for the test suite."""

import math

import pytest
from hypothesis import settings

from inellipse.conic import ConicCoeffs
from inellipse.quad import Quadrilateral, canonicalize

from conics import evaluate, gradient

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")

# the worked example used throughout: a type-1 MDQ with small-integer vertices
EXAMPLE_VERTICES = [(0.0, 0.0), (0.0, 1.0), (8.0, 4.0), (6.0, 2.0)]
EXAMPLE_CONIC = ConicCoeffs(33.0, -148.0, 196.0, 28.0, -168.0, 36.0)
EXAMPLE_R = 3.0 / 7.0

SQRT41 = math.sqrt(41.0)
EXAMPLE_R_STAR = -1.5 + (27.0 / 82.0) * SQRT41
EXAMPLE_EQUAL_LEN_SQ = (37.0 / 5.0) * (61.0 - 9.0 * SQRT41)
EXAMPLE_MIN_CONIC = ConicCoeffs(
    3.0 * (427.0 - 63.0 * SQRT41),
    8.0 * (-793.0 + 117.0 * SQRT41),
    164.0 * (61.0 - 9.0 * SQRT41),
    4.0 * (-2911.0 + 459.0 * SQRT41),
    24.0 * (2911.0 - 459.0 * SQRT41),
    36.0 * (3521.0 - 549.0 * SQRT41))


@pytest.fixture
def example_quad() -> Quadrilateral:
    return canonicalize(EXAMPLE_VERTICES)


def assert_points_close(p, q, tol=1e-10):
    assert math.dist(p, q) <= tol, f"{p} != {q} (dist {math.dist(p, q)})"


def segment_param(point, seg_p, seg_q):
    """Projection parameter of `point` along the segment, plus its offset."""
    ux, uy = seg_q[0] - seg_p[0], seg_q[1] - seg_p[1]
    nn = ux * ux + uy * uy
    lam = ((point[0] - seg_p[0]) * ux + (point[1] - seg_p[1]) * uy) / nn
    perp = abs((point[0] - seg_p[0]) * uy - (point[1] - seg_p[1]) * ux) / math.sqrt(nn)
    return lam, perp


def assert_tangent_at(conic, point, seg_p, seg_q, scale, tol=1e-9):
    """The tangency oracle: on the conic, gradient normal to the side, interior."""
    coeff_scale = max(abs(x) for x in conic)
    assert abs(evaluate(conic, point)) <= tol * coeff_scale * scale * scale
    gx, gy = gradient(conic, point)
    sx, sy = seg_q[0] - seg_p[0], seg_q[1] - seg_p[1]
    dot = abs(gx * sx + gy * sy)
    assert dot <= tol * math.hypot(gx, gy) * math.hypot(sx, sy)
    lam, perp = segment_param(point, seg_p, seg_q)
    assert 0.0 < lam < 1.0, f"tangency at {point} outside its side"
    assert perp <= tol * scale


def diagonal_midpoints(quad):
    """(M1, M2), the midpoints of D1 = A1A3 and D2 = A2A4: the Newton segment."""
    a1, a2, a3, a4 = quad.vertices
    return ((0.5 * (a1[0] + a3[0]), 0.5 * (a1[1] + a3[1])),
            (0.5 * (a2[0] + a4[0]), 0.5 * (a2[1] + a4[1])))


def assert_on_open_segment(point, seg_p, seg_q, tol=1e-9):
    lam, perp = segment_param(point, seg_p, seg_q)
    scale = math.dist(seg_p, seg_q)
    assert tol < lam < 1.0 - tol, f"{point} not strictly inside the segment"
    assert perp <= tol * max(scale, 1.0)


def assert_inscribed(ie, tol=1e-9):
    """Full inscription oracle for an InscribedEllipse."""
    quad = ie.quad
    scale = quad.diameter()
    v = quad.vertices
    sides = ((v[0], v[1]), (v[1], v[2]), (v[2], v[3]), (v[3], v[0]))
    for point, (p, q) in zip(ie.tangency, sides):
        assert_tangent_at(ie.conic, point, p, q, scale, tol)


def centered_form_conic(s, t, q):
    """Independent route to the (s,t) family conic: expand the centered form
    (x-h)^2 + B(x-h)(y-L) + C(y-L)^2 + F with h derived from the bottom
    tangency parameter q."""
    from paper import qst_newton_line

    h = 0.5 * (q * (t - s) + s) / (q * (t - 1.0) + 1.0)
    lq = qst_newton_line(s, t, h)
    bb = 2.0 * (q - h) / lq
    cc = h * h / (lq * lq)
    ff = q * q - 2.0 * q * h
    return ConicCoeffs(
        1.0,
        bb,
        cc,
        -2.0 * h - bb * lq,
        -bb * h - 2.0 * cc * lq,
        h * h + bb * h * lq + cc * lq * lq + ff)
