"""Each per-member read runs in one pass; these pin it, bit for bit, to the
composition of the public helpers it fuses: `InscribedEllipse.conic` to the
max-abs scaling then `sign_normalized`, and `conic.geometry` to
`shape_geometry` of the sign-normalized conic's `center`, Delta and delta
(`tests/test_diameters.py::TestChordContract` pins the chords and `check_T2`).
The members come from seeded draws of every class, thin quads and quads far
from the origin.  Floats compare by `repr`, which tells -0.0 from 0.0."""

import numpy as np
import pytest

from inellipse.conic import (ConicCoeffs, center, discriminants, geometry,
                             scale_normalized, shape_geometry, sign_normalized)
from inellipse.diameters import check_T2, tangency_chords
from inellipse.errors import InEllipseError
from inellipse.family import inscribe
from inellipse.quad import quadrilateral

from sampling import (random_convex_quad, random_diagonal_quad, random_kite,
                      random_mdq_quad, random_orthodiagonal_quad,
                      random_parallelogram, random_s1s3_trapezoid,
                      random_tangential_quad, random_thin_tangential_quad)

PARAMS = (0.05, 0.3, 0.5, 0.7, 0.95)


def _quads():
    rng = np.random.default_rng(24)
    quads = []
    for _ in range(4):
        plain = [random_convex_quad(rng), random_mdq_quad(rng, type1=True),
                 random_mdq_quad(rng, type1=False), random_kite(rng),
                 random_parallelogram(rng), random_tangential_quad(rng),
                 random_orthodiagonal_quad(rng), random_s1s3_trapezoid(rng)]
        thin = [random_diagonal_quad(rng, rho=rho) for rho in (1e-3, 1e-6, 1e-9)]
        thin += [random_thin_tangential_quad(rng, 1e-4)]
        shift = rng.uniform(-1e8, 1e8, 2)
        far = [quadrilateral([(x + shift[0], y + shift[1]) for x, y in q.vertices])
               for q in plain]
        quads += plain + thin + far
    return quads


QUADS = _quads()


def _members():
    for quad in QUADS:
        for param in PARAMS:
            yield quad, inscribe(quad, param)


def _outcome(fn, *args):
    """repr of the value, or the error's type and message."""
    try:
        return repr(fn(*args))
    except InEllipseError as exc:
        return type(exc).__name__, str(exc)


def _scaled_then_flipped(conic):
    # the composition `scale_normalized` replaces: x / m, then the flip
    m = max(map(abs, conic))
    return sign_normalized(ConicCoeffs(*[x / m for x in conic]))


def _composed_geometry(conic):
    # the composition `geometry` replaces: every helper normalizes for itself
    norm = sign_normalized(conic)
    a, b, c, d, e, f = norm
    big, small = discriminants(norm)
    if big <= 0.0 or small <= 0.0:
        raise InEllipseError("geometry() requires an ellipse")
    mu = 4.0 * small / big / big
    return shape_geometry(center(norm), (mu * c, -mu * b, mu * a,
                                         0.25 * mu * (mu * big)))


def test_the_draws_cover_far_and_failing_members():
    # far-off quads and a geometry that raises are among the draws, so both
    # branches of each pin below are exercised
    assert sum(max(map(abs, sum(q.vertices, ()))) > 1e6 for q in QUADS) >= 8
    assert any(isinstance(_outcome(geometry, ie.conic), tuple) for _, ie in _members())


def test_member_conic_is_the_scaled_raw_coefficients():
    for _, ie in _members():
        (cx, cy), (a, b, c), d = ie.center, ie.adjugate, ie.quad.diameter()
        raw = (a, b, c, -b * cy - 2.0 * a * cx, -b * cx - 2.0 * c * cy,
               a * cx * cx + b * cx * cy + c * cy * cy - ie.shape[3] * (d * d))
        assert repr(ie.conic) == repr(scale_normalized(raw)) == repr(_scaled_then_flipped(raw))
        assert type(ie.conic) is ConicCoeffs


@pytest.mark.parametrize("conic", [
    (1.0, 2.0, 3.0, -4.0, 5.0, -6.0), (-1.0, 2.0, -3.0, -4.0, 5.0, 0.0),
    (0.0, 2.0, -3.0, 4.0, -5.0, 6.0), (-0.0, 2.0, -3.0, 4.0, -5.0, 0.0),
    (0.0, 2.0, 3.0, 4.0, -5.0, -0.0), (-1e-320, 1.0, -1.0, 1e10, 0.0, 1.0),
    (1e-320, 1.0, 1.0, -1e10, 0.0, 1.0), (-3.0, 0.0, -1.0, 0.0, 0.0, 3.0),
])
def test_scale_normalized_flips_as_the_composition_does(conic):
    # x / -m and -(x / m) are the same float, signed zeros and underflow included
    for c in (conic, tuple(-x for x in conic)):
        assert repr(scale_normalized(c)) == repr(_scaled_then_flipped(c))


def test_geometry_is_the_composition_of_the_helpers():
    for _, ie in _members():
        for conic in (ie.conic, ConicCoeffs(*[-x for x in ie.conic])):
            assert _outcome(geometry, conic) == _outcome(_composed_geometry, conic)


def test_records_built_past_their_new_have_every_field():
    # `tuple.__new__` skips the generated `__new__` and its field count
    for quad, ie in _members():
        records = [ie, ie.conic, ie.geometry, tangency_chords(ie), check_T2(quad, ie)]
        for rec in records:
            assert len(rec) == len(type(rec)._fields), type(rec).__name__
