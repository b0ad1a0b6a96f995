"""Similarity invariance: scaled and translated quads give the unit-scale answers.

The problem is invariant under similarity, so a quad scaled by 10^k or moved
far from the origin must classify, solve and report as at unit scale, for
every k that `canonicalize` accepts.  The six-coefficient conic is the one
output that cannot represent every such ellipse: where one of its
coefficients overflows the float range, reading it raises one
`InEllipseError`, and only the commands that print it exit 1.
"""

import io
import json
import math
import re
from contextlib import redirect_stderr, redirect_stdout

import numpy as np
import pytest

from inellipse.cli import main
from inellipse.conic import geometry
from inellipse.errors import InEllipseError, NonConvexInput
from inellipse.family import inscribe
from inellipse.minecc import min_ecc, verify_T3
from inellipse.quad import canonicalize, classify, quadrilateral

from conftest import EXAMPLE_VERTICES
from sampling import random_convex_quad

GENERIC = [(0.0, 0.0), (0.3, 1.0), (2.0, 1.4), (1.7, -0.2)]
SQUARE = [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0), (1.0, 0.0)]
KITE = [(0.0, 0.0), (-1.0, 2.0), (0.0, 5.0), (1.0, 2.0)]
TRAPEZOID = [(0.0, 0.0), (1.0, 2.0), (3.0, 2.0), (5.0, 0.0)]
NEAR_COLLINEAR = [(0.0, 0.0), (1.0, 1e-13), (2.0, 0.0), (1.0, 1.0)]
EXPONENTS = range(-330, 301, 10)

_FLAGS = ("parallelogram", "trapezoid", "tangential", "orthodiagonal", "kite",
          "mdq_type1", "mdq_type2")


def scaled(vertices, k):
    return [(x * 10.0 ** k, y * 10.0 ** k) for x, y in vertices]


def _top_exponent(vertices):
    """The exponent, not an integer, that scales the largest coordinate to
    m * 1e307 for the largest m in 15, 14, ..., 1 that `canonicalize`
    accepts: the shape at about its largest accepted size, where the sum of
    its side lengths overflows the float range."""
    top = max(abs(x) for p in vertices for x in p)
    for m in range(15, 0, -1):
        k = math.log10(m * 1e307 / top)
        try:
            canonicalize(scaled(vertices, k))
        except NonConvexInput:
            continue
        return k
    raise AssertionError("no size near the float limit is accepted")


def accepted(vertices):
    """(k, quad) for every exponent whose scaled quad `canonicalize` accepts,
    and the shape at about its largest accepted size."""
    out = []
    for k in list(EXPONENTS) + [_top_exponent(vertices)]:
        try:
            out.append((k, canonicalize(scaled(vertices, k))))
        except NonConvexInput:
            pass
    return out


def conic_overflows(quad) -> bool:
    """Whether the squared size of the quad, which its conic's constant
    coefficient carries, is beyond the float range."""
    m = max(quad.diameter(), *(abs(x) for p in quad.vertices for x in p))
    return not math.isfinite(m * m)


def unit_copy(quad, k):
    """The represented quad scaled back by 10^-k: subnormal coordinates are
    rounded, so at the smallest scales it is not the unscaled input."""
    return quadrilateral([(x / 10.0 ** k, y / 10.0 ** k) for x, y in quad.vertices])


class TestScaleFreeClassification:
    @pytest.mark.parametrize("vertices", [EXAMPLE_VERTICES, GENERIC, SQUARE,
                                          KITE, TRAPEZOID],
                             ids=["example", "generic", "square", "kite",
                                  "trapezoid"])
    def test_flags_match_unit_scale(self, vertices):
        unit = classify(canonicalize(vertices))
        quads = accepted(vertices)
        # every exponent whose coordinates stay normal floats is accepted
        assert {k for k, _ in quads} >= set(range(-300, 301, 10))
        for k, quad in quads:
            rep = classify(quad)
            for flag in _FLAGS:
                assert getattr(rep, flag) == getattr(unit, flag), (k, flag)

    def test_near_collinear_rejected_at_every_scale(self):
        for k in EXPONENTS:
            with pytest.raises(NonConvexInput):
                canonicalize(scaled(NEAR_COLLINEAR, k))


class TestScaleAndTranslation:
    @pytest.mark.parametrize("vertices", [EXAMPLE_VERTICES, GENERIC],
                             ids=["example", "generic"])
    def test_min_ecc_at_every_accepted_scale(self, vertices):
        solved = 0
        for k, quad in accepted(vertices):
            res = min_ecc(quad)
            assert res.axis_ratio_sq == pytest.approx(
                min_ecc(unit_copy(quad, k)).axis_ratio_sq, abs=1e-12), k
            if conic_overflows(quad):
                # the answer is its centre and shape; only the derived
                # coefficients leave the float range, when read
                with pytest.raises(InEllipseError):
                    res.ellipse.conic
                continue
            solved += 1
        assert solved >= 45

    @pytest.mark.parametrize("vertices", [EXAMPLE_VERTICES, GENERIC],
                             ids=["example", "generic"])
    def test_member_axis_ratio_at_every_accepted_scale(self, vertices):
        # read from the unit-scale shape, so no size of the quad rounds it,
        # subnormal coordinates included
        scales = []
        for k, quad in accepted(vertices):
            if conic_overflows(quad):
                continue
            ratio = inscribe(quad, 0.3).geometry.axis_ratio_sq
            assert ratio == pytest.approx(
                inscribe(unit_copy(quad, k), 0.3).geometry.axis_ratio_sq,
                abs=1e-12), k
            scales.append(k)
        assert -320 in scales

    @pytest.mark.parametrize("shift", [1e8, 1e9])
    def test_moved_example_keeps_t3(self, shift):
        quad = canonicalize([(x + shift, y + shift) for x, y in EXAMPLE_VERTICES])
        rep = verify_T3(quad)
        assert rep.parallel and rep.equal_len
        assert rep.length_margin <= 1e-12

    def test_member_geometry_matches_the_conic_at_unit_scale(self):
        # `InscribedEllipse.geometry` reads c and S; `geometry` reads the
        # rounded conic, through the same axis routine
        rng = np.random.default_rng(61)
        for _ in range(200):
            ie = inscribe(random_convex_quad(rng), rng.uniform(0.05, 0.95))
            mine, ref = ie.geometry, geometry(ie.conic)
            assert math.dist(mine.center, ref.center) <= 1e-12 * ie.quad.diameter()
            assert mine.semi_major == pytest.approx(ref.semi_major, rel=1e-9)
            assert mine.semi_minor == pytest.approx(ref.semi_minor, rel=1e-9)
            assert mine.axis_ratio_sq == pytest.approx(ref.axis_ratio_sq, abs=1e-12)
            cos = abs(mine.major_axis_direction[0] * ref.major_axis_direction[0]
                      + mine.major_axis_direction[1] * ref.major_axis_direction[1])
            assert cos == pytest.approx(1.0, abs=1e-9)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def run_cli(tmp_path, argv, vertices):
    """Exit code, stdout and stderr of an in-process `main`; an exception
    escaping `main` would be a traceback from the command line."""
    path = tmp_path / "quad.json"
    path.write_text(json.dumps({"vertices": [list(p) for p in vertices]}))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv + [str(path)])
    return code, out.getvalue(), err.getvalue()


_COMMANDS = [["classify"], ["inscribe", "--param", "0.3"], ["min-ecc"],
             ["verify", "--theorem", "t1", "--trials", "2"],
             ["verify", "--theorem", "t2", "--trials", "2"],
             ["verify", "--theorem", "t3", "--trials", "2"]]


class TestCliAtScale:
    @pytest.mark.parametrize("vertices", [EXAMPLE_VERTICES, GENERIC],
                             ids=["example", "generic"])
    def test_one_strict_line_or_one_error_line(self, tmp_path, vertices):
        for k, quad in accepted(vertices):
            for argv in _COMMANDS + [["plot", "--params", "0.3", "--out",
                                      str(tmp_path / "out.svg")]]:
                code, out, err = run_cli(tmp_path, argv, scaled(vertices, k))
                # only inscribe and min-ecc print the conic's coefficients;
                # verify and plot read the members' centres and shapes
                prints_conic = argv[0] in ("inscribe", "min-ecc")
                if conic_overflows(quad) and prints_conic:
                    assert (code, out) == (1, ""), (k, argv)
                    assert err.startswith("error: ") and err.count("\n") == 1
                    continue
                assert (code, err) == (0, ""), (k, argv, err)
                if argv[0] != "plot":
                    assert out.count("\n") == 1
                    json.loads(out, parse_constant=_reject_constant)

    @pytest.mark.parametrize("vertices", [EXAMPLE_VERTICES, GENERIC],
                             ids=["example", "generic"])
    def test_ellipse_axis_ratio_at_every_accepted_scale(self, tmp_path, vertices):
        scales = []
        for k, quad in accepted(vertices):
            if conic_overflows(quad):
                continue
            unit = unit_copy(quad, k)
            for argv, ref in ((["inscribe", "--param", "0.3"], inscribe(unit, 0.3)),
                              (["min-ecc"], min_ecc(unit).ellipse)):
                code, out, _ = run_cli(tmp_path, argv, scaled(vertices, k))
                assert code == 0, (k, argv)
                assert json.loads(out)["ellipse"]["axis_ratio_sq"] == pytest.approx(
                    ref.geometry.axis_ratio_sq, abs=1e-12), (k, argv)
            scales.append(k)
        assert -320 in scales

    def test_tiny_plot_matches_unit_scale(self, tmp_path):
        # the figure is drawn in units of its own span: the worked example
        # scaled by 1e-100 lands on the unit-scale pixels
        svgs = []
        for k in (0, -100):
            out = tmp_path / f"plot{k}.svg"
            code, _, err = run_cli(tmp_path, ["plot", "--params", "0.3", "--out",
                                              str(out)], scaled(EXAMPLE_VERTICES, k))
            assert (code, err) == (0, "")
            svgs.append(out.read_text())
        unit, tiny = ([float(x) for x in re.findall(r"-?\d+\.\d+", svg)]
                      for svg in svgs)
        assert len(tiny) == len(unit) > 500
        assert max(abs(x - y) for x, y in zip(tiny, unit)) <= 1e-3

    @pytest.mark.parametrize("shift", [1e8, 1e9])
    def test_moved_example_report(self, tmp_path, shift):
        moved = [(x + shift, y + shift) for x, y in EXAMPLE_VERTICES]
        code, out, _ = run_cli(tmp_path, ["min-ecc"], moved)
        assert code == 0 and out.count("\n") == 1
        doc = json.loads(out, parse_constant=_reject_constant)
        assert doc["verification"]["t3_parallel"] is True
        assert doc["verification"]["t3_equal_lengths"] is True
        unit = json.loads(run_cli(tmp_path, ["min-ecc"], EXAMPLE_VERTICES)[1])
        assert doc["min_ecc"]["axis_ratio_sq"] == pytest.approx(
            unit["min_ecc"]["axis_ratio_sq"], abs=1e-12)
