import math
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from numpy.polynomial import polynomial as npoly

from inellipse.affine import (alpha_coeffs, alpha_root, check_qstvw_region,
                              normalize_to_qstvw)
from inellipse.conic import geometry, scale_normalized
from inellipse.diameters import parallel_margin
from inellipse.errors import NoRootInJ, NonConvexInput, NotMDQ, ParamOutOfRegion
from inellipse import affine, minecc
from inellipse.family import _at_ratio, inscribe
from inellipse.minecc import (MinEccResult, min_ecc, min_ecc_numeric, verify_T3,
                              _bracket_root, _critical_quartic)
from inellipse.quad import (CLASSIFY_TOL, canonicalize, classify, diagonals,
                            quadrilateral)

from conics import center, diameter_endpoints, equal_conjugate_diameters, proportional
from paper import (AffineMap, EccFunctional, G_value, N_factorization,
                   alpha_root_two_roots, closed_form_diameter_len_sq, p_quartic,
                   qstvw_conic, similarity_map, square_inellipse_conic)
from sampling import (frame_quad, random_convex_quad, random_diagonal_quad,
                      random_frame, random_kite, random_mdq_quad,
                      random_nonmdq_frame, random_parallelogram,
                      random_s1s3_trapezoid, random_similarity,
                      random_tangential_quad, random_type1_frame,
                      random_type2_frame)
from test_fused import _t3_root
from test_thin import MAKERS as THIN_MAKERS, RHOS as THIN_RHOS
from conftest import (EXAMPLE_EQUAL_LEN_SQ, EXAMPLE_MIN_CONIC, EXAMPLE_R,
                      EXAMPLE_R_STAR, assert_inscribed, assert_on_open_segment,
                      assert_points_close, diagonal_midpoints)


class TestGValue:
    def test_endpoint_limits(self):
        for r in (1e-8, 1.0 - 1e-8):
            assert G_value(8, 4, 6, 2, r) <= 1e-6

    def test_matches_conic_geometry(self):
        rng = np.random.default_rng(40)
        from paper import qstvw_conic
        for _ in range(100):
            s, t, v, w = random_frame(rng)
            r = rng.uniform(0.02, 0.98)
            geo = geometry(qstvw_conic(s, t, v, w, r))
            assert abs(G_value(s, t, v, w, r) - geo.axis_ratio_sq) <= 1e-10

    def test_incircle_parameter_gives_one(self):
        # a kite normalized by similarity is tangential: ratio 1 at the optimum
        # (M vanishes there, so cancellation limits the check to ~sqrt(eps))
        kite = canonicalize([(0, 0), (-1, 2), (0, 5), (1, 2)])
        from inellipse.affine import normalize_to_qstvw
        fr = normalize_to_qstvw(kite)
        res = min_ecc(kite)
        assert G_value(fr.s, fr.t, fr.v, fr.w, res.r_star) == pytest.approx(1.0, abs=1e-6)


class TestNFactorization:
    def test_example_roots(self):
        assert N_factorization(8, 4, 6, 2) == (0.0, 1.0, -4.0, -3.0)

    def test_zero_one_always_roots(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            roots = N_factorization(*random_frame(rng))
            assert roots[0] == 0.0 and roots[1] == 1.0

    def test_f3_zero_rejected(self):
        # (s,t,v,w) with f3 = ws - v(t-1) = 0 merges the last two roots
        with pytest.raises(ParamOutOfRegion):
            N_factorization(3.0, 1.0, 1.0, 0.0)


class TestPQuartic:
    def test_type1_factorization(self):
        # for type-1 frames the quartic degenerates to the cubic
        # -16 v^2 s^4 (2(s-v)r + v) alpha(r)
        rng = np.random.default_rng(42)
        for _ in range(100):
            s, t, v, w = random_type1_frame(rng)
            got = np.asarray(p_quartic(s, t, v, w))
            expect = -16.0 * v * v * s ** 4 * npoly.polymul(
                [v, 2.0 * (s - v)], alpha_coeffs(s, v, w))
            expect = np.append(np.asarray(expect), 0.0)
            top = max(np.max(np.abs(got)), np.max(np.abs(expect)))
            assert np.max(np.abs(got - expect)) <= 1e-9 * top

    def test_single_sign_change_for_example(self):
        coeffs = p_quartic(8, 4, 6, 2)
        xs = np.linspace(1e-6, 1 - 1e-6, 10_000)
        vals = npoly.polyval(xs, np.asarray(coeffs))
        changes = np.sum(np.sign(vals[:-1]) != np.sign(vals[1:]))
        assert changes == 1

    def test_root_consistency_with_alpha(self):
        r1 = alpha_root(8, 6, 2)
        coeffs = np.asarray(p_quartic(8, 4, 6, 2))
        val = npoly.polyval(r1, coeffs)
        assert abs(val) <= 1e-7 * np.max(np.abs(coeffs))


def _alpha_draws(rng, n):
    """n (s, v, w) frames of each kind, in Python floats: log-uniform s, v in
    1e-6..1e6; s = v (a2 = 0, alpha linear); v <= 0 and 2s - v <= 0 (outside
    the region); v <= 1e-17 with w = 1 (the root rounds to 1); v in
    1e-12..1e-6 with s near v / 2 and w near 1 (near a double root, where
    the discriminant can round below 0); and (1e-200, 1e-200, -1), where
    a0 = -0.0."""
    def logu(lo, hi):
        return 10.0 ** rng.uniform(lo, hi)

    def coin():
        return rng.random() < 0.5
    draws = []
    for _ in range(n):
        s, v, t = logu(-6, 6), logu(-6, 6), logu(-12, -6)
        w = (-1.0 if coin() else 1.0) * logu(-6, 6)
        draws += [(s, v, w), (s, s, w), (s, -v if coin() else 0.0, w),
                  (s, 2.0 * s * (1.0 + logu(-16, 0) if coin() else 1.0), w),
                  (s, logu(-30, -17), 1.0),
                  (t / 2.0 * (1.0 + logu(-17, -1)), t,
                   1.0 + rng.standard_normal() * logu(-17, -1))]
    return draws + [(1e-200, 1e-200, -1.0)]


def _alpha_outcome(fn, s, v, w):
    try:
        return repr(fn(s, v, w))
    except Exception as exc:  # the type and message are compared
        return (type(exc).__name__, str(exc))


NO_REAL_ROOT = ("NoRootInJ", "optimizer quadratic has no real root")


def _exact_alpha(s, v, w, r):
    """alpha(r) of the float inputs in exact rational arithmetic."""
    s, v, w, r = map(Fraction, (s, v, w, r))
    k = v * v + w * w + 1
    return 2 * (s - v) * k * r * r + 2 * v * k * r - s * (v * v + (w + 1) ** 2)


def _assert_root_brackets_the_sign_change(s, v, w, r):
    # alpha(0) < 0 < alpha(1): the exact alpha changes sign within one float
    # step of r on either side
    assert 0.0 < r < 1.0
    assert (_exact_alpha(s, v, w, math.nextafter(r, 0.0)) < 0
            < _exact_alpha(s, v, w, math.nextafter(r, 1.0)))


class TestAlphaRoot:
    def test_is_the_two_root_form(self, monkeypatch):
        # bit for bit, errors included, the bracketed fallback among them,
        # which the draws reach where the root rounds to 1 or near a double
        # root; where the two-root form's discriminant rounds below 0 (near a
        # double root at 1), alpha_root returns a root where the exact alpha
        # changes sign
        reached, near_double = [], 0

        def counted(*args):
            reached.append(args)
            return _bracket_root(*args)
        monkeypatch.setattr(affine, "_bracket_root", counted)
        outcomes = set()
        for s, v, w in _alpha_draws(np.random.default_rng(45), 5000):
            want = _alpha_outcome(alpha_root_two_roots, s, v, w)
            if want == NO_REAL_ROOT:
                _assert_root_brackets_the_sign_change(s, v, w, alpha_root(s, v, w))
                near_double += 1
                continue
            got = _alpha_outcome(alpha_root, s, v, w)
            assert got == want, (s, v, w)
            outcomes.add(got if isinstance(got, tuple) else "root")
        assert outcomes == {
            "root", ("ParamOutOfRegion", "type-1 frame requires s, v > 0"),
            ("ParamOutOfRegion", "type-1 frame requires 2s - v > 0"),
            ("NoRootInJ", "optimizer quadratic does not change sign on (0,1)")}
        assert reached and near_double

    def test_admissible_frame_whose_discriminant_rounds_below_zero(self):
        # near a double root at 1 the two-root form found no real root
        s, t, v, w = (1.2398197809514492e-09, 1.0000000000341664,
                      2.4796395618181778e-09, 0.9999999999999999)
        check_qstvw_region(s, t, v, w)
        a0, a1, a2 = alpha_coeffs(s, v, w)
        assert a1 * a1 - 4.0 * a2 * a0 < 0.0
        with pytest.raises(NoRootInJ, match="no real root"):
            alpha_root_two_roots(s, v, w)
        _assert_root_brackets_the_sign_change(s, v, w, alpha_root(s, v, w))

    def test_example_coefficients_exact(self):
        assert alpha_coeffs(8, 6, 2) == (-360.0, 492.0, 164.0)

    def test_example_root(self):
        assert alpha_root(8, 6, 2) == pytest.approx(EXAMPLE_R_STAR, abs=1e-14)

    def test_sign_checks(self):
        rng = np.random.default_rng(43)
        for _ in range(50):
            s, t, v, w = random_type1_frame(rng)
            a0, a1, a2 = alpha_coeffs(s, v, w)
            assert a0 == pytest.approx(-s * (v * v + (w + 1) ** 2))
            assert a0 < 0
            assert a0 + a1 + a2 == pytest.approx(s * (v * v + (w - 1) ** 2),
                                                 rel=1e-9)
            assert a0 + a1 + a2 > 0

    def test_degenerate_rejected(self):
        with pytest.raises(ParamOutOfRegion):
            alpha_root(1.0, 2.0, 0.5)  # 2s - v = 0
        with pytest.raises(ParamOutOfRegion):
            alpha_root(0.0, 2.0, 0.5)

    def test_linear_on_parallelogram_frames(self):
        # s = v: alpha is linear and its root is -a0/a1
        rng = np.random.default_rng(60)
        for _ in range(50):
            s, w = rng.uniform(0.2, 3.0), rng.uniform(-2.0, 2.0)
            a0, a1, a2 = alpha_coeffs(s, s, w)
            assert a2 == 0.0
            assert alpha_root(s, s, w) == -a0 / a1

    def test_ill_conditioned_fallback_finds_the_same_root(self, monkeypatch):
        # a square root of nan leaves no candidate in (0, 1), so alpha_root
        # takes its fallback, the bracketed solve on alpha(0) < 0 < alpha(1)
        rng = np.random.default_rng(44)
        frames = [random_type1_frame(rng) for _ in range(50)]
        roots = [alpha_root(s, v, w) for s, _, v, w in frames]
        monkeypatch.setattr(minecc, "math", SimpleNamespace(sqrt=lambda x: math.nan))
        for (s, _, v, w), r in zip(frames, roots):
            assert alpha_root(s, v, w) == pytest.approx(r, rel=1e-14, abs=0.0)


class TestMinEcc:
    def test_example_closed_form(self, example_quad):
        res = min_ecc(example_quad)
        assert res.method == "alpha_closed_form"
        assert res.r_star == pytest.approx(EXAMPLE_R_STAR, abs=1e-12)
        assert proportional(res.ellipse.conic, EXAMPLE_MIN_CONIC, 1e-9)
        assert_inscribed(res.ellipse)

    def test_square_incircle(self):
        res = min_ecc(canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)]))
        assert res.method == "incircle"
        assert res.eccentricity == 0.0
        assert_points_close(center(res.ellipse.conic), (0.5, 0.5), 1e-12)

    def test_kite_incircle(self):
        rng = np.random.default_rng(44)
        for _ in range(20):
            kite = random_kite(rng)
            res = min_ecc(kite)
            assert res.method == "incircle"
            assert_inscribed(res.ellipse, 1e-7)

    def test_rectangle_closed_form(self):
        rect = canonicalize([(0, 0), (0, 1), (3, 1), (3, 0)])
        res = min_ecc(rect)
        assert res.method == "alpha_closed_form"
        # the optimum for a rectangle is the axis-aligned midpoint ellipse,
        # v = 0 of the parallelogram parameter
        assert abs(res.r_star) <= 1e-6
        assert res.eccentricity == pytest.approx(math.sqrt(1 - 1 / 9), abs=1e-9)
        assert_inscribed(res.ellipse, 1e-7)

    def test_type2_reduction(self):
        quad = quadrilateral([(0, 0), (0, 1), (1.5, 0.5), (1, 0)])
        res = min_ecc(quad)
        assert res.method == "alpha_closed_form"
        assert_inscribed(res.ellipse)
        num = min_ecc_numeric(quad)
        assert res.eccentricity == pytest.approx(num.eccentricity, abs=1e-10)

    def test_non_mdq_dispatch(self):
        rng = np.random.default_rng(45)
        quad = frame_quad(*random_nonmdq_frame(rng))
        res = min_ecc(quad)
        assert res.method == "quartic_numeric"
        assert_inscribed(res.ellipse, 1e-7)

    def test_trapezoid_with_parallel_s2_s4(self):
        # frame has f3 = 0; the numeric path must still work
        quad = canonicalize([(0, 0), (0, 1), (3, 1), (1, 0)])
        res = min_ecc(quad)
        assert res.method == "quartic_numeric"
        assert_inscribed(res.ellipse, 1e-7)

    def test_trapezoid_with_parallel_s1_s3(self):
        # its shift-0 frame has s = v
        quad = canonicalize([(0, 0), (0, 1), (1, 0.7), (1, 0)])
        res = min_ecc(quad)
        assert res.method == "quartic_numeric"
        assert_inscribed(res.ellipse, 1e-7)

    def test_trapezoid_whose_lower_left_frame_has_s_equal_v(self):
        # S1 and S3 parallel in the lower-left labeling, which is the frame
        quad = canonicalize([(0, 0), (1, 1), (3, 2), (1, 0)])
        res = min_ecc(quad)
        assert_inscribed(res.ellipse)
        fr = normalize_to_qstvw(quad)
        assert fr.shift == 0 and fr.s == pytest.approx(fr.v, rel=1e-12)
        grid = [(k + 1) / 4002 for k in range(4001)]
        best = max(geometry(qstvw_conic(fr.s, fr.t, fr.v, fr.w, r)).axis_ratio_sq
                   for r in grid)
        assert res.axis_ratio_sq >= best - 1e-9

    def test_random_tangential_quads_return_inscribed(self):
        # MDQ or not, the inscribed circle is the optimum of a tangential
        # quad, and the reported ratio is that of the returned conic
        rng = np.random.default_rng(0)
        for _ in range(2000):
            res = min_ecc(random_tangential_quad(rng))
            assert res.method == "incircle"
            assert_inscribed(res.ellipse, 1e-7)
            ratio = geometry(res.ellipse.conic).axis_ratio_sq
            assert abs(res.axis_ratio_sq - ratio) <= 1e-9

    def test_random_convex_quads_return_inscribed(self):
        # contacts on sides S2 and S3 are the vertices of the restricted
        # conic, so no near-double root can make them disappear
        rng = np.random.default_rng(0)
        for _ in range(2000):
            res = min_ecc(random_convex_quad(rng))
            assert_inscribed(res.ellipse, 1e-7)

    def test_scale_invariance(self, example_quad):
        res = min_ecc(example_quad)
        for k in (0.25, 7.0):
            scaled = quadrilateral([(k * x, k * y) for x, y in example_quad.vertices])
            res2 = min_ecc(scaled)
            assert res2.eccentricity == pytest.approx(res.eccentricity, rel=1e-10)

    def test_similarity_invariance_of_ecc(self):
        rng = np.random.default_rng(46)
        for _ in range(10):
            quad = frame_quad(*random_type1_frame(rng, min_ecc=1e-3))
            base = min_ecc(quad).eccentricity
            sim = random_similarity(rng)
            moved = quadrilateral([sim.apply(p) for p in quad.vertices])
            assert min_ecc(moved).eccentricity == pytest.approx(base, rel=1e-9)


def _tangential_non_mdq(rng):
    while True:
        quad = random_tangential_quad(rng)
        if not classify(quad).mdq:
            return quad


def _near_tangential(seed, k, tol):
    """A tangential non-MDQ whose A3 is moved along A2->A3 until
    a + c - (b + d) is k * tol of the perimeter: c grows by the move and d
    by its cosine of the angle at A3, so the defect is monotone."""
    a1, a2, a3, a4 = _tangential_non_mdq(np.random.default_rng(seed)).vertices
    ex, ey = a3[0] - a2[0], a3[1] - a2[1]
    norm = math.hypot(ex, ey)

    def moved(step):
        return quadrilateral([a1, a2, (a3[0] + step * ex / norm,
                                       a3[1] + step * ey / norm), a4])

    def defect(quad):
        a, b, c, d = quad.side_lengths()
        return (a + c - (b + d)) / (a + b + c + d)

    # the defect is linear in the step to about 1e-6: two secant steps
    steps = [0.0, 1e-6 * norm]
    values = [defect(moved(x)) - k * tol for x in steps]
    for _ in range(2):
        (x0, x1), (g0, g1) = steps, values
        steps = [x1, x1 - g1 * (x1 - x0) / (g1 - g0)]
        values = [g1, defect(moved(steps[1])) - k * tol]
    quad = moved(steps[1])
    assert defect(quad) == pytest.approx(k * tol, rel=1e-4)
    return quad


def _near_mdq(seed, k, tol, type1):
    """A quad whose diagonals meet k * tol of D2 (type 1) or of D1 (type 2)
    from that diagonal's midpoint."""
    key = "b" if type1 else "a"
    quad = random_diagonal_quad(np.random.default_rng(seed), **{key: 0.5 + k * tol})
    dd = diagonals(quad)
    frac = dd.b if type1 else dd.a
    assert frac - 0.5 == pytest.approx(k * tol, rel=1e-4)
    return quad


def _dispatch_fields(res):
    ie = res.ellipse
    return repr((res.method, res.r_star, ie.center, ie.shape, ie.tangency))


def _named_method(rep):
    """The method that a `classify` report's flags name."""
    return ("incircle" if rep.tangential
            else "alpha_closed_form" if rep.mdq else "quartic_numeric")


def _method_member(quad, method):
    """The fields of the member that `method` builds: the T3 member of the
    closed forms or `min_ecc_numeric`'s optimum."""
    if method == "quartic_numeric":
        return _dispatch_fields(min_ecc_numeric(quad))
    dd = diagonals(quad)
    return _dispatch_fields(MinEccResult(_at_ratio(quad, dd, _t3_root(dd)), method))


def _assert_flags_at_their_margins(quad):
    """Each diagonal flag is `margin <= tol`, its margin read off the pencil:
    checked at tol = margin and one ulp below, where `min_ecc` must take the
    method that the flags name."""
    dd = diagonals(quad)
    margins = {"mdq_type1": abs(0.5 - dd.b), "mdq_type2": abs(0.5 - dd.a),
               "trapezoid": min(abs(dd.a - dd.b), abs(dd.a + dd.b - 1.0))}
    for flag, margin in margins.items():
        for tol in (margin, math.nextafter(margin, 0.0)):
            rep = classify(quad, tol)
            assert getattr(rep, flag) == (margin <= tol), (flag, margin, tol)
            assert min_ecc(quad, tol).method == _named_method(rep), (flag, tol)


class TestDispatchWithoutReport:
    """`min_ecc(quad, tol)` evaluates only the two predicates it dispatches
    on, through the functions `classify` calls: it must take the method
    that `classify(quad, tol)`'s flags name, and build that method's member,
    at 1e-9 and at 1e-5, also on either side of each threshold, where a
    predicate edited in only one of the two places would send them apart.
    Each diagonal flag is exactly its margin, a fraction of a diagonal, at
    most `tol`."""

    @pytest.mark.parametrize("make", [
        random_convex_quad,
        _tangential_non_mdq,
        lambda rng: random_mdq_quad(rng, type1=True),
        lambda rng: random_mdq_quad(rng, type1=False),
        random_kite,
        random_parallelogram,
    ], ids=["generic", "tangential", "type1", "type2", "kite", "parallelogram"])
    def test_same_result_as_with_the_report(self, make):
        rng = np.random.default_rng(19)
        for _ in range(100):
            quad = make(rng)
            for tol in (CLASSIFY_TOL, 1e-5):
                res = min_ecc(quad, tol)
                assert res.method == _named_method(classify(quad, tol))
                assert _dispatch_fields(res) == _method_member(quad, res.method)
            assert min_ecc(quad) == min_ecc(quad, CLASSIFY_TOL)
            _assert_flags_at_their_margins(quad)

    @pytest.mark.parametrize("make, method", [
        (_near_tangential, "incircle"),
        (lambda seed, k, tol: _near_mdq(seed, k, tol, True), "alpha_closed_form"),
        (lambda seed, k, tol: _near_mdq(seed, k, tol, False), "alpha_closed_form"),
    ], ids=["tangential", "type1", "type2"])
    def test_same_result_at_either_side_of_a_threshold(self, make, method):
        for tol in (CLASSIFY_TOL, 1e-5):
            for seed in range(20):
                methods = []
                for k in (0.99, 1.01):
                    quad = make(seed, k, tol)
                    res = min_ecc(quad, tol)
                    assert res.method == _named_method(classify(quad, tol))
                    assert _dispatch_fields(res) == _method_member(quad, res.method)
                    methods.append(res.method)
                    _assert_flags_at_their_margins(quad)
                assert methods == [method, "quartic_numeric"], (tol, seed)


class TestMinEccNumeric:
    def test_agrees_with_alpha_on_example(self, example_quad):
        res = min_ecc_numeric(example_quad)
        assert res.method == "quartic_numeric"
        assert res.r_star == pytest.approx(EXAMPLE_R_STAR, abs=1e-9)

    def test_bracketing_certificate(self):
        rng = np.random.default_rng(47)
        quad = frame_quad(*random_nonmdq_frame(rng))
        res = min_ecc_numeric(quad)
        from inellipse.affine import normalize_to_qstvw
        fr = normalize_to_qstvw(quad)
        func = EccFunctional(fr.s, fr.t, fr.v, fr.w)
        eps = 1e-6
        assert func.g(res.r_star) >= func.g(res.r_star - eps)
        assert func.g(res.r_star) >= func.g(res.r_star + eps)

    def test_endpoints_below_optimum(self, example_quad):
        res = min_ecc_numeric(example_quad)
        assert res.axis_ratio_sq > G_value(8, 4, 6, 2, 1e-6)
        assert res.axis_ratio_sq > G_value(8, 4, 6, 2, 1 - 1e-6)

    def test_agrees_with_alpha_root_on_parallelograms(self):
        # on a parallelogram's frame p is linear; the roundoff left in its
        # degree 2-4 coefficients must not move or remove the root
        rng = np.random.default_rng(1)
        for _ in range(2000):
            quad = random_parallelogram(rng)
            closed = min_ecc(quad)
            assert closed.method == "alpha_closed_form"
            num = min_ecc_numeric(quad)
            assert num.method == "quartic_numeric"
            assert abs(num.r_star - closed.r_star) <= 1e-9
            assert abs(num.axis_ratio_sq - closed.axis_ratio_sq) <= 1e-10

    def test_optimizer_is_global_argmax_on_grid(self):
        rng = np.random.default_rng(48)
        for _ in range(10):
            s, t, v, w = random_type1_frame(rng)
            r1 = alpha_root(s, v, w)
            func = EccFunctional(s, t, v, w)
            best = float(func.g(r1))
            xs = np.linspace(1e-6, 1 - 1e-6, 100_000)
            assert float(np.max(func.g(xs))) <= best + 1e-9


    def test_matches_closed_form_on_mdq_frames(self):
        # the paper's closed form cross-checks the unified numeric solver
        rng = np.random.default_rng(57)
        for i in range(200):
            frame = (random_type1_frame(rng) if i % 2 == 0
                     else random_type2_frame(rng))
            quad = frame_quad(*frame)
            closed = min_ecc(quad)
            assert closed.method == "alpha_closed_form"
            num = min_ecc_numeric(quad)
            assert abs(num.axis_ratio_sq - closed.axis_ratio_sq) <= 1e-10


def _end_or_uniform(rng, lo, hi, edge):
    """Uniform in (lo, hi), or within `edge` of one of its ends."""
    pick = rng.integers(3)
    if pick == 0:
        return lo + edge * rng.uniform(0.0, 1.0)
    if pick == 1:
        return hi - edge * rng.uniform(0.0, 1.0)
    return rng.uniform(lo, hi)


def _sign_changes(coeffs):
    signs = [c > 0.0 for c in coeffs if c != 0.0]
    return sum(x != y for x, y in zip(signs, signs[1:]))


class TestCertificate:
    def test_quartic_changes_sign_once_over_the_convex_space(self):
        # split fractions within 1e-4 of an end, crossing angles within 0.01
        # of 0 or pi and diagonal ratios down to 1e-10: q0 > 0 > q4 and one
        # sign change between, so H has one critical point in the pencil
        rng = np.random.default_rng(75)
        drawn = 0
        for _ in range(4000):
            a, b = (_end_or_uniform(rng, 0.0, 1.0, 1e-4) for _ in range(2))
            turn = _end_or_uniform(rng, 0.0, math.pi, 0.01)
            t1 = rng.uniform(0.0, 2.0 * math.pi)
            l1, l2 = 1.0, 10.0 ** rng.uniform(-10.0, 0.0)
            if rng.integers(2):
                l1, l2 = l2, l1
            u1 = (l1 * math.cos(t1), l1 * math.sin(t1))
            u2 = (l2 * math.cos(t1 - turn), l2 * math.sin(t1 - turn))
            verts = [(-a * u1[0], -a * u1[1]), (-b * u2[0], -b * u2[1]),
                     ((1 - a) * u1[0], (1 - a) * u1[1]),
                     ((1 - b) * u2[0], (1 - b) * u2[1])]
            try:
                quad = quadrilateral(verts)
            except NonConvexInput:
                continue
            drawn += 1
            crit, _ = _critical_quartic(diagonals(quad))
            assert crit[0] > 0.0 > crit[4]
            assert _sign_changes(crit) == 1, crit
        assert drawn >= 2000

    @pytest.mark.parametrize("root", [1e-12, 1.0 - 1e-12])
    def test_bracket_root_finds_a_lone_root_near_either_end(self, root):
        # (x - root)(x + 1)(x^2 + 1): every coefficient is 1 - root or
        # +-root, so the rounded quartic keeps its root within an ulp; a
        # start of -1 is outside the bracket and takes the secant point
        p = (-root, 1.0 - root, 1.0 - root, 1.0 - root, 1.0)
        for start in (-1.0, 1e-9, 0.5, 1.0 - 1e-9):
            got = _bracket_root(p, 0.0, 1.0, p[0], sum(p), start)
            assert abs(got - root) <= 4.0 * math.ulp(root), start

    @pytest.mark.parametrize("start", [0.0, 1.0, -0.5, 1.5, math.inf, math.nan])
    def test_a_start_outside_the_bracket_takes_the_secant_point(self, start):
        # roots 0.2, 0.5 and 0.8 in (0, 1), so the start decides which one
        # the steps reach: the secant point 1/3 reaches 0.2, 0.79 reaches 0.8
        p = (-0.08, 0.58, -0.84, -0.5, 1.0)
        pa, pb = p[0], sum(p)
        secant = _bracket_root(p, 0.0, 1.0, pa, pb, pa / (pa - pb))
        assert abs(secant - 0.2) <= 1e-12
        assert abs(_bracket_root(p, 0.0, 1.0, pa, pb, 0.79) - 0.8) <= 1e-12
        assert _bracket_root(p, 0.0, 1.0, pa, pb, start) == secant

    def test_t3_start_reaches_the_secant_start_root(self):
        # the root in x = lam / mu from the T3 start, which `_numeric` uses,
        # and from the secant start agree to 4 ulps, on generic draws and on
        # every class of thin quad
        rng = np.random.default_rng(77)
        quads = [random_convex_quad(rng) for _ in range(500)]
        quads += [make(rng, rho) for make in THIN_MAKERS.values()
                  for rho in THIN_RHOS for _ in range(6)]
        warm_inside = 0
        for quad in quads:
            dd = diagonals(quad)
            crit, x3 = _critical_quartic(dd)
            # the start shares the quartic's terms and is, bit for bit, the T3
            # root of the tests' own copy of its quadratic
            assert x3 == _t3_root(dd)
            at1 = sum(crit)
            if at1 == 0.0:
                continue
            p = crit if at1 < 0.0 else crit[::-1]
            warm = x3 if at1 < 0.0 else 1.0 / x3
            warm_inside += 0.0 < warm < 1.0
            xw, xs = (y if at1 < 0.0 else 1.0 / y
                      for y in (_bracket_root(p, 0.0, 1.0, p[0], at1, start)
                                for start in (warm, -1.0)))
            assert abs(xw - xs) <= 4.0 * math.ulp(xs), quad.vertices
            if not dd.names_v:
                # `_numeric` solves from the same start
                assert min_ecc_numeric(quad).r_star == dd.a / (dd.a + xw * dd.b)
        assert warm_inside >= 0.9 * len(quads)


class TestNumericMatchesT3:
    @pytest.mark.parametrize("make", [
        lambda rng: random_mdq_quad(rng, type1=True),
        lambda rng: random_mdq_quad(rng, type1=False),
        random_kite,
        lambda rng: random_diagonal_quad(rng, 0.5, 0.5, orthodiagonal=True),
        random_parallelogram,
        random_tangential_quad,
    ], ids=["type1", "type2", "kite", "rhombus", "parallelogram", "tangential"])
    def test_numeric_is_the_t3_root(self, make):
        # the H quartic has no cusp at a circle, so the incircle of a
        # tangential quad comes out to the same digits as the closed form
        rng = np.random.default_rng(74)
        for _ in range(300):
            quad = make(rng)
            closed = min_ecc(quad)
            assert closed.method in ("alpha_closed_form", "incircle")
            num = min_ecc_numeric(quad)
            assert num.method == "quartic_numeric"
            assert abs(num.r_star - closed.r_star) <= 1e-9
            assert abs(num.axis_ratio_sq - closed.axis_ratio_sq) <= 1e-12


def _near_parallelogram(rng):
    """A random parallelogram with A3 moved by 10^U(-8.5,-5) of its diameter."""
    quad = random_parallelogram(rng)
    a1, a2, a3, a4 = quad.vertices
    size = 10.0 ** rng.uniform(-8.5, -5.0) * quad.diameter()
    angle = rng.uniform(0.0, 2.0 * math.pi)
    a3 = (a3[0] + size * math.cos(angle), a3[1] + size * math.sin(angle))
    return quadrilateral([a1, a2, a3, a4])


class TestParallelogramProperty:
    def test_random_parallelograms_reach_dense_maximum(self):
        # parallelograms anywhere in the plane; the reference family is the
        # unit-square family pushed through (X, Y) -> c + X(A4 - A1)/2 +
        # Y(A2 - A1)/2, which takes the square's corners to A1..A4, so its
        # member at v touches S1 at the fraction (1 + v)/2 along A1 -> A2
        rng = np.random.default_rng(58)
        for _ in range(300):
            quad = random_parallelogram(rng)
            res = min_ecc(quad)
            assert res.method == "alpha_closed_form"
            assert_inscribed(res.ellipse, 1e-7)
            a1, a2, a3, a4 = quad.vertices
            c = ((a1[0] + a3[0]) / 2.0, (a1[1] + a3[1]) / 2.0)
            square_to_quad = AffineMap(
                (((a4[0] - a1[0]) / 2.0, (a2[0] - a1[0]) / 2.0),
                 ((a4[1] - a1[1]) / 2.0, (a2[1] - a1[1]) / 2.0)), c)

            def member(v):
                return square_to_quad.apply_to_conic(square_inellipse_conic(v))

            coarse = np.linspace(-1.0, 1.0, 401)[1:-1]
            v0 = coarse[int(np.argmax([geometry(member(float(v))).axis_ratio_sq
                                       for v in coarse]))]
            fine = np.linspace(max(v0 - 0.005, -0.999), min(v0 + 0.005, 0.999), 201)
            vals = [geometry(member(float(v))).axis_ratio_sq for v in fine]
            assert res.axis_ratio_sq >= max(vals) - 1e-9
            for v in (-0.9, -0.5, 0.0, 0.5, 0.9, res.r_star):
                assert proportional(inscribe(quad, v).conic, member(v))

    def test_near_parallelograms_reach_dense_maximum(self):
        # MDQs or not, these are not parallelograms, and their frames have
        # s within 1e-5 of v
        rng = np.random.default_rng(11)
        grid = np.linspace(0.0, 1.0, 4003)[1:-1]
        for _ in range(2000):
            quad = _near_parallelogram(rng)
            res = min_ecc(quad)
            assert_inscribed(res.ellipse, 1e-7)
            fr = normalize_to_qstvw(quad)
            best = float(np.max(EccFunctional(fr.s, fr.t, fr.v, fr.w).g(grid)))
            assert res.axis_ratio_sq >= best - 1e-9


class TestRStarRoundTrip:
    def test_inscribe_at_r_star_is_the_optimum(self):
        # r_star names the returned ellipse in `inscribe`'s parameter, on
        # type-2 MDQs and tangential quads as on every other class
        rng = np.random.default_rng(63)
        makers = (lambda: random_convex_quad(rng),
                  lambda: random_mdq_quad(rng, type1=True),
                  lambda: random_mdq_quad(rng, type1=False),
                  lambda: random_parallelogram(rng),
                  lambda: random_kite(rng),
                  lambda: random_tangential_quad(rng),
                  lambda: random_s1s3_trapezoid(rng))
        methods = set()
        for quad in (make() for _ in range(40) for make in makers):
            for res in (min_ecc(quad), min_ecc_numeric(quad)):
                methods.add(res.method)
                ie = inscribe(quad, res.r_star)
                assert ie.param == res.r_star and ie.frame == res.ellipse.frame
                assert max(abs(x - y) for x, y in
                           zip(ie.conic, scale_normalized(res.ellipse.conic))) <= 1e-12
                for got, want in zip(ie.tangency, res.ellipse.tangency):
                    assert_points_close(got, want, 1e-12 * quad.diameter())
                assert_inscribed(ie, 1e-7 if res.method == "incircle" else 1e-9)
        assert methods == {"incircle", "alpha_closed_form", "quartic_numeric"}

    def test_r_star_near_zero_round_trips(self):
        # a thin MDQ whose optimum touches S1 about 1.5306e-13 along it
        quad = canonicalize([(0, 0), (0.8999997, 0.3000006), (3, 1),
                             (0.9000003, 0.2999994)]).rotate_labels(1)
        res = min_ecc(quad)
        assert res.r_star == pytest.approx(1.5306122449331e-13, rel=1e-9)
        ie = inscribe(quad, res.r_star)
        assert max(abs(x - y) for x, y in zip(ie.conic, res.ellipse.conic)) <= 1e-12
        assert ie.geometry.axis_ratio_sq == pytest.approx(res.axis_ratio_sq, rel=1e-12)
        for got, want in zip(ie.tangency, res.ellipse.tangency):
            assert_points_close(got, want, 1e-12 * quad.diameter())

    def test_t3_root_is_alpha_root_on_type1_frames(self):
        # the pencil's closed form, mapped to r, is the paper's optimizer root
        rng = np.random.default_rng(64)
        for _ in range(200):
            s, t, v, w = random_type1_frame(rng)
            quad = frame_quad(s, t, v, w)
            res = min_ecc(quad)
            if res.method == "incircle":
                continue
            assert res.method == "alpha_closed_form"
            assert abs(res.r_star - alpha_root(s, v, w)) <= 1e-10


class TestPolynomialPositivity:
    def test_n_and_o_positive_on_j(self):
        rng = np.random.default_rng(49)
        xs = np.linspace(1e-4, 1 - 1e-4, 1000)
        for _ in range(50):
            func = EccFunctional(*random_frame(rng))
            assert np.all(func.n(xs) > 0)
            assert np.all(func.o(xs) > 0)

    def test_m_positive_for_non_tangential(self):
        rng = np.random.default_rng(50)
        xs = np.linspace(1e-4, 1 - 1e-4, 1000)
        for _ in range(50):
            func = EccFunctional(*random_frame(rng))
            assert np.all(func.m(xs) > 0)

    def test_n_matches_o_squared_minus_m(self):
        rng = np.random.default_rng(51)
        for _ in range(50):
            func = EccFunctional(*random_frame(rng))
            diff = npoly.polysub(
                npoly.polymul(func.o_coeffs, func.o_coeffs),
                npoly.polyadd(func.m_coeffs, func.n_coeffs))
            top = np.max(np.abs(npoly.polymul(func.o_coeffs, func.o_coeffs)))
            assert np.max(np.abs(diff)) <= 1e-9 * top


class TestVerifyT3:
    def test_lengths_match_the_conic_and_the_paper(self, example_quad):
        # verify_T3 reads its lengths from the result's shape S; two references
        # that do not: the conic's own diameter endpoints, and the paper's
        # closed form in a shift-0 type-1 frame, over the frame's scale^2,
        # which on a parallelogram takes the frame's r = (1 + v) / 2
        rng = np.random.default_rng(60)
        quads = ([example_quad]
                 + [random_mdq_quad(rng, type1=bool(i % 2)) for i in range(100)]
                 + [random_parallelogram(rng) for _ in range(50)])
        paper = parallelograms = 0
        for quad in quads:
            res = min_ecc(quad)
            rep = verify_T3(res)
            if rep.near_circle:
                continue
            lens = [rep.len1_sq, rep.len2_sq]
            for u, len_sq in zip(quad.diagonal_vectors(), lens):
                p, q = diameter_endpoints(res.ellipse.conic, u)
                assert math.dist(p, q) ** 2 == pytest.approx(len_sq, rel=1e-10)
            fr, cls = normalize_to_qstvw(quad), classify(quad)
            if fr.shift == 0 and cls.mdq_type1:
                paper += 1
                parallelograms += cls.parallelogram
                r = (1.0 + res.r_star) / 2.0 if cls.parallelogram else res.r_star
                closed = closed_form_diameter_len_sq(fr.s, fr.v, fr.w, r)
                scale = math.hypot(*similarity_map(quad).linear[0])
                assert [x / scale ** 2 for x in closed] == pytest.approx(
                    lens, rel=1e-12)
        assert paper >= 90 and parallelograms >= 45

    def test_example(self, example_quad):
        rep = verify_T3(example_quad)
        assert rep.parallel and rep.equal_len and not rep.near_circle
        assert rep.len1_sq == pytest.approx(EXAMPLE_EQUAL_LEN_SQ, rel=1e-9)
        assert rep.len2_sq == pytest.approx(EXAMPLE_EQUAL_LEN_SQ, rel=1e-9)
        # the paper's closed form, the example being its own (s,t,v,w) frame
        for len_sq in closed_form_diameter_len_sq(8.0, 6.0, 2.0, EXAMPLE_R_STAR):
            assert len_sq == pytest.approx(EXAMPLE_EQUAL_LEN_SQ, rel=1e-9)

    def test_square_vacuous(self):
        rep = verify_T3(canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)]))
        assert rep.parallel and rep.equal_len and rep.near_circle

    def test_checks_a_given_result_as_it_stands(self, example_quad):
        rng = np.random.default_rng(59)
        quads = [example_quad, frame_quad(*random_type2_frame(rng)),
                 random_parallelogram(rng)]
        for quad in quads:
            assert verify_T3(min_ecc(quad)) == verify_T3(quad)
        res = min_ecc(example_quad)
        moved = res._replace(ellipse=inscribe(example_quad, EXAMPLE_R))
        assert not verify_T3(moved).equal_len

    def test_non_mdq_rejected(self):
        rng = np.random.default_rng(52)
        with pytest.raises(NotMDQ):
            verify_T3(frame_quad(*random_nonmdq_frame(rng)))

    def test_property_500_frames(self):
        rng = np.random.default_rng(53)
        for _ in range(250):
            type1 = bool(rng.integers(2))
            frame = (random_type1_frame(rng, min_ecc=1e-3) if type1
                     else random_type2_frame(rng))
            quad = frame_quad(*frame)
            rep = verify_T3(quad, tol=1e-7)
            assert rep.parallel and rep.equal_len

    def test_equal_conj_directions_match_diagonals(self):
        rng = np.random.default_rng(54)
        for _ in range(50):
            quad = frame_quad(*random_type1_frame(rng, min_ecc=1e-3))
            res = min_ecc(quad)
            pair = equal_conjugate_diameters(res.ellipse.conic)
            d1, d2 = quad.diagonal_vectors()
            m1 = min(parallel_margin(pair.dir1, d1), parallel_margin(pair.dir2, d1))
            m2 = min(parallel_margin(pair.dir1, d2), parallel_margin(pair.dir2, d2))
            assert m1 <= 1e-7 and m2 <= 1e-7

    def test_d1_diameter_lies_on_newton_line(self):
        # for a type-1 frame the D1-parallel equal diameter sits on the line
        # through the diagonal midpoints
        rng = np.random.default_rng(55)
        for _ in range(20):
            quad = frame_quad(*random_type1_frame(rng, min_ecc=1e-3))
            res = min_ecc(quad)
            m1, m2 = diagonal_midpoints(quad)
            c = center(res.ellipse.conic)
            assert_on_open_segment(c, m1, m2, 1e-8)
            # the Newton line direction is the D1 direction here
            d1 = quad.diagonal_vectors()[0]
            nl = (m2[0] - m1[0], m2[1] - m1[1])
            assert parallel_margin(d1, nl) <= 1e-9
