"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines
as they complete.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
from numpy.polynomial import polynomial as npoly

from inellipse.conic import scale_normalized
from inellipse.diameters import (check_T2, conjugate_direction, parallel_margin,
                                 tangency_chords)
from inellipse.affine import alpha_coeffs
from inellipse.family import inscribe
from inellipse.minecc import min_ecc, min_ecc_numeric, verify_T3
from inellipse.quad import canonicalize, classify

from conics import (center, equal_conjugate_diameters, line_intersect, proportional,
                    t1_margin)
from paper import (EccFunctional, closed_form_diameter_len_sq, marden_foci,
                   qst_conic)
from sampling import (frame_quad, mdq_frame_margins, random_frame, random_kite,
                      random_nonmdq_frame, random_orthodiagonal_quad,
                      random_tangential_quad, random_type1_frame,
                      random_type2_frame)
from conftest import (EXAMPLE_CONIC, EXAMPLE_EQUAL_LEN_SQ, EXAMPLE_MIN_CONIC,
                      EXAMPLE_R, EXAMPLE_R_STAR, EXAMPLE_VERTICES,
                      assert_on_open_segment, assert_points_close,
                      centered_form_conic, diagonal_midpoints)


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {number:2d} FAIL  {description}")
        raise
    print(f"[acceptance] criterion {number:2d} PASS  {description}")


def test_criterion_01_golden_classification():
    with criterion(1, "golden example classifies as type-1 MDQ in < 1 ms"):
        quad = canonicalize(EXAMPLE_VERTICES)
        rep = classify(quad)
        assert rep.mdq_type1 is True
        assert rep.mdq_type2 is False
        assert rep.parallelogram is False
        assert rep.convex is True
        classify(quad)  # warm up before timing
        best = min(_timed(classify, quad) for _ in range(50))
        assert best < 1e-3, f"classification took {best * 1e3:.3f} ms"


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def test_criterion_02_golden_r37_ellipse():
    with criterion(2, "golden example r=3/7 conic, center and tangency points"):
        quad = canonicalize(EXAMPLE_VERTICES)
        ie = inscribe(quad, EXAMPLE_R)
        got = scale_normalized(ie.conic)
        ref = scale_normalized(EXAMPLE_CONIC)
        assert max(abs(g - r) for g, r in zip(got, ref)) <= 1e-9
        assert_points_close(center(ie.conic), (3.5, 1.75), 1e-12)
        expected = [(0.0, 3 / 7), (32 / 9, 7 / 3), (62 / 9, 26 / 9), (18 / 7, 6 / 7)]
        for got_pt, exp_pt in zip(ie.tangency, expected):
            assert_points_close(got_pt, exp_pt, 1e-10)


def test_criterion_03_golden_t2_t1():
    with criterion(3, "golden example chord slopes, conjugate direction, "
                      "chord midpoints"):
        quad = canonicalize(EXAMPLE_VERTICES)
        ie = inscribe(quad, EXAMPLE_R)
        chords = tangency_chords(ie)
        assert abs(chords.slopes[1] - 1 / 6) <= 1e-10  # q2q3
        assert abs(chords.slopes[3] - 1 / 6) <= 1e-10  # q1q4
        conj = conjugate_direction(ie.conic, (2.0, 1.0))
        assert abs(conj[1] / conj[0] - 1 / 6) <= 1e-10
        for b in np.linspace(-0.65, 0.65, 20):
            pts = line_intersect(ie.conic, (0.0, float(b)), (2.0, 1.0))
            assert len(pts) == 2
            mx = 0.5 * (pts[0][0] + pts[1][0])
            my = 0.5 * (pts[0][1] + pts[1][1])
            assert_points_close((mx, my), (3.5 - 3 * b, 1.75 - b / 2), 1e-9)
            assert abs((my - 1.75) - (mx - 3.5) / 6.0) <= 1e-9


def test_criterion_04_golden_min_eccentricity():
    with criterion(4, "golden example optimizer quadratic, r*, equal "
                      "conjugate lengths"):
        assert alpha_coeffs(8.0, 6.0, 2.0) == (-360.0, 492.0, 164.0)
        quad = canonicalize(EXAMPLE_VERTICES)
        res = min_ecc(quad)
        assert abs(res.r_star - EXAMPLE_R_STAR) <= 1e-12
        assert proportional(res.ellipse.conic, EXAMPLE_MIN_CONIC, 1e-9)
        rep = verify_T3(quad)
        assert abs(rep.len1_sq - rep.len2_sq) <= 1e-9 * rep.len1_sq
        # the example is its own (s,t,v,w) frame (8, 4, 6, 2)
        closed = closed_form_diameter_len_sq(8.0, 6.0, 2.0, res.r_star)
        for val in (rep.len1_sq, rep.len2_sq, *closed):
            assert abs(val - EXAMPLE_EQUAL_LEN_SQ) <= 1e-9 * EXAMPLE_EQUAL_LEN_SQ
        pair = equal_conjugate_diameters(res.ellipse.conic)
        assert abs(pair.len1_sq - EXAMPLE_EQUAL_LEN_SQ) <= 1e-9 * EXAMPLE_EQUAL_LEN_SQ


def test_criterion_05_property_t1_t2():
    with criterion(5, "T1/T2 over 500 MDQ + 500 non-MDQ frames in < 10 s"):
        t0 = time.perf_counter()
        rng = np.random.default_rng(2024)
        for i in range(500):
            frame = (random_type1_frame(rng) if i % 2 == 0
                     else random_type2_frame(rng))
            quad = frame_quad(*frame)
            r = rng.uniform(0.1, 0.9)
            ie = inscribe(quad, r)
            assert t1_margin(quad, ie.conic) <= 1e-7
            assert t1_margin(quad, ie.adjugate) <= 1e-7
            rep = check_T2(quad, ie, 1e-7)
            if i % 2 == 0:
                assert {"q2q3", "q1q4"} <= rep.parallel_to_d2
            else:
                assert {"q1q2", "q3q4"} <= rep.parallel_to_d1
        for _ in range(500):
            frame = random_nonmdq_frame(rng, min_margin=1e-3)
            assert min(mdq_frame_margins(*frame)) > 1e-3
            quad = frame_quad(*frame)
            ie = inscribe(quad, rng.uniform(0.1, 0.9))
            assert t1_margin(quad, ie.conic) > 1e-4
            assert t1_margin(quad, ie.adjugate) > 1e-4
            rep = check_T2(quad, ie, 1e-7)
            worst = min(rep.margins_d1["q1q2"], rep.margins_d1["q3q4"],
                        rep.margins_d2["q2q3"], rep.margins_d2["q1q4"])
            assert worst > 1e-4
        elapsed = time.perf_counter() - t0
        assert elapsed < 10.0, f"suite took {elapsed:.2f} s"


def test_criterion_06_property_t3():
    with criterion(6, "T3 over 500 type-1 frames: directions, optimizer "
                      "agreement, closed-form lengths"):
        rng = np.random.default_rng(2025)
        for _ in range(500):
            s, t, v, w = random_type1_frame(rng, min_ecc=1e-3)
            quad = frame_quad(s, t, v, w)
            res = min_ecc(quad)
            assert res.method == "alpha_closed_form"
            pair = equal_conjugate_diameters(res.ellipse.conic)
            d1, d2 = (s, t), (v, w - 1.0)
            m1 = min(parallel_margin(pair.dir1, d1), parallel_margin(pair.dir2, d1))
            m2 = min(parallel_margin(pair.dir1, d2), parallel_margin(pair.dir2, d2))
            assert m1 <= 1e-7 and m2 <= 1e-7
            numeric = min_ecc_numeric(quad)
            assert abs(res.r_star - numeric.r_star) <= 1e-9
            rep = verify_T3(quad)
            # the quad is its own shift-0 type-1 frame
            cf1, cf2 = closed_form_diameter_len_sq(s, v, w, res.r_star)
            assert abs(rep.len1_sq - cf1) <= 1e-8 * cf1
            assert abs(rep.len2_sq - cf2) <= 1e-8 * cf2


def test_criterion_07_polynomial_identities():
    with criterion(7, "N factorization, positivity on (0,1), type-1 p "
                      "factorization over random frames"):
        rng = np.random.default_rng(2026)
        grid = np.linspace(1e-4, 1 - 1e-4, 1000)
        for _ in range(200):
            s, t, v, w = random_frame(rng)
            func = EccFunctional(s, t, v, w)
            f2 = v * t - w * s
            expanded = 16.0 * s * s * v * v * npoly.polymul(
                npoly.polymul([0.0, 1.0], [1.0, -1.0]),
                npoly.polymul([v, s - v], [f2, s - v]))
            top = max(np.max(np.abs(expanded)), np.max(np.abs(func.n_coeffs)))
            assert np.max(np.abs(npoly.polysub(expanded, func.n_coeffs))) <= 1e-9 * top
            assert np.all(func.n(grid) > 0)
            assert np.all(func.o(grid) > 0)
        for _ in range(200):
            s, t, v, w = random_type1_frame(rng)
            func = EccFunctional(s, t, v, w)
            factored = -16.0 * v * v * s ** 4 * npoly.polymul(
                [v, 2.0 * (s - v)], alpha_coeffs(s, v, w))
            factored = np.append(np.asarray(factored), 0.0)
            top = max(np.max(np.abs(factored)), np.max(np.abs(func.p_coeffs)))
            assert np.max(np.abs(func.p_coeffs - factored)) <= 1e-9 * top


def test_criterion_08_derivation_consistency():
    with criterion(8, "centered-form conic matches the family conic; Newton "
                      "segment membership"):
        rng = np.random.default_rng(2027)
        for _ in range(200):
            while True:
                s = rng.uniform(0.3, 4.0)
                t = rng.uniform(0.3, 4.0)
                if s + t > 1.05 and abs(s - 1.0) > 0.05:
                    break
            q = rng.uniform(0.02, 0.98)
            conic = qst_conic(s, t, q)
            assert proportional(centered_form_conic(s, t, q), conic, 1e-9)
            assert_on_open_segment(center(conic), (s / 2, t / 2), (0.5, 0.5), 1e-9)
        for _ in range(200):
            quad = frame_quad(*random_frame(rng))
            ie = inscribe(quad, rng.uniform(0.02, 0.98))
            assert_on_open_segment(center(ie.conic), *diagonal_midpoints(quad), 1e-9)


def test_criterion_09_marden():
    with criterion(9, "triangle inscribed-ellipse foci and tangency points"):
        rng = np.random.default_rng(2028)

        def doubled_area(z):
            u, v = z[1] - z[0], z[2] - z[0]
            return u[0] * v[1] - u[1] * v[0]

        # equal weights touch the side midpoints
        for _ in range(100):
            z = rng.uniform(-3, 3, size=(3, 2))
            if abs(doubled_area(z)) < 0.1:
                continue
            _, zetas = marden_foci(tuple(z[0]), tuple(z[1]), tuple(z[2]),
                                   1 / 3, 1 / 3, 1 / 3)
            mids = [(z[1] + z[2]) / 2, (z[0] + z[2]) / 2, (z[0] + z[1]) / 2]
            scale = max(1.0, float(np.abs(z).max()))
            for zeta, mid in zip(zetas, mids):
                assert math.dist(zeta, tuple(mid)) <= 1e-12 * scale
        # right-triangle foci against the derivative-root oracle
        deriv_roots = np.roots([3.0, -2.0 * (1 + 1j), 1j])
        (f1, f2), zetas = marden_foci((0, 0), (1, 0), (0, 1), 1 / 3, 1 / 3, 1 / 3)
        got = sorted([complex(*f1), complex(*f2)], key=lambda x: x.real)
        for g, e in zip(got, sorted(deriv_roots, key=lambda x: x.real)):
            assert abs(g - e) <= 1e-12
        closed = sorted([((1 + 1j) + (1 - 1j) / math.sqrt(2)) / 3,
                         ((1 + 1j) - (1 - 1j) / math.sqrt(2)) / 3],
                        key=lambda x: x.real)
        for g, e in zip(got, closed):
            assert abs(g - e) <= 1e-12
        # constant focal-distance sum across the three tangency points
        for _ in range(100):
            z = rng.uniform(-3, 3, size=(3, 2))
            if abs(doubled_area(z)) < 0.1:
                continue
            weights = rng.uniform(0.1, 1.0, size=3)
            (f1, f2), zetas = marden_foci(tuple(z[0]), tuple(z[1]), tuple(z[2]),
                                          *weights)
            sums = [math.dist(zeta, f1) + math.dist(zeta, f2) for zeta in zetas]
            assert max(sums) - min(sums) <= 1e-10 * max(sums)


def test_criterion_10_classification_lattice():
    with criterion(10, "classification implications over 1000 kites/"
                       "tangential/orthodiagonal quads"):
        rng = np.random.default_rng(2029)
        quads = ([random_kite(rng) for _ in range(334)]
                 + [random_tangential_quad(rng) for _ in range(333)]
                 + [random_orthodiagonal_quad(rng) for _ in range(333)])
        assert len(quads) == 1000
        for quad in quads:
            rep = classify(quad, 1e-8)
            if rep.tangential and rep.mdq:
                assert rep.kite and rep.orthodiagonal
            if rep.tangential and rep.orthodiagonal:
                assert rep.mdq
            if rep.mdq and rep.trapezoid:
                assert rep.parallelogram
