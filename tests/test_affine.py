import math

import numpy as np
import pytest

from inellipse.affine import check_qstvw_region, normalize_to_qstvw
from inellipse.conic import ConicCoeffs
from inellipse.diameters import conjugate_direction, parallel_margin
from inellipse.minecc import min_ecc
from inellipse.quad import canonicalize, classify, quadrilateral

from conics import center, proportional
from paper import (AffineMap, EccFunctional, IDENTITY, SingularMap, rotation,
                   scaling, similarity_map)
from sampling import (frame_quad, random_affine, random_convex_quad,
                      random_ellipse, random_frame, random_s1s3_trapezoid,
                      random_similarity, random_tangential_quad,
                      random_type1_frame, random_type2_frame)
from conftest import assert_points_close


class TestAffineMapBasics:
    def test_identity(self):
        assert IDENTITY.apply((3.0, -2.0)) == (3.0, -2.0)

    def test_uniform_shrink(self):
        half = scaling(0.5)
        assert half.apply((0.0, 2.0)) == (0.0, 1.0)

    def test_compose_invert_roundtrip(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            m = random_affine(rng)
            r = m.invert().compose(m)
            p = (rng.uniform(-3, 3), rng.uniform(-3, 3))
            assert_points_close(r.apply(p), p, 1e-9)

    def test_singular_rejected(self):
        with pytest.raises(SingularMap):
            AffineMap(((1.0, 2.0), (2.0, 4.0)), (0.0, 0.0))

    def test_replace_keeps_the_singularity_check(self):
        moved = IDENTITY._replace(translation=(1.0, 2.0))
        assert moved == AffineMap(IDENTITY.linear, (1.0, 2.0))
        with pytest.raises(SingularMap):
            IDENTITY._replace(linear=((1.0, 2.0), (2.0, 4.0)))
        with pytest.raises(AttributeError):
            IDENTITY.translation = (1.0, 2.0)

    def test_apply_to_quad_recanonicalizes(self, example_quad):
        # a half-turn moves the lower-left corner; the image is relabeled
        m = rotation(math.pi)
        image = m.apply_to_quad(example_quad)
        expected = canonicalize([m.apply(p) for p in example_quad.vertices])
        assert image.vertices == expected.vertices
        assert image.a1 == min(image.vertices, key=lambda p: (p[1], p[0]))


class TestApplyToConic:
    def test_identity_fixes_conic(self):
        c = ConicCoeffs(2, 1, 3, 0, -1, -5)
        assert proportional(IDENTITY.apply_to_conic(c), c, 1e-12)

    def test_axis_stretch_of_circle(self):
        m = AffineMap(((2.0, 0.0), (0.0, 1.0)), (0.0, 0.0))
        image = m.apply_to_conic(ConicCoeffs(1, 0, 1, 0, 0, -1))
        assert proportional(image, ConicCoeffs(1, 0, 4, 0, 0, -4), 1e-12)

    def test_center_equivariance(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            c = random_ellipse(rng)
            m = random_affine(rng)
            lhs = center(m.apply_to_conic(c))
            rhs = m.apply(center(c))
            assert_points_close(lhs, rhs, 1e-8 * (1 + math.hypot(*rhs)))

    def test_conjugacy_preserved(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            c = random_ellipse(rng)
            m = random_affine(rng)
            u = (rng.uniform(-1, 1), rng.uniform(-1, 1))
            if math.hypot(*u) < 0.1:
                continue
            v = conjugate_direction(c, u)
            cu = m.apply_direction(u)
            cv = m.apply_direction(v)
            image = m.apply_to_conic(c)
            assert parallel_margin(conjugate_direction(image, cu), cv) <= 1e-9


class TestNormalizeToQstvw:
    def test_example_identity(self, example_quad):
        fr = normalize_to_qstvw(example_quad)
        assert (fr.s, fr.t, fr.v, fr.w) == (8.0, 4.0, 6.0, 2.0)
        assert fr.shift == 0

    def test_translation_invariance(self, example_quad):
        moved = quadrilateral([(x + 5, y + 5) for x, y in example_quad.vertices])
        fr = normalize_to_qstvw(moved)
        assert np.allclose((fr.s, fr.t, fr.v, fr.w), (8, 4, 6, 2), atol=1e-12)

    def test_uniform_scaling_invariance(self, example_quad):
        scaled = quadrilateral([(3 * x, 3 * y) for x, y in example_quad.vertices])
        fr = normalize_to_qstvw(scaled)
        assert np.allclose((fr.s, fr.t, fr.v, fr.w), (8, 4, 6, 2), atol=1e-12)
        assert math.hypot(*similarity_map(scaled).linear[0]) == pytest.approx(1.0 / 3.0)

    def test_similarity_invariance(self):
        rng = np.random.default_rng(5)
        for _ in range(60):
            frame = random_frame(rng)
            quad = frame_quad(*frame)
            sim = random_similarity(rng)
            moved = quadrilateral([sim.apply(p) for p in quad.vertices])
            fr = normalize_to_qstvw(moved)
            assert np.allclose((fr.s, fr.t, fr.v, fr.w), frame, rtol=1e-9, atol=1e-9)

    def test_mdq_type_preserved(self):
        rng = np.random.default_rng(6)
        for type1 in (True, False):
            for _ in range(25):
                frame = (random_type1_frame(rng) if type1
                         else random_type2_frame(rng))
                quad = frame_quad(*frame)
                sim = random_similarity(rng)
                moved = quadrilateral([sim.apply(p) for p in quad.vertices])
                fr = normalize_to_qstvw(moved)
                from paper import mdq_type_qstvw
                got = mdq_type_qstvw(fr.s, fr.t, fr.v, fr.w, tol=1e-7)
                assert got == (type1, not type1)

    def test_parallelogram_gets_its_shift_zero_frame(self):
        fr = normalize_to_qstvw(canonicalize([(0, 0), (0, 2), (3, 2), (3, 0)]))
        assert fr.shift == 0
        assert np.allclose((fr.s, fr.t, fr.v, fr.w), (1.5, 1.0, 1.5, 0.0),
                           rtol=0.0, atol=1e-12)

    def test_s1s3_parallel_trapezoid_keeps_its_labels(self):
        # parallel sides S1 and S3 (s = v) no longer force a label shift
        quad = canonicalize([(0, 0), (0, 1), (1, 0.5), (1, 0)])
        fr = normalize_to_qstvw(quad)
        assert fr.shift == 0
        assert (fr.s, fr.t, fr.v, fr.w) == (1.0, 0.5, 1.0, 0.0)

    def test_s1s3_trapezoids_get_admissible_frames(self):
        # including those whose legs lean the same way, which no label
        # shift with s != v admits; min_ecc reaches the dense maximum of G
        # over the frame's family
        rng = np.random.default_rng(9)
        grid = np.linspace(0.0, 1.0, 4003)[1:-1]
        for _ in range(500):
            quad = random_s1s3_trapezoid(rng)
            fr = normalize_to_qstvw(quad)
            check_qstvw_region(fr.s, fr.t, fr.v, fr.w)
            res = min_ecc(quad)
            best = float(np.max(EccFunctional(fr.s, fr.t, fr.v, fr.w).g(grid)))
            assert res.axis_ratio_sq >= best - 1e-9

    def test_every_non_parallelogram_gets_an_admissible_frame(self):
        for draw in (random_convex_quad, random_tangential_quad):
            rng = np.random.default_rng(0)
            for _ in range(2000):
                quad = draw(rng)
                if classify(quad).parallelogram:
                    continue
                fr = normalize_to_qstvw(quad)
                check_qstvw_region(fr.s, fr.t, fr.v, fr.w)
                labeled = quad.rotate_labels(fr.shift)
                m = similarity_map(labeled)
                expect = [(0.0, 0.0), (0.0, 1.0), (fr.s, fr.t), (fr.v, fr.w)]
                for p, e in zip(labeled.vertices, expect):
                    assert_points_close(m.apply(p), e, 1e-9)


class TestParallelogramFrame:
    def test_unit_square(self):
        frame = normalize_to_qstvw(canonicalize([(0, 0), (0, 1), (1, 1), (1, 0)]))
        assert frame.shift == 0
        assert (frame.s, frame.t, frame.v, frame.w) == (1.0, 1.0, 1.0, 0.0)

    def test_maps_vertices_to_frame_corners(self):
        # every parallelogram's first admissible frame is its shift-0 frame
        # (s, t, s, t - 1)
        rng = np.random.default_rng(7)
        from sampling import random_parallelogram
        for _ in range(30):
            quad = random_parallelogram(rng)
            fr = normalize_to_qstvw(quad)
            assert fr.shift == 0
            assert fr.v == pytest.approx(fr.s, rel=1e-9)
            assert fr.w == pytest.approx(fr.t - 1.0, abs=1e-9)
            m = similarity_map(quad)
            expect = [(0.0, 0.0), (0.0, 1.0), (fr.s, fr.t), (fr.s, fr.t - 1.0)]
            for p, e in zip(quad.vertices, expect):
                assert_points_close(m.apply(p), e, 1e-9)
