"""Tests of the benchmark itself: corpus, reference, checks and tracer.

Run from the root of a checkout with `python3 -m pytest perfbench -q`.
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inellipse  # noqa: E402
import inellipse.cli  # noqa: E402,F401
from inellipse.errors import InEllipseError, NonConvexInput  # noqa: E402

import corpus  # noqa: E402
import jobs  # noqa: E402
import reference  # noqa: E402
from tracer import Tracer  # noqa: E402


def _accept(verts):
    try:
        return inellipse.canonicalize(verts)
    except NonConvexInput:
        return None


def _items(workload, seed, size):
    drawn = corpus.build(workload, seed, size, _accept)
    items = [jobs.Item(i, cls, v, q, None) for i, (cls, v, q) in enumerate(drawn)]
    ref = reference.max_ratio_sq(np.array([it.verts for it in items]))
    for it, r in zip(items, ref):
        it.ref_ratio = float(r)
    return items


@pytest.mark.parametrize("census", (False, True))
@pytest.mark.parametrize("workload", sorted(corpus.MIXES))
def test_fixed_seed_reproduces_corpus(workload, census):
    first = corpus.build(workload, 7, 120, _accept, census)
    second = corpus.build(workload, 7, 120, _accept, census)
    other = corpus.build(workload, 8, 120, _accept, census)
    assert [(c, v) for c, v, _ in first] == [(c, v) for c, v, _ in second]
    assert [v for _, v, _ in first] != [v for _, v, _ in other]
    mix = (corpus.CENSUS_MIXES if census else corpus.MIXES)[workload]
    counts = corpus.class_counts(mix, 120)
    assert sum(counts.values()) == 120
    assert {cls: sum(c == cls for c, _, _ in first) for cls in counts} == counts


@pytest.mark.parametrize("census", (False, True))
def test_generated_classes_hold(census):
    for cls, verts, quad in corpus.build("report_mdq", 3, 200, _accept, census):
        rep = inellipse.classify(quad)
        if cls in ("parallelogram", "rhombus"):
            assert rep.parallelogram
        else:
            assert rep.mdq
        if cls in ("kite", "rhombus"):
            assert rep.kite and rep.tangential
    for cls, verts, quad in corpus.build("solve_numeric", 3, 200, _accept, True):
        if cls == "tangential":
            assert inellipse.classify(quad).tangential


def test_timed_frames_match_the_library_and_are_admissible():
    compared = 0
    for workload in sorted(corpus.MIXES):
        for cls, verts, quad in corpus.build(workload, 4, 100, _accept):
            if cls in ("parallelogram", "rhombus"):
                a1, a2, a3, a4 = verts  # centred at the origin
                assert a3 == (-a1[0], -a1[1]) and a4 == (-a2[0], -a2[1])
                continue
            assert corpus.admissible(verts)
            labeled = corpus.lower_left_labeling(verts)
            assert tuple(labeled) == quad.vertices
            fr = inellipse.normalize_to_qstvw(quad)
            if fr.shift == 0:
                assert np.allclose(corpus.frame(labeled), (fr.s, fr.t, fr.v, fr.w),
                                   rtol=1e-12, atol=1e-12)
                compared += 1
    assert compared >= 250


@pytest.mark.parametrize("workload", sorted(corpus.MIXES))
def test_every_timed_job_passes_its_checks(workload, tmp_path):
    items = _items(workload, 12, 60)
    if workload == "report_mdq":
        jobs.write_inputs(items, str(tmp_path))
    for it in items:
        value = jobs.make_job(workload, inellipse, it)()
        assert jobs.score(workload, it, value, None).problem is None, it.verts


def test_reference_matches_alpha_root_on_type1():
    compared = 0
    for it in _items("report_mdq", 11, 300):
        rep = inellipse.classify(it.quad)
        # kites are tangential: their optimum is the incircle, not alpha_root's
        if not rep.mdq_type1 or rep.parallelogram or rep.tangential:
            continue
        try:
            fr = inellipse.normalize_to_qstvw(it.quad)
            r1 = inellipse.alpha_root(fr.s, fr.v, fr.w)
            conic = inellipse.inscribe(it.quad, r1).conic
        except InEllipseError:
            continue  # frames the library rejects say nothing about the reference
        assert abs(reference.ellipse_of(conic)[2] - it.ref_ratio) <= 1e-11
        compared += 1
    assert compared >= 50


def test_reference_is_a_circle_for_kites():
    for it in _items("report_mdq", 5, 100):
        if it.cls == "kite":
            assert 1.0 - it.ref_ratio <= 1e-12


def test_checker_accepts_optimum_and_rejects_perturbed():
    checked = 0
    for it in _items("report_mdq", 2, 100):
        if jobs.canonical_class(it) != "type1":
            continue
        try:
            res = inellipse.min_ecc(it.quad)
        except InEllipseError:
            continue
        conic = res.ellipse.conic
        assert reference.score_optimum(conic, it.verts, it.ref_ratio)[0] is None
        # moved by 1e-4 of the quad's size: no longer tangent to the sides
        a, b, c, d, e, f = conic
        tx = ty = 1e-4 * max(math.dist(p, q) for p in it.verts for q in it.verts)
        moved = (a, b, c, d - 2 * a * tx - b * ty, e - b * tx - 2 * c * ty,
                 f - d * tx - e * ty + a * tx * tx + b * tx * ty + c * ty * ty)
        assert reference.score_optimum(moved, it.verts, it.ref_ratio)[0] == "tangency"
        # another inscribed member: tangent, but not the optimum
        other = inellipse.inscribe(it.quad, 0.5 * res.r_star)
        assert reference.score_optimum(other.conic, it.verts, it.ref_ratio)[0] == "shortfall"
        checked += 1
    assert checked >= 5


def test_report_check_flags_incomplete_document():
    it = next(it for it in _items("report_mdq", 4, 40) if it.cls == "kite")
    assert jobs.score("report_mdq", it, (0, '{"classification": {'), None).problem \
        == "json_incomplete"
    assert jobs.score("report_mdq", it, (1, ""), None).problem == "exit_nonzero"


def _profile_counts(func, names):
    """Calls of the named library functions, counted with sys.setprofile."""
    codes = {}
    for qual in names:
        layer, attr = qual.split(".")
        codes[getattr(sys.modules[f"inellipse.{layer}"], attr).__code__] = qual
    counts = dict.fromkeys(names, 0)

    def prof(frame, event, arg):
        if event == "call" and frame.f_code in codes:
            counts[codes[frame.f_code]] += 1
    sys.setprofile(prof)
    try:
        func()
    finally:
        sys.setprofile(None)
    return counts


def test_tracer_counts_every_call_and_restores(tmp_path):
    item = next(it for it in _items("report_mdq", 6, 60)
                if jobs.canonical_class(it) == "type1")
    jobs.write_inputs([item], str(tmp_path))
    job = jobs.make_job("report_mdq", inellipse, item)
    names = ("quad.classify", "affine.normalize_to_qstvw", "minecc.min_ecc", "cli.main")
    expected = _profile_counts(job, names)
    original = inellipse.quad.classify
    tracer = Tracer()
    tracer.install()
    try:
        first = tracer.run_job(0, job)
    finally:
        tracer.uninstall()
    assert inellipse.quad.classify is original
    assert inellipse.minecc.classify is original
    assert first == job()
    totals = tracer.totals()
    assert {n: totals[n][0] for n in names} == expected
    own = tracer.self_ns()
    assert min(own) >= 0
    root = [sid for sid, p in enumerate(tracer.parent) if p < 0]
    assert len(root) == 1
    assert sum(own) == tracer.end[root[0]] - tracer.start[root[0]]
    assert set(tracer.job) == {0}
    tracer.dump(tmp_path / "spans.tsv.gz")


def test_tangency_residual_is_exact_for_far_thin_ellipse():
    # a thin ellipse far from the origin: its conic's value at the center is
    # a difference of much larger terms
    cx, cy, semi_a, semi_b = 1e3, -2e3, 1.0, 1e-3
    conic = (1 / semi_a ** 2, 0.0, 1 / semi_b ** 2, -2 * cx / semi_a ** 2,
             -2 * cy / semi_b ** 2, cx ** 2 / semi_a ** 2 + cy ** 2 / semi_b ** 2 - 1)
    box = ((cx - semi_a, cy - semi_b), (cx - semi_a, cy + semi_b),
           (cx + semi_a, cy + semi_b), (cx + semi_a, cy - semi_b))
    resid, contacts, inside = reference.tangency(conic, box)
    assert max(resid) <= 1e-12 and all(inside)
    assert math.isclose(reference.ellipse_of(conic)[2], semi_b ** 2 / semi_a ** 2,
                        rel_tol=1e-9)
