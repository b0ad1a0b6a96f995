import argparse
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import inellipse
from inellipse import affine, cli, minecc, quad
from inellipse.cli import main
from inellipse.conic import ConicCoeffs, geometry
from inellipse.diameters import check_T2
from inellipse.errors import InEllipseError
from inellipse.family import inscribe
from inellipse.minecc import verify_T3
from inellipse.quad import CLASSIFY_TOL, canonicalize, classify, diagonals

from conftest import EXAMPLE_R_STAR, EXAMPLE_VERTICES
from conics import center, diameter_endpoints, t1_margin
from sampling import random_mdq_quad


@pytest.fixture
def example_file(tmp_path):
    path = tmp_path / "example.json"
    path.write_text(json.dumps({"vertices": EXAMPLE_VERTICES,
                                "label": "worked-example"}))
    return str(path)


@pytest.fixture
def square_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [0, 1], [1, 1], [1, 0]]}))
    return str(path)


@pytest.fixture
def trapezoid_file(tmp_path):
    # S1 and S3 parallel in the lower-left labeling
    path = tmp_path / "trapezoid.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 1], [3, 2], [1, 0]]}))
    return str(path)


@pytest.fixture
def leaning_trapezoid_file(tmp_path):
    # S1 || S3 with both legs leaning the same way: only frames with s = v
    # are admissible
    path = tmp_path / "leaning_trapezoid.json"
    path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [6, 1], [-5, 1]]}))
    return str(path)


@pytest.fixture
def near_mdq_file(tmp_path):
    # an MDQ at --tol 1e-5 but not at the default 1e-9
    path = tmp_path / "near_mdq.json"
    path.write_text(json.dumps(
        {"vertices": [[0, 0], [0, 1], [2, 0.80000001], [3, 0.2]]}))
    return str(path)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, (json.loads(out) if out.strip() else None)


def _reject_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


def strict_loads(text):
    """json.loads that rejects the NaN, Infinity and -Infinity tokens."""
    return json.loads(text, parse_constant=_reject_constant)


@pytest.fixture
def call_counts(monkeypatch):
    """Calls of `classify`, `normalize_to_qstvw`, `min_ecc` and Pitot's test
    (`_tangential`), and builds of the pencil (`_diagonal_data`), counted in
    every module namespace that holds them, so calls between modules are
    counted too."""
    calls = {"classify": 0, "normalize_to_qstvw": 0, "min_ecc": 0,
             "_diagonal_data": 0, "_tangential": 0}
    for name, fn in (("classify", quad.classify),
                     ("_diagonal_data", quad._diagonal_data),
                     ("_tangential", quad._tangential),
                     ("normalize_to_qstvw", affine.normalize_to_qstvw),
                     ("min_ecc", minecc.min_ecc)):
        def counted(*args, _name=name, _fn=fn, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for module in [inellipse] + [getattr(inellipse, m) for m in dir(inellipse)]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted)
    return calls


class TestClassify:
    def test_example(self, capsys, example_file):
        code, doc = run_json(capsys, ["classify", example_file])
        assert code == 0
        cls = doc["classification"]
        assert cls["mdq_type1"] is True
        assert cls["mdq_type2"] is False
        assert cls["parallelogram"] is False
        assert cls["diagonal_midpoints"] == [[4.0, 2.0], [3.0, 1.5]]
        assert doc["label"] == "worked-example"

    def test_square_flags(self, capsys, square_file):
        code, doc = run_json(capsys, ["classify", square_file])
        cls = doc["classification"]
        assert all(cls[k] for k in ("parallelogram", "trapezoid", "tangential",
                                    "orthodiagonal", "kite", "mdq_type1",
                                    "mdq_type2"))

    def test_concave_exit_3(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [4, 0], [2, 3], [2, 1]]}))
        assert main(["classify", str(path)]) == 3
        # a square whose diameter overflows the float range
        path.write_text(json.dumps({"vertices": [[-1e308, -1e308], [-1e308, 1e308],
                                                 [1e308, 1e308], [1e308, -1e308]]}))
        capsys.readouterr()
        assert main(["classify", str(path)]) == 3
        assert capsys.readouterr().err == \
            "error: the diameter overflows the float range\n"
        # an integer literal past the float range exits 3, as 1e400 does
        for first in ("1" + "0" * 400, "-1" + "0" * 400, "1e400"):
            path.write_text('{"vertices": [[%s, 0], [0, 1], [8, 4], [6, 2]]}' % first)
            assert main(["classify", str(path)]) == 3, first
            captured = capsys.readouterr()
            assert captured.out == "" and captured.err.count("\n") == 1, captured
            assert captured.err.startswith("error: "), captured

    def test_parse_error_exit_2(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        assert main(["classify", str(path)]) == 2

    def test_schema_error_exit_2(self, capsys, tmp_path):
        path = tmp_path / "schema.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, 0], [1, 1]]}))
        assert main(["classify", str(path)]) == 2
        # a string or a boolean is not a coordinate, even one float() reads
        for first in (["0", "0"], [False, 0], ["nan", 0]):
            path.write_text(json.dumps({"vertices": [first] + EXAMPLE_VERTICES[1:]}))
            capsys.readouterr()
            assert main(["classify", str(path)]) == 2, first
            assert capsys.readouterr() == ("", "error: vertex coordinates must be numbers\n")

    def test_a_bad_shape_anywhere_wins_over_a_bad_type(self, capsys, tmp_path):
        # every vertex's shape is checked before any vertex's types
        path = tmp_path / "schema.json"
        path.write_text(json.dumps(
            {"vertices": [["0", 0]] + EXAMPLE_VERTICES[1:3] + [[6, 2, 0]]}))
        assert main(["classify", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: 'vertices' must be four [x, y] pairs\n")

    @pytest.mark.parametrize("content", [b"\xff\xfe\x00{}",
                                         b'{"vertices": ' + b"[" * 100000,
                                         b'{"vertices": ' + b"1" * 5000 + b"}"],
                             ids=["not_utf8", "nested_too_deep", "long_integer"])
    def test_undecodable_input_exit_2(self, capsys, tmp_path, content):
        path = tmp_path / "bad.bin"
        path.write_bytes(content)
        assert main(["min-ecc", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: cannot read input: ")
        assert captured.err.count("\n") == 1

    def test_a_file_reads_as_text_mode_reads_it(self, capsys, tmp_path):
        # read as bytes and decoded once: CRLF and CR newlines read as LF, so
        # reports and parse-error offsets are the same, and a UTF-8 BOM is
        # not stripped
        path = tmp_path / "example.json"
        text = json.dumps({"vertices": EXAMPLE_VERTICES, "label": "worked-example"},
                          indent=1)
        broken = '{\n "vertices": [[0, 0],\n [0, 1] [8, 4], [6, 2]]}\n'
        runs = {}
        for newline in ("\n", "\r\n", "\r"):
            for name, doc in (("example", text), ("broken", broken)):
                path.write_bytes(doc.replace("\n", newline).encode())
                runs[name, newline] = main(["min-ecc", str(path)]), *capsys.readouterr()
        assert runs["example", "\n"][0] == 0 and runs["example", "\n"][2] == ""
        assert runs["broken", "\n"] == (2, "", "error: cannot read input: Expecting ',' "
                                         "delimiter: line 3 column 9 (char 32)\n")
        for newline in ("\r\n", "\r"):
            for name in ("example", "broken"):
                assert runs[name, newline] == runs[name, "\n"]
        path.write_bytes(b"\xef\xbb\xbf" + text.encode())
        assert main(["min-ecc", str(path)]) == 2
        assert capsys.readouterr() == ("", "error: cannot read input: Unexpected UTF-8 "
                                       "BOM (decode using utf-8-sig): line 1 column 1 "
                                       "(char 0)\n")

    def test_stdin_reads_as_a_file_reads(self, tmp_path):
        # stdin is read as bytes and decoded as a file is, whatever the
        # locale: bytes that are not UTF-8 exit 2, and CRLF and CR newlines
        # read as LF, parse-error offsets included
        src = os.path.dirname(os.path.dirname(inellipse.__file__))
        env = dict(os.environ, LC_ALL="C")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        path = tmp_path / "input.json"
        not_utf8 = b'{"vertices": [[0, 0], [0, 1], [8, 4], [6, 2]], "label": "\xff"}'
        broken = b'{\r\n "vertices": [[0, 0],\r\n [0, 1] [8, 4], [6, 2]]}\r\n'
        for data in (not_utf8, broken, broken.replace(b"\r\n", b"\r")):
            path.write_bytes(data)
            runs = [subprocess.run([sys.executable, "-m", "inellipse.cli", "min-ecc", arg],
                                   input=data, env=env, capture_output=True)
                    for arg in (str(path), "-")]
            assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [
                (2, b"", runs[0].stderr)] * 2
            assert runs[0].stderr.startswith(b"error: cannot read input: ")
            assert runs[0].stderr.count(b"\n") == 1


class TestInscribe:
    def test_example_r37(self, capsys, example_file):
        code, doc = run_json(capsys, ["inscribe", "--param", repr(3 / 7),
                                      example_file])
        assert code == 0
        ell = doc["ellipse"]
        assert ell["center"][0] == pytest.approx(3.5, abs=1e-9)
        assert ell["center"][1] == pytest.approx(1.75, abs=1e-9)
        assert ell["tangency"][0][1] == pytest.approx(3 / 7, abs=1e-10)

    def test_square_incircle(self, capsys, square_file):
        code, doc = run_json(capsys, ["inscribe", "--param", "0", square_file])
        assert code == 0
        assert doc["ellipse"]["eccentricity"] == pytest.approx(0.0, abs=1e-12)

    def test_param_out_of_range_exit_4(self, example_file):
        assert main(["inscribe", "--param", "1.0", example_file]) == 4

    def test_json_roundtrip_reproduces_geometry(self, capsys, example_file):
        _, doc = run_json(capsys, ["inscribe", "--param", "0.3", example_file])
        ell = doc["ellipse"]
        conic = ConicCoeffs(*ell["coefficients"])
        cx, cy = center(conic)
        assert cx == pytest.approx(ell["center"][0], abs=1e-12)
        assert cy == pytest.approx(ell["center"][1], abs=1e-12)
        geo = geometry(conic)
        assert geo.eccentricity == pytest.approx(ell["eccentricity"], abs=1e-12)

    def test_coefficients_max_abs_normalized(self, capsys, example_file):
        _, doc = run_json(capsys, ["inscribe", "--param", "0.3", example_file])
        coeffs = doc["ellipse"]["coefficients"]
        assert max(abs(x) for x in coeffs) == pytest.approx(1.0, abs=1e-15)


class TestEllipseBlock:
    @pytest.mark.parametrize("argv", [["inscribe", "--param", "0.3"],
                                      ["min-ecc"]])
    def test_coefficients_are_the_library_conic(self, capsys, example_file,
                                                argv):
        quad = canonicalize(EXAMPLE_VERTICES)
        ie = (inscribe(quad, 0.3) if argv[0] == "inscribe"
              else minecc.min_ecc(quad).ellipse)
        code, doc = run_json(capsys, argv + [example_file])
        assert code == 0
        assert doc["ellipse"]["coeff_scale"] == 1.0
        assert doc["ellipse"]["coefficients"] == list(ie.conic)

    @pytest.mark.parametrize("vertices", [
        EXAMPLE_VERTICES, [[0, 0], [0, 1], [1, 1], [1, 0]],
        [[0, 0], [1, 1], [3, 2], [1, 0]], [[0, 0], [1, 0], [6, 1], [-5, 1]],
        [[0, 0], [0, 1], [2, 0.80000001], [3, 0.2]],
        [[0, 0], [1, 2], [4, 2], [3, 0]], [[0, 0], [0.5, 3], [4, 2], [2.75, 0]],
        [[0, 0], [0, 1], [2, 3], [1, 0]], [[0, 0], [1, 0], [1.2, 1], [0.1, 0.8]]],
        ids=["example", "square", "trapezoid", "leaning_trapezoid", "near_mdq",
             "parallelogram", "type2", "generic", "generic_ci"])
    def test_min_ecc_block_reads_the_ellipse(self, capsys, tmp_path, vertices):
        # one value for each number about the optimum, to the last bit
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"vertices": vertices}))
        code, doc = run_json(capsys, ["min-ecc", str(path)])
        assert code == 0
        block, ell = doc["min_ecc"], doc["ellipse"]
        assert block["r_star"] == ell["param"]
        assert block["eccentricity"] == ell["eccentricity"]
        assert block["axis_ratio_sq"] == ell["axis_ratio_sq"]


def _list_built_report(q, label=None, tol=1e-9):
    """The `min-ecc` document built from the library's results, every point
    and tuple rebuilt as a list."""
    rep, res = classify(q, tol), minecc.min_ecc(q, tol)
    ie = res.ellipse
    conic, geo = ie.conic, ie.geometry
    a1, a2, a3, a4 = q.vertices
    out = {
        "classification": {
            "vertices": [list(p) for p in q.vertices],
            "convex": rep.convex, "parallelogram": rep.parallelogram,
            "trapezoid": rep.trapezoid, "tangential": rep.tangential,
            "orthodiagonal": rep.orthodiagonal, "kite": rep.kite,
            "mdq_type1": rep.mdq_type1, "mdq_type2": rep.mdq_type2,
            "side_lengths": list(rep.side_lengths),
            "diagonal_midpoints": [[0.5 * (a1[0] + a3[0]), 0.5 * (a1[1] + a3[1])],
                                   [0.5 * (a2[0] + a4[0]), 0.5 * (a2[1] + a4[1])]],
            "diagonal_intersection": list(diagonals(q).p),
        },
        "ellipse": {
            "coefficients": list(conic),
            "coeff_scale": max(abs(x) for x in conic),
            "param": ie.param, "frame": ie.frame, "center": list(geo.center),
            "eccentricity": geo.eccentricity, "axis_ratio_sq": geo.axis_ratio_sq,
            "semi_axes": [geo.semi_major, geo.semi_minor],
            "tangency": [list(p) for p in ie.tangency],
        },
        "min_ecc": {"r_star": res.r_star, "method": res.method,
                    "eccentricity": geo.eccentricity, "axis_ratio_sq": geo.axis_ratio_sq},
    }
    if not geo.near_circle:
        (ux, uy), (vx, vy) = q._diagonal_units
        out["min_ecc"]["equal_conjugate_angle"] = 2.0 * math.atan(
            math.sqrt(geo.axis_ratio_sq))
        out["min_ecc"]["diagonal_angle"] = math.atan2(abs(ux * vy - uy * vx),
                                                      abs(ux * vx + uy * vy))
    if rep.mdq:
        t3 = verify_T3(res)
        out["verification"] = {
            "t3_parallel": t3.parallel, "t3_equal_lengths": t3.equal_len,
            "diameter_len_sq": [t3.len1_sq, t3.len2_sq],
            "near_circle": t3.near_circle, "parallel_margin": t3.parallel_margin,
            "length_margin": t3.length_margin,
        }
        if rep.mdq_type1 and not rep.parallelogram:
            try:
                fr = affine.normalize_to_qstvw(q)
                paper = affine.alpha_root(fr.s, fr.v, fr.w) if fr.shift == 0 else None
            except InEllipseError:
                paper = None
            out["verification"]["paper_r_star"] = paper
    if label:
        out["label"] = label
    return out


class TestMinEcc:
    @pytest.mark.parametrize("vertices, label", [
        (EXAMPLE_VERTICES, "worked-example"), ([[0, 0], [0, 1], [1, 1], [1, 0]], None),
        ([[0, 0], [-1, 2], [0, 5], [1, 2]], None),
        ([[0, 0], [0.8999997, 0.3000006], [3, 1], [0.9000003, 0.2999994]], None),
        ([[0, 0], [1, 0], [1.2, 1], [0.1, 0.8]], None),
        ([[x + 1e8, y + 1e8] for x, y in EXAMPLE_VERTICES], None),
        ([[x * 1e-100, y * 1e-100] for x, y in EXAMPLE_VERTICES], None)],
        ids=["example", "square", "kite", "thin_type1", "generic", "moved_1e8",
             "scaled_1e-100"])
    def test_stdout_is_the_list_built_report(self, capsys, tmp_path, vertices, label):
        # tuples encode as arrays: the report equals, byte for byte, the one
        # built from lists out of the library's own results
        path = tmp_path / "quad.json"
        doc = {"vertices": vertices}
        if label:
            doc["label"] = label
        path.write_text(json.dumps(doc))
        assert main(["min-ecc", str(path)]) == 0
        want = json.dumps(_list_built_report(canonicalize(vertices), label)) + "\n"
        assert capsys.readouterr() == (want, "")

    def test_example(self, capsys, example_file):
        code, doc = run_json(capsys, ["min-ecc", example_file])
        assert code == 0
        assert doc["min_ecc"]["method"] == "alpha_closed_form"
        assert doc["min_ecc"]["r_star"] == pytest.approx(EXAMPLE_R_STAR, abs=1e-12)
        ver = doc["verification"]
        assert ver["t3_parallel"] and ver["t3_equal_lengths"]
        assert ver["diameter_len_sq"][0] == pytest.approx(
            ver["diameter_len_sq"][1], rel=1e-9)

    def test_square(self, capsys, square_file):
        code, doc = run_json(capsys, ["min-ecc", square_file])
        assert doc["min_ecc"]["eccentricity"] == 0.0
        assert doc["min_ecc"]["method"] == "alpha_closed_form"
        assert doc["verification"]["near_circle"] is True

    def test_non_mdq_numeric_no_t3_block(self, capsys, tmp_path):
        path = tmp_path / "generic.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [0, 1], [2, 3], [1, 0]]}))
        code, doc = run_json(capsys, ["min-ecc", str(path)])
        assert code == 0
        assert doc["min_ecc"]["method"] == "quartic_numeric"
        assert "verification" not in doc

    def test_offset_parallelogram_whole_document(self, capsys, tmp_path):
        path = tmp_path / "parallelogram.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [1, 2], [4, 2], [3, 0]]}))
        code = main(["min-ecc", str(path)])
        out = capsys.readouterr().out
        assert code == 0
        doc = json.loads(out)
        assert doc["min_ecc"]["method"] == "alpha_closed_form"
        assert doc["verification"]["t3_equal_lengths"] is True
        assert doc["ellipse"]["frame"] == "parallelogram"
        conic = ConicCoeffs(*doc["ellipse"]["coefficients"])
        quad = canonicalize(doc["classification"]["vertices"])
        direct = [math.dist(*diameter_endpoints(conic, u)) ** 2
                  for u in quad.diagonal_vectors()]
        assert direct == pytest.approx(doc["verification"]["diameter_len_sq"], rel=1e-8)

    def test_s1s3_trapezoid(self, capsys, trapezoid_file):
        code, doc = run_json(capsys, ["min-ecc", trapezoid_file])
        assert code == 0
        assert doc["min_ecc"]["method"] == "quartic_numeric"
        code, doc = run_json(capsys, ["inscribe", "--param", "0.5", trapezoid_file])
        assert code == 0
        assert doc["ellipse"]["param"] == 0.5

    def test_leaning_s1s3_trapezoid(self, capsys, leaning_trapezoid_file):
        code, doc = run_json(capsys, ["min-ecc", leaning_trapezoid_file])
        assert code == 0
        assert doc["min_ecc"]["method"] == "quartic_numeric"
        code, doc = run_json(capsys, ["inscribe", "--param", "0.5",
                                      leaning_trapezoid_file])
        assert code == 0
        assert doc["ellipse"]["param"] == 0.5

    def test_inscribe_at_r_star_repeats_the_optimum(self, capsys, tmp_path):
        # a type-2 MDQ in its lower-left labeling: `inscribe --param r_star`
        # prints the ellipse that `min-ecc` found
        path = tmp_path / "type2.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [0.5, 3], [4, 2], [2.75, 0]]}))
        code, doc = run_json(capsys, ["min-ecc", str(path)])
        assert code == 0
        assert doc["classification"]["mdq_type2"]
        assert not doc["classification"]["mdq_type1"]
        assert doc["min_ecc"]["method"] == "alpha_closed_form"
        best = doc["ellipse"]
        code, doc = run_json(capsys, ["inscribe", "--param",
                                      repr(doc["min_ecc"]["r_star"]), str(path)])
        assert code == 0
        assert doc["ellipse"]["coefficients"] == pytest.approx(best["coefficients"],
                                                               abs=1e-12)
        assert doc["ellipse"]["tangency"] == best["tangency"]

    def test_solves_once_and_classifies_at_most_three_times(
            self, capsys, example_file, call_counts):
        code, doc = run_json(capsys, ["min-ecc", example_file])
        assert code == 0
        assert doc["verification"]["t3_equal_lengths"] is True
        assert call_counts["min_ecc"] == 1
        assert call_counts["classify"] <= 3

    def test_type1_report_gives_the_paper_root(self, capsys, tmp_path,
                                                example_file, call_counts):
        # the paper's alpha root, from the quad's own (s,t,v,w) frame, is
        # reported beside the pencil's optimum on the worked example and on
        # seeded type-1 MDQs, each reduced to its frame once
        rng = np.random.default_rng(23)
        paths = [example_file]
        for i in range(40):
            path = tmp_path / f"mdq_{i}.json"
            quad = canonicalize(random_mdq_quad(rng, type1=True).vertices)
            path.write_text(json.dumps({"vertices": quad.vertices}))
            paths.append(str(path))
        type1 = 0
        for path in paths:
            code, doc = run_json(capsys, ["min-ecc", path])
            assert code == 0
            cls = doc["classification"]
            if not cls["mdq_type1"]:
                continue  # canonical labels can make a type-1 draw type 2
            assert not cls["parallelogram"]
            type1 += 1
            assert doc["verification"]["paper_r_star"] == pytest.approx(
                doc["min_ecc"]["r_star"], abs=1e-12)
            assert call_counts["normalize_to_qstvw"] == type1
        assert type1 >= 15
        # type-1 MDQs whose first admissible frame has label shift 1: their
        # own labeling is no frame, and the paper root is null (on the second,
        # alpha_root of the shifted frame is 0.202, not r* = 0.609)
        shifted = ([[0.036035139077022285, -0.9993505234659656],
                    [-0.11374607422895004, -0.660094359467953], [0, 0],
                    [0.13138423630044996, 0.17094107879224132]],
                   [[-0.13065723290861486, -0.7160471647639355],
                    [-0.20432524038150832, -0.4563454789334927],
                    [0.07130886711526027, 0.3907974398640711],
                    [0.20432524038150832, 0.4563454789334927]])
        for vertices in shifted:
            path = tmp_path / "shift1.json"
            path.write_text(json.dumps({"vertices": vertices}))
            code, doc = run_json(capsys, ["min-ecc", str(path)])
            assert code == 0
            cls = doc["classification"]
            assert cls["mdq_type1"] and not cls["parallelogram"]
            assert doc["verification"]["paper_r_star"] is None
            type1 += 1
            assert call_counts["normalize_to_qstvw"] == type1

    def test_type2_report_has_no_paper_root(self, capsys, tmp_path):
        path = tmp_path / "type2.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [0.5, 3], [4, 2], [2.75, 0]]}))
        code, doc = run_json(capsys, ["min-ecc", str(path)])
        assert code == 0
        assert "paper_r_star" not in doc["verification"]

    def test_classifies_at_most_twice(self, capsys, example_file, call_counts):
        # once, at --tol: the report and the verification block read that
        # one classification, and min_ecc's dispatch its MDQ flags
        code, _ = run_json(capsys, ["min-ecc", example_file])
        assert code == 0
        assert call_counts["classify"] == 1
        # Pitot's test is the classification's alone
        assert call_counts["_tangential"] == 1
        # the report, the dispatch and the solver read one pencil
        assert call_counts["_diagonal_data"] == 1

    def test_tol_reaches_the_dispatch(self, capsys, near_mdq_file):
        # an MDQ at --tol 1e-5 but not at the default 1e-9: the method is
        # the one the reported classification names
        code, doc = run_json(capsys, ["--tol", "1e-5", "min-ecc", near_mdq_file])
        assert code == 0
        assert doc["classification"]["mdq_type1"] or doc["classification"]["mdq_type2"]
        assert doc["min_ecc"]["method"] == "alpha_closed_form"
        assert doc["verification"]["t3_equal_lengths"] is True
        code, doc = run_json(capsys, ["min-ecc", near_mdq_file])
        assert code == 0
        assert doc["min_ecc"]["method"] == "quartic_numeric"
        assert "verification" not in doc

    def test_exploratory_angle_block(self, capsys, example_file, tmp_path):
        _, doc = run_json(capsys, ["min-ecc", example_file])
        block = doc["min_ecc"]
        # for an MDQ the two angles coincide
        assert block["equal_conjugate_angle"] == pytest.approx(
            block["diagonal_angle"], abs=1e-9)
        path = tmp_path / "generic.json"
        path.write_text(json.dumps({"vertices": [[0, 0], [0, 1], [2, 3], [1, 0]]}))
        _, doc = run_json(capsys, ["min-ecc", str(path)])
        # reported for non-MDQs too, with no equality claim
        assert "equal_conjugate_angle" in doc["min_ecc"]
        assert "diagonal_angle" in doc["min_ecc"]


class TestMainPath:
    """`main` classifies, labels, maps errors and serializes for every
    command."""

    @pytest.mark.parametrize("argv", [
        ["classify"], ["inscribe", "--param", "0.3"], ["min-ecc"],
        ["verify", "--theorem", "t1"], ["verify", "--theorem", "t2"],
        ["verify", "--theorem", "t3"],
        ["plot", "--params", "0.3,0.6", "--out", "FIG"]],
        ids=["classify", "inscribe", "min-ecc", "verify-t1", "verify-t2",
             "verify-t3", "plot"])
    def test_classifies_once(self, capsys, tmp_path, example_file,
                             call_counts, argv):
        argv = [str(tmp_path / "fig.svg") if a == "FIG" else a for a in argv]
        assert main(argv + [example_file]) == 0
        capsys.readouterr()
        assert call_counts["classify"] == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_bad_tol_exit_2(self, capsys, example_file, tol):
        # nan and -1 would clear every flag, inf would set every flag
        assert main(["--tol", tol, "min-ecc", example_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --tol must be finite and >= 0\n"

    def test_plot_param_out_of_range_exit_4(self, capsys, tmp_path,
                                            example_file):
        out = tmp_path / "fig.svg"
        assert main(["plot", "--params", "0.3,1.5", "--out", str(out),
                     example_file]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_other_library_error_exit_1(self, capsys, monkeypatch,
                                        example_file):
        def fail(*args, **kwargs):
            raise InEllipseError("no optimum")

        monkeypatch.setattr(cli, "min_ecc", fail)
        assert main(["min-ecc", example_file]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: no optimum\n"

    @pytest.mark.parametrize("vertices", [
        EXAMPLE_VERTICES, [[0, 0], [0, 1], [1, 1], [1, 0]],
        [[0, 0], [1, 2], [4, 2], [3, 0]], [[0, 0], [0.5, 3], [4, 2], [2.75, 0]],
        [[0, 0], [0, 1], [2, 0.80000001], [3, 0.2]],
        [[0, 0], [0, 1], [2, 3], [1, 0]]],
        ids=["example", "square", "parallelogram", "type2", "near_mdq",
             "generic"])
    @pytest.mark.parametrize("argv", [
        ["classify"], ["inscribe", "--param", "0.3"], ["min-ecc"],
        ["verify", "--theorem", "t1"], ["verify", "--theorem", "t2"],
        ["verify", "--theorem", "t3"]],
        ids=["classify", "inscribe", "min-ecc", "verify-t1", "verify-t2",
             "verify-t3"])
    def test_stdout_is_strict_json(self, capsys, tmp_path, vertices, argv):
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"vertices": vertices}))
        assert main(argv + [str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        strict_loads(out)

    def test_t3_off_an_mdq_gives_the_reason(self, capsys, near_mdq_file):
        # at the default tolerance the quad is not an MDQ, so no optimum is
        # checked and no margin printed
        assert main(["verify", "--theorem", "t3", near_mdq_file]) == 0
        doc = strict_loads(capsys.readouterr().out)
        assert doc == {"theorem": "t3", "holds": False, "reason": "not an MDQ"}


class TestOutput:
    @pytest.mark.parametrize("argv", [
        ["classify"], ["inscribe", "--param", "0.3"], ["min-ecc"],
        ["verify", "--theorem", "t2"], ["verify", "--theorem", "t3"]])
    def test_one_compact_line(self, capsys, tmp_path, argv):
        # the second label holds what the encoder escapes: a quote, a
        # backslash, a tab and a control character
        for label in ("trap\u00e8ze \u0394 \u56db\u8fb9\u5f62", "q\"b\\s\tt\u0001"):
            path = tmp_path / "labelled.json"
            path.write_text(json.dumps({"vertices": EXAMPLE_VERTICES, "label": label}))
            assert main(argv + [str(path)]) == 0
            out = capsys.readouterr().out
            assert out.endswith("\n") and out.count("\n") == 1
            line = out[:-1]
            doc = json.loads(line)
            assert doc["label"] == label
            assert json.dumps(doc) == line


class TestImport:
    @staticmethod
    def _python(code: str, *args: str) -> subprocess.CompletedProcess:
        """Run `code` in a fresh interpreter that imports this checkout's
        package."""
        src = os.path.dirname(os.path.dirname(inellipse.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, "-c", code, *args],
                              env=env, capture_output=True, text=True)

    def _loaded_after(self, statement: str, module: str) -> bool:
        """Whether `module` is in sys.modules after `statement` runs."""
        done = self._python(f"import sys; {statement}; print({module!r} in sys.modules)")
        assert done.returncode == 0, done.stderr
        return done.stdout.strip() == "True"

    def test_cli_does_not_load_test_generators(self):
        assert not self._loaded_after("import inellipse.cli", "inellipse.sampling")

    @pytest.mark.parametrize("statement", ["import inellipse",
                                           "import inellipse.cli"])
    def test_numpy_is_not_loaded(self, statement):
        # the package depends on the standard library alone
        assert not self._loaded_after(statement, "numpy")

    @pytest.mark.parametrize("argv", [
        ["classify"], ["inscribe", "--param", "0.3"], ["min-ecc"],
        ["verify", "--theorem", "t1"], ["verify", "--theorem", "t2"],
        ["verify", "--theorem", "t3"],
        ["plot", "--params", "0.3,0.6", "--out", "FIG"]],
        ids=["classify", "inscribe", "min-ecc", "verify-t1", "verify-t2",
             "verify-t3", "plot"])
    def test_commands_run_without_numpy(self, tmp_path, example_file, argv):
        # None in sys.modules makes every `import numpy` raise ImportError
        argv = [str(tmp_path / "fig.svg") if a == "FIG" else a for a in argv]
        done = self._python('import sys; sys.modules["numpy"] = None; '
                            'from inellipse.cli import main; sys.exit(main(sys.argv[1:]))',
                            *argv, example_file)
        assert done.returncode == 0, done.stderr
        assert done.stderr == ""


#: the generic quad of `test_exploratory_angle_block`, an MDQ of neither type
GENERIC_VERTICES = [[0, 0], [0, 1], [2, 3], [1, 0]]


class TestVerify:
    """`verify` gives one answer per quad: T1 and T2 from the midpoint defects
    |1/2 - a| and |1/2 - b| at `--tol`, which every member's margins carry as
    a factor, and T3 from `verify_T3` on the quad's own optimum."""

    def test_t2_all_pass_on_example(self, capsys, example_file):
        # a type-1 MDQ: q2q3 and q1q4 are parallel to D2 on every member
        code, doc = run_json(capsys, ["verify", "--theorem", "t2", example_file])
        assert code == 0
        dd = diagonals(canonicalize(EXAMPLE_VERTICES))
        assert doc == {"theorem": "t2", "holds": True, "defect_d1": abs(0.5 - dd.a),
                       "defect_d2": abs(0.5 - dd.b), "parallel_to_d1": [],
                       "parallel_to_d2": ["q2q3", "q1q4"], "label": "worked-example"}
        assert doc["defect_d2"] <= 1e-15 < doc["defect_d1"]

    def test_t1_fails_on_non_mdq(self, capsys, tmp_path):
        path = tmp_path / "generic.json"
        path.write_text(json.dumps({"vertices": GENERIC_VERTICES}))
        code, doc = run_json(capsys, ["verify", "--theorem", "t1", str(path)])
        assert code == 0
        dd = diagonals(canonicalize(GENERIC_VERTICES))
        assert doc == {"theorem": "t1", "holds": False,
                       "defect": min(abs(0.5 - dd.a), abs(0.5 - dd.b))}
        assert doc["defect"] > 1e-6

    def test_t1_holds_on_an_mdq_whose_sampled_margins_round_past_tol(
            self, capsys, tmp_path):
        # an exact type-2 MDQ (a = 1/2 to the ulp, b about 1e-3): the T1
        # margin of some of its members rounds above the default tol, which
        # a verdict read from sampled members reported as failed trials
        vertices = [[-5.384439723360918, 1.5199832756528544],
                    [-2.7688047130892386, 3.8055929338165835],
                    [-5.944904880591957, 1.1231298529213538],
                    [-9.119507942658752, -1.5582731595489778]]
        quad = canonicalize(vertices)
        margins = [t1_margin(quad, inscribe(quad, r).adjugate) for r in (0.02, 0.5, 0.98)]
        assert max(margins) > CLASSIFY_TOL
        for name, verts, holds in (("mdq", vertices, True),
                                   ("generic", GENERIC_VERTICES, False)):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"vertices": verts}))
            code, doc = run_json(capsys, ["verify", "--theorem", "t1", str(path)])
            assert code == 0
            assert doc["holds"] is holds, (name, doc)
            assert (doc["defect"] <= CLASSIFY_TOL) is holds

    @pytest.mark.parametrize("theorem", ["t1", "t2"])
    def test_holds_exactly_where_a_defect_is_within_tol(self, capsys, near_mdq_file,
                                                        theorem):
        with open(near_mdq_file) as fh:
            dd = diagonals(canonicalize(json.load(fh)["vertices"]))
        defect = min(abs(0.5 - dd.a), abs(0.5 - dd.b))
        for tol, holds in ((defect, True), (math.nextafter(defect, 0.0), False)):
            code, doc = run_json(capsys, ["--tol", repr(tol), "verify",
                                          "--theorem", theorem, near_mdq_file])
            assert code == 0
            assert doc["holds"] is holds, tol

    @pytest.mark.parametrize("vertices", [
        EXAMPLE_VERTICES, [[0, 0], [0, 1], [1, 1], [1, 0]],
        [[0, 0], [1, 2], [4, 2], [3, 0]], [[0, 0], [0.5, 3], [4, 2], [2.75, 0]],
        GENERIC_VERTICES],
        ids=["example", "square", "parallelogram", "type2", "generic"])
    def test_verdict_agrees_with_sampled_members(self, capsys, tmp_path, vertices):
        # the verdicts hold for every member at once, so each sampled member
        # has the conjugacy and the chords they name, and a non-MDQ has none
        path = tmp_path / "quad.json"
        path.write_text(json.dumps({"vertices": vertices}))
        _, t1 = run_json(capsys, ["verify", "--theorem", "t1", str(path)])
        _, t2 = run_json(capsys, ["verify", "--theorem", "t2", str(path)])
        assert t1["holds"] is t2["holds"]
        quad = canonicalize(vertices)
        for r in np.linspace(0.02, 0.98, 25).tolist():
            member = inscribe(quad, 2.0 * r - 1.0 if quad._diagonals.names_v else r)
            assert (t1_margin(quad, member.adjugate) <= 1e-9) is t1["holds"], r
            report = check_T2(quad, member)
            assert report.parallel_to_d1 == frozenset(t2["parallel_to_d1"]), r
            assert report.parallel_to_d2 == frozenset(t2["parallel_to_d2"]), r

    def test_t3_on_example(self, capsys, example_file):
        code, doc = run_json(capsys, ["verify", "--theorem", "t3", example_file])
        assert code == 0
        t3 = verify_T3(minecc.min_ecc(canonicalize(EXAMPLE_VERTICES)))
        assert doc == {"theorem": "t3", "holds": True, "near_circle": False,
                       "parallel_margin": t3.parallel_margin,
                       "length_margin": t3.length_margin, "label": "worked-example"}
        assert max(t3.parallel_margin, t3.length_margin) <= 1e-12

    @pytest.mark.parametrize("parallel, equal_len", [(True, False), (False, True)])
    def test_t3_holds_only_where_both_properties_hold(self, capsys, monkeypatch,
                                                      example_file, parallel, equal_len):
        report = verify_T3(minecc.min_ecc(canonicalize(EXAMPLE_VERTICES)))
        monkeypatch.setattr(cli, "verify_T3", lambda res, tol: report._replace(
            parallel=parallel, equal_len=equal_len))
        code, doc = run_json(capsys, ["verify", "--theorem", "t3", example_file])
        assert code == 0
        assert doc["holds"] is False

    def test_t3_on_a_kite_far_from_the_origin(self, capsys, tmp_path):
        # the kite (0, 0), (-1, 2), (0, 5), (1, 2) moved by (1e8, 1e8): its
        # similar copies are checked in `test_scale.py`
        path = tmp_path / "far_kite.json"
        path.write_text(json.dumps({"vertices": [
            [1e8, 1e8], [1e8 - 1, 1e8 + 2], [1e8, 1e8 + 5], [1e8 + 1, 1e8 + 2]]}))
        code, doc = run_json(capsys, ["verify", "--theorem", "t3", str(path)])
        assert code == 0
        assert doc["holds"] is True

    def test_t2_classifies_once_per_command(self, capsys, example_file,
                                            call_counts):
        # one classification, and no member is solved for
        code, doc = run_json(capsys, ["verify", "--theorem", "t2", example_file])
        assert code == 0
        assert doc["holds"] is True
        assert call_counts["classify"] == 1
        assert call_counts["min_ecc"] == 0

    def test_t1_frames_once_per_command(self, capsys, example_file,
                                        call_counts):
        # the quad's own pencil, with no frame and no optimum
        code, doc = run_json(capsys, ["verify", "--theorem", "t1", example_file])
        assert code == 0
        assert doc["holds"] is True
        assert call_counts["normalize_to_qstvw"] == call_counts["min_ecc"] == 0
        assert call_counts["_diagonal_data"] == 1

    @pytest.mark.parametrize("theorem", ["t1", "t2", "t3"])
    def test_mdq_checks_follow_the_tol_classification(
            self, capsys, near_mdq_file, theorem):
        # at --tol 1e-5 the quad is an MDQ, so every theorem holds; at the
        # default tolerance it is not, and none does
        argv = ["verify", "--theorem", theorem, near_mdq_file]
        code, doc = run_json(capsys, ["--tol", "1e-5"] + argv)
        assert code == 0
        assert doc["holds"] is True
        code, doc = run_json(capsys, argv)
        assert code == 0
        assert doc["holds"] is False

    def test_deterministic(self, capsys, example_file):
        _, doc1 = run_json(capsys, ["verify", "--theorem", "t2", example_file])
        _, doc2 = run_json(capsys, ["verify", "--theorem", "t2", example_file])
        assert doc1 == doc2


class TestPlot:
    def test_example_elements(self, tmp_path, example_file):
        out = tmp_path / "fig.svg"
        code = main(["plot", "--params", f"{3/7},{EXAMPLE_R_STAR}",
                     "--out", str(out), example_file])
        assert code == 0
        svg = out.read_text()
        assert svg.count('class="ellipse"') == 2
        assert svg.count('class="tangency"') == 8
        assert svg.count('class="diagonal"') == 2
        assert svg.count('class="newton"') == 1
        assert svg.count('class="diameter"') == 2

    def test_frames_once_per_command(self, tmp_path, example_file,
                                     call_counts):
        # three members and the type-1 optimum come from the quad's own
        # pencil, with no frame
        out = tmp_path / "fig.svg"
        assert main(["plot", "--params", "0.2,0.4,0.6", "--out", str(out),
                     example_file]) == 0
        assert out.read_text().count('class="ellipse"') == 3
        assert call_counts["normalize_to_qstvw"] == 0
        assert call_counts["min_ecc"] == 1

    def test_square_incircle_plot(self, tmp_path, square_file):
        out = tmp_path / "sq.svg"
        code = main(["plot", "--params", "0.0", "--out", str(out), square_file])
        assert code == 0
        svg = out.read_text()
        assert svg.count('class="ellipse"') == 1

    def test_empty_params(self, tmp_path, example_file):
        out = tmp_path / "bare.svg"
        assert main(["plot", "--params", "", "--out", str(out),
                     example_file]) == 0
        svg = out.read_text()
        assert svg.count('class="ellipse"') == 0
        assert svg.count('class="diagonal"') == 2

    def test_non_numeric_params_exit_2(self, capsys, tmp_path, example_file):
        out = tmp_path / "x.svg"
        assert main(["plot", "--params", "abc", "--out", str(out),
                     example_file]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --params: ")
        assert captured.err.count("\n") == 1
        assert not out.exists()

    def test_unwritable_exit_5(self, example_file):
        assert main(["plot", "--params", "0.5",
                     "--out", "/nonexistent-dir/x.svg", example_file]) == 5


def _near_kite(theta):
    """An MDQ whose diagonals are theta rad from perpendicular, A2A4 bisected
    at P = 0: A1 = (-0.3, 0), A3 = (0.7, 0), A2 and A4 = -+0.35 (cos phi,
    sin phi), phi = pi/2 - theta.  Its optimum's eccentricity is about
    1.4e-6 at theta = 1e-12 and 3.2e-5 at 5e-10."""
    c, s = math.cos(math.pi / 2 - theta), math.sin(math.pi / 2 - theta)
    return [[-0.3, 0.0], [-0.35 * c, -0.35 * s], [0.7, 0.0], [0.35 * c, 0.35 * s]]


class TestNearCircleRule:
    """`verify_T3`, the min-ecc report and the plot read one near-circle rule:
    `verification.near_circle` is false exactly where the report prints the
    equal conjugate angle and the plot draws the two equal diameters."""

    @pytest.mark.parametrize("vertices, near_circle", [
        *[(_near_kite(theta), False) for theta in (1e-12, 1e-11, 1e-10, 5e-10)],
        ([[0, 0], [0, 1], [1, 1], [1, 0]], True), ([[0, 0], [-1, 2], [0, 5], [1, 2]], True)],
        ids=["theta_1e-12", "theta_1e-11", "theta_1e-10", "theta_5e-10", "square", "kite"])
    def test_report_and_plot_agree_with_verify_T3(self, capsys, tmp_path, vertices,
                                                  near_circle):
        path, svg = tmp_path / "quad.json", tmp_path / "fig.svg"
        path.write_text(json.dumps({"vertices": vertices}))
        code, doc = run_json(capsys, ["min-ecc", str(path)])
        assert code == 0
        ver, block = doc["verification"], doc["min_ecc"]
        assert block["method"] == "alpha_closed_form"
        assert ver["near_circle"] is near_circle
        assert ver["t3_parallel"] and ver["t3_equal_lengths"]
        assert ("equal_conjugate_angle" in block) is not near_circle
        assert ("diagonal_angle" in block) is not near_circle
        t3 = verify_T3(minecc.min_ecc(canonicalize(vertices)))
        assert (t3.near_circle, t3.parallel, t3.equal_len) == (near_circle, True, True)
        assert main(["plot", "--out", str(svg), str(path)]) == 0
        assert svg.read_text().count('class="diameter"') == (0 if near_circle else 2)

    def test_band_angles_are_the_diagonals(self, capsys, tmp_path):
        # on an MDQ the equal conjugate diameters lie along the diagonals: the
        # angle 2 atan(b/a) resolves theta in the band, as b/a = 1 - theta
        path = tmp_path / "quad.json"
        for theta in (1e-12, 1e-11, 1e-10, 5e-10):
            path.write_text(json.dumps({"vertices": _near_kite(theta)}))
            block = run_json(capsys, ["min-ecc", str(path)])[1]["min_ecc"]
            assert block["diagonal_angle"] == pytest.approx(math.pi / 2 - theta, abs=1e-15)
            assert block["equal_conjugate_angle"] == pytest.approx(
                block["diagonal_angle"], abs=1e-15)


class TestParserReuse:
    def test_calls_in_one_process_match_fresh_interpreters(
            self, capsys, near_mdq_file):
        # a --tol that leaked from one call into the next would change the
        # report on a quad that is an MDQ only at the looser tolerance
        src = os.path.dirname(os.path.dirname(inellipse.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        argvs = [["inscribe", "--param", "0.3", near_mdq_file],
                 ["inscribe", near_mdq_file],
                 ["--tol", "1e-5", "min-ecc", near_mdq_file],
                 ["min-ecc", near_mdq_file],
                 ["classify", near_mdq_file]]
        codes, raised = [], []
        for argv in argvs:
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
                raised.append(argv)
            out = capsys.readouterr().out
            fresh = subprocess.run([sys.executable, "-m", "inellipse.cli", *argv],
                                   env=env, capture_output=True, text=True)
            assert (code, out) == (fresh.returncode, fresh.stdout), argv
            codes.append(code)
        assert codes == [0, 2, 0, 0, 0]
        assert raised == [argvs[1]]

    def test_parser_built_once(self, monkeypatch, capsys, example_file):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        for _ in range(10):
            assert main(["min-ecc", example_file]) == 0
        capsys.readouterr()
        # one root parser and five subcommand parsers, or none if an
        # earlier test in this process already built them
        assert len(built) <= 6
