"""Command-line interface: JSON quadrilateral in, JSON report or SVG out.

Each report is one compact JSON document on one line of stdout.

Subcommands:

    classify                   full classification report
    inscribe --param R         inscribe the family member at R
    min-ecc                    minimal-eccentricity ellipse + verification
    verify --theorem T         sampled theorem checks (t1 | t2 | t3)
    plot --params R1,R2 --out  SVG figure

Exit codes: 0 success, 1 any other library error (`InEllipseError`), 2
parse error (including input that is not UTF-8 JSON, a non-numeric
`--params` entry, `--trials` below 1, a negative `--seed` and a `--tol`
that is not finite or is negative), 3 non-convex input, 4 parameter out of
range, 5 unwritable output path.  A failure prints one `error: ...` line
on stderr and nothing on stdout.

`main(argv)` is the in-process entry point and the one path every command
takes: it loads the document, classifies the quad once at the global
`--tol`, runs the command on that report, adds the document's `label`,
maps library errors to exit codes and serializes.  So every decision of a
command reads that one classification; each `verify --theorem t3` trial
classifies its moved quad at `--tol` too.  `main` returns the exit code
and may be called any number of times in one process; the argument parser
is built on the first call and reused by later ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import random
import sys

from .affine import alpha_root, normalize_to_qstvw
from .diameters import (CIRCLE_CUTOFF, check_T2, equal_diameter_pair,
                        t1_margin)
from .errors import (InEllipseError, IsCircle, NonConvexInput,
                     ParamOutOfRegion)
from .family import InscribedEllipse, inscribe
from .minecc import min_ecc, verify_T3
from .quad import (CLASSIFY_TOL, ClassificationReport, Quadrilateral,
                   canonicalize, classify)
from .svgfig import Figure

EXIT_LIBRARY = 1
EXIT_PARSE = 2
EXIT_NONCONVEX = 3
EXIT_PARAM = 4
EXIT_OUTPUT = 5


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_document(path: str) -> tuple[Quadrilateral, str | None]:
    try:
        if path == "-":
            doc = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
    # ValueError covers bytes that are not UTF-8 (UnicodeDecodeError), text
    # that is not JSON (JSONDecodeError) and integers past the digit limit;
    # RecursionError covers arrays or objects nested too deep to decode
    except (OSError, ValueError, RecursionError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read input: {exc}")
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise _CliError(EXIT_PARSE, "input must be an object with a 'vertices' key")
    verts = doc["vertices"]
    if (not isinstance(verts, list) or len(verts) != 4
            or any(not isinstance(v, (list, tuple)) or len(v) != 2 for v in verts)):
        raise _CliError(EXIT_PARSE, "'vertices' must be four [x, y] pairs")
    try:
        pts = [(float(x), float(y)) for x, y in verts]
    except (TypeError, ValueError):
        raise _CliError(EXIT_PARSE, "vertex coordinates must be numbers")
    try:
        quad = canonicalize(pts)
    except NonConvexInput as exc:
        raise _CliError(EXIT_NONCONVEX, str(exc))
    label = doc.get("label")
    return quad, label if isinstance(label, str) else None


def _classification_block(quad: Quadrilateral,
                          rep: ClassificationReport) -> dict:
    dd = rep.diagonals
    return {
        "vertices": [list(p) for p in quad.vertices],
        "convex": rep.convex,
        "parallelogram": rep.parallelogram,
        "trapezoid": rep.trapezoid,
        "tangential": rep.tangential,
        "orthodiagonal": rep.orthodiagonal,
        "kite": rep.kite,
        "mdq_type1": rep.mdq_type1,
        "mdq_type2": rep.mdq_type2,
        "side_lengths": list(rep.side_lengths),
        "diagonal_midpoints": [list(dd.m1), list(dd.m2)],
        "diagonal_intersection": list(dd.p),
    }


def _ellipse_block(ie: InscribedEllipse) -> dict:
    # the library's conics are max-abs and sign normalized already
    conic, geo = ie.conic, ie.geometry
    return {
        "coefficients": list(conic),
        "coeff_scale": max(abs(x) for x in conic),
        "param": ie.param,
        "frame": ie.frame,
        "center": list(geo.center),
        "eccentricity": geo.eccentricity,
        "axis_ratio_sq": geo.axis_ratio_sq,
        "semi_axes": [geo.semi_major, geo.semi_minor],
        "tangency": [list(p) for p in ie.tangency],
    }


def cmd_classify(quad: Quadrilateral, rep: ClassificationReport,
                 args: argparse.Namespace) -> dict:
    return {"classification": _classification_block(quad, rep)}


def cmd_inscribe(quad: Quadrilateral, rep: ClassificationReport,
                 args: argparse.Namespace) -> dict:
    return {"classification": _classification_block(quad, rep),
            "ellipse": _ellipse_block(inscribe(quad, args.param))}


def _diagonal_angle(quad: Quadrilateral) -> float:
    # on the unit vectors, so that no length overflows or underflows
    (ux, uy), (vx, vy) = quad._diagonal_units
    return math.atan2(abs(ux * vy - uy * vx), abs(ux * vx + uy * vy))


def cmd_min_ecc(quad: Quadrilateral, rep: ClassificationReport,
                args: argparse.Namespace) -> dict:
    res = min_ecc(quad, rep)
    out = {
        "classification": _classification_block(quad, rep),
        "ellipse": _ellipse_block(res.ellipse),
        "min_ecc": {
            "r_star": res.r_star,
            "method": res.method,
            "eccentricity": res.eccentricity,
            "axis_ratio_sq": res.axis_ratio_sq,
        },
    }
    # exploratory: compare the angle 2 atan(b/a) between the minimal ellipse's
    # equal conjugate diameters (ambiguous on a circle) with the angle between
    # the diagonals (reported for every quad; equal only for MDQs)
    if res.axis_ratio_sq <= CIRCLE_CUTOFF ** 2:
        out["min_ecc"]["equal_conjugate_angle"] = 2.0 * math.atan(
            math.sqrt(res.axis_ratio_sq))
        out["min_ecc"]["diagonal_angle"] = _diagonal_angle(quad)
    if rep.mdq:
        t3 = verify_T3(res)
        out["verification"] = {
            "t3_parallel": t3.parallel,
            "t3_equal_lengths": t3.equal_len,
            "diameter_len_sq": [t3.len1_sq, t3.len2_sq],
            "near_circle": t3.near_circle,
            "parallel_margin": t3.parallel_margin,
            "length_margin": t3.length_margin,
        }
        if rep.mdq_type1 and not rep.parallelogram:
            # the paper's type-1 root alpha_root(s, v, w), beside r_star, when
            # the quad's own labeling is its admissible (s,t,v,w) frame
            try:
                fr = normalize_to_qstvw(quad)
                paper = alpha_root(fr.s, fr.v, fr.w) if fr.shift == 0 else None
            except InEllipseError:
                paper = None
            out["verification"]["paper_r_star"] = paper
    return out


def _verify_t1_trial(quad: Quadrilateral, rep: ClassificationReport, rng,
                     tol: float) -> dict:
    r = rng.uniform(0.02, 0.98)
    margin = t1_margin(quad, inscribe(quad, r).adjugate)  # no conic is built
    return {"param": r, "margin": margin, "passed": bool(margin <= tol)}


def _t2_expected_chords(rep: ClassificationReport) -> tuple[set, set] | None:
    """The tangency chords that T2 makes parallel to d1 and to d2: those of
    type 2 and those of type 1 (both on a parallelogram), or None when the
    classified quad is not an MDQ."""
    if not rep.mdq:
        return None
    return ({"q1q2", "q3q4"} if rep.mdq_type2 else set(),
            {"q2q3", "q1q4"} if rep.mdq_type1 else set())


def _verify_t2_trial(quad: Quadrilateral, rep: ClassificationReport, rng,
                     tol: float) -> dict:
    r = rng.uniform(0.02, 0.98)
    t2 = check_T2(quad, inscribe(quad, r), tol)
    expected = _t2_expected_chords(rep)
    if expected is None:
        margin = min(min(t2.margins_d1.values()), min(t2.margins_d2.values()))
        return {"param": r, "margin": margin, "passed": False}
    expected1, expected2 = expected
    ok = expected1 <= t2.parallel_to_d1 and expected2 <= t2.parallel_to_d2
    margins = ([t2.margins_d1[n] for n in expected1]
               + [t2.margins_d2[n] for n in expected2])
    return {"param": r, "margin": max(margins), "passed": bool(ok)}


def _similar_quad(quad: Quadrilateral, rng) -> Quadrilateral:
    """`quad` rotated and scaled by 0.3 to 3 about A1, with A1 moved to within
    5 diameters of the origin: built from the edges out of A1, so that the
    copy carries rounding at the quad's scale, wherever the quad lies."""
    angle = rng.uniform(0.0, 2.0 * math.pi)
    k = math.exp(rng.uniform(math.log(0.3), math.log(3.0)))
    d = quad.diameter()
    tx, ty = rng.uniform(-5.0, 5.0) * d, rng.uniform(-5.0, 5.0) * d
    c, s = math.cos(angle) * k, math.sin(angle) * k
    ox, oy = quad.a1
    return canonicalize([(c * (x - ox) - s * (y - oy) + tx,
                          s * (x - ox) + c * (y - oy) + ty)
                         for x, y in quad.vertices])


def _verify_t3_trial(quad: Quadrilateral, rep: ClassificationReport, rng,
                     tol: float) -> dict:
    # the quad's own report says nothing of the moved quad's class
    moved = _similar_quad(quad, rng)
    moved_rep = classify(moved, tol)
    if not moved_rep.mdq:
        return {"margin": None, "passed": False, "reason": "not an MDQ"}
    t3 = verify_T3(min_ecc(moved, moved_rep), tol=max(tol, 1e-7))
    margin = max(t3.parallel_margin, t3.length_margin)
    return {"margin": margin, "passed": bool(t3.parallel and t3.equal_len)}


def cmd_verify(quad: Quadrilateral, rep: ClassificationReport,
               args: argparse.Namespace) -> dict:
    if args.trials < 1:
        raise _CliError(EXIT_PARSE, "--trials must be >= 1")
    if args.seed < 0:
        raise _CliError(EXIT_PARSE, "--seed must be >= 0")
    runner = {"t1": _verify_t1_trial, "t2": _verify_t2_trial,
              "t3": _verify_t3_trial}[args.theorem]
    results = [runner(quad, rep, random.Random(args.seed + i), args.tol)
               for i in range(args.trials)]
    margins = [r["margin"] for r in results if r["margin"] is not None]
    return {
        "theorem": args.theorem,
        "trials": args.trials,
        "seed": args.seed,
        "passes": sum(1 for r in results if r["passed"]),
        "failures": sum(1 for r in results if not r["passed"]),
        "worst_margin": max(margins) if margins else None,
        "per_trial": results,
    }


def cmd_plot(quad: Quadrilateral, rep: ClassificationReport,
             args: argparse.Namespace) -> None:
    try:
        params = [float(x) for x in args.params.split(",") if x.strip()]
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"--params: {exc}")
    fig = Figure()
    fig.add_polygon(quad.vertices, "quad", "fill:none;stroke:#000;stroke-width:2")
    dd = rep.diagonals
    diag_style = "stroke:#888;stroke-width:1;stroke-dasharray:6,4"
    fig.add_segment(*dd.d1, "diagonal", diag_style)
    fig.add_segment(*dd.d2, "diagonal", diag_style)
    if dd.newton_line is not None:
        fig.add_segment(*dd.newton_line, "newton",
                        "stroke:#d62728;stroke-width:1.2")
    for param in params:
        ie = inscribe(quad, param)
        fig.add_ellipse(ie.geometry)
        for p in ie.tangency:
            fig.add_marker(p, "tangency", "fill:#2ca02c")
    if rep.mdq:
        try:
            pair = equal_diameter_pair(min_ecc(quad, rep).ellipse.geometry)
            style = "stroke:#9467bd;stroke-width:1.5"
            fig.add_segment(*pair.endpoints1, "diameter", style)
            fig.add_segment(*pair.endpoints2, "diameter", style)
        except IsCircle:
            pass
    try:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(fig.render())
    except OSError as exc:
        raise _CliError(EXIT_OUTPUT, f"cannot write SVG: {exc}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built on the first main() call, not at import, and reused: parse_args
    # keeps no state between calls, and building costs more than a
    # closed-form min-ecc report
    parser = argparse.ArgumentParser(
        prog="inellipse",
        description="Inscribed ellipses in convex quadrilaterals")
    parser.add_argument("--tol", type=float, default=CLASSIFY_TOL,
                        help="relative tolerance for geometric predicates")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(p):
        p.add_argument("input", help="JSON file with {'vertices': [[x,y] x4]} or - for stdin")

    p = sub.add_parser("classify", help="classification report")
    add_input(p)

    p = sub.add_parser("inscribe", help="inscribe one family member")
    add_input(p)
    p.add_argument("--param", type=float, required=True,
                   help="family parameter r in (0,1); for a parallelogram "
                        "v = 2r - 1 in (-1,1), where r is the contact's "
                        "fraction along side A1A2")

    p = sub.add_parser("min-ecc", help="minimal-eccentricity ellipse")
    add_input(p)

    p = sub.add_parser("verify", help="sampled theorem verification")
    add_input(p)
    p.add_argument("--theorem", choices=("t1", "t2", "t3"), required=True)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("plot", help="render an SVG figure")
    add_input(p)
    p.add_argument("--params", default="",
                   help="comma-separated family parameters to inscribe")
    p.add_argument("--out", required=True, help="output SVG path")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    # looked up on every call, not bound at import, so a rebound cmd_* runs
    command = {"classify": cmd_classify, "inscribe": cmd_inscribe,
               "min-ecc": cmd_min_ecc, "verify": cmd_verify,
               "plot": cmd_plot}[args.command]
    try:
        if not 0.0 <= args.tol < math.inf:
            raise _CliError(EXIT_PARSE, "--tol must be finite and >= 0")
        quad, label = _load_document(args.input)
        out = command(quad, classify(quad, args.tol), args)
    except _CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except InEllipseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARAM if isinstance(exc, ParamOutOfRegion) else EXIT_LIBRARY
    if out is None:
        return 0
    if label:
        out["label"] = label
    # serialize first so a failure never leaves half a document on stdout;
    # without `indent` json.dumps runs its C encoder
    sys.stdout.write(json.dumps(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
