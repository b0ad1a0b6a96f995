"""Command-line interface: JSON quadrilateral in, JSON report or SVG out.

Each report is one compact JSON document on one line of stdout.

Subcommands:

    classify                   full classification report
    inscribe --param R         inscribe the family member at R
    min-ecc                    minimal-eccentricity ellipse + verification
    verify --theorem T         theorem verdict (t1 | t2 | t3)
    plot --params R1,R2 --out  SVG figure

Exit codes: 0 success, 1 any other library error (`InEllipseError`), 2
parse error (including input that is not UTF-8 JSON, a coordinate that is
not a JSON number, a non-numeric `--params` entry and a `--tol` that is not
finite or is negative), 3 non-convex input (a coordinate beyond the float
range included), 4 parameter out of range, 5 unwritable output path.  A
failure prints one `error: ...` line on stderr and nothing on stdout.

`main(argv)` is the in-process entry point and the one path every command
takes: it loads the document, runs the command, adds the document's
`label`, maps library errors to exit codes and serializes.  A command that
reads the quad's class classifies it once at the global `--tol`, and every
decision it makes reads that one classification, or `min_ecc(quad, --tol)`'s
MDQ flags of it; `verify` answers T1 and T2 from the quad's midpoint
defects |1/2 - a| and |1/2 - b|, which every member's margins carry as a
factor, and T3 from `verify_T3` on `min_ecc(quad, --tol)`.  One near-circle
rule, the optimum's `EllipseGeometry.near_circle`, decides for `min-ecc` and
`plot`: where it holds, `near_circle` is true, no `equal_conjugate_angle`
or `diagonal_angle` is printed and no equal conjugate diameters are drawn;
elsewhere both angles are printed and an MDQ's two diameters drawn.  `main`
returns the exit code and may be called any number of times in one process;
the argument parser is built on the first call and reused by later ones.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

from .affine import alpha_root, normalize_to_qstvw
from .diameters import equal_diameter_pair
from .errors import InEllipseError, NonConvexInput, ParamOutOfRegion
from .family import InscribedEllipse, inscribe
from .minecc import min_ecc, verify_T3
from .quad import (CLASSIFY_TOL, ClassificationReport, Quadrilateral,
                   canonicalize, classify, diagonals, _midpoint)

EXIT_LIBRARY = 1
EXIT_PARSE = 2
EXIT_NONCONVEX = 3
EXIT_PARAM = 4
EXIT_OUTPUT = 5

#: `json.dumps` with its defaults but the circular-reference check: each
#: report is a fresh tree of dicts, lists and tuples, none holding itself
_encode = json.JSONEncoder(check_circular=False).encode


class _CliError(Exception):
    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _load_document(path: str) -> tuple[Quadrilateral, str | None]:
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb", buffering=0) as fh:  # one read, no buffer between
                data = fh.readall()
        # one strict decode whatever the locale, newlines read as text mode reads them
        doc = json.loads(data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n"))
    # ValueError covers bytes that are not UTF-8 (UnicodeDecodeError), text
    # that is not JSON (JSONDecodeError) and integers past the digit limit;
    # RecursionError covers arrays or objects nested too deep to decode
    except (OSError, ValueError, RecursionError) as exc:
        raise _CliError(EXIT_PARSE, f"cannot read input: {exc}")
    if not isinstance(doc, dict) or "vertices" not in doc:
        raise _CliError(EXIT_PARSE, "input must be an object with a 'vertices' key")
    verts = doc["vertices"]
    if not isinstance(verts, list) or len(verts) != 4:
        raise _CliError(EXIT_PARSE, "'vertices' must be four [x, y] pairs")
    # every shape before any type, so a bad shape anywhere names the shape
    for v in verts:
        if not isinstance(v, (list, tuple)) or len(v) != 2:
            raise _CliError(EXIT_PARSE, "'vertices' must be four [x, y] pairs")
    for x, y in verts:
        if type(x) not in (int, float) or type(y) not in (int, float):
            raise _CliError(EXIT_PARSE, "vertex coordinates must be numbers")
    try:
        quad = canonicalize(verts)
    except OverflowError:  # float() of an integer past the float range, as 1e400 is
        raise _CliError(EXIT_NONCONVEX, "a vertex coordinate overflows the float range")
    except NonConvexInput as exc:
        raise _CliError(EXIT_NONCONVEX, str(exc))
    label = doc.get("label")
    return quad, label if isinstance(label, str) else None


def _classification_block(quad: Quadrilateral,
                          rep: ClassificationReport) -> dict:
    # the encoder writes a tuple as an array: the kept tuples go in as they are
    (x1, y1), (x2, y2), (x3, y3), (x4, y4) = quad.vertices
    return {
        "vertices": quad.vertices,
        "convex": rep.convex,
        "parallelogram": rep.parallelogram,
        "trapezoid": rep.trapezoid,
        "tangential": rep.tangential,
        "orthodiagonal": rep.orthodiagonal,
        "kite": rep.kite,
        "mdq_type1": rep.mdq_type1,
        "mdq_type2": rep.mdq_type2,
        "side_lengths": rep.side_lengths,
        "diagonal_midpoints": [(0.5 * (x1 + x3), 0.5 * (y1 + y3)),
                               (0.5 * (x2 + x4), 0.5 * (y2 + y4))],
        "diagonal_intersection": quad._diagonals.p,
    }


def _ellipse_block(ie: InscribedEllipse) -> dict:
    # the library's conics are max-abs and sign normalized already
    conic, geo = ie.conic, ie.geometry
    return {
        "coefficients": conic,
        "coeff_scale": max(map(abs, conic)),
        "param": ie.param,
        "frame": ie.frame,
        "center": geo.center,
        "eccentricity": geo.eccentricity,
        "axis_ratio_sq": geo.axis_ratio_sq,
        "semi_axes": [geo.semi_major, geo.semi_minor],
        "tangency": ie.tangency,
    }


def cmd_classify(quad: Quadrilateral, args: argparse.Namespace) -> dict:
    return {"classification": _classification_block(quad, classify(quad, args.tol))}


def cmd_inscribe(quad: Quadrilateral, args: argparse.Namespace) -> dict:
    return {"classification": _classification_block(quad, classify(quad, args.tol)),
            "ellipse": _ellipse_block(inscribe(quad, args.param))}


def cmd_min_ecc(quad: Quadrilateral, args: argparse.Namespace) -> dict:
    rep = classify(quad, args.tol)
    res = min_ecc(quad, args.tol)
    geo = res.ellipse.geometry
    out = {
        "classification": _classification_block(quad, rep),
        "ellipse": _ellipse_block(res.ellipse),
        "min_ecc": {
            "r_star": res.r_star,
            "method": res.method,
            "eccentricity": geo.eccentricity,
            "axis_ratio_sq": geo.axis_ratio_sq,
        },
    }
    # exploratory: compare the angle 2 atan(b/a) between the minimal ellipse's
    # equal conjugate diameters (left out where `near_circle` holds) with the
    # angle between the diagonals, on their unit vectors (equal only for MDQs)
    if not geo.near_circle:
        (ux, uy), (vx, vy) = quad._diagonal_units
        out["min_ecc"]["equal_conjugate_angle"] = 2.0 * math.atan(
            math.sqrt(geo.axis_ratio_sq))
        out["min_ecc"]["diagonal_angle"] = math.atan2(abs(ux * vy - uy * vx),
                                                      abs(ux * vx + uy * vy))
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


def cmd_verify(quad: Quadrilateral, args: argparse.Namespace) -> dict:
    # one answer for every member at once: in the pencil, D1's conjugate
    # crossed with D2 carries the factor p q, and a tangency chord crossed
    # with D1 (D2) carries p (q), p = 1/2 - a and q = 1/2 - b, so T1 and T2
    # hold on every member exactly where the quad is an MDQ
    rep = classify(quad, args.tol)
    out = {"theorem": args.theorem, "holds": rep.mdq}
    if args.theorem == "t3":
        if not rep.mdq:
            out["reason"] = "not an MDQ"
            return out
        t3 = verify_T3(min_ecc(quad, args.tol), tol=max(args.tol, 1e-7))
        out.update(holds=t3.parallel and t3.equal_len, near_circle=t3.near_circle,
                   parallel_margin=t3.parallel_margin, length_margin=t3.length_margin)
        return out
    dd = quad._diagonals
    defect1, defect2 = abs(0.5 - dd.a), abs(0.5 - dd.b)
    if args.theorem == "t1":
        out["defect"] = min(defect1, defect2)
    else:
        out.update(defect_d1=defect1, defect_d2=defect2,
                   parallel_to_d1=["q1q2", "q3q4"] if rep.mdq_type2 else [],
                   parallel_to_d2=["q2q3", "q1q4"] if rep.mdq_type1 else [])
    return out


def cmd_plot(quad: Quadrilateral, args: argparse.Namespace) -> None:
    try:
        params = [float(x) for x in args.params.split(",") if x.strip()]
    except ValueError as exc:
        raise _CliError(EXIT_PARSE, f"--params: {exc}")
    from .svgfig import Figure  # only plot draws, so only plot loads it

    fig = Figure()
    fig.add_polygon(quad.vertices, "quad", "fill:none;stroke:#000;stroke-width:2")
    a1, a2, a3, a4 = quad.vertices
    diag_style = "stroke:#888;stroke-width:1;stroke-dasharray:6,4"
    fig.add_segment(a1, a3, "diagonal", diag_style)
    fig.add_segment(a2, a4, "diagonal", diag_style)
    if not diagonals(quad).names_v:
        fig.add_segment(_midpoint(a1, a3), _midpoint(a2, a4), "newton",
                        "stroke:#d62728;stroke-width:1.2")
    for param in params:
        ie = inscribe(quad, param)
        fig.add_ellipse(ie.geometry)
        for p in ie.tangency:
            fig.add_marker(p, "tangency", "fill:#2ca02c")
    if classify(quad, args.tol).mdq:
        geo = min_ecc(quad, args.tol).ellipse.geometry
        if not geo.near_circle:  # where `equal_diameter_pair` raises IsCircle
            pair = equal_diameter_pair(geo)
            style = "stroke:#9467bd;stroke-width:1.5"
            fig.add_segment(*pair.endpoints1, "diameter", style)
            fig.add_segment(*pair.endpoints2, "diameter", style)
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
                        help="classification tolerance: a fraction of a diagonal "
                             "(MDQ, trapezoid) or of the perimeter (tangential), "
                             "or a cosine (orthodiagonal); kite is an MDQ type "
                             "and orthodiagonal")
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

    p = sub.add_parser("verify", help="theorem verdict from the midpoint defects")
    add_input(p)
    p.add_argument("--theorem", choices=("t1", "t2", "t3"), required=True)

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
        out = command(quad, args)
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
    # without `indent` the encoder runs in C
    sys.stdout.write(_encode(out) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
