"""The three workloads: how a job calls the library and how its output is checked.

A job is one unit of work, run in a closed loop from one thread:

* `solve_numeric`: one library `min_ecc` call;
* `report_mdq`: one in-process `inellipse.cli.main(["min-ecc", file])` with
  stdout captured;
* `family_sweep`: `inscribe` at K evenly spaced parameters of the family's
  open interval, each member also through `geometry`, `tangency_chords` and
  `check_T2`.

Outputs are scored on the returned conics against `reference`, never on the
axis ratio or eccentricity the library reports about itself.
"""

from __future__ import annotations

import io
import json
import math
import os
from contextlib import redirect_stderr, redirect_stdout

import reference

#: members per family sweep
SWEEP_K = 16
#: jobs per calibrated block, sized so that a block takes roughly 0.2 s
BLOCK = {"solve_numeric": 50, "report_mdq": 90, "family_sweep": 80}
#: timed corpus size per workload; at 1000, ten per-job medians lie beyond p99
CORPUS = {"solve_numeric": 1000, "report_mdq": 1000, "family_sweep": 1000}
#: census corpus size per workload
CENSUS = {"solve_numeric": 400, "report_mdq": 400, "family_sweep": 200}
#: module whose cold import is the workload's set-up time
SETUP_MODULE = {"solve_numeric": "inellipse", "report_mdq": "inellipse.cli",
                "family_sweep": "inellipse"}
#: squared-axis-ratio agreement between `geometry` and the benchmark's own value
GEOMETRY_TOL = 1e-9
#: distance, over the quad's diameter, between a reported tangency point and
#: the contact point of the conic with that side; along a side the contact of
#: a thin ellipse is ill-conditioned (2e-6 seen where tangency is 3e-7)
CONTACT_TOL = 1e-5

_T2_EXPECTED = {  # chords parallel to (D1, D2) in the canonical labeling
    "type1": (set(), {"q2q3", "q1q4"}),
    "type2": ({"q1q2", "q3q4"}, set()),
    "parallelogram": ({"q1q2", "q3q4"}, {"q2q3", "q1q4"}),
}


class Item:
    """One corpus entry with everything its checks need."""

    def __init__(self, index, cls, verts, quad, ref_ratio):
        self.index = index
        self.cls = cls
        self.verts = verts  # benchmark's own cyclic order
        self.quad = quad    # the library's canonical quadrilateral
        self.ref_ratio = ref_ratio
        self.path = None


def canonical_class(item: Item) -> str:
    """Class in the library's labeling: a shifted labeling swaps type 1 and type 2."""
    if item.cls not in ("type1", "type2"):
        return item.cls
    same_d2 = {item.quad.vertices[1], item.quad.vertices[3]} == {item.verts[1], item.verts[3]}
    return "type1" if (item.cls == "type1") == same_d2 else "type2"


def sweep_params(item: Item) -> list[float]:
    if item.cls in ("parallelogram", "rhombus"):
        return [-1.0 + 2.0 * k / (SWEEP_K + 1) for k in range(1, SWEEP_K + 1)]
    return [k / (SWEEP_K + 1) for k in range(1, SWEEP_K + 1)]


def make_job(workload: str, api, item: Item):
    """Zero-argument callable for one job.  Library functions are looked up on
    each call, so a traced run sees the rebound ones."""
    if workload == "solve_numeric":
        quad = item.quad
        return lambda: api.min_ecc(quad)
    if workload == "report_mdq":
        argv = ["min-ecc", item.path]

        def report():
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = api.cli.main(argv)
            return code, out.getvalue()
        return report
    quad, params = item.quad, sweep_params(item)

    def sweep():
        members = []
        for p in params:
            member = api.inscribe(quad, p)
            members.append((member, api.geometry(member.conic),
                            api.tangency_chords(member), api.check_T2(quad, member)))
        return members
    return sweep


def write_inputs(items, directory: str) -> None:
    """One JSON input file per quad for the CLI workload."""
    for item in items:
        item.path = os.path.join(directory, f"quad{item.index:05d}.json")
        with open(item.path, "w", encoding="utf-8") as fh:
            json.dump({"vertices": [list(p) for p in item.verts]}, fh)


def fingerprint(workload: str, value):
    """Exact, comparable summary of a job's output."""
    if workload == "solve_numeric":
        return repr((value.method, value.r_star, tuple(value.ellipse.conic)))
    if workload == "report_mdq":
        return repr(value)
    return repr([(tuple(m.conic), m.tangency) for m, _, _, _ in value])


class Score:
    """Result of checking one job's output."""

    def __init__(self, problem=None, method=None, shortfall=None, tangency=0.0):
        self.problem = problem      # None when the output passed every check
        self.method = method        # min_ecc method, where one ran
        self.shortfall = shortfall  # reference ratio minus the returned conic's
        self.tangency = tangency    # worst tangency residual over checked conics


def score(workload: str, item: Item, value, error) -> Score:
    if error is not None:
        return Score(type(error).__name__)
    if workload == "solve_numeric":
        problem, shortfall, worst = reference.score_optimum(
            value.ellipse.conic, item.verts, item.ref_ratio)
        return Score(problem and "check_" + problem, value.method, shortfall, worst)
    if workload == "report_mdq":
        return _score_report(item, *value)
    return _score_sweep(item, value)


def _score_report(item: Item, code: int, text: str) -> Score:
    if code != 0:
        return Score("exit_nonzero")
    try:
        doc = json.loads(text)
        conic = doc["ellipse"]["coefficients"]
        method = doc["min_ecc"]["method"]
        t3 = doc["verification"]["t3_equal_lengths"]
    except (ValueError, KeyError, TypeError):
        return Score("json_incomplete")
    problem, shortfall, worst = reference.score_optimum(conic, item.verts, item.ref_ratio)
    if problem is None and t3 is not True:
        problem = "t3"
    return Score(problem and "check_" + problem, method, shortfall, worst)


def _score_sweep(item: Item, members) -> Score:
    cls = canonical_class(item)
    verts = item.quad.vertices
    diam = max(math.dist(p, q) for p in verts for q in verts)
    worst = 0.0
    for member, geo, chords, t2 in members:
        tan = reference.tangency(member.conic, verts)
        if tan is None:
            return Score("check_not_ellipse", tangency=worst)
        resid, contacts, inside = tan
        worst = max(worst, *resid)
        if max(resid) > reference.TANGENCY_TOL or not all(inside):
            return Score("check_tangency", tangency=worst)
        if any(math.dist(p, q) > CONTACT_TOL * diam
               for p, q in zip(member.tangency, contacts)):
            return Score("check_contacts", tangency=worst)
        if abs(geo.axis_ratio_sq - reference.ellipse_of(member.conic)[2]) > GEOMETRY_TOL:
            return Score("check_geometry", tangency=worst)
        if tuple(chords[:4]) != ((member.tangency[0], member.tangency[1]),
                                 (member.tangency[1], member.tangency[2]),
                                 (member.tangency[2], member.tangency[3]),
                                 (member.tangency[0], member.tangency[3])):
            return Score("check_chords", tangency=worst)
        want1, want2 = _T2_EXPECTED.get(cls, (set(), set()))
        if not (want1 <= t2.parallel_to_d1 and want2 <= t2.parallel_to_d2):
            return Score("check_t2", tangency=worst)
    return Score(None, tangency=worst)
