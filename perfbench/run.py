"""Benchmark of the inellipse library and CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload solve_numeric --seed 1 --seconds 15 --trace 0

Workloads are `solve_numeric`, `report_mdq` and `family_sweep` (see
`jobs.py`).  A run builds the workload's corpus from `--seed`, computes the
independent reference for every quad, runs every job once untimed and checks
its output (this pass is also the warm-up), then runs whole timed passes
over the corpus for `--seconds`, in a closed loop from one thread.  Each
timed job's output must equal the checked one exactly.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it holds the per-layer metrics of one
traced pass (its spans are written to `.perfbench_out/spans-<workload>.tsv.gz`
in the checkout, replacing the previous run's) and of an untimed census.

The timed corpus holds well-conditioned quads on which every job passes (see
`corpus.py`).  A job fails when it raises, exits nonzero, prints an
incomplete document or fails a check; failed jobs are counted in `failed`.
`correct` is true when no job failed, every timed output matched its
checked twin and the reference was finite for every quad.  The census, run
with `--trace 1` only, draws the same workload from the whole convex space,
near-degenerate quads included, and reports the library's failures there as
`census.*` metrics; they are not jobs of the run.
"""

from __future__ import annotations

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import math
import shutil
import statistics
import sys
import tempfile
from pathlib import Path

import numpy as np

import corpus
import jobs
import reference
import timing
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

SETUP_REPS = 15
IMPORT_REPS = 5
REF_CHUNK = 64
#: timed passes at least; statistics take each job's median over passes
MIN_PASSES = 3

METHODS = ("incircle", "alpha_closed_form", "parallelogram_numeric", "quartic_numeric")
#: kinds of job failure counted by the census
FAILURES = ("ParamOutOfRegion", "TangencyNotFound", "NoRootInJ", "InEllipseError",
            "TypeError", "exit_nonzero", "json_incomplete", "check_not_ellipse",
            "check_tangency", "check_shortfall", "check_t3", "check_contacts",
            "check_geometry", "check_chords", "check_t2")

#: per-layer function metrics reported for every workload (0 where not called)
TRACED_FUNCTIONS = (
    "quad.canonicalize", "quad.classify", "quad.diagonals", "quad.f_values",
    "quad.check_qstvw_region", "quad.mdq_type_qstvw",
    "affine.translation", "affine.rotation", "affine.normalize_to_qstvw",
    "affine.parallelogram_frame",
    "family.check_unit_interval", "family.square_inellipse_conic",
    "family.parallelogram_tangency", "family.qstvw_coeff_polys",
    "family.qstvw_conic", "family.qstvw_tangency", "family.inscribe",
    "conic.sign_normalized", "conic.scale_normalized", "conic.discriminants",
    "conic.is_ellipse", "conic.center", "conic.geometry", "conic.evaluate",
    "conic.line_intersect",
    "diameters.parallel_margin", "diameters.slope_of",
    "diameters.conjugate_direction", "diameters.diameter_endpoints",
    "diameters.equal_conjugate_diameters", "diameters.tangency_chords",
    "diameters.check_T2",
    "minecc.EccFunctional", "minecc.G_value", "minecc.alpha_coeffs",
    "minecc.alpha_root", "minecc.min_ecc", "minecc.min_ecc_numeric",
    "minecc.closed_form_diameter_len_sq", "minecc.verify_T3",
    "cli.cmd_min_ecc", "cli.main",
)
IMPORT_MODULES = ("inellipse", "inellipse.errors", "inellipse.conic", "inellipse.quad",
                  "inellipse.affine", "inellipse.family", "inellipse.diameters",
                  "inellipse.minecc", "inellipse.sampling", "inellipse.svgfig",
                  "inellipse.cli")
#: per workload, (class, child, ancestor) call counts printed by a traced run,
#: over the jobs of that class whose outputs passed their checks
NESTED = {"report_mdq": (("type1", "quad.classify", "cli.main"),
                         ("type1", "affine.normalize_to_qstvw", "cli.main"),
                         ("type1", "minecc.min_ecc", "cli.main"),
                         ("type1", "quad.classify", "minecc.min_ecc"))}


def _fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def _load_library():
    """Import the checkout's own `inellipse` from `src/`, never an installed one."""
    init = SRC / "inellipse" / "__init__.py"
    if not init.is_file():
        raise RuntimeError(f"no library sources at {init.relative_to(ROOT)}")
    sys.path.insert(0, str(SRC))
    import inellipse
    import inellipse.cli  # noqa: F401  (the CLI workload and the traced layers)
    if Path(inellipse.__file__).resolve() != init.resolve():
        raise RuntimeError(f"imported inellipse from {inellipse.__file__}")
    return inellipse


def _reference(quads) -> np.ndarray:
    verts = np.array(quads, float)
    return np.concatenate([reference.max_ratio_sq(verts[i:i + REF_CHUNK])
                           for i in range(0, len(verts), REF_CHUNK)])


class Run:
    """State of one benchmark run: corpus, jobs, checked outputs and counts."""

    def __init__(self, workload: str, api, items):
        self.workload = workload
        self.items = items
        self.jobs = [jobs.make_job(workload, api, it) for it in items]
        self.blocks = [(s, min(s + jobs.BLOCK[workload], len(items)))
                       for s in range(0, len(items), jobs.BLOCK[workload])]
        self.expected: list[str] = []
        self.scores: list[jobs.Score] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def _key(self, value, error) -> str:
        if error is not None:
            return "error:" + type(error).__name__
        return jobs.fingerprint(self.workload, value)

    def check_pass(self) -> None:
        """Untimed pass: run every job once and check its output."""
        for item, job in zip(self.items, self.jobs):
            try:
                value, error = job(), None
            except Exception as exc:  # counted as a failed job
                value, error = None, exc
            self.expected.append(self._key(value, error))
            sc = jobs.score(self.workload, item, value, error)
            self.scores.append(sc)
            self.attempted += 1
            self.failed += sc.problem is not None

    def outcome(self, i: int, value, error) -> bool:
        """Timed job: its output must repeat the checked one exactly."""
        self.attempted += 1
        ok = self._key(value, error) == self.expected[i]
        self.mismatches += not ok
        ok = ok and self.scores[i].problem is None
        self.failed += not ok
        return ok

    def timed(self, seconds: float, job_list=None, min_passes: int = MIN_PASSES):
        return timing.timed_passes(job_list or self.jobs, self.blocks, seconds,
                                   self.outcome, min_passes)


def _timing_metrics(t: timing.Timings) -> dict:
    return {
        "lat_p50_cal": t.latency(50, calibrated=True),
        "lat_p99_cal": t.latency(99, calibrated=True),
        "throughput_cal": t.throughput(calibrated=True),
        "lat_p50_us": t.latency(50, calibrated=False) / 1e3,
        "throughput_qps": t.throughput(calibrated=False) * 1e9,
    }


def _quality_metrics(run: Run) -> dict:
    n = len(run.scores)
    shortfalls = [s.shortfall for s in run.scores if s.shortfall is not None]
    out = {
        "ratio_shortfall_max": max(shortfalls) if shortfalls else 0.0,
        "tangency_resid_max": max(s.tangency for s in run.scores),
    }
    methods = [s.method for s in run.scores if s.method is not None]
    for m in METHODS:
        out[f"minecc.method.{m}.share"] = methods.count(m) / n
    out["minecc.method.other.share"] = sum(m not in METHODS for m in methods) / n
    return out


def _census_metrics(run: Run) -> dict:
    problems = [s.problem for s in run.scores if s.problem is not None]
    out = {"census.fail_frac": len(problems) / len(run.scores)}
    for f in FAILURES:
        out[f"census.fail.{f}.count"] = problems.count(f)
    out["census.fail.other.count"] = sum(p not in FAILURES for p in problems)
    return out


UNITS = {"setup_s": "s", "lat_p50_cal": "cal", "lat_p99_cal": "cal",
         "throughput_cal": "1/cal", "lat_p50_us": "us", "throughput_qps": "1/s",
         "census.fail_frac": "share", "peak_rss_mb": "MB",
         "ratio_shortfall_max": "ratio", "tangency_resid_max": "diam",
         "trace.overhead": "ratio"}


def unit_of(name: str) -> str:
    if name in UNITS:
        return UNITS[name]
    if name.endswith(".calls_per_job"):
        return "count"
    if name.endswith("_us_per_job") or name.endswith("_us"):
        return "us"
    if name.endswith(".share"):
        return "share"
    return "count"


def end_to_end_names() -> list[str]:
    return ["setup_s", "lat_p50_cal", "lat_p99_cal", "throughput_cal", "peak_rss_mb"]


def per_layer_names() -> list[str]:
    names = []
    for fn in TRACED_FUNCTIONS:
        names += [f"{fn}.calls_per_job", f"{fn}.self_us_per_job"]
    names += [f"import.{m}.self_us" for m in IMPORT_MODULES]
    names += ["import.numpy.cumulative_us"]
    names += [f"minecc.method.{m}.share" for m in METHODS + ("other",)]
    names += ["ratio_shortfall_max", "tangency_resid_max"]
    names += [f"census.fail.{f}.count" for f in FAILURES + ("other",)]
    names += ["census.fail_frac", "lat_p50_us", "throughput_qps", "trace.overhead"]
    return names


def _items(drawn) -> list:
    ref = _reference([verts for _, verts, _ in drawn])
    return [jobs.Item(i, cls, verts, quad, float(r))
            for i, ((cls, verts, quad), r) in enumerate(zip(drawn, ref))]


def _census(workload: str, api, drawn, tmp) -> dict:
    """Untimed check pass over the census corpus: the library's failures there."""
    items = _items(drawn)
    if workload == "report_mdq":
        os.mkdir(os.path.join(tmp, "census"))
        jobs.write_inputs(items, os.path.join(tmp, "census"))
    census = Run(workload, api, items)
    census.check_pass()
    if not all(math.isfinite(it.ref_ratio) for it in items):
        raise RuntimeError("census reference is not finite")
    return _census_metrics(census)


def _traced(run: Run, seconds: float, src: str) -> dict:
    untraced = run.timed(seconds, min_passes=1)
    tracer = Tracer()
    traced_jobs = [(lambda i=i, job=job: tracer.run_job(i, job))
                   for i, job in enumerate(run.jobs)]
    tracer.install()
    try:
        traced = run.timed(0.0, traced_jobs, min_passes=1)
    finally:
        tracer.uninstall()
    n = len(run.items)
    totals = tracer.totals()
    out = {}
    for fn in TRACED_FUNCTIONS:
        calls, self_ns = totals.get(fn, (0, 0))
        out[f"{fn}.calls_per_job"] = calls / n
        out[f"{fn}.self_us_per_job"] = self_ns / 1e3 / n
    imports = timing.import_breakdown(jobs.SETUP_MODULE[run.workload], src,
                                      str(ROOT), IMPORT_REPS)
    for m in IMPORT_MODULES:
        out[f"import.{m}.self_us"] = imports.get(f"import.{m}.self_us", 0.0)
    out["import.numpy.cumulative_us"] = imports.get("import.numpy.cumulative_us", 0.0)
    quality = _quality_metrics(run)
    out.update(quality)
    raw = _timing_metrics(untraced)
    out["lat_p50_us"] = raw["lat_p50_us"]
    out["throughput_qps"] = raw["throughput_qps"]
    out["trace.overhead"] = _timing_metrics(traced)["throughput_cal"] / raw["throughput_cal"]

    print(f"traced pass: {len(tracer.name_of)} spans over {n} jobs")
    for cls, child, ancestor in NESTED.get(run.workload, ()):
        ids = {it.index for it in run.items if jobs.canonical_class(it) == cls
               and run.scores[it.index].problem is None}
        if ids:
            per = tracer.nested_calls(child, ancestor, ids)
            print(f"  {cls} jobs: {child} calls per {ancestor} call: {per:g}")
    untracked = sorted(set(tracer.names) - set(TRACED_FUNCTIONS))
    called = [name for name in untracked if totals.get(name, (0, 0))[0]]
    if called:
        print("  traced but not reported: " + ", ".join(called))
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{run.workload}.tsv.gz"
    tracer.dump(path)
    print(f"  spans written to {path.relative_to(ROOT)}")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(corpus.MIXES))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        api = _load_library()
    except (RuntimeError, ImportError) as exc:
        return _fail(str(exc))
    from inellipse.errors import NonConvexInput

    def accept(verts):
        try:
            return api.canonicalize(verts)
        except NonConvexInput:
            return None

    src = str(SRC)
    items = _items(corpus.build(args.workload, args.seed, jobs.CORPUS[args.workload], accept))
    tmp = None
    try:
        if args.workload == "report_mdq":
            tmp = tempfile.mkdtemp(prefix=".perfbench_tmp", dir=ROOT)
            jobs.write_inputs(items, tmp)
        run = Run(args.workload, api, items)
        run.check_pass()
        if args.trace:
            metrics = _traced(run, args.seconds / 2, src)
            census = corpus.build(args.workload, args.seed, jobs.CENSUS[args.workload],
                                  accept, census=True)
            metrics.update(_census(args.workload, api, census, tmp))
            print(f"census: {len(census)} quads from the whole convex space, "
                  f"failed share {metrics['census.fail_frac']:.4g}")
        else:
            setup_raw, setup = timing.cold_import_s(jobs.SETUP_MODULE[args.workload],
                                                    src, str(ROOT), SETUP_REPS)
            t = run.timed(args.seconds)
            metrics = _timing_metrics(t)
            metrics.update(_quality_metrics(run))
            metrics["setup_s"] = statistics.median(setup)
            metrics["peak_rss_mb"] = timing.peak_rss_mb()
            print(f"{args.workload} seed {args.seed}: {t.passes} timed passes, "
                  f"{t.jobs} timed jobs, corpus {len(items)} (latency percentiles "
                  f"over {len(items)} per-job lower quartiles), "
                  f"{len(run.blocks)} calibrated blocks per pass, median kernel "
                  f"{statistics.median(t.kernel_ns) / 1e6:.3f} ms, "
                  f"setup from {len(setup)} cold imports ({statistics.median(setup_raw):.4f} s "
                  f"raw, {timing.NOMINAL_KERNEL_S * 1e3:g} ms nominal kernel)")
            for name in end_to_end_names() + ["lat_p50_us", "throughput_qps",
                                              "ratio_shortfall_max",
                                              "tangency_resid_max"]:
                print(f"  {name:22s} {metrics[name]:.6g} {unit_of(name)}")
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
    names = per_layer_names() if args.trace else end_to_end_names()
    correct = (run.failed == 0 and run.mismatches == 0
               and all(math.isfinite(it.ref_ratio) for it in items))
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": metrics[k], "unit": unit_of(k)} for k in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
