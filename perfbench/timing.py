"""Calibration kernel, timed passes, cold-import set-up time and statistics.

Raw wall time on a shared machine drifts between runs; every timed block
is therefore preceded by a fixed calibration kernel, and timings are also
reported in units of that kernel's duration (unit `cal`).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import re
import resource
import statistics
import subprocess
import sys
import time

import numpy as np
from numpy.polynomial import polynomial as npoly

_KERNEL_REPS = 3
#: kernel duration, in seconds, that calibrated set-up times are scaled to;
#: about the kernel's median on the 2-core VM the bounds were set on
NOMINAL_KERNEL_S = 0.005
_IMPORT_CODE = ("import time; t = time.perf_counter(); import {module}; "
                "print(repr(time.perf_counter() - t))")


def kernel() -> float:
    """Fixed work shaped like the jobs': interpreter float math, small tuples
    through function calls, tiny numpy calls, and the stdlib work a CLI call
    does (JSON round trips, building and running an argument parser)."""
    acc = 0.0
    x = 0.5
    for i in range(2500):
        x = math.sqrt(x * x + 0.25 * i) - math.hypot(x, 0.5) * 0.5
        acc += x if i % 3 else -x

    def step(p, q):
        return (p[0] + q[1], p[1] - q[0], max(abs(p[0]), abs(q[1])))
    p = (0.5, 0.25, 0.0)
    for i in range(1200):
        p = step(p, (0.001 * i, 0.5))
    acc += p[2]
    coeffs = np.array([1.0, -0.5, 0.25])
    for _ in range(25):
        prod = npoly.polymul(coeffs, coeffs)
        acc += float(npoly.polyval(0.3, npoly.polyder(prod)))
        acc += float(np.max(np.abs(np.linspace(0.0, 1.0, 33) - acc * 1e-9)))
    doc = {"vertices": [[0.1 * i, 0.2 * i] for i in range(4)],
           "values": [acc * i for i in range(24)], "flags": {"a": True, "b": None}}
    for _ in range(12):
        doc = json.loads(json.dumps(doc, indent=2))
    for _ in range(2):
        parser = argparse.ArgumentParser(prog="kernel")
        sub = parser.add_subparsers(dest="command")
        for name in ("a", "b", "c", "d"):
            cmd = sub.add_parser(name, help=name)
            cmd.add_argument("input")
            cmd.add_argument("--value", type=float, default=1.0)
        acc += parser.parse_args(["b", "x", "--value", "2"]).value
    return acc


def kernel_ns() -> int:
    """Median duration of a few kernel runs, in nanoseconds."""
    clock = time.perf_counter_ns
    times = []
    for _ in range(_KERNEL_REPS):
        t0 = clock()
        kernel()
        times.append(clock() - t0)
    return int(statistics.median(times))


class Timings:
    """Per-job and per-block times, in ns and in calibration units, of every pass.

    Each job and each block runs once per pass.  A block's statistic takes
    its median over passes, a job's its lower quartile, before combining
    them: on a shared machine other load slows a quarter or more of a short
    job's runs, and a job that is slow in every pass still keeps a high
    lower quartile.
    """

    def __init__(self, n_jobs: int, n_blocks: int):
        self.job_ns = [[] for _ in range(n_jobs)]
        self.job_cal = [[] for _ in range(n_jobs)]
        self.block_ns = [[] for _ in range(n_blocks)]
        self.block_cal = [[] for _ in range(n_blocks)]
        self.kernel_ns: list[float] = []  # median kernel time of each pass
        self.passes = 0
        self.ok = 0

    @property
    def jobs(self) -> int:
        return self.passes * len(self.job_ns)

    def latency(self, q: float, calibrated: bool) -> float:
        """Percentile q over jobs of each job's lower-quartile time across passes."""
        per_job = self.job_cal if calibrated else self.job_ns
        return percentile([percentile(t, 25) for t in per_job], q)

    def throughput(self, calibrated: bool) -> float:
        """Jobs that passed their checks, per pass, over a pass's median-block time."""
        per_block = self.block_cal if calibrated else self.block_ns
        busy = sum(statistics.median(t) for t in per_block)
        return self.ok / self.passes / busy


def timed_passes(jobs, blocks, seconds: float, outcome, min_passes: int) -> Timings:
    """Run whole passes over `jobs`, block by block, until `seconds` have elapsed.

    `blocks` is a list of (start, stop) index ranges covering the jobs; the
    calibration kernel runs before each.  A block's time, the sum of its
    jobs' times, and each of its jobs' times are divided by the block's own
    kernel time.  `outcome(i, value, error)` checks each job's
    output between jobs, outside the timed intervals, and returns True when
    it passed; the output is then dropped, so the heap the collector scans
    does not grow with the block.
    """
    t = Timings(len(jobs), len(blocks))
    clock = time.perf_counter_ns
    # keep the benchmark's own long-lived objects (corpus, checked outputs)
    # out of the collector's full passes
    gc.collect()
    gc.freeze()
    deadline = clock() + int(seconds * 1e9)
    while t.passes < min_passes or clock() < deadline:
        cals = []
        for b, (start, stop) in enumerate(blocks):
            cal = kernel_ns()
            cals.append(cal)
            busy = 0
            for i in range(start, stop):
                t0 = clock()
                try:
                    value, error = jobs[i](), None
                except Exception as exc:  # a failing job is counted, not fatal
                    value, error = None, exc
                dt = clock() - t0
                busy += dt
                t.job_ns[i].append(dt)
                t.job_cal[i].append(dt / cal)
                t.ok += bool(outcome(i, value, error))
                value = error = None
            t.block_ns[b].append(busy)
            t.block_cal[b].append(busy / cal)
        t.kernel_ns.append(statistics.median(cals))
        t.passes += 1
    return t


def percentile(values, q: float) -> float:
    """Percentile with numpy's default linear interpolation."""
    return float(np.percentile(np.asarray(values, float), q))


def child_env(src: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def cold_import_s(module: str, src: str, cwd: str, reps: int) -> tuple[list[float], list[float]]:
    """Seconds to import `module` in fresh interpreters, one untimed warm-up first.

    Returns the raw times and the same times scaled by the calibration
    kernel, timed just before each import, to a machine on which the kernel
    takes NOMINAL_KERNEL_S.
    """
    cmd = [sys.executable, "-c", _IMPORT_CODE.format(module=module)]
    raw, scaled = [], []
    for i in range(reps + 1):
        cal = kernel_ns()
        done = subprocess.run(cmd, cwd=cwd, env=child_env(src), capture_output=True,
                              text=True, timeout=60, check=True)
        if i:
            seconds = float(done.stdout.strip().splitlines()[-1])
            raw.append(seconds)
            scaled.append(seconds * NOMINAL_KERNEL_S / (cal / 1e9))
    return raw, scaled


_IMPORTTIME = re.compile(r"import time:\s+(\d+) \|\s+(\d+) \|(\s*)(\S+)")


def import_breakdown(module: str, src: str, cwd: str, reps: int) -> dict[str, float]:
    """Median self time (us) of each module in `python -X importtime`, plus numpy's cumulative."""
    cmd = [sys.executable, "-X", "importtime", "-c", f"import {module}"]
    samples: dict[str, list[float]] = {}
    for _ in range(reps):
        done = subprocess.run(cmd, cwd=cwd, env=child_env(src), capture_output=True,
                              text=True, timeout=60, check=True)
        for line in done.stderr.splitlines():
            m = _IMPORTTIME.match(line)
            if not m:
                continue
            name = m.group(4)
            if name.startswith("inellipse"):
                samples.setdefault(f"import.{name}.self_us", []).append(float(m.group(1)))
            elif name == "numpy":
                samples.setdefault("import.numpy.cumulative_us", []).append(float(m.group(2)))
    return {k: statistics.median(v) for k, v in samples.items()}


def peak_rss_mb() -> float:
    """Largest resident set of this process so far."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
