"""Span tracing of the library from outside the package.

`Tracer.install` rebinds every public function of the traced layers (and
the `EccFunctional` constructor) to a timing wrapper, in every `inellipse`
module namespace that holds it, so calls between modules are traced too.
Spans (name, start, end, parent span, job id) are kept in flat in-memory
arrays and written out by `dump` when the run ends.
"""

from __future__ import annotations

import gzip
import inspect
import sys
import time
from array import array

LAYERS = ("quad", "affine", "family", "conic", "diameters", "minecc", "cli")
#: classes whose construction is traced as `<layer>.<Class>`
TRACED_CLASSES = {"minecc": ("EccFunctional",)}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("l")
        self.parent = array("l")
        self.job = array("l")
        self.start = array("q")
        self.end = array("q")
        self.job_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn):
        idx = len(self.names)
        self.names.append(name)
        name_of, parent, job = self.name_of, self.parent, self.job
        start, end, stack = self.start, self.end, self._stack
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            sid = len(name_of)
            name_of.append(idx)
            parent.append(stack[-1] if stack else -1)
            job.append(tracer.job_id)
            end.append(0)
            stack.append(sid)
            t0 = clock()
            start.append(t0)
            try:
                return fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, package: str = "inellipse") -> None:
        """Rebind the traced callables in every loaded module of `package`."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            for attr, obj in vars(module).items():
                if (not attr.startswith("_") and inspect.isfunction(obj)
                        and obj.__module__ == module.__name__):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
            for cls_name in TRACED_CLASSES.get(layer, ()):
                cls = getattr(module, cls_name, None)
                if cls is not None:
                    init = cls.__init__
                    self._restore.append((cls, "__init__", init))
                    setattr(cls, "__init__", self._wrap(f"{layer}.{cls_name}", init))
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (mod_name == package
                                      or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((module, attr, obj))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._restore):
            setattr(target, attr, original)
        self._restore.clear()

    def run_job(self, job_id: int, job):
        """Call `job()` with its spans tagged by `job_id`."""
        self.job_id = job_id
        try:
            return job()
        finally:
            self.job_id = -1

    def self_ns(self) -> list[int]:
        """Per-span duration minus the time covered by its direct children."""
        dur = [e - s for s, e in zip(self.start, self.end)]
        own = list(dur)
        for sid, p in enumerate(self.parent):
            if p >= 0:
                own[p] -= dur[sid]
        return own

    def totals(self) -> dict[str, tuple[int, int]]:
        """(calls, self ns) per span name."""
        own = self.self_ns()
        out: dict[str, list[int]] = {}
        for sid, idx in enumerate(self.name_of):
            acc = out.setdefault(self.names[idx], [0, 0])
            acc[0] += 1
            acc[1] += own[sid]
        return {k: (v[0], v[1]) for k, v in out.items()}

    def nested_calls(self, child: str, ancestor: str, jobs) -> float:
        """Mean number of `child` spans below each `ancestor` span, over given jobs."""
        counts: dict[int, int] = {}
        for sid, idx in enumerate(self.name_of):
            if self.job[sid] not in jobs:
                continue
            name = self.names[idx]
            if name == ancestor:
                counts.setdefault(sid, 0)
            elif name == child:
                p = self.parent[sid]
                while p >= 0 and self.names[self.name_of[p]] != ancestor:
                    p = self.parent[p]
                if p >= 0:
                    counts[p] = counts.get(p, 0) + 1
        return sum(counts.values()) / len(counts) if counts else 0.0

    def dump(self, path) -> None:
        """Write the spans as gzipped tab-separated lines: id, name, start, end, parent, job."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tname\tstart_ns\tend_ns\tparent\tjob\n")
            for sid in range(len(self.name_of)):
                fh.write(f"{sid}\t{self.names[self.name_of[sid]]}\t{self.start[sid]}\t"
                         f"{self.end[sid]}\t{self.parent[sid]}\t{self.job[sid]}\n")
