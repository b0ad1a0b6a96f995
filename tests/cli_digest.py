"""One sha256 per CLI command over the benchmark's corpora.

Runs the in-process `inellipse.cli.main` on every quad of the timed and the
census corpora of the three benchmark workloads at seeds 1-3, as
`perfbench/corpus.py` builds them, each quad fed on stdin in the
benchmark's vertex order.  For each command it prints the sha256 of the exit
codes, stdouts and stderrs of all those runs, so two versions of the package
print the same line for a command exactly when it wrote the same bytes and
exit codes on every quad.  pytest does not collect this file; run it from
any directory:

    python3 tests/cli_digest.py
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import corpus  # noqa: E402
import jobs  # noqa: E402  (the benchmark's corpus sizes)
from inellipse import canonicalize, cli  # noqa: E402
from inellipse.errors import NonConvexInput  # noqa: E402

SEEDS = (1, 2, 3)
#: each command's argv, its input "-" read from stdin
COMMANDS = (
    ["classify", "-"],
    ["inscribe", "-", "--param", "0.3"],
    ["min-ecc", "-"],
    ["--tol", "1e-5", "min-ecc", "-"],
    ["--tol", "0", "min-ecc", "-"],
    ["verify", "-", "--theorem", "t1"],
    ["verify", "-", "--theorem", "t2"],
    ["verify", "-", "--theorem", "t3"],
)


def _accept(verts):
    # the benchmark's own filter: a draw that `canonicalize` rejects is redrawn
    try:
        return canonicalize(verts)
    except NonConvexInput:
        return None


def documents() -> list[bytes]:
    """The JSON input of every corpus quad, in a fixed order."""
    docs = []
    for workload in sorted(corpus.MIXES):
        for seed in SEEDS:
            for census, size in ((False, jobs.CORPUS[workload]),
                                 (True, jobs.CENSUS[workload])):
                for _, verts, _ in corpus.build(workload, seed, size, _accept, census):
                    docs.append(json.dumps({"vertices": [list(p) for p in verts]}).encode())
    return docs


def _run(argv: list[str], data: bytes) -> tuple[int, str, str]:
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    sys.stdin = SimpleNamespace(buffer=io.BytesIO(data))
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(argv)
    finally:
        sys.stdin = stdin
    return code, out.getvalue(), err.getvalue()


def main() -> None:
    docs = documents()
    for argv in COMMANDS:
        digest = hashlib.sha256()
        for data in docs:
            digest.update(repr(_run(argv, data)).encode())
        print(f"{digest.hexdigest()}  {' '.join(argv)}  ({len(docs)} quads)")


if __name__ == "__main__":
    main()
