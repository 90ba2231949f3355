"""Print SHA-256 digests (first 16 hex digits) of mc-lab's outputs.

A change that must not alter any output can compare these digests before
and after.  Every command runs in this process through ``cli_main``
against the ``src`` tree next to this script.  The first three kinds
take about 15 s:

- certify: the ``certify --n N --jobs J`` report for N = 3..6, J = 1 and
  2 in turn, each re-serialized by ``json.dumps`` without
  ``elapsed_seconds``;
- compute: ``compute --method M`` stdout over every connected labeled
  graph with n = 2..6 (27,475 graph6 lines in enumeration order), one
  digest per method;
- table: ``table F --n N`` stdout for F = f, g, t, s and, within each,
  N = 2..120;
- seeded compute: ``compute --method M`` stdout over seeded random
  connected graphs, one digest per size range and method.  For each n,
  ``random.Random(n)`` draws an edge probability p in [0.3, 1) and then
  each pair as an edge with probability p, keeping connected graphs
  only: 30 per n for n = 7..16 and 3 per n for n = 17..62.  The exact
  method runs on the larger range only, since an exact search at n <= 16
  can run for minutes; past 16 vertices ``mc_exact`` never searches.
  These take about 75 s more, most of it in the chromatic number of
  the larger graphs, which no earlier kind reaches.

Run from anywhere:

    python tools/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mc_lab import (  # noqa: E402
    cli_main,
    emit_graph6,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
)


def run(argv: list[str], stdin: str = "") -> str:
    """stdout of ``mc-lab argv`` run in this process with ``stdin`` as input."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out):
            cli_main(argv)
    finally:
        sys.stdin = saved
    return out.getvalue()


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def certify_doc(n: int, jobs: int) -> str:
    doc = json.loads(run(["certify", "--n", str(n), "--jobs", str(jobs)]))
    del doc["elapsed_seconds"]
    return json.dumps(doc)


def seeded_lines(sizes: range, per_n: int) -> str:
    """graph6 lines of ``per_n`` seeded random connected graphs per n."""
    lines = []
    for n in sizes:
        rng = random.Random(n)
        kept = 0
        while kept < per_n:
            p = rng.uniform(0.3, 1.0)
            g = from_edges(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])
            if is_connected(g):
                lines.append(emit_graph6(g) + "\n")
                kept += 1
    return "".join(lines)


def main() -> None:
    print("certify", digest(certify_doc(n, jobs) for n in range(3, 7) for jobs in (1, 2)))
    lines = "".join(
        emit_graph6(g) + "\n" for n in range(2, 7) for g in enumerate_connected_graphs(n)
    )
    for method in ("exact", "bounds", "fast"):
        print(f"compute {method}", digest([run(["compute", "--method", method], lines)]))
    print("table", digest(run(["table", f, "--n", str(n)]) for f in "fgts" for n in range(2, 121)))
    for sizes, per_n, methods in (
        (range(7, 17), 30, ("bounds", "fast")),
        (range(17, 63), 3, ("exact", "bounds", "fast")),
    ):
        lines = seeded_lines(sizes, per_n)
        for method in methods:
            label = f"compute n={sizes.start}..{sizes.stop - 1} {method}"
            print(label, digest([run(["compute", "--method", method], lines)]))


if __name__ == "__main__":
    main()
