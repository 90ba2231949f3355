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
  only: 30 per n for n = 7..16 and 3 per n for n = 17..62, all three
  methods on the larger range (past 16 vertices ``mc_exact`` never
  searches) and bounds and fast on the smaller.  These take about 75 s
  more, most of it in the chromatic number of the larger graphs, which
  no earlier kind reaches;
- seeded exact compute: ``compute`` (exact) over the n = 7..12 part of
  the n = 7..16 list, since an exact search at n = 13..16 can run for
  minutes.  In about 3 s, 85 of its 180 lines reach the vertex-set
  search, 40 of them at n = 11, 12;
- construct: ``construct F ...`` stdout for the five families at the
  fixed parameters of ``CONSTRUCT``, each followed by the ``verify``
  stdout of its coloring line;
- certify mismatch: ``certify --n N --jobs 1`` reports, kept as for
  certify, with one closed-form cell moved: f or g shifted by -1 or +1 at
  one k in {1, 3, 7, 15} with k <= C(N, 2), for N = 4..6.  Each of the 36
  reports has verdict "mismatch", so this pins the mismatch lines and the
  witnesses of a failed certification.  It takes about 15 s.

Run from anywhere:

    python tools/output_digests.py
"""

import contextlib
import hashlib
import io
import json
import random
import sys
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from mc_lab import (  # noqa: E402
    cli_main,
    emit_graph6,
    enumerate_connected_graphs,
    from_edges,
    harness,
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


# One argv tail per family member that the construct digest builds.
CONSTRUCT = [
    "anchored --n 6 --t 3", "anchored --n 9 --t 3", "anchored --n 12 --t 5",
    "split --n 7 --t 3 --extra 1", "split --n 9 --t 4", "split --n 12 --t 5 --extra 3",
    "diam3 --n 5", "diam3 --n 9", "deg2 --n 5", "deg2 --n 9",
    "multipartite --sizes 2,2,3", "multipartite --sizes 1,3,4",
    "multipartite --sizes 3,5", "multipartite --sizes 2,2,2,2,2",
]


def construct_texts():
    """Each member's ``construct`` stdout, then ``verify`` on its coloring line."""
    for tail in CONSTRUCT:
        out = run(["construct", *tail.split()])
        yield out
        yield run(["verify"], out.splitlines()[-1])


def digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
    return h.hexdigest()[:16]


def certify_doc(n: int, jobs: int) -> str:
    doc = json.loads(run(["certify", "--n", str(n), "--jobs", str(jobs)]))
    del doc["elapsed_seconds"]
    return json.dumps(doc)


def shifted_certify_doc(n: int, name: str, k: int, shift: int) -> str:
    """``certify_doc(n, 1)`` with ``harness.<name>`` moved by ``shift`` at k."""
    exact = getattr(harness, name)

    def moved(n_: int, k_: int):
        cell = exact(n_, k_)
        return cell._replace(value=cell.value + shift) if k_ == k else cell

    setattr(harness, name, moved)
    try:
        return certify_doc(n, 1)
    finally:
        setattr(harness, name, exact)


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
        (range(7, 13), 30, ("exact",)),
    ):
        lines = seeded_lines(sizes, per_n)
        for method in methods:
            label = f"compute n={sizes.start}..{sizes.stop - 1} {method}"
            print(label, digest([run(["compute", "--method", method], lines)]))
    print("construct", digest(construct_texts()))
    print("certify mismatch", digest(
        shifted_certify_doc(n, name, k, shift)
        for n in range(4, 7)
        for k in (1, 3, 7, 15) if k <= comb(n, 2)
        for name in ("min_edges_forcing", "max_edges_capping")
        for shift in (-1, 1)
    ))


if __name__ == "__main__":
    main()
