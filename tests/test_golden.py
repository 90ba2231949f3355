"""Golden corpus: solver outputs pinned by digest, so a refactor can prove it changed nothing.

``golden_bounds.json`` holds one SHA-256 digest per bucket.  Bucket
``n=<n> m=<m> fast=<0|1>`` covers the canonical JSON line
[graph6, value, method] of every connected graph with that vertex and
edge count, solved with the fast path on (1, ``mc_exact``) or off (0,
``_solve``), in enumeration order.  Bucket
``traces n=<n> m=<m> fast=<0|1>`` covers [graph6, bound_trace] of the
same solves, so a change to the bounds alone moves only these.  Bucket
``colorings n=<n> fast=<0|1>`` covers
[graph6, colors] of the same solves, so the exact trees each class
takes are pinned too; verify_mc inside mc_exact checks that they are
valid.  Bucket ``search n=<n>`` covers [graph6, value, colors] for 50
seeded random graphs on n = 7..9 vertices that miss the fast path and
whose bounds do not meet, so each value and coloring comes from the
vertex-set search.  Bucket ``dense-upper-bounds`` covers
[graph6, mc_upper_bounds] on a seeded set of dense graphs on 8..16
vertices: K_n minus a random matching, and anchored partitions relabeled
at random.

Regenerate the file with ``PYTHONPATH=src python tests/test_golden.py``;
a regeneration then shows up in the diff.
"""

import hashlib
import json
import random
from itertools import combinations
from pathlib import Path

from mc_lab.constructions import build_anchored_partition
from mc_lab.graph_core import emit_graph6, enumerate_connected_graphs, from_edges, is_connected
from mc_lab.solver import _bounds, _solve, baseline_fast_path, mc_exact, mc_upper_bounds

GOLDEN = Path(__file__).with_name("golden_bounds.json")
MAX_N = 6
DENSE_SEED = 20141224
SEARCH_SEED = 20141225
SEARCH_PER_N = 50


def _line(*fields) -> bytes:
    return json.dumps(fields, separators=(",", ":")).encode() + b"\n"


def _relabeled(rng, g):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def dense_graphs():
    """K_n minus a random matching, and relabeled anchored partitions, n = 8..16."""
    rng = random.Random(DENSE_SEED)
    out = []
    for n in range(8, 17):
        for k in range(1, n // 2 + 1):
            ends = rng.sample(range(n), 2 * k)
            missing = {(min(a, b), max(a, b)) for a, b in zip(ends[::2], ends[1::2])}
            edges = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in missing]
            out.append(from_edges(n, edges))
        for t in range(3, n + 1):
            out.append(_relabeled(rng, build_anchored_partition(n, t).graph))
    return out


def searched_graphs(n):
    """SEARCH_PER_N seeded random n-vertex graphs that reach the search."""
    rng = random.Random(SEARCH_SEED + n)
    pairs = list(combinations(range(n), 2))
    out = []
    while len(out) < SEARCH_PER_N:
        g = from_edges(n, rng.sample(pairs, rng.randint(n, len(pairs) - 1)))
        if is_connected(g) and baseline_fast_path(g) is None:
            lb, _, ub, _ = _bounds(g)
            if lb < ub:
                out.append(g)
    return out


def digests() -> dict[str, str]:
    hashes = {}
    for n in range(2, MAX_N + 1):
        for g in enumerate_connected_graphs(n):
            g6 = emit_graph6(g)
            for fast in (1, 0):
                cert = mc_exact(g) if fast else _solve(g)
                key = f"n={n} m={g.m} fast={fast}"
                hashes.setdefault(key, hashlib.sha256()).update(_line(g6, cert.value, cert.method))
                hashes.setdefault(f"traces {key}", hashlib.sha256()).update(
                    _line(g6, [list(entry) for entry in cert.bound_trace])
                )
                hashes.setdefault(f"colorings n={n} fast={fast}", hashlib.sha256()).update(
                    _line(g6, cert.coloring.colors)
                )
    for n in (7, 8, 9):
        h = hashes[f"search n={n}"] = hashlib.sha256()
        for g in searched_graphs(n):
            cert = mc_exact(g)
            h.update(_line(emit_graph6(g), cert.value, cert.coloring.colors))
    dense = hashes["dense-upper-bounds"] = hashlib.sha256()
    for g in dense_graphs():
        dense.update(_line(emit_graph6(g), [list(b) for b in mc_upper_bounds(g)]))
    return {key: h.hexdigest() for key, h in hashes.items()}


def test_golden_digests_match():
    expect = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(expect)
    mismatched = [key for key in expect if got[key] != expect[key]]
    assert mismatched == [], f"golden buckets changed: {mismatched}"


if __name__ == "__main__":
    GOLDEN.write_text(json.dumps(digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
