"""Exhaustive sweeps, empirical threshold tables, certification, and the CLI.

The sweep walks ``graph_core.enumerate_connected_graphs`` over every
connected labeled graph on n <= 7 vertices, solves each one exactly, and
aggregates per-edge-count mc statistics.  Every sweep cuts that walk into
``4 * jobs`` ranges of edge masks, solved in-process for one job and by a
worker pool otherwise.  A witness is the *first* graph seen with its
(edge count, mc) key, in ascending edge-mask order: relabeling v as
n - 1 - v maps the pair order of ``edge_list(n)`` onto the reverse of
graph6's column order, so the edge mask of G, read as a number, orders
graphs as graph6 orders their relabelings.  The key ignores labels and
the sweep sees every labeled graph, so the relabeled first sighting is
the key's least graph6.  Each range keeps its first sightings, the
earliest range wins, and only the kept graphs are encoded.  Nothing is
cached: every call sweeps afresh, and ``certify`` sweeps once and derives
both empirical threshold tables from that one ``SweepResult`` before
comparing them against the closed forms.  ``certify`` is also the
backbone of the command line tool installed as ``mc-lab``.

Importing this module loads only what sweeps and certification run.  The
process pool (``concurrent.futures.process``, and with it
``multiprocessing``) is imported on first use, by a sweep with more than
one job; ``argparse`` and ``csv`` are imported by the CLI code that uses
them.
"""

from __future__ import annotations

import io
import json
import os
import sys
import time
from math import comb
from typing import NamedTuple

from .coloring import coloring_from_json, coloring_to_json, verify_mc
from .constructions import (
    anchored_partition_coloring,
    build_anchored_partition,
    build_augmented_split_graph,
    build_degree_two_witness,
    build_diameter_three_witness,
    complete_multipartite,
    multipartite_star_coloring,
    spanning_tree_coloring,
)
from .formulas import _table_cells, max_edges_capping, min_edges_forcing
from .graph_core import (
    ENUMERATION_MAX_VERTICES,
    edge_list,
    emit_graph6,
    enumerate_connected_graphs,
    from_edges,
    is_connected,
    parse_graph6,
)
from .solver import ExactSolveRefusedError, _bounds, baseline_fast_path, mc_exact


class SweepResult(NamedTuple):
    """Aggregated exact-solver results over all connected graphs on n vertices.

    ``witness_g6`` maps (edge count, mc value) to the lexicographically
    smallest graph6 string attaining it, which keeps every downstream
    report independent of worker count and chunking.  It is found without
    encoding every graph: the first graph with the key in ascending
    edge-mask order, relabeled by v -> n - 1 - v, has the least graph6,
    because that relabeling turns edge-mask order into graph6 order.
    """

    n: int
    graph_count: int
    elapsed: float
    jobs: int
    min_mc_by_m: dict[int, int]
    max_mc_by_m: dict[int, int]
    witness_g6: dict[tuple[int, int], str]


def _sweep_chunk(args: tuple[int, range]):
    """Solve every connected graph on n vertices whose edge mask lies in ``masks``.

    Returns the graph count and, for each (edge count, mc) key, the graph6
    of the key's first graph in the range relabeled by v -> n - 1 - v.
    """
    n, masks = args
    count = 0
    first = {}
    for g in enumerate_connected_graphs(n, masks):
        count += 1
        first.setdefault((g.m, mc_exact(g).value), g)
    return count, {
        key: emit_graph6(from_edges(n, ((n - 1 - u, n - 1 - v) for u, v in g.edges())))
        for key, g in first.items()
    }


def sweep(n: int, jobs: int = 1) -> SweepResult:
    """Solve all connected labeled graphs on n vertices and aggregate.

    The edge-mask space is cut into ``4 * jobs`` ranges, solved in this
    process when jobs is 1 and by a pool of at most ``os.cpu_count()``
    worker processes otherwise.  Bounded at n <= ENUMERATION_MAX_VERTICES
    (7): a full n = 7 sweep solves 1.8 million graphs.
    """
    if not 2 <= n <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"sweep supports 2 <= n <= {ENUMERATION_MAX_VERTICES}, got {n}")
    t0 = time.perf_counter()
    jobs = max(1, jobs)
    total = 1 << len(edge_list(n))
    step = -(-total // (4 * jobs))
    chunks = [(n, range(s, min(s + step, total))) for s in range(0, total, step)]
    if jobs == 1:
        parts = map(_sweep_chunk, chunks)
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=min(jobs, os.cpu_count() or 1)) as ex:
            parts = list(ex.map(_sweep_chunk, chunks))
    count = 0
    wit: dict[tuple[int, int], str] = {}
    for c, w in parts:
        count += c
        wit = w | wit  # ranges arrive in mask order: an earlier one's witness wins
    # The witness keys are every attained (m, mc) pair; sorted, each m's
    # first key holds its least mc and its last the greatest.
    min_by_m: dict[int, int] = {}
    max_by_m: dict[int, int] = {}
    for m, val in sorted(wit):
        min_by_m.setdefault(m, val)
        max_by_m[m] = val
    return SweepResult(
        n=n,
        graph_count=count,
        elapsed=time.perf_counter() - t0,
        jobs=jobs,
        min_mc_by_m=min_by_m,
        max_mc_by_m=max_by_m,
        witness_g6=dict(sorted(wit.items())),
    )


def empirical_force_table(sw: SweepResult) -> dict[int, int]:
    """Observed minimum edge count guaranteeing mc >= k, for each k.

    f(n, k) is one more than the largest edge count m whose least mc,
    ``sw.min_mc_by_m[m]``, is below k, and n - 1 when no edge count has
    a graph with mc < k.
    """
    low = sw.min_mc_by_m
    return {
        k: 1 + max((m for m in low if low[m] < k), default=sw.n - 2)
        for k in range(1, comb(sw.n, 2) + 1)
    }


def empirical_cap_table(sw: SweepResult) -> dict[int, int]:
    """Observed maximum edge count keeping mc <= k for every graph, per k.

    g(n, k) is one less than the least edge count m whose greatest mc,
    ``sw.max_mc_by_m[m]``, is above k, and C(n, 2) when no edge count has
    a graph with mc > k.
    """
    high = sw.max_mc_by_m
    top = comb(sw.n, 2)
    return {
        k: min((m for m in high if high[m] > k), default=top + 1) - 1
        for k in range(1, top + 1)
    }


class CertificationReport(NamedTuple):
    """Side-by-side comparison of closed-form and observed thresholds.

    ``verdict`` is "certified" exactly when ``mismatches`` is empty.
    Witnesses are the lexicographically smallest graph6 strings showing
    each threshold is tight: mc < k one edge below the forcing
    threshold, mc > k one edge above the cap.
    """

    n: int
    graph_count: int
    elapsed: float
    jobs: int
    min_mc_by_m: dict[int, int]
    max_mc_by_m: dict[int, int]
    force_expected: dict[int, int]
    force_observed: dict[int, int]
    cap_expected: dict[int, int]
    cap_observed: dict[int, int]
    force_witness_g6: dict[int, str]
    cap_witness_g6: dict[int, str]
    mismatches: tuple[str, ...]
    verdict: str

    def to_json(self) -> str:
        # json.dumps writes the int keys of the tables as strings.
        return json.dumps(
            {
                "n": self.n,
                "verdict": self.verdict,
                "graph_count": self.graph_count,
                "elapsed_seconds": round(self.elapsed, 3),
                "jobs": self.jobs,
                "min_mc_by_edge_count": self.min_mc_by_m,
                "max_mc_by_edge_count": self.max_mc_by_m,
                "force": {
                    "expected": self.force_expected,
                    "observed": self.force_observed,
                    "witness_g6": self.force_witness_g6,
                },
                "cap": {
                    "expected": self.cap_expected,
                    "observed": self.cap_observed,
                    "witness_g6": self.cap_witness_g6,
                },
                "mismatches": list(self.mismatches),
            }
        )

    def table_csv(self) -> str:
        import csv

        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["n", "k", "force_expected", "force_observed", "cap_expected", "cap_observed"]
        )
        tables = (self.force_expected, self.force_observed, self.cap_expected, self.cap_observed)
        w.writerows([self.n, k, *(t[k] for t in tables)] for k in sorted(self.force_expected))
        return buf.getvalue()


def certify(n: int, jobs: int = 1) -> CertificationReport:
    """Certify the closed-form threshold tables against a full sweep."""
    t0 = time.perf_counter()
    sw = sweep(n, jobs=jobs)
    force_obs = empirical_force_table(sw)
    cap_obs = empirical_cap_table(sw)
    ks = range(1, comb(n, 2) + 1)
    force_exp = {k: min_edges_forcing(n, k).value for k in ks}
    cap_exp = {k: max_edges_capping(n, k).value for k in ks}
    mismatches = [
        f"{name} n={n} k={k}: expected {exp[k]}, observed {obs[k]}"
        for k in ks
        for name, exp, obs in (("force", force_exp, force_obs), ("cap", cap_exp, cap_obs))
        if obs[k] != exp[k]
    ]
    # The f witness at k is the least-mc graph one edge below f, the g
    # witness the greatest-mc graph one edge above g, each kept only at an
    # edge count the sweep has and when its mc is below (above) k.
    low, high = sw.min_mc_by_m, sw.max_mc_by_m
    force_wit = {
        k: sw.witness_g6[f - 1, low[f - 1]]
        for k, f in force_exp.items()
        if f - 1 in low and low[f - 1] < k
    }
    cap_wit = {
        k: sw.witness_g6[g + 1, high[g + 1]]
        for k, g in cap_exp.items()
        if g + 1 in high and high[g + 1] > k
    }
    return CertificationReport(
        n=n,
        graph_count=sw.graph_count,
        elapsed=time.perf_counter() - t0,
        jobs=sw.jobs,
        min_mc_by_m=dict(low),
        max_mc_by_m=dict(high),
        force_expected=force_exp,
        force_observed=force_obs,
        cap_expected=cap_exp,
        cap_observed=cap_obs,
        force_witness_g6=force_wit,
        cap_witness_g6=cap_wit,
        mismatches=tuple(mismatches),
        verdict="certified" if not mismatches else "mismatch",
    )


def _build_parser() -> argparse.ArgumentParser:
    import argparse

    p = argparse.ArgumentParser(
        prog="mc-lab",
        description="Compute, construct, and certify monochromatic connection numbers.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    c = sub.add_parser("compute", help="solve graph6 input exactly")
    c.add_argument("--graph6", help="one graph6 string; reads lines from stdin when omitted")
    c.add_argument(
        "--method",
        choices=["exact", "bounds", "fast"],
        default="exact",
        help="exact solve, bounds only, or the cheap-condition fast path only",
    )

    v = sub.add_parser("verify", help="check a coloring JSON document")
    v.add_argument("--coloring", help="path to coloring JSON; reads stdin when omitted")

    b = sub.add_parser("construct", help="emit a named family member and its coloring")
    b.add_argument(
        "family", choices=["anchored", "split", "diam3", "deg2", "multipartite"]
    )
    b.add_argument("--n", type=int, help="vertex count")
    b.add_argument("--t", type=int, help="class count (anchored, split)")
    b.add_argument("--extra", type=int, default=0, help="extra inside edges (split)")
    b.add_argument("--sizes", help="comma-separated class sizes (multipartite)")

    t = sub.add_parser("table", help="closed-form threshold table as CSV")
    t.add_argument("function", choices=["f", "g", "t", "s"])
    t.add_argument("--n", type=int, required=True)
    t.add_argument("--out", help="write the CSV here instead of stdout")

    ce = sub.add_parser("certify", help="certify formulas against a full sweep")
    ce.add_argument("--n", type=int, required=True)
    ce.add_argument("--jobs", type=int, default=0, help="worker processes; 0 = all cores")
    ce.add_argument("--out", help="write the report JSON here")
    ce.add_argument("--csv", help="write the expected/observed table CSV here")
    ce.add_argument(
        "--allow-slow",
        action="store_true",
        help="confirm the n = 7 sweep (about 1.8 million graphs)",
    )
    return p


def cli_main(argv: list[str] | None = None) -> int:
    """Entry point behind the mc-lab script; returns the exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    handlers = {
        "compute": _cmd_compute,
        "verify": _cmd_verify,
        "construct": _cmd_construct,
        "table": _cmd_table,
        "certify": _cmd_certify,
    }
    # A bad input, or a file or worker pool the OS refuses, ends the
    # command with one JSON error line and exit code 1.
    try:
        return handlers[args.command](args)
    except (OSError, ValueError) as exc:
        print(json.dumps({"error": str(exc)}))
        return 1


def _cmd_compute(args) -> int:
    # stdin is read lazily and each answer flushed, so a reader sees every
    # line's answer before the next line is solved.
    if args.graph6 is not None:
        lines = [args.graph6]
    else:
        lines = (ln.strip() for ln in sys.stdin if ln.strip())
    status = 0
    for text in lines:
        try:
            g = parse_graph6(text)
            if args.method == "exact":
                print(mc_exact(g).to_json())
            elif args.method == "bounds":
                if not is_connected(g):
                    # stdout contract: the error text of spanning_tree()
                    raise ValueError("spanning_tree requires a connected graph")
                lower, _, upper, trace = _bounds(g)
                out = {
                    "graph6": text,
                    "method": "bounds",
                    "lower": lower,
                    "upper": upper,
                    "bound_trace": [[name, v] for name, v in trace],
                }
                if lower == upper:
                    out["value"] = lower
                print(json.dumps(out))
            else:
                reason = baseline_fast_path(g)
                out = {
                    "graph6": text,
                    "method": "fast",
                    "condition": reason,
                    "value": g.m - g.n + 2 if reason is not None else None,
                }
                print(json.dumps(out))
        except (ExactSolveRefusedError, ValueError) as exc:
            err = {"graph6": text, "error": str(exc)}
            if isinstance(exc, ExactSolveRefusedError):
                err |= {"lower": exc.lower, "upper": exc.upper}
            print(json.dumps(err))
            status = 1
        sys.stdout.flush()
    return status


def _cmd_verify(args) -> int:
    if args.coloring is not None:
        with open(args.coloring, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = sys.stdin.read()
    col = coloring_from_json(text)
    bad = verify_mc(col)
    if bad is None:
        print(json.dumps({"ok": True, "colors": col.color_count}))
        return 0
    print(json.dumps({"ok": False, "failing_pair": list(bad)}))
    return 2


def _cmd_construct(args) -> int:
    fam = args.family
    if fam == "anchored":
        if args.n is None or args.t is None:
            raise ValueError("anchored needs --n and --t")
        pg = build_anchored_partition(args.n, args.t)
        g, col = pg.graph, anchored_partition_coloring(pg)
    elif fam == "split":
        if args.n is None or args.t is None:
            raise ValueError("split needs --n and --t (and optionally --extra)")
        g, col = build_augmented_split_graph(args.n, args.t, args.extra)
    elif fam in ("diam3", "deg2"):
        if args.n is None:
            raise ValueError(f"{fam} needs --n")
        build = build_diameter_three_witness if fam == "diam3" else build_degree_two_witness
        g = build(args.n)
        col = spanning_tree_coloring(g)
    else:
        if not args.sizes:
            raise ValueError("multipartite needs --sizes, e.g. --sizes 2,2,3")
        sizes = [int(s) for s in args.sizes.split(",")]
        pg = complete_multipartite(sizes)
        g, col = pg.graph, multipartite_star_coloring(pg)
    print(emit_graph6(g))
    print(coloring_to_json(col))
    return 0


def _write(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _cmd_table(args) -> int:
    import csv

    # Bad input raises before any output; each row is written as it is computed.
    cells = _table_cells(args.function, args.n)

    def write(fh) -> None:
        w = csv.writer(fh)
        w.writerow(["n", "k", "value", "regime"])
        w.writerows((r.n, r.k, r.value, r.regime) for r in cells)

    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            write(fh)
    else:
        write(sys.stdout)
    return 0


def _cmd_certify(args) -> int:
    n = args.n
    if n == 7 and not args.allow_slow:
        raise ValueError(f"n={n} solves millions of graphs; pass --allow-slow to confirm")
    jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
    report = certify(n, jobs=jobs)
    # The report goes to stdout first, so a failed write never loses a sweep.
    doc = report.to_json()
    print(doc)
    for path, text in ((args.out, doc + "\n"), (args.csv, report.table_csv())):
        if path:
            _write(path, text)
    return 0 if report.verdict == "certified" else 2


def main() -> None:
    sys.exit(cli_main())
