"""Exhaustive sweeps, empirical threshold tables, certification, and the CLI.

The sweep enumerates every connected labeled graph on n vertices, solves
each one exactly, and aggregates per-edge-count mc statistics.  The
empirical threshold tables derived from a sweep are compared against the
closed forms by ``certify``, which is also the backbone of the command
line tool installed as ``mc-lab``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

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
from .formulas import max_edges_capping, min_edges_forcing, table_rows
from .graph_core import (
    ENUMERATION_MAX_VERTICES,
    Graph6Error,
    edge_list,
    emit_graph6,
    from_edge_mask,
    is_connected,
    parse_graph6,
)
from .solver import ExactSolveRefusedError, _bounds, baseline_fast_path, mc_exact

HARD_CAP_ENV = "MC_LAB_HARD_CAP"
DEFAULT_HARD_CAP = 7


def _hard_cap() -> int:
    raw = os.environ.get(HARD_CAP_ENV)
    if raw is None:
        return DEFAULT_HARD_CAP
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{HARD_CAP_ENV} must be an integer, got {raw!r}") from None


@dataclass(frozen=True)
class SweepResult:
    """Aggregated exact-solver results over all connected graphs on n vertices.

    ``witness_g6`` maps (edge count, mc value) to the lexicographically
    smallest graph6 string attaining it, which keeps every downstream
    report independent of worker count and chunking.
    """

    n: int
    graph_count: int
    elapsed: float
    jobs: int
    min_mc_by_m: dict[int, int]
    max_mc_by_m: dict[int, int]
    witness_g6: dict[tuple[int, int], str]
    mc_by_mask: dict[int, int] | None = None


def _sweep_chunk(args: tuple[int, int, int, bool]):
    """Solve every connected graph whose edge mask lies in [start, stop)."""
    n, start, stop, keep = args
    count = 0
    min_by_m: dict[int, int] = {}
    max_by_m: dict[int, int] = {}
    wit: dict[tuple[int, int], str] = {}
    values: dict[int, int] | None = {} if keep else None
    for mask in range(start, stop):
        if mask.bit_count() < n - 1:
            continue
        g = from_edge_mask(n, mask)
        if not is_connected(g):
            continue
        val = mc_exact(g).value
        count += 1
        m = g.m
        if val < min_by_m.get(m, 1 << 30):
            min_by_m[m] = val
        if val > max_by_m.get(m, -1):
            max_by_m[m] = val
        g6 = emit_graph6(g)
        key = (m, val)
        if key not in wit or g6 < wit[key]:
            wit[key] = g6
        if values is not None:
            values[mask] = val
    return count, min_by_m, max_by_m, wit, values


_SWEEP_CACHE: dict[int, SweepResult] = {}


def sweep(n: int, jobs: int = 1, keep_values: bool = False) -> SweepResult:
    """Solve all connected labeled graphs on n vertices and aggregate.

    Results are cached per n for the process lifetime.  ``keep_values``
    additionally records mc per edge mask (the mask indexes the
    lexicographic vertex-pair list), which sweeps that skipped it do not
    store, so asking for it may recompute.  Capped by MC_LAB_HARD_CAP
    (default 7): a full n=7 sweep solves 1.8 million graphs.
    """
    cap = _hard_cap()
    if not 2 <= n <= min(cap, ENUMERATION_MAX_VERTICES):
        raise ValueError(
            f"sweep supports 2 <= n <= {min(cap, ENUMERATION_MAX_VERTICES)} "
            f"(cap from {HARD_CAP_ENV}={cap}), got {n}"
        )
    cached = _SWEEP_CACHE.get(n)
    if cached is not None and (not keep_values or cached.mc_by_mask is not None):
        return cached
    t0 = time.perf_counter()
    jobs = max(1, jobs)
    total = 1 << len(edge_list(n))
    if jobs == 1:
        parts = [_sweep_chunk((n, 0, total, keep_values))]
    else:
        step = max(1, -(-total // (jobs * 4)))
        argsets = [(n, s, min(s + step, total), keep_values) for s in range(0, total, step)]
        with ProcessPoolExecutor(max_workers=jobs) as ex:
            parts = list(ex.map(_sweep_chunk, argsets))
    count = 0
    min_by_m: dict[int, int] = {}
    max_by_m: dict[int, int] = {}
    wit: dict[tuple[int, int], str] = {}
    values: dict[int, int] | None = {} if keep_values else None
    for c, mn, mx, w, vals in parts:
        count += c
        for m, v in mn.items():
            if v < min_by_m.get(m, 1 << 30):
                min_by_m[m] = v
        for m, v in mx.items():
            if v > max_by_m.get(m, -1):
                max_by_m[m] = v
        for key, g6 in w.items():
            if key not in wit or g6 < wit[key]:
                wit[key] = g6
        if values is not None and vals is not None:
            values.update(vals)
    result = SweepResult(
        n=n,
        graph_count=count,
        elapsed=time.perf_counter() - t0,
        jobs=jobs,
        min_mc_by_m=dict(sorted(min_by_m.items())),
        max_mc_by_m=dict(sorted(max_by_m.items())),
        witness_g6=dict(sorted(wit.items())),
        mc_by_mask=values,
    )
    _SWEEP_CACHE[n] = result
    return result


def empirical_force_table(n: int, jobs: int = 1) -> dict[int, int]:
    """Observed minimum edge count guaranteeing mc >= k, for each k.

    Scans the sweep's per-edge-count mc minimum downward: the threshold
    sits one above the largest edge count still admitting a graph with
    mc <= k - 1, and n - 1 when no graph does.
    """
    sw = sweep(n, jobs=jobs)
    top = comb(n, 2)
    out: dict[int, int] = {}
    for k in range(1, top + 1):
        val = n - 1
        for m in range(top, n - 2, -1):
            if sw.min_mc_by_m[m] <= k - 1:
                val = m + 1
                break
        out[k] = val
    return out


def empirical_cap_table(n: int, jobs: int = 1) -> dict[int, int]:
    """Observed maximum edge count keeping mc <= k for every graph, per k.

    Scans the per-edge-count mc maximum upward: the cap sits one below
    the smallest edge count admitting a graph with mc >= k + 1, and
    C(n,2) when none does.
    """
    sw = sweep(n, jobs=jobs)
    top = comb(n, 2)
    out: dict[int, int] = {}
    for k in range(1, top + 1):
        val = top
        for m in range(n - 1, top + 1):
            if sw.max_mc_by_m[m] >= k + 1:
                val = m - 1
                break
        out[k] = val
    return out


@dataclass(frozen=True)
class CertificationReport:
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
        def skey(d):
            return {str(k): v for k, v in d.items()}

        return json.dumps(
            {
                "n": self.n,
                "verdict": self.verdict,
                "graph_count": self.graph_count,
                "elapsed_seconds": round(self.elapsed, 3),
                "jobs": self.jobs,
                "min_mc_by_edge_count": skey(self.min_mc_by_m),
                "max_mc_by_edge_count": skey(self.max_mc_by_m),
                "force": {
                    "expected": skey(self.force_expected),
                    "observed": skey(self.force_observed),
                    "witness_g6": skey(self.force_witness_g6),
                },
                "cap": {
                    "expected": skey(self.cap_expected),
                    "observed": skey(self.cap_observed),
                    "witness_g6": skey(self.cap_witness_g6),
                },
                "mismatches": list(self.mismatches),
            }
        )

    def table_csv(self) -> str:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(
            ["n", "k", "force_expected", "force_observed", "cap_expected", "cap_observed"]
        )
        for k in sorted(self.force_expected):
            w.writerow(
                [
                    self.n,
                    k,
                    self.force_expected[k],
                    self.force_observed[k],
                    self.cap_expected[k],
                    self.cap_observed[k],
                ]
            )
        return buf.getvalue()


def certify(n: int, jobs: int = 1) -> CertificationReport:
    """Certify the closed-form threshold tables against a full sweep."""
    t0 = time.perf_counter()
    sw = sweep(n, jobs=jobs)
    force_obs = empirical_force_table(n, jobs=jobs)
    cap_obs = empirical_cap_table(n, jobs=jobs)
    top = comb(n, 2)
    force_exp = {k: min_edges_forcing(n, k).value for k in range(1, top + 1)}
    cap_exp = {k: max_edges_capping(n, k).value for k in range(1, top + 1)}
    mismatches: list[str] = []
    for k in range(1, top + 1):
        if force_obs[k] != force_exp[k]:
            mismatches.append(
                f"force n={n} k={k}: expected {force_exp[k]}, observed {force_obs[k]}"
            )
        if cap_obs[k] != cap_exp[k]:
            mismatches.append(
                f"cap n={n} k={k}: expected {cap_exp[k]}, observed {cap_obs[k]}"
            )
    force_wit: dict[int, str] = {}
    cap_wit: dict[int, str] = {}
    for k in range(1, top + 1):
        fm = force_exp[k] - 1
        if fm >= n - 1:
            low = sw.min_mc_by_m[fm]
            if low <= k - 1:
                force_wit[k] = sw.witness_g6[(fm, low)]
        gm = cap_exp[k] + 1
        if gm <= top:
            high = sw.max_mc_by_m[gm]
            if high >= k + 1:
                cap_wit[k] = sw.witness_g6[(gm, high)]
    return CertificationReport(
        n=n,
        graph_count=sw.graph_count,
        elapsed=time.perf_counter() - t0,
        jobs=jobs,
        min_mc_by_m=dict(sw.min_mc_by_m),
        max_mc_by_m=dict(sw.max_mc_by_m),
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
        help="confirm sweeps of n >= 7 (about 1.8 million graphs)",
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
    return handlers[args.command](args)


def _cmd_compute(args) -> int:
    if args.graph6 is not None:
        lines = [args.graph6]
    else:
        lines = [ln.strip() for ln in sys.stdin if ln.strip()]
    status = 0
    for text in lines:
        try:
            g = parse_graph6(text)
        except Graph6Error as exc:
            print(json.dumps({"graph6": text, "error": str(exc)}))
            status = 1
            continue
        try:
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
        except ExactSolveRefusedError as exc:
            print(
                json.dumps(
                    {
                        "graph6": text,
                        "error": str(exc),
                        "lower": exc.lower,
                        "upper": exc.upper,
                    }
                )
            )
            status = 1
        except ValueError as exc:
            print(json.dumps({"graph6": text, "error": str(exc)}))
            status = 1
    return status


def _cmd_verify(args) -> int:
    if args.coloring is not None:
        try:
            with open(args.coloring, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            print(json.dumps({"error": str(exc)}))
            return 1
    else:
        text = sys.stdin.read()
    try:
        col = coloring_from_json(text)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    bad = verify_mc(col)
    if bad is None:
        print(json.dumps({"ok": True, "colors": col.color_count}))
        return 0
    print(json.dumps({"ok": False, "failing_pair": list(bad)}))
    return 2


def _cmd_construct(args) -> int:
    fam = args.family
    try:
        if fam == "anchored":
            if args.n is None or args.t is None:
                raise ValueError("anchored needs --n and --t")
            pg = build_anchored_partition(args.n, args.t)
            g, col = pg.graph, anchored_partition_coloring(pg)
        elif fam == "split":
            if args.n is None or args.t is None:
                raise ValueError("split needs --n and --t (and optionally --extra)")
            g, col = build_augmented_split_graph(args.n, args.t, args.extra)
        elif fam == "diam3":
            if args.n is None:
                raise ValueError("diam3 needs --n")
            g = build_diameter_three_witness(args.n)
            col = spanning_tree_coloring(g)
        elif fam == "deg2":
            if args.n is None:
                raise ValueError("deg2 needs --n")
            g = build_degree_two_witness(args.n)
            col = spanning_tree_coloring(g)
        else:
            if not args.sizes:
                raise ValueError("multipartite needs --sizes, e.g. --sizes 2,2,3")
            sizes = [int(s) for s in args.sizes.split(",")]
            pg = complete_multipartite(sizes)
            g, col = pg.graph, multipartite_star_coloring(pg)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    print(emit_graph6(g))
    print(coloring_to_json(col))
    return 0


def _cmd_table(args) -> int:
    try:
        rows = table_rows(args.function, args.n)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(["n", "k", "value", "regime"])
    for r in rows:
        w.writerow([r.n, r.k, r.value, r.regime])
    text = buf.getvalue()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def _cmd_certify(args) -> int:
    n = args.n
    cap = _hard_cap()
    if n > cap:
        print(
            json.dumps(
                {"error": f"n={n} beyond hard cap {cap}; set {HARD_CAP_ENV} to override"}
            )
        )
        return 1
    if n >= 7 and not args.allow_slow:
        print(
            json.dumps(
                {"error": f"n={n} solves millions of graphs; pass --allow-slow to confirm"}
            )
        )
        return 1
    try:
        jobs = args.jobs if args.jobs > 0 else (os.cpu_count() or 1)
        report = certify(n, jobs=jobs)
    except ValueError as exc:
        print(json.dumps({"error": str(exc)}))
        return 1
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
    if args.csv:
        with open(args.csv, "w", encoding="utf-8") as fh:
            fh.write(report.table_csv())
    print(report.to_json())
    return 0 if report.verdict == "certified" else 2


def main() -> None:
    sys.exit(cli_main())
