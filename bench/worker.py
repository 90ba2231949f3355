"""One pass of a benchmark workload in a fresh process.

Started by bench/run.py with the spawn time (time.monotonic, which is
system-wide on Linux) as its only argument and the job as JSON on stdin.
Imports mc_lab from the checkout's ``src``, runs every item of the job
once in a closed loop, times only the calls into mc_lab (per item, plus
any time of the pass outside its items), checks each
output against the benchmark's own reference outside the timed region,
and prints one JSON object.  A setup-only job stops where the first timed
item would start.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

SPAWN_T = float(sys.argv[1])
HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from mc_lab import coloring, constructions, graph_core, harness, solver  # noqa: E402

from corpus import (  # noqa: E402
    CONNECTED_LABELED,
    capping_table,
    decode_graph6,
    forcing_table,
    mono_connected,
)

if Path(solver.__file__).resolve().parent != SRC / "mc_lab":
    sys.exit(f"imported mc_lab from {solver.__file__}, not from {SRC}")


def certify_pass(job: dict) -> tuple[list[float], float, list[str]]:
    """certify(n) once; the items are the sweep's mc_exact calls.

    Untraced, a single timer around the ``mc_exact`` the sweep calls
    gives each graph's solve time, so run.py can take per-graph best
    times over passes; the rest of the call is returned as outside time.
    """
    n = job["n"]
    solves: list[float] = []
    if not job["trace"]:
        solve, clock = harness.mc_exact, time.perf_counter

        def timed_solve(g, **kwargs):
            t0 = clock()
            try:
                return solve(g, **kwargs)
            finally:
                solves.append(clock() - t0)

        harness.mc_exact = timed_solve
    t0 = time.perf_counter()
    report = harness.certify(n, jobs=1)
    took = time.perf_counter() - t0
    problems = []
    if report.verdict != "certified":
        problems.append(f"verdict {report.verdict}: {report.mismatches[:3]}")
    if report.graph_count != CONNECTED_LABELED[n]:
        problems.append(f"graph_count {report.graph_count} != {CONNECTED_LABELED[n]}")
    if report.force_observed != forcing_table(n):
        problems.append("observed forcing table differs from f(n, k)")
    if report.cap_observed != capping_table(n):
        problems.append("observed capping table differs from g(n, k)")
    if solves and len(solves) != CONNECTED_LABELED[n]:
        problems.append(f"{len(solves)} mc_exact calls for {CONNECTED_LABELED[n]} graphs")
    problems = ["; ".join(problems)] if problems else []
    if not solves:
        return [took], 0.0, problems
    return solves, took - sum(solves), problems


def dense_check(line: str, expected: int, text: str) -> str | None:
    out = json.loads(text)
    col = out["coloring"]
    n, edges = decode_graph6(line)
    if out["value"] != expected:
        return f"{line}: mc {out['value']} != {expected}"
    if col["graph6"] != line or len(col["edges"]) != len(edges) or {tuple(e) for e in col["edges"]} != edges:
        return f"{line}: coloring is not on the input graph"
    if len(set(col["colors"])) != expected or not mono_connected(n, col["edges"], col["colors"]):
        return f"{line}: coloring does not attain {expected} colors"
    return None


def dense_pass(job: dict) -> tuple[list[float], float, list[str]]:
    lat, problems = [], []
    for line, expected in job["items"]:
        t0 = time.perf_counter()
        try:
            text = solver.mc_exact(graph_core.parse_graph6(line)).to_json()
        except Exception as exc:  # a failed item is counted, not fatal
            lat.append(time.perf_counter() - t0)
            problems.append(f"{line}: {exc!r}")
            continue
        lat.append(time.perf_counter() - t0)
        bad = dense_check(line, expected, text)
        if bad:
            problems.append(bad)
    return lat, 0.0, problems


REJECT_PROBES = 20


def build(item: dict):
    fam, n = item["family"], item["n"]
    if fam == "anchored":
        pg = constructions.build_anchored_partition(n, item["t"])
        return constructions.anchored_partition_coloring(pg)
    if fam == "split":
        return constructions.build_augmented_split_graph(n, item["t"], item["extra"])[1]
    pg = constructions.complete_multipartite(item["sizes"])
    return constructions.multipartite_star_coloring(pg)


def family_check(item: dict, text: str, back, bad) -> str | None:
    out = json.loads(text)
    want = item["colors"]
    if out["graph6"] != item["graph6"]:
        return f"{item}: built graph differs from the family's definition"
    if bad is not None or not mono_connected(item["n"], out["edges"], out["colors"]):
        return f"{item}: coloring fails (verify_mc says {bad})"
    if back.color_count != want or len(set(out["colors"])) != want:
        return f"{item}: {back.color_count} colors != {want}"
    return None


def family_pass(job: dict) -> tuple[list[float], float, list[str]]:
    lat, problems = [], []
    for item in job["items"]:
        t0 = time.perf_counter()
        try:
            text = coloring.coloring_to_json(build(item))
            back = coloring.coloring_from_json(text)
            bad = coloring.verify_mc(back)
        except Exception as exc:  # a failed item is counted, not fatal
            lat.append(time.perf_counter() - t0)
            problems.append(f"{item}: {exc!r}")
            continue
        lat.append(time.perf_counter() - t0)
        wrong = family_check(item, text, back, bad)
        if wrong:
            problems.append(wrong)
    if not job["trace"]:
        problems += rejects_rainbow(job["items"][:REJECT_PROBES])
    return lat, 0.0, problems


def rejects_rainbow(items: list[dict]) -> list[str]:
    """Untimed: verify_mc must name the first nonadjacent pair of a rainbow coloring.

    Every workload item is a valid coloring, so this is what shows a
    verify_mc that accepts everything.
    """
    out = []
    for item in items:
        n, edges = decode_graph6(item["graph6"])
        gaps = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
        if not gaps:
            continue
        text = json.dumps({"graph6": item["graph6"], "edges": sorted(edges), "colors": list(range(len(edges)))})
        got = coloring.verify_mc(coloring.coloring_from_json(text))
        if got is None or tuple(got) != gaps[0]:
            out.append(f"{item['graph6']}: verify_mc gave {got} for a rainbow coloring, expected {gaps[0]}")
    return out


PASSES = {"certify": certify_pass, "dense": dense_pass, "family": family_pass}


def main() -> None:
    job = json.loads(sys.stdin.read())
    tracer = None
    if job["trace"]:
        from tracing import Tracer  # only traced passes pay for its import

        tracer = Tracer()
        tracer.install()
    setup_s = time.monotonic() - SPAWN_T
    lat, outside, problems = ([], 0.0, []) if job["setup_only"] else PASSES[job["kind"]](job)
    print(
        json.dumps(
            {
                "setup_s": setup_s,
                "latencies": lat,
                "outside_s": outside,
                "problems": problems,
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "trace": tracer.metrics() if tracer else None,
            }
        )
    )


if __name__ == "__main__":
    main()
