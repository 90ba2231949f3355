"""mc-lab benchmark: one workload, one seed, one measured run.

Run from the repository root:

    python3 bench/run.py --workload certify-n6 --seed 1 --seconds 45 --trace 0

Every pass runs in a fresh process (bench/worker.py) at jobs=1, one item
at a time, on inputs generated here from ``--seed`` (bench/corpus.py).
Passes repeat until the next one would end after ``--seconds``; at least
one always runs.  Each item's output is checked against a reference that
does not come from mc_lab.

Timings are each item's best over the passes.  On a shared host, other
tenants only ever slow work down, and they flip its speed between two
levels about 1.6x apart every few seconds, so a median over passes
measures the neighbours.  wall_s is the sum of the items' best times
(plus the best time a pass spends outside its items); the latency
percentiles are over the items' best times.  For certify-n6 the items
are the 26,704 mc_exact calls of the sweep, timed by one wrapper around
``harness.mc_exact``; everything else in certify(6) is outside time.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it records the seed, the host and why the workload exists.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics of the
fastest traced pass: spans
around every public function of each mc_lab module (bench/tracing.py),
their self times per module, and the solver's outcome counts.  For
certify-n6 it checks the counts 26,704 / 22,816 / 456 / 3,432.

Left out, and why:

* the tier-1 test suite: about 60 s, mostly the same sweeps as certify-n6;
* ``jobs > 1``: on two shared cores it measures the scheduler;
* a hard n = 7/8 search corpus: it waits on search over vertex sets.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from corpus import CONNECTED_LABELED, dense_corpus, family_corpus  # noqa: E402
from tracing import nearest_rank  # noqa: E402

WORKLOADS = {
    "certify-n6": {
        "kind": "certify",
        "size": 6,
        "smoke": 4,
        "why": "harness.certify(6): the paper's headline computation. Search does about 96% "
        "of the work, on 3,432 of the 26,704 graphs; enumeration and the fast path do the "
        "rest. The seed changes nothing: the input is n = 6.",
    },
    "compute-dense": {
        "kind": "dense",
        "size": 2000,
        "smoke": 20,
        "why": "The mc-lab compute path (parse_graph6, mc_exact, to_json) on K_n minus a "
        "matching and anchored partitions with t >= n/2, n = 8..16. The bounds close every "
        "graph, so bounds changes show here and search changes should not. Augmented split "
        "graphs and multipartite graphs with parts of size 3 or more are left out: at n >= 9 "
        "the lower bounds often miss them and search takes seconds to past 5 s; certify-n6 "
        "measures search.",
    },
    "families-verify": {
        "kind": "family",
        "size": 1000,
        "smoke": 20,
        "why": "The mc-lab construct | mc-lab verify path on anchored partitions, augmented "
        "split graphs and complete multipartite graphs, n = 8..40. The solver does no work; "
        "the coloring read side (coloring_from_json, verify_mc) does most of it, so a "
        "slower parser shows here.",
    },
}

END_TO_END = {
    "wall_s": "s",
    "items_per_s": "1/s",
    "latency_ms_p50": "ms",
    "latency_ms_p99": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}
# Set-up only processes started before each pass, so set-up is sampled
# across the whole run rather than in one stretch of host speed.
SETUP_PROBES = 2
HARD_LIMIT_S = 170.0
# certify(6) counts: enumerated, closed by the fast path, by the bounds, searched.
N6_COUNTS = {
    "graph_core.enumerate_graphs": 26704,
    "solver.fast_path_closed": 22816,
    "solver.bounds_closed": 456,
    "solver.search_graphs": 3432,
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if "_ms_" in name:
        return "ms"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def host() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(), "cpu": cpu}


def make_job(name: str, seed: int, smoke: bool) -> dict:
    spec = WORKLOADS[name]
    size = spec["smoke"] if smoke else spec["size"]
    if spec["kind"] == "certify":
        return {"kind": "certify", "n": size, "count": 1}
    corpus = dense_corpus if spec["kind"] == "dense" else family_corpus
    return {"kind": spec["kind"], "items": corpus(seed, size), "count": size}


class Runner:
    """Starts worker processes for one run and keeps its clock."""

    def __init__(self, job: dict, seconds: int) -> None:
        self.job = job
        self.seconds = seconds
        self.start = time.monotonic()

    def elapsed(self) -> float:
        return time.monotonic() - self.start

    def spawn(self, trace: bool = False, setup_only: bool = False) -> dict:
        """One worker's report; ``{"died": why}`` when it did not finish."""
        payload = json.dumps({**self.job, "trace": trace, "setup_only": setup_only})
        timeout = max(1.0, HARD_LIMIT_S - self.elapsed())
        spawn_t = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "worker.py"), repr(spawn_t)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            cwd=ROOT,
        )
        try:
            out, err = proc.communicate(payload, timeout=timeout)
        except subprocess.TimeoutExpired:
            return {"died": f"killed after {timeout:.0f} s"}
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        if proc.returncode != 0:
            return {"died": f"exit {proc.returncode}: {err.strip()[-500:]}"}
        return json.loads(out.splitlines()[-1])

    def repeat(self, step) -> list[list[dict]]:
        """Call ``step`` (which returns worker reports) until the next call would
        end after the deadline, or a worker dies."""
        batches, durations = [], []
        while not batches or self.elapsed() + statistics.median(durations) <= self.seconds:
            t0 = time.monotonic()
            batches.append(step())
            durations.append(time.monotonic() - t0)
            if any("died" in r for r in batches[-1]):
                break
        return batches


def tally(job: dict, reports: list[dict]) -> tuple[int, int, list[str]]:
    attempted = failed = 0
    problems: list[str] = []
    for rep in reports:
        attempted += job["count"]
        if "died" in rep:
            failed += job["count"]
            problems.append(rep["died"])
        else:
            failed += len(rep["problems"])
            problems += rep["problems"]
    return attempted, failed, problems


def pass_wall(report: dict) -> float:
    return sum(report["latencies"]) + report["outside_s"]


def end_to_end(job: dict, runner: Runner) -> tuple[dict, list[dict], dict]:
    batches = runner.repeat(
        lambda: [runner.spawn(setup_only=True) for _ in range(SETUP_PROBES)] + [runner.spawn()]
    )
    probes = [r for batch in batches for r in batch[:-1]]
    passes = [batch[-1] for batch in batches]
    dead = [p["died"] for p in probes if "died" in p]
    timed = [p for p in passes if "died" not in p]
    if dead or not timed:
        return {}, passes, {"setup_failures": dead}
    # Each item's best time over the passes: on a shared host, contention
    # only ever slows work down, and flips it between speeds about 2x apart
    # every few seconds, so medians would measure the neighbours.
    best = [min(times) for times in zip(*(p["latencies"] for p in timed))]
    wall = sum(best) + min(p["outside_s"] for p in timed)
    per_pass = CONNECTED_LABELED[job["n"]] if job["kind"] == "certify" else job["count"]
    values = {
        "wall_s": wall,
        "items_per_s": per_pass / wall,
        "latency_ms_p50": 1e3 * nearest_rank(best, 50),
        "latency_ms_p99": 1e3 * nearest_rank(best, 99),
        "setup_s": statistics.median(p["setup_s"] for p in probes + timed),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in timed),
    }
    samples = {
        "passes": len(timed),
        "pass_walls_s": [pass_wall(p) for p in timed],
        "items": len(best),
        "beyond_p99": sum(1 for x in best if 1e3 * x > values["latency_ms_p99"]),
        "setup_samples": len(probes) + len(timed),
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
    return metrics, passes, samples


def trace_problems(job: dict, layers: dict) -> list[str]:
    """Checks that the traced spans account for the work they claim to."""
    out = []
    solved = layers["solver.fast_path_closed"] + layers["solver.bounds_closed"] + layers["solver.search_graphs"]
    reached = layers["solver.bounds_closed"] + layers["solver.search_graphs"]
    if layers["solver.bounds_reached"] != reached:
        out.append(f"bounds reached {layers['solver.bounds_reached']} != closed + searched {reached}")
    if job["kind"] == "certify":
        total = CONNECTED_LABELED[job["n"]]
        if layers["graph_core.enumerate_graphs"] != total or solved != total:
            out.append(f"enumerated {layers['graph_core.enumerate_graphs']}, solved {solved}, expected {total}")
        if job["n"] == 6:
            out += [f"{k} = {layers[k]}, expected {v}" for k, v in N6_COUNTS.items() if layers[k] != v]
    elif job["kind"] == "dense" and solved != job["count"]:
        out.append(f"solver outcomes {solved} != {job['count']} items")
    if layers["trace.unattributed_s"] > 0.05 * layers["trace.wall_s"]:
        out.append(f"{layers['trace.unattributed_s']:.3f} s of {layers['trace.wall_s']:.3f} s traced is in no layer")
    return out


def per_layer(job: dict, runner: Runner) -> tuple[dict, list[dict], dict]:
    pairs = runner.repeat(lambda: [runner.spawn(), runner.spawn(trace=True)])
    reports = [r for pair in pairs for r in pair]
    good = [pair for pair in pairs if not any("died" in r for r in pair)]
    if not good:
        return {}, reports, {}
    for _, t in good:
        tr = t["trace"]
        tr["trace.wall_s"] = pass_wall(t)
        tr["trace.unattributed_s"] = tr["trace.wall_s"] - sum(v for k, v in tr.items() if k.endswith(".self_s"))
    # The least contended traced pass, for the reason timings are best-of.
    layers = min((t for _, t in good), key=pass_wall)["trace"]
    untraced = min(pass_wall(u) for u, _ in good)
    layers["trace.overhead_ratio"] = layers["trace.wall_s"] / untraced
    for _, t in good[1:]:
        if any(t["trace"][k] != good[0][1]["trace"][k] for k in N6_COUNTS):
            t["problems"].append("outcome counts differ between traced passes")
    good[0][1]["problems"].extend(trace_problems(job, layers))
    metrics = {name: {"value": v, "unit": layer_unit(name)} for name, v in sorted(layers.items())}
    return metrics, reports, {"pairs": len(pairs), "untraced_wall_s": untraced}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true", help="tiny inputs: certify(4), 20-item corpora")
    args = p.parse_args(argv)
    # Turn a termination request into SystemExit, so a running worker is killed too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "mc_lab" / "__init__.py").is_file():
        print(f"bench: no mc_lab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    job = make_job(args.workload, args.seed, args.smoke)
    runner = Runner(job, args.seconds)
    measure = per_layer if args.trace else end_to_end
    metrics, reports, samples = measure(job, runner)
    attempted, failed, problems = tally(job, reports)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "smoke": args.smoke,
        **host(),
        "why": WORKLOADS[args.workload]["why"],
        "failed_ratio": failed / attempted,
        "samples": samples,
        "problems": problems[:5],
        "run_s": runner.elapsed(),
    }
    print(json.dumps({"info": info}))
    print(
        json.dumps(
            {"correct": bool(metrics) and failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
