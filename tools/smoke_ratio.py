"""Compare two checkouts on the traced smoke check's unattributed-time ratio.

``bench/test_smoke.py`` runs each workload's traced ``--smoke`` pass,
which fails when ``trace.unattributed_s`` exceeds 5% of ``trace.wall_s``.
That share is mostly the tracer's own cost, so it moves with program
speed, and a single run says little.  This tool runs the passes the test
runs, ``bench/run.py --workload W --seed 7 --seconds 1 --trace 1 --smoke``,
for compute-dense and families-verify, alternating the two checkouts:
the parent first in even runs and the change first in odd ones.  Each
checkout runs its own ``bench/run.py``; nothing of ``bench/`` is
imported or changed here.  Run from anywhere:

    python tools/smoke_ratio.py PARENT_DIR CHANGE_DIR --runs 20

Every run prints one JSON line with its ratio and whether it was
correct.  Then one line per workload and side gives the median ratio,
its quartiles and how many runs read above 0.05.  A run that printed no
metrics has ratio null and counts as above.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("compute-dense", "families-verify")
LIMIT = 0.05


def run_once(root: Path, workload: str) -> dict:
    """One traced smoke run in ``root``: its unattributed-time ratio and ``correct``."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", "1", "--smoke"],
        cwd=root, capture_output=True, text=True,
    )
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if proc.returncode == 0 and lines else {}
    metrics = result.get("metrics") or {}
    ratio = None
    if "trace.wall_s" in metrics:
        ratio = metrics["trace.unattributed_s"]["value"] / metrics["trace.wall_s"]["value"]
    return {"ratio": ratio, "correct": bool(result.get("correct"))}


def summary(ratios: list[float | None]) -> dict:
    """Median, quartiles and the count above LIMIT; a missing ratio counts as above."""
    got = [r for r in ratios if r is not None]
    if len(got) > 1:
        q1, q2, q3 = statistics.quantiles(got, n=4)
    else:
        q1 = q2 = q3 = got[0] if got else None
    above = sum(r is None or r > LIMIT for r in ratios)
    return {"median": q2, "quartiles": [q1, q3], "above": above, "runs": len(ratios)}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--runs", type=int, required=True, help="runs per workload and side")
    args = p.parse_args(argv)
    ratios: dict[tuple[str, str], list[float | None]] = {}
    for i in range(args.runs):
        for workload in WORKLOADS:
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                result = run_once(getattr(args, side), workload)
                ratios.setdefault((workload, side), []).append(result["ratio"])
                print(json.dumps({"run": i, "workload": workload, "side": side, **result}), flush=True)
    for workload in WORKLOADS:
        for side in ("parent", "change"):
            line = {"workload": workload, "side": side, **summary(ratios[workload, side])}
            print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
