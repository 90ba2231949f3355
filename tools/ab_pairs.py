"""Compare two checkouts on one benchmark workload, run in alternating pairs.

Each pair runs ``bench/run.py`` once in each checkout, the parent first in
even pairs and the change first in odd ones, with the same workload,
seed and run length.  Each checkout runs its own ``bench/run.py`` and
sources; nothing of ``bench/`` is imported or changed here.  Run from
anywhere:

    python tools/ab_pairs.py PARENT_DIR CHANGE_DIR --workload certify-n6 --pairs 10

Every run's result is printed as one JSON line as it finishes.  Then, per
end-to-end metric of the parent's ``BENCHMARK.json``, one line gives each
side's median and quartiles, the change's relative move of the median,
the pairs the change won (ties count for neither), and two verdicts:

- ``gain``: the change won at least nine tenths of the pairs and the
  medians differ by more than the parent's interquartile range;
- ``within``: the change's median is no worse than the parent's by more
  than the metric's bound.

No verdict is printed, and the exit code is 1, when any run on either
side failed an item or reported ``correct: false`` (as a run without
metrics does); the message names each such run by its pair and side.

The ``peak_rss_mb`` line also lists each run's pass count, per side, from
the run's info line.  A run's resident-set high-water mark grows with the
passes that fit in its run length, so a move there reads against them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(root: Path, workload: str, seed: int, seconds: int) -> dict:
    """The last stdout line of one ``bench/run.py`` run in ``root``, as JSON.

    ``passes`` is added from the info line before it.
    """
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=root, capture_output=True, text=True, check=True,
    )
    *_, info, result = proc.stdout.splitlines()
    return {**json.loads(result), "passes": json.loads(info)["info"]["samples"].get("passes")}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def summary(spec: dict, base: list[float], new: list[float]) -> dict:
    """One metric's medians, quartiles, wins and verdicts over paired runs."""
    sign = 1 if spec["better"] == "lower" else -1
    b1, b2, b3 = quartiles(base)
    n1, n2, n3 = quartiles(new)
    wins = sum(sign * (b - c) > 0 for b, c in zip(base, new))
    return {
        "metric": spec["name"],
        "parent": [b1, b2, b3],
        "change": [n1, n2, n3],
        "move": (n2 - b2) / b2 if b2 else 0.0,
        "wins": f"{wins}/{len(base)}",
        "gain": wins >= 0.9 * len(base) and sign * (b2 - n2) > b3 - b1,
        "within": sign * (n2 - b2) <= spec["bound"] * abs(b2),
    }


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", type=Path, help="checkout of the parent commit")
    p.add_argument("change", type=Path, help="checkout of the change")
    p.add_argument("--workload", required=True)
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    for i in range(args.pairs):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            result = run_once(getattr(args, side), args.workload, args.seed, bench["run_seconds"])
            runs[side].append(result)
            print(json.dumps({"pair": i, "side": side, **result}), flush=True)
    for side, results in runs.items():
        failed = sum(r["failed"] for r in results)
        print(json.dumps({"side": side, "failed": failed, "attempted": sum(r["attempted"] for r in results)}))
    bad = [
        f"pair {i} {side}"
        for side, results in runs.items()
        for i, r in enumerate(results)
        if r["failed"] or not r["correct"]
    ]
    if bad:
        print(f"no verdicts: failed items or an incorrect run in {', '.join(bad)}; "
              "see their lines above", file=sys.stderr)
        return 1
    for spec in bench["end_to_end"]:
        base = [r["metrics"][spec["name"]]["value"] for r in runs["parent"]]
        new = [r["metrics"][spec["name"]]["value"] for r in runs["change"]]
        line = summary(spec, base, new)
        if spec["name"] == "peak_rss_mb":
            line["passes"] = {side: [r["passes"] for r in results] for side, results in runs.items()}
        print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
