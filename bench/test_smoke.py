"""Smoke test for the benchmark: every workload at a tiny size, no timing bound.

Runs bench/run.py with ``--smoke`` (certify(4), 20-item corpora) in both
trace modes and checks the result line against BENCHMARK.json.  Run from
the repository root:

    python3 -m pytest -q bench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run(root: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=180,
    )


def test_every_workload_reports_every_metric():
    for workload in (w["name"] for w in SPEC["workloads"]):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            proc = run(ROOT, workload, trace)
            assert proc.returncode == 0, proc.stderr
            *_, info_line, result_line = proc.stdout.splitlines()
            info = json.loads(info_line)["info"]
            assert {"seed", "nproc", "python", "cpu", "why"} <= info.keys()
            result = json.loads(result_line)
            assert set(result) == {"correct", "attempted", "failed", "metrics"}
            assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, info
            for metric in SPEC[section]:
                got = result["metrics"][metric["name"]]
                assert got["unit"] == metric["unit"], (workload, metric)
                assert isinstance(got["value"], (int, float)), (workload, metric)


def test_fails_without_the_program():
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copy(ROOT / "BENCHMARK.json", tmp)
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, Path(tmp) / path, ignore=shutil.ignore_patterns("__pycache__"))
        proc = run(Path(tmp), SPEC["workloads"][0]["name"], 0)
        assert proc.returncode != 0
        assert '"correct"' not in proc.stdout


if __name__ == "__main__":
    test_every_workload_reports_every_metric()
    test_fails_without_the_program()
    print("ok")
