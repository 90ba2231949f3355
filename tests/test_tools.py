"""The repository tools that compare and summarise benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(failed=0, correct=True):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {spec["name"]: {"value": 1.0} for spec in bench["end_to_end"]}
    return {"correct": correct, "attempted": 10, "failed": failed, "metrics": metrics, "passes": 3}


@pytest.mark.parametrize("bad", [{"failed": 1}, {"correct": False}])
def test_ab_pairs_gives_no_verdict_when_a_run_went_wrong(monkeypatch, capsys, bad):
    ab_pairs = _load("ab_pairs")
    calls = []

    def fake_run_once(root, workload, seed, seconds):
        calls.append(root)
        # The third run is pair 1's change side, which runs first in odd pairs.
        return _run(**bad) if len(calls) == 3 else _run()

    monkeypatch.setattr(ab_pairs, "run_once", fake_run_once)
    argv = [str(ROOT), str(ROOT / "tests"), "--workload", "certify-n6", "--pairs", "2"]
    assert ab_pairs.main(argv) == 1
    out, err = capsys.readouterr()
    assert '"gain"' not in out
    assert "pair 1 change" in err and "pair 0" not in err and "parent" not in err


def test_ab_pairs_gives_verdicts_when_every_run_is_correct(monkeypatch, capsys):
    ab_pairs = _load("ab_pairs")
    monkeypatch.setattr(ab_pairs, "run_once", lambda *args: _run())
    argv = [str(ROOT), str(ROOT), "--workload", "certify-n6", "--pairs", "2"]
    assert ab_pairs.main(argv) == 0
    out, err = capsys.readouterr()
    assert out.count('"gain"') == len(json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"])
    assert err == ""
