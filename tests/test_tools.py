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


def test_smoke_ratio_alternates_the_checkouts_and_summarises_each_side(monkeypatch, capsys):
    smoke_ratio = _load("smoke_ratio")
    parent, change = ROOT, ROOT / "tests"
    calls = []
    parent_ratios = {"compute-dense": iter([0.04, 0.05, 0.06, 0.07]), "families-verify": iter([0.03] * 4)}

    def fake_run_once(root, workload):
        calls.append((root, workload))
        if root == parent:
            return {"ratio": next(parent_ratios[workload]), "correct": True}
        # The change reads 0.02, except for one run that printed no metrics.
        if len(calls) == 4:
            return {"ratio": None, "correct": False}
        return {"ratio": 0.02, "correct": True}

    monkeypatch.setattr(smoke_ratio, "run_once", fake_run_once)
    assert smoke_ratio.main([str(parent), str(change), "--runs", "4"]) == 0
    sides = [r == parent for r, _ in calls]
    assert sides[:8] == [True, False, True, False, False, True, False, True]
    assert [w for _, w in calls[:4]] == ["compute-dense"] * 2 + ["families-verify"] * 2
    lines = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
    assert len(lines) == 4 * 2 * 2 + 4
    assert lines[3] == {"run": 0, "workload": "families-verify", "side": "change", "ratio": None, "correct": False}
    summaries = {(s["workload"], s["side"]): s for s in lines[-4:]}
    parent_dense = summaries["compute-dense", "parent"]
    assert parent_dense["median"] == pytest.approx(0.055)
    assert parent_dense["above"] == 2 and parent_dense["runs"] == 4
    assert summaries["families-verify", "change"]["median"] == pytest.approx(0.02)
    assert summaries["families-verify", "change"]["above"] == 1
    assert summaries["compute-dense", "change"]["above"] == 0
