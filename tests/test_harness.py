"""Sweeps, empirical tables, certification reports, and the CLI."""

import csv
import io
import json
import os
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

import mc_lab.harness as harness
from mc_lab.coloring import EdgeColoring, coloring_from_json, coloring_to_json, verify_mc
from mc_lab.formulas import max_edges_capping, min_edges_forcing
from mc_lab.graph_core import cycle_graph, emit_graph6, enumerate_connected_graphs, parse_graph6
from mc_lab.harness import (
    CertificationReport,
    certify,
    empirical_cap_table,
    empirical_force_table,
    sweep,
)
from mc_lab.solver import mc_exact

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, stdin=None, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "mc_lab", *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=env,
    )
    return proc


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_counts_and_rows(sweep4):
    assert sweep4.graph_count == 38
    assert sweep4.min_mc_by_m == {3: 1, 4: 2, 5: 4, 6: 6}
    assert sweep4.max_mc_by_m == {3: 1, 4: 2, 5: 4, 6: 6}
    assert set(sweep4.witness_g6) == {(3, 1), (4, 2), (5, 4), (6, 6)}


def test_sweep_witnesses_reproduce_their_values(sweep4):
    for (m, val), g6 in sweep4.witness_g6.items():
        g = parse_graph6(g6)
        assert g.m == m
        assert mc_exact(g).value == val


def test_sweep_keeps_values_when_asked(sweep5):
    assert sweep5.graph_count == 728
    assert sweep5.mc_by_mask is not None
    assert len(sweep5.mc_by_mask) == 728
    # K_5 is the all-ones mask
    assert sweep5.mc_by_mask[(1 << 10) - 1] == 10


def test_sweep_range_errors():
    with pytest.raises(ValueError):
        sweep(1)
    with pytest.raises(ValueError):
        sweep(8)  # beyond the default hard cap


def test_sweep_parallel_matches_serial(sweep4):
    saved = harness._SWEEP_CACHE.pop(4)
    try:
        par = sweep(4, jobs=2)
        assert par.graph_count == saved.graph_count
        assert par.min_mc_by_m == saved.min_mc_by_m
        assert par.max_mc_by_m == saved.max_mc_by_m
        assert par.witness_g6 == saved.witness_g6
    finally:
        harness._SWEEP_CACHE[4] = saved


# ---------------------------------------------------------------------------
# empirical tables and certification


def test_empirical_tables_match_formulas_small(sweep3, sweep4):
    for n in (3, 4):
        force = empirical_force_table(n)
        cap = empirical_cap_table(n)
        for k in force:
            assert force[k] == min_edges_forcing(n, k).value
            assert cap[k] == max_edges_capping(n, k).value


def test_certify_three_vertices(sweep3):
    report = certify(3)
    assert report.verdict == "certified"
    assert report.mismatches == ()
    assert report.graph_count == 4
    assert report.force_witness_g6 == {2: "BW", 3: "BW"}
    assert report.cap_witness_g6 == {1: "Bw", 2: "Bw"}


def test_certify_four_vertices(sweep4):
    report = certify(4)
    assert report.verdict == "certified"
    assert report.graph_count == 38
    # one edge below the forcing threshold for k = 5 sits a 5-edge graph
    wit = parse_graph6(report.force_witness_g6[5])
    assert wit.m == min_edges_forcing(4, 5).value - 1 == 5
    assert sorted(wit.degree(v) for v in range(4)) == [2, 2, 3, 3]
    assert mc_exact(wit).value == 4


def test_certify_witness_contract(sweep4):
    report = certify(4)
    for k, g6 in report.force_witness_g6.items():
        g = parse_graph6(g6)
        assert g.m == report.force_expected[k] - 1
        assert mc_exact(g).value <= k - 1
    for k, g6 in report.cap_witness_g6.items():
        g = parse_graph6(g6)
        assert g.m == report.cap_expected[k] + 1
        assert mc_exact(g).value >= k + 1


def test_certification_report_serialization(sweep3):
    report = certify(3)
    doc = json.loads(report.to_json())
    assert doc["verdict"] == "certified"
    assert doc["n"] == 3
    assert doc["force"]["expected"] == {"1": 2, "2": 3, "3": 3}
    rows = list(csv.reader(io.StringIO(report.table_csv())))
    assert rows[0] == ["n", "k", "force_expected", "force_observed", "cap_expected", "cap_observed"]
    assert len(rows) == 4
    assert rows[1] == ["3", "1", "2", "2", "2", "2"]


# ---------------------------------------------------------------------------
# command line


def test_cli_help():
    assert run_cli("--help").returncode == 0


def test_cli_script_is_installed(tmp_path):
    # Install a copy of this tree into a throwaway venv and run the script it
    # gets.  setuptools' own `install` command is used because it needs neither
    # pip nor the `wheel` package; the venv sees the system site-packages so
    # that setuptools is importable without a download.  All build by-products
    # (build/, dist/, *.egg-info) land in tmp_path.
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    shutil.copy(ROOT / "README.md", tmp_path)
    shutil.copytree(
        ROOT / "src",
        tmp_path / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    venv_dir = tmp_path / "venv"
    venv.create(venv_dir, system_site_packages=True, with_pip=False)
    bin_dir = venv_dir / "bin"
    python = str(bin_dir / "python")
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}

    install = subprocess.run(
        [python, "-c", "import setuptools; setuptools.setup()", "install"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
    )
    assert install.returncode == 0, install.stderr

    script = shutil.which("mc-lab", path=str(bin_dir))
    assert script is not None, install.stdout
    proc = subprocess.run(
        [script, "--help"], cwd=tmp_path, capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("usage: mc-lab")

    where = subprocess.run(
        [python, "-c", "import mc_lab; print(mc_lab.__file__)"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        env=env,
    )
    assert where.returncode == 0, where.stderr
    installed = Path(where.stdout.strip()).resolve()
    assert installed.is_relative_to(venv_dir.resolve())


def test_cli_compute_exact():
    proc = run_cli("compute", "--graph6", "A_")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"] == 1
    assert doc["method"] == "branch-and-bound"
    assert doc["coloring"]["graph6"] == "A_"


def test_cli_compute_reads_stdin_lines():
    proc = run_cli("compute", stdin="A_\nBw\n")
    assert proc.returncode == 0
    values = [json.loads(line)["value"] for line in proc.stdout.splitlines()]
    assert values == [1, 3]


def test_cli_compute_bounds_method():
    proc = run_cli("compute", "--graph6", "E]~o", "--method", "bounds")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["lower"] == 9 and doc["upper"] == 9 and doc["value"] == 9
    names = [name for name, _ in doc["bound_trace"]]
    assert "upper:chromatic" in names


# Exact stdout lines: the spanning-tree entry of the trace is m - n + 2,
# the lower bound is the near-complete count.
_BOUNDS_STDOUT = {
    "EhEG": '{"graph6": "EhEG", "method": "bounds", "lower": 2, "upper": 2, "bound_trace": '
    '[["lower:spanning-tree", 2], ["lower:near-complete", 2], ["upper:chromatic", 2], '
    '["upper:connectivity", 3], ["upper:min-degree", 2], ["upper:edge-window(t=5)", 2]], "value": 2}',
    "E]~o": '{"graph6": "E]~o", "method": "bounds", "lower": 9, "upper": 9, "bound_trace": '
    '[["lower:spanning-tree", 8], ["lower:near-complete", 9], ["upper:chromatic", 9], '
    '["upper:connectivity", 11], ["upper:min-degree", 10], ["upper:edge-window(t=3)", 10]], "value": 9}',
    "B?": '{"graph6": "B?", "error": "spanning_tree requires a connected graph"}',
}


@pytest.mark.parametrize("graph6", sorted(_BOUNDS_STDOUT))
def test_cli_compute_bounds_stdout_is_exact(graph6):
    proc = run_cli("compute", "--graph6", graph6, "--method", "bounds")
    assert proc.stdout == _BOUNDS_STDOUT[graph6] + "\n"
    assert proc.returncode == (1 if graph6 == "B?" else 0)


def test_cli_compute_bounds_trace_matches_the_solver():
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    proc = run_cli("compute", "--method", "bounds", stdin="".join(emit_graph6(g) + "\n" for g in graphs))
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(graphs) == 771
    for g, line in zip(graphs, lines):
        trace = tuple(tuple(entry) for entry in json.loads(line)["bound_trace"])
        assert trace == mc_exact(g, fast_path=False).bound_trace, emit_graph6(g)


def test_cli_compute_refusal_takes_the_edge_window():
    # K_17 minus the disjoint edges 01 and 23: the t = 3 edge window gives
    # 134 - 3 + 1 = 132, below the degree cap 134 - 17 + 15 + 1 = 133.
    proc = run_cli("compute", "--graph6", "P]~~~~~~~~~~~~~~~~~~~~~{")
    assert proc.returncode == 1
    assert proc.stdout == (
        '{"graph6": "P]~~~~~~~~~~~~~~~~~~~~~{", "error": "refusing exact solve for n=17 > 16; '
        'mc is within [132, 132]", "lower": 132, "upper": 132}\n'
    )


def test_cli_compute_exact_stdout_is_exact():
    proc = run_cli("compute", stdin="E]~o\nP~~~~~~~~~~~~~~~~~~~~~~{\n")
    assert proc.stdout.splitlines() == [
        '{"value": 9, "method": "branch-and-bound", "bound_trace": [["lower:spanning-tree", 8], '
        '["lower:near-complete", 9], ["upper:chromatic", 9], ["upper:connectivity", 11], '
        '["upper:min-degree", 10], ["upper:edge-window(t=3)", 10]], "coloring": {"graph6": "E]~o", '
        '"edges": [[0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [1, 5], [2, 4], [2, 5], '
        '[3, 4], [3, 5]], "colors": [0, 0, 1, 2, 3, 4, 1, 5, 6, 6, 7, 8]}}',
        '{"graph6": "P~~~~~~~~~~~~~~~~~~~~~~{", "error": "refusing exact solve for n=17 > 16; '
        'mc is within [136, 136]", "lower": 136, "upper": 136}',
    ]


def test_cli_compute_fast_method():
    proc = run_cli("compute", "--graph6", "EhEG", "--method", "fast")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["condition"] == "max-degree"
    assert doc["value"] == 2
    proc2 = run_cli("compute", "--graph6", "C~", "--method", "fast")
    doc2 = json.loads(proc2.stdout)
    assert doc2["condition"] is None and doc2["value"] is None


def test_cli_compute_error_paths():
    bad = run_cli("compute", "--graph6", "!!!")
    assert bad.returncode == 1
    assert "error" in json.loads(bad.stdout)
    disc = run_cli("compute", "--graph6", "B?")
    assert disc.returncode == 1
    assert "connected" in json.loads(disc.stdout)["error"]


def test_cli_compute_mixed_stdin_keeps_going():
    proc = run_cli("compute", stdin="!!!\nA_\n")
    assert proc.returncode == 1
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert "error" in lines[0]
    assert lines[1]["value"] == 1


def test_cli_verify_accepts_and_rejects():
    ok = coloring_to_json(EdgeColoring(cycle_graph(4), [0, 0, 0, 1]))
    proc = run_cli("verify", stdin=ok)
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"ok": True, "colors": 2}

    rainbow = coloring_to_json(EdgeColoring(cycle_graph(4), [0, 1, 2, 3]))
    proc2 = run_cli("verify", stdin=rainbow)
    assert proc2.returncode == 2
    assert json.loads(proc2.stdout) == {"ok": False, "failing_pair": [0, 2]}

    proc3 = run_cli("verify", stdin="not json")
    assert proc3.returncode == 1


def test_cli_verify_reads_file(tmp_path):
    doc = coloring_to_json(EdgeColoring(cycle_graph(4), [0, 0, 0, 0]))
    path = tmp_path / "coloring.json"
    path.write_text(doc, encoding="utf-8")
    proc = run_cli("verify", "--coloring", str(path))
    assert proc.returncode == 0
    missing = run_cli("verify", "--coloring", str(tmp_path / "absent.json"))
    assert missing.returncode == 1


@pytest.mark.parametrize(
    "field, value",
    [
        ("edges", [[0], [0, 3], [1, 2], [2, 3]]),
        ("graph6", 5),
        ("edges", 5),
        ("colors", [True, False, False, False]),
    ],
    ids=["one-endpoint-edge", "graph6-not-a-string", "edges-not-a-list", "boolean-colors"],
)
def test_cli_verify_rejects_malformed_coloring(field, value):
    doc = json.loads(coloring_to_json(EdgeColoring(cycle_graph(4), [0, 0, 0, 1])))
    doc[field] = value
    proc = run_cli("verify", stdin=json.dumps(doc))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1
    assert set(json.loads(lines[0])) == {"error"}


def test_cli_verify_rejects_deeply_nested_json():
    proc = run_cli("verify", stdin="[" * 100_000 + "]" * 100_000)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert json.loads(proc.stdout) == {"error": "coloring JSON nests too deeply"}


def test_cli_construct_anchored_pipes_into_verify():
    proc = run_cli("construct", "anchored", "--n", "6", "--t", "3")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "E]~o"
    col = coloring_from_json(lines[1])
    assert col.color_count == 9
    assert verify_mc(col) is None
    check = run_cli("verify", stdin=lines[1])
    assert check.returncode == 0


def test_cli_construct_families():
    split = run_cli("construct", "split", "--n", "6", "--t", "3", "--extra", "1")
    assert split.returncode == 0
    col = coloring_from_json(split.stdout.splitlines()[1])
    assert col.color_count == 11

    octa = run_cli("construct", "multipartite", "--sizes", "2,2,2")
    assert octa.returncode == 0
    col2 = coloring_from_json(octa.stdout.splitlines()[1])
    assert col2.color_count == 9

    for fam, n in (("diam3", "6"), ("deg2", "5")):
        proc = run_cli("construct", fam, "--n", n)
        assert proc.returncode == 0
        g = parse_graph6(proc.stdout.splitlines()[0])
        assert g.n == int(n)


def test_cli_construct_errors():
    assert run_cli("construct", "anchored", "--n", "6").returncode == 1
    assert run_cli("construct", "split", "--n", "6", "--t", "3", "--extra", "4").returncode == 1
    assert run_cli("construct", "multipartite", "--sizes", "3").returncode == 1


def test_cli_table_output(tmp_path):
    proc = run_cli("table", "f", "--n", "5")
    assert proc.returncode == 0
    rows = list(csv.reader(io.StringIO(proc.stdout)))
    assert rows[0] == ["n", "k", "value", "regime"]
    assert [int(r[2]) for r in rows[1:]] == [4, 5, 6, 7, 8, 8, 9, 9, 10, 10]

    out = tmp_path / "t4.csv"
    proc2 = run_cli("table", "t", "--n", "4", "--out", str(out))
    assert proc2.returncode == 0
    rows2 = list(csv.reader(io.StringIO(out.read_text(encoding="utf-8"))))
    assert [int(r[2]) for r in rows2[1:]] == [3, 4, 5, 5, 6, 6]


def test_cli_table_rejects_bad_n():
    assert run_cli("table", "f", "--n", "1").returncode == 1


def test_cli_certify_small(tmp_path):
    out = tmp_path / "report.json"
    csv_out = tmp_path / "table.csv"
    proc = run_cli(
        "certify", "--n", "3", "--jobs", "1", "--out", str(out), "--csv", str(csv_out)
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["verdict"] == "certified"
    assert json.loads(out.read_text(encoding="utf-8"))["verdict"] == "certified"
    assert csv_out.read_text(encoding="utf-8").startswith("n,k,")


def test_cli_certify_guard_rails():
    slow = run_cli("certify", "--n", "7")
    assert slow.returncode == 1
    assert "allow-slow" in json.loads(slow.stdout)["error"]
    capped = run_cli(
        "certify", "--n", "7", "--allow-slow", env_extra={"MC_LAB_HARD_CAP": "6"}
    )
    assert capped.returncode == 1
    over = run_cli("certify", "--n", "9", "--allow-slow")
    assert over.returncode == 1


def test_cli_bad_usage():
    assert run_cli("frobnicate").returncode == 1
    assert run_cli().returncode == 1
    assert run_cli("table", "q", "--n", "4").returncode == 1
