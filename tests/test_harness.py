"""Sweeps, empirical tables, certification reports, and the CLI."""

import concurrent.futures
import csv
import io
import json
import os
import random
import resource
import shutil
import subprocess
import sys
import venv
from pathlib import Path

import pytest

from mc_lab import harness
from mc_lab.coloring import EdgeColoring, coloring_from_json, coloring_to_json, verify_mc
from mc_lab.formulas import max_edges_capping, min_edges_forcing, table_rows
from mc_lab.graph_core import (
    cycle_graph,
    emit_graph6,
    enumerate_connected_graphs,
    from_edge_mask,
    from_edges,
    parse_graph6,
)
from mc_lab.harness import (
    certify,
    empirical_cap_table,
    empirical_force_table,
    sweep,
)
from mc_lab.solver import mc_exact

ROOT = Path(__file__).resolve().parent.parent


def run_cli(*args, stdin=None, preexec_fn=None):
    return subprocess.run(
        [sys.executable, "-m", "mc_lab", *args],
        input=stdin,
        capture_output=True,
        text=True,
        preexec_fn=preexec_fn,
    )


# ---------------------------------------------------------------------------
# sweeps


def test_sweep_counts_and_rows(sweep4, sweep5, mc_by_mask):
    assert sweep4.graph_count == 38
    assert sweep4.min_mc_by_m == {3: 1, 4: 2, 5: 4, 6: 6}
    assert sweep4.max_mc_by_m == {3: 1, 4: 2, 5: 4, 6: 6}
    assert set(sweep4.witness_g6) == {(3, 1), (4, 2), (5, 4), (6, 6)}
    assert sweep5.graph_count == len(mc_by_mask(5)) == 728
    # K_5 is the all-ones mask and the only graph with 10 edges
    assert mc_by_mask(5)[(1 << 10) - 1] == 10
    assert sweep5.min_mc_by_m[10] == sweep5.max_mc_by_m[10] == 10


def test_sweep_witnesses_reproduce_their_values(sweep4):
    for (m, val), g6 in sweep4.witness_g6.items():
        g = parse_graph6(g6)
        assert g.m == m
        assert mc_exact(g).value == val


def test_sweep_range_errors():
    with pytest.raises(ValueError):
        sweep(1)
    with pytest.raises(ValueError):
        sweep(8)  # beyond ENUMERATION_MAX_VERTICES


def test_sweep_parallel_matches_serial(sweep4, sweep5):
    # The serial fixtures run 4 ranges in-process; the pool runs 8 or 12.
    for serial, jobs in ((sweep4, 2), (sweep5, 2), (sweep5, 3)):
        par = sweep(serial.n, jobs=jobs)
        assert par.graph_count == serial.graph_count, jobs
        assert par.min_mc_by_m == serial.min_mc_by_m, jobs
        assert par.max_mc_by_m == serial.max_mc_by_m, jobs
        assert par.witness_g6 == serial.witness_g6, jobs


def test_sweep_witness_is_each_keys_least_graph6(sweep3, sweep4, sweep5, sweep6, mc_by_mask):
    # Brute force: encode every labeled graph and keep each key's least string.
    for sw in (sweep3, sweep4, sweep5, sweep6):
        least = {}
        for mask, value in mc_by_mask(sw.n).items():
            key = (mask.bit_count(), value)
            g6 = emit_graph6(from_edge_mask(sw.n, mask))
            if key not in least or g6 < least[key]:
                least[key] = g6
        assert sw.witness_g6 == least, sw.n


def test_sweep_encodes_witnesses_not_graphs(monkeypatch):
    calls = []
    encode = harness.emit_graph6

    def counted(g):
        calls.append(g)
        return encode(g)

    monkeypatch.setattr(harness, "emit_graph6", counted)
    sw = sweep(5)
    # at most one encode per key in each of the 4 ranges, not one per graph (728)
    assert len(calls) <= 4 * len(sw.witness_g6) == 32


def test_sweep_caps_the_pool_at_the_core_count(monkeypatch, sweep3):
    created = []

    class InlineExecutor:
        """Records max_workers and maps in-process, so no worker is started."""

        def __init__(self, max_workers):
            created.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, items):
            return map(fn, items)

    # sweep imports the pool class only when it needs one, so patch its home.
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlineExecutor)
    assert sweep(3).witness_g6 == sweep3.witness_g6
    assert created == []  # one job never starts a pool
    wide = sweep(3, jobs=10_000)
    assert created == [os.cpu_count() or 1]
    assert wide.jobs == 10_000
    assert wide.graph_count == sweep3.graph_count
    assert wide.witness_g6 == sweep3.witness_g6


# ---------------------------------------------------------------------------
# empirical tables and certification


def test_empirical_tables_match_formulas_small(sweep3, sweep4):
    for sw in (sweep3, sweep4):
        n = sw.n
        force = empirical_force_table(sw)
        cap = empirical_cap_table(sw)
        for k in force:
            assert force[k] == min_edges_forcing(n, k).value
            assert cap[k] == max_edges_capping(n, k).value


def test_certify_three_vertices():
    report = certify(3)
    assert report.verdict == "certified"
    assert report.mismatches == ()
    assert report.graph_count == 4
    assert report.force_witness_g6 == {2: "BW", 3: "BW"}
    assert report.cap_witness_g6 == {1: "Bw", 2: "Bw"}


# certify(4)'s witnesses with the closed forms as they are.
FORCE_WITNESS_4 = {2: "CF", 3: "CN", 4: "CN", 5: "C^", 6: "C^"}
CAP_WITNESS_4 = {1: "CN", 2: "C^", 3: "C^", 4: "C~", 5: "C~"}


def test_certify_four_vertices():
    report = certify(4)
    assert report.verdict == "certified"
    assert report.graph_count == 38
    assert report.force_witness_g6 == FORCE_WITNESS_4
    assert report.cap_witness_g6 == CAP_WITNESS_4
    # one edge below the forcing threshold for k = 5 sits a 5-edge graph
    wit = parse_graph6(report.force_witness_g6[5])
    assert wit.m == min_edges_forcing(4, 5).value - 1 == 5
    assert sorted(wit.degree(v) for v in range(4)) == [2, 2, 3, 3]
    assert mc_exact(wit).value == 4


def test_certify_witness_contract():
    report = certify(4)
    for k, g6 in report.force_witness_g6.items():
        g = parse_graph6(g6)
        assert g.m == report.force_expected[k] - 1
        assert mc_exact(g).value <= k - 1
    for k, g6 in report.cap_witness_g6.items():
        g = parse_graph6(g6)
        assert g.m == report.cap_expected[k] + 1
        assert mc_exact(g).value >= k + 1


def test_certify_reports_the_jobs_its_sweep_ran_with():
    assert certify(3, jobs=0).jobs == 1
    assert json.loads(certify(3, jobs=-2).to_json())["jobs"] == 1


def test_certification_report_serialization():
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
# certification mismatches


def _shift(monkeypatch, name, k, by):
    """Move the closed form ``harness.<name>`` by ``by`` at k only."""
    exact = getattr(harness, name)

    def moved(n, kk):
        cell = exact(n, kk)
        return cell._replace(value=cell.value + by) if kk == k else cell

    monkeypatch.setattr(harness, name, moved)


@pytest.mark.parametrize(
    "name, k, by, line, force_wit, cap_wit",
    [
        # f(4, 3) + 1 = 6: every 5-edge graph has mc 4, so the f witness goes
        ("min_edges_forcing", 3, 1, "force n=4 k=3: expected 6, observed 5",
         {2: "CF", 4: "CN", 5: "C^", 6: "C^"}, CAP_WITNESS_4),
        # f(4, 5) - 1 = 5: the witness moves down to the 4-edge graph
        ("min_edges_forcing", 5, -1, "force n=4 k=5: expected 5, observed 6",
         {**FORCE_WITNESS_4, 5: "CN"}, CAP_WITNESS_4),
        # g(4, 2) - 1 = 3: every 4-edge graph has mc 2, so the g witness goes
        ("max_edges_capping", 2, -1, "cap n=4 k=2: expected 3, observed 4",
         FORCE_WITNESS_4, {1: "CN", 3: "C^", 4: "C~", 5: "C~"}),
        # g(4, 3) + 1 = 5: the witness moves up to K_4
        ("max_edges_capping", 3, 1, "cap n=4 k=3: expected 5, observed 4",
         FORCE_WITNESS_4, {**CAP_WITNESS_4, 3: "C~"}),
        # g(4, 1) - 2 = 1 puts the witness at 2 edges, where no connected
        # graph on 4 vertices lies
        ("max_edges_capping", 1, -2, "cap n=4 k=1: expected 1, observed 3",
         FORCE_WITNESS_4, {2: "C^", 3: "C^", 4: "C~", 5: "C~"}),
    ],
    ids=["f(4,3)+1", "f(4,5)-1", "g(4,2)-1", "g(4,3)+1", "g(4,1)-2"],
)
def test_certify_reports_a_wrong_closed_form(monkeypatch, name, k, by, line, force_wit, cap_wit):
    _shift(monkeypatch, name, k, by)
    report = certify(4)
    assert report.verdict == "mismatch"
    assert report.mismatches == (line,)
    assert report.force_witness_g6 == force_wit
    assert report.cap_witness_g6 == cap_wit
    doc = json.loads(report.to_json())
    assert doc["verdict"] == "mismatch"
    assert doc["mismatches"] == [line]


def test_certify_reports_a_forcing_threshold_past_the_complete_graph(monkeypatch, sweep6):
    monkeypatch.setattr(harness, "sweep", lambda n, jobs=1: sweep6)
    base = certify(6)
    # f(6, 15) + 2 = 17 puts the witness at 16 edges, one past K_6.
    _shift(monkeypatch, "min_edges_forcing", 15, 2)
    report = certify(6)
    assert report.verdict == "mismatch"
    assert report.mismatches == ("force n=6 k=15: expected 17, observed 15",)
    assert report.force_witness_g6 == {
        k: g6 for k, g6 in base.force_witness_g6.items() if k != 15
    }
    assert report.cap_witness_g6 == base.cap_witness_g6


@pytest.mark.parametrize(
    "name, k, by, line",
    [
        ("min_edges_forcing", 3, 1, "force n=4 k=3: expected 6, observed 5"),
        ("max_edges_capping", 1, -2, "cap n=4 k=1: expected 1, observed 3"),
    ],
    ids=["f(4,3)+1", "g(4,1)-2"],
)
def test_cli_certify_mismatch_prints_the_report_and_exits_2(monkeypatch, capsys, name, k, by, line):
    _shift(monkeypatch, name, k, by)
    assert harness.cli_main(["certify", "--n", "4", "--jobs", "1"]) == 2
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    doc = json.loads(out[0])
    assert doc["verdict"] == "mismatch"
    assert doc["mismatches"] == [line]


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


# Disconnected input: each method keeps its own error text.
_DISCONNECTED_STDOUT = {
    "exact": '{"graph6": "B?", "error": "mc is only defined for connected graphs"}',
    "fast": '{"graph6": "B?", "error": "requires a connected graph"}',
}


@pytest.mark.parametrize("method", sorted(_DISCONNECTED_STDOUT))
def test_cli_compute_disconnected_stdout_is_exact(method):
    proc = run_cli("compute", "--graph6", "B?", "--method", method)
    assert proc.stdout == _DISCONNECTED_STDOUT[method] + "\n"
    assert proc.returncode == 1


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
    # A refusal carries the bounds' interval.  On this n = 17 graph the
    # t = 6 edge window, 119, is the least upper bound: the chromatic and
    # min-degree bounds give 120.
    proc = run_cli("compute", "--graph6", "P~|~~vz~F~~~~~~~n}v~~~L{")
    assert proc.returncode == 1
    assert proc.stdout == (
        '{"graph6": "P~|~~vz~F~~~~~~~n}v~~~L{", "error": "refusing exact solve for n=17 > 16; '
        'mc is within [115, 119]", "lower": 115, "upper": 119}\n'
    )
    # K_17 minus the disjoint edges 01 and 23: the t = 3 edge window meets
    # the lower bound at 132, so no search is needed and the value stands.
    proc = run_cli("compute", "--graph6", "P]~~~~~~~~~~~~~~~~~~~~~{")
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert (doc["value"], doc["method"]) == (132, "branch-and-bound")
    assert ["upper:edge-window(t=3)", 132] in doc["bound_trace"]


def test_cli_compute_exact_stdout_is_exact():
    # K_17 closes on the bounds with its rainbow coloring.
    k17_edges = ", ".join(f"[{u}, {v}]" for u in range(17) for v in range(u + 1, 17))
    k17_colors = ", ".join(map(str, range(136)))
    proc = run_cli("compute", stdin="E]~o\nP~~~~~~~~~~~~~~~~~~~~~~{\n")
    assert proc.returncode == 0
    assert proc.stdout.splitlines() == [
        '{"value": 9, "method": "branch-and-bound", "bound_trace": [["lower:spanning-tree", 8], '
        '["lower:near-complete", 9], ["upper:chromatic", 9], ["upper:connectivity", 11], '
        '["upper:min-degree", 10], ["upper:edge-window(t=3)", 10]], "coloring": {"graph6": "E]~o", '
        '"edges": [[0, 2], [0, 3], [0, 4], [0, 5], [1, 2], [1, 3], [1, 4], [1, 5], [2, 4], [2, 5], '
        '[3, 4], [3, 5]], "colors": [0, 0, 1, 2, 3, 4, 1, 5, 6, 6, 7, 8]}}',
        '{"value": 136, "method": "branch-and-bound", "bound_trace": [["lower:spanning-tree", 121], '
        '["lower:near-complete", 136], ["upper:chromatic", 136], ["upper:connectivity", 136], '
        '["upper:min-degree", 136]], "coloring": {"graph6": "P~~~~~~~~~~~~~~~~~~~~~~{", '
        f'"edges": [{k17_edges}], "colors": [{k17_colors}]}}}}',
    ]


def test_cli_compute_answers_each_line_before_stdin_closes():
    # A reader must see a line's answer while stdin is still open.
    proc = subprocess.Popen(
        [sys.executable, "-m", "mc_lab", "compute"],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        text=True,
    )
    with proc, concurrent.futures.ThreadPoolExecutor(1) as pool:
        try:
            proc.stdin.write("E]~o\n")
            proc.stdin.flush()
            first = pool.submit(proc.stdout.readline)
            answered, _ = concurrent.futures.wait([first], timeout=10)
            proc.stdin.close()
            proc.wait(timeout=60)
        finally:
            proc.kill()
    assert answered, "no answer before stdin closed"
    assert json.loads(first.result())["value"] == 9
    assert proc.returncode == 0


def test_cli_compute_bounds_finishes_on_dense_62_vertex_input():
    # G(62, 1/2) from random.Random(1), each pair an edge when
    # rng.random() < 0.5.  Refuting k colors here runs for minutes; the
    # chromatic node budget ends it, and the greedy count stands.
    rng = random.Random(1)
    g = from_edges(62, [(u, v) for u in range(62) for v in range(u + 1, 62) if rng.random() < 0.5])
    proc = subprocess.run(
        [sys.executable, "-m", "mc_lab", "compute", "--method", "bounds", "--graph6", emit_graph6(g)],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    assert (doc["lower"], doc["upper"]) == (865, 877)
    assert ["upper:chromatic", 877] in doc["bound_trace"]


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


@pytest.mark.parametrize(
    "args, error",
    [
        (("anchored", "--n", "6"), "anchored needs --n and --t"),
        (("split", "--t", "3"), "split needs --n and --t (and optionally --extra)"),
        (("diam3",), "diam3 needs --n"),
        (("deg2", "--t", "3"), "deg2 needs --n"),
        (("multipartite", "--n", "6"), "multipartite needs --sizes, e.g. --sizes 2,2,3"),
    ],
)
def test_cli_construct_missing_argument_is_one_json_line(capsys, args, error):
    assert harness.cli_main(["construct", *args]) == 1
    assert capsys.readouterr().out == json.dumps({"error": error}) + "\n"


def _limit_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


# The 1 GiB limit turns a builder that does O(n^2) work before checking n
# into a quick MemoryError traceback instead of exhausting the host's memory.
@pytest.mark.parametrize(
    "args",
    [
        ("split", "--n", "200000", "--t", "2"),
        ("anchored", "--n", "200000", "--t", "3"),
        ("multipartite", "--sizes", "100000,100000"),
        ("diam3", "--n", "200000"),
        ("deg2", "--n", "200000"),
    ],
)
def test_cli_construct_rejects_oversized_families(args):
    proc = run_cli("construct", *args, preexec_fn=_limit_address_space)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout.splitlines() == [json.dumps({"error": "vertex count 200000 outside 2..62"})]


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


def test_cli_table_writes_the_rows_of_table_rows(tmp_path):
    for code in "fgts":
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(["n", "k", "value", "regime"])
        w.writerows([r.n, r.k, r.value, r.regime] for r in table_rows(code, 7))
        out = tmp_path / f"{code}.csv"
        assert run_cli("table", code, "--n", "7", "--out", str(out)).returncode == 0
        assert out.read_bytes() == buf.getvalue().encode()
        proc = run_cli("table", code, "--n", "7")
        assert proc.returncode == 0
        assert proc.stdout == out.read_text(encoding="utf-8")


def test_cli_table_rejects_bad_n():
    proc = run_cli("table", "f", "--n", "1")
    assert proc.returncode == 1
    assert proc.stdout == json.dumps({"error": "need at least 2 vertices, got n=1"}) + "\n"


def test_cli_table_unwritable_out_is_one_json_line(tmp_path):
    path = tmp_path / "absent" / "x.csv"
    proc = run_cli("table", "f", "--n", "4", "--out", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == json.dumps(
        {"error": f"[Errno 2] No such file or directory: {str(path)!r}"}
    ) + "\n"


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


@pytest.mark.parametrize("flag", ["--out", "--csv"])
def test_cli_certify_unwritable_file_keeps_the_report(tmp_path, flag):
    path = tmp_path / "absent" / "x"
    proc = run_cli("certify", "--n", "3", "--jobs", "1", flag, str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    report, error = proc.stdout.splitlines()
    expected = json.loads(certify(3).to_json())
    expected["elapsed_seconds"] = json.loads(report)["elapsed_seconds"]
    assert report == json.dumps(expected)
    assert error == json.dumps({"error": f"[Errno 2] No such file or directory: {str(path)!r}"})


def test_cli_certify_pool_start_failure_is_one_json_line():
    # OSError(11, ...) is the BlockingIOError a refused fork raises.
    code = (
        "import concurrent.futures\n"
        "import sys\n"
        "from mc_lab import harness\n"
        "def refuse(*args, **kwargs):\n"
        "    raise OSError(11, 'Resource temporarily unavailable')\n"
        "concurrent.futures.ProcessPoolExecutor = refuse\n"
        "sys.exit(harness.cli_main(['certify', '--n', '3', '--jobs', '2']))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == json.dumps(
        {"error": "[Errno 11] Resource temporarily unavailable"}
    ) + "\n"


def test_cli_verify_undecodable_file_is_one_json_line(tmp_path):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{")
    proc = run_cli("verify", "--coloring", str(path))
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stdout == json.dumps(
        {"error": "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"}
    ) + "\n"


def test_cli_certify_guard_rails():
    slow = run_cli("certify", "--n", "7")
    assert slow.returncode == 1
    assert "allow-slow" in json.loads(slow.stdout)["error"]
    for args in (("--n", "8"), ("--n", "9", "--allow-slow"), ("--n", "1")):
        proc = run_cli("certify", *args)
        assert proc.returncode == 1, args
        assert proc.stdout == json.dumps(
            {"error": f"sweep supports 2 <= n <= 7, got {args[1]}"}
        ) + "\n", args


def test_cli_bad_usage():
    assert run_cli("frobnicate").returncode == 1
    assert run_cli().returncode == 1
    assert run_cli("table", "q", "--n", "4").returncode == 1
