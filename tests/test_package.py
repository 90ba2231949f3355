"""The public namespace of the package, what importing it loads, and its records."""

import copy
import inspect
import pickle
import subprocess
import sys
from types import ModuleType

import pytest

import mc_lab
from mc_lab import (
    EdgeColoring,
    McCertificate,
    PartitionedGraph,
    certify,
    min_edges_forcing,
    path_graph,
    sweep,
)


def test_every_exported_name_resolves():
    for name in mc_lab.__all__:
        getattr(mc_lab, name)


def test_exports_hold_the_version_and_no_module():
    assert "__version__" in mc_lab.__all__
    assert len(set(mc_lab.__all__)) == len(mc_lab.__all__)
    modules = [name for name in mc_lab.__all__ if isinstance(getattr(mc_lab, name), ModuleType)]
    assert modules == []


def test_import_loads_no_cli_or_pool_module():
    # Only the commands that use them pay for these modules.
    code = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import mc_lab\n"
        "print(' '.join(sorted(set(sys.modules) - before)))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    added = set(proc.stdout.split())
    assert "mc_lab.harness" in added
    unwanted = {
        "argparse",
        "csv",
        "dataclasses",
        "inspect",
        "multiprocessing",
        "concurrent.futures.process",
    }
    assert added & unwanted == set()


# ---------------------------------------------------------------------------
# the six result records: NamedTuples with the repr of the frozen dataclasses
# they replaced


def _color_class():
    return EdgeColoring(path_graph(3), [0, 0]).classes()[0]


def _partitioned_graph():
    return PartitionedGraph(path_graph(3), ((0, 2), (1,)), (0, 1))


def _certificate():
    return McCertificate(1, EdgeColoring(path_graph(3), [0, 0]), "fast-path", (("upper:chromatic", 1),))


RECORDS = {
    "ColorClass": (
        _color_class,
        "ColorClass(color=0, edges=((0, 1), (1, 2)), vertex_mask=7, components=(7,), "
        "is_tree=True, waste=1)",
    ),
    "PartitionedGraph": (
        _partitioned_graph,
        "PartitionedGraph(graph=Graph(n=3, m=2, graph6='Bg'), classes=((0, 2), (1,)), "
        "anchors=(0, 1))",
    ),
    "FormulaResult": (
        lambda: min_edges_forcing(4, 2),
        "FormulaResult(function='f', n=4, k=2, value=4, regime='linear')",
    ),
    "McCertificate": (
        _certificate,
        "McCertificate(value=1, coloring=EdgeColoring(1 colors on 2 edges), "
        "method='fast-path', bound_trace=(('upper:chromatic', 1),))",
    ),
    "SweepResult": (
        lambda: sweep(2)._replace(elapsed=0.0),
        "SweepResult(n=2, graph_count=1, elapsed=0.0, jobs=1, min_mc_by_m={1: 1}, "
        "max_mc_by_m={1: 1}, witness_g6={(1, 1): 'A_'})",
    ),
    "CertificationReport": (
        lambda: certify(2)._replace(elapsed=0.0),
        "CertificationReport(n=2, graph_count=1, elapsed=0.0, jobs=1, min_mc_by_m={1: 1}, "
        "max_mc_by_m={1: 1}, force_expected={1: 1}, force_observed={1: 1}, "
        "cap_expected={1: 1}, cap_observed={1: 1}, force_witness_g6={}, "
        "cap_witness_g6={}, mismatches=(), verdict='certified')",
    ),
}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_repr_keywords_and_immutability(name):
    make, text = RECORDS[name]
    rec = make()
    cls = type(rec)
    assert cls is getattr(mc_lab, name)
    assert repr(rec) == text
    fields = rec._asdict()
    params = inspect.signature(cls).parameters
    assert list(params) == list(fields)
    defaults = {p: v.default for p, v in params.items() if v.default is not inspect.Parameter.empty}
    assert defaults == ({"anchors": None} if cls is PartitionedGraph else {})
    assert cls(**fields) == rec
    # Tuple semantics: the record is the tuple of its fields, in order.
    assert tuple(rec) == tuple(fields.values())
    first = next(iter(fields))
    with pytest.raises(AttributeError):
        setattr(rec, first, getattr(rec, first))
    with pytest.raises(AttributeError):
        rec.extra = 1


def test_partitioned_graph_copies_are_checked_again():
    pg = _partitioned_graph()
    assert copy.copy(pg) == pg
    assert pickle.loads(pickle.dumps(pg)) == pg
    # Anchor 0 has its neighbor 1 inside its class; only tuple.__new__ can make this.
    bad = tuple.__new__(PartitionedGraph, (path_graph(3), ((0, 1), (2,)), (0, 2)))
    message = "anchor 0 has a neighbor inside its class"
    with pytest.raises(ValueError, match=message):
        copy.copy(bad)
    blob = pickle.dumps(bad)
    with pytest.raises(ValueError, match=message):
        pickle.loads(blob)
    with pytest.raises(ValueError, match="anchor 1 has a neighbor inside its class"):
        pg._replace(classes=((0,), (1, 2)))
