"""Edge colorings: verification, structural predicates, JSON wire format."""

import json
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_lab.coloring import (
    EdgeColoring,
    coloring_from_json,
    coloring_to_json,
    is_simple,
    verify_mc,
)
from mc_lab.constructions import (
    build_anchored_partition,
    build_augmented_split_graph,
    complete_multipartite,
)
from mc_lab.graph_core import (
    complete_graph,
    cycle_graph,
    edge_list,
    from_edge_mask,
    path_graph,
)

# Property tests draw from a fixed seed so tier-1 stays deterministic.
PROPERTY = settings(derandomize=True, database=None, deadline=None)

# cycle_graph(4).edges() is [(0, 1), (0, 3), (1, 2), (2, 3)]


def test_coloring_basic_accounting():
    col = EdgeColoring(cycle_graph(4), [0, 0, 0, 1])
    assert col.color_count == 2
    assert col.waste == 2
    classes = col.classes()
    assert [c.color for c in classes] == [0, 1]
    assert classes[0].edges == ((0, 1), (0, 3), (1, 2))
    assert classes[0].is_nontrivial and not classes[1].is_nontrivial
    assert classes[0].waste == 2 and classes[1].waste == 0


def test_coloring_rejects_bad_color_lists():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError):
        EdgeColoring(c4, [0, 0, 0])  # wrong length
    with pytest.raises(ValueError):
        EdgeColoring(c4, [0, 2, 2, 3])  # gap in the ids
    with pytest.raises(ValueError):
        EdgeColoring(c4, [1, 1, 1, 2])  # does not start at 0


@pytest.mark.parametrize("colors", [[True, False], [0.0, 1.0], [0, True], [0, 1.0], ["0", "1"]])
def test_coloring_rejects_ids_that_are_not_ints(colors):
    # JSON would write bools as true/false, which coloring_from_json rejects.
    with pytest.raises(ValueError, match="^color ids must be contiguous integers starting at 0$"):
        EdgeColoring(path_graph(3), colors)


def test_verify_mc_accepts_spanning_class():
    col = EdgeColoring(cycle_graph(4), [0, 0, 0, 1])
    assert verify_mc(col) is None


def test_verify_mc_reports_first_disconnected_pair():
    # all-distinct colors leave every nonadjacent pair unjoined
    col = EdgeColoring(cycle_graph(4), [0, 1, 2, 3])
    assert verify_mc(col) == (0, 2)
    # path colored as two halves: ends 0 and 3 never share a color class
    col2 = EdgeColoring(path_graph(4), [0, 0, 1])
    assert verify_mc(col2) == (0, 3)


def test_verify_mc_survives_class_merging():
    # coarsening a passing coloring can only help connectivity
    col = EdgeColoring(cycle_graph(4), [0, 0, 0, 0])
    assert verify_mc(col) is None


def test_verify_mc_rainbow_complete_graph():
    k4 = complete_graph(4)
    assert verify_mc(EdgeColoring(k4, list(range(6)))) is None


def test_classes_are_trees():
    def trees(col):
        return all(c.is_tree for c in col.classes())

    k3 = complete_graph(3)
    assert not trees(EdgeColoring(k3, [0, 0, 0]))
    assert trees(EdgeColoring(k3, [0, 0, 1]))
    assert trees(EdgeColoring(cycle_graph(4), [0, 0, 0, 1]))


def test_is_simple_detects_two_shared_vertices():
    k4 = complete_graph(4)
    # classes {01,12} and {02,23} share vertices 0 and 2
    assert not is_simple(EdgeColoring(k4, [0, 1, 2, 0, 3, 1]))
    # C_6 paths {01,12} and {23,34} share only vertex 2
    c6 = cycle_graph(6)
    assert is_simple(EdgeColoring(c6, [0, 2, 0, 1, 1, 3]))
    # C_6 paths {01,12} and {34,45} are vertex disjoint
    assert is_simple(EdgeColoring(c6, [0, 2, 0, 3, 1, 1]))
    with pytest.raises(ValueError):
        is_simple(EdgeColoring(complete_graph(3), [0, 0, 0]))


def test_json_round_trip():
    col = EdgeColoring(cycle_graph(4), [0, 0, 0, 1])
    text = coloring_to_json(col)
    assert isinstance(text, str)
    doc = json.loads(text)
    assert set(doc) == {"graph6", "edges", "colors"}
    assert coloring_from_json(text) == col
    assert coloring_from_json(doc) == col


def test_json_edge_order_is_free():
    col = EdgeColoring(path_graph(4), [0, 1, 0])
    doc = json.loads(coloring_to_json(col))
    doc["edges"].reverse()
    doc["colors"].reverse()
    assert coloring_from_json(doc) == col
    # endpoint order inside a pair is free too
    doc["edges"] = [[v, u] for u, v in doc["edges"]]
    assert coloring_from_json(doc) == col


def test_json_renumbers_sparse_color_ids():
    doc = {
        "graph6": "Cl",
        "edges": [[0, 1], [0, 3], [1, 2], [2, 3]],
        "colors": [5, 5, 5, 9],
    }
    col = coloring_from_json(doc)
    assert col.colors == (0, 0, 0, 1)


def test_json_errors():
    good = json.loads(coloring_to_json(EdgeColoring(cycle_graph(4), [0, 0, 0, 1])))
    missing = dict(good)
    del missing["colors"]
    with pytest.raises(ValueError):
        coloring_from_json(missing)
    short = dict(good, colors=good["colors"][:-1])
    with pytest.raises(ValueError):
        coloring_from_json(short)
    not_an_edge = dict(good, edges=[[0, 2]] + good["edges"][1:])
    with pytest.raises(ValueError):
        coloring_from_json(not_an_edge)
    doubled = dict(good, edges=[good["edges"][0]] + good["edges"][:-1])
    with pytest.raises(ValueError):
        coloring_from_json(doubled)
    bad_color = dict(good, colors=[0, 0, 0, -1])
    with pytest.raises(ValueError):
        coloring_from_json(bad_color)
    with pytest.raises(ValueError):
        coloring_from_json(json.dumps([1, 2, 3]))


# ---------------------------------------------------------------------------
# verify_mc against an independent oracle


def _naive_first_gap(g, colors):
    """First pair (u, v) with no BFS path inside a single color class."""
    by_color = {}
    for (u, v), c in zip(g.edges(), colors):
        nbrs = by_color.setdefault(c, {})
        nbrs.setdefault(u, []).append(v)
        nbrs.setdefault(v, []).append(u)

    def joined(nbrs, s, t):
        seen, queue = {s}, deque([s])
        while queue:
            x = queue.popleft()
            if x == t:
                return True
            for y in nbrs.get(x, ()):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        return False

    for u in range(g.n):
        for v in range(u + 1, g.n):
            if not any(joined(nbrs, u, v) for nbrs in by_color.values()):
                return (u, v)
    return None


@st.composite
def colored_graphs(draw):
    n = draw(st.integers(2, 12))
    g = from_edge_mask(n, draw(st.integers(0, (1 << len(edge_list(n))) - 1)))
    kind = draw(st.sampled_from(["single", "rainbow", "random"]))
    if kind == "single":
        raw = [0] * g.m
    elif kind == "rainbow":
        raw = list(range(g.m))
    else:
        k = draw(st.integers(1, max(1, g.m)))
        raw = draw(st.lists(st.integers(0, k - 1), min_size=g.m, max_size=g.m))
    ids = {}
    return EdgeColoring(g, [ids.setdefault(c, len(ids)) for c in raw])


@settings(PROPERTY, max_examples=300)
@given(colored_graphs())
def test_verify_mc_matches_naive_bfs(col):
    assert verify_mc(col) == _naive_first_gap(col.graph, col.colors)


def _naive_class_view(edges):
    """(components, vertex mask, is_tree) of one class's edges, by BFS over sets."""
    nbrs = {}
    for u, v in edges:
        nbrs.setdefault(u, set()).add(v)
        nbrs.setdefault(v, set()).add(u)
    comps, seen = [], set()
    for s in nbrs:
        if s in seen:
            continue
        comp, queue = {s}, deque([s])
        while queue:
            for y in nbrs[queue.popleft()] - comp:
                comp.add(y)
                queue.append(y)
        seen |= comp
        comps.append(sum(1 << x for x in comp))
    vmask = sum(1 << x for x in nbrs)
    return tuple(sorted(comps)), vmask, len(comps) == 1 and len(edges) == len(nbrs) - 1


@settings(PROPERTY, max_examples=300)
@given(colored_graphs())
def test_classes_match_naive_bfs(col):
    classes = col.classes()
    assert [cls.color for cls in classes] == list(range(col.color_count))
    for cls in classes:
        assert cls.edges == tuple(e for e, c in zip(col.graph.edges(), col.colors) if c == cls.color)
        expected = _naive_class_view(cls.edges)
        assert (cls.components, cls.vertex_mask, cls.is_tree) == expected, cls


def test_verify_mc_names_first_gap_of_rainbow_family_members():
    # every family coloring passes, so only a rainbow one shows a verify_mc
    # that accepts everything
    graphs = [
        build_anchored_partition(9, 4).graph,
        build_augmented_split_graph(10, 5, 2)[0],
        complete_multipartite([2, 3, 4]).graph,
    ]
    for g in graphs:
        gaps = [
            (u, v) for u in range(g.n) for v in range(u + 1, g.n) if not g.has_edge(u, v)
        ]
        assert gaps
        assert verify_mc(EdgeColoring(g, range(g.m))) == gaps[0]


# ---------------------------------------------------------------------------
# hostile JSON

json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)

# documents shaped like the wire format, with hostile members
near_documents = st.fixed_dictionaries(
    {
        "graph6": st.sampled_from(["Cl", "Bw", "C~", "A_", "B?"]) | json_values,
        "edges": st.lists(
            st.lists(st.integers(-1, 4) | json_values, max_size=3) | json_values,
            max_size=6,
        )
        | json_values,
        "colors": st.lists(st.integers(-2, 6) | json_values, max_size=6) | json_values,
    }
)


def _loads_or_value_error(data):
    try:
        col = coloring_from_json(data)
    except ValueError:
        return
    assert isinstance(col, EdgeColoring)


@PROPERTY
@given(st.text())
def test_coloring_from_json_text_raises_only_value_error(text):
    _loads_or_value_error(text)


@PROPERTY
@given(json_values | near_documents)
def test_coloring_from_json_values_raise_only_value_error(value):
    _loads_or_value_error(value)
    _loads_or_value_error(json.dumps(value))
