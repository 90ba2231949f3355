"""Exact solver: frozen values, fast path, bounds, certificates, oracle."""

import copy
import json
import pickle
import random
import subprocess
import sys
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mc_lab import constructions, solver
from mc_lab.coloring import EdgeColoring, coloring_to_json, is_simple, verify_mc
from mc_lab.constructions import (
    build_anchored_partition,
    build_augmented_split_graph,
    build_degree_two_witness,
    build_diameter_three_witness,
    complete_multipartite,
    multipartite_star_coloring,
    near_complete_coloring,
    spanning_tree_coloring,
)
from mc_lab.formulas import _least_t, split_graph_base_edges
from mc_lab.graph_core import (
    _has_cut_vertex,
    _is_triangle_free,
    _vertex_connectivity,
    complement,
    complete_graph,
    cycle_graph,
    edge_list,
    edge_mask,
    emit_graph6,
    enumerate_connected_graphs,
    from_edge_mask,
    from_edges,
    is_connected,
    path_graph,
)
from mc_lab.solver import (
    EXACT_HARD_CAP,
    ORACLE_EDGE_CAP,
    ExactSolveRefusedError,
    _bounds,
    _set_families,
    _solve,
    _vertex_set_search,
    baseline_fast_path,
    is_s_perfectly_connected,
    mc_exact,
    mc_oracle_partitions,
    mc_upper_bounds,
)
from test_graph_core import _brute_diameter


def _without(n, missing):
    return from_edges(
        n, [e for e in complete_graph(n).edges() if e not in set(missing)]
    )


def _twin_cliques():
    # two K_4 blocks glued at vertex 0
    es = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    es += [(0, 4), (0, 5), (0, 6), (4, 5), (4, 6), (5, 6)]
    return from_edges(7, es)


def _two_hub_graph():
    # K_6 plus a degree-2 vertex on {0,1} and a degree-4 vertex on {2..5};
    # the two added vertices sit at distance 3
    es = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    es += [(0, 6), (1, 6)] + [(2, 7), (3, 7), (4, 7), (5, 7)]
    return from_edges(8, es)


# ---------------------------------------------------------------------------
# frozen exact values


FROZEN_VALUES = [
    (path_graph(3), 1),
    (path_graph(4), 1),
    (cycle_graph(4), 2),
    (cycle_graph(5), 2),
    (cycle_graph(6), 2),
    (complete_graph(4), 6),
    (complete_graph(5), 10),
    (_without(4, [(2, 3)]), 4),
    (_without(5, [(3, 4)]), 8),
]


def test_frozen_exact_values():
    for g, expect in FROZEN_VALUES:
        assert mc_exact(g).value == expect, g


def test_frozen_family_values():
    assert mc_exact(build_anchored_partition(6, 3).graph).value == 9
    assert mc_exact(build_anchored_partition(5, 4).graph).value == 8
    assert mc_exact(build_anchored_partition(7, 3).graph).value == 13
    assert mc_exact(build_degree_two_witness(5)).value == 4
    g6 = build_diameter_three_witness(6)
    assert mc_exact(g6).value == g6.m - 6 + 2


def test_solver_methods_on_known_cases():
    assert mc_exact(complete_graph(4)).method == "branch-and-bound"
    assert mc_exact(cycle_graph(4)).method == "fast-path"
    assert _solve(cycle_graph(4)).method == "branch-and-bound"
    assert mc_exact(build_anchored_partition(7, 3).graph).method == "branch-and-bound"


def test_bound_closed_solves_are_visible_in_the_trace():
    # lower and upper meet, so the search closed without branching
    cert = mc_exact(complete_graph(4))
    lowers = [v for name, v in cert.bound_trace if name.startswith("lower:")]
    uppers = [v for name, v in cert.bound_trace if name.startswith("upper:")]
    assert max(lowers) == min(uppers) == cert.value


def test_fast_path_toggle_preserves_values():
    for g, expect in FROZEN_VALUES:
        assert _solve(g).value == expect


# ---------------------------------------------------------------------------
# fast-path conditions


def test_fast_path_reasons():
    assert baseline_fast_path(cycle_graph(6)) == "max-degree"
    assert baseline_fast_path(cycle_graph(4)) == "max-degree"
    assert baseline_fast_path(_twin_cliques()) == "cut-vertex"
    assert baseline_fast_path(_two_hub_graph()) == "diameter"
    assert baseline_fast_path(complete_graph(4)) is None
    assert baseline_fast_path(path_graph(3)) is None  # too small
    assert baseline_fast_path(_without(5, [(3, 4)])) is None
    # Past n = 15 triangle-freeness can come first: K_{5,11} is the one
    # such shape at n = 16, K_{6,14} one of many above it.
    assert baseline_fast_path(complete_multipartite([5, 11]).graph) == "triangle-free"
    assert baseline_fast_path(complete_multipartite([6, 14]).graph) == "triangle-free"


def test_fast_path_rejects_disconnected():
    with pytest.raises(ValueError):
        baseline_fast_path(from_edges(4, [(0, 1), (2, 3)]))


def test_fast_path_values_match_brute_solver():
    for g in [cycle_graph(6), _twin_cliques(), _two_hub_graph()]:
        assert _solve(g).value == g.m - g.n + 2


def _conditions(g):
    n, m = g.n, g.m
    dmax = max(g.degree(v) for v in range(n))
    return [
        ("max-degree", (n - dmax) * (n - 3) > 2 * m - 3 * (n - 1)),
        ("triangle-free", _is_triangle_free(g)),
        ("cut-vertex", _has_cut_vertex(g)),
        ("diameter", _brute_diameter(g) >= 3),
        ("complement-connectivity", _vertex_connectivity(complement(g)) >= 4),
    ]


def test_fast_path_returns_first_holding_condition():
    for n in (4, 5):
        for g in enumerate_connected_graphs(n):
            conds = _conditions(g)
            expect = next((name for name, holds in conds if holds), None)
            assert baseline_fast_path(g) == expect, g


def test_fast_path_complement_connectivity():
    # The square of the 12-cycle is 4-regular and 4-connected; no earlier
    # condition holds for its complement, whose maximum degree is n - 5.
    square = from_edges(12, [(i, (i + d) % 12) for i in range(12) for d in (1, 2)])
    g = complement(square)
    assert baseline_fast_path(g) == "complement-connectivity"
    assert next(name for name, holds in _conditions(g) if holds) == "complement-connectivity"


@st.composite
def _connected_graphs_n7_n20(draw):
    # a random spanning tree keeps every draw connected; the density
    # sets how many other pairs become edges
    n = draw(st.integers(7, 20))
    density = draw(st.sampled_from([0.1, 0.25, 0.5, 0.75, 0.9]))
    rng = draw(st.randoms(use_true_random=False))
    tree = [(rng.randrange(v), v) for v in range(1, n)]
    return from_edges(n, tree + [e for e in edge_list(n) if rng.random() < density])


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(_connected_graphs_n7_n20())
def test_fast_path_returns_first_holding_condition_n7_n20(g):
    expect = next((name for name, holds in _conditions(g) if holds), None)
    assert baseline_fast_path(g) == expect


# ---------------------------------------------------------------------------
# perfectly connected recognition


def _brute_parts(universe):
    if not universe:
        yield []
        return
    head, rest = universe[0], universe[1:]
    for parts in _brute_parts(rest):
        for i in range(len(parts)):
            yield parts[:i] + [parts[i] + [head]] + parts[i + 1 :]
        yield parts + [[head]]


def _brute_perfectly_connected(g, s):
    def connected(vs):
        if not vs:
            return False
        seen = {vs[0]}
        stack = [vs[0]]
        while stack:
            u = stack.pop()
            for w in vs:
                if w not in seen and g.has_edge(u, w):
                    seen.add(w)
                    stack.append(w)
        return len(seen) == len(vs)

    for v in range(g.n):
        if g.degree(v) != s:
            continue
        others = [u for u in range(g.n) if u != v]
        for parts in _brute_parts(others):
            if len(parts) != s:
                continue
            if not all(connected(p) for p in parts):
                continue
            if not all(sum(1 for u in p if g.has_edge(v, u)) == 1 for p in parts):
                continue
            if all(
                g.has_edge(a, b)
                for p, q in combinations(parts, 2)
                for a in p
                for b in q
            ):
                return True
    return False


def test_perfectly_connected_known_cases():
    assert is_s_perfectly_connected(complete_graph(4), 3)
    assert is_s_perfectly_connected(_without(4, [(2, 3)]), 2)
    assert is_s_perfectly_connected(_without(5, [(3, 4)]), 3)
    assert is_s_perfectly_connected(path_graph(4), 1)
    assert is_s_perfectly_connected(from_edges(4, [(0, 1), (0, 2), (0, 3)]), 1)
    assert not is_s_perfectly_connected(cycle_graph(4), 2)
    assert not is_s_perfectly_connected(cycle_graph(5), 2)
    assert not is_s_perfectly_connected(build_degree_two_witness(5), 2)
    # G - 0 has the atoms {1, 2}, {3, 4}, {5}, {6}: two anchored atoms
    # that G leaves disconnected, each paired with a loose one.  In the
    # complement of G all seven vertices form one component, so a test
    # that took that component minus 0 as a single atom would say False.
    assert is_s_perfectly_connected(
        _without(7, [(0, 2), (0, 4), (0, 5), (0, 6), (1, 2), (3, 4)]), 2
    )


def test_perfectly_connected_matches_brute_force():
    for n in (3, 4, 5):
        for g in enumerate_connected_graphs(n):
            for s in range(1, n):
                assert is_s_perfectly_connected(g, s) == _brute_perfectly_connected(
                    g, s
                ), (g, s)


@st.composite
def _graphs_n6_n7(draw):
    # dense enough that many vertices admit splits; sparse draws may be disconnected
    n = draw(st.integers(6, 7))
    density = draw(st.sampled_from([0.4, 0.6, 0.75, 0.85, 0.95]))
    rng = draw(st.randoms(use_true_random=False))
    return from_edges(n, [e for e in edge_list(n) if rng.random() < density])


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(_graphs_n6_n7())
def test_perfectly_connected_matches_brute_force_n6_n7(g):
    for s in range(1, g.n):
        assert is_s_perfectly_connected(g, s) == _brute_perfectly_connected(g, s), s


# ---------------------------------------------------------------------------
# bounds


def test_lower_bound_picks_the_denser_construction():
    value, col, _, trace = _bounds(_without(5, [(3, 4)]))
    assert value == 8 == col.color_count
    assert verify_mc(col) is None
    assert trace[:2] == (("lower:spanning-tree", 6), ("lower:near-complete", 8))
    # A tree start is reported by its count; its coloring is not built.
    tree_val, tree_col, _, _ = _bounds(path_graph(5))
    assert (tree_val, tree_col) == (1, None)


def test_upper_bounds_entries():
    g = build_degree_two_witness(5)
    named = dict(mc_upper_bounds(g))
    assert named["upper:min-degree"] == g.m - 5 + 2 == 4

    split, _ = build_augmented_split_graph(6, 3, 0)
    names = dict(mc_upper_bounds(split))
    assert names["upper:edge-window(t=3)"] == split.m - 3 + 1 == 10

    k4 = complete_graph(4)
    named_k4 = dict(mc_upper_bounds(k4))
    assert named_k4["upper:chromatic"] == 6
    assert named_k4["upper:connectivity"] == 6 - 4 + 3 + 1
    # K_4 is 3-perfectly-connected, so the dichotomy shifts up by one
    assert named_k4["upper:min-degree"] == 6 - 4 + 3 + 1


def test_upper_bounds_window_membership():
    # edge counts inside a window emit the matching cap, others do not
    g, _ = build_augmented_split_graph(7, 4, 2)
    names = [name for name, _ in mc_upper_bounds(g)]
    assert "upper:edge-window(t=4)" in names
    k5 = complete_graph(5)
    assert not any("edge-window" in name for name, _ in mc_upper_bounds(k5))


def test_upper_bounds_edge_window_matches_the_window_walk():
    # the first m lexicographic edges give every count 0..C(n,2), including
    # the disconnected counts below n - 1, where no window applies
    for n in range(2, 11):
        for m in range(comb(n, 2) + 1):
            g = from_edge_mask(n, (1 << m) - 1)
            walk = []
            for t in range(2, n):
                base = split_graph_base_edges(n, t)
                if base <= m <= base + t - 2:
                    walk.append((f"upper:edge-window(t={t})", m - t + 1))
            got = [(name, v) for name, v in mc_upper_bounds(g) if "edge-window" in name]
            assert got == walk, (n, m)
            assert len(walk) == (n - 1 <= m < comb(n, 2)), (n, m)


# ---------------------------------------------------------------------------
# certificates


def test_certificate_invariants():
    for g in [cycle_graph(5), complete_graph(5), build_anchored_partition(6, 3).graph]:
        cert = mc_exact(g)
        assert verify_mc(cert.coloring) is None
        assert cert.coloring.color_count == cert.value
        assert cert.method in {"fast-path", "branch-and-bound"}
        doc = json.loads(cert.to_json())
        assert doc["value"] == cert.value
        assert doc["method"] == cert.method
        assert doc["coloring"]["colors"]
        assert [tuple(x) for x in doc["bound_trace"]] == list(cert.bound_trace)


def test_certificate_trace_names():
    cert = mc_exact(cycle_graph(4))
    assert cert.bound_trace == (("fast:baseline(max-degree)", 2),)
    cert2 = mc_exact(complete_graph(4))
    names = [name for name, _ in cert2.bound_trace]
    assert cert2.bound_trace[:2] == (("lower:spanning-tree", 4), ("lower:near-complete", 6))
    assert "upper:chromatic" in names


def _fast_path_graphs():
    """Every connected n = 4..6 graph the fast path closes, then 200 seeded n = 7..16 ones."""
    for n in range(4, 7):
        yield from (g for g in enumerate_connected_graphs(n) if baseline_fast_path(g))
    rng = random.Random(25)
    hits = 0
    while hits < 200:
        n = rng.randint(7, 16)
        tree = [(rng.randrange(v), v) for v in range(1, n)]
        p = rng.random()
        g = from_edges(n, tree + [e for e in edge_list(n) if rng.random() < p])
        if baseline_fast_path(g):
            hits += 1
            yield g


def test_fast_path_colorings_pass_the_public_constructor():
    # The fast path's coloring skips the constructor's checks, so it must
    # come back unchanged from them, and still connect with value colors.
    for g in _fast_path_graphs():
        cert = mc_exact(g)
        col = cert.coloring
        assert cert.method == "fast-path"
        assert type(col.colors) is tuple
        assert EdgeColoring(g, col.colors) == col, emit_graph6(g)
        assert verify_mc(col) is None, emit_graph6(g)
        assert col.color_count == cert.value, emit_graph6(g)


def test_certificate_json_embeds_the_coloring_wire_format():
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    rng = random.Random(8)
    for n in range(8, 17):
        graphs.append(_without(n, rng.sample(edge_list(n), 2)))
        graphs.append(_without(n, [(v, v + 1) for v in range(0, n - 1, 2)]))
    for g in graphs:
        cert = mc_exact(g)
        expected = json.dumps(
            {
                "value": cert.value,
                "method": cert.method,
                "bound_trace": [[name, val] for name, val in cert.bound_trace],
                "coloring": json.loads(coloring_to_json(cert.coloring)),
            }
        )
        assert cert.to_json() == expected
        assert expected.endswith(', "coloring": ' + coloring_to_json(cert.coloring) + "}")


def test_exact_solver_is_deterministic():
    g = build_anchored_partition(7, 3).graph
    a = mc_exact(g)
    b = mc_exact(g)
    assert a.value == b.value
    assert a.bound_trace == b.bound_trace
    assert a.coloring == b.coloring


def test_exact_rejects_disconnected():
    with pytest.raises(ValueError, match="^mc is only defined for connected graphs$"):
        mc_exact(from_edges(4, [(0, 1), (2, 3)]))


def test_exact_rejects_disconnected_input_past_the_cap():
    # n = 17 with vertex 16 isolated: connectivity is checked before the size refusal.
    g = from_edges(EXACT_HARD_CAP + 1, [(i, i + 1) for i in range(EXACT_HARD_CAP - 1)])
    with pytest.raises(ValueError, match="^mc is only defined for connected graphs$") as info:
        mc_exact(g)
    assert not isinstance(info.value, ExactSolveRefusedError)


def test_exact_refuses_oversized_input():
    # Past the cap only a search is refused: the path closes on the fast
    # path and K_20 on the bounds.  K_{3,3,3,4,4} (n = 17) is left open by
    # both, so the refusal carries the bounds' own interval.
    assert mc_exact(path_graph(EXACT_HARD_CAP + 1)).method == "fast-path"
    assert mc_exact(complete_graph(20)).value == comb(20, 2)
    g = complete_multipartite([3, 3, 3, 4, 4]).graph
    with pytest.raises(ExactSolveRefusedError) as info:
        mc_exact(g)
    err = info.value
    lb, _, ub, _ = _bounds(g)
    assert (err.lower, err.upper) == (lb, ub) == (100, 103)
    assert str(err) == f"refusing exact solve for n=17 > {EXACT_HARD_CAP}; mc is within [100, 103]"
    # A process pool pickles what its workers raise.
    for twin in (pickle.loads(pickle.dumps(err)), copy.copy(err)):
        assert type(twin) is ExactSolveRefusedError
        assert (str(twin), twin.lower, twin.upper) == (str(err), 100, 103)


def test_refusal_intervals_contain_the_known_value():
    # K_{3,3,3,4,4}: mc = m - n + r with r = 5 parts.  The augmented split
    # graph's coloring attains its edge window m - t + 1.
    pg = complete_multipartite([3, 3, 3, 4, 4])
    split, split_col = build_augmented_split_graph(17, 7, 1)
    known = [
        (pg.graph, pg.graph.m - pg.graph.n + 5),
        (split, split.m - 7 + 1),
    ]
    for g, mc in known:
        with pytest.raises(ExactSolveRefusedError) as info:
            mc_exact(g)
        assert info.value.lower <= mc <= info.value.upper, emit_graph6(g)
    assert split_col.color_count == split.m - 7 + 1 and verify_mc(split_col) is None


def test_answers_past_the_cap_carry_verified_colorings():
    # K_17 closes on the bounds; K_{6,14} (n = 20) on the triangle-free
    # condition of the fast path.
    cases = [
        (complete_graph(17), 136, "upper:chromatic"),
        (complete_multipartite([6, 14]).graph, 84 - 20 + 2, "fast:baseline(triangle-free)"),
    ]
    for g, value, entry in cases:
        cert = mc_exact(g)
        assert cert.value == value
        assert entry in dict(cert.bound_trace)
        assert cert.coloring.graph == g
        assert cert.coloring.color_count == value
        assert verify_mc(cert.coloring) is None


# ---------------------------------------------------------------------------
# partition oracle


def test_oracle_spot_values():
    assert mc_oracle_partitions(path_graph(3)) == 1
    assert mc_oracle_partitions(cycle_graph(4)) == 2
    assert mc_oracle_partitions(complete_graph(4)) == 6
    assert mc_oracle_partitions(_without(4, [(2, 3)])) == 4


def test_oracle_guards():
    with pytest.raises(ValueError):
        mc_oracle_partitions(from_edges(4, [(0, 1), (2, 3)]))
    big = complete_graph(6)
    assert big.m > ORACLE_EDGE_CAP
    with pytest.raises(ValueError):
        mc_oracle_partitions(big)


def test_oracle_agrees_with_solver_on_all_four_vertex_graphs():
    for g in enumerate_connected_graphs(4):
        assert mc_oracle_partitions(g) == mc_exact(g).value, g


def test_oracle_agrees_on_random_five_vertex_graphs():
    rng = random.Random(23)
    pool = list(enumerate_connected_graphs(5))
    for g in rng.sample(pool, 60):
        assert mc_oracle_partitions(g) == mc_exact(g).value, edge_mask(g)


def test_oracle_walk_is_pinned():
    # The oracle's walk, counted in calls of its inner dfs over every
    # connected n <= 5 graph: its bookkeeping may change, but not which
    # nodes it visits, so every prune and skip keeps its reach.
    dfs = next(c for c in mc_oracle_partitions.__code__.co_consts if getattr(c, "co_name", None) == "dfs")
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call" and frame.f_code is dfs

    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    outer = sys.getprofile()
    sys.setprofile(count)
    try:
        for g in graphs:
            mc_oracle_partitions(g)
    finally:
        sys.setprofile(outer)
    assert (len(graphs), calls) == (771, 23914)


# ---------------------------------------------------------------------------
# vertex-set search


def _search_matches_oracle(g):
    """Check the solve without the fast path against the oracle.

    Returns whether the search beat the best lower bound; its coloring
    then comes from the vertex-set model, so it must be simple.
    """
    cert = _solve(g)
    assert cert.value == mc_oracle_partitions(g), edge_mask(g)
    lower = max(v for name, v in cert.bound_trace if name.startswith("lower:"))
    if cert.value == lower:
        return False
    assert is_simple(cert.coloring), edge_mask(g)
    assert verify_mc(cert.coloring) is None, edge_mask(g)
    return True


def test_search_matches_oracle_on_all_graphs_up_to_five_vertices():
    graphs = [g for n in range(2, 6) for g in enumerate_connected_graphs(n)]
    assert len(graphs) == 771
    searched = sum(_search_matches_oracle(g) for g in graphs)
    assert searched > 0


def test_search_matches_oracle_on_seven_vertex_graphs():
    # sparse enough for the oracle, dense enough to miss the fast path
    rng = random.Random(7)
    pairs = list(combinations(range(7), 2))
    graphs = []
    while len(graphs) < 25:
        g = from_edges(7, rng.sample(pairs, rng.randint(9, ORACLE_EDGE_CAP)))
        if is_connected(g) and baseline_fast_path(g) is None:
            graphs.append(g)
    searched = sum(_search_matches_oracle(g) for g in graphs)
    assert searched > 0


def test_search_without_an_upper_bound_matches_mc_exact(mc_by_mask):
    # With ub = m no family meets the bound, so the search walks every
    # per-size family to exhaustion on each graph the fast path leaves open.
    open_graphs = 0
    for n in (5, 6):
        for g in enumerate_connected_graphs(n):
            if baseline_fast_path(g) is not None:
                continue
            open_graphs += 1
            start = near_complete_coloring(g)
            value, col = _vertex_set_search(g, start.color_count, g.m)
            if col is None:
                assert value == start.color_count, edge_mask(g)
                col = start
            assert value == mc_by_mask(n)[edge_mask(g)], edge_mask(g)
            assert verify_mc(col) is None, edge_mask(g)
            assert col.color_count == value, edge_mask(g)
    assert open_graphs == 4014


def test_searched_solves_build_the_tree_start_only_when_it_is_the_answer(monkeypatch):
    # Of the 3,432 n = 6 graphs that the bounds leave open, 3,252 start
    # from the spanning-tree count.  The search beats it on all but 90, and
    # only those 90 solves build the tree coloring, which is their answer.
    built = []

    def counting(g):
        col = spanning_tree_coloring(g)
        built.append(col)
        return col

    monkeypatch.setattr(constructions, "spanning_tree_coloring", counting)
    monkeypatch.setattr(solver, "spanning_tree_coloring", counting)
    searched = tree_starts = 0
    for g in enumerate_connected_graphs(6):
        if baseline_fast_path(g) is not None:
            continue
        lb, lb_col, ub, _ = _bounds(g)
        if lb == ub:
            continue
        searched += 1
        tree_starts += lb_col is None
        before = len(built)
        cert = mc_exact(g)
        if len(built) > before:
            assert len(built) == before + 1 and cert.coloring is built[-1], edge_mask(g)
            assert lb_col is None and cert.value == lb == g.m - g.n + 2, edge_mask(g)
            assert verify_mc(cert.coloring) is None, edge_mask(g)
    assert (searched, tree_starts, len(built)) == (3432, 3252, 90)


@pytest.mark.parametrize("sizes, expect", [([3, 3, 3], 21), ([2, 3, 4], 20), ([4, 4, 4], 39)])
def test_dense_multipartite_values(sizes, expect):
    pg = complete_multipartite(sizes)
    assert mc_exact(pg.graph).value == expect
    assert multipartite_star_coloring(pg).color_count == expect


def test_search_coloring_is_revalidated_under_python_O():
    # mc_exact's checks on the search's coloring must survive -O, which
    # strips assert statements.
    code = (
        "import sys\n"
        "from mc_lab import solver\n"
        "from mc_lab.graph_core import parse_graph6\n"
        "solver.verify_mc = lambda col: (0, 1)\n"
        "try:\n"
        "    solver._solve(parse_graph6('E}r?'))\n"
        "except AssertionError as exc:\n"
        "    print(sys.flags.optimize, exc)\n"
    )
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("1 search coloring of "), proc.stdout


@pytest.mark.parametrize("n", range(1, 8))
def test_set_families_match_their_definitions(n):
    has, pair, inside, conv = _set_families(n)
    sets = range(1 << n)

    def family(keep):
        return sum(1 << s for s in sets if keep(s))

    for x in range(n):
        assert has[x] == family(lambda s: s >> x & 1)
        for y in range(x + 1, n):
            assert pair[x * n + y] == family(lambda s: s >> x & 1 and s >> y & 1)
    for s in sets:
        inner = [(x, y) for x, y in combinations(range(n), 2) if s >> x & 1 and s >> y & 1]
        assert inside[s] == sum(1 << (x * n + y) for x, y in inner)
    # conv[r]: the least waste w whose set on w + 2 vertices can hold r
    # nonadjacent pairs, C(w+1, 2) >= r.
    assert len(conv) == comb(n, 2) + 1 and conv[0] == 0
    for r in range(1, comb(n, 2) + 1):
        assert conv[r] == _least_t(r) - 1 == min(w for w in range(r + 1) if comb(w + 1, 2) >= r)
