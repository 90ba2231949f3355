"""Graph primitives: construction, graph6 codec, invariants, enumeration."""

import math
import random
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc_lab.graph_core import (
    ENUMERATION_MAX_VERTICES,
    Graph,
    Graph6Error,
    _chromatic_number,
    _diameter,
    _has_cut_vertex,
    _is_triangle_free,
    _local_connectivity,
    _vertex_connectivity,
    bits,
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
    parse_graph6,
    path_graph,
    spanning_tree,
)

# ---------------------------------------------------------------------------
# brute-force oracles, deliberately independent of the library internals


def _brute_distances(g):
    inf = math.inf
    d = [[0 if i == j else (1 if g.has_edge(i, j) else inf) for j in range(g.n)] for i in range(g.n)]
    for k in range(g.n):
        for i in range(g.n):
            for j in range(g.n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def _brute_diameter(g):
    return max(max(row) for row in _brute_distances(g))


def _brute_chromatic(g):
    es = g.edges()
    for k in range(1, g.n + 1):
        for assign in product(range(k), repeat=g.n):
            if all(assign[u] != assign[v] for u, v in es):
                return k
    raise AssertionError("unreachable")


def _connected_after_removal(g, removed):
    keep = [v for v in range(g.n) if v not in removed]
    if len(keep) <= 1:
        return True
    seen = {keep[0]}
    stack = [keep[0]]
    while stack:
        u = stack.pop()
        for v in keep:
            if v not in seen and g.has_edge(u, v):
                seen.add(v)
                stack.append(v)
    return len(seen) == len(keep)


def _brute_vertex_connectivity(g):
    if g.m == g.n * (g.n - 1) // 2:
        return g.n - 1
    for k in range(g.n - 1):
        for cut in combinations(range(g.n), k):
            if not _connected_after_removal(g, set(cut)):
                return k
    return g.n - 1


def _brute_local_connectivity(g, s, t):
    # size of a minimum vertex set whose removal separates nonadjacent s, t
    others = [v for v in range(g.n) if v not in (s, t)]
    for k in range(len(others) + 1):
        for cut in combinations(others, k):
            seen = {s}
            stack = [s]
            while stack:
                u = stack.pop()
                for v in range(g.n):
                    if v not in seen and v not in cut and g.has_edge(u, v):
                        seen.add(v)
                        stack.append(v)
            if t not in seen:
                return k
    raise AssertionError("unreachable")


def _brute_cut_vertex(g):
    return any(not _connected_after_removal(g, {v}) for v in range(g.n))


def _brute_triangle_free(g):
    return not any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in combinations(range(g.n), 3)
    )


# ---------------------------------------------------------------------------
# construction basics


def test_named_graph_shapes():
    k4 = complete_graph(4)
    assert k4.m == 6
    assert k4.edges() == [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
    assert all(k4.degree(v) == 3 for v in range(4))
    p4 = path_graph(4)
    assert p4.edges() == [(0, 1), (1, 2), (2, 3)]
    assert p4.degree(0) == 1 and p4.degree(1) == 2
    c5 = cycle_graph(5)
    assert c5.m == 5
    assert all(c5.degree(v) == 2 for v in range(5))
    assert c5.has_edge(0, 4) and c5.has_edge(4, 0) and not c5.has_edge(0, 2)


def test_from_edges_accepts_either_endpoint_order():
    assert from_edges(3, [(1, 0), (2, 1)]) == from_edges(3, [(0, 1), (1, 2)])
    assert from_edges(3, [(1, 0), (0, 1), (2, 1)]).m == 2


def test_construction_errors():
    with pytest.raises(ValueError):
        from_edges(1, [])
    with pytest.raises(ValueError):
        from_edges(63, [])
    with pytest.raises(ValueError):
        from_edges(4, [(0, 0)])
    with pytest.raises(ValueError):
        from_edges(4, [(0, 4)])
    with pytest.raises(ValueError):
        Graph(3, [0b010, 0b000, 0b000])  # asymmetric rows
    with pytest.raises(ValueError):
        from_edge_mask(4, 1 << 6)


def test_edge_mask_round_trip_exhaustive_n4():
    for mask in range(1 << 6):
        g = from_edge_mask(4, mask)
        assert edge_mask(g) == mask
        assert g.m == mask.bit_count()
        assert from_edge_mask(4, edge_mask(g)) == g


def test_bits_iterates_set_positions():
    assert list(bits(0)) == []
    assert list(bits(0b1011)) == [0, 1, 3]


# ---------------------------------------------------------------------------
# graph6 codec


def test_graph6_known_strings():
    assert parse_graph6("A_").edges() == [(0, 1)]
    assert parse_graph6("BW").edges() == [(0, 2), (1, 2)]
    assert parse_graph6("Bw").edges() == [(0, 1), (0, 2), (1, 2)]
    assert parse_graph6("B?").edges() == []
    assert not is_connected(parse_graph6("B?"))
    assert parse_graph6("Cr").edges() == [(0, 1), (0, 2), (1, 3), (2, 3)]
    # 5-vertex star whose center is the last vertex
    star = parse_graph6("D?{")
    assert star.edges() == [(0, 4), (1, 4), (2, 4), (3, 4)]
    assert emit_graph6(complete_graph(4)) == "C~"
    assert emit_graph6(cycle_graph(4)) == "Cl"


def test_graph6_round_trip_exhaustive_small():
    for n in (2, 3, 4, 5):
        for mask in range(1 << len(edge_list(n))):
            g = from_edge_mask(n, mask)
            assert parse_graph6(emit_graph6(g)) == g


def test_graph6_round_trip_random_larger():
    rng = random.Random(7)
    for n in range(6, 13):
        for _ in range(40):
            nbits = len(edge_list(n))
            g = from_edge_mask(n, rng.getrandbits(nbits))
            assert parse_graph6(emit_graph6(g)) == g


@settings(derandomize=True, database=None, deadline=None, max_examples=30)
@given(st.data())
def test_graph6_round_trip_every_vertex_count(data):
    for n in range(2, 63):
        mask = data.draw(st.integers(0, (1 << len(edge_list(n))) - 1), label=f"n={n}")
        g = from_edge_mask(n, mask)
        assert parse_graph6(emit_graph6(g)) == g


@st.composite
def graph6_like(draw):
    # a valid header and the right length, so the data bytes get checked
    n = draw(st.integers(2, 12))
    need = (n * (n - 1) // 2 + 5) // 6
    body = st.characters(min_codepoint=63, max_codepoint=128)
    return chr(n + 63) + draw(st.text(body, min_size=need, max_size=need))


@settings(derandomize=True, database=None, deadline=None)
@given(st.text() | graph6_like())
def test_parse_graph6_raises_only_value_error(text):
    try:
        g = parse_graph6(text)
    except ValueError:
        return
    assert emit_graph6(g) == text


def test_graph6_error_offsets():
    cases = [
        ("", "byte 0"),  # empty input
        ("~??", "byte 0"),  # long form not supported
        ("!", "byte 0"),  # header below the printable range
        ("@", "byte 0"),  # n = 1 out of range
        ("D?", "byte 2"),  # truncated data
        ("A_?", "byte 2"),  # trailing data
        ("A" + chr(127), "byte 1"),  # data byte above the range
        ("A!", "byte 1"),  # data byte below the range
        ("A@", "byte 1"),  # nonzero padding bit
    ]
    for text, where in cases:
        with pytest.raises(Graph6Error, match=where.replace("(", "").replace(")", "")):
            parse_graph6(text)


# ---------------------------------------------------------------------------
# complement and metrics


def test_complement_involution_and_degrees():
    for mask in range(1 << 6):
        g = from_edge_mask(4, mask)
        co = complement(g)
        assert co.m == 6 - g.m
        assert complement(co) == g
        assert all(g.degree(v) + co.degree(v) == 3 for v in range(4))


def test_five_cycle_complement_is_again_a_five_cycle():
    co = complement(cycle_graph(5))
    assert co.m == 5
    assert all(co.degree(v) == 2 for v in range(5))
    assert is_connected(co)


def _degrees(g):
    degrees = [g.degree(u) for u in range(g.n)]
    return max(degrees), min(degrees)


def _invariants_match_brute_force(g):
    assert _diameter(g) == _brute_diameter(g)
    assert _chromatic_number(g) == _brute_chromatic(g)
    assert _vertex_connectivity(g) == _brute_vertex_connectivity(g)
    assert _has_cut_vertex(g) == _brute_cut_vertex(g)
    assert _is_triangle_free(g) == _brute_triangle_free(g)


def test_metrics_known_graphs():
    k5 = complete_graph(5)
    assert (*_degrees(k5), _diameter(k5)) == (4, 4, 1)
    assert (_vertex_connectivity(k5), _chromatic_number(k5)) == (4, 5)
    assert not _is_triangle_free(k5) and not _has_cut_vertex(k5)

    p4 = path_graph(4)
    assert (*_degrees(p4), _diameter(p4)) == (2, 1, 3)
    assert (_vertex_connectivity(p4), _chromatic_number(p4)) == (1, 2)
    assert _is_triangle_free(p4) and _has_cut_vertex(p4)

    c5 = cycle_graph(5)
    assert (_diameter(c5), _vertex_connectivity(c5), _chromatic_number(c5)) == (2, 2, 3)
    assert _chromatic_number(cycle_graph(6)) == 2

    two_edges = from_edges(4, [(0, 1), (2, 3)])
    assert _diameter(two_edges) == math.inf
    assert _vertex_connectivity(two_edges) == 0


def test_metrics_against_brute_force_n4():
    for mask in range(1, 1 << 6):
        g = from_edge_mask(4, mask)
        if not is_connected(g):
            continue
        _invariants_match_brute_force(g)


def test_metrics_against_brute_force_sampled_n5():
    rng = random.Random(11)
    pool = list(enumerate_connected_graphs(5))
    for g in rng.sample(pool, 80):
        _invariants_match_brute_force(g)


@st.composite
def small_graphs(draw):
    # edges drawn at a chosen density: sparse graphs are often
    # disconnected, dense ones highly connected, density 1 is complete
    n = draw(st.integers(2, 9))
    density = draw(st.sampled_from([0.2, 0.35, 0.5, 0.65, 0.8, 0.9, 1.0]))
    rng = draw(st.randoms(use_true_random=False))
    return from_edges(n, [e for e in edge_list(n) if rng.random() < density])


# The first augmenting path from 0 to 8 is 0-1-3-6-8; the second must
# enter 6, back up through 3 to 1 and leave by 1-4-7-8.
_REROUTE = from_edges(
    9, [(0, 1), (1, 3), (3, 6), (6, 8), (0, 2), (2, 5), (5, 6), (1, 4), (4, 7), (7, 8)]
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_graphs(), st.integers(0, 8))
@example(_REROUTE, 8)
def test_vertex_connectivity_against_brute_force(g, cap):
    assert _vertex_connectivity(g) == _brute_vertex_connectivity(g)
    for s, t in combinations(range(g.n), 2):
        if g.has_edge(s, t):
            continue
        kappa = _brute_local_connectivity(g, s, t)
        assert _local_connectivity(g.adj, s, t, g.n) == kappa
        assert min(_local_connectivity(g.adj, s, t, cap), cap) == min(kappa, cap)


def test_metric_inequalities_sweep():
    for n in (3, 4, 5):
        for g in enumerate_connected_graphs(n):
            dmax, dmin = _degrees(g)
            kappa = _vertex_connectivity(g)
            assert kappa <= dmin <= dmax
            assert _chromatic_number(g) <= dmax + 1
            assert _has_cut_vertex(g) == (kappa == 1 and n >= 3)


# ---------------------------------------------------------------------------
# enumeration and spanning trees


def test_connected_graph_counts():
    assert sum(1 for _ in enumerate_connected_graphs(3)) == 4
    assert sum(1 for _ in enumerate_connected_graphs(4)) == 38
    assert sum(1 for _ in enumerate_connected_graphs(5)) == 728


def test_connected_counts_by_edge_count_n5():
    per_m = {4: 125, 5: 222, 6: 205, 7: 120, 8: 45, 9: 10, 10: 1}
    for m, expect in per_m.items():
        got = list(enumerate_connected_graphs(5, m_filter=m))
        assert len(got) == expect
        assert all(g.m == m and is_connected(g) for g in got)
    assert sum(per_m.values()) == 728


def test_tree_counts_match_cayley_formula():
    assert sum(1 for _ in enumerate_connected_graphs(4, m_filter=3)) == 4**2
    assert sum(1 for _ in enumerate_connected_graphs(5, m_filter=4)) == 5**3


def test_enumeration_yields_distinct_connected_graphs():
    seen = set()
    for g in enumerate_connected_graphs(4):
        assert is_connected(g)
        seen.add(edge_mask(g))
    assert len(seen) == 38


def test_enumeration_rejects_large_n():
    with pytest.raises(ValueError):
        next(enumerate_connected_graphs(ENUMERATION_MAX_VERTICES + 1))


def test_spanning_tree_is_breadth_first_from_zero():
    assert sorted(spanning_tree(cycle_graph(5))) == [(0, 1), (0, 4), (1, 2), (3, 4)]
    assert sorted(spanning_tree(complete_graph(4))) == [(0, 1), (0, 2), (0, 3)]


def test_spanning_tree_properties():
    for g in enumerate_connected_graphs(4):
        tree = spanning_tree(g)
        assert len(tree) == 3
        assert tree <= set(g.edges())
        assert is_connected(from_edges(4, tree))
    with pytest.raises(ValueError):
        spanning_tree(from_edges(4, [(0, 1), (2, 3)]))


def _queue_bfs_tree(g):
    # reference: a FIFO queue, unseen neighbors enqueued in ascending order
    seen = {0}
    queue = [0]
    tree = set()
    for u in queue:
        for w in range(g.n):
            if g.has_edge(u, w) and w not in seen:
                seen.add(w)
                tree.add((min(u, w), max(u, w)))
                queue.append(w)
    return tree


def test_spanning_tree_follows_queue_order_not_vertex_order():
    # 0 discovers 3 before 5, and 3 discovers 4 before 5 discovers 2, so 1
    # (adjacent to 2 and 4) hangs off 4, the vertex dequeued first.
    g = from_edges(6, [(0, 3), (0, 5), (3, 4), (5, 2), (4, 1), (2, 1)])
    assert spanning_tree(g) == _queue_bfs_tree(g)
    assert (1, 4) in spanning_tree(g)
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 16)
        g = from_edges(n, [e for e in edge_list(n) if rng.random() < rng.choice([0.15, 0.3, 0.6])])
        if is_connected(g):
            assert spanning_tree(g) == _queue_bfs_tree(g)

