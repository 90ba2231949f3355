"""Graph primitives: construction, graph6 codec, invariants, enumeration."""

import math
import random
import re
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mc_lab import graph_core
from mc_lab.graph_core import (
    ENUMERATION_MAX_VERTICES,
    Graph,
    Graph6Error,
    _chromatic_number,
    _has_cut_vertex,
    _has_far_pair,
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


def _subset_dp_chromatic(g):
    # chi is the least number of independent sets that cover V; cover[S]
    # is that number for the vertex set S, taking the set that holds S's
    # lowest vertex first
    n = g.n
    indep = [True] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        u = low.bit_length() - 1
        rest = mask ^ low
        indep[mask] = indep[rest] and not any(
            rest >> v & 1 and g.has_edge(u, v) for v in range(n)
        )
    cover = [0] * (1 << n)
    for mask in range(1, 1 << n):
        low = mask & -mask
        rest = sub = mask ^ low
        best = n
        while True:
            if indep[sub | low]:
                best = min(best, cover[rest ^ sub] + 1)
            if not sub:
                break
            sub = (sub - 1) & rest
        cover[mask] = best
    return cover[-1]


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


@pytest.mark.parametrize(
    "rows, error",
    [
        ([0b110, 0b001], "expected 3 adjacency rows, got 2"),
        ([0b1000, 0, 0], "adjacency row 0 mentions vertices >= 3"),
        ([0, 0b010, 0], "self-loop at vertex 1"),
    ],
)
def test_graph_rejects_malformed_rows(rows, error):
    with pytest.raises(ValueError, match=f"^{re.escape(error)}$"):
        Graph(3, rows)


def test_cycle_graph_needs_three_vertices():
    with pytest.raises(ValueError, match="^a cycle needs at least 3 vertices$"):
        cycle_graph(2)


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
    assert _has_far_pair(g) == (_brute_diameter(g) >= 3)
    assert _chromatic_number(g) == _brute_chromatic(g)
    assert _vertex_connectivity(g) == _brute_vertex_connectivity(g)
    assert _has_cut_vertex(g) == _brute_cut_vertex(g)
    assert _is_triangle_free(g) == _brute_triangle_free(g)


def test_metrics_known_graphs():
    k5 = complete_graph(5)
    assert _degrees(k5) == (4, 4) and not _has_far_pair(k5)
    assert (_vertex_connectivity(k5), _chromatic_number(k5)) == (4, 5)
    assert not _is_triangle_free(k5) and not _has_cut_vertex(k5)

    p4 = path_graph(4)
    assert _degrees(p4) == (2, 1) and _has_far_pair(p4)
    assert (_vertex_connectivity(p4), _chromatic_number(p4)) == (1, 2)
    assert _is_triangle_free(p4) and _has_cut_vertex(p4)

    c5 = cycle_graph(5)
    assert not _has_far_pair(c5)
    assert (_vertex_connectivity(c5), _chromatic_number(c5)) == (2, 3)
    assert _chromatic_number(cycle_graph(6)) == 2

    two_edges = from_edges(4, [(0, 1), (2, 3)])
    assert _has_far_pair(two_edges)
    assert _vertex_connectivity(two_edges) == 0

    assert (_chromatic_number(_CROWN), _chromatic_number(_GROETZSCH)) == (2, 4)
    assert _is_triangle_free(_GROETZSCH)


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


# Crown graph S_4^0 (u_i = 2i, v_i = 2i + 1, u_i ~ v_j for i != j): the
# greedy coloring in degree order pairs u_i with v_i and uses 4 colors,
# while chi = 2.
_CROWN = from_edges(8, [(2 * i, 2 * j + 1) for i in range(4) for j in range(4) if i != j])
# Groetzsch graph: a 5-cycle, a shadow vertex 5 + i joined to the cycle
# neighbours of i, and a hub 10 joined to every shadow; chi = 4, omega = 2.
_GROETZSCH = from_edges(
    11,
    [(i, (i + 1) % 5) for i in range(5)]
    + [(5 + i, (i + d) % 5) for i in range(5) for d in (1, 4)]
    + [(5 + i, 10) for i in range(5)],
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_graphs())
@example(_CROWN)
@example(_GROETZSCH)
def test_chromatic_number_against_subset_dp(g):
    assert _chromatic_number(g) == _subset_dp_chromatic(g)


def test_chromatic_number_past_its_node_budget_returns_the_greedy_count(monkeypatch):
    # The crown graph's greedy count is 4 and chi is 2.  With no node to
    # spend, no k below 4 is proved, so the greedy count, still an upper
    # bound on chi, stands.
    monkeypatch.setattr(graph_core, "_CHI_NODE_BUDGET", 0)
    assert _chromatic_number(_CROWN) == 4 >= _subset_dp_chromatic(_CROWN) == 2


# Two disjoint triangles: removing any vertex leaves the rest disconnected.
# The next four sit at the 2 * delta >= n shortcut: the bowtie (n = 5) and
# two K_4 sharing a vertex (n = 7) have 2 * delta = n - 1 and a cut vertex;
# C_4 and K_{3,3} have 2 * delta = n and none.
@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_graphs())
@example(from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]))
@example(from_edges(5, [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)]))
@example(from_edges(7, list(combinations(range(4), 2)) + list(combinations(range(3, 7), 2))))
@example(cycle_graph(4))
@example(from_edges(6, [(a, b) for a in range(3) for b in range(3, 6)]))
def test_cut_vertex_against_brute_force(g):
    assert _has_cut_vertex(g) == _brute_cut_vertex(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(small_graphs())
def test_far_pair_against_brute_force(g):
    assert _has_far_pair(g) == (_brute_diameter(g) >= 3)


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
    graphs = list(enumerate_connected_graphs(5))
    for m, expect in per_m.items():
        got = [g for g in graphs if g.m == m]
        assert len(got) == expect
        assert all(is_connected(g) for g in got)
    assert sum(per_m.values()) == 728


def test_tree_counts_match_cayley_formula():
    assert sum(1 for g in enumerate_connected_graphs(4) if g.m == 3) == 4**2
    assert sum(1 for g in enumerate_connected_graphs(5) if g.m == 4) == 5**3


def test_enumeration_over_mask_ranges_concatenates_to_the_full_walk():
    full = [edge_mask(g) for g in enumerate_connected_graphs(5)]
    assert full == sorted(full)
    total = 1 << len(edge_list(5))
    rng = random.Random(14)
    chunkings = [list(range(0, total, step)) + [total] for step in (1, 7, 256, 1000)]
    chunkings.append([0, *sorted(rng.sample(range(1, total), 9)), total])
    for cuts in chunkings:
        chunked = [
            edge_mask(g)
            for a, b in zip(cuts, cuts[1:])
            for g in enumerate_connected_graphs(5, range(a, b))
        ]
        assert chunked == full, cuts[:3]


def _per_mask_rebuild(n, masks):
    return [g for g in (from_edge_mask(n, k) for k in masks) if is_connected(g)]


def _assert_same_walk(got, want):
    assert [(g.n, g.adj, g.m) for g in got] == [(g.n, g.adj, g.m) for g in want]
    assert all(type(g.adj) is tuple for g in got)


def test_incremental_enumeration_matches_per_mask_rebuild():
    for n in range(2, 7):
        masks = range(1 << len(edge_list(n)))
        _assert_same_walk(list(enumerate_connected_graphs(n)), _per_mask_rebuild(n, masks))


def test_incremental_enumeration_on_subranges_starting_mid_space():
    total = 1 << len(edge_list(6))
    rng = random.Random(15)
    ranges = [range(a, a) for a in rng.sample(range(total), 3)]
    ranges += [range(a, a + 1) for a in rng.sample(range(total), 20)]
    for _ in range(12):
        a, b = sorted(rng.sample(range(total + 1), 2))
        ranges.append(range(a, b))
    a = rng.randrange(total // 2)
    ranges += [range(a, total, 7), range(total - 1, a, -5)]
    for masks in ranges:
        _assert_same_walk(list(enumerate_connected_graphs(6, masks)), _per_mask_rebuild(6, masks))


@pytest.mark.parametrize("masks", [range(60, 70), range(-1, 5), range(64, 0, -1), range(0, 70, 8)])
def test_enumeration_rejects_masks_outside_the_space_before_yielding(masks):
    walk = enumerate_connected_graphs(4, masks)  # 6 pairs: masks 0..63
    with pytest.raises(ValueError, match="outside 0..63"):
        next(walk)


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

