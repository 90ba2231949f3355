"""Coloring constructions and the graph families built for them."""

import random
from math import comb

import pytest

from mc_lab.coloring import is_simple, verify_mc
from mc_lab.constructions import (
    PartitionedGraph,
    _coloring_from_groups,
    anchored_partition_coloring,
    build_anchored_partition,
    build_augmented_split_graph,
    build_degree_two_witness,
    build_diameter_three_witness,
    complete_multipartite,
    multipartite_star_coloring,
    near_complete_coloring,
    spanning_tree_coloring,
)
from mc_lab.graph_core import (
    complete_graph,
    cycle_graph,
    edge_list,
    emit_graph6,
    enumerate_connected_graphs,
    from_edge_mask,
    from_edges,
    is_connected,
    path_graph,
    spanning_tree,
)
from test_graph_core import _brute_diameter


def _without(n, missing):
    return from_edges(
        n, [e for e in complete_graph(n).edges() if e not in set(missing)]
    )


# ---------------------------------------------------------------------------
# spanning tree baseline


def test_spanning_coloring_color_count_and_validity():
    for n in (3, 4, 5):
        for g in enumerate_connected_graphs(n):
            col = spanning_tree_coloring(g)
            assert col.color_count == g.m - n + 2
            assert verify_mc(col) is None
            assert all(c.is_tree for c in col.classes())


def test_spanning_coloring_of_a_tree_uses_one_color():
    col = spanning_tree_coloring(path_graph(5))
    assert col.color_count == 1


def _reference_spanning_coloring(g):
    return _coloring_from_groups(g, [sorted(spanning_tree(g))])


def _tree_then_fresh_colors(g):
    # Tree edges share color 0; every other edge takes the next fresh id
    # in lexicographic edge order.
    tree = spanning_tree(g)
    colors, fresh = [], 0
    for e in g.edges():
        if e in tree:
            colors.append(0)
        else:
            fresh += 1
            colors.append(fresh)
    return tuple(colors)


def test_spanning_coloring_matches_the_group_construction():
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert spanning_tree_coloring(g) == _reference_spanning_coloring(g)
    rng = random.Random(16)
    checked = 0
    while checked < 200:
        n = rng.randint(7, 16)
        g = from_edges(n, [e for e in edge_list(n) if rng.random() < rng.choice([0.2, 0.5, 0.9])])
        if is_connected(g):
            col = spanning_tree_coloring(g)
            assert col == _reference_spanning_coloring(g)
            assert col.colors == _tree_then_fresh_colors(g), emit_graph6(g)
            checked += 1


def test_spanning_coloring_rejects_disconnected_input():
    with pytest.raises(ValueError):
        spanning_tree_coloring(from_edges(4, [(0, 1), (2, 3)]))
    with pytest.raises(ValueError):
        spanning_tree_coloring(from_edges(7, [(0, 1), (1, 2), (3, 4), (4, 5), (5, 6)]))


def test_group_coloring_rejects_bad_groups():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError, match="not in the graph") as absent:
        _coloring_from_groups(c4, [[(0, 1), (0, 2)]])
    assert str(absent.value) == "group edge (0, 2) is not in the graph"
    with pytest.raises(ValueError, match="two groups") as twice:
        _coloring_from_groups(c4, [[(0, 1), (1, 2)], [(2, 3), (1, 0)]])
    assert str(twice.value) == "edge (0, 1) appears in two groups"
    with pytest.raises(ValueError, match="two groups"):
        _coloring_from_groups(c4, [[(0, 1), (1, 0)]])
    # A reversed edge is named with its lower endpoint first.
    with pytest.raises(ValueError) as reversed_absent:
        _coloring_from_groups(c4, [[(3, 1)]])
    assert str(reversed_absent.value) == "group edge (1, 3) is not in the graph"


# ---------------------------------------------------------------------------
# near-complete coloring


def test_near_complete_on_complete_graph_is_rainbow():
    col = near_complete_coloring(complete_graph(5))
    assert col.color_count == 10
    assert col.waste == 0


def test_near_complete_single_missing_edge():
    g = _without(5, [(3, 4)])
    col = near_complete_coloring(g)
    assert col.color_count == 8  # nine edges, one two-edge star
    assert verify_mc(col) is None
    assert col.waste == 1


def test_near_complete_star_case():
    # all missing edges touch vertex 1; one star from a full-degree vertex
    g = _without(6, [(1, 2), (1, 3)])
    col = near_complete_coloring(g)
    assert col.waste == 2
    assert verify_mc(col) is None
    nontrivial = [c for c in col.classes() if c.is_nontrivial]
    assert len(nontrivial) == 1
    assert all(u == 0 for u, _ in nontrivial[0].edges)


def test_near_complete_double_star_case():
    # complement components {0,1,2} and {3,4}; one four-edge double star
    g = _without(6, [(0, 1), (0, 2), (3, 4)])
    col = near_complete_coloring(g)
    assert col.waste == 3
    assert col.color_count == g.m - 3
    assert verify_mc(col) is None
    nontrivial = [c for c in col.classes() if c.is_nontrivial]
    assert len(nontrivial) == 1 and len(nontrivial[0].edges) == 4


def test_near_complete_cyclic_star_case():
    # complement is a perfect matching: three components, three stars
    g = _without(6, [(0, 1), (2, 3), (4, 5)])
    col = near_complete_coloring(g)
    assert col.waste == 3
    assert col.color_count == 9
    assert verify_mc(col) is None
    nontrivial = [c for c in col.classes() if c.is_nontrivial]
    assert len(nontrivial) == 3
    assert all(len(c.edges) == 2 for c in nontrivial)


def test_near_complete_falls_back_to_spanning_when_sparse():
    col = near_complete_coloring(path_graph(6))
    assert col.color_count == 1
    assert verify_mc(col) is None
    col2 = near_complete_coloring(cycle_graph(6))
    assert col2.color_count == 2
    assert verify_mc(col2) is None


def test_near_complete_waste_bound_over_all_small_graphs():
    for n in (3, 4, 5):
        for g in enumerate_connected_graphs(n):
            col = near_complete_coloring(g)
            assert verify_mc(col) is None
            assert col.waste <= comb(n, 2) - g.m


def test_near_complete_never_below_the_spanning_tree_count():
    # licenses mc_exact taking it as the lower-bound coloring outright
    for n in range(2, 7):
        for g in enumerate_connected_graphs(n):
            assert near_complete_coloring(g).color_count >= g.m - n + 2


def test_near_complete_rejects_disconnected_input():
    # A disconnected graph misses at least n - 1 edges, so it always takes
    # the spanning-tree branch, whose BFS raises.
    rejected = 0
    for n in range(2, 7):
        for mask in range(1 << comb(n, 2)):
            g = from_edge_mask(n, mask)
            if is_connected(g):
                continue
            with pytest.raises(ValueError):
                near_complete_coloring(g)
            rejected += 1
    assert rejected == 6391


# ---------------------------------------------------------------------------
# complete multipartite graphs


def test_complete_multipartite_shape():
    pg = complete_multipartite([2, 2, 2])
    assert pg.classes == ((0, 1), (2, 3), (4, 5))
    assert pg.graph.m == 12
    assert not pg.graph.has_edge(0, 1) and pg.graph.has_edge(0, 2)


def test_complete_multipartite_validation():
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([3])
    with pytest.raises(ValueError):
        complete_multipartite([0, 2])


def test_multipartite_star_coloring_counts():
    octa = complete_multipartite([2, 2, 2])
    col = multipartite_star_coloring(octa)
    assert col.color_count == octa.graph.m - octa.graph.n + 3
    assert verify_mc(col) is None

    k23 = complete_multipartite([2, 3])
    col2 = multipartite_star_coloring(k23)
    assert col2.color_count == k23.graph.m - k23.graph.n + 2
    assert verify_mc(col2) is None

    k33 = complete_multipartite([3, 3])
    col3 = multipartite_star_coloring(k33)
    assert col3.color_count == 9 - 6 + 2
    assert verify_mc(col3) is None


def test_multipartite_star_coloring_rejects_missing_cross_edges():
    pg = PartitionedGraph(path_graph(4), ((0, 2), (1, 3)))
    with pytest.raises(ValueError):
        multipartite_star_coloring(pg)


def test_partitioned_graph_validation():
    c4 = cycle_graph(4)
    with pytest.raises(ValueError):
        PartitionedGraph(c4, ((0, 1), (1, 2, 3)))  # overlap
    with pytest.raises(ValueError):
        PartitionedGraph(c4, ((0, 1),))  # does not cover
    with pytest.raises(ValueError):
        PartitionedGraph(c4, ((1, 0), (2, 3)))  # not ascending
    with pytest.raises(ValueError):
        PartitionedGraph(c4, ((0, 2), (1, 3)), anchors=(0,))  # anchor count
    with pytest.raises(ValueError):
        PartitionedGraph(c4, ((0, 2), (1, 3)), anchors=(1, 0))  # anchor outside class
    with pytest.raises(ValueError):
        # 0 and 1 are adjacent in C_4, so 0 cannot anchor a class holding 1
        PartitionedGraph(c4, ((0, 1), (2, 3)), anchors=(0, 2))
    with pytest.raises(ValueError, match="^empty vertex class$"):
        PartitionedGraph(c4, ((), (0, 1, 2, 3)))


# ---------------------------------------------------------------------------
# anchored partition family


def test_anchored_partition_shapes():
    pg = build_anchored_partition(6, 3)
    assert pg.classes == ((0, 1), (2, 3), (4, 5))
    assert pg.anchors == (0, 2, 4)
    assert pg.graph.m == comb(6, 2) - 6 + 3
    assert emit_graph6(pg.graph) == "E]~o"

    pg7 = build_anchored_partition(7, 3)
    assert tuple(len(c) for c in pg7.classes) == (3, 2, 2)
    assert pg7.graph.m == comb(7, 2) - 7 + 3 == 17

    pg5 = build_anchored_partition(5, 4)
    assert pg5.graph.m == comb(5, 2) - 5 + 4


def test_anchored_partition_with_all_singleton_classes_is_complete():
    pg = build_anchored_partition(5, 5)
    assert pg.graph == complete_graph(5)


def test_anchored_partition_coloring_counts():
    for n, t in [(6, 3), (7, 3), (5, 4), (5, 5), (9, 4)]:
        pg = build_anchored_partition(n, t)
        col = anchored_partition_coloring(pg)
        assert col.color_count == comb(n, 2) - 2 * n + 2 * t
        assert verify_mc(col) is None
        assert all(c.is_tree for c in col.classes())
        assert is_simple(col)


def test_anchored_partition_coloring_rejects_other_partitions():
    # C_4 split into its two nonadjacent pairs, without anchors
    with pytest.raises(ValueError, match="^not a graph built by build_anchored_partition$"):
        anchored_partition_coloring(PartitionedGraph(cycle_graph(4), ((0, 2), (1, 3))))


def test_anchored_partition_range_errors():
    with pytest.raises(ValueError):
        build_anchored_partition(6, 2)
    with pytest.raises(ValueError):
        build_anchored_partition(4, 5)


# ---------------------------------------------------------------------------
# augmented split graphs


def test_augmented_split_graph_counts():
    g, col = build_augmented_split_graph(6, 3, 0)
    assert g.m == comb(3, 2) + 3 * 3
    assert col.color_count == g.m - 3 + 1 == 10
    assert verify_mc(col) is None

    g1, col1 = build_augmented_split_graph(6, 3, 1)
    assert g1.m == g.m + 1
    assert col1.color_count == 11

    g2, col2 = build_augmented_split_graph(7, 2, 0)
    assert g2.m == comb(5, 2) + 2 * 5
    assert col2.color_count == 19


def test_augmented_split_graph_structure():
    g, _ = build_augmented_split_graph(6, 3, 1)
    # clique on 0..2, one extra pair inside 3..5
    assert all(g.has_edge(u, v) for u in range(3) for v in range(u + 1, 3))
    assert g.has_edge(3, 4) and not g.has_edge(3, 5) and not g.has_edge(4, 5)
    assert all(g.has_edge(u, v) for u in range(3) for v in range(3, 6))


def test_augmented_split_graph_range_errors():
    with pytest.raises(ValueError):
        build_augmented_split_graph(6, 1, 0)
    with pytest.raises(ValueError):
        build_augmented_split_graph(6, 6, 0)
    with pytest.raises(ValueError):
        build_augmented_split_graph(6, 3, 2)
    with pytest.raises(ValueError):
        build_augmented_split_graph(6, 3, -1)


# ---------------------------------------------------------------------------
# sparse witnesses


def test_diameter_three_witness():
    for n in (5, 6, 7, 8):
        g = build_diameter_three_witness(n)
        assert g.m == comb(n, 2) - n + 1
        assert _brute_diameter(g) == 3
        assert g.degree(n - 2) == 1
        assert is_connected(g)


def test_diameter_three_witness_range():
    with pytest.raises(ValueError):
        build_diameter_three_witness(4)


def test_degree_two_witness_range():
    with pytest.raises(ValueError, match="^need n >= 3, got 2$"):
        build_degree_two_witness(2)


def test_degree_two_witness():
    assert build_degree_two_witness(3) == path_graph(3)
    assert build_degree_two_witness(4) == cycle_graph(4)
    for n in (5, 6, 7):
        g = build_degree_two_witness(n)
        assert g.m == comb(n, 2) - n + 2
        degs = sorted(g.degree(v) for v in range(n))
        assert degs[0] == 2
        assert is_connected(g)
