"""Acceptance suite: ten exact certifications of the solver and the formulas.

Every check is an exact-equality statement over an exhaustively enumerated
range (plus construction checks up to 40 vertices).  Each test finishes by
printing one summary line, so `pytest -v -s` reads as a checklist.
"""

import random
from math import comb

from mc_lab.coloring import verify_mc
from mc_lab.constructions import (
    anchored_partition_coloring,
    build_anchored_partition,
    build_augmented_split_graph,
    near_complete_coloring,
)
from mc_lab.formulas import (
    max_edges_capping,
    max_edges_within,
    min_edges_forcing,
    min_edges_reaching,
    split_graph_base_edges,
)
from mc_lab.graph_core import (
    _chromatic_number,
    _has_cut_vertex,
    _is_triangle_free,
    _vertex_connectivity,
    complement,
    edge_mask,
    enumerate_connected_graphs,
    from_edge_mask,
)
from mc_lab.harness import empirical_cap_table, empirical_force_table
from mc_lab.solver import (
    _solve,
    baseline_fast_path,
    is_s_perfectly_connected,
    mc_exact,
    mc_oracle_partitions,
)
from test_graph_core import _brute_diameter


def test_acceptance_01_oracle_equivalence(mc_by_mask):
    checked = 0
    for n in (3, 4, 5):
        for mask, value in mc_by_mask(n).items():
            g = from_edge_mask(n, mask)
            assert mc_oracle_partitions(g) == value, (n, mask)
            checked += 1
    assert checked == 4 + 38 + 728

    values6 = mc_by_mask(6)
    rng = random.Random(2026)
    sampled = set()
    while len(sampled) < 200:
        mask = rng.getrandbits(15)
        if mask in sampled or mask not in values6:
            continue
        if mask.bit_count() > 12:
            continue
        g = from_edge_mask(6, mask)
        assert mc_oracle_partitions(g) == values6[mask], mask
        sampled.add(mask)
    print(
        "acceptance 01 PASS: partition oracle equals the solver on all "
        f"{checked} connected graphs with n <= 5 and 200 random n = 6 graphs"
    )


def test_acceptance_02_forcing_thresholds_certified(sweep3, sweep4, sweep5, sweep6):
    cells = 0
    for sw in (sweep3, sweep4, sweep5, sweep6):
        n = sw.n
        observed = empirical_force_table(sw)
        for k in range(1, comb(n, 2) + 1):
            assert observed[k] == min_edges_forcing(n, k).value, (n, k)
            cells += 1
    print(
        f"acceptance 02 PASS: forcing thresholds match exhaustive sweeps on {cells} "
        "table cells for n = 3..6"
    )


def test_acceptance_03_capping_thresholds_certified(sweep3, sweep4, sweep5, sweep6):
    cells = 0
    for sw in (sweep3, sweep4, sweep5, sweep6):
        n = sw.n
        observed = empirical_cap_table(sw)
        for k in range(1, comb(n, 2) + 1):
            assert observed[k] == max_edges_capping(n, k).value, (n, k)
            cells += 1
    row5 = [max_edges_capping(5, k).value for k in range(1, 11)]
    assert row5 == [4, 5, 6, 6, 7, 8, 8, 9, 9, 10]
    print(
        f"acceptance 03 PASS: capping thresholds match exhaustive sweeps on {cells} "
        "table cells for n = 3..6, including the hand-checked n = 5 row"
    )


def test_acceptance_04_anchored_partition_family():
    for n in range(3, 8):
        for t in range(3, n + 1):
            g = build_anchored_partition(n, t).graph
            assert mc_exact(g).value == comb(n, 2) - 2 * n + 2 * t, (n, t)
    built = 0
    for n in range(3, 41):
        for t in range(3, n + 1):
            pg = build_anchored_partition(n, t)
            col = anchored_partition_coloring(pg)
            assert col.color_count == comb(n, 2) - 2 * n + 2 * t, (n, t)
            assert verify_mc(col) is None, (n, t)
            built += 1
    print(
        "acceptance 04 PASS: anchored-partition values solved exactly for n <= 7 "
        f"and attained by the shipped coloring on {built} members up to n = 40"
    )


def test_acceptance_05_augmented_split_sharpness():
    solved = 0
    for n in range(3, 8):
        for t in range(2, n):
            for extra in range(0, t - 1):
                g, col = build_augmented_split_graph(n, t, extra)
                assert mc_exact(g).value == g.m - t + 1, (n, t, extra)
                assert col.color_count == g.m - t + 1
                solved += 1
    built = 0
    for n in range(3, 41):
        for t in range(2, n):
            for extra in range(0, t - 1):
                g, col = build_augmented_split_graph(n, t, extra)
                assert col.color_count == g.m - t + 1, (n, t, extra)
                assert verify_mc(col) is None, (n, t, extra)
                built += 1
    print(
        f"acceptance 05 PASS: edge-window cap is tight on all {solved} augmented "
        f"split graphs with n <= 7; coloring attains it on {built} members up to n = 40"
    )


def _baseline_conditions(g):
    n, m = g.n, g.m
    dmax = max(g.degree(v) for v in range(n))
    yield (n - dmax) * (n - 3) > 2 * m - 3 * (n - 1)
    yield _is_triangle_free(g)
    yield _has_cut_vertex(g)
    yield _brute_diameter(g) >= 3
    yield _vertex_connectivity(complement(g)) >= 4


def test_acceptance_06_baseline_conditions_regression():
    eligible = 0
    for n in (4, 5, 6):
        for g in enumerate_connected_graphs(n):
            holds = any(_baseline_conditions(g))
            assert holds == (baseline_fast_path(g) is not None), edge_mask(g)
            if holds:
                assert _solve(g).value == g.m - n + 2, edge_mask(g)
                eligible += 1
    print(
        f"acceptance 06 PASS: all {eligible} graphs with n = 4..6 meeting a cheap "
        "structural condition solve to the spanning-tree value m - n + 2"
    )


def test_acceptance_07_upper_bound_regression(mc_by_mask):
    checked = 0
    for n in (3, 4, 5, 6):
        for mask, mc in mc_by_mask(n).items():
            g = from_edge_mask(n, mask)
            m = g.m
            assert mc <= m - n + _chromatic_number(g), mask
            assert mc <= m - n + _vertex_connectivity(g) + 1, mask
            s = min(g.degree(v) for v in range(n))
            if is_s_perfectly_connected(g, s):
                assert mc == m - n + s + 1, mask
            else:
                assert mc <= m - n + s, mask
            checked += 1
    print(
        f"acceptance 07 PASS: chromatic, connectivity, and minimum-degree bounds "
        f"hold on all {checked} connected graphs with n <= 6, with the "
        "perfectly-connected dichotomy exact"
    )


def test_acceptance_08_near_complete_achievability():
    checked = 0
    for n in (2, 3, 4, 5, 6):
        for g in enumerate_connected_graphs(n):
            p = comb(n, 2) - g.m
            assert p <= comb(n - 1, 2)  # implied by connectivity
            col = near_complete_coloring(g)
            assert verify_mc(col) is None, edge_mask(g)
            assert col.waste <= p, edge_mask(g)
            checked += 1
    print(
        f"acceptance 08 PASS: dense coloring is valid and wastes at most the "
        f"missing-edge count on all {checked} connected graphs with n <= 6"
    )


def test_acceptance_09_spanning_subgraph_inheritance(mc_by_mask):
    groundings = 0
    for n in (3, 4, 5):
        values = mc_by_mask(n)
        for mask, mc in values.items():
            if mc != mask.bit_count() - n + 2:
                continue
            sub = (mask - 1) & mask
            while sub:
                if sub in values:  # connected spanning subgraph
                    assert values[sub] == sub.bit_count() - n + 2, (mask, sub)
                    groundings += 1
                sub = (sub - 1) & mask
    print(
        "acceptance 09 PASS: the spanning-tree value is inherited by all "
        f"{groundings} connected spanning subgraphs of extremal graphs with n <= 5"
    )


def test_acceptance_10_threshold_identities_and_windows():
    for n in range(2, 51):
        top = comb(n, 2)
        assert min_edges_reaching(n, 1).value == n - 1
        for k in range(2, top + 1):
            assert min_edges_reaching(n, k).value == max_edges_capping(n, k - 1).value + 1
        for k in range(1, top):
            assert max_edges_within(n, k).value == min_edges_forcing(n, k + 1).value - 1
        assert max_edges_within(n, top).value == top
    for n in range(3, 51):
        covered = []
        for t in range(n - 1, 1, -1):
            hi = split_graph_base_edges(n, t)
            covered.extend(range(hi - t + 1, hi + 1))
        assert covered == list(range(1, comb(n, 2))), n
    print(
        "acceptance 10 PASS: shift identities and window tiling hold for all n <= 50"
    )
