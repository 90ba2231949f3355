"""Closed-form edge thresholds: frozen rows, regimes, identities, windows."""

from math import comb

import pytest

from mc_lab.formulas import (
    max_edges_capping,
    max_edges_within,
    min_edges_forcing,
    min_edges_reaching,
    split_graph_base_edges,
    table_rows,
)

# hand-checked against exhaustive enumeration of all small connected graphs
FROZEN = {
    ("f", 4): [3, 4, 5, 5, 6, 6],
    ("g", 4): [3, 4, 4, 5, 5, 6],
    ("t", 4): [3, 4, 5, 5, 6, 6],
    ("s", 4): [3, 4, 4, 5, 5, 6],
    ("f", 5): [4, 5, 6, 7, 8, 8, 9, 9, 10, 10],
    ("g", 5): [4, 5, 6, 6, 7, 8, 8, 9, 9, 10],
}


def test_frozen_rows():
    for (code, n), values in FROZEN.items():
        got = [r.value for r in table_rows(code, n)]
        assert got == values, (code, n)


def test_table_rows_metadata():
    rows = table_rows("f", 5)
    assert [r.k for r in rows] == list(range(1, 11))
    assert all(r.function == "f" and r.n == 5 for r in rows)
    with pytest.raises(ValueError):
        table_rows("q", 5)


def test_split_graph_base_edges():
    assert split_graph_base_edges(6, 3) == comb(3, 2) + 9 == 12
    assert split_graph_base_edges(7, 2) == comb(5, 2) + 10 == 20
    assert split_graph_base_edges(5, 4) == comb(1, 2) + 4 == 4


def test_forcing_regime_boundary():
    # n = 6: the linear regime covers k <= C(6,2) - 2*6 + 4 = 7
    for k in range(1, 8):
        r = min_edges_forcing(6, k)
        assert r.regime == "linear" and r.value == 6 + k - 2
    for k in range(8, 16):
        r = min_edges_forcing(6, k)
        assert r.regime == "half-step"
        assert r.value == 15 + (k - 15 + 1) // 2
    assert min_edges_forcing(6, 15).value == 15


def test_capping_regimes():
    assert max_edges_capping(6, 15).regime == "complete"
    assert max_edges_capping(6, 15).value == 15
    # g(6,10): k = 10 lands in the t = 3 window with base 12
    r = max_edges_capping(6, 10)
    assert r.value == 12 and r.regime == "interior(t=3)"
    r_edge = max_edges_capping(6, 12)
    assert r_edge.regime == "edge(t=3)" and r_edge.value == 13
    assert max_edges_capping(6, 5).regime == "edge(t=5)"


def test_reaching_and_within_regimes():
    assert min_edges_reaching(5, 1).value == 4
    assert min_edges_reaching(5, 1).regime == "minimum-connected"
    assert min_edges_reaching(5, 2).regime.startswith("cap-shift")
    assert max_edges_within(5, 10).regime == "complete"
    assert max_edges_within(5, 3).regime.startswith("force-shift")


def test_shift_identities_small():
    for n in (4, 5, 6):
        top = comb(n, 2)
        for k in range(2, top + 1):
            assert min_edges_reaching(n, k).value == max_edges_capping(n, k - 1).value + 1
        for k in range(1, top):
            assert max_edges_within(n, k).value == min_edges_forcing(n, k + 1).value - 1
        assert min_edges_reaching(n, 1).value == n - 1
        assert max_edges_within(n, top).value == top


def test_rows_are_monotone_and_bounded():
    for code in ("f", "g", "t", "s"):
        for n in (4, 5, 6, 7):
            vals = [r.value for r in table_rows(code, n)]
            assert all(a <= b for a, b in zip(vals, vals[1:]))
            assert all(n - 1 <= v <= comb(n, 2) for v in vals)
            assert vals[-1] == comb(n, 2)


def test_forcing_never_below_capping():
    # forcing mc >= k takes at least as many edges as capping at k - 1 allows
    for n in (4, 5, 6, 7):
        for k in range(2, comb(n, 2) + 1):
            assert min_edges_forcing(n, k).value > max_edges_capping(n, k - 1).value


def test_argument_validation():
    for fn in (min_edges_forcing, max_edges_capping, min_edges_reaching, max_edges_within):
        with pytest.raises(ValueError):
            fn(5, 0)
        with pytest.raises(ValueError):
            fn(5, 11)
        with pytest.raises(ValueError):
            fn(1, 1)


def test_capping_windows_partition_the_k_range():
    # every k below C(n,2) falls in exactly one (t, interior-or-edge) window,
    # and g takes its value and regime from that window
    for n in range(3, 121):
        top = comb(n, 2)
        walk = {top: (top, "complete")}
        for t in range(n - 1, 1, -1):
            hi = split_graph_base_edges(n, t)
            lo = hi - t + 1
            assert lo not in walk and hi not in walk, (n, t)
            walk.update((k, (k + t - 1, f"interior(t={t})")) for k in range(lo, hi))
            walk[hi] = (hi + t - 2, f"edge(t={t})")
        assert sorted(walk) == list(range(1, top + 1)), n
        for k, expected in walk.items():
            got = max_edges_capping(n, k)
            assert (got.value, got.regime) == expected, (n, k)
