"""Closed-form edge thresholds for the monochromatic connection number.

Four piecewise functions of (n, k), each answering one question about
connected n-vertex graphs and the target value k:

* ``min_edges_forcing``    least m such that every graph with >= m edges
                           has mc >= k
* ``max_edges_capping``    greatest m such that every graph with <= m edges
                           has mc <= k
* ``min_edges_reaching``   least edge count among graphs with mc >= k
* ``max_edges_within``     greatest edge count among graphs with mc <= k

The last two are one-step shifts of the first two.

g is built from split-graph windows.  The complete split graph whose
independent set has t vertices misses the C(t,2) edges inside that set,
so it has C(n,2) - C(t,2) edges, and the window that holds an edge count
depends only on its missing-edge count p: it is the least t >= 2 with
C(t,2) >= p (``_split_window``).  The windows C(t-1,2) < p <= C(t,2)
for t = 2..n-1 tile p = 1..C(n-1,2), that is every edge count of a
connected graph short of C(n,2).
"""

from __future__ import annotations

from math import comb, isqrt
from typing import Iterator, NamedTuple


class FormulaResult(NamedTuple):
    """One evaluated table cell; ``function`` is the CSV code f, g, t or s."""

    function: str
    n: int
    k: int
    value: int
    regime: str


def split_graph_base_edges(n: int, t: int) -> int:
    """Edges of the complete split graph: an (n-t)-clique joined to t isolated vertices."""
    return comb(n - t, 2) + t * (n - t)


def _least_t(p: int) -> int:
    """The least t with C(t,2) >= p, for p >= 1: the fewest vertices holding p pairs."""
    # C(t-1,2) <= p - 1 < C(t,2), solved for t
    return (3 + isqrt(8 * p - 7)) // 2


def _split_window(n: int, p: int) -> int | None:
    """The window t of p missing edges: the least t >= 2 with C(t,2) >= p.

    None when p = 0 (the complete graph) or when that t exceeds n - 1,
    as it does for every edge count below n - 1.
    """
    if p < 1:
        return None
    t = _least_t(p)
    return t if t < n else None


def _validate(n: int, k: int) -> int:
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    top = comb(n, 2)
    if not 1 <= k <= top:
        raise ValueError(f"k={k} outside 1..{top} for n={n}")
    return top


def min_edges_forcing(n: int, k: int) -> FormulaResult:
    top = _validate(n, k)
    if k <= top - 2 * n + 4:
        value = n + k - 2
        regime = "linear"
    else:
        # ceil((k - top)/2) with k - top <= 0 rounds toward zero
        value = top + (k - top + 1) // 2
        regime = "half-step"
    assert n - 1 <= value <= top
    return FormulaResult("f", n, k, value, regime)


def max_edges_capping(n: int, k: int) -> FormulaResult:
    top = _validate(n, k)
    if k == top:
        return FormulaResult("g", n, k, top, "complete")
    # With p missing edges in split window t, the regime is edge(t) when
    # p = C(t,2) and interior(t - 1) otherwise, where t = n stands for the
    # edge counts below n - 1; both give k + t - 2.
    p = top - k
    t = _split_window(n, p) or n
    regime = f"edge(t={t})" if p == comb(t, 2) else f"interior(t={t - 1})"
    return FormulaResult("g", n, k, k + t - 2, regime)


def min_edges_reaching(n: int, k: int) -> FormulaResult:
    _validate(n, k)
    if k == 1:
        return FormulaResult("t", n, 1, n - 1, "minimum-connected")
    inner = max_edges_capping(n, k - 1)
    value = inner.value + 1
    assert n - 1 <= value <= comb(n, 2)
    return FormulaResult("t", n, k, value, f"cap-shift({inner.regime})")


def max_edges_within(n: int, k: int) -> FormulaResult:
    top = _validate(n, k)
    if k == top:
        return FormulaResult("s", n, k, top, "complete")
    inner = min_edges_forcing(n, k + 1)
    value = inner.value - 1
    assert 0 <= value <= top
    return FormulaResult("s", n, k, value, f"force-shift({inner.regime})")


_FUNCTIONS = {
    "f": min_edges_forcing,
    "g": max_edges_capping,
    "t": min_edges_reaching,
    "s": max_edges_within,
}


def _table_cells(code: str, n: int) -> Iterator[FormulaResult]:
    """The cells of one table, computed as they are drawn; bad input raises here."""
    if code not in _FUNCTIONS:
        raise ValueError(f"unknown table {code!r}; choose one of f, g, t, s")
    if n < 2:
        raise ValueError(f"need at least 2 vertices, got n={n}")
    fn = _FUNCTIONS[code]
    return (fn(n, k) for k in range(1, comb(n, 2) + 1))


def table_rows(code: str, n: int) -> list[FormulaResult]:
    """All cells of one table for fixed n, k = 1..C(n,2)."""
    return list(_table_cells(code, n))
