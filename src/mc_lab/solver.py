"""Exact computation of the monochromatic connection number.

An edge coloring keeps a graph monochromatically connected when every
pair of vertices is joined by a path whose edges all share one color.
The monochromatic connection number mc(G) is the largest color count
over such colorings.

The solver layers three attacks: a fast path of cheap structural
conditions that pin mc(G) to the spanning-tree baseline m - n + 2,
constructive lower bounds matched against structural upper bounds, and
a branch-and-bound search over connected vertex sets that pairwise share
at most one vertex, each realized by one tree class, for the graphs the
bounds leave open.  A slow reference oracle that enumerates
edge-set partitions directly backs the whole stack in tests.
"""

from __future__ import annotations

import json
from functools import lru_cache
from itertools import accumulate
from math import comb
from operator import or_
from typing import NamedTuple

from .coloring import EdgeColoring, _coloring_doc, verify_mc
from .constructions import _coloring_from_groups, _tree_start, near_complete_coloring, spanning_tree_coloring
from .formulas import _least_t, _split_window
from .graph_core import (
    Graph,
    _bfs_parents,
    _chromatic_number,
    _has_cut_vertex,
    _has_far_pair,
    _is_triangle_free,
    _mask_components,
    _reach,
    _vertex_connectivity,
    bits,
    complement,
    is_connected,
)

# The vertex-set search is exponential; refuse to search past this order.
EXACT_HARD_CAP = 16
# The reference oracle walks edge partitions; refuse past this size.
ORACLE_EDGE_CAP = 12


class ExactSolveRefusedError(RuntimeError):
    """Exact solve rejected: the bounds leave a graph past EXACT_HARD_CAP open.

    ``lower`` and ``upper`` carry the interval of ``mc_exact``'s own
    bounds (the near-complete coloring; the least structural upper
    bound), which contains mc.
    """

    def __init__(self, message: str, lower: int, upper: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper

    def __reduce__(self):
        # Pickle and copy call the class with args alone, which would
        # lose the bounds; a process pool pickles what it raises.
        return type(self), (self.args[0], self.lower, self.upper)


class McCertificate(NamedTuple):
    """Exact mc value plus the evidence for it.

    ``coloring`` attains ``value`` and passes verify_mc.  ``method`` is
    "fast-path" or "branch-and-bound"; a solve closed by the bounds
    alone counts as a zero-node branch-and-bound, recognizable from the
    trace.  ``bound_trace`` lists every (name, value) bound consulted.
    """

    value: int
    coloring: EdgeColoring
    method: str
    bound_trace: tuple[tuple[str, int], ...]

    def to_json(self) -> str:
        return json.dumps(
            {
                "value": self.value,
                "method": self.method,
                "bound_trace": [[name, val] for name, val in self.bound_trace],
                "coloring": _coloring_doc(self.coloring),
            }
        )


def is_s_perfectly_connected(g: Graph, s: int) -> bool:
    """Whether some vertex v admits a perfect s-part split of the rest.

    The split must place the other vertices into s parts so that each
    part induces a connected subgraph, every cross-part pair is
    adjacent, and v has exactly one neighbor in each part.  Graphs with
    this structure are exactly the minimum-degree-s graphs whose mc
    exceeds m - n + s.

    Nonadjacent vertices must share a part, so every part is a union of
    atoms, the components of the complement of G - v.  No atom may hold
    two neighbors of v, so the s = deg(v) anchored atoms (one neighbor
    each) seed the s parts and the loose atoms (no neighbor) join them.
    Distinct atoms are completely joined in G, so a part of two or more
    atoms is connected, while an anchored atom that is disconnected in G
    needs a loose atom of its own.  The split therefore exists iff the
    disconnected anchored atoms are no more than the loose ones.
    """
    n = g.n
    if not 1 <= s <= n - 1:
        return False
    full = (1 << n) - 1
    for v in range(n):
        if g.degree(v) != s:
            continue
        nbr = g.adj[v]
        cadj = [full & ~(g.adj[x] | (1 << x) | (1 << v)) for x in range(n)]
        split = loose = 0
        for atom in _mask_components(cadj, full & ~(1 << v)):
            hits = (atom & nbr).bit_count()
            if hits > 1:
                break
            if not hits:
                loose += 1
            elif _reach(g.adj, atom & -atom, atom) != atom:
                split += 1
        else:
            if split <= loose:
                return True
    return False


def mc_upper_bounds(g: Graph) -> list[tuple[str, int]]:
    """All structural upper bounds on mc(g), as (name, value) pairs.

    Bounds: m - n + chromatic number; m - n + vertex connectivity + 1;
    the minimum-degree dichotomy (m - n + delta, shifting to + 1 only
    for perfectly connected graphs); and the edge window m - t + 1,
    where t is the split window of the p = C(n,2) - m missing edges,
    the least t with C(t,2) >= p.  That is the t whose window
    [C(n,2) - C(t,2), C(n,2) - C(t,2) + t - 2] holds m; at most one
    does, and none when m = C(n,2) or m < n - 1.
    """
    m, n = g.m, g.n
    out = [
        ("upper:chromatic", m - n + _chromatic_number(g)),
        ("upper:connectivity", m - n + _vertex_connectivity(g) + 1),
    ]
    s = min(g.degree(v) for v in range(n))
    if is_s_perfectly_connected(g, s):
        out.append(("upper:min-degree", m - n + s + 1))
    else:
        out.append(("upper:min-degree", m - n + s))
    t = _split_window(n, comb(n, 2) - m)
    if t is not None:
        out.append((f"upper:edge-window(t={t})", m - t + 1))
    return out


def baseline_fast_path(g: Graph) -> str | None:
    """Name of the first cheap condition forcing mc(g) = m - n + 2, or None.

    Checked in increasing cost order: a max-degree inequality,
    triangle-freeness, a cut vertex, diameter at least 3, and a
    4-connected complement.  Only valid for n > 3, so smaller graphs
    always get None.  The last two read the adjacency rows:

    - Diameter at least 3 on a connected graph means some nonadjacent
      pair has no common neighbour (``_has_far_pair``).
    - The complement has minimum degree n - 1 - dmax, so it can only be
      4-connected when dmax <= n - 5, and it is built only then.  Under
      that gate the condition never comes first for n <= 11: with
      2m <= n * dmax, the max-degree inequality holds whenever
      n^2 - 2n * dmax + 3dmax - 3 > 0, which falls as dmax grows and at
      dmax = n - 5 reads -n^2 + 13n - 18 > 0, true for n <= 11.

    Triangle-freeness never comes first for n <= 15.  Take v of maximum
    degree; N(v) is independent, so every edge has an end outside N(v)
    and m <= dmax * x with x = n - dmax.  The max-degree inequality then
    holds whenever 2x^2 - (n + 3)x + 3n - 3 > 0, whose discriminant
    n^2 - 18n + 33 is negative for 3 <= n <= 15.  It stays because
    ``mc_exact`` and ``compute --method fast`` take n up to 62, and there
    it is the only condition that closes complete bipartite graphs such
    as K_{5,11} (the one case at n = 16) and K_{6,14}.

    Raises ValueError on disconnected input.  This is the one
    connectivity check of every ``mc_exact`` call, at any size.
    """
    if not is_connected(g):
        raise ValueError("requires a connected graph")
    n, m = g.n, g.m
    if n <= 3:
        return None
    dmax = max(map(int.bit_count, g.adj))
    if (n - dmax) * (n - 3) > 2 * m - 3 * (n - 1):
        return "max-degree"
    if _is_triangle_free(g):
        return "triangle-free"
    if _has_cut_vertex(g):
        return "cut-vertex"
    if _has_far_pair(g):
        return "diameter"
    if dmax <= n - 5 and _vertex_connectivity(complement(g)) >= 4:
        return "complement-connectivity"
    return None


def _bounds(g: Graph) -> tuple[int, EdgeColoring | None, int, tuple[tuple[str, int], ...]]:
    """Lower bound, its coloring, upper bound and the trace of every bound.

    The lower bound is the near-complete coloring's count.  When p >= n - 2
    edges are missing that coloring is the spanning tree's, so the count is
    m - n + 2 and the coloring is None: only a caller that returns it
    builds it, with ``spanning_tree_coloring``.  Otherwise the coloring is
    built, since its count comes from building it, and it wastes at most
    p colors, never fewer colors than the spanning tree's m - n + 2; the
    trace lists both.  Expects a connected graph.  Private because the
    benchmark tracer wraps public functions only and reads the two calls
    as ``mc_exact``'s own lower and upper phases.
    """
    tree = g.m - g.n + 2
    if _tree_start(g):
        lb, lb_col = tree, None
    else:
        lb_col = near_complete_coloring(g)
        lb = lb_col.color_count
    ubs = mc_upper_bounds(g)
    trace = (("lower:spanning-tree", tree), ("lower:near-complete", lb), *ubs)
    return lb, lb_col, min(v for _, v in ubs), trace


def mc_exact(g: Graph) -> McCertificate:
    """Exact mc(g) with an attaining coloring and a bound trace.

    One pipeline at every size: the fast path, and when it does not
    close the value, ``_solve``: the bounds, then the search when they
    leave a gap.  Only the search is size-capped: a graph past
    EXACT_HARD_CAP vertices that the bounds leave open raises
    ExactSolveRefusedError with their interval.  Raises ValueError on
    disconnected input, of any size: ``baseline_fast_path`` makes the
    call's one connectivity check.
    """
    try:
        reason = baseline_fast_path(g)
    except ValueError:
        raise ValueError("mc is only defined for connected graphs") from None
    if reason is None:
        return _solve(g)
    value = g.m - g.n + 2
    return McCertificate(value, spanning_tree_coloring(g), "fast-path", ((f"fast:baseline({reason})", value),))


def _solve(g: Graph) -> McCertificate:
    """The bounds, then the vertex-set search when they leave a gap.

    Expects a connected graph; ``mc_exact`` calls it when the fast path
    does not close the value, and tests call it to check the fast path.
    The search starts from the lower bound's count, not its coloring.  A
    spanning-tree start is built only when it is the answer: when the
    bounds meet, or when the search finds no family with more colors.
    """
    lb, lb_col, ub, trace = _bounds(g)
    # Raises, not asserts, so that python -O still checks every value.
    if lb > ub:
        raise AssertionError(f"bound inversion on {g!r}: {lb} > {ub}")
    value, col = lb, None
    if lb < ub:
        if g.n > EXACT_HARD_CAP:
            raise ExactSolveRefusedError(
                f"refusing exact solve for n={g.n} > {EXACT_HARD_CAP}; "
                f"mc is within [{lb}, {ub}]",
                lower=lb,
                upper=ub,
            )
        value, col = _vertex_set_search(g, lb, ub)
    if col is None:
        col = spanning_tree_coloring(g) if lb_col is None else lb_col
    if lb < ub:
        gap = verify_mc(col)
        if gap is not None:
            raise AssertionError(f"search coloring of {g!r} leaves {gap} unconnected")
        if col.color_count != value:
            raise AssertionError(f"search coloring of {g!r} has {col.color_count} colors, not {value}")
    return McCertificate(value, col, "branch-and-bound", trace)


@lru_cache(maxsize=None)
def _set_families(n: int) -> tuple[tuple[int, ...], ...]:
    """Per-n tables of vertex-set families, each a 2^n-bit integer.

    A family has bit S set when it holds the vertex set S.  Returns
    ``(has, pair, inside, conv)``: ``has[x]`` holds the sets containing x
    and ``pair[x * n + y]`` (x < y) the sets containing both.
    ``inside[S]`` is no family but the pairs inside S, as bits
    x * n + y (x < y).  ``conv[r]``, for r <= C(n, 2), is the least
    total waste able to cover r nonadjacent pairs: waste w buys a
    connected set on w + 2 vertices, which holds at least w + 1 edges
    and so at most C(w+1, 2) nonadjacent pairs, and splitting waste
    never helps.  The least w with C(w+1, 2) >= r is one less than the
    least t with C(t, 2) >= r.  Tuples, because every caller shares them.
    """
    # The sets containing x repeat with period 2^(x+1): 2^x sets without
    # x, then 2^x with it.  Each doubling copies the pattern once more.
    has = []
    for x in range(n):
        fam = ((1 << (1 << x)) - 1) << (1 << x)
        for width in range(x + 1, n):
            fam |= fam << (1 << width)
        has.append(fam)
    pair = [0] * (n * n)
    for x in range(n):
        for y in range(x + 1, n):
            pair[x * n + y] = has[x] & has[y]
    # The lowest vertex x of S pairs with each vertex of the rest.
    inside = [0] * (1 << n)
    for s in range(1, 1 << n):
        low = s & -s
        rest = s ^ low
        inside[s] = inside[rest] | rest << (low.bit_length() - 1) * n
    conv = (0, *(_least_t(r) - 1 for r in range(1, comb(n, 2) + 1)))
    return tuple(has), tuple(pair), tuple(inside), conv


def _vertex_set_search(g: Graph, start: int, ub: int) -> tuple[int, EdgeColoring | None]:
    """Minimize total waste over connected vertex sets sharing at most one vertex.

    Some extremal coloring has nontrivial classes that are trees pairwise
    sharing at most one vertex (Caro and Yuster's lemma on simple
    colorings), and such trees share no edge.  So a coloring with k
    colors exists iff some family of connected vertex sets, pairwise
    sharing at most one vertex, puts every nonadjacent pair inside a
    member at total waste m - k, where a set S wastes |S| - 2 and any
    spanning tree of G[S] realizes its class.  The search branches on
    the uncovered nonadjacent pair with the fewest legal candidates
    (the lowest such pair on ties), tries them by size and then by
    ascending S, and prunes with the pair-coverage capacity of the
    remaining waste budget.

    A set of candidates is one integer over the 2^n vertex sets
    (``_set_families``).  The connected sets come from a DP over sizes,
    seeded with the one-vertex sets: every connected set on k + 1
    vertices is a connected set S on k plus a vertex v outside S with a
    neighbour in S, since its non-cut vertices exist.  The DP keeps its
    families by size, so the waste budget left is one AND with the
    candidates of at most so many vertices.  A pair's legal candidates
    are the live family AND the sets containing both its ends, and a
    chosen set S makes illegal every set holding two vertices of S.

    ``start`` is the color count of a known coloring, which the search
    must beat.  Returns mc and the coloring of the best family found, or
    ``(start, None)`` when no family has more colors than ``start``.
    """
    n, m = g.n, g.m
    adj = g.adj
    has, pair, inside, conv = _set_families(n)
    nonadj = inside[-1]
    for u in range(n):
        nonadj &= ~(adj[u] << u * n)
    best_w = m - start
    floor_w = m - ub

    # The candidates: every connected set on 3 .. best_w + 1 vertices,
    # size[k] those on exactly k and fit[t] those on at most t.  ext[v]
    # holds the sets that v joins into a larger connected set: those
    # without v that hold a neighbour of v.  Adding v to every set of a
    # family is a shift by 2^v; conn starts as the one-vertex sets.
    ext = []
    conn = 0
    for v in range(n):
        touch = 0
        row = adj[v]
        while row:
            low = row & -row
            row ^= low
            touch |= has[low.bit_length() - 1]
        ext.append(touch & ~has[v])
        conn |= 1 << (1 << v)
    size = [0] * (n + 1)
    for k in range(2, min(best_w + 1, n) + 1):
        grown = 0
        for v in range(n):
            grown |= (conn & ext[v]) << (1 << v)
        conn = grown
        if k >= 3:
            size[k] = conn
    fit = list(accumulate(size, or_))

    best_sets: list[int] | None = None

    # live: the candidates no chosen set blocks.  Legality only shrinks
    # along a branch, so a child ANDs away what its own set blocks.  True
    # once a family meets the upper bound, which ends the search.
    def dfs(uncov: int, live: int, w_used: int, chosen: list[int]) -> bool:
        nonlocal best_w, best_sets
        if uncov == 0:
            best_w = w_used
            best_sets = list(chosen)
            return best_w <= floor_w
        left = uncov.bit_count()
        if w_used + conv[left] >= best_w:
            return False
        top = min(best_w + 1 - w_used, n)
        live &= fit[top]
        pick = 0
        count = -1
        uu = uncov
        while uu:
            jb = uu & -uu
            uu ^= jb
            fam = live & pair[jb.bit_length() - 1]
            c = fam.bit_count()
            if not c:
                return False
            if count < 0 or c < count:
                pick, count = fam, c
        for k in range(3, top + 1):
            w = k - 2
            if w_used + w >= best_w:
                return False
            # A connected k-set has at least k - 1 edges, so it holds at
            # most C(k-1, 2) nonadjacent pairs.  When even that many leave
            # too much to cover, no set of this size passes the test below.
            held = (k - 1) * (k - 2) // 2
            if held < left and w_used + w + conv[left - held] >= best_w:
                continue
            sub = pick & size[k]
            while sub:
                sb = sub & -sub
                sub ^= sb
                s = sb.bit_length() - 1
                unc2 = uncov & ~inside[s]
                if w_used + w + conv[unc2.bit_count()] >= best_w:
                    continue
                blocked = seen = 0
                for x in bits(s):
                    blocked |= has[x] & seen
                    seen |= has[x]
                chosen.append(s)
                if dfs(unc2, live & ~blocked, w_used + w, chosen):
                    return True
                chosen.pop()
        return False

    dfs(nonadj, fit[-1], 0, [])
    value = m - best_w
    if best_sets is None:
        return value, None
    # Each class is the BFS tree of G[S] from its lowest vertex.
    groups = []
    for s in best_sets:
        parent = _bfs_parents(adj, s)
        groups.append([(parent[w], w) for w in bits(s & (s - 1))])
    return value, _coloring_from_groups(g, groups)


def mc_oracle_partitions(g: Graph) -> int:
    """Reference mc(g) straight from the definition, for cross-checking.

    Walks restricted-growth assignments of edges to color classes while
    tracking, per class, the vertex sets its components span, and one
    mask ``cov`` of the nonadjacent pairs that some component joins: bit
    u * n + v, in both orders.  Components only merge along a branch, so
    ``cov`` only grows; it is passed down the walk and never undone.  An
    edge (u, v) joins a class by one rule: take the component holding u
    and the one holding v, a singleton when none does; skip the class
    when both are the same component, else cover the pairs inside their
    union and replace both by it.  Prunes use elementary counting only:
    every class assignment after the first in a class costs one color, a
    class formed by j such merges joins at most C(j+1, 2) nonadjacent
    pairs, and a one-color spanning tree plus rainbow leftovers always
    realizes m - n + 2 colors.  Independent of the vertex-set model the
    main solver searches: it assumes nothing about how color classes
    overlap.
    """
    if not is_connected(g):
        raise ValueError("mc is only defined for connected graphs")
    if g.m > ORACLE_EDGE_CAP:
        raise ValueError(f"oracle limited to {ORACLE_EDGE_CAP} edges, got {g.m}")
    n, m = g.n, g.m
    edges = g.edges()
    full = (1 << n) - 1
    nonadj = [full & ~(g.adj[u] | 1 << u) for u in range(n)]
    target = 0
    for u in range(n):
        target |= nonadj[u] << u * n
    pairs = target.bit_count() // 2
    if pairs == 0:
        return m  # complete graph: all edges distinct
    best = m - n + 2
    classes: list[list[int]] = []

    def dfs(i: int, joins: int, cov: int) -> None:
        nonlocal best
        if cov == target:
            # Rainbow the rest: m - joins colors, the subtree maximum.
            best = max(best, m - joins)
            return
        if m - joins - 1 <= best or comb(m - best, 2) < pairs or i == m:
            return
        u, v = edges[i]
        classes.append([(1 << u) | (1 << v)])
        dfs(i + 1, joins, cov)
        classes.pop()
        for ci, comps in enumerate(classes):
            a = next((c for c in comps if c >> u & 1), 1 << u)
            b = next((c for c in comps if c >> v & 1), 1 << v)
            if a == b:
                continue  # edge inside a component never helps
            # The pairs inside a and inside b are covered already.
            union = a | b
            grown = cov
            for x in bits(union):
                grown |= (nonadj[x] & union) << x * n
            classes[ci] = [c for c in comps if c != a and c != b] + [union]
            dfs(i + 1, joins + 1, grown)
            classes[ci] = comps

    dfs(0, 0, 0)
    return best
