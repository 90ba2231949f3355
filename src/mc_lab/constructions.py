"""Coloring constructions and the extremal graph families they decorate.

Every builder is deterministic: classes take ascending vertex ids, class
centers are always the lowest id available, and color ids follow first
appearance in lexicographic edge order.
"""

from __future__ import annotations

from math import comb
from typing import NamedTuple, Sequence

from .coloring import EdgeColoring, _numbered
from .graph_core import (
    Edge,
    Graph,
    _bfs_parents,
    _check_order,
    _mask_components,
    bits,
    complement,
    cycle_graph,
    from_edges,
    path_graph,
)


class _PartitionedGraphFields(NamedTuple):
    graph: Graph
    classes: tuple[tuple[int, ...], ...]
    anchors: tuple[int, ...] | None = None


class PartitionedGraph(_PartitionedGraphFields):
    """A graph together with an ordered vertex partition.

    ``anchors`` names one distinguished vertex per class for families that
    need it; an anchor must belong to its class and have no neighbor inside
    its own class.  Every way to make one (the constructor, ``_make``,
    ``_replace``, ``copy`` and ``pickle``) runs these checks.
    """

    __slots__ = ()

    def __new__(
        cls,
        graph: Graph,
        classes: tuple[tuple[int, ...], ...],
        anchors: tuple[int, ...] | None = None,
    ) -> PartitionedGraph:
        seen = 0
        for part in classes:
            if not part:
                raise ValueError("empty vertex class")
            if tuple(sorted(part)) != part:
                raise ValueError("class vertices must be listed in ascending order")
            cmask = 0
            for v in part:
                cmask |= 1 << v
            if cmask & seen:
                raise ValueError("vertex classes overlap")
            seen |= cmask
        if seen != (1 << graph.n) - 1:
            raise ValueError("vertex classes do not cover the graph")
        if anchors is not None:
            if len(anchors) != len(classes):
                raise ValueError("need exactly one anchor per class")
            for a, part in zip(anchors, classes):
                if a not in part:
                    raise ValueError(f"anchor {a} is outside its class")
                for v in part:
                    if v != a and graph.has_edge(a, v):
                        raise ValueError(f"anchor {a} has a neighbor inside its class")
        return super().__new__(cls, graph, classes, anchors)

    @classmethod
    def _make(cls, iterable) -> PartitionedGraph:
        # namedtuple's _make, which _replace calls too, skips __new__.
        return cls(*iterable)


def _coloring_from_groups(g: Graph, groups: list[list[Edge]]) -> EdgeColoring:
    """One color per group, a fresh color per leftover edge.

    Ids are assigned by first appearance in lexicographic edge order, so the
    result is canonical for a given group family.
    """
    owner: dict[Edge, int] = {}
    for gi, group in enumerate(groups):
        for u, v in group:
            if u > v:
                u, v = v, u
            if not g.has_edge(u, v):
                raise ValueError(f"group edge ({u}, {v}) is not in the graph")
            if (u, v) in owner:
                raise ValueError(f"edge ({u}, {v}) appears in two groups")
            owner[(u, v)] = gi
    # A group is keyed by its index, a leftover edge by itself.
    return _numbered(g, [owner.get(e, e) for e in g.edges()])


def _star_groups(centers: Sequence[int], parts: Sequence[Sequence[int]]) -> list[list[Edge]]:
    """One star from each part's center to the whole next part, cyclically.

    With two parts both stars would hold the edge between the centers, so
    they become one double star instead.
    """
    if len(parts) == 2:
        (a, b), (xs, ys) = centers, parts
        return [[(a, y) for y in ys] + [(b, x) for x in xs if x != a]]
    return [[(a, y) for y in parts[(j + 1) % len(parts)]] for j, a in enumerate(centers)]


def spanning_tree_coloring(g: Graph) -> EdgeColoring:
    """One color on a BFS spanning tree, fresh colors elsewhere: m - n + 2 colors.

    The tree is :func:`spanning_tree`'s.  Its edge from 0 to 0's lowest
    neighbor is also the first edge in lexicographic order, so by first
    appearance the tree takes color 0 and every other edge the next id.
    """
    parent = _bfs_parents(g.adj, (1 << g.n) - 1)
    if parent is None:
        raise ValueError("spanning_tree_coloring requires a connected graph")
    colors = []
    fresh = 0
    for u, row in enumerate(g.adj):
        pu = parent[u]
        row >>= u + 1
        while row:
            low = row & -row
            row ^= low
            v = u + low.bit_length()
            if parent[v] == u or v == pu:
                colors.append(0)
            else:
                fresh += 1
                colors.append(fresh)
    col = EdgeColoring(g, colors)
    assert col.color_count == g.m - g.n + 2
    return col


def _tree_start(g: Graph) -> bool:
    """Whether ``near_complete_coloring(g)`` is the spanning-tree coloring.

    It is when p >= n - 2 edges are missing: the tree wastes n - 2 <= p
    colors.  With fewer missing edges the stars waste at most p < n - 2.
    """
    return comb(g.n, 2) - g.m >= g.n - 2


def near_complete_coloring(g: Graph) -> EdgeColoring:
    """Coloring that wastes at most p colors, where p counts the missing edges.

    Dense graphs admit far more colors than the spanning-tree baseline: join
    the complement's structure with one or a few star-shaped classes and
    give every other edge its own color, for at least C(n,2) - 2p colors.
    """
    n = g.n
    p = comb(n, 2) - g.m
    # A disconnected graph misses p >= n - 1 edges, so its BFS raises here.
    if _tree_start(g):
        col = spanning_tree_coloring(g)
        assert col.waste <= p
        return col
    cadj = complement(g).adj
    tilde = 0
    for u in range(n):
        if cadj[u]:
            tilde |= 1 << u
    groups: list[list[Edge]]
    if tilde.bit_count() <= p + 1:
        # Few vertices miss anything; a single star from a full-degree
        # vertex reaches all of them.  A complete graph gets the empty
        # star from vertex 0, so every edge has a color of its own.
        center = next(u for u in range(n) if g.degree(u) == n - 1)
        groups = [[(center, u) for u in bits(tilde)]]
    else:
        comps = [list(bits(comp)) for comp in _mask_components(cadj, tilde)]
        groups = _star_groups([comp[0] for comp in comps], comps)
    col = _coloring_from_groups(g, groups)
    assert col.waste <= p, f"waste {col.waste} exceeds missing-edge count {p}"
    return col


def complete_multipartite(sizes: list[int]) -> PartitionedGraph:
    """Complete multipartite graph; class j takes the next ``sizes[j]`` ids."""
    if len(sizes) < 2:
        raise ValueError("need at least 2 classes")
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    n = sum(sizes)
    _check_order(n)
    full = (1 << n) - 1
    classes, rows = [], []
    start = 0
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        rows += [full & ~(((1 << s) - 1) << start)] * s
        start += s
    g = Graph(n, rows)
    return PartitionedGraph(g, tuple(classes))


def multipartite_star_coloring(pg: PartitionedGraph) -> EdgeColoring:
    """Extremal coloring of a complete multipartite graph: m - n + r colors.

    For r >= 3 classes, each class's lowest vertex sends one star class to
    the whole next class (cyclically).  For r = 2 a single double star does
    the job.
    """
    g = pg.graph
    full = (1 << g.n) - 1
    for cls in pg.classes:
        others = full & ~sum(1 << v for v in cls)
        for v in cls:
            if g.adj[v] != others:
                raise ValueError("graph is not complete multipartite over these classes")
    groups = _star_groups([cls[0] for cls in pg.classes], pg.classes)
    col = _coloring_from_groups(g, groups)
    assert col.color_count == g.m - g.n + len(pg.classes)
    return col


def build_anchored_partition(n: int, t: int) -> PartitionedGraph:
    """Complete graph with one anchor per class detached from its own class.

    Vertices split into t near-equal classes (larger classes first, ids
    ascending); each class's lowest vertex loses its edges into the rest of
    its class.  Edge count: C(n,2) - n + t.
    """
    if not 3 <= t <= n:
        raise ValueError(f"need 3 <= t <= n, got t={t}, n={n}")
    _check_order(n)
    q, r = divmod(n, t)
    sizes = [q + 1] * r + [q] * (t - r)
    classes = []
    start = 0
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        start += s
    anchors = tuple(cls[0] for cls in classes)
    full = (1 << n) - 1
    rows = [full & ~(1 << v) for v in range(n)]
    for a, cls in zip(anchors, classes):
        for v in cls:
            if v != a:
                rows[a] &= ~(1 << v)
                rows[v] &= ~(1 << a)
    g = Graph(n, rows)
    assert g.m == comb(n, 2) - n + t
    return PartitionedGraph(g, tuple(classes), anchors)


def anchored_partition_coloring(pg: PartitionedGraph) -> EdgeColoring:
    """Extremal coloring of an anchored partition graph: C(n,2) - 2n + 2t colors.

    Each anchor sends one star class to the entire next vertex class
    (cyclically); everything else is rainbow.
    """
    n = pg.graph.n
    t = len(pg.classes)
    if pg.anchors is None or build_anchored_partition(n, t) != pg:
        raise ValueError("not a graph built by build_anchored_partition")
    col = _coloring_from_groups(pg.graph, _star_groups(pg.anchors, pg.classes))
    assert col.color_count == comb(n, 2) - 2 * n + 2 * t
    return col


def build_augmented_split_graph(n: int, t: int, extra: int) -> tuple[Graph, EdgeColoring]:
    """Complete split graph plus ``extra`` edges, with its extremal coloring.

    Vertices 0..n-t-1 form a clique joined to everything; vertices
    n-t..n-1 form the big class, independent except for the ``extra``
    lexicographically first pairs inside it.  The coloring keeps one star
    from vertex 0 into the big class and is rainbow elsewhere, giving
    m - t + 1 colors.
    """
    if not 2 <= t <= n - 1:
        raise ValueError(f"need 2 <= t <= n-1, got t={t}, n={n}")
    if not 0 <= extra <= t - 2:
        raise ValueError(f"need 0 <= extra <= t-2, got extra={extra}, t={t}")
    _check_order(n)
    big = list(range(n - t, n))
    edges = [(u, v) for u in range(n - t) for v in range(u + 1, n)]
    inside = [(u, v) for i, u in enumerate(big) for v in big[i + 1 :]]
    edges += inside[:extra]
    g = from_edges(n, edges)
    assert g.m == comb(n - t, 2) + t * (n - t) + extra
    star = [(0, y) for y in big]
    col = _coloring_from_groups(g, [star])
    assert col.color_count == g.m - t + 1
    return g, col


def _clique_plus_two(n: int, joined: bool) -> Graph:
    """A clique on 0..n-3; n-2 sees vertex 0 and n-1 the other clique vertices."""
    _check_order(n)
    clique = range(n - 2)
    edges = [(a, b) for a in clique for b in clique if a < b]
    edges.append((0, n - 2))
    edges += [(c, n - 1) for c in range(1, n - 2)]
    if joined:
        edges.append((n - 2, n - 1))
    return from_edges(n, edges)


def build_diameter_three_witness(n: int) -> Graph:
    """Densest-possible diameter-3 graph used as a threshold witness.

    A clique on 0..n-3 plus two nonadjacent vertices: u = n-2 sees only
    clique vertex 0, v = n-1 sees all the other clique vertices.  Edge
    count: C(n,2) - n + 1.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    g = _clique_plus_two(n, joined=False)
    assert g.m == comb(n, 2) - n + 1
    return g


def build_degree_two_witness(n: int) -> Graph:
    """Witness with a unique degree-2 vertex and C(n,2) - n + 2 edges.

    Same clique-plus-two-vertices shape as the diameter-3 witness, but the
    two added vertices are adjacent.  Returns a 3-path or a 4-cycle for the
    two sizes too small for that shape.
    """
    if n < 3:
        raise ValueError(f"need n >= 3, got {n}")
    if n == 3:
        return path_graph(3)
    if n == 4:
        return cycle_graph(4)
    g = _clique_plus_two(n, joined=True)
    assert g.m == comb(n, 2) - n + 2
    return g
