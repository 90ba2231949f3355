"""Coloring constructions and the extremal graph families they decorate.

Every builder is deterministic: classes take ascending vertex ids, class
centers are always the lowest id available, and color ids follow first
appearance in lexicographic edge order.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .coloring import EdgeColoring
from .graph_core import (
    Edge,
    Graph,
    _bfs_parents,
    bits,
    cycle_graph,
    edge_index,
    from_edges,
    path_graph,
)


@dataclass(frozen=True)
class PartitionedGraph:
    """A graph together with an ordered vertex partition.

    ``anchors`` names one distinguished vertex per class for families that
    need it; an anchor must belong to its class and have no neighbor inside
    its own class.
    """

    graph: Graph
    classes: tuple[tuple[int, ...], ...]
    anchors: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        seen = 0
        for cls in self.classes:
            if not cls:
                raise ValueError("empty vertex class")
            if tuple(sorted(cls)) != cls:
                raise ValueError("class vertices must be listed in ascending order")
            cmask = 0
            for v in cls:
                cmask |= 1 << v
            if cmask & seen:
                raise ValueError("vertex classes overlap")
            seen |= cmask
        if seen != (1 << self.graph.n) - 1:
            raise ValueError("vertex classes do not cover the graph")
        if self.anchors is not None:
            if len(self.anchors) != len(self.classes):
                raise ValueError("need exactly one anchor per class")
            for a, cls in zip(self.anchors, self.classes):
                if a not in cls:
                    raise ValueError(f"anchor {a} is outside its class")
                for v in cls:
                    if v != a and self.graph.has_edge(a, v):
                        raise ValueError(f"anchor {a} has a neighbor inside its class")

    def class_masks(self) -> tuple[int, ...]:
        out = []
        for cls in self.classes:
            cmask = 0
            for v in cls:
                cmask |= 1 << v
            out.append(cmask)
        return tuple(out)


def _coloring_from_groups(g: Graph, groups: list[list[Edge]]) -> EdgeColoring:
    """One color per group, a fresh color per leftover edge.

    Ids are assigned by first appearance in lexicographic edge order, so the
    result is canonical for a given group family.
    """
    idx = edge_index(g.n)
    owner: list[int | None] = [None] * comb(g.n, 2)
    for gi, group in enumerate(groups):
        for u, v in group:
            if u > v:
                u, v = v, u
            i = idx[(u, v)]
            if not g.has_edge(u, v):
                raise ValueError(f"group edge ({u}, {v}) is not in the graph")
            if owner[i] is not None:
                raise ValueError(f"edge ({u}, {v}) appears in two groups")
            owner[i] = gi
    colors = []
    next_id = 0
    group_color: dict[int, int] = {}
    for u, v in g.edges():
        gi = owner[idx[(u, v)]]
        if gi is None:
            colors.append(next_id)
            next_id += 1
        elif gi in group_color:
            colors.append(group_color[gi])
        else:
            group_color[gi] = next_id
            colors.append(next_id)
            next_id += 1
    return EdgeColoring(g, colors)


def spanning_tree_coloring(g: Graph) -> EdgeColoring:
    """One color on a BFS spanning tree, fresh colors elsewhere: m - n + 2 colors.

    The tree is :func:`spanning_tree`'s.  Its edge from 0 to 0's lowest
    neighbor is also the first edge in lexicographic order, so by first
    appearance the tree takes color 0 and every other edge the next id.
    """
    parent = _bfs_parents(g.adj)
    if parent is None:
        raise ValueError("spanning_tree_coloring requires a connected graph")
    colors = []
    fresh = 0
    for u, row in enumerate(g.adj):
        row >>= u + 1
        while row:
            low = row & -row
            row ^= low
            v = u + low.bit_length()
            tree = parent[v] == u or parent[u] == v
            colors.append(0 if tree else (fresh := fresh + 1))
    col = EdgeColoring(g, colors)
    assert col.color_count == g.m - g.n + 2
    return col


def near_complete_coloring(g: Graph) -> EdgeColoring:
    """Coloring that wastes at most p colors, where p counts the missing edges.

    Dense graphs admit far more colors than the spanning-tree baseline: join
    the complement's structure with one or a few star-shaped classes and
    give every other edge its own color, for at least C(n,2) - 2p colors.
    """
    n = g.n
    p = comb(n, 2) - g.m
    # A disconnected graph misses p >= n - 1 edges, so its BFS raises here.
    if p >= n - 2:
        col = spanning_tree_coloring(g)
        assert col.waste <= p
        return col
    full = (1 << n) - 1
    cadj = [full & ~(g.adj[u] | 1 << u) for u in range(n)]
    tilde = 0
    for u in range(n):
        if cadj[u]:
            tilde |= 1 << u
    if not tilde:  # complete graph
        return _coloring_from_groups(g, [])
    groups: list[list[Edge]]
    if tilde.bit_count() <= p + 1:
        # Few vertices miss anything; a single star from a full-degree
        # vertex reaches all of them.
        center = next(u for u in range(n) if g.degree(u) == n - 1)
        groups = [[(min(center, u), max(center, u)) for u in bits(tilde)]]
    else:
        comps = _mask_components(cadj, tilde)
        if len(comps) == 2:
            a = (comps[0] & -comps[0]).bit_length() - 1
            b = (comps[1] & -comps[1]).bit_length() - 1
            double_star = [(min(a, y), max(a, y)) for y in bits(comps[1])]
            double_star += [(min(b, x), max(b, x)) for x in bits(comps[0]) if x != a]
            groups = [double_star]
        else:
            groups = []
            for j, comp in enumerate(comps):
                nxt = comps[(j + 1) % len(comps)]
                a = (comp & -comp).bit_length() - 1
                groups.append([(min(a, y), max(a, y)) for y in bits(nxt)])
    col = _coloring_from_groups(g, groups)
    assert col.waste <= p, f"waste {col.waste} exceeds missing-edge count {p}"
    return col


def _mask_components(adj: list[int], within: int) -> list[int]:
    """Connected components of the graph restricted to ``within``, sorted by lowest id."""
    comps = []
    left = within
    while left:
        seed = left & -left
        seen = seed
        frontier = seed
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= adj[u]
            frontier = nxt & within & ~seen
            seen |= frontier
        comps.append(seen)
        left &= ~seen
    return comps


def complete_multipartite(sizes: list[int]) -> PartitionedGraph:
    """Complete multipartite graph; class j takes the next ``sizes[j]`` ids."""
    if len(sizes) < 2:
        raise ValueError("need at least 2 classes")
    if any(s < 1 for s in sizes):
        raise ValueError("class sizes must be positive")
    n = sum(sizes)
    classes = []
    start = 0
    for s in sizes:
        classes.append(tuple(range(start, start + s)))
        start += s
    full = (1 << n) - 1
    rows = []
    for cls in classes:
        cmask = 0
        for v in cls:
            cmask |= 1 << v
        for _ in cls:
            rows.append(full & ~cmask)
    g = Graph(n, [rows[v] for v in range(n)])
    return PartitionedGraph(g, tuple(classes))


def multipartite_star_coloring(pg: PartitionedGraph) -> EdgeColoring:
    """Extremal coloring of a complete multipartite graph: m - n + r colors.

    For r >= 3 classes, each class's lowest vertex sends one star class to
    the whole next class (cyclically).  For r = 2 a single double star does
    the job.
    """
    g = pg.graph
    masks = pg.class_masks()
    full = (1 << g.n) - 1
    for cls, cmask in zip(pg.classes, masks):
        for v in cls:
            if g.adj[v] != full & ~cmask:
                raise ValueError("graph is not complete multipartite over these classes")
    r = len(pg.classes)
    if r == 2:
        a = pg.classes[0][0]
        b = pg.classes[1][0]
        star = [(min(a, y), max(a, y)) for y in pg.classes[1]]
        star += [(min(b, x), max(b, x)) for x in pg.classes[0] if x != a]
        groups = [star]
    else:
        groups = []
        for j in range(r):
            a = pg.classes[j][0]
            nxt = pg.classes[(j + 1) % r]
            groups.append([(min(a, y), max(a, y)) for y in nxt])
    col = _coloring_from_groups(g, groups)
    assert col.color_count == g.m - g.n + r
    return col


def build_anchored_partition(n: int, t: int) -> PartitionedGraph:
    """Complete graph with one anchor per class detached from its own class.

    Vertices split into t near-equal classes (larger classes first, ids
    ascending); each class's lowest vertex loses its edges into the rest of
    its class.  Edge count: C(n,2) - n + t.
    """
    if not 3 <= t <= n:
        raise ValueError(f"need 3 <= t <= n, got t={t}, n={n}")
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
    groups = []
    for j in range(t):
        a = pg.anchors[j]
        nxt = pg.classes[(j + 1) % t]
        groups.append([(min(a, y), max(a, y)) for y in nxt])
    col = _coloring_from_groups(pg.graph, groups)
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


def build_diameter_three_witness(n: int) -> Graph:
    """Densest-possible diameter-3 graph used as a threshold witness.

    A clique on 0..n-3 plus two nonadjacent vertices: u = n-2 sees only
    clique vertex 0, v = n-1 sees all the other clique vertices.  Edge
    count: C(n,2) - n + 1.
    """
    if n < 5:
        raise ValueError(f"need n >= 5, got {n}")
    clique = range(n - 2)
    edges = [(a, b) for a in clique for b in clique if a < b]
    edges.append((0, n - 2))
    edges += [(c, n - 1) for c in range(1, n - 2)]
    g = from_edges(n, edges)
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
    clique = range(n - 2)
    edges = [(a, b) for a in clique for b in clique if a < b]
    edges.append((0, n - 2))
    edges += [(c, n - 1) for c in range(1, n - 2)]
    edges.append((n - 2, n - 1))
    g = from_edges(n, edges)
    assert g.m == comb(n, 2) - n + 2
    return g
