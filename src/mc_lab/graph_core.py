"""Bitset-backed simple graphs.

Vertices are 0..n-1 and every adjacency row is a Python int used as a
bitset, which keeps the exhaustive sweeps and the solver's set algebra
cheap.  The module covers construction, graph6 text I/O, complements,
standard invariants (degrees, exact chromatic number, exact vertex
connectivity, cut vertices, triangle-freeness, a nonadjacent pair with
no common neighbour), labeled enumeration of connected graphs, and
deterministic BFS spanning trees.

One reach routine, ``_reach``, answers every connectivity question: a
graph is connected when vertex 0 reaches everything, components are
repeated reaches (``_mask_components``, which also gives the components
of a color class from that class's own rows, in ``coloring``), and a
cut vertex is one whose removal leaves a rest that its lowest vertex
does not reach.  ``_bfs_parents`` is the one tree-building BFS; no other
BFS or union-find is left outside these two (the augmenting paths of
``_local_connectivity`` search the split graph, not G).

``_has_cut_vertex`` answers False at once when 2 * delta >= n, since
then kappa >= 2 * delta + 2 - n >= 2.  Proof: let S separate G, with
|S| = k, and let A and B be two components of G - S.  A vertex of A has
all its neighbours in A and S, so delta <= |A| - 1 + k, and likewise for
B; adding the two and using |A| + |B| <= n - k gives 2 * delta <= n + k - 2.
With k = 0 this says such a graph is also connected, so the answer agrees
with the convention that a disconnected graph has a cut vertex.  Only
below that threshold does it run a reach per vertex.

The chromatic number keeps its color classes as bitsets.  The greedy
upper bound puts each vertex, in order of falling degree, into the first
class that holds none of its neighbours, and the exact ``_k_colorable``
backtracking tests ``adj[u] & classes[c]`` for each of its k classes.

Vertex connectivity follows Even's pair selection: only nonadjacent
pairs whose lower vertex is at most the best separator found so far are
tried.  Each pair counts its common neighbours, then finds the remaining
disjoint paths by BFS augmenting paths over bitset rows, stopping once
the count reaches the best separator.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator, Sequence

Edge = tuple[int, int]

MAX_VERTICES = 62
ENUMERATION_MAX_VERTICES = 7


def _check_order(n: int) -> None:
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 2..{MAX_VERTICES}")


class Graph6Error(ValueError):
    """Malformed graph6 input; messages name the offending byte offset."""


def bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class Graph:
    """Immutable undirected simple graph with one bitmask per vertex."""

    __slots__ = ("n", "adj", "m")

    def __init__(self, n: int, adj) -> None:
        _check_order(n)
        rows = tuple(adj)
        if len(rows) != n:
            raise ValueError(f"expected {n} adjacency rows, got {len(rows)}")
        full = (1 << n) - 1
        deg_sum = 0
        for u, row in enumerate(rows):
            if row & ~full:
                raise ValueError(f"adjacency row {u} mentions vertices >= {n}")
            if row >> u & 1:
                raise ValueError(f"self-loop at vertex {u}")
            deg_sum += row.bit_count()
        for u in range(n):
            for v in bits(rows[u]):
                if not rows[v] >> u & 1:
                    raise ValueError(f"asymmetric adjacency between {u} and {v}")
        self.n = n
        self.adj = rows
        self.m = deg_sum // 2

    @classmethod
    def _trusted(cls, n: int, adj: tuple[int, ...], m: int) -> "Graph":
        # Internal fast path for rows that are symmetric by construction.
        g = object.__new__(cls)
        g.n = n
        g.adj = adj
        g.m = m
        return g

    def degree(self, u: int) -> int:
        return self.adj[u].bit_count()

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def edges(self) -> list[Edge]:
        """All edges (u, v) with u < v in lexicographic order."""
        out = []
        for u in range(self.n):
            for v in bits(self.adj[u] >> (u + 1)):
                out.append((u, u + 1 + v))
        return out

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.adj == other.adj
        )

    def __hash__(self) -> int:
        return hash((self.n, self.adj))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m}, graph6={emit_graph6(self)!r})"


@lru_cache(maxsize=None)
def edge_list(n: int) -> tuple[Edge, ...]:
    """Edges of the complete graph on n vertices in lexicographic order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def from_edges(n: int, edges) -> Graph:
    _check_order(n)
    rows = [0] * n
    for u, v in edges:
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u}, {v}) outside vertex range 0..{n - 1}")
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    return Graph._trusted(n, tuple(rows), sum(row.bit_count() for row in rows) // 2)


def from_edge_mask(n: int, mask: int) -> Graph:
    """Graph whose edge set is the given bitmask over ``edge_list(n)``."""
    elist = edge_list(n)
    if mask >> len(elist):
        raise ValueError(f"edge mask has bits beyond the {len(elist)} edges of K_{n}")
    rows = [0] * n
    m = 0
    for i in bits(mask):
        u, v = elist[i]
        rows[u] |= 1 << v
        rows[v] |= 1 << u
        m += 1
    return Graph._trusted(n, tuple(rows), m)


def edge_mask(g: Graph) -> int:
    """Inverse of :func:`from_edge_mask`."""
    return sum(1 << i for i, (u, v) in enumerate(edge_list(g.n)) if g.adj[u] >> v & 1)


def complete_graph(n: int) -> Graph:
    full = (1 << n) - 1
    return Graph(n, tuple(full ^ (1 << u) for u in range(n)))


def path_graph(n: int) -> Graph:
    return from_edges(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    if n < 3:
        raise ValueError("a cycle needs at least 3 vertices")
    return from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def complement(g: Graph) -> Graph:
    full = (1 << g.n) - 1
    rows = tuple(full ^ g.adj[u] ^ (1 << u) for u in range(g.n))
    return Graph._trusted(g.n, rows, g.n * (g.n - 1) // 2 - g.m)


# ---------------------------------------------------------------------------
# graph6 (short form, n <= 62)

@lru_cache(maxsize=None)
def _g6_pairs(n: int) -> tuple[Edge, ...]:
    # graph6 packs the upper triangle column by column.
    return tuple((u, v) for v in range(n) for u in range(v))


def parse_graph6(text: str) -> Graph:
    """Decode one short-form graph6 string.

    Raises :class:`Graph6Error` naming the byte offset of the first
    offending byte.  Only the n <= 62 short form is accepted.
    """
    if not text:
        raise Graph6Error("empty graph6 string (byte 0)")
    head = ord(text[0])
    if head == 126:
        raise Graph6Error("long-form graph6 (more than 62 vertices) not supported (byte 0)")
    if not 63 <= head <= 126:
        raise Graph6Error(f"invalid header byte {head} (byte 0)")
    n = head - 63
    if not 2 <= n <= MAX_VERTICES:
        raise Graph6Error(f"vertex count {n} outside 2..{MAX_VERTICES} (byte 0)")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(text) - 1 < need:
        raise Graph6Error(
            f"expected {need} data bytes, found {len(text) - 1} (byte {len(text)})"
        )
    if len(text) - 1 > need:
        raise Graph6Error(
            f"expected {need} data bytes, found {len(text) - 1} (byte {need + 1})"
        )
    pairs = _g6_pairs(n)
    rows = [0] * n
    m = 0
    for i in range(need):
        val = ord(text[1 + i]) - 63
        if not 0 <= val <= 63:
            raise Graph6Error(f"invalid data byte {ord(text[1 + i])} (byte {1 + i})")
        for j in range(6):
            if not val >> (5 - j) & 1:
                continue
            k = 6 * i + j
            if k >= nbits:
                raise Graph6Error(f"nonzero padding bit (byte {1 + i})")
            u, v = pairs[k]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            m += 1
    return Graph._trusted(n, tuple(rows), m)


def emit_graph6(g: Graph) -> str:
    """Encode in short-form graph6; inverse of :func:`parse_graph6`."""
    n = g.n
    out = [chr(n + 63)]
    acc = 0
    nfilled = 0
    for u, v in _g6_pairs(n):
        acc = acc << 1 | (g.adj[u] >> v & 1)
        nfilled += 1
        if nfilled == 6:
            out.append(chr(acc + 63))
            acc = 0
            nfilled = 0
    if nfilled:
        out.append(chr((acc << (6 - nfilled)) + 63))
    return "".join(out)


# ---------------------------------------------------------------------------
# connectivity and invariants

def _reach(adj: Sequence[int], seed: int, within: int) -> int:
    """Vertices of ``within`` reachable from the vertex set ``seed`` without leaving ``within``."""
    seen = frontier = seed
    while frontier:
        nxt = 0
        while frontier:
            low = frontier & -frontier
            nxt |= adj[low.bit_length() - 1]
            frontier ^= low
        frontier = nxt & within & ~seen
        seen |= frontier
    return seen


def _mask_components(adj: Sequence[int], within: int) -> list[int]:
    """Connected components of the graph restricted to ``within``, sorted by lowest id."""
    comps = []
    while within:
        comp = _reach(adj, within & -within, within)
        comps.append(comp)
        within &= ~comp
    return comps


def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    return _reach(g.adj, 1, full) == full


def _is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        row = g.adj[u] >> (u + 1)
        for v in bits(row):
            if g.adj[u] & g.adj[u + 1 + v]:
                return False
    return True


def _has_far_pair(g: Graph) -> bool:
    """Whether some nonadjacent pair has no common neighbour.

    On a connected graph this is diameter at least 3.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    for u in range(g.n):
        for v in bits(full & ~adj[u] >> (u + 1) << (u + 1)):
            if not adj[u] & adj[v]:
                return True
    return False


def _has_cut_vertex(g: Graph) -> bool:
    """Whether G - v is disconnected for some vertex v, on n >= 3 vertices.

    By this definition a disconnected graph on three or more vertices has one.
    """
    n = g.n
    if n < 3 or 2 * min(row.bit_count() for row in g.adj) >= n:
        return False
    full = (1 << n) - 1
    for v in range(n):
        rest = full & ~(1 << v)
        if _reach(g.adj, rest & -rest, rest) != rest:
            return True
    return False


def _local_connectivity(adj: tuple[int, ...], s: int, t: int, cap: int) -> int:
    """Internally disjoint s-t paths for nonadjacent s, t, searched until ``cap``.

    Each common neighbour w gives the path s-w-t, and some maximum family
    of disjoint paths uses all of them, so they are counted and set aside
    first.  The other paths come from augmenting paths on the split graph
    (an in and an out copy per vertex), found by BFS over bitset rows.
    The flow is kept per vertex: bit w of ``on`` is set while w lies on a
    path, and ``into[w]`` is the vertex before w on it.
    """
    n = len(adj)
    common = adj[s] & adj[t]
    k = common.bit_count()
    inner = ((1 << n) - 1) & ~common & ~(1 << s | 1 << t)
    tbit = 1 << t
    on = 0
    into = [-1] * n
    while k < cap:
        # by_in[y]: the out copy that reached y's in copy; by_out[z]: the
        # in copy that reached z's out copy.
        by_in = [-1] * n
        by_out = [-1] * n
        seen_in = 0
        seen_out = 1 << s
        frontier = [s]
        last = -1
        while frontier and last < 0:
            reached = []
            for x in frontier:
                if adj[x] & tbit:
                    last = x
                    break
                fresh = adj[x] & inner & ~seen_in
                if on >> x & 1 and not seen_in >> x & 1:
                    fresh |= 1 << x  # back along x's own unit of flow
                seen_in |= fresh
                for y in bits(fresh):
                    by_in[y] = x
                    # a free y passes through; a used y leads back along its path
                    z = into[y] if on >> y & 1 else y
                    if not seen_out >> z & 1:
                        seen_out |= 1 << z
                        by_out[z] = y
                        reached.append(z)
            frontier = reached
        if last < 0:
            break
        # Walk the path back from t.  A y whose in copy was reached from
        # its own out copy leaves its path; any other y now follows x.
        z = last
        while z != s:
            y = by_out[z]
            x = by_in[y]
            if x == y:
                on &= ~(1 << y)
                into[y] = -1
            else:
                on |= 1 << y
                into[y] = x
            z = x
        k += 1
    return k


def _vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; 0 for a disconnected graph.

    Even's pair selection: the least vertex u outside a minimum separator
    S is at most |S|, and every vertex in another component of G - S is a
    nonadjacent partner above u.  So only pairs (u, v) with u < v and
    u <= best are tried.  best starts at the minimum degree, which is
    the answer for a complete graph, as it has no nonadjacent pair.
    """
    adj = g.adj
    full = (1 << g.n) - 1
    best = min(row.bit_count() for row in adj)
    u = 0
    while u <= best:
        for v in bits(full & ~adj[u] >> (u + 1) << (u + 1)):
            best = min(best, _local_connectivity(adj, u, v, best))
        u += 1
    return best


def _greedy_clique_lower(g: Graph, order: list[int]) -> int:
    best = 1
    for u in order:
        clique = 1
        cand = g.adj[u]
        for w in order:
            if not cand:
                break
            if cand >> w & 1:
                clique += 1
                cand &= g.adj[w]
        best = max(best, clique)
    return best


def _k_colorable(g: Graph, order: list[int], k: int) -> bool:
    adj = g.adj
    n = g.n
    classes = [0] * k

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        u = order[i]
        row = adj[u]
        bit = 1 << u
        for c in range(min(k, used + 1)):  # new colors are interchangeable
            if row & classes[c]:
                continue
            classes[c] |= bit
            if assign(i + 1, max(used, c + 1)):
                return True
            classes[c] ^= bit
        return False

    return assign(0, 0)


def _chromatic_number(g: Graph) -> int:
    if g.m == 0:
        return 1
    adj = g.adj
    order = sorted(range(g.n), key=lambda u: (-adj[u].bit_count(), u))
    # greedy upper bound
    classes: list[int] = []
    for u in order:
        for c, cls in enumerate(classes):
            if not adj[u] & cls:
                classes[c] = cls | 1 << u
                break
        else:
            classes.append(1 << u)
    ub = len(classes)
    lb = _greedy_clique_lower(g, order)
    for k in range(lb, ub):
        if _k_colorable(g, order, k):
            return k
    return ub


# ---------------------------------------------------------------------------
# enumeration and spanning trees

def enumerate_connected_graphs(n: int, masks: range | None = None) -> Iterator[Graph]:
    """Yield every connected labeled graph on vertices 0..n-1.

    Graphs appear in ascending edge-mask order over ``edge_list(n)``;
    ``masks`` restricts the walk to a range of edge masks, which is how
    every sweep cuts its work into ranges (in-process or in a pool), and
    must lie in 0..2^E - 1.
    Bounded at n <= 7 (1,866,256 graphs) because the mask space doubles
    per extra pair.  One list of rows is kept across the walk, and each
    mask toggles only the edges where it differs from the last graph
    built (about two per step in ascending order).  Each graph is
    checked once with ``is_connected``.
    """
    if not 2 <= n <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"enumeration supports 2..{ENUMERATION_MAX_VERTICES} vertices, got {n}")
    elist = edge_list(n)
    space = range(1 << len(elist))
    masks = space if masks is None else masks
    if masks and not (masks[0] in space and masks[-1] in space):
        raise ValueError(f"edge masks {masks} outside 0..{space[-1]}")
    rows = [0] * n
    built = 0
    for mask in masks:
        if mask.bit_count() < n - 1:
            continue
        for i in bits(mask ^ built):
            u, v = elist[i]
            rows[u] ^= 1 << v
            rows[v] ^= 1 << u
        built = mask
        g = Graph._trusted(n, tuple(rows), mask.bit_count())
        if is_connected(g):
            yield g


def _bfs_parents(adj: tuple[int, ...], within: int) -> list[int] | None:
    """BFS parents in G[within] from its lowest vertex, neighbours in ascending order.

    The root and the vertices outside ``within`` get -1; None if some
    vertex of ``within`` is unreached.
    """
    root = within & -within
    parent = [-1] * len(adj)
    seen = root
    order = [root.bit_length() - 1]
    for u in order:
        new = adj[u] & within & ~seen
        seen |= new
        while new:
            low = new & -new
            w = low.bit_length() - 1
            parent[w] = u
            order.append(w)
            new ^= low
    return parent if seen == within else None


def spanning_tree(g: Graph) -> set[Edge]:
    """BFS spanning tree from vertex 0, visiting neighbors in ascending order."""
    parent = _bfs_parents(g.adj, (1 << g.n) - 1)
    if parent is None:
        raise ValueError("spanning_tree requires a connected graph")
    return {(p, w) if p < w else (w, p) for w, p in enumerate(parent) if w}
