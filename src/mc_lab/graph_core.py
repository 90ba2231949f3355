"""Bitset-backed simple graphs.

Vertices are 0..n-1 and every adjacency row is a Python int used as a
bitset, which keeps the exhaustive sweeps and the solver's set algebra
cheap.  The module covers construction, graph6 text I/O, complements,
standard invariants (degrees, diameter, exact chromatic number, exact vertex
connectivity, cut vertices, triangle-freeness), labeled enumeration of
connected graphs, and deterministic BFS spanning trees.

Vertex connectivity follows Even's pair selection: only nonadjacent
pairs whose lower vertex is at most the best separator found so far are
tried.  Each pair counts its common neighbours, then finds the remaining
disjoint paths by BFS augmenting paths over bitset rows, stopping once
the count reaches the best separator.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator

Edge = tuple[int, int]

MAX_VERTICES = 62
ENUMERATION_MAX_VERTICES = 8


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
        rows = tuple(adj)
        if not 2 <= n <= MAX_VERTICES:
            raise ValueError(f"vertex count {n} outside 2..{MAX_VERTICES}")
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


@lru_cache(maxsize=None)
def edge_index(n: int) -> dict[Edge, int]:
    return {e: i for i, e in enumerate(edge_list(n))}


def from_edges(n: int, edges) -> Graph:
    if not 2 <= n <= MAX_VERTICES:
        raise ValueError(f"vertex count {n} outside 2..{MAX_VERTICES}")
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
    idx = edge_index(g.n)
    mask = 0
    for e in g.edges():
        mask |= 1 << idx[e]
    return mask


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

def is_connected(g: Graph) -> bool:
    full = (1 << g.n) - 1
    seen = 1
    frontier = 1
    while frontier:
        nxt = 0
        for u in bits(frontier):
            nxt |= g.adj[u]
        frontier = nxt & ~seen
        seen |= frontier
    return seen == full


def _reach_and_eccentricity(adj: tuple[int, ...], src: int) -> tuple[int, int]:
    seen = 1 << src
    frontier = seen
    ecc = 0
    while True:
        nxt = 0
        for u in bits(frontier):
            nxt |= adj[u]
        nxt &= ~seen
        if not nxt:
            return seen, ecc
        seen |= nxt
        frontier = nxt
        ecc += 1


def _diameter(g: Graph) -> int | float:
    full = (1 << g.n) - 1
    diam = 0
    for src in range(g.n):
        seen, ecc = _reach_and_eccentricity(g.adj, src)
        if seen != full:
            return math.inf
        diam = max(diam, ecc)
    return diam


def _is_triangle_free(g: Graph) -> bool:
    for u in range(g.n):
        row = g.adj[u] >> (u + 1)
        for v in bits(row):
            if g.adj[u] & g.adj[u + 1 + v]:
                return False
    return True


def _has_cut_vertex(g: Graph) -> bool:
    n = g.n
    if n < 3:
        return False
    disc = [0] * n
    low = [0] * n
    timer = 1
    for root in range(n):
        if disc[root]:
            continue
        disc[root] = low[root] = timer
        timer += 1
        root_children = 0
        stack: list[tuple[int, int, Iterator[int]]] = [(root, -1, bits(g.adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            descended = False
            for w in it:
                if not disc[w]:
                    disc[w] = low[w] = timer
                    timer += 1
                    if u == root:
                        root_children += 1
                    stack.append((w, u, bits(g.adj[w])))
                    descended = True
                    break
                if w != parent and disc[w] < low[u]:
                    low[u] = disc[w]
            if descended:
                continue
            stack.pop()
            if parent >= 0:
                if low[u] < low[parent]:
                    low[parent] = low[u]
                if parent != root and low[u] >= disc[parent]:
                    return True
        if root_children >= 2:
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
            if cand >> w & 1:
                clique += 1
                cand &= g.adj[w]
        best = max(best, clique)
    return best


def _k_colorable(g: Graph, order: list[int], k: int) -> bool:
    n = g.n
    color = [-1] * n

    def assign(i: int, used: int) -> bool:
        if i == n:
            return True
        u = order[i]
        forbidden = 0
        for w in bits(g.adj[u]):
            if color[w] >= 0:
                forbidden |= 1 << color[w]
        limit = min(k, used + 1)  # new colors are interchangeable
        for c in range(limit):
            if forbidden >> c & 1:
                continue
            color[u] = c
            if assign(i + 1, max(used, c + 1)):
                return True
            color[u] = -1
        return False

    return assign(0, 0)


def _chromatic_number(g: Graph) -> int:
    if g.m == 0:
        return 1
    order = sorted(range(g.n), key=lambda u: (-g.degree(u), u))
    # greedy upper bound
    color = {}
    ub = 0
    for u in order:
        taken = {color[w] for w in bits(g.adj[u]) if w in color}
        c = 0
        while c in taken:
            c += 1
        color[u] = c
        ub = max(ub, c + 1)
    lb = _greedy_clique_lower(g, order)
    for k in range(lb, ub):
        if _k_colorable(g, order, k):
            return k
    return ub


# ---------------------------------------------------------------------------
# enumeration and spanning trees

def enumerate_connected_graphs(n: int, m_filter: int | None = None) -> Iterator[Graph]:
    """Yield every connected labeled graph on vertices 0..n-1.

    Graphs appear in ascending edge-mask order over ``edge_list(n)``; pass
    ``m_filter`` to restrict to one edge count.  Bounded at n <= 8 because
    the mask space doubles per extra pair.
    """
    if not 2 <= n <= ENUMERATION_MAX_VERTICES:
        raise ValueError(f"enumeration supports 2..{ENUMERATION_MAX_VERTICES} vertices, got {n}")
    elist = edge_list(n)
    full = (1 << n) - 1
    for mask in range(1 << len(elist)):
        m = mask.bit_count()
        if m_filter is not None and m != m_filter:
            continue
        if m < n - 1:
            continue
        rows = [0] * n
        rest = mask
        while rest:
            low = rest & -rest
            u, v = elist[low.bit_length() - 1]
            rows[u] |= 1 << v
            rows[v] |= 1 << u
            rest ^= low
        seen = 1
        frontier = 1
        while frontier:
            nxt = 0
            for u in bits(frontier):
                nxt |= rows[u]
            frontier = nxt & ~seen
            seen |= frontier
        if seen == full:
            yield Graph._trusted(n, tuple(rows), m)


def _bfs_parents(adj: tuple[int, ...]) -> list[int] | None:
    """Parents in :func:`spanning_tree`'s BFS (vertex 0's is -1); None if some vertex is unreached."""
    parent = [-1] * len(adj)
    seen = 1
    order = [0]
    for u in order:
        new = adj[u] & ~seen
        seen |= new
        while new:
            low = new & -new
            w = low.bit_length() - 1
            parent[w] = u
            order.append(w)
            new ^= low
    return parent if len(order) == len(adj) else None


def spanning_tree(g: Graph) -> set[Edge]:
    """BFS spanning tree from vertex 0, visiting neighbors in ascending order."""
    parent = _bfs_parents(g.adj)
    if parent is None:
        raise ValueError("spanning_tree requires a connected graph")
    return {(p, w) if p < w else (w, p) for w, p in enumerate(parent) if w}
