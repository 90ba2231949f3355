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
from dataclasses import dataclass
from math import comb

from .coloring import EdgeColoring, _coloring_doc, verify_mc
from .constructions import (
    _coloring_from_groups,
    _mask_components,
    near_complete_coloring,
    spanning_tree_coloring,
)
from .formulas import split_graph_base_edges
from .graph_core import (
    Graph,
    _chromatic_number,
    _diameter,
    _has_cut_vertex,
    _is_triangle_free,
    _vertex_connectivity,
    bits,
    complement,
    is_connected,
)

# Branch-and-bound is exponential; refuse exact solves past this order.
EXACT_HARD_CAP = 16
# The reference oracle walks edge partitions; refuse past this size.
ORACLE_EDGE_CAP = 12


class ExactSolveRefusedError(RuntimeError):
    """Exact solve rejected because the graph is too large.

    ``lower`` and ``upper`` carry cheap bounds on mc computed before
    refusing (constructive lower bound; degree and edge-count upper
    bounds).
    """

    def __init__(self, message: str, lower: int, upper: int):
        super().__init__(message)
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class McCertificate:
    """Exact mc value plus the evidence for it.

    ``coloring`` attains ``value`` and passes verify_mc.  ``method`` is
    "fast-path" or "branch-and-bound" ("oracle" is reserved for externally
    checked values and never emitted here); a solve closed by the bounds
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
    """
    n = g.n
    if not 1 <= s <= n - 1:
        return False
    full = (1 << n) - 1
    for v in range(n):
        if g.degree(v) != s:
            continue
        rest = full & ~(1 << v)
        nbr = g.adj[v]
        # Nonadjacent vertices must share a part, so the atoms of any
        # valid split are the components of the complement minus v.
        cadj = [full & ~(g.adj[x] | (1 << x) | (1 << v)) for x in range(n)]
        atoms = _mask_components(cadj, rest)
        if len(atoms) < s:
            continue
        acount = [(a & nbr).bit_count() for a in atoms]
        if any(c > 1 for c in acount):
            continue
        if _group_atoms(g, atoms, acount, s):
            return True
    return False


def _group_atoms(g: Graph, atoms: list[int], acount: list[int], s: int) -> bool:
    """Try to merge atoms into exactly s parts meeting the split rules."""
    total = len(atoms)
    parts: list[list[int]] = []  # [vertex mask, neighbor count]

    def place(ai: int) -> bool:
        if len(parts) + (total - ai) < s:
            return False
        if ai == total:
            if len(parts) != s:
                return False
            for pm, pc in parts:
                if pc != 1:
                    return False
                if len(_mask_components(g.adj, pm)) != 1:
                    return False
            return True
        a, ac = atoms[ai], acount[ai]
        for part in parts:
            if part[1] + ac > 1:
                continue
            part[0] |= a
            part[1] += ac
            if place(ai + 1):
                return True
            part[0] &= ~a
            part[1] -= ac
        if len(parts) < s:
            parts.append([a, ac])
            if place(ai + 1):
                return True
            parts.pop()
        return False

    return place(0)


def mc_upper_bounds(g: Graph) -> list[tuple[str, int]]:
    """All structural upper bounds on mc(g), as (name, value) pairs.

    Bounds: m - n + chromatic number; m - n + vertex connectivity + 1;
    the minimum-degree dichotomy (m - n + delta, shifting to + 1 only
    for perfectly connected graphs); and m - t + 1 whenever the edge
    count lands in the window [base, base + t - 2] over the split-graph
    base edge count for some t.
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
    for t in range(2, n):
        base = split_graph_base_edges(n, t)
        if base <= m <= base + t - 2:
            out.append((f"upper:edge-window(t={t})", m - t + 1))
    return out


def baseline_fast_path(g: Graph) -> str | None:
    """Name of the first cheap condition forcing mc(g) = m - n + 2, or None.

    Checked in increasing cost order: a max-degree inequality,
    triangle-freeness, a cut vertex, diameter at least 3, and a
    4-connected complement.  Only valid for n > 3, so smaller graphs
    always get None.
    """
    if not is_connected(g):
        raise ValueError("requires a connected graph")
    n, m = g.n, g.m
    if n <= 3:
        return None
    dmax = max(g.degree(v) for v in range(n))
    if (n - dmax) * (n - 3) > 2 * m - 3 * (n - 1):
        return "max-degree"
    if _is_triangle_free(g):
        return "triangle-free"
    if _has_cut_vertex(g):
        return "cut-vertex"
    if _diameter(g) >= 3:
        return "diameter"
    co = complement(g)
    if min(co.degree(v) for v in range(n)) >= 4 and _vertex_connectivity(co) >= 4:
        return "complement-connectivity"
    return None


def _bounds(g: Graph) -> tuple[int, EdgeColoring, int, tuple[tuple[str, int], ...]]:
    """Lower bound, its coloring, upper bound and the trace of every bound.

    The near-complete coloring is the spanning-tree coloring when p >= n - 2
    edges are missing and wastes at most p colors otherwise, so it never
    has fewer than the spanning tree's m - n + 2; the trace lists both.
    Private because the benchmark tracer wraps public functions only and
    reads these two calls as ``mc_exact``'s own lower and upper phases.
    """
    lb_col = near_complete_coloring(g)
    lb = lb_col.color_count
    ubs = mc_upper_bounds(g)
    trace = (("lower:spanning-tree", g.m - g.n + 2), ("lower:near-complete", lb), *ubs)
    return lb, lb_col, min(v for _, v in ubs), trace


def _cheap_bounds(g: Graph) -> tuple[int, int]:
    """Bounds safe to compute at any size, for refusal messages."""
    n, m = g.n, g.m
    lb = near_complete_coloring(g).color_count
    delta = min(g.degree(v) for v in range(n))
    ub = m - n + delta + 1
    for t in range(2, n):
        base = split_graph_base_edges(n, t)
        if base <= m <= base + t - 2:
            ub = min(ub, m - t + 1)
    return lb, ub


def mc_exact(g: Graph, *, fast_path: bool = True) -> McCertificate:
    """Exact mc(g) with an attaining coloring and a bound trace.

    Raises ValueError on disconnected input and ExactSolveRefusedError
    past EXACT_HARD_CAP vertices.  ``fast_path=False`` skips the cheap
    structural conditions and forces the bound-and-search route, which
    is how the fast path itself gets regression-tested.
    """
    if not is_connected(g):
        raise ValueError("mc is only defined for connected graphs")
    n, m = g.n, g.m
    if n > EXACT_HARD_CAP:
        lb, ub = _cheap_bounds(g)
        raise ExactSolveRefusedError(
            f"refusing exact solve for n={n} > {EXACT_HARD_CAP}; "
            f"mc is within [{lb}, {ub}]",
            lower=lb,
            upper=ub,
        )
    if fast_path:
        reason = baseline_fast_path(g)
        if reason is not None:
            trace = ((f"fast:baseline({reason})", m - n + 2),)
            return McCertificate(m - n + 2, spanning_tree_coloring(g), "fast-path", trace)
    lb, lb_col, ub, trace = _bounds(g)
    assert lb <= ub, f"bound inversion on {g!r}: {lb} > {ub}"
    if lb == ub:
        return McCertificate(lb, lb_col, "branch-and-bound", trace)
    value, col = _vertex_set_search(g, lb_col, ub)
    assert verify_mc(col) is None
    assert col.color_count == value
    return McCertificate(value, col, "branch-and-bound", trace)


def _vertex_set_search(g: Graph, start_col: EdgeColoring, ub: int) -> tuple[int, EdgeColoring]:
    """Minimize total waste over connected vertex sets sharing at most one vertex.

    Some extremal coloring has nontrivial classes that are trees pairwise
    sharing at most one vertex (Caro and Yuster's lemma on simple
    colorings), and such trees share no edge.  So a coloring with k
    colors exists iff some family of connected vertex sets, pairwise
    sharing at most one vertex, puts every nonadjacent pair inside a
    member at total waste m - k, where a set S wastes |S| - 2 and any
    spanning tree of G[S] realizes its class.  Vertex pairs are bits
    u * n + v (u < v); a set occupies the pairs inside it and is legal
    iff the chosen sets occupy none of them.  The search branches on
    the uncovered pair with the fewest legal candidates and prunes with
    the pair-coverage capacity of the remaining waste budget.
    """
    n, m = g.n, g.m
    adj = g.adj
    upper = nonadj = 0
    for u in range(n):
        row = ((1 << n) - 1) >> (u + 1) << (u + 1)
        upper |= row << (u * n)
        nonadj |= (row & ~adj[u]) << (u * n)
    np_ = nonadj.bit_count()
    best_w = m - start_col.color_count
    floor_w = m - ub
    # conv[r]: least total waste able to cover r nonadjacent pairs, since
    # waste w buys a connected set on w + 2 vertices, which holds at least
    # w + 1 edges and so at most C(w+1, 2) nonadjacent pairs, and
    # splitting waste never helps.
    conv = [0] * (np_ + 1)
    for r in range(1, np_ + 1):
        w = max(conv[r - 1], 1)
        while comb(w + 1, 2) < r:
            w += 1
        conv[r] = w

    # Every connected set on 3 .. best_w + 1 vertices, rooted at its lowest
    # vertex and grown through neighbors; a neighbor skipped once is banned
    # from later siblings, so each set comes out exactly once.  Each set
    # is filed as (waste, vertex mask, occupied pairs) under every
    # nonadjacent pair it covers.  With spread = sum of 2^(x*n) over x in
    # s, the product s * spread has bit x*n + y set iff x, y are in s.
    cands: dict[int, list[tuple[int, int, int]]] = {}
    max_size = best_w + 1

    def grow(s: int, spread: int, size: int, ext: int, banned: int) -> None:
        if size >= 3:
            occ = s * spread & upper
            item = (size - 2, s, occ)
            cov = occ & nonadj
            while cov:
                jb = cov & -cov
                cov ^= jb
                cands.setdefault(jb.bit_length() - 1, []).append(item)
        if size == max_size:
            return
        while ext:
            wb = ext & -ext
            ext ^= wb
            w = wb.bit_length() - 1
            s2 = s | wb
            grow(s2, spread | 1 << w * n, size + 1, (ext | adj[w]) & ~(s2 | banned), banned)
            banned |= wb

    for r in range(n):
        low = (2 << r) - 1
        grow(1 << r, 1 << r * n, 1, adj[r] & ~low, low)
    for cl in cands.values():
        cl.sort()

    best_sets: list[int] | None = None
    done = False

    def dfs(uncov: int, occupied: int, w_used: int, live: dict, chosen: list[int]) -> None:
        nonlocal best_w, best_sets, done
        if uncov == 0:
            best_w = w_used
            best_sets = list(chosen)
            if best_w <= floor_w:
                done = True
            return
        if w_used + conv[uncov.bit_count()] >= best_w:
            return
        # Legal candidates only shrink along a branch, so each node
        # narrows its parent's lists and hands them to its children.
        cap = best_w - 1 - w_used
        narrowed = {}
        pick_cands: list[tuple[int, int, int]] | None = None
        uu = uncov
        while uu:
            jb = uu & -uu
            j = jb.bit_length() - 1
            uu ^= jb
            cl = [c for c in live.get(j, ()) if c[0] <= cap and not c[2] & occupied]
            if not cl:
                return
            narrowed[j] = cl
            if pick_cands is None or len(cl) < len(pick_cands):
                pick_cands = cl
        for w, s, occ in pick_cands:
            unc2 = uncov & ~occ
            if w_used + w + conv[unc2.bit_count()] >= best_w:
                continue
            chosen.append(s)
            dfs(unc2, occupied | occ, w_used + w, narrowed, chosen)
            chosen.pop()
            if done:
                return

    dfs(nonadj, 0, 0, cands, [])
    value = m - best_w
    if best_sets is None:
        return value, start_col
    # Each class is the BFS tree of G[S] from its lowest vertex.
    groups = []
    for s in best_sets:
        seen = s & -s
        queue = [seen.bit_length() - 1]
        tree = []
        for u in queue:
            for w in bits(adj[u] & s & ~seen):
                seen |= 1 << w
                tree.append((u, w))
                queue.append(w)
        groups.append(tree)
    return value, _coloring_from_groups(g, groups)


def mc_oracle_partitions(g: Graph) -> int:
    """Reference mc(g) straight from the definition, for cross-checking.

    Walks restricted-growth assignments of edges to color classes while
    tracking, per class, the vertex sets its components span and, per
    nonadjacent pair, how many classes join it.  Prunes use elementary
    counting only: every class assignment after the first in a class
    costs one color, a class formed by j such merges joins at most
    C(j+1, 2) nonadjacent pairs, and a one-color spanning tree plus
    rainbow leftovers always realizes m - n + 2 colors.  Independent of
    the vertex-set model the main solver searches: it assumes nothing
    about how color classes overlap.
    """
    if not is_connected(g):
        raise ValueError("mc is only defined for connected graphs")
    if g.m > ORACLE_EDGE_CAP:
        raise ValueError(f"oracle limited to {ORACLE_EDGE_CAP} edges, got {g.m}")
    n, m = g.n, g.m
    edges = list(g.edges())
    full = (1 << n) - 1
    nonadj = [full & ~(g.adj[u] | 1 << u) for u in range(n)]
    pair_id: dict[tuple[int, int], int] = {}
    for u in range(n):
        for v in bits(nonadj[u] >> (u + 1) << (u + 1)):
            pair_id[(u, v)] = len(pair_id)
    np_ = len(pair_id)
    if np_ == 0:
        return m  # complete graph: all edges distinct
    best = m - n + 2
    covered = [0] * np_
    classes: list[list[int]] = []
    uncovered = np_

    def cover(amask: int, bmask: int) -> list[int]:
        nonlocal uncovered
        bumped = []
        for x in bits(amask):
            for y in bits(nonadj[x] & bmask):
                j = pair_id[(x, y) if x < y else (y, x)]
                covered[j] += 1
                if covered[j] == 1:
                    uncovered -= 1
                bumped.append(j)
        return bumped

    def uncover(bumped: list[int]) -> None:
        nonlocal uncovered
        for j in bumped:
            covered[j] -= 1
            if covered[j] == 0:
                uncovered += 1

    def dfs(i: int, joins: int) -> None:
        nonlocal best
        if uncovered == 0:
            # Rainbow the rest: m - joins colors, the subtree maximum.
            if m - joins > best:
                best = m - joins
            return
        if m - joins - 1 <= best:
            return
        if comb(m - best, 2) < np_:
            return
        if i == m:
            return
        u, v = edges[i]
        classes.append([(1 << u) | (1 << v)])
        dfs(i + 1, joins)
        classes.pop()
        for ci in range(len(classes)):
            comps = classes[ci]
            iu = iv = -1
            for k, cm in enumerate(comps):
                if cm >> u & 1:
                    iu = k
                if cm >> v & 1:
                    iv = k
            if iu == iv and iu != -1:
                continue  # edge inside a component never helps
            if iu == -1 and iv == -1:
                classes[ci] = comps + [(1 << u) | (1 << v)]
                dfs(i + 1, joins + 1)
                classes[ci] = comps
            elif iv == -1:
                grown = comps[iu] | (1 << v)
                bumped = cover(comps[iu], 1 << v)
                classes[ci] = comps[:iu] + [grown] + comps[iu + 1 :]
                dfs(i + 1, joins + 1)
                classes[ci] = comps
                uncover(bumped)
            elif iu == -1:
                grown = comps[iv] | (1 << u)
                bumped = cover(comps[iv], 1 << u)
                classes[ci] = comps[:iv] + [grown] + comps[iv + 1 :]
                dfs(i + 1, joins + 1)
                classes[ci] = comps
                uncover(bumped)
            else:
                bumped = cover(comps[iu], comps[iv])
                merged = [cm for k, cm in enumerate(comps) if k not in (iu, iv)]
                merged.append(comps[iu] | comps[iv])
                classes[ci] = merged
                dfs(i + 1, joins + 1)
                classes[ci] = comps
                uncover(bumped)

    dfs(0, 0)
    return best
