"""Edge colorings and the checks a monochromatic-connection coloring must pass.

A coloring assigns one color id to every edge, stored parallel to the
graph's lexicographic edge order.  A coloring *monochromatically connects*
the graph when every vertex pair lies in one connected component of some
single color class; :func:`verify_mc` reports the first pair that fails.
"""

from __future__ import annotations

import json
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from .graph_core import Edge, Graph, bits, edge_index, emit_graph6, parse_graph6


@dataclass(frozen=True)
class ColorClass:
    """One color's edges together with its component structure."""

    color: int
    edges: tuple[Edge, ...]
    vertex_mask: int
    components: tuple[int, ...]
    is_tree: bool
    waste: int

    @property
    def is_nontrivial(self) -> bool:
        return len(self.edges) >= 2


class EdgeColoring:
    """Edge colors parallel to ``graph.edges()``; ids contiguous from 0."""

    __slots__ = ("graph", "colors", "_classes")

    def __init__(self, graph: Graph, colors) -> None:
        colors = tuple(colors)
        if len(colors) != graph.m:
            raise ValueError(
                f"coloring lists {len(colors)} colors for a graph with {graph.m} edges"
            )
        if colors:
            used = set(colors)
            if used != set(range(max(colors) + 1)):
                raise ValueError("color ids must be contiguous integers starting at 0")
        self.graph = graph
        self.colors = colors
        self._classes = None

    @property
    def color_count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    @property
    def waste(self) -> int:
        return self.graph.m - self.color_count

    def color_of(self, edge: Edge) -> int:
        u, v = edge
        if u > v:
            u, v = v, u
        try:
            i = self.graph.edges().index((u, v))
        except ValueError:
            raise KeyError(f"({u}, {v}) is not an edge of the graph") from None
        return self.colors[i]

    def classes(self) -> tuple[ColorClass, ...]:
        if self._classes is None:
            elist = self.graph.edges()
            grouped: dict[int, list[Edge]] = defaultdict(list)
            for e, c in zip(elist, self.colors):
                grouped[c].append(e)
            out = []
            for c in sorted(grouped):
                es = tuple(grouped[c])
                out.append(_build_class(c, es))
            self._classes = tuple(out)
        return self._classes

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.graph == other.graph
            and self.colors == other.colors
        )

    def __hash__(self) -> int:
        return hash((self.graph, self.colors))

    def __repr__(self) -> str:
        return f"EdgeColoring({self.color_count} colors on {self.graph.m} edges)"


def _build_class(color: int, es: tuple[Edge, ...]) -> ColorClass:
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    vmask = 0
    for u, v in es:
        vmask |= 1 << u | 1 << v
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[rv] = ru
    comps: dict[int, int] = defaultdict(int)
    for x in parent:
        comps[find(x)] |= 1 << x
    components = tuple(sorted(comps.values()))
    nverts = vmask.bit_count()
    is_tree = len(components) == 1 and len(es) == nverts - 1
    return ColorClass(color, es, vmask, components, is_tree, len(es) - 1)


def color_count(col: EdgeColoring) -> int:
    return col.color_count


def waste(col: EdgeColoring) -> int:
    return col.waste


def verify_mc(col: EdgeColoring) -> Edge | None:
    """Return None when the coloring monochromatically connects the graph.

    Otherwise return the lexicographically first vertex pair with no
    single-colored path between its endpoints.
    """
    n = col.graph.n
    covered = [1 << u for u in range(n)]
    for cls in col.classes():
        for comp in cls.components:
            for u in bits(comp):
                covered[u] |= comp
    full = (1 << n) - 1
    for u in range(n):
        missing = (full ^ covered[u]) >> (u + 1)
        if missing:
            v = u + 1 + ((missing & -missing).bit_length() - 1)
            return (u, v)
    return None


def classes_are_trees(col: EdgeColoring) -> bool:
    """True when every color class induces a tree (single edges count)."""
    return all(cls.is_tree for cls in col.classes())


def is_simple(col: EdgeColoring) -> bool:
    """True when nontrivial classes pairwise share at most one vertex.

    Requires every class to be a tree; raises ValueError otherwise.
    """
    if not classes_are_trees(col):
        raise ValueError("is_simple is defined only for colorings whose classes are trees")
    nontrivial = [cls.vertex_mask for cls in col.classes() if cls.is_nontrivial]
    for i in range(len(nontrivial)):
        for j in range(i + 1, len(nontrivial)):
            if (nontrivial[i] & nontrivial[j]).bit_count() > 1:
                return False
    return True


def has_no_redundant_class(col: EdgeColoring) -> bool:
    """True when every nontrivial class spans at least one nonadjacent pair.

    A class whose vertices form a clique could be split into singletons
    without disconnecting anything, so it never appears in an extremal
    coloring.
    """
    adj = col.graph.adj
    for cls in col.classes():
        if not cls.is_nontrivial:
            continue
        for u in bits(cls.vertex_mask):
            if cls.vertex_mask & ~(adj[u] | 1 << u):
                break
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# JSON wire format: {"graph6": ..., "edges": [[u, v], ...], "colors": [...]}

def coloring_to_json(col: EdgeColoring) -> str:
    return json.dumps(
        {
            "graph6": emit_graph6(col.graph),
            "edges": [[u, v] for u, v in col.graph.edges()],
            "colors": list(col.colors),
        }
    )


def coloring_from_json(data: dict[str, Any] | str) -> EdgeColoring:
    """Load a coloring; listed edge order is free, ids are renumbered densely."""
    if isinstance(data, str):
        try:
            data = json.loads(data)
        except RecursionError:
            raise ValueError("coloring JSON nests too deeply") from None
    if not isinstance(data, dict):
        raise ValueError("coloring JSON must be an object")
    for key in ("graph6", "edges", "colors"):
        if key not in data:
            raise ValueError(f"coloring JSON missing {key!r}")
    if not isinstance(data["graph6"], str):
        raise ValueError("coloring JSON 'graph6' must be a string")
    g = parse_graph6(data["graph6"])
    raw_edges = data["edges"]
    raw_colors = data["colors"]
    if not isinstance(raw_edges, list) or not isinstance(raw_colors, list):
        raise ValueError("coloring JSON 'edges' and 'colors' must be lists")
    if len(raw_edges) != len(raw_colors):
        raise ValueError(
            f"{len(raw_edges)} edges listed against {len(raw_colors)} colors"
        )
    idx = edge_index(g.n)
    assigned: list[int | None] = [None] * g.m
    elist = g.edges()
    position = {e: i for i, e in enumerate(elist)}
    for pair, c in zip(raw_edges, raw_colors):
        # type() rather than isinstance(): JSON true/false load as bools,
        # which isinstance() counts as ints.
        if (
            not isinstance(pair, (list, tuple))
            or len(pair) != 2
            or type(pair[0]) is not int
            or type(pair[1]) is not int
        ):
            raise ValueError(f"listed edge {pair!r} is not a pair of vertex ids")
        u, v = pair
        if u > v:
            u, v = v, u
        if (u, v) not in idx or not g.has_edge(u, v):
            raise ValueError(f"listed edge ({u}, {v}) is not an edge of the graph")
        i = position[(u, v)]
        if assigned[i] is not None:
            raise ValueError(f"edge ({u}, {v}) listed twice")
        if type(c) is not int or c < 0:
            raise ValueError(f"color for edge ({u}, {v}) must be a nonnegative integer")
        assigned[i] = c
    if any(c is None for c in assigned):
        missing = elist[assigned.index(None)]
        raise ValueError(f"edge {missing} has no color")
    remap: dict[int, int] = {}
    dense = []
    for c in assigned:
        if c not in remap:
            remap[c] = len(remap)
        dense.append(remap[c])
    return EdgeColoring(g, dense)
