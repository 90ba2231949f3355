"""Edge colorings and the checks a monochromatic-connection coloring must pass.

A coloring assigns one color id to every edge, stored parallel to the
graph's lexicographic edge order.  A coloring *monochromatically connects*
the graph when every vertex pair lies in one connected component of some
single color class; :func:`verify_mc` reports the first pair that fails.

Every edge's own class joins its two endpoints, so :func:`verify_mc`
starts from the adjacency rows and finds components only for the classes
of two or more edges: its cost is the adjacency plus those classes.  A
class's components come from its own adjacency rows through
``graph_core._mask_components``, so they are repeated reaches of the one
reach routine, for :func:`verify_mc` and the per-class view
(:meth:`EdgeColoring.classes`) alike.  That view is rebuilt on each
call; only :func:`is_simple` asks for it.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Any, NamedTuple

from .graph_core import Edge, Graph, _mask_components, bits, emit_graph6, parse_graph6


class ColorClass(NamedTuple):
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

    __slots__ = ("graph", "colors")

    def __init__(self, graph: Graph, colors) -> None:
        colors = tuple(colors)
        if len(colors) != graph.m:
            raise ValueError(
                f"coloring lists {len(colors)} colors for a graph with {graph.m} edges"
            )
        if colors:
            used = set(colors)
            # type() rather than isinstance(): bools are ints to isinstance(),
            # and True, like 1.0, would join the set as 1.  Distinct ints
            # from 0 whose largest is one less than their count are 0..max.
            if set(map(type, colors)) != {int} or min(used) or max(used) != len(used) - 1:
                raise ValueError("color ids must be contiguous integers starting at 0")
        self.graph = graph
        self.colors = colors

    @property
    def color_count(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    @property
    def waste(self) -> int:
        return self.graph.m - self.color_count

    def classes(self) -> tuple[ColorClass, ...]:
        """One :class:`ColorClass` per color, in color order; built afresh per call."""
        grouped: dict[int, list[Edge]] = defaultdict(list)
        for e, c in zip(self.graph.edges(), self.colors):
            grouped[c].append(e)
        n = self.graph.n
        return tuple(_build_class(n, c, tuple(grouped[c])) for c in sorted(grouped))

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


def _components(n: int, edges) -> list[int]:
    """Vertex bitsets of the connected components that ``edges`` form on n vertices."""
    rows = [0] * n
    for u, v in edges:
        rows[u] |= 1 << v
        rows[v] |= 1 << u
    touched = 0
    for row in rows:
        touched |= row
    return _mask_components(rows, touched)


def _build_class(n: int, color: int, es: tuple[Edge, ...]) -> ColorClass:
    components = tuple(sorted(_components(n, es)))
    vmask = 0
    for comp in components:
        vmask |= comp
    is_tree = len(components) == 1 and len(es) == vmask.bit_count() - 1
    return ColorClass(color, es, vmask, components, is_tree, len(es) - 1)


def verify_mc(col: EdgeColoring) -> Edge | None:
    """Return None when the coloring monochromatically connects the graph.

    Otherwise return the lexicographically first vertex pair with no
    single-colored path between its endpoints.
    """
    g = col.graph
    n = g.n
    # A single edge's class joins only its own, already adjacent, endpoints.
    covered = [row | 1 << u for u, row in enumerate(g.adj)]
    counts = [0] * col.color_count
    for c in col.colors:
        counts[c] += 1
    grouped: dict[int, list[Edge]] = defaultdict(list)
    for e, c in zip(g.edges(), col.colors):
        if counts[c] > 1:
            grouped[c].append(e)
    for es in grouped.values():
        for comp in _components(n, es):
            for u in bits(comp):
                covered[u] |= comp
    full = (1 << n) - 1
    for u in range(n):
        missing = (full ^ covered[u]) >> (u + 1)
        if missing:
            v = u + 1 + ((missing & -missing).bit_length() - 1)
            return (u, v)
    return None


def is_simple(col: EdgeColoring) -> bool:
    """True when nontrivial classes pairwise share at most one vertex.

    Requires every class to be a tree; raises ValueError otherwise.
    """
    classes = col.classes()
    if not all(cls.is_tree for cls in classes):
        raise ValueError("is_simple is defined only for colorings whose classes are trees")
    nontrivial = [cls.vertex_mask for cls in classes if cls.is_nontrivial]
    for i in range(len(nontrivial)):
        for j in range(i + 1, len(nontrivial)):
            if (nontrivial[i] & nontrivial[j]).bit_count() > 1:
                return False
    return True


# ---------------------------------------------------------------------------
# JSON wire format: {"graph6": ..., "edges": [[u, v], ...], "colors": [...]}

def _coloring_doc(col: EdgeColoring) -> dict[str, Any]:
    """The wire-format object that :func:`coloring_to_json` serializes."""
    return {
        "graph6": emit_graph6(col.graph),
        "edges": [[u, v] for u, v in col.graph.edges()],
        "colors": list(col.colors),
    }


def coloring_to_json(col: EdgeColoring) -> str:
    return json.dumps(_coloring_doc(col))


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
        i = position.get((u, v))
        if i is None:
            raise ValueError(f"listed edge ({u}, {v}) is not an edge of the graph")
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
