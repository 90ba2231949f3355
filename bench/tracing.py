"""Per-layer spans, recorded around the public functions of mc_lab.

The layers are the modules of ``mc_lab``.  ``Tracer.install`` wraps every
public function and ``to_json`` method those modules define, in every
module namespace that refers to it, so calls between modules are spans
too.  Nothing inside ``src/mc_lab`` changes.  Spans are folded into
totals as they close instead of being kept: per layer the self time (a
span's duration minus its traced children), per metric group the time of
its outermost spans, plus the solver's per-graph outcome counts.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import time

LAYERS = ("graph_core", "coloring", "constructions", "solver", "formulas", "harness")

# Generators return before their work is done, so a span would miss it;
# ``bits`` also runs inside every inner loop.
SKIP = {"graph_core.bits", "graph_core.enumerate_connected_graphs"}

LOWER = ("constructions.spanning_tree_coloring", "constructions.near_complete_coloring")

GROUP = {
    "graph_core.metrics": "graph_core.metrics_s",
    "graph_core.parse_graph6": "graph_core.parse_graph6_s",
    "graph_core.emit_graph6": "graph_core.emit_graph6_s",
    "coloring.verify_mc": "coloring.verify_s",
    "coloring.coloring_from_json": "coloring.from_json_s",
    "coloring.coloring_to_json": "coloring.to_json_s",
    "formulas.min_edges_forcing": "formulas.tables_s",
    "formulas.max_edges_capping": "formulas.tables_s",
    "formulas.min_edges_reaching": "formulas.tables_s",
    "formulas.max_edges_within": "formulas.tables_s",
    "formulas.table_rows": "formulas.tables_s",
    **{name: "constructions.lower_colorings_s" for name in LOWER},
}

FAST_REASONS = ("max-degree", "triangle-free", "cut-vertex", "diameter", "complement-connectivity")

# Children of mc_exact that are not the search: everything before it.
PRE_SEARCH = ("graph_core.is_connected", "solver.baseline_fast_path", "solver.mc_upper_bounds", *LOWER)


def nearest_rank(values: list[float], pct: int) -> float:
    """The pct-th percentile by nearest rank; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, -(-len(ordered) * pct // 100) - 1)]


class _Frame:
    __slots__ = ("name", "child", "children")

    def __init__(self, name: str) -> None:
        self.name = name
        self.child = 0.0
        self.children: dict[str, float] = {}


class Tracer:
    """Span recorder; ``install`` once per process, before the timed work."""

    def __init__(self) -> None:
        self.stack: list[_Frame] = []
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.group_s = dict.fromkeys(set(GROUP.values()) | {"constructions.build_s"}, 0.0)
        self.depth = dict.fromkeys(self.group_s, 0)
        self.counts = {
            "fast_calls": 0,
            "enumerate_graphs": 0,
            "bounds_reached": 0,
            "bounds_closed": 0,
            "bound_gap_sum": 0,
            **{f"fast:{r}": 0 for r in FAST_REASONS},
        }
        self.enumerate_s = 0.0
        self.fast_path_s = 0.0
        self.lower_bound_s = 0.0
        self.upper_bounds_s = 0.0
        self.search_s: list[float] = []

    def install(self) -> None:
        modules = [importlib.import_module(f"mc_lab.{layer}") for layer in LAYERS]
        targets = {}
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in vars(mod).items():
                name = f"{layer}.{attr}"
                if (
                    attr.startswith("_")
                    or name in SKIP
                    or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__
                ):
                    continue
                targets[id(obj)] = self._wrap(obj, name, layer)
            for cls in vars(mod).values():
                if inspect.isclass(cls) and cls.__module__ == mod.__name__ and "to_json" in vars(cls):
                    setattr(cls, "to_json", self._wrap(cls.to_json, f"{layer}.{cls.__name__}.to_json", layer))
        for modname, mod in list(sys.modules.items()):
            if modname == "mc_lab" or modname.startswith("mc_lab."):
                for attr, obj in list(vars(mod).items()):
                    if id(obj) in targets:
                        setattr(mod, attr, targets[id(obj)])

    def _wrap(self, fn, name: str, layer: str):
        group = GROUP.get(name)
        if group is None and layer == "constructions":
            group = "constructions.build_s"
        stack = self.stack
        depth = self.depth
        clock = time.perf_counter
        close = self._close

        def traced(*args, **kwargs):
            frame = _Frame(name)
            stack.append(frame)
            if group:
                depth[group] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                close(frame, layer, group, clock() - t0, None, False)
                raise
            close(frame, layer, group, clock() - t0, result, True)
            return result

        traced.__wrapped__ = fn
        return traced

    def _close(self, frame: _Frame, layer: str, group, dur: float, result, ok: bool) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else None
        self.layer_self[layer] += dur - frame.child
        if group:
            self.depth[group] -= 1
            if self.depth[group] == 0:
                self.group_s[group] += dur
        if parent is not None:
            parent.child += dur
            parent.children[frame.name] = parent.children.get(frame.name, 0.0) + dur
        if not ok:
            return
        name = frame.name
        if name == "solver.mc_exact":
            self._solved(frame, dur, result)
        elif name == "solver.baseline_fast_path":
            self.counts["fast_calls"] += 1
            if result is not None:
                self.counts[f"fast:{result}"] += 1
        elif parent is not None and parent.name == "harness.sweep" and name in (
            "graph_core.from_edge_mask",
            "graph_core.is_connected",
        ):
            self.enumerate_s += dur
            if name == "graph_core.is_connected" and result:
                self.counts["enumerate_graphs"] += 1

    def _solved(self, frame: _Frame, dur: float, cert) -> None:
        """Split one mc_exact span into fast path, bounds and search."""
        spent = frame.children
        fast = spent.get("solver.baseline_fast_path", 0.0)
        lower = sum(spent.get(name, 0.0) for name in LOWER)
        if cert.method == "fast-path":
            self.fast_path_s += fast + lower  # the test plus its spanning-tree coloring
            return
        self.fast_path_s += fast
        self.lower_bound_s += lower
        self.upper_bounds_s += spent.get("solver.mc_upper_bounds", 0.0)
        self.counts["bounds_reached"] += 1
        lb = max(v for name, v in cert.bound_trace if name.startswith("lower:"))
        ub = min(v for name, v in cert.bound_trace if name.startswith("upper:"))
        if lb == ub:
            self.counts["bounds_closed"] += 1
            return
        self.counts["bound_gap_sum"] += ub - lb
        self.search_s.append(dur - sum(spent.get(name, 0.0) for name in PRE_SEARCH))

    def metrics(self) -> dict[str, float]:
        """Every per-layer metric, by name; times in seconds unless named _ms."""
        c = self.counts
        fast_closed = sum(c[f"fast:{r}"] for r in FAST_REASONS)
        out = {
            "solver.search_s": sum(self.search_s, 0.0),
            "solver.search_graphs": len(self.search_s),
            "solver.search_ms_p50": 1e3 * nearest_rank(self.search_s, 50),
            "solver.search_ms_p99": 1e3 * nearest_rank(self.search_s, 99),
            "solver.upper_bounds_s": self.upper_bounds_s,
            "solver.lower_bound_s": self.lower_bound_s,
            "solver.bounds_reached": c["bounds_reached"],
            "solver.bounds_closed": c["bounds_closed"],
            "solver.bounds_hit_ratio": c["bounds_closed"] / c["bounds_reached"] if c["bounds_reached"] else 0.0,
            "solver.bound_gap_sum": c["bound_gap_sum"],
            "solver.fast_path_s": self.fast_path_s,
            "solver.fast_path_closed": fast_closed,
            **{f"solver.fast_path_closed.{r}": c[f"fast:{r}"] for r in FAST_REASONS},
            "solver.fast_path_hit_ratio": fast_closed / c["fast_calls"] if c["fast_calls"] else 0.0,
            "graph_core.enumerate_s": self.enumerate_s,
            "graph_core.enumerate_graphs": c["enumerate_graphs"],
        }
        out.update(self.group_s)
        out.update({f"{layer}.self_s": s for layer, s in self.layer_self.items()})
        return out
