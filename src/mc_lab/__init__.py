"""Monochromatic connection numbers: exact solver, constructions, thresholds.

mc(G) is the largest number of colors an edge coloring of a connected
graph can use while keeping every vertex pair joined by a path of one
color.  The package computes mc exactly for small graphs, builds the
extremal families and colorings behind the known closed-form edge
thresholds, evaluates those thresholds, and certifies them against
exhaustive enumeration.
"""

from types import ModuleType as _ModuleType

from .coloring import (
    ColorClass,
    EdgeColoring,
    coloring_from_json,
    coloring_to_json,
    is_simple,
    verify_mc,
)
from .constructions import (
    PartitionedGraph,
    anchored_partition_coloring,
    build_anchored_partition,
    build_augmented_split_graph,
    build_degree_two_witness,
    build_diameter_three_witness,
    complete_multipartite,
    multipartite_star_coloring,
    near_complete_coloring,
    spanning_tree_coloring,
)
from .formulas import (
    FormulaResult,
    max_edges_capping,
    max_edges_within,
    min_edges_forcing,
    min_edges_reaching,
    split_graph_base_edges,
    table_rows,
)
from .graph_core import (
    Graph,
    Graph6Error,
    complement,
    complete_graph,
    cycle_graph,
    emit_graph6,
    enumerate_connected_graphs,
    from_edge_mask,
    from_edges,
    is_connected,
    parse_graph6,
    path_graph,
    spanning_tree,
)
from .harness import (
    CertificationReport,
    SweepResult,
    certify,
    cli_main,
    empirical_cap_table,
    empirical_force_table,
    sweep,
)
from .solver import (
    EXACT_HARD_CAP,
    ORACLE_EDGE_CAP,
    ExactSolveRefusedError,
    McCertificate,
    baseline_fast_path,
    is_s_perfectly_connected,
    mc_exact,
    mc_oracle_partitions,
    mc_upper_bounds,
)

__version__ = "0.1.0"

# Every name imported above is public, and no submodule is.
__all__ = [
    name for name, obj in globals().items() if name[0] != "_" and not isinstance(obj, _ModuleType)
] + ["__version__"]
