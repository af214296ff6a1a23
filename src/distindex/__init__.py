"""Distance-based graph indices.

The package computes pair counts by distance (the coefficients of the
Wiener polynomial), distance sums restricted to vertices of a fixed
degree, and the classic Wiener and Zagreb indices.  Three routes are
provided and cross-checked: a definitional oracle (bit-parallel ball
sweeps, with one BFS per vertex of a small degree class) for any
connected graph, a packed-row subtree algorithm for trees, and a cut
decomposition for partial cubes.  On top of that sit generators for the
extremal tree families and coronene benzenoids, closed-form optima, an
exhaustive free-tree enumerator, and claim verifiers that tie
everything together.
"""

from .benzenoid import (
    HexSystem,
    coronene_tw3,
    edge_direction,
    gen_coronene,
    horizontal_cut_profile,
    orientation_groups,
)
from .errors import (
    ClassRemovalError,
    DisconnectedError,
    DuplicateEdgeError,
    EdgeListFormatError,
    GraphError,
    InfeasibleSpecError,
    LoopEdgeError,
    NotATreeError,
    NotBipartiteError,
    NotPartialCubeError,
    OrderTooLargeError,
    VertexOutOfRangeError,
)
from .extremal import (
    TreeSpec,
    caterpillar_positions,
    caterpillar_twk,
    gen_tree,
    max_degree_count,
    max_tw3,
    max_wk_even,
    max_wk_odd,
)
from .graphs import (
    MAX_GRAPH_ORDER,
    MAX_HYPERCUBE_DIM,
    UNREACHABLE,
    Graph,
    bfs_distances,
    cycle_graph,
    dump_edge_list,
    format_edge_list,
    from_edge_list,
    hypercube_graph,
    parse_edge_ends,
    two_coloring,
)
from .indices import (
    IndexReport,
    WienerPolynomial,
    index_report,
    twk,
    twk_star,
    wiener,
    wiener_polynomial,
    wk,
    wk_star,
    zagreb,
)
from .partial_cube import (
    CubeCoordinates,
    CubeVerdict,
    ThetaPartition,
    halfspace_degree_counts,
    is_partial_cube,
    theta_classes,
    twk_cut,
)
from .tree_linear import (
    RootedTree,
    tree_polynomial,
    tree_twk,
    tree_wiener,
    tree_wk,
    tree_zagreb,
    wiener_polynomial_linear,
    wk_linear,
)
from .treegen import (
    MAX_ORDER,
    canonical_form,
    free_level_sequences,
    free_tree_count,
    free_tree_parents,
    level_sequence_edges,
    level_sequence_parents,
    prufer_to_tree,
    random_tree,
)
from .verify import (
    DEFAULT_SEED,
    verify_coronene,
    verify_cut_vs_oracle,
    verify_degree_count,
    verify_eq1,
    verify_linear_vs_oracle,
    verify_max_tw3,
    verify_max_wk,
    verify_wiener_bounds,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graphs
    "Graph", "UNREACHABLE", "from_edge_list", "bfs_distances",
    "two_coloring", "parse_edge_ends", "format_edge_list",
    "dump_edge_list",
    "cycle_graph", "hypercube_graph", "MAX_HYPERCUBE_DIM", "MAX_GRAPH_ORDER",
    # indices
    "wiener", "wk", "WienerPolynomial", "wiener_polynomial", "twk",
    "zagreb", "wk_star", "twk_star", "IndexReport",
    "index_report",
    # tree route
    "RootedTree", "wk_linear", "wiener_polynomial_linear",
    "tree_polynomial", "tree_wk", "tree_wiener", "tree_twk", "tree_zagreb",
    # partial cubes
    "ThetaPartition", "theta_classes", "CubeCoordinates", "CubeVerdict",
    "is_partial_cube", "halfspace_degree_counts", "twk_cut",
    # extremal families
    "TreeSpec", "gen_tree", "caterpillar_positions", "max_wk_odd",
    "max_wk_even", "max_degree_count",
    "caterpillar_twk", "max_tw3",
    # benzenoids
    "HexSystem", "gen_coronene", "edge_direction", "orientation_groups",
    "horizontal_cut_profile", "coronene_tw3",
    # enumeration and sampling
    "MAX_ORDER", "canonical_form",
    "free_level_sequences", "level_sequence_edges", "level_sequence_parents",
    "free_tree_count", "free_tree_parents", "prufer_to_tree", "random_tree",
    # verifiers
    "DEFAULT_SEED", "verify_max_wk", "verify_max_tw3", "verify_degree_count",
    "verify_wiener_bounds", "verify_eq1", "verify_coronene",
    "verify_linear_vs_oracle", "verify_cut_vs_oracle",
    # errors
    "GraphError", "LoopEdgeError", "DuplicateEdgeError",
    "VertexOutOfRangeError", "EdgeListFormatError", "DisconnectedError",
    "NotATreeError", "NotBipartiteError", "NotPartialCubeError",
    "ClassRemovalError", "InfeasibleSpecError", "OrderTooLargeError",
]
