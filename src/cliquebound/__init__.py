"""Exact-arithmetic toolkit for vertex-localized clique-count bounds."""

__version__ = "0.1.0"

from .bounds import (
    BoundReport,
    bound_report,
    bound_reports,
    edge_localized_turan_sum,
    is_regular_complete_multipartite,
    kirsch_nir_sum,
    localized_zykov_bound,
    turan_bound,
    vertex_localized_turan_bound,
    zykov_bound,
)
from .cliques import (
    BudgetExceeded,
    CliqueIndex,
    count_cliques,
    vertex_clique_numbers,
)
from .graph import (
    Graph,
    GraphError,
    ParseError,
    generate_complete_multipartite,
    generate_random,
    parse_edge_list,
    parse_graph6,
    to_graph6,
)
from .simplex import (
    DescentTrace,
    PhiEvaluation,
    SimplexPoint,
    TransferStep,
    delta_ij,
    descend_to_clique_support,
    eval_phi,
    transfer,
    verify_nonnegativity,
)

__all__ = [
    "BoundReport",
    "BudgetExceeded",
    "CliqueIndex",
    "DescentTrace",
    "Graph",
    "GraphError",
    "ParseError",
    "PhiEvaluation",
    "SimplexPoint",
    "TransferStep",
    "bound_report",
    "bound_reports",
    "count_cliques",
    "delta_ij",
    "descend_to_clique_support",
    "edge_localized_turan_sum",
    "eval_phi",
    "generate_complete_multipartite",
    "generate_random",
    "is_regular_complete_multipartite",
    "kirsch_nir_sum",
    "localized_zykov_bound",
    "parse_edge_list",
    "parse_graph6",
    "to_graph6",
    "transfer",
    "turan_bound",
    "vertex_clique_numbers",
    "vertex_localized_turan_bound",
    "verify_nonnegativity",
    "zykov_bound",
]
