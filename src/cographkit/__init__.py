"""Cograph toolkit: recognition, tree representations, edge decompositions,
and satisfiability reduction gadgets."""

from .cotree import (
    Cotree,
    cotree_to_graph,
    parse_newick,
    random_cotree,
    random_labeled_tree,
    recognize,
    to_newick,
)
from .decomp import (
    COVER,
    INFEASIBLE,
    PARTITION,
    SOLVED,
    TIMEOUT,
    Decomposition,
    SolveResult,
    ValidationFault,
    coarsen,
    decomposition_from_json,
    decomposition_to_json,
    exact_min_cover,
    exact_min_partition,
    greedy_partition,
    is_coarsest,
    layers_partition,
    p4_constraints,
    validate,
    vizing_partition,
)
from .gadgets import (
    GadgetGraph,
    NaeFormula,
    assignment_from_partition,
    build_formula_graph,
    clause_gadget,
    eval_nae,
    extended_literal_graph,
    format_formula,
    literal_graph,
    parse_formula,
    partition_from_assignment,
)
from .graph import (
    Graph,
    P4Witness,
    cartesian_product,
    complement,
    connected_components,
    enumerate_induced_p4,
    format_edge_list,
    hypercube,
    parse_edge_list,
    random_graph,
)
from .symbolic import (
    AxiomViolation,
    NotUltrametricError,
    SymbolicMap,
    build_representation,
    check_axioms,
    check_via_graphs,
    color_graph,
    delta_from_graph,
    format_symbolic_map,
    parse_symbolic_map,
    search_separating_delta,
    tree_to_map,
)

__version__ = "0.1.0"
