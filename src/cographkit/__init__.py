"""Cograph toolkit: recognition, tree representations, edge decompositions,
and satisfiability reduction gadgets.

``import cographkit`` loads no submodule.  Each exported name, and each
submodule named in ``_LAZY``, loads its module on first use and is then
cached here, so ``cographkit.coarsen is cographkit.decomp.coarsen`` and
``from cographkit import *`` binds every name in ``__all__``.  Each command
of the CLI likewise imports only the modules it runs.
"""

import importlib

# the names each submodule exports, imported with it on first access
_LAZY = {
    "cotree": (
        "Cotree",
        "cotree_to_graph",
        "parse_newick",
        "random_cotree",
        "random_labeled_tree",
        "recognize",
        "to_newick",
    ),
    "decomp": (
        "COVER",
        "INFEASIBLE",
        "PARTITION",
        "SOLVED",
        "TIMEOUT",
        "Decomposition",
        "SolveResult",
        "ValidationFault",
        "coarsen",
        "decomposition_from_json",
        "decomposition_to_json",
        "exact_min_cover",
        "exact_min_partition",
        "greedy_partition",
        "is_coarsest",
        "layers_partition",
        "p4_constraints",
        "validate",
        "vizing_partition",
    ),
    "gadgets": (
        "GadgetGraph",
        "NaeFormula",
        "assignment_from_partition",
        "build_formula_graph",
        "clause_gadget",
        "eval_nae",
        "extended_literal_graph",
        "format_formula",
        "literal_graph",
        "parse_formula",
        "partition_from_assignment",
    ),
    "graph": (
        "Graph",
        "P4Witness",
        "cartesian_product",
        "complement",
        "connected_components",
        "enumerate_induced_p4",
        "format_edge_list",
        "hypercube",
        "parse_edge_list",
        "random_graph",
    ),
    "symbolic": (
        "AxiomViolation",
        "NotUltrametricError",
        "SymbolicMap",
        "build_representation",
        "check_axioms",
        "check_via_graphs",
        "color_graph",
        "delta_from_graph",
        "format_symbolic_map",
        "parse_symbolic_map",
        "search_separating_delta",
        "tree_to_map",
    ),
}
_SOURCE = {name: module for module, names in _LAZY.items() for name in names}

__all__ = list(_SOURCE)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _SOURCE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SOURCE[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__) | set(_LAZY))
