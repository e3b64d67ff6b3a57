"""The package's exported names, each loaded on first access, and the
record classes of ``decomp``, ``gadgets`` and ``symbolic``."""

import pytest

import cographkit
from cographkit import cotree, decomp, gadgets, graph, symbolic

EXPORTS = [
    "Cotree", "cotree_to_graph", "parse_newick", "random_cotree", "random_labeled_tree",
    "recognize", "to_newick",
    "COVER", "INFEASIBLE", "PARTITION", "SOLVED", "TIMEOUT", "Decomposition", "SolveResult",
    "ValidationFault", "coarsen", "decomposition_from_json", "decomposition_to_json",
    "exact_min_cover", "exact_min_partition", "greedy_partition", "is_coarsest",
    "layers_partition", "p4_constraints", "validate", "vizing_partition",
    "GadgetGraph", "NaeFormula", "assignment_from_partition", "build_formula_graph",
    "clause_gadget", "eval_nae", "extended_literal_graph", "format_formula", "literal_graph",
    "parse_formula", "partition_from_assignment",
    "Graph", "P4Witness", "cartesian_product", "complement", "connected_components",
    "enumerate_induced_p4", "format_edge_list", "hypercube", "parse_edge_list", "random_graph",
    "AxiomViolation", "NotUltrametricError", "SymbolicMap", "build_representation",
    "check_axioms", "check_via_graphs", "color_graph", "delta_from_graph",
    "format_symbolic_map", "parse_symbolic_map", "search_separating_delta", "tree_to_map",
]


def test_all_lists_the_pinned_exports():
    assert len(EXPORTS) == len(set(EXPORTS)) == 59
    assert cographkit.__all__ == EXPORTS


def test_each_export_is_the_submodule_attribute():
    modules = (cotree, decomp, gadgets, graph, symbolic)
    for name in EXPORTS:
        owners = [m for m in modules if name in vars(m)]
        assert owners, name
        assert getattr(cographkit, name) is getattr(owners[0], name), name
    assert cographkit.coarsen is decomp.coarsen
    assert cographkit.PARTITION is decomp.PARTITION


def test_star_import_and_dir_list_every_export():
    namespace: dict = {}
    exec("from cographkit import *", namespace)
    assert set(EXPORTS) <= set(namespace)
    assert all(namespace[name] is getattr(cographkit, name) for name in EXPORTS)
    assert set(EXPORTS) <= set(dir(cographkit))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="nope"):
        cographkit.nope
    assert not hasattr(cographkit, "nope")


def test_record_classes_keep_repr_hash_and_immutability():
    host = graph.Graph(3, [(0, 1), (1, 2)])
    d = decomp.Decomposition(host, [[(1, 0)], [(2, 1)]])
    assert d.classes == (frozenset({(0, 1)}), frozenset({(1, 2)}))
    assert d.mode == decomp.PARTITION and d.k == 2 and d.sorted_classes() == [[(0, 1)], [(1, 2)]]
    assert d == decomp.Decomposition(host, [[(0, 1)], [(1, 2)]]) and hash(d) == hash(
        decomp.Decomposition(host, [[(0, 1)], [(1, 2)]])
    )
    assert repr(d) == (
        "Decomposition(host=Graph(n=3, m=2), classes=(frozenset({(0, 1)}), "
        "frozenset({(1, 2)})), mode='partition')"
    )
    with pytest.raises(ValueError, match="mode must be 'partition' or 'cover', got 'x'"):
        decomp.Decomposition(host, (), "x")
    fault = decomp.ValidationFault("coverage", detail="missing")
    assert str(fault) == "ValidationFault(kind='coverage', class_index=None, witness=None, detail='missing')"
    v = symbolic.AxiomViolation("U2", (0, 1, 2))
    assert repr(v) == "AxiomViolation(axiom='U2', vertices=(0, 1, 2), symbol=None, p4=None)"
    f = gadgets.NaeFormula(3, ((0, 1, 2),))
    assert repr(f) == "NaeFormula(num_vars=3, clauses=((0, 1, 2),))" and hash(f) == hash(gadgets.NaeFormula(3, ((0, 1, 2),)))
    with pytest.raises(ValueError, match="variable count must be non-negative, got -1"):
        gadgets.NaeFormula(-1, ())
    for record, field in ((d, "mode"), (fault, "kind"), (v, "axiom"), (f, "num_vars")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)
