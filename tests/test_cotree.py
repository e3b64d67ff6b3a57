"""Cograph recognition, cotree evaluation, and newick serialization."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cographkit import (
    Cotree,
    Graph,
    P4Witness,
    complement,
    cotree_to_graph,
    enumerate_induced_p4,
    parse_newick,
    random_cotree,
    recognize,
    to_newick,
)
from helpers import all_graphs, complete_graph, cycle_graph, path_graph


def test_single_vertex_is_a_leaf():
    t = recognize(Graph(1, []))
    assert isinstance(t, Cotree)
    assert to_newick(t) == "0;"


def test_path_yields_witness():
    w = recognize(path_graph(4))
    assert w == P4Witness(0, 1, 2, 3)
    assert w.holds_in(path_graph(4))


def test_triangle_is_a_join_of_three_leaves():
    t = recognize(complete_graph(3))
    assert to_newick(t) == "(0,1,2)1;"


def test_recognize_rejects_empty_graph():
    with pytest.raises(ValueError, match="at least one vertex"):
        recognize(Graph(0, []))


def test_union_root_gives_edgeless_graph():
    t = parse_newick("(0,1,2,3)0;")
    assert cotree_to_graph(t) == Graph(4, [])


def test_join_root_gives_complete_graph():
    t = parse_newick("(0,1,2,3)1;")
    assert cotree_to_graph(t) == complete_graph(4)


def test_random_cotree_round_trip():
    rng = random.Random(9)
    for _ in range(200):
        t = random_cotree(rng.randint(1, 16), rng)
        g = cotree_to_graph(t)
        assert recognize(g) == t


def test_recognize_matches_oracle_on_small_graphs():
    for n in range(1, 5):
        for g in all_graphs(n):
            result = recognize(g)
            if isinstance(result, P4Witness):
                assert enumerate_induced_p4(g)
                assert result.holds_in(g)
            else:
                assert not enumerate_induced_p4(g)
                assert cotree_to_graph(result) == g


def test_canonical_form_ignores_edge_input_order():
    rng = random.Random(10)
    for _ in range(30):
        t = random_cotree(rng.randint(2, 12), rng)
        g = cotree_to_graph(t)
        shuffled = list(g.edges)
        rng.shuffle(shuffled)
        assert recognize(Graph(g.n, shuffled)) == t


def test_children_are_ordered_by_smallest_leaf():
    t = recognize(Graph(5, [(1, 3), (0, 2)]))
    # components {0,2}, {1,3}, {4} sorted by their minimum vertex
    assert to_newick(t) == "((0,2)1,(1,3)1,4)0;"


def test_complement_duality_flips_labels():
    rng = random.Random(11)
    for _ in range(40):
        t = random_cotree(rng.randint(2, 12), rng)
        g = cotree_to_graph(t)
        tc = recognize(complement(g))
        assert isinstance(tc, Cotree)
        assert tc.parent == t.parent
        assert tc.children == t.children
        assert tc.leaf_vertex == t.leaf_vertex
        assert all(
            lab is None and other is None or other == 1 - lab
            for lab, other in zip(t.label, tc.label)
        )


def test_lca_label_of_identical_vertices_is_empty():
    t = recognize(complete_graph(3))
    assert t.lca_label(1, 1) is None


def test_lca_label_rejects_unknown_vertex():
    t = recognize(complete_graph(3))
    with pytest.raises(ValueError, match="unknown vertex 7"):
        t.lca_label(7, 1)


def test_lca_label_complete_graph_all_ones():
    t = recognize(complete_graph(3))
    assert all(t.lca_label(x, y) == 1 for x in range(3) for y in range(3) if x != y)


def test_lca_label_agrees_with_reconstructed_edges():
    rng = random.Random(12)
    for _ in range(40):
        t = random_cotree(rng.randint(1, 12), rng)
        g = cotree_to_graph(t)
        for x in range(g.n):
            for y in range(g.n):
                expected = None if x == y else int(g.has_edge(x, y))
                assert t.lca_label(x, y) == expected


def test_newick_worked_example():
    t = parse_newick("((0,1)0,2)1;")
    assert cotree_to_graph(t) == Graph(3, [(0, 2), (1, 2)])


def test_newick_round_trip_is_bit_exact():
    rng = random.Random(13)
    for _ in range(100):
        t = random_cotree(rng.randint(1, 20), rng)
        text = to_newick(t)
        assert parse_newick(text) == t
        assert to_newick(parse_newick(text)) == text


@pytest.mark.parametrize(
    "text",
    ["", "(0,1)1", "(0,1;", "(0,)1;", "((0,1)0,2)1;x", "(0 1)1;", "(a,b)1;"],
)
def test_newick_parse_errors(text):
    with pytest.raises(ValueError, match="newick position"):
        parse_newick(text)


def test_structure_rejects_single_child():
    t = parse_newick("((0)1,2)0;")
    with pytest.raises(ValueError, match="1 children, need at least 2"):
        cotree_to_graph(t)


def test_structure_rejects_repeated_inner_label():
    t = parse_newick("((0,1)1,2)1;")
    with pytest.raises(ValueError, match="repeats its parent's label 1"):
        cotree_to_graph(t)


def test_structure_rejects_nonbinary_label():
    t = parse_newick("(0,1)4;")
    with pytest.raises(ValueError, match="expected 0 or 1"):
        cotree_to_graph(t)


def test_structure_rejects_sparse_leaf_ids():
    t = parse_newick("(0,5)1;")
    with pytest.raises(ValueError, match="leaf vertices must be exactly 0..1"):
        cotree_to_graph(t)


def test_duplicate_leaf_vertices_rejected():
    with pytest.raises(ValueError, match="leaf vertex 0 appears twice"):
        parse_newick("(0,0)1;")


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 24), st.randoms(use_true_random=False))
def test_round_trip_property(leaves, rng):
    t = random_cotree(leaves, rng)
    assert recognize(cotree_to_graph(t)) == t


def test_cycles_of_length_five_and_more_are_not_cographs():
    for n in (5, 6, 7):
        assert isinstance(recognize(cycle_graph(n)), P4Witness)
    assert isinstance(recognize(cycle_graph(4)), Cotree)
