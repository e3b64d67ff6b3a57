"""Cograph recognition, cotree evaluation, and newick serialization."""

import ast
import random
import time
from itertools import combinations
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cographkit import (
    Cotree,
    Graph,
    P4Witness,
    complement,
    connected_components,
    cotree_to_graph,
    enumerate_induced_p4,
    parse_newick,
    random_cotree,
    random_graph,
    random_labeled_tree,
    recognize,
    to_newick,
    tree_to_map,
)
from cographkit import cotree
from cographkit.cotree import _split, check_structure
from cographkit.decomp import PARTITION, Decomposition, coarsen
from cographkit.graph import _bits, _induced_p4s, _p4_start, first_induced_p4
from cographkit.symbolic import build_representation
from helpers import (
    _Prime,
    all_graphs,
    alternating_threshold,
    caterpillar_newick,
    complete_graph,
    cycle_graph,
    path_graph,
    reference_component_masks,
    reference_split,
    reference_to_newick,
    two_vertex_rest_tree,
)


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


@pytest.mark.parametrize("nested", ["x", (0, [1, 2.5])])
def test_malformed_nested_nodes_rejected(nested):
    with pytest.raises(ValueError, match="malformed tree node"):
        Cotree(nested)


def test_structure_rejects_negative_label():
    with pytest.raises(ValueError, match="inner node 0 needs a non-negative integer label"):
        check_structure(Cotree((-1, [0, 1])))


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
    with pytest.raises(ValueError, match="leaf vertices must be exactly 0..1"):
        tree_to_map(Cotree((0, [0, 2])))


def test_leaf_check_names_one_leaf_before_any_group():
    # the checks run when the walk is made, before its first item is asked for
    t = Cotree((0, [0, 1, 7, 3]))
    with pytest.raises(ValueError, match=r"^leaf vertices must be exactly 0\.\.3, got leaf 7$"):
        cotree._leaf_groups(t)
    with pytest.raises(ValueError, match="repeats its parent's label"):
        cotree._leaf_groups(Cotree((0, [(0, [0, 1]), 2])))


def test_leaf_groups_cover_every_pair_once():
    rng = random.Random(13)
    for _ in range(200):
        t = random_labeled_tree(rng.randint(1, 30), rng.randint(1, 4), rng)
        seen = {}
        for lab, xs, ys in cotree._leaf_groups(t):
            for x in xs:
                for y in ys:
                    pair = (min(x, y), max(x, y))
                    assert pair not in seen
                    seen[pair] = lab
        n = t.num_leaves
        assert seen == {(x, y): t.lca_label(x, y) for x, y in combinations(range(n), 2)}


def test_random_labeled_tree_needs_a_leaf_and_a_symbol():
    rng = random.Random(0)
    with pytest.raises(ValueError, match="need at least one leaf"):
        random_labeled_tree(0, 2, rng)
    with pytest.raises(ValueError, match="need at least one symbol"):
        random_labeled_tree(3, 0, rng)


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


# ---------------------------------------------------------------------------
# the stack-based split against the recursive reference, and trees deeper
# than the interpreter's recursion limit
# ---------------------------------------------------------------------------


def _split_outcome(split, *args):
    """The tree a split returns, as a ``Cotree`` (the reference returns a
    nested tree), or the part it rejects as prime."""
    try:
        tree = split(*args)
    except _Prime as hit:
        return ("prime", hit.mask)
    return tree if isinstance(tree, Cotree) else Cotree(tree)


def _cograph_split(adj, mask):
    """``_split`` on the graph and its complement, raising the prime part
    it returns as ``reference_split`` does."""
    result = _split(((0, adj, False), (1, adj, True)), mask)
    if isinstance(result, int):
        raise _Prime(result)
    return result


def _seeded_split_graphs() -> list[Graph]:
    """150 G(n, p) and 150 random cographs with 0-2 flipped pairs, n <= 40;
    the flipped pairs put the first prime part below the root."""
    rng = random.Random(41)
    graphs = []
    for _ in range(150):
        graphs.append(random_graph(rng.randint(1, 40), rng.uniform(0.05, 0.95), rng))
        n = rng.randint(2, 40)
        flips = {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2))}
        edges = set(cotree_to_graph(random_cotree(n, rng)).edges) ^ flips
        graphs.append(Graph(n, edges))
    return graphs


def _small_part_graphs() -> list[Graph]:
    """Graphs whose splits are mostly parts of one or two vertices: edgeless
    graphs, perfect matchings and their complements (one with an induced path
    added), stars plus isolated vertices, and unions of connected random
    cographs on 2-12 shuffled vertices, drawn as perfbench's ``recognize``
    workload draws its sparse cographs, at n = 200."""
    rng = random.Random(71)
    graphs = [Graph(n) for n in (1, 2, 3, 200)]
    for n in (2, 4, 9, 200):
        matching = Graph(n, [(v, v + 1) for v in range(0, n - 1, 2)])
        graphs += [matching, complement(matching)]
    graphs.append(Graph(204, [(v, v + 1) for v in range(0, 200, 2)] + [(200, 201), (201, 202), (202, 203)]))
    for center, leaves, isolated in ((0, 1, 1), (0, 5, 3), (7, 4, 6), (30, 29, 170)):
        n = leaves + isolated + 1
        graphs.append(Graph(n, [tuple(sorted((center, x))) for x in rng.sample([v for v in range(n) if v != center], leaves)]))
    for _ in range(6):
        n = rng.randint(190, 210)
        vs = rng.sample(range(n), n)
        edges = []
        pos = 0
        while pos < n:
            size = min(n - pos, rng.randint(2, 12))
            block = cotree_to_graph(random_cotree(size, rng))
            if len(connected_components(block)) > 1:
                block = complement(block)
            part = vs[pos : pos + size]
            edges += [tuple(sorted((part[u], part[v]))) for u, v in block.edges]
            pos += size
        graphs.append(Graph(n, edges))
    return graphs


def _two_vertex_rest_graphs() -> list[Graph]:
    """Cographs of ``two_vertex_rest_tree`` and their complements, so that
    rests of two vertices come under both splitters, as one part or as two
    leaves, plus each with a flipped pair, which puts a prime part among them."""
    rng = random.Random(73)
    graphs = []
    for _ in range(60):
        g = cotree_to_graph(two_vertex_rest_tree(rng, 2, rng.randint(0, 4)))
        for h in (g, complement(g)):
            flip = tuple(sorted(rng.sample(range(h.n), 2)))
            graphs += [h, Graph(h.n, set(h.edges) ^ {flip})]
    return graphs


def test_split_matches_recursive_reference():
    # the same tree, or the same first prime part and hence the same witness
    graphs = [g for n in range(1, 6) for g in all_graphs(n)] + _seeded_split_graphs() + _small_part_graphs()
    graphs += _two_vertex_rest_graphs()
    for g in graphs:
        full = (1 << g.n) - 1
        want = _split_outcome(reference_split, g._adj, full)
        got = _split_outcome(_cograph_split, g._adj, full)
        assert got == want, g.edges
        if isinstance(got, Cotree):
            check_structure(got, binary=True)
        comps = reference_component_masks(g._adj, full, False)
        assert connected_components(g) == [tuple(_bits(c)) for c in comps]


def test_split_returns_the_prime_part():
    # P4 is prime as a whole: the split returns its full mask, no tree
    p4 = path_graph(4)
    assert _split(((0, p4._adj, False), (1, p4._adj, True)), 0b1111) == 0b1111
    # an edge is a part of two vertices that the graph alone does not divide;
    # a non-edge is divided by the first of the splitters that divide it
    assert _split(((0, p4._adj, False),), 0b0011) == 0b0011
    assert _split(((1, p4._adj, True), (2, p4._adj, False), (0, p4._adj, False)), 0b0101) == Cotree((2, [0, 2]))


def test_witness_is_first_induced_path_of_the_prime_part():
    # recognize scans the prime part's masks; the oracle builds the induced
    # subgraph of that part and runs the whole-graph brute force on it
    graphs = [g for n in range(1, 7) for g in all_graphs(n)] + _seeded_split_graphs()
    primes = 0
    for g in graphs:
        outcome = _split_outcome(_cograph_split, g._adj, (1 << g.n) - 1)
        if isinstance(outcome, tuple) and outcome[0] == "prime":
            part = outcome[1]
            induced = Graph(g.n, [(u, v) for u, v in g.edges if part >> u & 1 and part >> v & 1])
            assert recognize(g) == first_induced_p4(induced), g.edges
            primes += 1
        else:
            assert isinstance(recognize(g), Cotree)
    assert primes == 28_038  # the non-cographs among the graphs


def test_start_test_finds_the_first_path_of_each_part():
    # 4,000 seeded graphs on 1-11 vertices, each on the whole vertex set and
    # on three random parts, with tuple and {vertex: mask} adjacency: the
    # start is the a of the scan's first path, and the scan from it yields
    # that path first
    rng = random.Random(79)
    pairs = 0
    for _ in range(4000):
        n = rng.randint(1, 11)
        g = random_graph(n, rng.uniform(0.1, 0.9), rng)
        for part in [(1 << n) - 1] + [rng.getrandbits(n) for _ in range(3)]:
            in_part = {v: g._adj[v] for v in _bits(part)}
            for adj in (g._adj, in_part):
                want = next(_induced_p4s(adj, part), None)
                start = _p4_start(adj, part)
                if want is None:
                    assert start is None, (g.edges, part)
                else:
                    assert start == want.a, (g.edges, part)
                    assert next(_induced_p4s(adj, part, start)) == want
            pairs += 1
    assert pairs == 16_000


def test_witness_of_a_large_prime_part_reads_few_masks():
    # the 800-vertex alternating threshold graph with (399, 402) flipped:
    # its first prime part has 403 vertices, and scanning from every start
    # below 400 reads the masks 16,643,002 times
    g, _ = alternating_threshold(list(range(800)))
    g = Graph(800, set(g.edges) ^ {(399, 402)})
    reads = 0

    class Counting(dict):
        def __getitem__(self, v):
            nonlocal reads
            reads += 1
            return dict.__getitem__(self, v)

    adj = Counting(enumerate(g._adj))
    assert cotree._cotree_or_witness(adj, (1 << g.n) - 1) == P4Witness(400, 401, 399, 402)
    assert reads < 1_000_000


def test_split_matches_recursive_reference_on_coarsen_unions(monkeypatch):
    # every pair of the six rigid classes shares an induced path a-b-c-d
    # (ab and cd in one class, bc in the other), so most unions are prime
    # in some component; the two free matchings merge into rigid classes
    rng = random.Random(43)
    classes = [[] for _ in range(8)]
    nxt = 0
    for i, j in combinations(range(6), 2):
        a, b, c, d = range(nxt, nxt + 4)
        nxt += 4
        classes[i] += [(a, b), (c, d)]
        classes[j].append((b, c))
    for f in (6, 7):
        for _ in range(3):
            classes[f].append((nxt, nxt + 1))
            nxt += 2
    relabel = rng.sample(range(nxt), nxt)
    classes = [frozenset(tuple(sorted((relabel[u], relabel[v]))) for u, v in cls) for cls in classes]
    rng.shuffle(classes)
    host = Graph(nxt, [e for cls in classes for e in cls])
    unions = []

    def recording(splitters, mask):
        unions.append((splitters[0][1], mask))
        return _split(splitters, mask)

    monkeypatch.setattr(cotree, "_split", recording)
    assert coarsen(Decomposition(host, tuple(classes), PARTITION)).k == 6
    primes = 0
    for adj, mask in unions:
        want = _split_outcome(reference_split, adj, mask)
        got = _split_outcome(_cograph_split, adj, mask)
        assert got == want
        if isinstance(got, Cotree):
            check_structure(got, binary=True)
        primes += isinstance(want, tuple)
    assert 0 < primes < len(unions)


# ---------------------------------------------------------------------------
# the one-pass newick writer against the two-pass reference, and the leaf
# limit of the reader
# ---------------------------------------------------------------------------


def test_to_newick_matches_two_pass_reference():
    rng = random.Random(61)
    trees = [
        random_labeled_tree(rng.randint(1, 60), rng.randint(1, 5), rng) for _ in range(2000)
    ]
    trees += [build_representation(tree_to_map(t)) for t in trees[:300]]
    trees.append(parse_newick(caterpillar_newick(3000)))
    # shapes Cotree accepts that are not canonical: a childless inner node,
    # one that is not the last child, and an only child repeating its label
    trees += [Cotree(nested) for nested in [(1, []), (0, [(1, []), 3]), (2, [(2, [5])])]]
    for t in trees:
        assert to_newick(t) == reference_to_newick(t)
    assert [to_newick(t) for t in trees[-3:]] == ["()1;", "(()1,3)0;", "((5)2)2;"]


def test_parse_newick_rejects_too_many_leaves_while_reading():
    text = "(" + ",".join(map(str, range(10**6))) + ")1;"
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exceeds the limit"):
        parse_newick(text)
    assert time.perf_counter() - start < 1.0
    # a syntax error before the first leaf over the limit is reported first
    with pytest.raises(ValueError, match="expected an integer"):
        parse_newick("(0,," + text[1:])


@pytest.mark.parametrize("text", ["(\u0663,1)0;", "(\u00b2,1)0;"])
def test_parse_newick_reads_ascii_digits_only(text):
    # an Arabic-Indic three and a superscript two are digits to str.isdigit
    with pytest.raises(ValueError, match=r"^newick position 1: expected an integer$"):
        parse_newick(text)


def test_recognize_threshold_graph_of_depth_two_thousand():
    order = random.Random(47).sample(range(2000), 2000)
    g, want = alternating_threshold(order)
    assert recognize(g) == want


def test_newick_of_depth_ten_thousand_round_trips_bytes():
    text = caterpillar_newick(10_001)
    assert to_newick(parse_newick(text)) == text


def test_deep_caterpillar_evaluates_to_graph_and_map():
    n = 1_501
    t = parse_newick(caterpillar_newick(n))
    # the lca of x < y is the node where y joins, labeled y % 2
    pairs = list(combinations(range(n), 2))
    assert cotree_to_graph(t).edges == tuple((x, y) for x, y in pairs if y % 2)
    assert tree_to_map(t).pair_symbols == tuple(y % 2 for _, y in pairs)


def called_name(call: ast.Call) -> str | None:
    """``f`` for a call ``f(...)``, ``self.f(...)`` or ``cls.f(...)``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) in ("self", "cls"):
        return func.attr
    return None


def self_calling_functions(source: str) -> set[str]:
    """Dotted names of the functions in the module text that call
    themselves by name, walked on an explicit stack."""
    found = set()
    stack = [(ast.parse(source), "")]
    while stack:
        node, prefix = stack.pop()
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef) and any(
                    isinstance(call, ast.Call) and called_name(call) == child.name
                    for call in ast.walk(child)
                ):
                    found.add(name)
                stack.append((child, name + "."))
            else:
                stack.append((child, prefix))
    return found


def test_only_the_random_tree_and_the_unpruned_oracle_recurse():
    # any other self-call would bring back a depth limit on trees and inputs
    src = Path(__file__).resolve().parent.parent / "src" / "cographkit"
    found = {
        f"{path.stem}.{name}"
        for path in sorted(src.glob("*.py"))
        for name in self_calling_functions(path.read_text(encoding="utf-8"))
    }
    assert found == {"cotree.random_labeled_tree.build"}
    assert self_calling_functions("class A:\n    def f(self):\n        return self.f()\n") == {"A.f"}
