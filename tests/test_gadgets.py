"""Reduction gadgets and certificate translation in both directions."""

import random
from itertools import product

import pytest

from cographkit import (
    COVER,
    Decomposition,
    Graph,
    NaeFormula,
    P4Witness,
    PARTITION,
    assignment_from_partition,
    build_formula_graph,
    clause_gadget,
    eval_nae,
    exact_min_partition,
    extended_literal_graph,
    format_formula,
    literal_graph,
    parse_formula,
    partition_from_assignment,
    recognize,
    validate,
)
from cographkit.gadgets import (
    enumerate_two_class_assignments,
    extended_literal_partition,
    literal_partition,
)
from helpers import reference_build_formula_graph, reference_partition_from_assignment

FIG_FORMULA = NaeFormula(6, ((0, 3, 1), (1, 2, 3), (3, 4, 5)))


def masks_of(decomposition: Decomposition) -> tuple[int, ...]:
    """Per-edge class bitmasks in host edge order, for comparing with search output."""
    host = decomposition.host
    out = []
    for e in host.edges:
        mask = 0
        for idx, cls in enumerate(decomposition.classes):
            if e in cls:
                mask |= 1 << idx
        out.append(mask)
    return tuple(out)


def swap_classes(d: Decomposition) -> Decomposition:
    return Decomposition(d.host, (d.classes[1], d.classes[0]), d.mode)


def all_assignments(num_vars):
    return (tuple(bool(b) for b in bits) for bits in product((0, 1), repeat=num_vars))


# ---------------------------------------------------------------------------
# formula type
# ---------------------------------------------------------------------------


def test_formula_rejects_repeated_variable_in_clause():
    with pytest.raises(ValueError, match="three distinct variables"):
        NaeFormula(3, ((0, 1, 1),))


def test_formula_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable 5"):
        NaeFormula(3, ((0, 1, 5),))


def test_eval_nae():
    f = NaeFormula(3, ((0, 1, 2),))
    assert eval_nae(f, (True, True, False))
    assert eval_nae(f, (False, True, True))
    assert not eval_nae(f, (True, True, True))
    assert not eval_nae(f, (False, False, False))
    with pytest.raises(ValueError, match="expected 3 values"):
        eval_nae(f, (True,))


# ---------------------------------------------------------------------------
# literal gadget
# ---------------------------------------------------------------------------


def test_literal_counts_and_roles():
    gg = literal_graph()
    assert (gg.graph.n, len(gg.graph.edges)) == (9, 12)
    assert sorted(gg.roles.values()) == list(range(9))
    assert gg.vertex("v6") == 6
    with pytest.raises(ValueError, match="unknown role"):
        gg.vertex("v9")


def test_literal_graph_is_not_a_cograph():
    assert isinstance(recognize(literal_graph().graph), P4Witness)


def test_literal_contains_its_defining_paths():
    # path quadruples used to pin down the edge list; each must be a
    # three-edge path of the host
    g = literal_graph().graph
    for a, b, c, d in [
        (6, 2, 0, 1),
        (2, 0, 1, 5),
        (6, 2, 1, 4),
        (5, 1, 2, 7),
        (5, 6, 2, 7),
        (7, 2, 6, 5),
        (6, 5, 1, 0),
    ]:
        assert g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d)


def test_literal_partition_validates():
    assert validate(literal_partition()) is None


def test_literal_exact_minimum_is_the_canonical_split():
    result = exact_min_partition(literal_graph().graph, 3)
    assert result.status == "solved"
    assert result.decomposition.classes == literal_partition().classes


def test_literal_two_cover_solutions_are_the_split_and_its_swap():
    out = enumerate_two_class_assignments(literal_graph().graph, COVER)
    assert out.completed
    expected = {masks_of(literal_partition()), masks_of(swap_classes(literal_partition()))}
    assert set(out.solutions) == expected


def test_literal_minimum_cover_is_the_partition():
    # no strictly overlapping two-cover exists, so the cover solver lands
    # on the canonical partition as well
    from cographkit import exact_min_cover

    result = exact_min_cover(literal_graph().graph, 2)
    assert result.status == "solved"
    assert result.decomposition.k == 2
    assert result.decomposition.classes == literal_partition().classes


def test_literal_pruned_and_unpruned_enumerations_agree():
    g = literal_graph().graph
    pruned = enumerate_two_class_assignments(g, COVER)
    unpruned = enumerate_two_class_assignments(g, COVER, prune=False)
    assert sorted(pruned.solutions) == sorted(unpruned.solutions)
    assert unpruned.nodes > pruned.nodes


# ---------------------------------------------------------------------------
# extended literal gadget
# ---------------------------------------------------------------------------


def test_extended_counts():
    gg = extended_literal_graph()
    assert (gg.graph.n, len(gg.graph.edges)) == (12, 15)


def test_extended_partition_validates_and_is_minimal():
    d = extended_literal_partition()
    assert validate(d) is None
    result = exact_min_partition(extended_literal_graph().graph, 3)
    assert result.status == "solved"
    assert result.decomposition.k == 2


def test_extended_two_cover_solutions_are_unique_up_to_swap():
    out = enumerate_two_class_assignments(extended_literal_graph().graph, COVER)
    assert out.completed
    d = extended_literal_partition()
    assert set(out.solutions) == {masks_of(d), masks_of(swap_classes(d))}


# ---------------------------------------------------------------------------
# clause gadget
# ---------------------------------------------------------------------------


def test_clause_counts():
    gg = clause_gadget()
    assert (gg.graph.n, len(gg.graph.edges)) == (33, 48)


def test_single_clause_formula_is_the_clause_gadget():
    f = NaeFormula(3, ((0, 1, 2),))
    assert build_formula_graph(f).graph == clause_gadget().graph


def test_clause_roles_cover_every_vertex():
    gg = clause_gadget()
    assert sorted(gg.roles.values()) == list(range(33))
    assert gg.vertex("C0.a") == 30
    assert gg.vertex("C0.9_1") == 27


def test_clause_all_nae_patterns_translate():
    f = NaeFormula(3, ((0, 1, 2),))
    for values in all_assignments(3):
        if not eval_nae(f, values):
            continue
        d = partition_from_assignment(f, values)
        assert validate(d) is None


def test_clause_rejects_all_equal_assignment():
    f = NaeFormula(3, ((0, 1, 2),))
    with pytest.raises(ValueError, match="not-all-equal"):
        partition_from_assignment(f, (True, True, True))


def test_clause_forced_all_equal_triangles_has_no_completion():
    g = clause_gadget().graph
    forced = {}
    for j in range(3):
        for u, v in [(0, 1), (1, 2), (0, 2)]:
            forced[(u + 9 * j, v + 9 * j)] = 1
    out = enumerate_two_class_assignments(g, COVER, forced=forced, node_budget=30_000_000)
    assert out.completed
    assert out.solutions == []


def test_clause_partitions_put_exactly_two_triangles_together():
    out = enumerate_two_class_assignments(clause_gadget().graph, PARTITION, node_budget=30_000_000)
    assert out.completed
    assert len(out.solutions) == 6
    g = clause_gadget().graph
    edge_index = {e: i for i, e in enumerate(g.edges)}
    f = NaeFormula(3, ((0, 1, 2),))
    for masks in out.solutions:
        sides = []
        for j in range(3):
            tri = {masks[edge_index[(9 * j + a, 9 * j + b)]] for a, b in [(0, 1), (1, 2), (0, 2)]}
            assert len(tri) == 1
            sides.append(tri.pop())
        assert sorted(sides).count(sides[0]) in (1, 2)  # never all three equal
        assert len(set(sides)) == 2
        # and each solution reads back to a satisfying assignment
        classes = tuple(
            frozenset(e for e, m in zip(g.edges, masks) if m >> b & 1) for b in range(2)
        )
        values = assignment_from_partition(f, Decomposition(g, classes, PARTITION))
        assert eval_nae(f, values)


# ---------------------------------------------------------------------------
# formula graphs
# ---------------------------------------------------------------------------


def test_formula_graph_counts():
    gg = build_formula_graph(FIG_FORMULA)
    assert gg.graph.n == 6 * 9 + 9 + 9
    assert len(gg.graph.edges) == 6 * 12 + 3 * 12


def test_variable_shared_between_clauses_gets_distinct_connectors():
    gg = build_formula_graph(FIG_FORMULA)
    # variable 3 appears in all three clauses: three connectors hang off
    # its vertex 6, one per clause
    v6 = gg.vertex("x3.v6")
    connectors = [gg.vertex("C0.9_2"), gg.vertex("C1.9_3"), gg.vertex("C2.9_1")]
    assert len(set(connectors)) == 3
    for c in connectors:
        assert gg.graph.has_edge(v6, c)


def test_formula_graph_roles_are_bijective():
    gg = build_formula_graph(FIG_FORMULA)
    assert sorted(gg.roles.values()) == list(range(gg.graph.n))


def test_each_literal_block_induces_the_literal_gadget():
    gg = build_formula_graph(FIG_FORMULA)
    g = gg.graph
    literal_edges = set(literal_graph().graph.edges)
    for j in range(FIG_FORMULA.num_vars):
        block = set(range(9 * j, 9 * j + 9))
        induced = {
            (u - 9 * j, v - 9 * j)
            for u, v in g.edges
            if u in block and v in block
        }
        assert induced == literal_edges


def test_round_trip_named_formula():
    f = FIG_FORMULA
    seen = 0
    for values in all_assignments(f.num_vars):
        if not eval_nae(f, values):
            continue
        seen += 1
        d = partition_from_assignment(f, values)
        assert assignment_from_partition(f, d) == values
    assert seen > 0


def test_round_trip_with_swapped_classes_gives_complement():
    f = NaeFormula(3, ((0, 1, 2),))
    values = (True, False, False)
    d = partition_from_assignment(f, values)
    swapped = Decomposition(d.host, (d.classes[1], d.classes[0]), d.mode)
    flipped = assignment_from_partition(f, swapped)
    assert flipped == (False, True, True)
    assert eval_nae(f, flipped)


def test_assignment_extraction_rejects_wrong_host():
    f = NaeFormula(3, ((0, 1, 2),))
    other = partition_from_assignment(
        NaeFormula(4, ((0, 1, 2),)), (True, False, False, False)
    )
    with pytest.raises(ValueError, match="does not match"):
        assignment_from_partition(f, other)


def test_assignment_extraction_rejects_a_third_class():
    f = NaeFormula(3, ((0, 1, 2),))
    d = partition_from_assignment(f, (True, False, False))
    three = Decomposition(d.host, d.classes + (frozenset(),), PARTITION)
    with pytest.raises(ValueError, match="expected exactly 2 classes, got 3"):
        assignment_from_partition(f, three)


def test_assignment_extraction_rejects_invalid_decomposition():
    f = NaeFormula(3, ((0, 1, 2),))
    g = build_formula_graph(f).graph
    d = Decomposition(g, (frozenset(g.edges), frozenset()), PARTITION)
    with pytest.raises(ValueError, match="invalid decomposition") as info:
        assignment_from_partition(f, d)
    # the refusal of the validity gate, carrying the fault it found
    assert info.value.fault == validate(d)


def test_assignment_extraction_rejects_split_triangle():
    f = NaeFormula(3, ((0, 1, 2),))
    d = partition_from_assignment(f, (True, False, False))
    # move one triangle edge of variable 0 to the other class; the result
    # can no longer be a valid decomposition and must be rejected
    a = set(d.classes[0])
    b = set(d.classes[1])
    a.remove((0, 1))
    b.add((0, 1))
    broken = Decomposition(d.host, (frozenset(a), frozenset(b)), PARTITION)
    assert validate(broken) is not None
    with pytest.raises(ValueError):
        assignment_from_partition(f, broken)


def test_random_formula_round_trips():
    rng = random.Random(40)
    for _ in range(5):
        num_vars = rng.randint(4, 6)
        clauses = tuple(tuple(rng.sample(range(num_vars), 3)) for _ in range(3))
        f = NaeFormula(num_vars, clauses)
        for values in all_assignments(num_vars):
            if not eval_nae(f, values):
                continue
            d = partition_from_assignment(f, values)
            assert assignment_from_partition(f, d) == values


def test_formula_graph_and_certificate_match_the_reference():
    """The one walk gives the edges, roles and certificate classes of the
    separately laid out reference, minority-literal rule included."""
    rng = random.Random(14)
    checked = 0
    for _ in range(60):
        num_vars = rng.randint(3, 6)
        clauses = tuple(tuple(rng.sample(range(num_vars), 3)) for _ in range(rng.randint(0, 5)))
        f = NaeFormula(num_vars, clauses)
        gg, want = build_formula_graph(f), reference_build_formula_graph(f)
        assert gg.graph.n == want.graph.n
        assert gg.graph.edges == want.graph.edges
        assert list(gg.roles.items()) == list(want.roles.items())
        for values in all_assignments(num_vars):
            if eval_nae(f, values):
                d = partition_from_assignment(f, values)
                assert d == reference_partition_from_assignment(f, values)
                checked += 1
    assert checked >= 900  # 968 NAE-satisfying assignments with this seed


# ---------------------------------------------------------------------------
# formula text format
# ---------------------------------------------------------------------------


def test_formula_text_round_trip():
    text = format_formula(FIG_FORMULA)
    assert parse_formula(text) == FIG_FORMULA
    assert format_formula(parse_formula(text)) == text


def test_formula_graph_at_vertex_limit_parses():
    assert parse_formula("11111 0\n").num_vars == 11111


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "line 1: missing"),
        ("3\n", "line 1: expected header"),
        ("3 1\n0 1\n", "line 2: expected three"),
        ("3 2\n0 1 2\n", "declared 2 clauses"),
        ("3 1\n0 1 2\n0 1 2\n", "line 3: more clause lines"),
        ("3 1\n0 1 x\n", "line 2: variable ids"),
        ("11111 1\n0 1 2\n", "vertex count 100005 exceeds the limit"),
        ("1 -1\n", "line 1: header value c must be non-negative, got -1"),
        ("-1 0\n", "line 1: header value v must be non-negative, got -1"),
        ("3 1\n0 1 \u0662\n", "line 2: variable ids must be integers"),
        ("3 1\n0 1 +2\n", "line 2: variable ids must be integers"),
        ("\u0663 0\n", "line 1: header values must be integers"),
    ],
)
def test_formula_text_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_formula(text)
