"""Symbol maps: axioms, the graph-family checker, tree representations,
and the exhaustive separating-map search."""

import json
import random
import time
import tracemalloc
from itertools import combinations, permutations

import pytest

from cographkit import (
    AxiomViolation,
    Graph,
    NotUltrametricError,
    SymbolicMap,
    build_representation,
    check_axioms,
    check_via_graphs,
    color_graph,
    delta_from_graph,
    format_symbolic_map,
    parse_symbolic_map,
    random_graph,
    random_labeled_tree,
    recognize,
    search_separating_delta,
    to_newick,
    tree_to_map,
)
from cographkit.cotree import Cotree
from cographkit.symbolic import bell_number, set_partitions
from helpers import (
    all_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    reference_build_representation,
    reference_format_symbolic_map,
    reference_parse_symbolic_map,
    reference_search_separating_delta,
    reference_set_partitions,
    run_cli,
    two_vertex_rest_tree,
)


def constant_map(n, symbol=0, num_symbols=1):
    return SymbolicMap(n, num_symbols, [symbol] * (n * (n - 1) // 2))


def forbidden_quadruple_map():
    # pairs of a 4-set split into two monochromatic 3-edge paths:
    # path x-y-u-v under symbol 0, the complementary path under symbol 1
    assignment = {
        (0, 1): 0,
        (1, 2): 0,
        (2, 3): 0,
        (0, 2): 1,
        (0, 3): 1,
        (1, 3): 1,
    }
    return SymbolicMap.from_pairs(4, 2, assignment)


def first_violation_by_brute_force(d):
    """The first triple with three symbols, else the first quadruple
    whose pairs split into two complementary 3-edge paths under two
    different symbols, both in lexicographic order."""
    for x, y, z in combinations(range(d.n), 3):
        if len({d.value(x, y), d.value(x, z), d.value(y, z)}) == 3:
            return AxiomViolation(axiom="U2", vertices=(x, y, z))
    for quad in combinations(range(d.n), 4):
        for a, b, c, e in permutations(quad):
            path = {d.value(a, b), d.value(b, c), d.value(c, e)}
            rest = {d.value(a, c), d.value(b, e), d.value(a, e)}
            if len(path) == len(rest) == 1 and path != rest:
                return AxiomViolation(axiom="U3", vertices=quad)
    return None


def test_map_construction_validates_length():
    with pytest.raises(ValueError, match="expected 3 pair symbols"):
        SymbolicMap(3, 2, [0, 1])
    with pytest.raises(ValueError, match=r"missing symbol for pair \(0, 2\)"):
        SymbolicMap.from_pairs(3, 2, {(0, 1): 0, (1, 2): 1})


def test_map_construction_validates_vertex_count_and_alphabet():
    with pytest.raises(ValueError, match="vertex count must be non-negative, got -1"):
        SymbolicMap(-1, 2, [])
    with pytest.raises(ValueError, match="alphabet must contain at least one symbol, got 0"):
        SymbolicMap(2, 0, [0])
    # huge values are quoted in bounded form
    with pytest.raises(ValueError, match=r"^vertex count must be non-negative, got -10{58}\.\.\.$"):
        SymbolicMap(-10**4000, 4, [])
    with pytest.raises(ValueError, match=r"^alphabet must contain at least one symbol, got -10{58}\.\.\.$"):
        SymbolicMap(1, -10**4000, [])


def test_map_construction_validates_symbols():
    with pytest.raises(ValueError, match=r"pair \(0, 2\) carries invalid symbol 5"):
        SymbolicMap(3, 2, [0, 5, 1])


def test_value_reads_both_orders_and_diagonal():
    d = SymbolicMap(3, 3, [0, 1, 2])
    assert d.value(0, 1) == d.value(1, 0) == 0
    assert d.value(1, 2) == 2
    assert d.value(2, 2) is None
    with pytest.raises(ValueError, match="out of range"):
        d.value(0, 3)
    assert SymbolicMap.from_pairs(3, 3, {(1, 0): 0, (2, 0): 1, (1, 2): 2}) == d


def test_constant_map_is_representable():
    assert check_axioms(constant_map(5)) is None


def test_forbidden_quadruple_pattern_is_caught():
    violation = check_axioms(forbidden_quadruple_map())
    assert violation is not None
    assert violation.axiom == "U3"
    assert violation.vertices == (0, 1, 2, 3)
    assert violation.recheck(forbidden_quadruple_map())


def test_triple_violation_and_minimal_witness():
    # 0-1, 0-2, 1-2 all different; plus an extra vertex to exercise ordering
    d = SymbolicMap.from_pairs(
        4,
        3,
        {
            (0, 1): 0,
            (0, 2): 1,
            (0, 3): 0,
            (1, 2): 2,
            (1, 3): 0,
            (2, 3): 0,
        },
    )
    violation = check_axioms(d)
    assert violation.axiom == "U2"
    assert violation.vertices == (0, 1, 2)
    assert violation.recheck(d)


def test_maps_evaluated_from_random_trees_are_representable():
    rng = random.Random(20)
    for _ in range(500):
        t = random_labeled_tree(rng.randint(1, 10), rng.randint(1, 4), rng)
        assert check_axioms(tree_to_map(t)) is None


def test_color_graph_of_constant_map_is_complete():
    d = constant_map(4, symbol=0, num_symbols=2)
    assert color_graph(d, 0) == complete_graph(4)
    assert color_graph(d, 1) == Graph(4, [])


def test_color_graph_rejects_unknown_symbol():
    with pytest.raises(ValueError, match="unknown symbol 2"):
        color_graph(constant_map(3, num_symbols=2), 2)


def test_color_graphs_partition_the_pairs():
    rng = random.Random(21)
    for _ in range(30):
        n, k = rng.randint(2, 7), rng.randint(1, 4)
        d = SymbolicMap(n, k, [rng.randrange(k) for _ in range(n * (n - 1) // 2)])
        union = set()
        total = 0
        for m in range(k):
            edges = color_graph(d, m).edge_set
            assert not (union & edges)
            union |= edges
            total += len(edges)
        assert total == n * (n - 1) // 2


def checker_maps():
    # two-symbol maps never break U2, so they reach the quadruple scan;
    # tree maps, whole and with one pair changed, put the split on both
    # sides of the verdict, and maps with at least n symbols skip it
    rng = random.Random(22)
    for k, count in ((3, 3000), (2, 1000)):
        for _ in range(count):
            yield SymbolicMap(6, k, [rng.randrange(k) for _ in range(15)])
    for _ in range(500):
        k = rng.randint(2, 4)
        d = tree_to_map(random_labeled_tree(rng.randint(2, 7), k, rng), k)
        yield d
        symbols = list(d.pair_symbols)
        i = rng.randrange(len(symbols))
        symbols[i] = rng.choice([m for m in range(k) if m != symbols[i]])
        yield SymbolicMap(d.n, k, symbols)
    for _ in range(200):
        n = rng.randint(2, 5)
        yield SymbolicMap(n, 8, [rng.randrange(8) for _ in range(n * (n - 1) // 2)])


def test_checkers_agree_on_random_maps():
    for d in checker_maps():
        violation = check_axioms(d)
        assert (violation is None) == (check_via_graphs(d) is None)
        assert violation == first_violation_by_brute_force(d)
        assert violation is None or violation.recheck(d)
        try:
            tree = build_representation(d)
        except NotUltrametricError as exc:
            assert violation is not None and exc.violation == violation
        else:
            assert violation is None
            assert tree_to_map(tree, d.num_symbols) == d


def test_axiom_scan_builds_no_tables():
    # a table of every quadruple at this size takes about 200 MB
    d = tree_to_map(random_labeled_tree(40, 3, random.Random(26)))
    tracemalloc.start()
    try:
        assert check_axioms(d) is None
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_check_via_graphs_flags_forbidden_pattern():
    violation = check_via_graphs(forbidden_quadruple_map())
    assert violation is not None
    assert violation.axiom in ("U2'", "U3'")
    assert violation.recheck(forbidden_quadruple_map())


def test_check_via_graphs_witness_names_offending_symbol():
    violation = check_via_graphs(forbidden_quadruple_map())
    assert violation.axiom == "U3'"
    assert violation.symbol == 0
    assert violation.p4.holds_in(color_graph(forbidden_quadruple_map(), 0))
    # unused symbols below and above the pattern's leave the witness alone
    shifted = [s + 3 for s in forbidden_quadruple_map().pair_symbols]
    tight = check_via_graphs(SymbolicMap(4, 5, shifted))
    assert tight.symbol == 3
    assert check_via_graphs(SymbolicMap(4, 10**9, shifted)) == tight


def test_two_symbol_map_of_cograph_passes_both_checkers(monkeypatch):
    import cographkit.symbolic as symbolic

    g = Graph(4, [(0, 1), (2, 3)])
    d = delta_from_graph(g)
    assert check_axioms(d) is None
    assert check_via_graphs(d) is None
    # one symbol graph per symbol that occurs, not per declared symbol
    built = []

    def counting_recognize(h):
        built.append(h)
        assert len(built) <= 2, "a symbol graph was built for a symbol that does not occur"
        return recognize(h)

    monkeypatch.setattr(symbolic, "recognize", counting_recognize)
    start = time.perf_counter()
    assert check_via_graphs(SymbolicMap(4, 10**9, d.pair_symbols)) is None
    assert time.perf_counter() - start < 1.0
    assert len(built) == 2


def test_delta_from_graph_matches_recognition_exhaustively():
    # all 1024 labeled graphs on 5 vertices, plus the smaller sizes; the
    # graph-family checker must agree with the direct one throughout
    from cographkit import P4Witness

    for n in range(1, 6):
        for g in all_graphs(n):
            d = delta_from_graph(g)
            direct = check_axioms(d)
            assert (direct is None) == (check_via_graphs(d) is None)
            representable = direct is None
            assert representable == (not isinstance(recognize(g), P4Witness))


def test_delta_from_path_fails():
    assert check_axioms(delta_from_graph(path_graph(4))) is not None


def test_build_representation_of_constant_map_is_a_star():
    t = build_representation(constant_map(4, symbol=0, num_symbols=1))
    assert to_newick(t) == "(0,1,2,3)0;"


def test_representation_reproduces_map_from_random_trees():
    rng = random.Random(23)
    for _ in range(200):
        t = random_labeled_tree(rng.randint(1, 9), rng.randint(1, 4), rng)
        d = tree_to_map(t)
        rebuilt = build_representation(d)
        assert tree_to_map(rebuilt, d.num_symbols) == d


def test_representation_of_cograph_map_is_its_cotree():
    rng = random.Random(24)
    from cographkit import cotree_to_graph, random_cotree

    for _ in range(50):
        t = random_cotree(rng.randint(1, 12), rng)
        g = cotree_to_graph(t)
        rep = build_representation(delta_from_graph(g))
        assert rep == t


def test_representation_matches_per_node_split_reference():
    # symbols that label no node (unused ids below the largest) are skipped
    # by the one split and tried by the reference; the trees must agree
    rng = random.Random(59)
    maps = [
        tree_to_map(random_labeled_tree(rng.randint(1, 12), rng.randint(1, 5), rng))
        for _ in range(300)
    ]
    maps += [
        delta_from_graph(g)
        for n in range(1, 6)
        for g in all_graphs(n)
        if isinstance(recognize(g), Cotree)
    ]
    # many symbols: alphabets of n - 1, and caterpillars whose n - 1 inner
    # nodes each carry their own symbol, ascending or descending down the
    # spine, so each split tries up to n - 1 splitters and ends in a
    # part of two vertices
    maps += [tree_to_map(random_labeled_tree(n, n - 1, rng)) for n in range(2, 25) for _ in range(3)]
    for n in (2, 3, 8, 24):
        for labels in (range(n - 1), range(n - 2, -1, -1)):
            node = n - 1
            for depth, lab in reversed(list(enumerate(labels))):
                node = (lab, [depth, node])
            maps.append(tree_to_map(Cotree(node)))
    # rests of two vertices, one part or two leaves, under three to five symbols
    maps += [tree_to_map(two_vertex_rest_tree(rng, k, rng.randint(0, 2))) for k in (3, 4, 5) for _ in range(20)]
    for d in maps:
        assert build_representation(d) == reference_build_representation(d), d.pair_symbols


def test_representation_rejects_bad_map_with_violation():
    with pytest.raises(NotUltrametricError) as info:
        build_representation(forbidden_quadruple_map())
    assert info.value.violation.axiom == "U3"


def test_split_alone_decides_a_representable_map(monkeypatch):
    import cographkit.symbolic as symbolic

    t = random_labeled_tree(200, 4, random.Random(1))
    d = tree_to_map(t, 4)
    text = format_symbolic_map(d)

    def no_scan(d):
        raise AssertionError("axiom scan on a representable map")

    monkeypatch.setattr(symbolic, "check_axioms", no_scan)
    assert build_representation(d) == t
    code, out, _ = run_cli(["ultrametric", "check", "-"], stdin=text)
    assert (code, json.loads(out)["verdict"]) == (0, "ultrametric")
    code, out, _ = run_cli(["ultrametric", "represent", "-"], stdin=text)
    assert code == 0
    assert json.loads(out)["payload"]["newick"] == to_newick(t)


def test_map_with_more_symbols_than_inner_nodes_skips_the_split(monkeypatch):
    import cographkit.symbolic as symbolic

    def no_split(splitters, mask):
        raise AssertionError("split of a map with more than n - 1 symbols")

    monkeypatch.setattr(symbolic, "_split", no_split)
    d = SymbolicMap(200, 19_900, list(range(19_900)))
    with pytest.raises(NotUltrametricError) as info:
        build_representation(d)
    assert info.value.violation == AxiomViolation(axiom="U2", vertices=(0, 1, 2))


def test_representation_needs_a_vertex():
    with pytest.raises(ValueError, match="at least one vertex"):
        build_representation(SymbolicMap(0, 1, []))


def test_separating_search_path_exhausts_partition_space():
    stats = {}
    result = search_separating_delta(path_graph(4), stats=stats)
    assert result is None
    assert stats["pairs"] == 6
    assert stats["partitions_screened"] == 203
    assert stats["candidates"] == 25


def test_screened_space_accounting_matches_literal_enumeration():
    # independently enumerate all 203 partitions of the six pairs of the
    # 4-path and split them into mixing and edge/non-edge-respecting ones
    g = path_graph(4)
    pairs = list(combinations(range(4), 2))
    seen = 0
    respecting = 0
    for blocks in set_partitions(len(pairs)):
        seen += 1
        ok = True
        for block in blocks:
            kinds = {g.has_edge(*pairs[i]) for i in block}
            if len(kinds) == 2:
                ok = False
                break
        respecting += ok
    assert seen == 203 == bell_number(6)
    assert respecting == 25 == bell_number(3) ** 2


def test_separating_search_finds_map_for_square():
    d = search_separating_delta(cycle_graph(4))
    assert d is not None
    assert check_axioms(d) is None
    g = cycle_graph(4)
    edge_symbols = {d.value(u, v) for u, v in g.edges}
    non_symbols = {
        d.value(u, v)
        for u in range(4)
        for v in range(u + 1, 4)
        if not g.has_edge(u, v)
    }
    assert not (edge_symbols & non_symbols)


def test_separating_search_matches_the_product_oracle():
    for n in range(6):
        for g in all_graphs(n):
            stats, expected = {}, {}
            found = search_separating_delta(g, stats=stats)
            assert found == reference_search_separating_delta(g, stats=expected), g.edges
            assert stats == expected, g.edges


def test_separating_search_matches_the_product_oracle_under_symbol_budgets():
    # Random graphs are mostly cographs, so the 4- and 5-vertex paths and
    # the 5-cycle join them.  The oracle walks the whole of each side's
    # enumeration whatever the budget, so on 6 vertices it can only finish
    # on cographs (found at the first candidate when the budget allows two
    # symbols) with 7 or 8 edges (Bell(8) = 4,140 partitions per side).
    from cographkit import P4Witness

    rng = random.Random(27)
    graphs = [path_graph(4), path_graph(5), cycle_graph(5)]
    graphs += [random_graph(rng.randint(1, 5), rng.random(), rng) for _ in range(40)]
    while len(graphs) < 51:
        g = random_graph(6, rng.random(), rng)
        if 7 <= len(g.edges) <= 8 and not isinstance(recognize(g), P4Witness):
            graphs.append(g)
    for g in graphs:
        for max_symbols in (None, 0, 1, 2, 3, 4, 5):
            stats, expected = {}, {}
            found = search_separating_delta(g, max_symbols, stats)
            assert found == reference_search_separating_delta(g, max_symbols, expected), (g.edges, max_symbols)
            assert stats == expected, (g.edges, max_symbols)


def test_separating_search_five_cycle_fails():
    assert search_separating_delta(cycle_graph(5)) is None


def test_separating_search_rejects_large_input():
    with pytest.raises(ValueError, match="limited to 6 vertices"):
        search_separating_delta(Graph(7, []))


def test_separating_search_symbol_budget():
    # one block per side is enough for a complete graph, so budget 1 passes
    assert search_separating_delta(complete_graph(3), max_symbols=1) is not None
    # the square needs at least two blocks (edges and non-edges)
    assert search_separating_delta(cycle_graph(4), max_symbols=1) is None
    assert search_separating_delta(cycle_graph(4), max_symbols=2) is not None


def test_bell_numbers():
    assert [bell_number(i) for i in range(7)] == [1, 1, 2, 5, 15, 52, 203]


def test_set_partitions_enumeration():
    parts = list(set_partitions(3))
    assert parts[0] == [(0, 1, 2)]
    assert parts == [
        [(0, 1, 2)],
        [(0, 1), (2,)],
        [(0, 2), (1,)],
        [(0,), (1, 2)],
        [(0,), (1,), (2,)],
    ]
    assert len(list(set_partitions(5))) == bell_number(5)
    for m in range(11):
        assert list(set_partitions(m)) == list(reference_set_partitions(m)), m
    # the first of 5,000 items is the one-block partition, built without recursion
    assert next(set_partitions(5000)) == [tuple(range(5000))]
    with pytest.raises(ValueError, match="must be non-negative"):
        next(set_partitions(-1))
    with pytest.raises(ValueError, match="m must be non-negative"):
        bell_number(-1)


def test_map_text_round_trip():
    rng = random.Random(25)
    for _ in range(20):
        n, k = rng.randint(1, 6), rng.randint(1, 4)
        d = SymbolicMap(n, k, [rng.randrange(k) for _ in range(n * (n - 1) // 2)])
        text = format_symbolic_map(d)
        assert parse_symbolic_map(text) == d
        assert format_symbolic_map(parse_symbolic_map(text)) == text


def _seeded_maps(count=300, seed=26):
    """Maps with n 0..60 and k 1..5; every other one (n >= 2) is the map of
    a random labelled tree, the rest uniform random symbols."""
    rng = random.Random(seed)
    for i in range(count):
        n, k = rng.randint(0, 60), rng.randint(1, 5)
        if i % 2 and n >= 2:
            yield rng, tree_to_map(random_labeled_tree(n, k, rng), k)
        else:
            yield rng, SymbolicMap(n, k, [rng.randrange(k) for _ in range(n * (n - 1) // 2)])


def _single_fault_mutants(d, rng):
    """One of each fault kind, each in an otherwise valid map text: a bad
    token, an out-of-range symbol, a symbol on the diagonal, a '-' off it,
    an asymmetric pair, a short row, the last row missing and a row added
    at the end.  (A row dropped or added in the middle shifts the rows after
    it, and the reader names the first row that no longer fits.)"""
    n, k = d.n, d.num_symbols
    head, *body = reference_format_symbolic_map(d).splitlines()
    rows = [line.split() for line in body]

    def text(change):
        mutated = [row[:] for row in rows]
        change(mutated)
        return "\n".join([head] + [" ".join(row) for row in mutated]) + "\n"

    def put(x, y, token):
        return lambda m: m[x].__setitem__(y, token)

    yield "extra row", text(lambda m: m.append(list(m[rng.randrange(n)]) if n else ["-"]))
    if not n:
        return
    x, y = rng.randrange(n), rng.randrange(n)
    yield "bad token", text(put(x, y, rng.choice(["q0", "s", "sx", "s-1", "S0", "s\u0663", "--"])))
    yield "out-of-range symbol", text(put(x, y, f"s{k + rng.randrange(3)}"))
    yield "symbol on the diagonal", text(put(x, x, f"s{rng.randrange(k)}"))
    yield "short row", text(lambda m: m[x].pop())
    yield "missing row", text(lambda m: m.pop())
    if n >= 2:
        y = rng.choice([v for v in range(n) if v != x])
        yield "'-' off the diagonal", text(put(x, y, "-"))
        if k >= 2:
            other = (d.value(x, y) + 1 + rng.randrange(k - 1)) % k
            yield "asymmetric pair", text(put(x, y, f"s{other}"))


def _message(parse, text):
    with pytest.raises(ValueError) as info:
        parse(text)
    return str(info.value)


def test_map_reader_and_writer_match_the_oracles():
    sizes = set()
    for _, d in _seeded_maps():
        text = format_symbolic_map(d)
        assert text == reference_format_symbolic_map(d)
        assert parse_symbolic_map(text) == reference_parse_symbolic_map(text) == d
        assert format_symbolic_map(parse_symbolic_map(text)) == text
        sizes.add(d.n)
    assert {0, 1, 2, 60} <= sizes


def test_map_single_fault_mutants_raise_the_oracle_message():
    kinds = {}
    for rng, d in _seeded_maps():
        for kind, text in _single_fault_mutants(d, rng):
            assert _message(parse_symbolic_map, text) == _message(reference_parse_symbolic_map, text), (kind, text)
            kinds[kind] = kinds.get(kind, 0) + 1
    assert len(kinds) == 8 and min(kinds.values()) >= 100, kinds


def test_map_with_several_faults_names_the_first_in_reading_order():
    # row 1 holds an asymmetric pair in column 0 and a bad token in column 2;
    # the oracle named the bad token, as it read every token first
    text = "3 2\n- s0 s0\ns1 - q\ns0 s0 -\n"
    assert _message(parse_symbolic_map, text) == "entries (0,1) and (1,0) are not symmetric"
    assert _message(reference_parse_symbolic_map, text) == "line 3: bad token 'q'"
    # a bad first row comes before the missing last one
    assert _message(parse_symbolic_map, "3 1\n- s0 s0 s0\n") == "line 2: expected 3 tokens, got 4"


@pytest.mark.parametrize("n", range(4))
def test_map_header_with_an_empty_alphabet_against_the_oracle(n):
    # the reader rejects k = 0 at the header; the oracle reads the rows first,
    # so from n = 2 on it names a symbol or a '-' off the diagonal instead
    empty = "alphabet must contain at least one symbol, got 0"
    labelled = f"{n} 0\n" + "".join(" ".join("-" if y == x else "s0" for y in range(n)) + "\n" for x in range(n))
    dashes = f"{n} 0\n" + ("- " * n + "\n") * n
    for text in (labelled, dashes):
        assert _message(parse_symbolic_map, text) == empty, text
    if n <= 1:
        assert _message(reference_parse_symbolic_map, labelled) == empty
        assert _message(reference_parse_symbolic_map, dashes) == empty
    else:
        assert _message(reference_parse_symbolic_map, labelled) == "line 2: symbol s0 outside s0..s-1"
        assert _message(reference_parse_symbolic_map, dashes) == "off-diagonal entry (0,1) must carry a symbol"


def test_map_reader_peak_is_a_small_multiple_of_the_text():
    text = format_symbolic_map(tree_to_map(random_labeled_tree(300, 4, random.Random(1)), 4))
    tracemalloc.start()
    try:
        d = parse_symbolic_map(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.n == 300
    # holding every row's tokens and an n x n table took 26.5 times the text
    assert peak < 6 * len(text), peak / len(text)


def test_map_header_without_rows_allocates_nothing_of_size_n():
    tracemalloc.start()
    try:
        message = _message(parse_symbolic_map, "10000000 1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert message == "expected 10000000 matrix rows, found 0"
    assert peak < 1 << 20


def test_map_writer_makes_tokens_only_for_symbols_that_occur():
    start = time.perf_counter()
    assert format_symbolic_map(SymbolicMap(2, 10**9, [5])) == "2 1000000000\n- s5\ns5 -\n"
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "line 1: missing"),
        ("2\n", "line 1: expected header"),
        ("2 1\n- s0\n", "expected 2 matrix rows"),
        ("2 1\n- s0\ns0 s0\n", r"diagonal entry \(1,1\)"),
        ("2 1\n- -\n- -\n", r"off-diagonal entry \(0,1\)"),
        ("2 1\n- s1\ns1 -\n", "symbol s1 outside s0..s0"),
        ("2 1\n- q0\nq0 -\n", "bad token 'q0'"),
        # digits to str.isdigit, not ASCII
        ("4 4\n- s\u0663 s0 s0\ns\u0663 - s0 s0\ns0 s0 - s0\ns0 s0 s0 -\n", "bad token 's\u0663'"),
        ("3 3\n- s\u00b2 s0\ns\u00b2 - s0\ns0 s0 -\n", "bad token 's\u00b2'"),
        ("3 2\n- s0 s0\ns1 - s0\ns0 s0 -\n", "not symmetric"),
        ("-1 1\n", "line 1: header value n must be non-negative, got -1"),
        ("2 -1\n- s0\ns0 -\n", "line 1: header value k must be non-negative, got -1"),
    ],
)
def test_map_text_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_symbolic_map(text)


@pytest.mark.parametrize("n", range(4))
def test_map_header_with_an_empty_alphabet_is_named_for_every_n(n):
    # the rows are not read: neither a symbol nor a '-' off the diagonal is named
    labelled = "".join(" ".join("-" if y == x else "s0" for y in range(n)) + "\n" for x in range(n))
    dashes = ("- " * n + "\n") * n
    for text in (f"{n} 0\n", f"{n} 0\n{labelled}", f"{n} 0\n{dashes}"):
        assert _message(parse_symbolic_map, text) == "alphabet must contain at least one symbol, got 0", text


def test_axiom_violation_recheck_rejects_wrong_axiom():
    with pytest.raises(ValueError, match="unknown axiom tag"):
        AxiomViolation(axiom="U9").recheck(constant_map(3))
