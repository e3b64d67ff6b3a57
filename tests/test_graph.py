"""Graph construction, operators, the induced-path oracle, and edge-list IO."""

import random
import tracemalloc
from enum import IntEnum

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cographkit import (
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
    vizing_partition,
)
from cographkit.graph import MAX_VERTICES, _excerpt, _first_component
from helpers import (
    all_graphs,
    complete_graph,
    cycle_graph,
    path_graph,
    reference_complement_edges,
    reference_component_masks,
    reference_format_edge_list,
    reference_graph,
)


def test_triangle_construction():
    g = Graph(3, [(0, 1), (1, 2), (0, 2)])
    assert g.n == 3
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert g.max_degree() == 2


def test_path_construction():
    g = path_graph(4)
    assert g.edges == ((0, 1), (1, 2), (2, 3))
    assert [g.degree(v) for v in range(4)] == [1, 2, 2, 1]


def test_empty_graph():
    g = Graph(0, [])
    assert g.n == 0 and g.edges == ()
    assert g.max_degree() == 0


def test_edges_are_canonicalized():
    g = Graph(3, [(2, 0), (0, 2), (1, 0)])
    assert g.edges == ((0, 1), (0, 2))


def _assert_builds_like_reference(n, make_edges):
    """``Graph(n, make_edges())`` has the reference constructor's edges, masks,
    edge set, equality and hash; ``make_edges`` gives a fresh iterable per call."""
    want_edges, want_adj = reference_graph(n, make_edges())
    g = Graph(n, make_edges())
    assert g.edges == want_edges and repr(g.edges) == repr(want_edges)
    assert g._adj == want_adj
    assert g.edge_set == frozenset(want_edges)
    assert g == Graph(n, want_edges) and hash(g) == hash((n, want_edges))


def _jumbled(pairs, rng):
    """``pairs`` in random order and orientation, about one in five twice."""
    out = []
    for u, v in pairs:
        out.append((u, v) if rng.random() < 0.5 else (v, u))
        if rng.random() < 0.2:
            out.append((v, u) if rng.random() < 0.5 else (u, v))
    rng.shuffle(out)
    return out


def test_build_matches_reference_on_every_small_graph():
    rng = random.Random(3)
    for n in range(6):
        for g in all_graphs(n):
            pairs = _jumbled(g.edges, rng)
            _assert_builds_like_reference(n, lambda: pairs)


def test_build_matches_reference_on_seeded_edge_lists():
    rng = random.Random(9)
    for _ in range(300):
        n = rng.randint(0, 40)
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = _jumbled(rng.sample(all_pairs, rng.randint(0, len(all_pairs))), rng)
        _assert_builds_like_reference(n, lambda: pairs)
        _assert_builds_like_reference(n, lambda: [[u, v] for u, v in pairs])
        _assert_builds_like_reference(n, lambda: ((u, v) for u, v in pairs))


def test_build_matches_reference_on_int_enum_endpoints():
    V = IntEnum("V", "A B C D", start=0)
    edges = [(V.B, V.A), (V.A, 1), (0, 1), (2, V.D), (V.C, V.D), [V.D, 0]]
    _assert_builds_like_reference(4, lambda: edges)
    assert repr(Graph(4, edges).edges) == repr(reference_graph(4, edges)[0])


def _join_1000():
    """The join of two sparse 500-vertex halves: 252,536 distinct pairs on 1,000
    vertices, shuffled, each in a random orientation."""
    rng = random.Random(5)
    vs = list(range(1000))
    rng.shuffle(vs)
    left, right = vs[:500], vs[500:]
    join = [(a, b) if rng.random() < 0.5 else (b, a) for a in left for b in right]
    for half in (left, right):
        join += [(half[i], half[j]) for i in range(500) for j in range(i + 1, 500) if rng.random() < 0.01]
    rng.shuffle(join)
    return join


def test_build_matches_reference_on_large_shapes():
    join = _join_1000()
    n = 20_000
    matching = [(i, n - 1 - i) for i in range(n // 2)]
    for n, edges in ((1000, join), (n, matching), (100_000, [])):
        _assert_builds_like_reference(n, lambda: edges)


def test_build_matches_reference_when_every_pair_comes_three_times():
    rng = random.Random(17)
    for n in (2, 30, 300):
        all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        pairs = rng.sample(all_pairs, rng.randint(1, min(len(all_pairs), 5000)))
        copies = [
            (u, v) if rng.random() < 0.5 else (v, u)
            for u, v in pairs
            for _ in range(3)
        ]
        copies = [list(p) if rng.random() < 0.3 else p for p in copies]
        rng.shuffle(copies)
        _assert_builds_like_reference(n, lambda: copies)
        _assert_builds_like_reference(n, lambda: iter(copies))


def test_build_keeps_the_first_canonical_input_tuple():
    # built at run time: equal tuple constants of one function are one object
    first, second, later = tuple([0, 1]), tuple([0, 1]), tuple([1, 3])
    reversed_pair, listed = tuple([3, 2]), [1, 4]
    edges = [reversed_pair, [1, 3], first, (2, 3), second, listed, later]
    g = Graph(5, edges)
    assert g.edges == ((0, 1), (1, 3), (1, 4), (2, 3))
    assert g.edges[0] is first
    # a reversed pair or a list gives a new tuple, and that tuple is kept
    # even when an equal canonical tuple follows
    assert all(type(e) is tuple for e in g.edges)
    assert g.edges[1] is not later
    assert g.edges[3] is not edges[3]
    # of two equal canonical tuples, the first is kept
    g = Graph(5, [second, first])
    assert g.edges[0] is second


def test_build_of_the_dense_join_holds_no_transient_larger_than_the_graph():
    join = _join_1000()
    tracemalloc.start()
    try:
        g = Graph(1000, join)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.m == len(join)
    # the kept graph is about 9 MB (masks, edge tuple, new reversed tuples)
    assert peak < 16 * 2**20


def test_vizing_colouring_of_the_12_cube_holds_no_second_copy_of_its_edges():
    g = hypercube(12)
    tracemalloc.start()
    try:
        d = vizing_partition(g)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sum(map(len, d.classes)) == g.m
    # 24,576 edges; the classes keep about 1.5 MiB.  A new tuple per class
    # edge, or colour maps alive while the class sets are built, each take
    # the peak past 4 MiB (4.2 and 4.4 MiB)
    assert peak < 4 * 2**20


def _raised(build):
    try:
        build()
    except Exception as exc:
        return type(exc), str(exc)
    return None


@pytest.mark.parametrize(
    "bad",
    [
        (1.0, 2), (0, "1"), (None, 1), (True, 2), (0, False),  # non-integers
        (2, 2), (0, 5), (-1, 2), (2, -1),  # self-loop, out of range
        (7, 7), (-1, -1), (1.5, 1.5), (True, True), (9, 0.5), ("a", -1), (False, 0),  # two rules at once
        (0,), (0, 1, 2),  # not a pair
        5, None,  # not iterable
    ],
)
def test_build_errors_match_reference(bad):
    valid = [(0, 1), (3, 2), [1, 4], (0, 1)]
    as_list = list(bad) if isinstance(bad, tuple) else bad
    for edges in (valid + [bad], valid + [as_list], [bad] + valid):
        got = _raised(lambda: Graph(5, iter(edges)))
        assert got is not None and got == _raised(lambda: reference_graph(5, iter(edges)))
    for n in (-1, 2.0, True, "3", None):
        assert _raised(lambda: Graph(n, [bad])) == _raised(lambda: reference_graph(n, [bad]))


def test_error_excerpt_keeps_60_characters():
    assert _excerpt("a" * 58) == repr("a" * 58)  # 60 characters, quoted whole
    assert _excerpt("a" * 59) == "'" + "a" * 59 + "..."
    with pytest.raises(ValueError) as info:
        Graph(3, [[0] * 1000])
    assert str(info.value) == f"edge {repr([0] * 1000)[:60]}... is not a pair of endpoints"


def test_invalid_pair_is_named_when_the_masks_cannot_be_allocated():
    # CPython refuses a list of 2**61 slots at once, without allocating, and
    # 2**63 slots do not fit an index: MemoryError and OverflowError
    for n, refusal in ((2**61, MemoryError), (2**63, OverflowError)):
        for bad in [(0, 0), (1.0, 2), (-1, 2), (0, n), (0, 1, 2), 5]:
            edges = [(0, 1), bad]
            got = _raised(lambda: Graph(n, iter(edges)))
            assert got[0] is ValueError and got == _raised(lambda: reference_graph(n, iter(edges)))
        with pytest.raises(ValueError, match=r"self-loop \(0, 0\)"):
            Graph(n, [(0, 0)])
        with pytest.raises(refusal):
            Graph(n, [(0, 1), (2, 3)])


def test_edge_set_equals_the_edges():
    g = Graph(4, [(1, 0), (2, 3)])
    assert g.edge_set == {(0, 1), (2, 3)}


def test_graph_holds_only_its_vertex_count_edges_and_masks():
    assert Graph.__slots__ == ("n", "edges", "_adj")
    g = random_graph(30, 0.4, random.Random(5))
    for h in (g, complement(g)):
        assert h.edge_set == frozenset(h.edges)


def test_rejects_self_loop():
    with pytest.raises(ValueError, match=r"self-loop \(1, 1\)"):
        Graph(3, [(1, 1)])


def test_rejects_out_of_range_endpoint():
    with pytest.raises(ValueError, match=r"\(0, 3\).*outside"):
        Graph(3, [(0, 3)])


def test_rejects_negative_vertex_count():
    with pytest.raises(ValueError, match="non-negative"):
        Graph(-1, [])


def test_complement_of_triangle_is_edgeless():
    assert complement(complete_graph(3)).edges == ()


def test_complement_of_path_is_reordered_path():
    # complement of 0-1-2-3 has exactly the three former non-edges and
    # is itself a path 1-3-0-2
    g = complement(path_graph(4))
    assert g.edges == ((0, 2), (0, 3), (1, 3))
    assert len(enumerate_induced_p4(g)) == 1


def test_complement_is_involution_on_random_graphs():
    rng = random.Random(1)
    for _ in range(100):
        g = random_graph(rng.randint(0, 12), rng.random(), rng)
        assert complement(complement(g)) == g


def test_complement_matches_pairwise_reference():
    rng = random.Random(1)
    graphs = [random_graph(rng.randint(0, 12), rng.random(), rng) for _ in range(100)]
    graphs.append(random_graph(1000, 0.5, random.Random(1)))
    for g in graphs:
        assert list(complement(g).edges) == reference_complement_edges(g)


def test_complement_equals_the_graph_rebuilt_from_its_edges():
    # the slots are set directly, so they must match what Graph would build
    rng = random.Random(1)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(rng.randint(0, 12), rng.random(), rng) for _ in range(100)]
    graphs.append(random_graph(1000, 0.5, random.Random(1)))
    for g in graphs:
        c = complement(g)
        rebuilt = Graph(g.n, reference_complement_edges(g))
        assert type(c) is Graph and c.n == rebuilt.n
        assert c.edges == rebuilt.edges and c._adj == rebuilt._adj
        assert c.edge_set == rebuilt.edge_set
        assert c == rebuilt and hash(c) == hash(rebuilt)


def test_product_of_two_edges_is_square():
    k2 = complete_graph(2)
    q2 = cartesian_product(k2, k2)
    assert q2 == Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def test_product_unit_element():
    rng = random.Random(2)
    for _ in range(20):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        assert cartesian_product(g, complete_graph(1)) == g


def test_product_edge_count():
    rng = random.Random(3)
    for _ in range(50):
        g = random_graph(rng.randint(1, 8), rng.random(), rng)
        h = random_graph(rng.randint(1, 8), rng.random(), rng)
        p = cartesian_product(g, h)
        assert len(p.edges) == g.n * len(h.edges) + h.n * len(g.edges)


def test_product_commutes_up_to_coordinate_swap():
    rng = random.Random(4)
    for _ in range(20):
        g = random_graph(rng.randint(1, 6), rng.random(), rng)
        h = random_graph(rng.randint(1, 6), rng.random(), rng)
        gh = cartesian_product(g, h)
        hg = cartesian_product(h, g)
        swapped = {
            tuple(
                sorted(
                    (
                        (x % h.n) * g.n + x // h.n,
                        (y % h.n) * g.n + y // h.n,
                    )
                )
            )
            for x, y in gh.edges
        }
        assert swapped == set(hg.edges)


def test_product_associates_up_to_flattening():
    rng = random.Random(5)
    for _ in range(10):
        g = random_graph(rng.randint(1, 4), rng.random(), rng)
        h = random_graph(rng.randint(1, 4), rng.random(), rng)
        f = random_graph(rng.randint(1, 4), rng.random(), rng)
        left = cartesian_product(cartesian_product(g, h), f)
        right = cartesian_product(g, cartesian_product(h, f))
        # both flatten (a, b, c) row-major, so they agree exactly
        assert left == right


def test_layer_through_vertex_copies_factor():
    rng = random.Random(6)
    g = random_graph(5, 0.5, rng)
    h = random_graph(4, 0.5, rng)
    p = cartesian_product(g, h)
    for b in range(h.n):
        layer = {(u * h.n + b, v * h.n + b) for u, v in g.edges}
        present = {e for e in p.edges if e[0] % h.n == b and e[1] % h.n == b}
        assert layer == present
    for a in range(g.n):
        layer = {(a * h.n + u, a * h.n + v) for u, v in h.edges}
        present = {
            e for e in p.edges if e[0] // h.n == a and e[1] // h.n == a
        }
        assert layer == present


def test_hypercube_small():
    assert hypercube(0) == Graph(1, [])
    assert hypercube(1) == Graph(2, [(0, 1)])
    q2 = hypercube(2)
    assert (q2.n, len(q2.edges)) == (4, 4)
    assert all(q2.degree(v) == 2 for v in range(4))


def test_hypercube_counts_and_regularity():
    q4 = hypercube(4)
    assert (q4.n, len(q4.edges)) == (16, 32)
    assert all(q4.degree(v) == 4 for v in range(16))
    assert q4.max_degree() == 4


def test_hypercube_rejects_negative_dimension():
    with pytest.raises(ValueError, match="non-negative"):
        hypercube(-1)


def test_p4_oracle_on_path():
    assert enumerate_induced_p4(path_graph(4)) == [P4Witness(0, 1, 2, 3)]


def test_p4_oracle_on_five_cycle():
    assert len(enumerate_induced_p4(cycle_graph(5))) == 5


def test_p4_oracle_on_complete_graph():
    assert enumerate_induced_p4(complete_graph(4)) == []


def test_witness_with_non_integer_vertex_does_not_hold():
    path = path_graph(4)
    assert P4Witness(0, 1, 2, 3).holds_in(path)
    for bad in (0.0, "0", True, False, None, [0]):
        for i in range(4):
            w = P4Witness(*[bad if j == i else j for j in range(4)])
            assert w.holds_in(path) is False
    # integers in range, but a vertex repeats or lies below 0
    assert P4Witness(0, 1, 1, 2).holds_in(path) is False
    assert Graph(2, [(0, 1)]).has_edge(-1, 0) is False


def test_p4_witnesses_recheck_in_host():
    rng = random.Random(7)
    for _ in range(50):
        g = random_graph(rng.randint(4, 9), rng.random(), rng)
        witnesses = enumerate_induced_p4(g)
        assert witnesses == sorted(witnesses)  # the scan order is already lexicographic
        for w in witnesses:
            assert w.holds_in(g)
            assert w.a < w.d


def test_cograph_class_closed_under_complement():
    for g in all_graphs(4):
        assert bool(enumerate_induced_p4(g)) == bool(enumerate_induced_p4(complement(g)))


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 8), st.randoms(use_true_random=False))
def test_complement_preserves_pair_split(n, rng):
    g = random_graph(n, rng.random(), rng)
    c = complement(g)
    assert not (g.edge_set & c.edge_set)
    assert len(g.edges) + len(c.edges) == n * (n - 1) // 2


def test_max_degree_cases():
    assert complete_graph(4).max_degree() == 3
    assert hypercube(4).max_degree() == 4
    assert Graph(5, []).max_degree() == 0


def test_connected_components():
    g = Graph(5, [(0, 1), (3, 4)])
    assert connected_components(g) == [(0, 1), (2,), (3, 4)]


def test_first_component_matches_reference():
    # both modes, tuple and {vertex: mask} adjacency (as decomp passes it),
    # on random subsets; every third subset gets an isolated lowest vertex.
    # Sparse graphs on up to 200 vertices and perfect matchings (and their
    # complements) put many vertices in a frontier, walked highest first
    rng = random.Random(67)
    cases = []
    for _ in range(400):
        n = rng.randint(1, 40)
        g = random_graph(n, rng.uniform(0.05, 0.95), rng)
        subset = rng.getrandbits(n) | 1 << rng.randrange(n)
        adj = g._adj
        if rng.random() < 1 / 3:
            low = (subset & -subset).bit_length() - 1
            adj = tuple(a & ~(1 << low) for a in adj)
            adj = adj[:low] + (0,) + adj[low + 1 :]
        cases.append((n, adj, subset))
    for _ in range(60):
        n = rng.randint(40, 200)
        g = random_graph(n, rng.uniform(1, 4) / n, rng)
        cases.append((n, g._adj, rng.getrandbits(n) | rng.getrandbits(n) | 1 << rng.randrange(n)))
    for n in (2, 31, 200):
        matching = Graph(n, [(v, v + 1) for v in range(0, n - 1, 2)])
        for h in (matching, complement(matching)):
            cases += [(n, h._adj, (1 << n) - 1), (n, h._adj, rng.getrandbits(n) | 1 << rng.randrange(n))]
    for n, adj, subset in cases:
        in_subset = {v: adj[v] for v in range(n) if subset >> v & 1}
        for in_complement in (False, True):
            want = reference_component_masks(adj, subset, in_complement)[0]
            assert _first_component(adj, subset, in_complement) == want
            assert _first_component(in_subset, subset, in_complement) == want


def test_edge_list_round_trip():
    rng = random.Random(8)
    for _ in range(25):
        g = random_graph(rng.randint(0, 10), rng.random(), rng)
        text = format_edge_list(g)
        assert parse_edge_list(text) == g
        assert format_edge_list(parse_edge_list(text)) == text


def test_edge_list_text_matches_the_per_edge_oracle():
    # one template filled from the flattened edges writes the bytes that one
    # "u v" string per edge did
    rng = random.Random(23)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(rng.randint(0, 40), rng.random(), rng) for _ in range(200)]
    V = IntEnum("V", "A B C D", start=0)
    graphs += [Graph(0), Graph(7), Graph(4, [(V.A, V.B), (V.C, V.D), (1, 2)])]
    for g in graphs:
        assert format_edge_list(g) == reference_format_edge_list(g), g
    assert format_edge_list(Graph(0)) == "0 0\n"


def test_edge_list_accepts_comments():
    g = parse_edge_list("# a triangle\n3 3\n0 1\n# middle comment\n1 2\n0 2\n")
    assert g == complete_graph(3)


@pytest.mark.parametrize(
    "text, match",
    [
        ("", "line 1: missing"),
        ("3\n", "line 1: expected header"),
        ("3 1\n0 1 2\n", "line 2: expected an edge"),
        ("3 2\n0 1\n", "declared 2 edges but found 1"),
        ("3 1\n0 1\n1 2\n", "line 3: more edge lines"),
        ("3 1\nx y\n", "line 2: edge endpoints"),
        ("3 -1\n0 1\n", "line 1: header value m must be non-negative, got -1"),
        ("# comment\n-3 0\n", "line 2: header value n must be non-negative, got -3"),
        # integers are ASCII digits with an optional '-'; int() alone would
        # read another script's digit, '_' between digits and a '+' sign
        ("3 1\n0 \u0663\n", "line 2: edge endpoints must be integers"),
        ("11 1\n0 1_0\n", "line 2: edge endpoints must be integers"),
        ("+3 0\n", "line 1: header values must be integers"),
        # lines end at '\n' alone, so U+0085 splits no line and shifts no number
        ("4 3\n0 1\x852 3\n1 x\n", "line 2: expected an edge 'u v'"),
    ],
)
def test_edge_list_parse_errors(text, match):
    with pytest.raises(ValueError, match=match):
        parse_edge_list(text)


def test_edge_list_vertex_limit():
    assert parse_edge_list(f"{MAX_VERTICES} 0\n").n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**12):
        with pytest.raises(ValueError, match=f"vertex count {n} exceeds the limit of {MAX_VERTICES}"):
            parse_edge_list(f"{n} 0\n")
