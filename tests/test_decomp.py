"""Decomposition validation, proper-coloring construction, coarsening,
constraints, exact solvers, and the hypercube layer partition."""

import random
from itertools import combinations

import pytest

from cographkit import (
    COVER,
    INFEASIBLE,
    PARTITION,
    SOLVED,
    TIMEOUT,
    Decomposition,
    Graph,
    P4Witness,
    coarsen,
    connected_components,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_induced_p4,
    exact_min_cover,
    exact_min_partition,
    greedy_partition,
    hypercube,
    is_coarsest,
    layers_partition,
    p4_constraints,
    random_graph,
    recognize,
    validate,
    vizing_partition,
)
import helpers
from cographkit.decomp import SearchOutcome, SolveResult, _first_cograph_union, search_assignments
from cographkit.graph import MAX_VERTICES, first_induced_p4
from helpers import (
    all_graphs,
    clique_with_pendant_path,
    complete_graph,
    cycle_graph,
    path_graph,
    reference_coarsen,
    reference_first_cograph_union,
    reference_vizing_partition,
)


def single_class(g: Graph, mode=PARTITION) -> Decomposition:
    return Decomposition(g, (frozenset(g.edges),), mode)


def is_matching(edges) -> bool:
    seen = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def test_validate_cograph_single_class():
    assert validate(single_class(complete_graph(4))) is None


def test_validate_five_cycle_single_class_fails():
    fault = validate(single_class(cycle_graph(5)))
    assert fault.kind == "class-not-cograph"
    assert fault.class_index == 0
    assert fault.witness.holds_in(cycle_graph(5))


def test_validate_five_cycle_two_split_ok():
    g = cycle_graph(5)
    d = Decomposition(
        g, (frozenset([(0, 1), (2, 3)]), frozenset([(1, 2), (3, 4), (0, 4)])), PARTITION
    )
    assert validate(d) is None


def test_validate_foreign_edge():
    g = path_graph(3)
    d = Decomposition(g, (frozenset([(0, 1), (0, 2)]),), PARTITION)
    fault = validate(d)
    assert fault.kind == "foreign-edge"
    assert "(0, 2)" in fault.detail


def test_validate_coverage():
    g = path_graph(3)
    d = Decomposition(g, (frozenset([(0, 1)]),), PARTITION)
    fault = validate(d)
    assert fault.kind == "coverage"
    assert "(1, 2)" in fault.detail


def test_validate_partition_rejects_overlap_but_cover_allows_it():
    g = path_graph(3)
    classes = (frozenset([(0, 1), (1, 2)]), frozenset([(1, 2)]))
    assert validate(Decomposition(g, classes, PARTITION)).kind == "overlap"
    assert validate(Decomposition(g, classes, COVER)) is None


def test_validate_agrees_with_oracle_per_class():
    rng = random.Random(30)
    for _ in range(40):
        g = random_graph(rng.randint(2, 9), rng.random(), rng)
        if not g.edges:
            continue
        edges = list(g.edges)
        rng.shuffle(edges)
        cut = rng.randint(0, len(edges))
        classes = (frozenset(edges[:cut]), frozenset(edges[cut:]))
        d = Decomposition(g, classes, PARTITION)
        fault = validate(d)
        clean = all(
            not enumerate_induced_p4(Graph(g.n, cls)) for cls in classes
        )
        assert (fault is None) == clean


def _first_recognized_witness(d: Decomposition):
    """(class index, witness) of the first class whose graph on all n
    vertices ``recognize`` rejects, or None."""
    for idx, cls in enumerate(d.classes):
        result = recognize(Graph(d.host.n, cls))
        if isinstance(result, P4Witness):
            return idx, result
    return None


def _assert_validate_matches_recognize(d: Decomposition) -> bool:
    fault = validate(d)
    expected = _first_recognized_witness(d)
    if expected is None:
        assert fault is None, d.classes
        return False
    assert (fault.kind, fault.class_index, fault.witness) == ("class-not-cograph", *expected), d.classes
    return True


def test_validate_matches_recognize_on_random_decompositions_with_isolated_vertices():
    rng = random.Random(36)
    invalid = total = elsewhere = 0
    for _ in range(600):
        # a disjoint union of up to three random graphs, so a class may have
        # several prime parts, on shuffled labels with isolated vertices left
        sizes = [rng.randint(2, 7) for _ in range(rng.randint(1, 3))]
        n = sum(sizes) + rng.randint(1, 4)
        labels = rng.sample(range(n), n)
        edges, start = [], 0
        for size in sizes:
            part = random_graph(size, rng.uniform(0.2, 0.9), rng)
            edges += [(labels[start + u], labels[start + v]) for u, v in part.edges]
            start += size
        g = Graph(n, edges)
        k = rng.randint(1, 4)
        classes = [set() for _ in range(k)]
        mode = rng.choice((PARTITION, COVER))
        for e in g.edges:
            picks = [rng.randrange(k)] if mode == PARTITION else rng.sample(range(k), rng.randint(1, k))
            for c in picks:
                classes[c].add(e)
        d = Decomposition(g, tuple(map(frozenset, classes)), mode)
        if _assert_validate_matches_recognize(d):
            invalid += 1
            idx, witness = _first_recognized_witness(d)
            elsewhere += first_induced_p4(Graph(n, d.classes[idx])) != witness
        total += 1
    assert 100 < invalid < total - 100, (invalid, total)
    # classes whose first induced path overall lies outside the first prime part
    assert elsewhere >= 10, elsewhere


def test_validate_matches_recognize_on_overlapping_covers():
    invalid = 0
    for d in _cover_inputs():
        assert not _assert_validate_matches_recognize(d)
        # the union of the first two classes as a third class, often invalid
        merged = (*d.classes, d.classes[0] | d.classes[1])
        invalid += _assert_validate_matches_recognize(Decomposition(d.host, merged, COVER))
    assert invalid > 100, invalid


def test_decomposition_rejects_unknown_mode():
    with pytest.raises(ValueError, match="mode must be"):
        Decomposition(path_graph(2), (frozenset([(0, 1)]),), "both")


# ---------------------------------------------------------------------------
# proper edge coloring
# ---------------------------------------------------------------------------


def test_vizing_complete_graph():
    d = vizing_partition(complete_graph(4))
    assert validate(d) is None
    assert d.k <= 4
    assert all(is_matching(cls) for cls in d.classes)
    assert set().union(*d.classes) == set(complete_graph(4).edges)


def test_vizing_odd_cycle_needs_extra_color():
    d = vizing_partition(cycle_graph(5))
    assert d.k == 3  # max degree 2, chromatic index 3


def test_five_cycle_has_no_proper_two_coloring():
    # brute-force oracle behind the previous test: no 2-coloring of the
    # five cycle edges is proper, so three matchings are unavoidable
    g = cycle_graph(5)
    edges = g.edges
    for bits in range(1 << len(edges)):
        proper = True
        for i in range(len(edges)):
            for j in range(i + 1, len(edges)):
                if (bits >> i & 1) != (bits >> j & 1):
                    continue
                if set(edges[i]) & set(edges[j]):
                    proper = False
                    break
            if not proper:
                break
        assert not proper


def test_vizing_edgeless_graph_is_single_empty_class():
    d = vizing_partition(Graph(4, []))
    assert d.k == 1
    assert d.classes == (frozenset(),)
    assert validate(d) is None


def test_vizing_random_graphs_proper_and_bounded():
    rng = random.Random(31)
    for _ in range(60):
        g = random_graph(rng.randint(1, 30), rng.uniform(0.1, 0.6), rng)
        d = vizing_partition(g)
        assert d.k <= g.max_degree() + 1
        assert all(is_matching(cls) for cls in d.classes)
        assert validate(d) is None


def test_vizing_matches_sorted_fan_reference():
    # the bitset fan scan must pick the same fan vertices, free colors and
    # rotations as the sorted scan, so the classes are equal, not just valid
    graphs = [g for n in range(6) for g in all_graphs(n)]
    rng = random.Random(33)
    graphs += [random_graph(rng.randint(1, 40), rng.uniform(0.05, 0.9), rng) for _ in range(300)]
    graphs.append(random_graph(120, 0.3, rng))
    # regular, dense graphs send nearly every edge through a Kempe swap
    graphs += [complete_graph(n) for n in range(2, 31)]
    graphs += [Graph(2 * n, [(i, n + j) for i in range(n) for j in range(n)]) for n in range(1, 21)]
    graphs += [hypercube(d) for d in range(1, 8)]
    for g in graphs:
        assert vizing_partition(g).classes == reference_vizing_partition(g).classes, g.edges


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------


def test_coarsen_complete_graph_coloring_to_one_class():
    assert coarsen(vizing_partition(complete_graph(4))).k == 1


def test_coarsen_singletons_of_cograph_to_one_class():
    g = complete_graph(4)
    d = Decomposition(g, tuple(frozenset([e]) for e in g.edges), PARTITION)
    assert coarsen(d).k == 1


def test_coarsen_keeps_layer_partition():
    d = layers_partition(2)
    assert coarsen(d).classes == d.classes


def test_coarsen_rejects_invalid_input():
    g = cycle_graph(5)
    with pytest.raises(ValueError, match="cannot coarsen"):
        coarsen(single_class(g))


def test_coarsen_output_is_coarsest():
    rng = random.Random(32)
    for _ in range(20):
        g = random_graph(rng.randint(2, 12), rng.uniform(0.2, 0.6), rng)
        coarse = coarsen(vizing_partition(g))
        assert validate(coarse) is None
        assert is_coarsest(coarse)


def _coarsening_inputs():
    """Vizing and singleton partitions of every graph on at most 5 vertices
    and of seeded random graphs on at most 8 vertices."""
    rng = random.Random(34)
    graphs = [g for n in range(6) for g in all_graphs(n)]
    graphs += [random_graph(rng.randint(1, 8), rng.uniform(0.1, 0.9), rng) for _ in range(300)]
    for g in graphs:
        yield vizing_partition(g)
        if 2 <= g.m <= 12:
            yield Decomposition(g, tuple(frozenset([e]) for e in g.edges), PARTITION)


def test_coarsen_matches_graph_building_reference():
    for d in _coarsening_inputs():
        coarse = coarsen(d)
        assert coarse.classes == reference_coarsen(d).classes, d.classes
        assert is_coarsest(d) == (reference_first_cograph_union(d.host.n, d.classes) is None)
        assert is_coarsest(coarse)


def test_coarsen_stats_count_unions_and_merges():
    g = complete_graph(4)
    d = Decomposition(g, tuple(frozenset([e]) for e in g.edges), PARTITION)
    stats = {}
    assert coarsen(d, stats).k == 1
    # every pair of single edges is a cograph, so each round merges the
    # first pair it tests: six classes take five rounds of one union each
    assert stats == {"unions_tested": 5, "merges": 5}
    stats = {}
    assert coarsen(layers_partition(2), stats).k == 2
    assert stats == {"unions_tested": 1, "merges": 0}


def _cover_inputs():
    """Cover decompositions with overlapping classes: the Vizing or the
    singleton classes of a graph, plus up to three random cograph classes of
    two to four edges placed among them, so a chord may sit in several classes."""
    rng = random.Random(35)
    graphs = [g for g in all_graphs(5) if g.m >= 3]
    graphs += [random_graph(rng.randint(4, 8), rng.uniform(0.3, 0.9), rng) for _ in range(200)]
    for g in graphs:
        extra, want = [], rng.randint(1, 3)
        while len(extra) < want:
            cls = rng.sample(g.edges, min(g.m, rng.randint(2, 4)))
            if not isinstance(recognize(Graph(g.n, cls)), P4Witness):
                extra.append(frozenset(cls))
        for base in (vizing_partition(g).classes, [frozenset([e]) for e in g.edges]):
            if len(base) + len(extra) <= 14:
                classes = list(base)
                for cls in extra:
                    classes.insert(rng.randint(0, len(classes)), cls)
                yield Decomposition(g, tuple(classes), COVER)


def test_coarsen_matches_reference_on_overlapping_covers():
    count = 0
    for d in _cover_inputs():
        assert validate(d) is None
        coarse = coarsen(d)
        assert coarse.classes == reference_coarsen(d).classes, d.classes
        assert is_coarsest(d) == (reference_first_cograph_union(d.host.n, d.classes) is None)
        assert is_coarsest(coarse)
        count += 1
    assert count > 1_000, count


def test_coarsen_keeps_every_holder_of_a_chord():
    # every pair of classes fails; the path 0-1-3-2 of classes 0 and 1 has
    # its chord 02 in classes 2 and 3, and classes 0, 1 and 2 form the first
    # cograph union, the 4-cycle 0-1-3-2-0, which a nogood naming only one
    # holder of the chord would skip
    g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    classes = ([(1, 3), (2, 3)], [(0, 1)], [(0, 2), (1, 3)], [(0, 2), (2, 3)])
    d = Decomposition(g, tuple(map(frozenset, classes)), COVER)
    assert _first_cograph_union(d.classes) == reference_first_cograph_union(4, d.classes)
    assert _first_cograph_union(d.classes)[0] == (0, 1, 2)


def _planted_rigid_classes(r: int, rng: random.Random) -> Decomposition:
    """``r`` matching classes in which every pair i < j shares an isolated
    induced path a-b-c-d: ab and cd in class i, bc in class j."""
    classes = [[] for _ in range(r)]
    nxt = 0
    for i, j in combinations(range(r), 2):
        a, b, c, d = range(nxt, nxt + 4)
        nxt += 4
        classes[i] += [(a, b), (c, d)]
        classes[j].append((b, c))
    relabel = rng.sample(range(nxt), nxt)
    classes = [frozenset(tuple(sorted((relabel[u], relabel[v]))) for u, v in cls) for cls in classes]
    rng.shuffle(classes)
    return Decomposition(Graph(nxt, [e for cls in classes for e in cls]), tuple(classes), PARTITION)


def test_coarsen_skips_every_superset_of_a_chordless_failing_pair(monkeypatch):
    # each pair's union holds its shared path, which has no chord in the
    # host, so the 28 failing pairs rule out all 219 larger subsets; the
    # unpruned reference recognizes all 2^8 - 1 - 8 = 247 unions
    d = _planted_rigid_classes(8, random.Random(44))
    stats = {}
    assert coarsen(d, stats).classes == d.classes
    assert stats == {"unions_tested": 28, "merges": 0}
    calls = []
    is_cograph = helpers._is_cograph
    monkeypatch.setattr(helpers, "_is_cograph", lambda n, edges: calls.append(1) or is_cograph(n, edges))
    assert reference_coarsen(d).classes == d.classes
    assert len(calls) == 247


def test_greedy_partition_of_dense_forty_vertex_graph():
    # the Vizing partition of G(40, 0.5) has 27 classes; the unpruned scan
    # did not finish a round of its 2^27 subsets, the pruned one tests 949
    g = random_graph(40, 0.5, random.Random(1))
    assert vizing_partition(g).k == 27
    stats = {}
    d = greedy_partition(g, stats)
    assert validate(d) is None
    assert stats["unions_tested"] < 10_000


def test_greedy_partition_is_coarsened_coloring():
    g = complete_graph(5)
    assert greedy_partition(g).k == 1


def test_is_coarsest_two_split_of_cograph_is_false():
    g = complete_graph(4)
    edges = list(g.edges)
    d = Decomposition(g, (frozenset(edges[:3]), frozenset(edges[3:])), PARTITION)
    assert validate(d) is None
    assert not is_coarsest(d)


def test_is_coarsest_rejects_large_k():
    g = Graph(42, [(i, i + 21) for i in range(21)])
    d = Decomposition(g, tuple(frozenset([e]) for e in g.edges), PARTITION)
    with pytest.raises(ValueError, match="limited to 20 classes"):
        is_coarsest(d)


def test_is_coarsest_rejects_invalid_input():
    with pytest.raises(ValueError, match="cannot test"):
        is_coarsest(single_class(cycle_graph(5)))


# ---------------------------------------------------------------------------
# constraints
# ---------------------------------------------------------------------------


def test_constraints_of_path():
    # edges (0, 1), (1, 2), (2, 3) have ids 0, 1, 2
    assert p4_constraints(path_graph(4)) == [(0, 1, 2, ())]


def test_constraints_of_square_have_one_chord_each():
    cons = p4_constraints(cycle_graph(4))
    assert len(cons) == 4
    assert all(len(c[3]) == 1 for c in cons)
    # the chord of a path of the square is its fourth edge
    assert all({*c[:3], *c[3]} == {0, 1, 2, 3} for c in cons)


def _in_edge_ids(g: Graph, constraints) -> list[tuple]:
    eidx = {e: i for i, e in enumerate(g.edges)}
    return [
        (*(eidx[e] for e in c.path_edges), tuple(eidx[e] for e in c.chord_edges))
        for c in constraints
    ]


def test_constraints_match_edge_tuple_reference():
    from cographkit import NaeFormula, build_formula_graph, clause_gadget

    rng = random.Random(37)
    hosts = [g for n in range(6) for g in all_graphs(n)]
    hosts += [random_graph(rng.randint(1, 12), rng.random(), rng) for _ in range(200)]
    hosts.append(clause_gadget().graph)
    hosts.append(build_formula_graph(NaeFormula(6, ((0, 3, 1), (1, 2, 3), (3, 4, 5)))).graph)
    for g in hosts:
        full = _in_edge_ids(g, helpers.reference_p4_constraints(g))
        assert p4_constraints(g) == full
        for limit in {0, 1, len(full) - 1} - {-1}:
            cut = p4_constraints(g, limit)
            assert cut == _in_edge_ids(g, helpers.reference_p4_constraints(g, limit))
            assert cut == full[: limit + 1]


def test_constraints_of_triangle_empty():
    assert p4_constraints(complete_graph(3)) == []


def test_constraint_count_matches_path_enumeration():
    rng = random.Random(33)
    for _ in range(20):
        g = random_graph(rng.randint(2, 8), rng.random(), rng)
        paths = 0
        for a in range(g.n):
            for b in range(g.n):
                for c in range(g.n):
                    for d in range(g.n):
                        if len({a, b, c, d}) < 4 or a > d:
                            continue
                        if g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(c, d):
                            paths += 1
        assert len(p4_constraints(g)) == paths


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------


def test_exact_partition_on_cograph_is_one_class():
    result = exact_min_partition(complete_graph(4), 3)
    assert result.status == SOLVED
    assert result.decomposition.k == 1


def test_exact_partition_five_cycle_needs_two():
    result = exact_min_partition(cycle_graph(5), 3)
    assert result.status == SOLVED
    assert result.decomposition.k == 2
    assert validate(result.decomposition) is None


def test_exact_partition_level_one_iff_cograph():
    for g in all_graphs(4):
        result = exact_min_partition(g, 1)
        is_cograph = not isinstance(recognize(g), P4Witness) if g.n else True
        assert (result.status == SOLVED and result.decomposition.k == 1) == is_cograph


def test_exact_min_cover_at_most_partition_minimum():
    rng = random.Random(34)
    checked = 0
    while checked < 25:
        g = random_graph(rng.randint(3, 7), rng.random(), rng)
        if len(g.edges) > 8:
            continue
        checked += 1
        p = exact_min_partition(g, 4)
        c = exact_min_cover(g, 4)
        assert p.status == SOLVED and c.status == SOLVED
        assert c.decomposition.k <= p.decomposition.k
        assert validate(c.decomposition) is None
        assert validate(p.decomposition) is None


def test_empty_edge_set_solves_with_one_empty_class():
    for solver in (exact_min_partition, exact_min_cover):
        result = solver(Graph(3, []), 2)
        assert result.status == SOLVED
        assert result.decomposition.classes == (frozenset(),)


def test_infeasible_reported_below_true_minimum():
    result = exact_min_partition(cycle_graph(5), 1)
    assert result.status == INFEASIBLE
    assert result.infeasible_below == 1


def test_budget_exhaustion_reports_timeout_not_infeasible():
    g = cycle_graph(7)
    result = exact_min_partition(g, 2, node_budget=3)
    assert result.status == TIMEOUT
    assert result.decomposition is None
    assert result.nodes <= 3


def test_solver_rejects_bad_k_max():
    with pytest.raises(ValueError, match="k_max"):
        exact_min_partition(path_graph(3), 0)


_P4 = path_graph(4)


@pytest.mark.parametrize(
    "call, expected",
    [
        (lambda: search_assignments(_P4, 0), "class count must be at least 1"),
        (lambda: search_assignments(_P4, 2, "both"), "mode must be"),
        (lambda: search_assignments(_P4, 2, forced={(0, 1): 1}), "require symmetry=False"),
        (lambda: search_assignments(_P4, 2, forced={(0, 2): 1}, symmetry=False), "not a host edge"),
        (lambda: search_assignments(_P4, 2, forced={(0, 1): 4}, symmetry=False), "out of range"),
        (lambda: search_assignments(_P4, 2, forced={(0, 1): 3}, symmetry=False), "not a single class"),
        # all three path edges forced into one class: a conflict before any node
        (
            lambda: search_assignments(_P4, 1, forced=dict.fromkeys(_P4.edges, 1), symmetry=False),
            SearchOutcome([], 0, True),
        ),
        # k = 1 spends the whole budget and completes, so k = 2 starts with none
        (lambda: exact_min_partition(_P4, 3, node_budget=2), SolveResult(TIMEOUT, None, 2, 1, (2,))),
    ],
    ids=[
        "k-below-one",
        "unknown-mode",
        "forced-with-symmetry",
        "forced-non-edge",
        "forced-mask-out-of-range",
        "forced-mask-two-classes",
        "root-conflict",
        "budget-spent-between-k",
    ],
)
def test_search_rejections_and_early_exits(call, expected):
    if isinstance(expected, str):
        with pytest.raises(ValueError, match=expected):
            call()
    else:
        assert call() == expected


def test_symmetry_breaking_is_complete():
    # the relabeling-broken search must find a solution exactly when the
    # unrestricted enumeration does, and its answer must be one of them
    from cographkit.decomp import search_assignments

    rng = random.Random(36)
    checked = 0
    while checked < 60:
        g = random_graph(rng.randint(3, 6), rng.random(), rng)
        if not g.edges or len(g.edges) > 7:
            continue
        checked += 1
        for mode in (PARTITION, COVER):
            for k in (1, 2, 3):
                sym = search_assignments(g, k, mode)
                free = search_assignments(g, k, mode, symmetry=False, find_all=True)
                assert bool(sym.solutions) == bool(free.solutions)
                if sym.solutions:
                    assert sym.solutions[0] in free.solutions


def test_propagating_search_matches_unpruned_oracle():
    # propagation may only drop masks that lead to no solution, so the
    # solution list, order included, is the one of the unpruned search
    from cographkit.decomp import search_assignments

    def agree(g, k, mode, symmetry, find_all):
        fast = search_assignments(g, k, mode, symmetry=symmetry, find_all=find_all)
        slow = search_assignments(
            g, k, mode, symmetry=symmetry, find_all=find_all, prune=False
        )
        assert fast.completed and slow.completed
        assert fast.solutions == slow.solutions, (g.edges, k, mode, symmetry, find_all)
        assert fast.nodes <= slow.nodes

    flags = [(s, f) for s in (True, False) for f in (True, False)]
    for n in range(1, 5):
        for g in all_graphs(n):
            for symmetry, find_all in flags:
                for k in (1, 2, 3):
                    agree(g, k, PARTITION, symmetry, find_all)
                for k in (1, 2):
                    agree(g, k, COVER, symmetry, find_all)
    for g in all_graphs(5):
        for symmetry, find_all in flags:
            agree(g, 2, PARTITION, symmetry, find_all)


def test_long_path_solves_without_recursion():
    g = path_graph(10_001)
    result = exact_min_partition(g, 2, node_budget=50_000)
    assert result.status == SOLVED
    assert result.decomposition.k == 2
    assert validate(result.decomposition) is None


def test_unpruned_search_on_a_long_path_runs_without_recursion():
    # one position per edge: a recursive search would pass Python's
    # default limit of 1,000 frames
    from cographkit.decomp import search_assignments
    from cographkit.gadgets import enumerate_two_class_assignments

    g = path_graph(1_101)
    assert search_assignments(g, 1, prune=False) == ([], 1_100, True)
    assert search_assignments(g, 2, prune=False, node_budget=100_000) == ([], 100_000, False)
    out = enumerate_two_class_assignments(g, PARTITION, prune=False, node_budget=100_000)
    assert (out.solutions, out.nodes, out.completed) == ([], 100_000, False)


@pytest.mark.parametrize("k, mode", [(64, COVER), (40_000, PARTITION)])
def test_search_makes_candidate_masks_on_demand(k, mode):
    # built up front, the domain would be 2^64 - 1 cover masks, or 40,000
    # partition masks of up to 40,000 bits (about 100 MB)
    import tracemalloc

    from cographkit.decomp import search_assignments

    for prune, nodes in ((True, 3), (False, 4)):
        tracemalloc.start()
        try:
            out = search_assignments(path_graph(4), k, mode, prune=prune)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.solutions, out.nodes, out.completed) == ([(1, 1, 2)], nodes, True)
        assert peak < 1 << 20


def test_constraint_building_counts_against_budget():
    # about 10^8 length-3 paths: building them all would not finish, so
    # the build stops once the constraints outnumber the node budget
    import time

    g = random_graph(300, 0.3, random.Random(300))
    start = time.perf_counter()
    result = exact_min_partition(g, 2, node_budget=100_000)
    assert time.perf_counter() - start < 10.0
    assert result.status == TIMEOUT
    assert result.decomposition is None
    assert result.nodes == sum(result.nodes_per_k)


def test_nodes_per_k_sums_to_nodes():
    solved = exact_min_partition(cycle_graph(7), 3)
    assert solved.status == SOLVED
    assert len(solved.nodes_per_k) == solved.decomposition.k
    infeasible = exact_min_cover(cycle_graph(5), 1)
    assert infeasible.status == INFEASIBLE
    assert len(infeasible.nodes_per_k) == 1
    # the clause gadget's 210 constraints fit the budget; its 2-cover
    # search does not
    from cographkit import clause_gadget

    timeout = exact_min_cover(clause_gadget().graph, 3, node_budget=500)
    assert timeout.status == TIMEOUT
    assert len(timeout.nodes_per_k) == 2
    for result in (solved, infeasible, timeout):
        assert sum(result.nodes_per_k) == result.nodes


def test_negative_node_budget_is_rejected():
    from cographkit.decomp import search_assignments

    for g in (path_graph(4), Graph(3)):
        for solve in (exact_min_partition, exact_min_cover):
            with pytest.raises(ValueError, match="node budget must be non-negative, got -1"):
                solve(g, 2, node_budget=-1)
        with pytest.raises(ValueError, match="node budget must be non-negative"):
            search_assignments(g, 2, node_budget=-1)
    # a zero budget is valid: an edgeless host needs no node, a path times out
    assert exact_min_partition(Graph(3), 2, node_budget=0).status == SOLVED
    assert exact_min_partition(path_graph(4), 2, node_budget=0).status == TIMEOUT
    assert not search_assignments(path_graph(4), 2, node_budget=0).completed


def test_solver_solutions_always_validate():
    rng = random.Random(35)
    for _ in range(25):
        g = random_graph(rng.randint(2, 7), rng.random(), rng)
        result = exact_min_partition(g, max(1, g.max_degree() + 1))
        assert result.status == SOLVED
        assert validate(result.decomposition) is None


# ---------------------------------------------------------------------------
# hypercube layers
# ---------------------------------------------------------------------------


def test_layers_of_square_is_single_class():
    d = layers_partition(1)
    assert d.k == 1
    assert d.classes[0] == frozenset(hypercube(2).edges)
    assert validate(d) is None
    assert is_coarsest(d)


def test_layers_of_four_cube():
    d = layers_partition(2)
    assert d.host == hypercube(4)
    assert d.k == 2
    assert all(len(cls) == 16 for cls in d.classes)
    for cls in d.classes:
        comps = connected_components(Graph(d.host.n, cls))
        squares = [c for c in comps if len(c) == 4]
        assert len(squares) == 4
        for comp in squares:
            induced = [e for e in cls if e[0] in comp and e[1] in comp]
            assert len(induced) == 4  # each component is a 4-cycle
    assert validate(d) is None
    assert is_coarsest(d)


def test_layers_pairwise_unions_contain_induced_path():
    d = layers_partition(3)
    for i, j in combinations(range(d.k), 2):
        union = Graph(d.host.n, d.classes[i] | d.classes[j])
        assert enumerate_induced_p4(union)


def test_layers_rejects_nonpositive_half_dimension():
    with pytest.raises(ValueError, match="at least 1"):
        layers_partition(0)


# ---------------------------------------------------------------------------
# clique plus pendant path family
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("k", range(3, 9))
def test_clique_with_pendant_path_two_partition(k):
    g = clique_with_pendant_path(k)
    assert isinstance(recognize(g), P4Witness)
    bridge = (k - 1, k)
    rest = frozenset(e for e in g.edges if e != bridge)
    d = Decomposition(g, (rest, frozenset([bridge])), PARTITION)
    assert validate(d) is None


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def test_decomposition_json_round_trip():
    d = layers_partition(2)
    obj = decomposition_to_json(d)
    rebuilt = decomposition_from_json(obj)
    assert rebuilt.classes == d.classes
    assert rebuilt.mode == d.mode
    assert rebuilt.host == d.host
    assert decomposition_to_json(rebuilt) == obj


def test_decomposition_json_with_explicit_host():
    g = path_graph(3)
    d = Decomposition(g, (frozenset([(0, 1)]), frozenset([(1, 2)])), PARTITION)
    obj = decomposition_to_json(d)
    rebuilt = decomposition_from_json(obj, host=g)
    assert rebuilt.host is g


@pytest.mark.parametrize(
    "obj, match",
    [
        ([], "must be an object"),
        ({"mode": PARTITION, "classes": []}, "missing 'k'"),
        ({"mode": PARTITION, "k": 2, "classes": [[[0, 1]]]}, "declared k=2"),
        ({"mode": PARTITION, "k": 1, "classes": [[[0, 1]]]}, 'needs "n"'),
        ({"mode": PARTITION, "k": 1, "n": 3, "classes": [5]}, "list of lists of"),
        ({"mode": PARTITION, "k": 1, "n": 3, "classes": [[[0, 1, 2]]]}, "list of lists of"),
        ({"mode": PARTITION, "k": 1, "n": 3, "classes": 7}, "list of lists of"),
        ({"mode": PARTITION, "k": 1, "n": 3, "classes": [[[0, None]]]}, "integer pairs"),
        ({"mode": PARTITION, "k": 1, "n": 3, "classes": [[[0.9, 1.7]]]}, "integer pairs"),
        ({"mode": PARTITION, "k": 1, "n": None, "classes": [[[0, 1]]]}, '"n" must be an integer'),
        ({"mode": PARTITION, "k": 1, "n": "3", "classes": [[[0, 1]]]}, '"n" must be an integer'),
        ({"mode": PARTITION, "k": 1.0, "n": 3, "classes": [[[0, 1]]]}, '"k" must be an integer'),
        ({"mode": PARTITION, "k": True, "n": 3, "classes": [[[0, 1]]]}, '"k" must be an integer'),
        ({"mode": PARTITION, "k": "1", "n": 3, "classes": [[[0, 1]]]}, '"k" must be an integer'),
    ],
)
def test_decomposition_json_errors(obj, match):
    with pytest.raises(ValueError, match=match):
        decomposition_from_json(obj)


def test_decomposition_json_vertex_limit():
    obj = {"mode": PARTITION, "k": 0, "n": MAX_VERTICES, "classes": []}
    assert decomposition_from_json(obj).host.n == MAX_VERTICES
    for n in (MAX_VERTICES + 1, 10**12):
        with pytest.raises(ValueError, match="exceeds the limit"):
            decomposition_from_json({**obj, "n": n})
