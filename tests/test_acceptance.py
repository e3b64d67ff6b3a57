"""Acceptance suite: one test per release criterion, each printing a
pass/fail line and enforcing its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import random
import time
from contextlib import contextmanager
from itertools import combinations, product

from cographkit import (
    COVER,
    Cotree,
    Decomposition,
    Graph,
    NaeFormula,
    P4Witness,
    PARTITION,
    SymbolicMap,
    assignment_from_partition,
    build_representation,
    check_axioms,
    check_via_graphs,
    connected_components,
    cotree_to_graph,
    enumerate_induced_p4,
    eval_nae,
    hypercube,
    is_coarsest,
    layers_partition,
    partition_from_assignment,
    random_cotree,
    random_graph,
    recognize,
    search_separating_delta,
    tree_to_map,
    validate,
    vizing_partition,
)
from cographkit.gadgets import (
    enumerate_two_class_assignments,
    extended_literal_graph,
    extended_literal_partition,
    literal_graph,
    literal_partition,
)
from helpers import all_graphs, clique_with_pendant_path, cycle_graph

# node budget for the clause-gadget infeasibility proof; the search is
# deterministic and takes 441 nodes, so this has ample headroom
CLAUSE_GADGET_NODE_BUDGET = 30_000_000


@contextmanager
def criterion(number: int, name: str, limit_s: float):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"criterion {number:2d} [{name}]: FAIL")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < limit_s else "FAIL"
    print(f"criterion {number:2d} [{name}]: {verdict} ({elapsed:.2f}s, limit {limit_s:g}s)")
    assert elapsed < limit_s, f"criterion {number} took {elapsed:.2f}s, limit {limit_s:g}s"


def test_01_recognition_equivalence_on_five_vertices():
    with criterion(1, "recognition matches the induced-path oracle", 5.0):
        for g in all_graphs(5):
            result = recognize(g)
            witnesses = enumerate_induced_p4(g)
            if isinstance(result, P4Witness):
                assert witnesses, f"witness for cograph {g.edges}"
                assert result.holds_in(g)
            else:
                assert not witnesses, f"cotree for non-cograph {g.edges}"
                assert cotree_to_graph(result) == g


def test_02_cotree_round_trip():
    with criterion(2, "1000 random cotrees round trip", 10.0):
        rng = random.Random(1002)
        for _ in range(1000):
            tree = random_cotree(rng.randint(1, 32), rng)
            back = recognize(cotree_to_graph(tree))
            assert isinstance(back, Cotree)
            assert back == tree


def test_03_checker_equivalence_and_representation():
    with criterion(3, "dual checkers agree on 10000 random maps", 60.0):
        rng = random.Random(1003)
        representable = 0
        for _ in range(10_000):
            d = SymbolicMap(6, 3, [rng.randrange(3) for _ in range(15)])
            direct = check_axioms(d)
            via_graphs = check_via_graphs(d)
            assert (direct is None) == (via_graphs is None)
            if direct is None:
                representable += 1
                tree = build_representation(d)
                assert tree_to_map(tree, 3) == d
        assert representable > 0


def test_04_separating_map_oracle_both_directions():
    with criterion(4, "separating maps exist exactly for cographs", 60.0):
        p4 = Graph(4, [(0, 1), (1, 2), (2, 3)])
        stats: dict = {}
        assert search_separating_delta(p4, stats=stats) is None
        assert stats["partitions_screened"] == 203
        assert stats["candidates"] == 25

        for n in range(0, 6):
            for g in all_graphs(n):
                found = search_separating_delta(g)
                is_cograph = (
                    g.n == 0 or not isinstance(recognize(g), P4Witness)
                )
                assert (found is not None) == is_cograph, g.edges
                if found is not None:
                    assert check_axioms(found) is None
                    edge_symbols = {found.value(u, v) for u, v in g.edges}
                    non_edge_symbols = {
                        found.value(u, v)
                        for u, v in combinations(range(g.n), 2)
                        if not g.has_edge(u, v)
                    }
                    assert not (edge_symbols & non_edge_symbols)


def test_05_proper_coloring_bound():
    with criterion(5, "coloring bound max degree plus one on 200 graphs", 30.0):
        rng = random.Random(1005)
        for _ in range(200):
            n = rng.randint(1, 50)
            g = random_graph(n, rng.uniform(0.1, 0.5), rng)
            d = vizing_partition(g)
            assert 1 <= d.k <= g.max_degree() + 1
            for cls in d.classes:
                seen = set()
                for u, v in cls:
                    assert u not in seen and v not in seen, "class is not a matching"
                    seen.update((u, v))
            assert validate(d) is None
        # the bound is tight: an odd cycle needs max degree + 1 classes
        assert vizing_partition(cycle_graph(5)).k == 3


def test_06_literal_gadgets_unique_two_cover():
    with criterion(6, "exhaustive two-cover search on the literal gadgets", 600.0):
        lit = literal_graph().graph
        canonical = literal_partition()

        def masks(d: Decomposition) -> tuple[int, ...]:
            return tuple(
                (1 if e in d.classes[0] else 0) | (2 if e in d.classes[1] else 0)
                for e in d.host.edges
            )

        expected = {
            masks(canonical),
            masks(Decomposition(lit, (canonical.classes[1], canonical.classes[0]), PARTITION)),
        }

        # full 3^12 space, checked without pruning as the independent baseline
        unpruned = enumerate_two_class_assignments(lit, COVER, prune=False)
        assert unpruned.completed
        assert set(unpruned.solutions) == expected
        # every node of the tree is tried, 3^d of them at depth d, and the two
        # canonical splits are the only solutions
        assert unpruned.nodes == sum(3**d for d in range(1, 13)) == 797_160
        assert sorted(unpruned.solutions) == sorted(expected)

        pruned = enumerate_two_class_assignments(lit, COVER)
        assert pruned.completed
        assert sorted(pruned.solutions) == sorted(unpruned.solutions)

        # extended gadget: 3^15 space with sound chord-aware pruning
        ext = extended_literal_graph().graph
        ext_canonical = extended_literal_partition()
        ext_expected = {
            tuple(
                (1 if e in ext_canonical.classes[0] else 0)
                | (2 if e in ext_canonical.classes[1] else 0)
                for e in ext.edges
            ),
            tuple(
                (1 if e in ext_canonical.classes[1] else 0)
                | (2 if e in ext_canonical.classes[0] else 0)
                for e in ext.edges
            ),
        }
        ext_out = enumerate_two_class_assignments(ext, COVER)
        assert ext_out.completed
        assert set(ext_out.solutions) == ext_expected

        # both gadgets admit exactly the one split and its class swap, and
        # those are partitions: no overlapping cover exists
        for out in (unpruned, ext_out):
            assert len(out.solutions) == 2
            for solution in out.solutions:
                assert all(mask in (1, 2) for mask in solution)


def test_07_clause_gadget_patterns_and_infeasibility():
    with criterion(7, "clause gadget satisfiable patterns and forced failure", 600.0):
        f = NaeFormula(3, ((0, 1, 2),))
        patterns = [
            values
            for values in product((False, True), repeat=3)
            if eval_nae(f, values)
        ]
        assert len(patterns) == 6
        for values in patterns:
            d = partition_from_assignment(f, values)
            assert validate(d) is None

        # forcing all three literal triangles into one class leaves no
        # valid completion; the proof must finish inside the node budget
        from cographkit import clause_gadget

        g = clause_gadget().graph
        forced = {}
        for j in range(3):
            for u, v in [(0, 1), (1, 2), (0, 2)]:
                forced[(u + 9 * j, v + 9 * j)] = 1
        out = enumerate_two_class_assignments(
            g, COVER, forced=forced, node_budget=CLAUSE_GADGET_NODE_BUDGET
        )
        assert out.completed, "node budget must cover the full refutation"
        assert out.solutions == []
        assert out.nodes == 441


def test_08_reduction_round_trip():
    with criterion(8, "assignment to partition and back", 60.0):
        fig = NaeFormula(6, ((0, 3, 1), (1, 2, 3), (3, 4, 5)))
        formulas = [fig]
        rng = random.Random(1008)
        for _ in range(20):
            num_vars = rng.randint(4, 7)
            clauses = tuple(tuple(rng.sample(range(num_vars), 3)) for _ in range(3))
            formulas.append(NaeFormula(num_vars, clauses))
        for f in formulas:
            satisfiable = 0
            for bits in range(1 << f.num_vars):
                values = tuple(bool(bits >> i & 1) for i in range(f.num_vars))
                if not eval_nae(f, values):
                    continue
                satisfiable += 1
                d = partition_from_assignment(f, values)
                assert validate(d) is None
                back = assignment_from_partition(f, d)
                assert eval_nae(f, back)
                assert back == values
            assert satisfiable > 0


def test_09_hypercube_layer_partitions():
    with criterion(9, "square-layer partitions of the even cubes", 30.0):
        for n in (1, 2, 3):
            d = layers_partition(n)
            assert d.k == n
            assert validate(d) is None
            assert is_coarsest(d)
            for cls in d.classes:
                # every vertex lies on exactly one square of each class
                comps = connected_components(Graph(d.host.n, cls))
                assert len(comps) == d.host.n // 4
                for comp in comps:
                    assert len(comp) == 4
                    inside = [e for e in cls if e[0] in comp and e[1] in comp]
                    assert len(inside) == 4
                    degree = {}
                    for u, v in inside:
                        degree[u] = degree.get(u, 0) + 1
                        degree[v] = degree.get(v, 0) + 1
                    assert all(count == 2 for count in degree.values())
        # the 4-cube itself is not a cograph: one class is never enough
        assert isinstance(recognize(hypercube(4)), P4Witness)


def test_10_clique_with_pendant_path_family():
    with criterion(10, "clique plus pendant path splits off one edge", 5.0):
        for k in range(3, 9):
            g = clique_with_pendant_path(k)
            assert isinstance(recognize(g), P4Witness)
            bridge = (k - 1, k)
            d = Decomposition(
                g,
                (frozenset(e for e in g.edges if e != bridge), frozenset([bridge])),
                PARTITION,
            )
            assert validate(d) is None
