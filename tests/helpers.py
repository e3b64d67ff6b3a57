"""Shared graph builders and enumeration helpers for the test suite."""

from __future__ import annotations

import contextlib
import functools
import importlib.util
import io
import os
import shutil
import subprocess
import sys
from dataclasses import dataclass
from itertools import combinations
from typing import Iterator

import cographkit
from cographkit import PARTITION, Cotree, Decomposition, Graph, P4Witness, ValidationFault, recognize, validate
from cographkit.decomp import (
    INFEASIBLE,
    SOLVED,
    TIMEOUT,
    SearchOutcome,
    SolveResult,
    _adjacency,
    _breaks_symmetry,
    _class_witness,
    _Constraint,
    _masks_to_decomposition,
    _search_index,
    _SearchIndex,
    search_assignments,
)
from cographkit.gadgets import GadgetGraph, NaeFormula, eval_nae
from cographkit.graph import _bits, _excerpt, _is_int, _read_rows
from cographkit.symbolic import (
    NotUltrametricError,
    SymbolicMap,
    _first_u2,
    _first_u3,
    _pair_index,
    bell_number,
    check_axioms,
)


def path_graph(n: int) -> Graph:
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def complete_graph(n: int) -> Graph:
    return Graph(n, list(combinations(range(n), 2)))


def all_graphs(n: int) -> Iterator[Graph]:
    """Every labeled graph on n vertices, by edge-subset bitmask order."""
    pairs = list(combinations(range(n), 2))
    for bits in range(1 << len(pairs)):
        yield Graph(n, [pairs[i] for i in range(len(pairs)) if bits >> i & 1])


def clique_with_pendant_path(k: int) -> Graph:
    """Complete graph on 0..k-1 plus the pendant path (k-1)-k-(k+1)."""
    edges = list(combinations(range(k), 2)) + [(k - 1, k), (k, k + 1)]
    return Graph(k + 2, edges)


def alternating_threshold(order: list[int]) -> tuple[Graph, Cotree]:
    """Threshold graph in which ``order[i]`` joins every earlier vertex for
    odd i and none for even i, with its canonical cotree (depth n - 1)."""
    edges = [(order[j], order[i]) for i in range(1, len(order), 2) for j in range(i)]
    tree, low = order[0], order[0]
    for i, v in enumerate(order[1:], start=1):
        tree = (i % 2, [tree, v] if low < v else [v, tree])
        low = min(low, v)
    return Graph(len(order), edges), Cotree(tree)


def two_vertex_rest_tree(rng, num_symbols: int, depth: int) -> Cotree:
    """Random canonical tree, labels drawn from ``num_symbols`` (at least 2)
    symbols, whose leaves are numbered in preorder, so each node's children
    come in the order they were drawn.  Every inner node ends in two leaves
    after one or two other children, or in a child over two leaves: the
    split's last rest at that node is then two vertices, two components of
    its splitter or one."""
    ids = iter(range(1 << 30))

    def other(lab):
        return rng.choice([m for m in range(num_symbols) if m != lab])

    def build(parent_label, depth: int):
        lab = other(parent_label)
        kids = [build(lab, depth - 1) if depth and rng.random() < 0.6 else next(ids) for _ in range(rng.randint(1, 2))]
        if rng.random() < 0.5:
            kids += [next(ids), next(ids)]
        else:
            kids.append((other(lab), [next(ids), next(ids)]))
        return (lab, kids)

    return Cotree(build(None, depth))


def caterpillar_newick(n: int) -> str:
    """Newick of the alternating caterpillar on leaves 0..n-1 (depth n - 1):
    leaf y joins the tree of the leaves below it under label y % 2."""
    text = "0"
    for y in range(1, n):
        text = f"({text},{y}){y % 2}"
    return text + ";"


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr).
    ``stdin`` reaches the CLI as UTF-8 bytes under a text stream, as a
    child's standard input does."""
    from cographkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.TextIOWrapper(io.BytesIO(stdin.encode()), encoding="utf-8")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# CLI children: each imports the cographkit that this process imported
# ---------------------------------------------------------------------------


def child_env() -> dict[str, str]:
    """This process's environment for a child Python: ``PYTHONPATH`` is the
    parent directory of the imported cographkit, and ``PYTHONUNBUFFERED``
    is dropped, so the child's stdout is block-buffered as by default."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(cographkit.__file__))
    return env


def imported_package(argv: list[str]) -> str | None:
    """The ``cographkit/__init__.py`` that the Python child ``argv`` imports
    under ``child_env()``, read from the import log that ``PYTHONVERBOSE``
    writes on stderr; None when the child cannot start or imports none."""
    try:
        proc = subprocess.run(argv, env=dict(child_env(), PYTHONVERBOSE="1"), stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=120)
    except (OSError, subprocess.TimeoutExpired):
        return None
    for line in proc.stderr.splitlines():
        # "# code object from '<pyc>'" for a cached module, "... from <source>" for one compiled now
        if line.startswith("# code object from "):
            path = line.removeprefix("# code object from ").strip("'")
            with contextlib.suppress(ValueError):  # a .pyc outside __pycache__ has no source
                path = importlib.util.source_from_cache(path) if path.endswith(".pyc") else path
                if path.endswith(os.path.join(os.sep + "cographkit", "__init__.py")):
                    return path
    return None


@functools.cache
def cli_command() -> tuple[str, ...]:
    """The argv prefix of a ``cographkit`` child: the console script on
    ``PATH`` when it imports the very cographkit this process imported
    (an installed package and its script), else ``python -m
    cographkit.cli``, so a stale script is never run in its place."""
    script = shutil.which("cographkit")
    if script is not None and imported_package([script, "--help"]) == cographkit.__file__:
        return (script,)
    return (sys.executable, "-m", "cographkit.cli")


# ---------------------------------------------------------------------------
# reference implementations: the sorted-fan Vizing colouring and the
# Graph-building union scan, kept verbatim as oracles for the bitset code
# in cographkit.decomp
# ---------------------------------------------------------------------------


Edge = tuple[int, int]


def _canon_edge(e):
    u, v = e
    return (u, v) if u < v else (v, u)


def _is_cograph(n: int, edges) -> bool:
    if n == 0:
        return True
    return not isinstance(recognize(Graph(n, edges)), P4Witness)


def reference_vizing_partition(g: Graph, counts: dict | None = None):
    """Lowest colour free at both ends, else a Misra-Gries step with a
    sorted scan per fan step; returns the same ``Decomposition`` as
    ``vizing_partition``.  ``counts``, when given, gains the number of
    edges that took the fan (``"fan"``) and of Kempe swaps (``"swaps"``)."""
    if counts is not None:
        counts.setdefault("fan", 0)
        counts.setdefault("swaps", 0)
    if not g.edges:
        return Decomposition(g, (frozenset(),), PARTITION)
    palette = g.max_degree() + 1
    color = {}
    at = [dict() for _ in range(g.n)]

    def free_color(v: int) -> int:
        for c in range(1, palette + 1):
            if c not in at[v]:
                return c
        raise AssertionError("palette exhausted")

    def assign(u: int, v: int, c: int) -> None:
        e = _canon_edge((u, v))
        old = color.get(e)
        if old is not None:
            del at[u][old]
            del at[v][old]
        color[e] = c
        at[u][c] = v
        at[v][c] = u

    def unassign(u: int, v: int) -> None:
        c = color.pop(_canon_edge((u, v)))
        del at[u][c]
        del at[v][c]

    for u, v in g.edges:
        common = [c for c in range(1, palette + 1) if c not in at[u] and c not in at[v]]
        if common:
            assign(u, v, common[0])
            continue
        if counts is not None:
            counts["fan"] += 1
        # maximal fan of u starting at v: each next fan edge's color is
        # free at the previous fan vertex
        fan = [v]
        in_fan = {v}
        while True:
            last = fan[-1]
            nxt = None
            for c in sorted(at[u]):
                w = at[u][c]
                if w not in in_fan and c not in at[last]:
                    nxt = w
                    break
            if nxt is None:
                break
            fan.append(nxt)
            in_fan.add(nxt)
        c = free_color(u)
        d = free_color(fan[-1])
        if d != c and d in at[u]:
            if counts is not None:
                counts["swaps"] += 1
            # invert the maximal alternating d/c path starting at u
            path = []
            x, col = u, d
            while col in at[x]:
                y = at[x][col]
                path.append((x, y, col))
                x, col = y, (c if col == d else d)
            for x, y, _ in path:
                unassign(x, y)
            for x, y, col in path:
                assign(x, y, c if col == d else d)
            assert d not in at[u]
        # first fan vertex with d free, over a prefix that is still a fan
        j = None
        for i, w in enumerate(fan):
            if i > 0 and color[_canon_edge((u, fan[i]))] in at[fan[i - 1]]:
                break
            if d not in at[w]:
                j = i
                break
        assert j is not None, "fan rotation target must exist"
        shifted = [color[_canon_edge((u, fan[i]))] for i in range(1, j + 1)]
        for i in range(1, j + 1):
            unassign(u, fan[i])
        for i in range(j):
            assign(u, fan[i], shifted[i])
        assign(u, fan[j], d)

    used = sorted(set(color.values()))
    classes = tuple(
        frozenset(e for e, c in color.items() if c == want) for want in used
    )
    return Decomposition(g, classes, PARTITION)


def reference_validate(d: Decomposition) -> ValidationFault | None:
    """``validate`` with its pairwise overlap scan: every pair of classes
    is intersected, also when no two of them overlap."""
    host_edges = d.host.edge_set
    for idx, cls in enumerate(d.classes):
        if foreign := cls - host_edges:
            return ValidationFault(
                kind="foreign-edge",
                class_index=idx,
                detail=f"class {idx} contains non-host edge {min(foreign)}",
            )
    covered = set()
    for cls in d.classes:
        covered.update(cls)
    missing = sorted(host_edges - covered)
    if missing:
        return ValidationFault(kind="coverage", detail=f"host edges not covered: {missing}")
    if d.mode == PARTITION:
        for i, j in combinations(range(len(d.classes)), 2):
            shared = sorted(d.classes[i] & d.classes[j])
            if shared:
                return ValidationFault(
                    kind="overlap",
                    class_index=i,
                    detail=f"classes {i} and {j} share edges {shared}",
                )
    for idx, cls in enumerate(d.classes):
        witness = _class_witness(_adjacency(cls))
        if witness is not None:
            return ValidationFault(kind="class-not-cograph", class_index=idx, witness=witness)
    return None


def reference_first_cograph_union(n: int, classes):
    """First subset of two or more classes whose union is induced-path
    free, smallest subsets first and lexicographic within a size, with
    that union; None when there is none.  Walks up to all 2^k subsets."""
    for size in range(2, len(classes) + 1):
        for subset in combinations(range(len(classes)), size):
            union = frozenset().union(*(classes[i] for i in subset))
            if _is_cograph(n, union):
                return subset, union
    return None


def reference_coarsen(d):
    """``coarsen`` on top of ``reference_first_cograph_union``."""
    fault = validate(d)
    if fault is not None:
        raise ValueError(f"cannot coarsen an invalid decomposition: {fault}")
    classes = list(d.classes)
    while len(classes) > 1:
        merged = reference_first_cograph_union(d.host.n, classes)
        if merged is None:
            break
        subset, union = merged
        keep = [cls for i, cls in enumerate(classes) if i not in subset]
        keep.insert(subset[0], union)
        classes = keep
    return Decomposition(d.host, tuple(classes), d.mode)


# ---------------------------------------------------------------------------
# reference implementations: the recursive split shared by recognition and
# coarsening, the per-node split of build_representation and the two-pass
# newick writer, kept verbatim as oracles for cotree._split and
# cotree.to_newick
# ---------------------------------------------------------------------------


def reference_component_masks(adj: tuple[int, ...] | list[int], subset: int, in_complement: bool) -> list[int]:
    """Connected components of the subgraph induced on ``subset``, as bitmasks.

    With ``in_complement`` the complement adjacency (within the subset)
    is used instead.  Components come out ordered by lowest vertex.
    """
    comps = []
    rest = subset
    while rest:
        comp = rest & -rest
        frontier = comp
        while frontier:
            grow = 0
            for v in _bits(frontier):
                nb = ~adj[v] & ~(1 << v) if in_complement else adj[v]
                grow |= nb & subset
            frontier = grow & ~comp
            comp |= frontier
        comps.append(comp)
        rest &= ~comp
    return comps


class _Prime(Exception):
    """Raised by ``reference_split`` on a part of two or more vertices that
    neither the graph nor its complement disconnects."""

    def __init__(self, mask: int) -> None:
        self.mask = mask


def reference_split(adj, mask: int):
    """Nested cotree of the subgraph induced on ``mask``.

    ``adj[v]`` is the adjacency bitmask of each vertex v in ``mask`` (a
    list, a tuple or a dict).  A disconnected part becomes a 0-node over
    its components, a part with disconnected complement a 1-node over its
    co-components; a part that is neither raises ``_Prime``, since such a
    part contains an induced P4.  An empty mask raises nothing.
    """
    if mask & (mask - 1) == 0:
        return mask.bit_length() - 1
    comps = reference_component_masks(adj, mask, in_complement=False)
    if len(comps) > 1:
        return (0, [reference_split(adj, c) for c in comps])
    cocomps = reference_component_masks(adj, mask, in_complement=True)
    if len(cocomps) > 1:
        return (1, [reference_split(adj, c) for c in cocomps])
    raise _Prime(mask)


def reference_to_newick(t: Cotree) -> str:
    """Newick of ``t`` by joining each node's children's strings, children
    before parents: preorder ids read backwards (the original two-pass
    serializer, kept as the oracle for ``cotree.to_newick``)."""
    text: dict[int, str] = {}
    for idx in range(t.num_nodes - 1, -1, -1):
        if t.leaf_vertex[idx] is not None:
            text[idx] = str(t.leaf_vertex[idx])
        else:
            inner = ",".join([text.pop(c) for c in t.children[idx]])
            text[idx] = f"({inner}){t.label[idx]}"
    return text[0] + ";"


def reference_build_representation(d):
    """Labeled tree whose lca labels reproduce the map on every pair.

    At each step the smallest symbol m whose complement graph (pairs
    with any other symbol) is disconnected becomes the root label, and
    the connected components become the children.  A non-representable
    map is rejected with the violation attached.
    """
    if d.n < 1:
        raise ValueError("representation needs at least one vertex")
    violation = check_axioms(d)
    if violation is not None:
        raise NotUltrametricError(violation)
    n = d.n
    symbols = d.pair_symbols

    def split(vertices: tuple[int, ...]):
        if len(vertices) == 1:
            return vertices[0]
        local = {v: i for i, v in enumerate(vertices)}
        for m in range(d.num_symbols):
            adj = [0] * len(vertices)
            for ai, u in enumerate(vertices):
                for v in vertices[ai + 1 :]:
                    if symbols[_pair_index(n, u, v)] != m:
                        adj[ai] |= 1 << local[v]
                        adj[local[v]] |= 1 << ai
            comps = reference_component_masks(adj, (1 << len(vertices)) - 1, False)
            if len(comps) > 1:
                children = [
                    split(tuple(vertices[i] for i in _bits(comp))) for comp in comps
                ]
                return (m, children)
        raise AssertionError("no splitting symbol found for a representable map")

    return Cotree(split(tuple(range(n))))


# ---------------------------------------------------------------------------
# reference implementation: the constraint builder of edge tuples, kept
# verbatim (renamed) as the oracle for the edge-id p4_constraints in
# cographkit.decomp
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class P4Constraint:
    """One length-3 path of the host with its host-present chords.

    A class violates the constraint exactly when it contains all three
    path edges and none of the chords; a class containing a chord keeps
    the path from being induced there.
    """

    path_edges: tuple[Edge, Edge, Edge]
    chord_edges: tuple[Edge, ...]


def reference_p4_constraints(g: Graph, limit: int | None = None) -> list[P4Constraint]:
    """One constraint per length-3 path (as a subgraph) of g.

    Paths are canonical a-b-c-d with a < d; chords record which of
    ac, bd, ad exist in the host (possibly none).  With ``limit`` the
    scan stops as soon as it holds limit + 1 constraints, so a longer
    result than ``limit`` is a truncated prefix that only shows the
    count is over it.
    """
    out = []
    for b, c in g.edges:
        for bb, cc in ((b, c), (c, b)):
            for a in g.neighbors(bb):
                if a == cc:
                    continue
                for dd in g.neighbors(cc):
                    if dd == bb or dd <= a:
                        continue
                    chords = tuple(
                        _canon_edge(e)
                        for e in ((a, cc), (bb, dd), (a, dd))
                        if g.has_edge(*e)
                    )
                    out.append(
                        P4Constraint(
                            path_edges=(
                                _canon_edge((a, bb)),
                                _canon_edge((bb, cc)),
                                _canon_edge((cc, dd)),
                            ),
                            chord_edges=chords,
                        )
                    )
                    if limit is not None and len(out) > limit:
                        return out
    return out


# ---------------------------------------------------------------------------
# The canonicalising Graph constructor and the pairwise complement, kept
# verbatim as oracles for the one-pass build and the mask complement; the
# constructor also names an item that is not a pair, as Graph does
# ---------------------------------------------------------------------------


def reference_graph(n: int, edges) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """Canonical ``(edges, adj)`` of ``Graph(n, edges)``: the validated pairs
    as a set, sorted as tuples, then a second loop filling the masks."""
    if not _is_int(n) or n < 0:
        raise ValueError(f"vertex count must be a non-negative integer, got {n!r}")
    canon = set()
    for pair in edges:
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise ValueError(f"edge {pair!r} is not a pair of endpoints") from None
        if not (_is_int(u) and _is_int(v)):
            raise ValueError(f"edge {tuple(pair)!r} has a non-integer endpoint")
        if u == v:
            raise ValueError(f"self-loop {tuple(pair)!r} is not allowed")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge {tuple(pair)!r} has an endpoint outside 0..{n - 1}")
        canon.add((u, v) if u < v else (v, u))
    edges = tuple(sorted(canon))
    adj = [0] * n
    for u, v in edges:
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    return edges, tuple(adj)


def reference_complement_edges(g: Graph) -> list[Edge]:
    """Non-edges of ``g`` in lexicographic order, one mask shift per pair."""
    return [
        (u, v)
        for u in range(g.n)
        for v in range(u + 1, g.n)
        if not g._adj[u] >> v & 1
    ]


# ---------------------------------------------------------------------------
# The formula graph and its certificate, each laid out by its own loops,
# with the minority-literal rule for the clause triangle, kept verbatim as
# oracles for the one walk in cographkit.gadgets
# ---------------------------------------------------------------------------

_LITERAL_EDGES: tuple[Edge, ...] = (
    (0, 1),
    (1, 2),
    (0, 2),
    (0, 3),
    (3, 4),
    (1, 4),
    (1, 5),
    (5, 6),
    (2, 6),
    (2, 7),
    (7, 8),
    (0, 8),
)
_LITERAL_TRIANGLE_SIDE: tuple[Edge, ...] = ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (7, 8))
_LITERAL_SPOKE_SIDE: tuple[Edge, ...] = ((0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (0, 8))
_ATTACH_CORNERS = ((0, 2), (0, 1), (2, 1))


def _shift(edges, offset: int) -> list[Edge]:
    return [(u + offset, v + offset) for u, v in edges]


def reference_build_formula_graph(f: NaeFormula) -> GadgetGraph:
    """One literal gadget per variable, one triangle plus three fresh
    connectors per clause.

    Variable j occupies vertices 9j..9j+8.  Clause i occupies six
    vertices after the literal block: connectors 9_1, 9_2, 9_3, then
    triangle corners a, b, c.  Connector p hangs off vertex 6 of its
    literal gadget and attaches to two triangle corners following clause
    literal order.
    """
    edges: list[Edge] = []
    roles: dict[str, int] = {}
    for j in range(f.num_vars):
        base = 9 * j
        edges.extend(_shift(_LITERAL_EDGES, base))
        for t in range(9):
            roles[f"x{j}.v{t}"] = base + t
    clause_start = 9 * f.num_vars
    for i, clause in enumerate(f.clauses):
        base = clause_start + 6 * i
        corners = (base + 3, base + 4, base + 5)
        roles[f"C{i}.a"], roles[f"C{i}.b"], roles[f"C{i}.c"] = corners
        for p, var in enumerate(clause):
            connector = base + p
            roles[f"C{i}.9_{p + 1}"] = connector
            edges.append((9 * var + 6, connector))
            for corner in _ATTACH_CORNERS[p]:
                edges.append((connector, corners[corner]))
        edges.extend(
            [(corners[0], corners[1]), (corners[1], corners[2]), (corners[0], corners[2])]
        )
    n = clause_start + 6 * len(f.clauses)
    return GadgetGraph(Graph(n, edges), roles)


def reference_partition_from_assignment(f: NaeFormula, values) -> Decomposition:
    """Two-partition of the formula graph encoding a satisfying assignment.

    True variables put their triangle (and the edges tied to it) in
    class 0, false variables in class 1.  Within each clause the
    minority literal's triangle edge (the one joining its two attachment
    corners) goes opposite to that literal's class and the other two
    clause edges go with it.  The result is re-validated before return,
    so a construction bug raises instead of leaking a bad certificate.
    """
    if not eval_nae(f, values):
        raise ValueError("assignment does not satisfy the not-all-equal condition")
    gadget = reference_build_formula_graph(f)
    cls: tuple[set[Edge], set[Edge]] = (set(), set())
    for j in range(f.num_vars):
        side = 0 if values[j] else 1
        cls[side].update(_shift(_LITERAL_TRIANGLE_SIDE, 9 * j))
        cls[1 - side].update(_shift(_LITERAL_SPOKE_SIDE, 9 * j))
    clause_start = 9 * f.num_vars
    for i, clause in enumerate(f.clauses):
        base = clause_start + 6 * i
        corners = (base + 3, base + 4, base + 5)
        for p, var in enumerate(clause):
            side = 0 if values[var] else 1
            connector = base + p
            cls[side].add((9 * var + 6, connector))
            for corner in _ATTACH_CORNERS[p]:
                cls[1 - side].add((connector, corners[corner]))
        truths = [bool(values[var]) for var in clause]
        minority = truths.index(True) if truths.count(True) == 1 else truths.index(False)
        minority_side = 0 if truths[minority] else 1
        joint = tuple(sorted(corners[c] for c in _ATTACH_CORNERS[minority]))
        triangle = [
            (corners[0], corners[1]),
            (corners[1], corners[2]),
            (corners[0], corners[2]),
        ]
        for e in triangle:
            if e == joint:
                cls[1 - minority_side].add(e)
            else:
                cls[minority_side].add(e)
    d = Decomposition(gadget.graph, (frozenset(cls[0]), frozenset(cls[1])), PARTITION)
    fault = validate(d)
    if fault is not None:
        raise RuntimeError(f"internal construction fault: {fault}")
    return d


# ---------------------------------------------------------------------------
# reference implementation: the propagating engine with its two deduction
# cases (three path edges assigned, or two), kept verbatim (renamed) as the
# oracle for the one-open-member rule of cographkit.decomp._propagating_search
# ---------------------------------------------------------------------------


def reference_propagating_search(
    order: list[int],
    constraints: list[_Constraint],
    k: int,
    mode: str,
    forced_mask: list[int],
    find_all: bool,
    symmetry: bool,
    node_budget: int | None,
) -> SearchOutcome:
    """The ``prune=True`` engine of ``search_assignments``, on an explicit
    stack so that the depth of the search is not bounded by recursion.
    Candidate i is made on demand: the mask 1 << i in partition mode, i + 1
    in cover mode."""
    m = len(order)
    full = (1 << k) - 1
    partition = mode == PARTITION
    size = k if partition else full
    cons_of: list[list[_Constraint]] = [[] for _ in range(m)]
    for con in constraints:
        p1, p2, p3, chords = con
        for e in (p1, p2, p3, *chords):
            cons_of[e].append(con)
    assign = [0] * m
    banned = [0] * m  # classes an unassigned edge may not contain
    required = [0] * m  # classes an unassigned edge must contain
    trail: list[tuple[int, int, int]] = []  # (edge, banned, required) before a change
    queue: list[int] = []  # assigned edges whose constraints are still to examine

    def undo(mark: int) -> None:
        while len(trail) > mark:
            e, b, r = trail.pop()
            assign[e] = 0
            banned[e] = b
            required[e] = r

    def restrict(e: int, ban: int, req: int) -> bool:
        """Narrow an unassigned edge's domain; False when it empties."""
        b = banned[e] | ban
        r = required[e] | req
        if b == banned[e] and r == required[e]:
            return True
        trail.append((e, banned[e], required[e]))
        banned[e] = b
        required[e] = r
        allowed = full & ~b
        if r & b or not allowed:
            return False
        if partition and r:
            if r & (r - 1):
                return False
            allowed = r
        elif allowed & (allowed - 1) and allowed != r:
            return True
        assign[e] = allowed
        queue.append(e)
        return True

    def propagate() -> bool:
        while queue:
            for p1, p2, p3, chords in cons_of[queue.pop()]:
                a1 = assign[p1]
                a2 = assign[p2]
                a3 = assign[p3]
                if a1 and a2 and a3:
                    bad = a1 & a2 & a3
                    if not bad:
                        continue
                    open_chords = 0
                    for ch in chords:
                        a = assign[ch]
                        if a:
                            bad &= ~a
                        else:
                            open_chords += 1
                            last = ch
                    if not bad or open_chords > 1:
                        continue
                    if open_chords == 0 or not restrict(last, 0, bad):
                        queue.clear()
                        return False
                    continue
                if a1 and a2:
                    bad, third = a1 & a2, p3
                elif a1 and a3:
                    bad, third = a1 & a3, p2
                elif a2 and a3:
                    bad, third = a2 & a3, p1
                else:
                    continue
                for ch in chords:
                    a = assign[ch]
                    if not a:
                        break  # an open chord may still break the path
                    bad &= ~a
                else:
                    if bad and not restrict(third, bad, 0):
                        queue.clear()
                        return False
        return True

    for e, mask in enumerate(forced_mask):
        if mask:
            restrict(e, full & ~mask, mask)  # a valid mask is a one-mask domain
    if not propagate():
        return SearchOutcome(solutions=[], nodes=0, completed=True)

    solutions: list[tuple[int, ...]] = []
    nodes = 0
    stack: list[list[int]] = []  # open positions: [pos, used, trail mark, next candidate]
    pos = used = 0
    while True:
        # walk over implied edges up to the next open position or a dead end
        while pos < m:
            mask = assign[order[pos]]
            if not mask or (symmetry and _breaks_symmetry(mask, used)):
                break
            used |= mask
            pos += 1
        if pos == m:
            solutions.append(tuple(assign))
            if not find_all:
                break
        elif not assign[order[pos]]:
            stack.append([pos, used, len(trail), 0])
        # next candidate of the innermost open position, backtracking as needed
        while stack:
            frame = stack[-1]
            fpos, fused, mark, i = frame
            undo(mark)
            e = order[fpos]
            b = banned[e]
            r = required[e]
            while i < size:
                mask = 1 << i if partition else i + 1
                i += 1
                if mask & b or mask & r != r or (symmetry and _breaks_symmetry(mask, fused)):
                    continue
                if node_budget is not None and nodes >= node_budget:
                    return SearchOutcome(solutions=solutions, nodes=nodes, completed=False)
                nodes += 1
                trail.append((e, b, r))
                assign[e] = mask
                queue.append(e)
                if propagate():
                    break
                undo(mark)
            else:
                stack.pop()
                continue
            frame[3] = i
            pos, used = fpos + 1, fused | mask
            break
        else:
            break
    return SearchOutcome(solutions=solutions, nodes=nodes, completed=True)


# ---------------------------------------------------------------------------
# reference implementation: the unpruned engine that rescans every constraint
# at each leaf, kept verbatim (renamed, and taking the arguments that
# search_assignments hands its engines) as the oracle for the one-settling
# cographkit.decomp._unpruned_search
# ---------------------------------------------------------------------------


def reference_unpruned_search(
    index: _SearchIndex,
    k: int,
    mode: str,
    forced_mask: list[int],
    find_all: bool,
    symmetry: bool,
    node_budget: int | None,
) -> SearchOutcome:
    order = index.order
    constraints = index.constraints
    m = len(order)
    # an explicit loop over positions, so that the depth of the search is not
    # bounded by recursion; candidate i is made on demand, as in
    # _propagating_search: cover mode has 2^k - 1 of them
    partition = mode == PARTITION
    size = k if partition else (1 << k) - 1
    assign = [0] * m
    used = [0] * m  # classes taken by the edges before each position
    tried = [0] * m  # candidates tried at each position above the current one
    solutions: list[tuple[int, ...]] = []
    nodes = 0

    def full_check() -> bool:
        for p1, p2, p3, chords in constraints:
            common = assign[p1] & assign[p2] & assign[p3]
            if common:
                saved = 0
                for ch in chords:
                    saved |= assign[ch]
                if common & ~saved:
                    return False
        return True

    pos = i = 0
    while True:
        e = order[pos]
        forced_e = forced_mask[e]
        while i < (1 if forced_e else size):
            mask = forced_e or (1 << i if partition else i + 1)
            i += 1
            if symmetry and _breaks_symmetry(mask, used[pos]):
                continue
            if node_budget is not None and nodes >= node_budget:
                return SearchOutcome(solutions=solutions, nodes=nodes, completed=False)
            nodes += 1
            assign[e] = mask
            if pos < m - 1:
                break
            # the last position checks each complete assignment in place
            if full_check():
                solutions.append(tuple(assign))
                if not find_all:
                    return SearchOutcome(solutions=solutions, nodes=nodes, completed=True)
        else:
            if pos == 0:
                return SearchOutcome(solutions=solutions, nodes=nodes, completed=True)
            pos -= 1
            i = tried[pos]
            continue
        tried[pos] = i
        pos += 1
        used[pos] = used[pos - 1] | mask
        i = 0


# ---------------------------------------------------------------------------
# reference implementation: the minimum-k solver that hands a fresh index of
# the host to the search of each k, and tests the budget on a constraint list
# built up to budget + 1; kept verbatim (renamed) but for two calls, which
# passed the plain constraint list and called p4_constraints with a limit it
# no longer has, as the oracle for the index that cographkit.decomp._exact_min
# prepares once per host and for the count it tests the budget against
# ---------------------------------------------------------------------------


def reference_exact_min(g: Graph, k_max: int, node_budget: int | None, mode: str) -> SolveResult:
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    if not g.edges:
        d = Decomposition(g, (frozenset(),), mode)
        return SolveResult(SOLVED, d, nodes=0, infeasible_below=0)
    constraints = reference_p4_constraints(g, node_budget)
    if node_budget is not None and len(constraints) > node_budget:
        return SolveResult(TIMEOUT, None, nodes=0, infeasible_below=0)
    per_k: list[int] = []

    def result(status: str, proven: int, d: Decomposition | None = None) -> SolveResult:
        return SolveResult(status, d, sum(per_k), proven, tuple(per_k))

    for k in range(1, k_max + 1):
        remaining = None if node_budget is None else node_budget - sum(per_k)
        if remaining is not None and remaining <= 0:
            return result(TIMEOUT, k - 1)
        out = search_assignments(g, k, mode, node_budget=remaining, constraints=_search_index(g, None))
        per_k.append(out.nodes)
        if out.solutions:
            return result(SOLVED, k - 1, _masks_to_decomposition(g, out.solutions[0], k, mode))
        if not out.completed:
            return result(TIMEOUT, k - 1)
    return result(INFEASIBLE, k_max)


# ---------------------------------------------------------------------------
# reference implementation: the restricted-growth successor machine behind
# set_partitions and the separating-map oracle that takes the product of one
# enumeration of the edge pairs and one of the non-edge pairs, kept verbatim
# (renamed) as the oracle for the one growth-string walk that
# cographkit.symbolic.set_partitions and search_separating_delta share
# ---------------------------------------------------------------------------


def reference_set_partitions(m: int) -> Iterator[list[tuple[int, ...]]]:
    """All set partitions of range(m) as block lists, in restricted-growth
    lexicographic order; blocks are ordered by first occurrence."""
    if m == 0:
        yield []
        return
    rgs = [0] * m
    maxes = [0] * m
    while True:
        blocks: list[list[int]] = [[] for _ in range(max(rgs) + 1)]
        for item, b in enumerate(rgs):
            blocks[b].append(item)
        yield [tuple(b) for b in blocks]
        pos = None
        for i in range(m - 1, 0, -1):
            if rgs[i] <= maxes[i - 1]:
                pos = i
                break
        if pos is None:
            return
        rgs[pos] += 1
        maxes[pos] = max(maxes[pos - 1], rgs[pos])
        for i in range(pos + 1, m):
            rgs[i] = 0
            maxes[i] = maxes[i - 1]


def reference_search_separating_delta(
    g: Graph,
    max_symbols: int | None = None,
    stats: dict | None = None,
) -> SymbolicMap | None:
    """Exhaustive oracle for maps separating edges from non-edges.

    Screens every set partition of the pair set: a partition with a
    block mixing an edge and a non-edge can never separate the two pair
    families, so the candidate stream enumerates partitions of the edge
    pairs and of the non-edge pairs independently (restricted-growth
    order on each side, edge side outermost).  Candidates within the
    symbol budget are checked against the representability axioms; the
    first passing map is returned, None if the whole space fails.

    ``stats``, when given, receives the size of the screened partition
    space and the number of candidates actually checked.
    """
    if g.n > 6:
        raise ValueError(f"exhaustive search is limited to 6 vertices, got {g.n}")
    pairs = list(combinations(range(g.n), 2))
    edge_positions = [i for i, (u, v) in enumerate(pairs) if g.has_edge(u, v)]
    non_positions = [i for i, (u, v) in enumerate(pairs) if not g.has_edge(u, v)]
    if stats is not None:
        stats["pairs"] = len(pairs)
        stats["partitions_screened"] = bell_number(len(pairs))
        stats["candidates"] = 0
    n = g.n
    symbols = [0] * len(pairs)
    for edge_blocks in reference_set_partitions(len(edge_positions)):
        edge_count = len(edge_blocks)
        if max_symbols is not None and edge_count > max_symbols:
            continue
        for b, block in enumerate(edge_blocks):
            for pos in block:
                symbols[edge_positions[pos]] = b
        for non_blocks in reference_set_partitions(len(non_positions)):
            k = edge_count + len(non_blocks)
            if max_symbols is not None and k > max_symbols:
                continue
            for b, block in enumerate(non_blocks):
                for pos in block:
                    symbols[non_positions[pos]] = edge_count + b
            if stats is not None:
                stats["candidates"] += 1
            if _first_u2(symbols, n) is None and _first_u3(symbols, n) is None:
                return SymbolicMap(n, max(k, 1), list(symbols))
    return None


# ---------------------------------------------------------------------------
# reference implementations: the graph- and decomposition-report builders
# that copied every edge, into a [u, v] list or an "u v" line, kept verbatim
# (renamed) as oracles for cographkit.cli.graph_to_json and
# decomp.decomposition_to_json, which put the edge tuples in the payload as
# they are, and for format_edge_list, which fills one template from the
# flattened edges
# ---------------------------------------------------------------------------


def reference_graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "m": len(g.edges), "edges": [[u, v] for u, v in g.edges]}


def reference_decomposition_to_json(d: Decomposition) -> dict:
    """JSON object {"mode", "k", "n", "classes"} with sorted edge lists."""
    return {
        "mode": d.mode,
        "k": d.k,
        "n": d.host.n,
        "classes": [[[u, v] for u, v in cls] for cls in d.sorted_classes()],
    }


def reference_format_edge_list(g: Graph) -> str:
    """Canonical edge-list text; parse_edge_list round-trips it byte for byte."""
    lines = [f"{g.n} {len(g.edges)}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# reference implementations: the map reader that kept every row's tokens and
# an n x n table, checked the row count first, then every token, then the
# structure, and the writer that made one range-checked value() call per
# cell, kept verbatim (renamed) as oracles for the one-pass row reader and
# the row-offset writer of cographkit.symbolic
# ---------------------------------------------------------------------------


def reference_parse_symbolic_map(text: str) -> SymbolicMap:
    """Read the ``n k`` / token-row map format.

    The diagonal must be ``-`` and symbols are tokens ``s0`` .. ``s(k-1)``;
    symmetry is validated, not assumed.
    """
    (n, k), body = _read_rows(text, "n k")
    rows = list(body)
    if len(rows) != n:
        raise ValueError(f"expected {n} matrix rows, found {len(rows)}")
    table: list[list[int | None]] = []
    for lineno, _, fields in rows:
        if len(fields) != n:
            raise ValueError(f"line {lineno}: expected {n} tokens, got {len(fields)}")
        row: list[int | None] = []
        for y, token in enumerate(fields):
            if token == "-":
                row.append(None)
            elif token.startswith("s") and token[1:].isascii() and token[1:].isdigit():
                s = int(token[1:])
                if s >= k:
                    raise ValueError(f"line {lineno}: symbol {token} outside s0..s{k - 1}")
                row.append(s)
            else:
                raise ValueError(f"line {lineno}: bad token {_excerpt(token)}")
        table.append(row)
    for x in range(n):
        if table[x][x] is not None:
            raise ValueError(f"diagonal entry ({x},{x}) must be '-'")
        for y in range(n):
            if x != y and table[x][y] is None:
                raise ValueError(f"off-diagonal entry ({x},{y}) must carry a symbol")
            if table[x][y] != table[y][x]:
                raise ValueError(f"entries ({x},{y}) and ({y},{x}) are not symmetric")
    return SymbolicMap(n, k, [table[u][v] for u, v in combinations(range(n), 2)])


def reference_format_symbolic_map(d: SymbolicMap) -> str:
    """Canonical map text; parse_symbolic_map round-trips it byte for byte."""
    lines = [f"{d.n} {d.num_symbols}"]
    for x in range(d.n):
        tokens = []
        for y in range(d.n):
            value = d.value(x, y)
            tokens.append("-" if value is None else f"s{value}")
        lines.append(" ".join(tokens))
    return "\n".join(lines) + "\n"
