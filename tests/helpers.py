"""Shared graph builders and enumeration helpers for the test suite."""

from __future__ import annotations

import contextlib
import io
import sys
from itertools import combinations
from typing import Iterator

from cographkit import PARTITION, Decomposition, Graph, P4Witness, recognize, validate


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


def run_cli(argv: list[str], stdin: str = "") -> tuple[int, str, str]:
    """Invoke the CLI in-process; returns (exit_code, stdout, stderr)."""
    from cographkit.cli import main

    out, err = io.StringIO(), io.StringIO()
    old_stdin = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = old_stdin
    return code, out.getvalue(), err.getvalue()


# ---------------------------------------------------------------------------
# reference implementations: the sorted-fan Vizing colouring and the
# Graph-building union scan, kept verbatim as oracles for the bitset code
# in cographkit.decomp
# ---------------------------------------------------------------------------


def _canon_edge(e):
    u, v = e
    return (u, v) if u < v else (v, u)


def _is_cograph(n: int, edges) -> bool:
    if n == 0:
        return True
    return not isinstance(recognize(Graph(n, edges)), P4Witness)


def reference_vizing_partition(g: Graph):
    """Misra-Gries colouring with a sorted scan per fan step; returns the
    same ``Decomposition`` as ``vizing_partition``."""
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
