"""Immutable undirected simple graphs with a bitset adjacency view.

Vertices are dense integers 0..n-1.  Edges are kept canonically as a
sorted tuple of (u, v) pairs with u < v; a per-vertex bitmask mirror of
the adjacency gives O(1) membership tests, which the induced-path
search below leans on heavily.  ``Graph`` validates the edges and ORs
them into the masks in one pass; a pair whose bit is already set is a
repeat, and a new pair is filed in the row of its lower endpoint.  The
rows are then sorted by upper endpoint and chained in vertex order, so no
key or dictionary is built: beyond the masks and the edge tuple, the
build holds two n-slot lists and O(m) row pointers.  A graph holds no
second container of its edges: ``edge_set`` is a fresh frozenset of
``edges`` on each read.
"""

from __future__ import annotations

import random
from itertools import chain
from operator import itemgetter
from typing import Iterable, Iterator, NamedTuple

__all__ = [
    "Graph",
    "P4Witness",
    "complement",
    "cartesian_product",
    "hypercube",
    "enumerate_induced_p4",
    "first_induced_p4",
    "connected_components",
    "random_graph",
    "parse_edge_list",
    "format_edge_list",
    "MAX_VERTICES",
]

MAX_VERTICES = 100_000
"""Largest vertex count the readers accept (edge lists, graph and
decomposition JSON, newick cotrees).  ``Graph`` allocates two n-slot
lists (the masks and the rows of pairs) for the declared vertex count, and
an adjacency mask is up to n bits wide, so the bitset work of recognition
grows with n^2 even on an edgeless graph."""


def _bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


class P4Witness(NamedTuple):
    """Four distinct vertices inducing the path a-b-c-d.

    The pattern requires edges ab, bc, cd and non-edges ac, bd, ad in
    the host graph; ``holds_in`` re-checks it by direct lookup.
    """

    a: int
    b: int
    c: int
    d: int

    def holds_in(self, g: "Graph") -> bool:
        """False unless a, b, c, d are four distinct vertices 0..n-1 of g
        inducing the path a-b-c-d there."""
        if not all(_is_int(v) and 0 <= v < g.n for v in self):
            return False
        a, b, c, d = self
        if len({a, b, c, d}) != 4:
            return False
        return (
            g.has_edge(a, b)
            and g.has_edge(b, c)
            and g.has_edge(c, d)
            and not g.has_edge(a, c)
            and not g.has_edge(b, d)
            and not g.has_edge(a, d)
        )


class Graph:
    """Undirected simple graph, immutable after construction.

    Edges are canonicalized (u < v, deduplicated, sorted).  Construction
    rejects an item that is not a pair, self-loops, out-of-range
    endpoints and a negative vertex count, naming the offending item.
    n = 0 and n = 1 are legal.

    One pass over ``edges`` checks each pair and ORs it into the adjacency
    masks.  A pair whose mask bit was already set is a repeat and is
    skipped, so the first of equal pairs is kept; a new pair goes into the
    row of its lower endpoint.  Sorting each row by upper endpoint and
    chaining the rows in vertex order gives ``edges`` in lexicographic
    order.  ``edge_set`` builds a fresh frozenset of ``edges`` on each
    read; no second container of the edges is held.
    """

    __slots__ = ("n", "edges", "_adj")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]] = ()) -> None:
        if not _is_int(n) or n < 0:
            raise ValueError(f"vertex count must be a non-negative integer, got {_excerpt(n)}")
        try:
            adj = [0] * n
            rows = [None] * n
        except (MemoryError, OverflowError):
            # an invalid pair is named even when n is too large to allocate
            for pair in edges:
                _reject(pair, n)
            raise
        for pair in edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise _not_a_pair(pair) from None
            if not (type(u) is int and type(v) is int or _is_int(u) and _is_int(v)):
                _reject(pair, n)
            if u < v:
                # a canonical input tuple is kept as is, not copied
                edge = pair if type(pair) is tuple else (u, v)
            elif u > v:
                u, v = v, u
                edge = (u, v)
            else:
                _reject(pair, n)
            if u < 0 or v >= n:
                _reject(pair, n)
            mask = adj[u]
            new = mask | 1 << v
            if new != mask:
                # the bit was clear, so the pair is new: a repeat is skipped
                adj[u] = new
                adj[v] |= 1 << u
                # a row is None, its one pair, or a list of two or more:
                # most rows of a sparse graph never allocate a list
                row = rows[u]
                if row is None:
                    rows[u] = edge
                elif type(row) is tuple:
                    rows[u] = [row, edge]
                else:
                    row.append(edge)
        self.n = n
        out = []
        for row in filter(None, rows):
            if type(row) is tuple:
                out.append(row)
            else:
                row.sort(key=itemgetter(1))
                out += row
        del rows  # freed before the tuple copies ``out``
        self.edges = tuple(out)
        self._adj = tuple(adj)

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def edge_set(self) -> frozenset[tuple[int, int]]:
        return frozenset(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        if not (0 <= u < self.n and 0 <= v < self.n):
            return False
        return bool(self._adj[u] >> v & 1)

    def neighbors(self, v: int) -> Iterator[int]:
        return _bits(self._adj[v])

    def degree(self, v: int) -> int:
        return self._adj[v].bit_count()

    def max_degree(self) -> int:
        """Largest vertex degree; 0 for graphs without edges."""
        if self.n == 0:
            return 0
        return max(a.bit_count() for a in self._adj)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self.n == other.n and self.edges == other.edges

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={len(self.edges)})"


def _excerpt(value) -> str:
    """``repr(value)``, cut to 60 characters plus ``...`` when longer, so an
    error message quotes a bounded part of its input.  An integer past
    Python's int-to-text limit, alone or in a tuple, is quoted by its leading
    digits and digit count, read through ``decimal``, which has no such limit."""
    try:
        text = repr(value)
    except ValueError:
        if not isinstance(value, (int, tuple)):
            raise
        if isinstance(value, int):
            from decimal import Decimal
            text = str(Decimal(value))
            return f"{text[:60]}... ({len(text.lstrip('-'))} digits)"
        text = f"({', '.join(map(_excerpt, value))})"
    return text if len(text) <= 60 else text[:60] + "..."


def _not_a_pair(item) -> ValueError:
    """The error for an item that does not unpack into two endpoints;
    Python's own unpacking errors name neither the item nor the rule."""
    return ValueError(f"edge {_excerpt(item)} is not a pair of endpoints")


def _reject(pair, n: int) -> None:
    """Raise the ``ValueError`` naming what is wrong with ``pair`` as an
    edge of a graph on n vertices; return if nothing is."""
    try:
        u, v = pair
    except (TypeError, ValueError):
        raise _not_a_pair(pair) from None
    if not (_is_int(u) and _is_int(v)):
        raise ValueError(f"edge {_excerpt(tuple(pair))} has a non-integer endpoint")
    if u == v:
        raise ValueError(f"self-loop {_excerpt(tuple(pair))} is not allowed")
    if min(u, v) < 0 or max(u, v) >= n:
        raise ValueError(f"edge {_excerpt(tuple(pair))} has an endpoint outside 0..{_excerpt(n - 1)}")


def complement(g: Graph) -> Graph:
    """Graph on the same vertices whose edges are exactly the non-edges of g.

    The row scan yields the pairs already canonical and sorted, and each
    mask is the row's complement without the vertex itself, so the result
    is assembled directly instead of re-validated by ``Graph``."""
    n = g.n
    full = (1 << n) - 1
    out = object.__new__(Graph)
    out.n = n
    out.edges = tuple([
        (u, v)
        for u, row in enumerate(g._adj)
        for v in _bits(full & ~row & -(2 << u))
    ])
    out._adj = tuple(full & ~row & ~(1 << u) for u, row in enumerate(g._adj))
    return out


def cartesian_product(g: Graph, h: Graph) -> Graph:
    """Cartesian product; vertex (a, b) is flattened row-major to a*|V(h)| + b.

    (a1, b1) and (a2, b2) are adjacent iff the pairs agree in one
    coordinate and are adjacent in the other.
    """
    hn = h.n
    edges = []
    for a in range(g.n):
        base = a * hn
        for u, v in h.edges:
            edges.append((base + u, base + v))
    for u, v in g.edges:
        for b in range(hn):
            edges.append((u * hn + b, v * hn + b))
    return Graph(g.n * hn, edges)


def hypercube(d: int) -> Graph:
    """The d-cube: 2**d bit-vector vertices, edges at Hamming distance 1."""
    if not _is_int(d) or d < 0:
        raise ValueError(f"hypercube dimension must be a non-negative integer, got {_excerpt(d)}")
    n = 1 << d
    edges = [(v, v | 1 << b) for v in range(n) for b in range(d) if not v >> b & 1]
    return Graph(n, edges)


def _induced_p4s(adj, part: int, start: int = 0) -> Iterator[P4Witness]:
    """Induced paths a-b-c-d of the subgraph induced on the bitmask ``part``,
    yielded lazily as canonical quadruples with a < d in lexicographic order;
    ``adj[v]`` is the adjacency bitmask of each v in ``part`` (list, tuple or dict).
    Only the paths with ``a >= start`` are scanned: from ``_p4_start(adj, part)``
    the first one yielded is the first of the whole part."""
    for a in _bits(part >> start << start):
        for b in _bits(adj[a] & part):
            # c adjacent to b, not adjacent or equal to a
            for c in _bits(adj[b] & part & ~adj[a] & ~(1 << a)):
                # d adjacent to c, independent of a and b, with a < d
                dmask = adj[c] & part & ~adj[b] & ~adj[a] & ~(1 << b)
                dmask &= -1 << (a + 1)
                for d in _bits(dmask):
                    yield P4Witness(a, b, c, d)


def _p4_start(adj, part: int) -> int | None:
    """Lowest vertex of ``part`` that ends an induced path a-b-c-d of the
    subgraph induced on ``part``, or None if that subgraph is a cograph;
    ``adj`` as for ``_induced_p4s``.

    A vertex a ends such a path exactly when some neighbour b of a in the
    part is adjacent to some, but not all, of a component K of the part
    minus N[a]: K, being connected, then holds an edge cd with c in N(b)
    and d not.  With OR and AND the union and intersection of the masks of
    K's members, b is such a neighbour when it lies in OR ^ AND (AND lies
    within OR).  The members reached so far lie in K, so the test is made
    after each frontier, and each start costs at most one component search
    of the part minus N[a].  The lowest such vertex is the a of the
    lexicographically first canonical path, whose other end lies above it."""
    for a in _bits(part):
        near = adj[a] & part
        left = part ^ near ^ 1 << a  # the part minus N[a], not yet searched
        while near and left:
            union, common = 0, -1
            frontier = left & -left
            while frontier:
                left ^= frontier
                while frontier:
                    v = frontier.bit_length() - 1
                    frontier ^= 1 << v
                    union |= adj[v]
                    common &= adj[v]
                if near & (union ^ common):
                    return a
                frontier = union & left
    return None


def enumerate_induced_p4(g: Graph) -> list[P4Witness]:
    """Brute-force induced-path oracle.

    Returns every canonical quadruple (a, b, c, d) with a < d such that
    ab, bc, cd are edges and ac, bd, ad are not, in lexicographic order
    (the order of the scan).  The list is empty exactly when g is a cograph.
    """
    return list(_induced_p4s(g._adj, (1 << g.n) - 1))


def first_induced_p4(g: Graph) -> P4Witness | None:
    """Lexicographically smallest induced-path witness, or None."""
    return next(_induced_p4s(g._adj, (1 << g.n) - 1), None)


def connected_components(g: Graph) -> list[tuple[int, ...]]:
    """Vertex sets of the connected components, each sorted, ordered by minimum."""
    comps = []
    rest = (1 << g.n) - 1
    while rest:
        comp = _first_component(g._adj, rest, False)
        comps.append(tuple(_bits(comp)))
        rest ^= comp
    return comps


def _first_component(adj, subset: int, in_complement: bool) -> int:
    """Bitmask of the component of the lowest vertex of ``subset`` in the
    subgraph induced on ``subset``, or in its complement with ``in_complement``;
    ``adj[v]`` is the adjacency bitmask of each v in ``subset`` (list, tuple or dict).

    The search carries ``left``, the vertices of ``subset`` not yet reached,
    so each round takes the new frontier from ``left`` and removes it with
    one XOR, and the component is ``subset ^ left`` at the end.  A vertex
    joins in the complement when some frontier vertex misses it, that is
    when it lies outside the AND of the frontier's masks, taken as
    ``left ^ (left & common)``: no negative integer ``~adj[v]`` or ``~comp``
    is built.  Each frontier is walked from its highest vertex, which is
    cleared by one XOR with no mask of the lowest bit built first; the
    union and the AND do not depend on the order."""
    frontier = subset & -subset
    left = subset ^ frontier
    while frontier:
        if in_complement:
            common = -1
            while frontier:
                v = frontier.bit_length() - 1
                common &= adj[v]
                frontier ^= 1 << v
            frontier = left ^ (left & common)
        else:
            grow = 0
            while frontier:
                v = frontier.bit_length() - 1
                grow |= adj[v]
                frontier ^= 1 << v
            frontier = grow & left
        left ^= frontier
    return subset ^ left


def random_graph(n: int, p: float, rng: random.Random) -> Graph:
    """Erdos-Renyi style graph: each pair becomes an edge with probability p."""
    edges = [
        (u, v)
        for u in range(n)
        for v in range(u + 1, n)
        if rng.random() < p
    ]
    return Graph(n, edges)


# everything but ASCII digits and '-', which int() reads along with other
# scripts' digits, '_' between digits and a '+' sign
_NOT_INT_CHARS = str.maketrans("", "", "-0123456789")


def _read_ints(fields: list[str]) -> Iterator[int]:
    """The integers of a row's fields, each ASCII digits with an optional
    leading ``-``; ValueError on any other field."""
    joined = "".join(fields)
    # ASCII digits alone are the common case, checked first as the cheaper
    if not (joined.isascii() and joined.isdigit()) and joined.translate(_NOT_INT_CHARS):
        raise ValueError(f"not integers: {_excerpt(fields)}")
    return map(int, fields)  # int rejects a '-' anywhere but in front


def _read_rows(
    text: str, header_names: str
) -> tuple[tuple[int, int], Iterator[tuple[int, str, list[str]]]]:
    """Header and body rows of the line formats (edge list, formula, map).

    Lines end at ``\n`` alone (``\r\n`` reads as ``\n``).  Blank lines and
    lines starting with ``#`` are skipped.  The first remaining line is the
    header of two non-negative integers named ``header_names`` (for example
    ``'n m'``); the rows after it come lazily as ``(lineno, raw line,
    fields)``, read in one pass.
    """
    rows = (
        (lineno, raw, line.split())
        for lineno, raw in enumerate(text.replace("\r\n", "\n").split("\n"), start=1)
        if (line := raw.strip()) and not line.startswith("#")
    )
    first = next(rows, None)
    if first is None:
        raise ValueError(f"line 1: missing '{header_names}' header")
    lineno, raw, fields = first
    if len(fields) != 2:
        raise ValueError(f"line {lineno}: expected header '{header_names}', got {_excerpt(raw)}")
    try:
        header = tuple(_read_ints(fields))
    except ValueError:
        raise ValueError(f"line {lineno}: header values must be integers") from None
    for name, value in zip(header_names.split(), header):
        if value < 0:
            raise ValueError(
                f"line {lineno}: header value {name} must be non-negative, got {_excerpt(value)}")
    return header, rows


def _check_vertex_count(n) -> None:
    """Reject a declared vertex count above ``MAX_VERTICES``."""
    if isinstance(n, int) and n > MAX_VERTICES:
        raise ValueError(f"vertex count {_excerpt(n)} exceeds the limit of {MAX_VERTICES}")


def parse_edge_list(text: str) -> Graph:
    """Read the ``n m`` / ``u v`` edge-list format; ``#`` starts a comment line.
    At most ``MAX_VERTICES`` vertices."""
    (n, m), rows = _read_rows(text, "n m")
    _check_vertex_count(n)
    edges: list[tuple[int, int]] = []
    for lineno, raw, fields in rows:
        if len(fields) != 2:
            raise ValueError(f"line {lineno}: expected an edge 'u v', got {_excerpt(raw)}")
        try:
            u, v = _read_ints(fields)
        except ValueError:
            raise ValueError(f"line {lineno}: edge endpoints must be integers") from None
        if len(edges) >= m:
            raise ValueError(f"line {lineno}: more edge lines than the declared count {_excerpt(m)}")
        edges.append((u, v))
    if len(edges) != m:
        raise ValueError(f"declared {_excerpt(m)} edges but found {len(edges)}")
    return Graph(n, edges)


def format_edge_list(g: Graph) -> str:
    """Canonical edge-list text, which parse_edge_list round-trips byte for byte;
    the body is one template filled from the flat edge tuple, no string per edge."""
    m = len(g.edges)
    return f"{g.n} {m}\n" + "%d %d\n" * m % tuple(chain.from_iterable(g.edges))
