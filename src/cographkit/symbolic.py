"""Symmetric symbol-valued pair maps and their labeled-tree representations.

A map assigns every unordered vertex pair a symbol from a finite
alphabet 0..k-1, with the empty value reserved for the diagonal.  Two
checkers decide whether such a map can be realized as the lca labels of
a leaf tree: a direct O(n^4) scan of the forbidden triple/quadruple
patterns (axioms U2/U3) and one over the per-symbol graphs (U2'/U3').
``build_representation`` decides it with one split, which yields a tree,
and scans only a rejected map, for its witness.  An exhaustive oracle
searches small maps whose edge and non-edge symbols are disjoint.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, Mapping, NamedTuple, Sequence

from .cotree import Cotree, _leaf_groups, _split, recognize
from .graph import Graph, P4Witness, _excerpt, _is_int, _read_rows

__all__ = [
    "SymbolicMap",
    "AxiomViolation",
    "NotUltrametricError",
    "check_axioms",
    "check_via_graphs",
    "color_graph",
    "build_representation",
    "tree_to_map",
    "delta_from_graph",
    "search_separating_delta",
    "bell_number",
    "set_partitions",
    "parse_symbolic_map",
    "format_symbolic_map",
]


def _pair_index(n: int, u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def _row_offsets(n: int) -> list[int]:
    """Per-row offsets: for u < v, offsets[u] + v == _pair_index(n, u, v)."""
    return [u * n - u * (u + 1) // 2 - u - 1 for u in range(n)]


def _splits_u3(wx: int, wy: int, wz: int, xy: int, xz: int, yz: int) -> bool:
    """U3 on a quadruple w, x, y, z given its six pair symbols.

    The quadruple violates U3 when its pairs split into two
    complementary 3-edge paths, one under a single symbol and the other
    under a different single symbol.  Each such path holds one of the
    perfect matchings {wx, yz}, {wy, xz}, {wz, xy} whole and one pair of
    the third, so the test is: two matchings are monochromatic in two
    different symbols, and the third carries both of them.
    """
    if wx == yz:
        if wy == xz:
            a, b, c, d = wx, wy, wz, xy
        elif wz == xy:
            a, b, c, d = wx, wz, wy, xz
        else:
            return False
    elif wy == xz and wz == xy:
        a, b, c, d = wy, wz, wx, yz
    else:
        return False
    return a != b and (c == a and d == b or c == b and d == a)


class SymbolicMap:
    """Symmetric map from vertex pairs to symbols 0..num_symbols-1.

    The diagonal is the empty value and only there, and the map is
    symmetric; both are enforced at construction.  Symbols are opaque
    ids; unused ids are allowed.
    """

    __slots__ = ("n", "num_symbols", "pair_symbols")

    def __init__(self, n: int, num_symbols: int, pair_symbols: Sequence[int]) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be non-negative, got {_excerpt(n)}")
        if num_symbols < 1:
            raise ValueError(f"alphabet must contain at least one symbol, got {_excerpt(num_symbols)}")
        expected = n * (n - 1) // 2
        if len(pair_symbols) != expected:
            raise ValueError(f"expected {_excerpt(expected)} pair symbols, got {len(pair_symbols)}")
        # one C-level pass per check; the pairs are walked only to name a fault
        if not all(issubclass(t, int) and t is not bool for t in set(map(type, pair_symbols))) or (
                pair_symbols and not 0 <= min(pair_symbols) <= max(pair_symbols) < num_symbols):
            for pair, s in zip(combinations(range(n), 2), pair_symbols):
                if not _is_int(s) or not 0 <= s < num_symbols:
                    raise ValueError(f"pair {pair} carries invalid symbol {_excerpt(s)}")
        self.n = n
        self.num_symbols = num_symbols
        self.pair_symbols = tuple(pair_symbols)

    @classmethod
    def from_pairs(
        cls, n: int, num_symbols: int, assignment: Mapping[tuple[int, int], int]
    ) -> "SymbolicMap":
        symbols = []
        for u, v in combinations(range(n), 2):
            if (u, v) in assignment:
                symbols.append(assignment[(u, v)])
            elif (v, u) in assignment:
                symbols.append(assignment[(v, u)])
            else:
                raise ValueError(f"missing symbol for pair {(u, v)}")
        return cls(n, num_symbols, symbols)

    def value(self, x: int, y: int) -> int | None:
        """Symbol of the pair, or None (the empty value) when x == y."""
        if not (0 <= x < self.n and 0 <= y < self.n):
            raise ValueError(f"vertex pair {_excerpt((x, y))} out of range 0..{self.n - 1}")
        if x == y:
            return None
        return self.pair_symbols[_pair_index(self.n, x, y)]

    def pairs(self) -> Iterator[tuple[int, int, int]]:
        for (u, v), s in zip(combinations(range(self.n), 2), self.pair_symbols):
            yield u, v, s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SymbolicMap):
            return NotImplemented
        return (
            self.n == other.n
            and self.num_symbols == other.num_symbols
            and self.pair_symbols == other.pair_symbols
        )

    def __hash__(self) -> int:
        return hash((self.n, self.num_symbols, self.pair_symbols))

    def __repr__(self) -> str:
        return f"SymbolicMap(n={self.n}, num_symbols={self.num_symbols})"


class AxiomViolation(NamedTuple):
    """Minimal witness against one of the tree-representability conditions.

    ``axiom`` is U2 or U3 for the direct checker (vertex triple resp.
    quadruple in ``vertices``), U2' or U3' for the graph-family checker
    (triple, resp. offending symbol plus induced-path witness).
    """

    axiom: str
    vertices: tuple[int, ...] = ()
    symbol: int | None = None
    p4: P4Witness | None = None

    def recheck(self, d: SymbolicMap) -> bool:
        """Re-verify this witness against the map by direct lookup."""
        if self.axiom in ("U2", "U2'"):
            x, y, z = self.vertices
            return len({d.value(x, y), d.value(x, z), d.value(y, z)}) == 3
        if self.axiom == "U3":
            return _splits_u3(*(d.value(x, y) for x, y in combinations(self.vertices, 2)))
        if self.axiom == "U3'":
            assert self.symbol is not None and self.p4 is not None
            return self.p4.holds_in(color_graph(d, self.symbol))
        raise ValueError(f"unknown axiom tag {_excerpt(self.axiom)}")


class NotUltrametricError(ValueError):
    """Raised when a representation is requested for a non-representable map."""

    def __init__(self, violation: AxiomViolation) -> None:
        super().__init__(f"map is not tree-representable: {violation}")
        self.violation = violation


def _first_u2(symbols: Sequence[int], n: int) -> tuple[int, int, int] | None:
    """Lexicographically first vertex triple whose three pairs carry
    three different symbols, else None."""
    off = _row_offsets(n)
    for x in range(n):
        ox = off[x]
        for y in range(x + 1, n):
            oy = off[y]
            a = symbols[ox + y]
            for z in range(y + 1, n):
                b = symbols[ox + z]
                if b != a:
                    c = symbols[oy + z]
                    if c != a and c != b:
                        return (x, y, z)
    return None


def _first_u3(symbols: Sequence[int], n: int) -> tuple[int, int, int, int] | None:
    """Lexicographically first vertex quadruple violating U3, else None."""
    off = _row_offsets(n)
    for w in range(n):
        ow = off[w]
        for x in range(w + 1, n):
            ox = off[x]
            wx = symbols[ow + x]
            for y in range(x + 1, n):
                oy = off[y]
                wy = symbols[ow + y]
                xy = symbols[ox + y]
                for z in range(y + 1, n):
                    if _splits_u3(wx, wy, symbols[ow + z], xy, symbols[ox + z], symbols[oy + z]):
                        return (w, x, y, z)
    return None


def check_axioms(d: SymbolicMap) -> AxiomViolation | None:
    """Direct checker: None when the map is tree-representable.

    Scans all vertex triples for three pairwise-distinct symbols (U2)
    and all quadruples for the two-path pattern (U3), returning the
    lexicographically smallest witness; every triple comes before every
    quadruple.  Nothing is precomputed, so the scan needs O(n) memory
    beyond the map.
    """
    triple = _first_u2(d.pair_symbols, d.n)
    if triple is not None:
        return AxiomViolation(axiom="U2", vertices=triple)
    quad = _first_u3(d.pair_symbols, d.n)
    if quad is not None:
        return AxiomViolation(axiom="U3", vertices=quad)
    return None


def color_graph(d: SymbolicMap, m: int) -> Graph:
    """The graph on the same vertices whose edges are the pairs with symbol m."""
    if not _is_int(m) or not 0 <= m < d.num_symbols:
        raise ValueError(f"unknown symbol {_excerpt(m)}, alphabet is 0..{_excerpt(d.num_symbols - 1)}")
    return Graph(d.n, [(u, v) for u, v, s in d.pairs() if s == m])


def check_via_graphs(d: SymbolicMap) -> AxiomViolation | None:
    """Graph-family checker, equivalent to ``check_axioms`` on every input.

    U2': every vertex triple has two of its three pairs under one
    symbol.  U3': every symbol graph is a cograph (checked through the
    recognizer, which supplies the induced-path witness on failure).
    """
    triple = _first_u2(d.pair_symbols, d.n)
    if triple is not None:
        return AxiomViolation(axiom="U2'", vertices=triple)
    for m in sorted(set(d.pair_symbols)):
        result = recognize(color_graph(d, m))
        if isinstance(result, P4Witness):
            return AxiomViolation(axiom="U3'", symbol=m, p4=result)
    return None


def build_representation(d: SymbolicMap) -> Cotree:
    """Labeled tree whose lca labels reproduce the map on every pair.

    This is also the representability check (Boecker & Dress 1998).  At
    each step the smallest symbol m whose complement graph (pairs with
    any other symbol) is disconnected becomes the root label, and the
    connected components become the children: ``cotree._split`` with one
    splitter per symbol that occurs, the symbol graph taken in complement.
    A finished split is the proof: every pair crossing two children of an
    m-node carries m, so the tree reproduces the map, in O(n^2 s) for s
    symbols.  A part no symbol splits, or more than n - 1 symbols (a tree
    on n leaves has at most n - 1 inner nodes), means the map is not
    representable; only then does ``check_axioms`` run, and the rejection
    carries its lexicographically first U2/U3 witness.
    """
    if d.n < 1:
        raise ValueError("representation needs at least one vertex")
    adjs: dict[int, list[int]] = {}
    for u, v, m in d.pairs():
        adj = adjs.get(m)
        if adj is None:
            if len(adjs) == d.n - 1:
                break  # an n-th symbol: no tree has room for it
            adj = adjs[m] = [0] * d.n
        adj[u] |= 1 << v
        adj[v] |= 1 << u
    else:
        tree = _split([(m, adjs[m], True) for m in sorted(adjs)], (1 << d.n) - 1)
        if isinstance(tree, Cotree):
            return tree
    violation = check_axioms(d)
    if violation is None:
        raise AssertionError("no splitting symbol found for a representable map")
    raise NotUltrametricError(violation)


def tree_to_map(t: Cotree, num_symbols: int | None = None) -> SymbolicMap:
    """Evaluate a labeled tree into the map of its pairwise lca labels."""
    groups = _leaf_groups(t)
    n = t.num_leaves
    if num_symbols is None:
        num_symbols = max((lab + 1 for lab in t.label if lab is not None), default=1)
    off = _row_offsets(n)
    symbols = [0] * (n * (n - 1) // 2)
    for lab, xs, ys in groups:
        for y in ys:
            oy = off[y]
            for x in xs:
                symbols[off[x] + y if x < y else oy + x] = lab
    return SymbolicMap(n, num_symbols, symbols)


def delta_from_graph(g: Graph) -> SymbolicMap:
    """Two-symbol map: edges carry symbol 1, non-edges symbol 0.

    It is tree-representable exactly when g is a cograph.
    """
    pairs = combinations(range(g.n), 2)
    return SymbolicMap(g.n, 2, [1 if g.has_edge(u, v) else 0 for u, v in pairs])


def bell_number(m: int) -> int:
    """Number of set partitions of an m-element set (Bell triangle)."""
    if m < 0:
        raise ValueError("m must be non-negative")
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for value in row:
            nxt.append(nxt[-1] + value)
        row = nxt
    return row[0]


def _growth_strings(m: int, split: int = 0, limit: int | None = None) -> Iterator[tuple[list[int], int]]:
    """Restricted-growth strings of length m with their block counts, in
    lexicographic order; one list is rewritten in place between yields.

    An item at or after ``split`` only joins blocks opened at or after
    ``split``, and a prefix opening more than ``limit`` blocks is never
    pushed.  Prefixes live on an explicit stack, extensions pushed from the
    highest block down so that they pop in increasing order.
    """
    limit = m if limit is None else limit
    string = [0] * m
    stack = [(0, 0, 0)] if limit >= 0 else []  # (prefix length, its last block, blocks opened)
    while stack:
        i, b, count = stack.pop()
        if i:
            string[i - 1] = b
        if i == m:
            yield string, count
            continue
        if count < limit:
            stack.append((i + 1, count, count + 1))
        # item split opens a block, so string[split] is the lowest one after it
        low = 0 if i < split else count if i == split else string[split]
        for b in range(count - 1, low - 1, -1):
            stack.append((i + 1, b, count))


def set_partitions(m: int) -> Iterator[list[tuple[int, ...]]]:
    """All set partitions of range(m) as block lists, in restricted-growth
    lexicographic order; blocks are ordered by first occurrence."""
    if m < 0:
        raise ValueError("m must be non-negative")
    for string, count in _growth_strings(m):
        blocks: list[list[int]] = [[] for _ in range(count)]
        for item, b in enumerate(string):
            blocks[b].append(item)
        yield [tuple(b) for b in blocks]


def search_separating_delta(
    g: Graph,
    max_symbols: int | None = None,
    stats: dict | None = None,
) -> SymbolicMap | None:
    """Exhaustive oracle for maps separating edges from non-edges.

    Screens every set partition of the pair set: a partition with a
    block mixing an edge and a non-edge can never separate the two pair
    families, so one growth-string walk over the pairs, edge pairs first,
    lets a non-edge pair join only blocks that non-edge pairs opened.
    Each string within the symbol budget is a candidate map, checked
    against the representability axioms; the first passing map is
    returned, None if the whole space fails.

    ``stats``, when given, receives the size of the screened partition
    space and the number of candidates actually checked.
    """
    if g.n > 6:
        raise ValueError(f"exhaustive search is limited to 6 vertices, got {g.n}")
    pairs = list(combinations(range(g.n), 2))
    order = sorted(range(len(pairs)), key=lambda i: not g.has_edge(*pairs[i]))  # edge pairs first
    stats = {} if stats is None else stats
    stats.update(pairs=len(pairs), partitions_screened=bell_number(len(pairs)), candidates=0)
    symbols = [0] * len(pairs)
    for string, k in _growth_strings(len(pairs), len(g.edges), max_symbols):
        for pos, s in zip(order, string):
            symbols[pos] = s
        stats["candidates"] += 1
        if _first_u2(symbols, g.n) is None and _first_u3(symbols, g.n) is None:
            return SymbolicMap(g.n, max(k, 1), list(symbols))
    return None


def parse_symbolic_map(text: str) -> SymbolicMap:
    """Read the ``n k`` / token-row map format in one pass over its rows.

    Row x holds n tokens: ``-`` at column x only, ``s0`` .. ``s(k-1)``
    elsewhere, and left of column x the symbols that rows 0..x-1 gave.
    The first fault in reading order is named; the rows are counted last.
    """
    (n, k), rows = _read_rows(text, "n k")
    if k < 1:  # before any row, so that every n names the empty alphabet
        SymbolicMap(0, k, [])  # raises the constructor's alphabet message
    symbols = {"-": -1}  # each distinct token is read once; -1 is the diagonal
    pairs: list[int] = []
    x = -1
    for x, (lineno, _, fields) in zip(range(n), rows):
        if len(fields) != n:
            raise ValueError(f"line {lineno}: expected {_excerpt(n)} tokens, got {len(fields)}")
        off = off if x else _row_offsets(n)  # once a row of n tokens is read
        column = [*map(pairs.__getitem__, map(x.__add__, off[:x])), -1]  # (y, x) for y <= x
        row = list(map(symbols.get, fields))
        if None in row or row[:x + 1] != column or -1 in row[x + 1:]:
            for y, token in enumerate(fields):  # to the first fault, column by column
                if token not in symbols:
                    digits = token[1:]
                    if not (token.startswith("s") and digits.isascii() and digits.isdigit()):
                        raise ValueError(f"line {lineno}: bad token {_excerpt(token)}")
                    if int(digits) >= k:
                        quoted = _excerpt(token).strip("'")  # repr only wraps 's' and digits in quotes
                        raise ValueError(f"line {lineno}: symbol {quoted} outside s0..s{_excerpt(k - 1)}")
                    symbols[token] = int(digits)
                if (symbols[token] != column[y]) if y <= x else symbols[token] == -1:
                    raise ValueError(f"entries ({y},{x}) and ({x},{y}) are not symmetric" if y < x
                                     else f"diagonal entry ({x},{x}) must be '-'" if y == x
                                     else f"off-diagonal entry ({x},{y}) must carry a symbol")
        pairs += map(symbols.__getitem__, fields[x + 1:])
    found = x + 1 + sum(1 for _ in rows)  # zip left any rows after row n - 1 in ``rows``
    if found != n:
        raise ValueError(f"expected {_excerpt(n)} matrix rows, found {found}")
    return SymbolicMap(n, k, pairs)


def format_symbolic_map(d: SymbolicMap) -> str:
    """Canonical map text; parse_symbolic_map round-trips it byte for byte.
    Row x gathers (y, x), y < x, by row offset and slices (x, y), y > x;
    token strings are made only for the symbols that occur."""
    pairs, off = d.pair_symbols, _row_offsets(d.n)
    token = {s: f"s{s}" for s in set(pairs)}.__getitem__
    rows = (" ".join([*map(token, map(pairs.__getitem__, map(x.__add__, off[:x]))), "-",
                      *map(token, pairs[off[x] + x + 1:off[x] + d.n])]) for x in range(d.n))
    return "".join(f"{line}\n" for line in (f"{d.n} {d.num_symbols}", *rows))
