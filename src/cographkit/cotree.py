"""Rooted leaf-labeled trees and cograph recognition.

A tree here is a rooted structure whose leaves are bound one-to-one to
graph vertices and whose inner nodes carry small integer labels.
Cographs use the binary alphabet (0 = disjoint union, 1 = join); the
symbolic-map machinery reuses the same structure and split (``_split``)
with larger alphabets.  No code here recurses, so trees of any depth
work, except the generator ``random_labeled_tree``: it recurses as deep as
the tree it draws, which is 5 to 7 levels at 20,000 leaves.

Canonical form: no inner node repeats its parent's label, every inner
node has at least two children, and children are ordered by their
smallest descendant leaf.
"""

from __future__ import annotations

import random
from typing import Iterator, Union

from .graph import Graph, P4Witness, _check_vertex_count, _first_component, _induced_p4s, _is_int

__all__ = [
    "Cotree",
    "recognize",
    "cotree_to_graph",
    "check_structure",
    "to_newick",
    "parse_newick",
    "random_cotree",
    "random_labeled_tree",
]

Nested = Union[int, tuple]


class Cotree:
    """Immutable rooted tree; node 0 is the root, numbering is preorder.

    ``label[i]`` is None for leaves (the empty symbol) and an integer
    for inner nodes; ``leaf_vertex[i]`` is the graph vertex bound to
    leaf i and None for inner nodes.
    """

    __slots__ = ("parent", "children", "label", "leaf_vertex", "_vertex_node")

    def __init__(self, nested: Nested) -> None:
        parent: list[int] = []
        children: list[tuple[int, ...]] = []
        label: list[int | None] = []
        leaf_vertex: list[int | None] = []
        # popping children in order numbers the nodes in preorder
        stack: list[tuple[Nested, int]] = [(nested, -1)]
        while stack:
            node, par = stack.pop()
            idx = len(parent)
            parent.append(par)
            children.append([])
            if par >= 0:
                children[par].append(idx)
            if _is_int(node):
                label.append(None)
                leaf_vertex.append(node)
            elif isinstance(node, tuple) and len(node) == 2 and _is_int(node[0]):
                label.append(node[0])
                leaf_vertex.append(None)
                stack.extend((ch, idx) for ch in reversed(list(node[1])))
            else:
                raise ValueError(f"malformed tree node {node!r}")
        self.parent = tuple(parent)
        self.children = tuple(map(tuple, children))
        self.label = tuple(label)
        self.leaf_vertex = tuple(leaf_vertex)
        vmap: dict[int, int] = {}
        for idx, v in enumerate(self.leaf_vertex):
            if v is not None:
                if v in vmap:
                    raise ValueError(f"leaf vertex {v} appears twice")
                vmap[v] = idx
        self._vertex_node = vmap

    @property
    def num_nodes(self) -> int:
        return len(self.parent)

    @property
    def num_leaves(self) -> int:
        return len(self._vertex_node)

    def vertices(self) -> tuple[int, ...]:
        return tuple(sorted(self._vertex_node))

    def leaf_node(self, vertex: int) -> int:
        if vertex not in self._vertex_node:
            raise ValueError(f"unknown vertex {vertex!r}")
        return self._vertex_node[vertex]

    def lca(self, x: int, y: int) -> int:
        """Node id of the lowest common ancestor of two leaf vertices."""
        a, b = self.leaf_node(x), self.leaf_node(y)
        ancestors = {a}
        while a:
            a = self.parent[a]
            ancestors.add(a)
        while b not in ancestors:
            b = self.parent[b]
        return b

    def lca_label(self, x: int, y: int) -> int | None:
        """Label of lca(x, y); None (the empty symbol) exactly when x == y."""
        if x == y:
            self.leaf_node(x)
            return None
        return self.label[self.lca(x, y)]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Cotree):
            return NotImplemented
        return (
            self.parent == other.parent
            and self.children == other.children
            and self.label == other.label
            and self.leaf_vertex == other.leaf_vertex
        )

    def __hash__(self) -> int:
        return hash((self.parent, self.label, self.leaf_vertex))

    def __repr__(self) -> str:
        return f"Cotree({to_newick(self)!r})"


def check_structure(t: Cotree, binary: bool = False) -> None:
    """Raise ValueError naming the violated invariant, if any.

    Checks: leaves carry the empty label and a vertex, inner nodes have
    at least two children, no inner child repeats its parent's label,
    and (with ``binary``) inner labels are 0/1 only.
    """
    for idx in range(t.num_nodes):
        if t.leaf_vertex[idx] is not None:
            continue
        lab = t.label[idx]
        if lab is None or lab < 0:
            raise ValueError(f"inner node {idx} needs a non-negative integer label")
        if binary and lab not in (0, 1):
            raise ValueError(f"inner node {idx} has label {lab}, expected 0 or 1")
        if len(t.children[idx]) < 2:
            raise ValueError(
                f"inner node {idx} has {len(t.children[idx])} children, need at least 2"
            )
        for ch in t.children[idx]:
            if t.leaf_vertex[ch] is None and t.label[ch] == lab:
                raise ValueError(f"inner node {ch} repeats its parent's label {lab}")


class _Prime(Exception):
    """Raised by ``_split`` on a part of two or more vertices that no
    splitter divides (for a cograph test: an induced P4 lies in it)."""

    def __init__(self, mask: int) -> None:
        self.mask = mask


def _split(splitters, mask: int) -> Nested:
    """Nested tree of the part ``mask``, split top-down on an explicit stack.

    ``splitters`` lists ``(label, adj, in_complement)`` in the order tried,
    with ``adj[v]`` the adjacency bitmask of each v in ``mask``.  A part
    becomes a node labeled by the first splitter whose graph (or its
    complement) disconnects it, over its components, each split before the
    next is found, lowest vertex first, without retrying that splitter.
    A part no splitter divides raises ``_Prime``.  An empty mask is no part:
    it yields the bogus leaf -1, so callers pass at least one vertex.
    """
    stack: list[list] = []  # open nodes: [splitter index, rest of the part, children]
    part, skip = mask, -1
    while True:
        if part & (part - 1):
            for i, (_, adj, in_complement) in enumerate(splitters):
                if i != skip:
                    comp = _first_component(adj, part, in_complement)
                    if comp != part:
                        break
            else:
                raise _Prime(part)
            stack.append([i, part ^ comp, []])
            part, skip = comp, i
            continue
        node: Nested = part.bit_length() - 1
        while stack:
            i, rest, kids = top = stack[-1]
            kids.append(node)
            if rest:
                _, adj, in_complement = splitters[i]
                part = _first_component(adj, rest, in_complement)
                top[1] = rest ^ part
                skip = i
                break
            stack.pop()
            node = (splitters[i][0], kids)
        else:
            return node


def _cotree_or_witness(adj, mask: int) -> Nested | P4Witness:
    """Nested cotree of the graph induced on ``mask`` (at least one vertex),
    or an induced-path witness if that graph is not a cograph.

    ``_split`` with the graph as splitter 0 and its complement as
    splitter 1: a disconnected part becomes a 0-node over its components,
    a part with disconnected complement a 1-node over its co-components;
    a part that is neither (with more than one vertex) contains an
    induced P4; the witness is the lexicographically first one inside the
    first such part.  ``adj[v]`` is the adjacency bitmask of each v in
    ``mask`` (list, tuple or dict).
    """
    try:
        return _split(((0, adj, False), (1, adj, True)), mask)
    except _Prime as hit:
        witness = next(_induced_p4s(adj, hit.mask), None)
    if witness is None:
        raise AssertionError("irreducible subgraph without an induced path")
    return witness


def recognize(g: Graph) -> Cotree | P4Witness:
    """Canonical cotree of g, or an induced-path witness if g is not a
    cograph (see ``_cotree_or_witness``)."""
    if g.n == 0:
        raise ValueError("recognition needs at least one vertex")
    result = _cotree_or_witness(g._adj, (1 << g.n) - 1)
    return result if isinstance(result, P4Witness) else Cotree(result)


def _leaf_groups(t: Cotree) -> Iterator[tuple[int, list[list[int]]]]:
    """Yield ``(label, leaves under each child)`` for every inner node,
    children before parents: preorder ids read backwards."""
    below: dict[int, list[int]] = {}
    for idx in range(t.num_nodes - 1, -1, -1):
        if t.leaf_vertex[idx] is not None:
            below[idx] = [t.leaf_vertex[idx]]
            continue
        groups = [below.pop(c) for c in t.children[idx]]
        yield t.label[idx], groups
        below[idx] = [v for grp in groups for v in grp]


def cotree_to_graph(t: Cotree) -> Graph:
    """Graph whose edges are the leaf pairs whose lca is labeled 1.

    The tree must be a well-formed binary-labeled cotree over leaf
    vertices 0..n-1; malformed input is rejected naming the invariant.
    """
    check_structure(t, binary=True)
    n = t.num_leaves
    verts = t.vertices()
    if verts != tuple(range(n)):
        raise ValueError(f"leaf vertices must be exactly 0..{n - 1}, got {verts}")
    edges: list[tuple[int, int]] = []
    for lab, groups in _leaf_groups(t):
        if lab == 1:
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    edges.extend((x, y) for x in groups[i] for y in groups[j])
    return Graph(n, edges)


def to_newick(t: Cotree) -> str:
    """Serialize: leaves as vertex ids, inner nodes as ``(...)label``, final ``;``."""
    text: dict[int, str] = {}
    for idx in range(t.num_nodes - 1, -1, -1):
        if t.leaf_vertex[idx] is not None:
            text[idx] = str(t.leaf_vertex[idx])
        else:
            inner = ",".join([text.pop(c) for c in t.children[idx]])
            text[idx] = f"({inner}){t.label[idx]}"
    return text[0] + ";"


def parse_newick(text: str) -> Cotree:
    """Parse the serialization produced by ``to_newick`` (round-trip exact).
    At most ``MAX_VERTICES`` leaves."""
    s = text.strip()
    pos = 0

    def fail(msg: str) -> ValueError:
        return ValueError(f"newick position {pos}: {msg}")

    def read_int() -> int:
        nonlocal pos
        start = pos
        while pos < len(s) and s[pos].isdigit():
            pos += 1
        if pos == start:
            raise fail("expected an integer")
        return int(s[start:pos])

    open_kids: list[list[Nested]] = []  # children read so far of each open '('
    while True:
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_kids.append([])
            continue
        node: Nested = read_int()
        while open_kids:
            open_kids[-1].append(node)
            if pos < len(s) and s[pos] == ",":
                pos += 1
                break
            if pos >= len(s) or s[pos] != ")":
                raise fail("expected ')'")
            pos += 1
            node = (read_int(), open_kids.pop())
        else:
            break
    if pos >= len(s) or s[pos] != ";":
        raise fail("expected ';'")
    pos += 1
    if pos != len(s):
        raise fail("trailing characters after ';'")
    tree = Cotree(node)
    _check_vertex_count(tree.num_leaves)
    return tree


def random_labeled_tree(num_leaves: int, num_symbols: int, rng: random.Random) -> Cotree:
    """Random canonical tree on leaves 0..num_leaves-1 with the given alphabet.

    Adjacent inner nodes never share a label and children are ordered by
    smallest leaf, so the output is already in canonical form.
    """
    if num_leaves < 1:
        raise ValueError("need at least one leaf")
    if num_symbols < 1:
        raise ValueError("need at least one symbol")

    def build(vs: list[int], parent_label: int | None) -> Nested:
        if len(vs) == 1:
            return vs[0]
        # parent_label is None only at the root; below the root there is
        # always a differing symbol available once num_symbols >= 2
        label = rng.choice([m for m in range(num_symbols) if m != parent_label])
        if num_symbols == 1:
            # a flat star is the only canonical shape over one symbol
            blocks = [[v] for v in vs]
        else:
            while True:
                width = rng.randint(2, len(vs))
                ids = [rng.randrange(width) for _ in vs]
                if len(set(ids)) >= 2:
                    break
            by_id: dict[int, list[int]] = {}
            for v, i in zip(vs, ids):
                by_id.setdefault(i, []).append(v)
            blocks = sorted(by_id.values(), key=min)
        return (label, [build(block, label) for block in blocks])

    if num_leaves == 1:
        return Cotree(0)
    return Cotree(build(list(range(num_leaves)), None))


def random_cotree(num_leaves: int, rng: random.Random) -> Cotree:
    """Random canonical binary-labeled cotree on leaves 0..num_leaves-1."""
    return random_labeled_tree(num_leaves, 2, rng)
