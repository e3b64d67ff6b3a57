"""Rooted leaf-labeled trees and cograph recognition.

A tree here is a rooted structure whose leaves are bound one-to-one to
graph vertices and whose inner nodes carry small integer labels.
Cographs use the binary alphabet (0 = disjoint union, 1 = join); the
symbolic-map machinery reuses the same structure and split (``_split``)
with larger alphabets.  The split finds its parts in preorder and
returns a ``Cotree`` numbered in that order, built as it goes, with no
nested intermediate, or the mask of the first part no splitter divides.
``Cotree(nested)`` validates trees from elsewhere, and ``_leaf_groups``
is the one checked reader of a finished tree.  No code here recurses,
so trees of any depth work, except the generator ``random_labeled_tree``:
it recurses as deep as the tree it draws, 5 to 7 levels at 20,000 leaves.

Canonical form: no inner node repeats its parent's label, every inner
node has at least two children, and children are ordered by their
smallest descendant leaf.
"""

from __future__ import annotations

import random
from itertools import repeat
from typing import Iterator, Union

from .graph import MAX_VERTICES, Graph, P4Witness, _excerpt, _first_component, _induced_p4s, _is_int, _p4_start

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
        children: list[list[int]] = []
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
                raise ValueError(f"malformed tree node {_excerpt(node)}")
        self._assign(parent, children, label, leaf_vertex)

    def _assign(self, parent: list, children: list, label: list, leaf_vertex: list) -> None:
        """Freeze preorder node lists into the fields and index the leaves;
        the one construction path of ``Cotree(nested)`` and ``_split``."""
        self.parent = tuple(parent)
        self.children = tuple(map(tuple, children))
        self.label = tuple(label)
        self.leaf_vertex = tuple(leaf_vertex)
        vmap: dict[int, int] = {}
        for idx, v in enumerate(self.leaf_vertex):
            if v is not None:
                if v in vmap:
                    raise ValueError(f"leaf vertex {_excerpt(v)} appears twice")
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
            raise ValueError(f"unknown vertex {_excerpt(vertex)}")
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
            raise ValueError(f"inner node {idx} has label {_excerpt(lab)}, expected 0 or 1")
        if len(t.children[idx]) < 2:
            raise ValueError(
                f"inner node {idx} has {len(t.children[idx])} children, need at least 2"
            )
        for ch in t.children[idx]:
            if t.leaf_vertex[ch] is None and t.label[ch] == lab:
                raise ValueError(f"inner node {ch} repeats its parent's label {_excerpt(lab)}")


def _split(splitters, mask: int) -> Cotree | int:
    """Tree of the part ``mask``, split top-down on an explicit stack.

    ``splitters`` lists ``(label, adj, in_complement)`` in the order tried,
    with ``adj[v]`` the adjacency bitmask of each v in ``mask``.  A part
    becomes a node labeled by the first splitter whose graph (or its
    complement) disconnects it, over its components, each split before the
    next is found, lowest vertex first, without retrying that splitter.
    Parts are found in preorder, so each becomes the next node of the
    returned ``Cotree`` when it is found.  The first part of two or more
    vertices that no splitter divides is returned instead, as its mask (for
    a cograph test: an induced P4 lies in it).  An empty mask is no part:
    it yields the bogus leaf -1, so callers pass at least one vertex.

    Sizes are counted, not re-tested: a part's size is read once, and each
    open node carries how many vertices its rest still holds, so a rest of
    one vertex is its last component and a leaf, found with no component
    search.  A part {u < v} needs no search either: a splitter divides it
    exactly when ``adj[u]`` has bit v clear (set, in complement), and its
    node and two leaves are appended at once, with no stack frame.  Nor
    does a rest {u < v}: one bit of the splitter that divided its node
    says whether it is one part (the splitter joins u and v) or the two
    leaves u and v, appended at once.
    """
    parent: list[int] = []
    children: list = []  # a list per inner node, () per leaf
    label: list[int | None] = []
    leaf_vertex: list[int | None] = []
    # open inner nodes: [node id, splitter index, rest of the part, vertices in the rest]
    stack: list[list[int]] = []
    part, size, skip, par = mask, mask.bit_count(), -1, -1
    while True:
        idx = len(parent)
        parent.append(par)
        if par >= 0:
            children[par].append(idx)
        if size > 2:
            for i, (lab, adj, in_complement) in enumerate(splitters):
                if i != skip:
                    comp = _first_component(adj, part, in_complement)
                    if comp != part:
                        break
            else:
                return part
            children.append([])
            label.append(lab)
            leaf_vertex.append(None)
            found = comp.bit_count()
            stack.append([idx, i, part ^ comp, size - found])
            part, size, skip, par = comp, found, i, idx
            continue
        if size == 2:
            v = part.bit_length() - 1
            u = (part ^ 1 << v).bit_length() - 1
            for lab, adj, in_complement in splitters:
                if (adj[u] >> v & 1) == in_complement:
                    break
            else:
                return part
            parent += (idx, idx)
            children += ([idx + 1, idx + 2], (), ())
            label += (lab, None, None)
            leaf_vertex += (None, u, v)
        else:
            children.append(())
            label.append(None)
            leaf_vertex.append(part.bit_length() - 1)
        while stack:
            top = stack[-1]
            par, skip, rest, left = top
            if left > 2:
                _, adj, in_complement = splitters[skip]
                part = _first_component(adj, rest, in_complement)
                size = part.bit_count()
                top[2] = rest ^ part
                top[3] = left - size
                break
            stack.pop()
            if left == 2:
                v = rest.bit_length() - 1
                u = (rest ^ 1 << v).bit_length() - 1
                _, adj, in_complement = splitters[skip]
                if (adj[u] >> v & 1) != in_complement:
                    part = rest
                    size = 2
                    break
                idx = len(parent)
                parent += (par, par)
                children[par] += (idx, idx + 1)
                children += ((), ())
                label += (None, None)
                leaf_vertex += (u, v)
            elif left:
                part = rest
                size = 1
                break
        else:
            tree = object.__new__(Cotree)
            tree._assign(parent, children, label, leaf_vertex)
            return tree


def _cotree_or_witness(adj, mask: int) -> Cotree | P4Witness:
    """Cotree of the graph induced on ``mask`` (at least one vertex),
    or an induced-path witness if that graph is not a cograph.

    ``_split`` with the graph as splitter 0 and its complement as
    splitter 1: a disconnected part becomes a 0-node over its components,
    a part with disconnected complement a 1-node over its co-components;
    a part that is neither (with more than one vertex) contains an
    induced P4; the witness is the lexicographically first one inside the
    first such part.  ``adj[v]`` is the adjacency bitmask of each v in
    ``mask`` (list, tuple or dict).

    The witness's first vertex comes from ``_p4_start``, at most one
    component search per start up to it, and the scan runs from there: the
    starts below it end no induced path, so the scan would find none there.
    """
    result = _split(((0, adj, False), (1, adj, True)), mask)
    if isinstance(result, Cotree):
        return result
    start = _p4_start(adj, result)
    if start is None:
        raise AssertionError("irreducible subgraph without an induced path")
    return next(_induced_p4s(adj, result, start))


def recognize(g: Graph) -> Cotree | P4Witness:
    """Canonical cotree of g, or an induced-path witness if g is not a
    cograph (see ``_cotree_or_witness``)."""
    if g.n == 0:
        raise ValueError("recognition needs at least one vertex")
    return _cotree_or_witness(g._adj, (1 << g.n) - 1)


def _leaf_groups(t: Cotree, binary: bool = False) -> Iterator[tuple[int, list[int], list[int]]]:
    """Check ``t``, then iterate ``(label, xs, ys)`` over its inner nodes,
    children before parents (preorder ids read backwards): one item per
    child after the first, ``ys`` the leaves under it and ``xs`` those under
    the children before it (grown in place, valid until the next item).
    ``check_structure(t, binary)`` and the check that the leaves are exactly
    0..n-1 (naming one leaf outside) run before this returns."""
    check_structure(t, binary)
    n = t.num_leaves
    bad = next((v for v in t.leaf_vertex if v is not None and not 0 <= v < n), None)
    if bad is not None:
        raise ValueError(f"leaf vertices must be exactly 0..{n - 1}, got leaf {_excerpt(bad)}")

    def walk() -> Iterator[tuple[int, list[int], list[int]]]:
        below: dict[int, list[int]] = {}
        for idx in range(t.num_nodes - 1, -1, -1):
            v = t.leaf_vertex[idx]
            if v is not None:
                below[idx] = [v]
                continue
            lab = t.label[idx]
            first, *rest = t.children[idx]
            xs = below.pop(first)
            for c in rest:
                ys = below.pop(c)
                yield lab, xs, ys
                xs += ys
            below[idx] = xs

    return walk()


def cotree_to_graph(t: Cotree) -> Graph:
    """Graph whose edges are the leaf pairs whose lca is labeled 1.

    The tree must be a well-formed binary-labeled cotree over leaf
    vertices 0..n-1; malformed input is rejected naming the invariant.
    """
    edges: list[tuple[int, int]] = []
    for lab, xs, ys in _leaf_groups(t, binary=True):
        if lab == 1:
            for y in ys:
                edges += zip(xs, repeat(y))
    return Graph(t.num_leaves, edges)


def to_newick(t: Cotree) -> str:
    """Serialize: leaves as vertex ids, inner nodes as ``(...)label``, final ``;``.

    One pass over the preorder ids: an inner node opens ``(``, every child
    but the first (whose id follows its parent's) is preceded by ``,``,
    and a leaf or childless inner node, once written, closes ``)label``
    for each ancestor whose last child it ends."""
    parent, children, label = t.parent, t.children, t.label
    out: list[str] = []
    for idx, v in enumerate(t.leaf_vertex):
        par = parent[idx]
        if par != idx - 1:
            out.append(",")
        if v is not None:
            out.append(str(v))
        elif children[idx]:
            out.append("(")
            continue
        else:
            out.append(f"(){label[idx]}")
        done = idx
        while par >= 0 and children[par][-1] == done:
            out.append(f"){label[par]}")
            done, par = par, parent[par]
    out.append(";")
    return "".join(out)


def parse_newick(text: str) -> Cotree:
    """Parse the serialization produced by ``to_newick`` (round-trip exact).
    At most ``MAX_VERTICES`` leaves: reading leaf ``MAX_VERTICES + 1`` raises."""
    s = text.strip()
    pos = 0

    def fail(msg: str) -> ValueError:
        return ValueError(f"newick position {pos}: {msg}")

    def read_int() -> int:
        nonlocal pos
        start = pos
        # ASCII digits only: str.isdigit also takes other scripts' digits
        # and superscripts, which int() reads as digits or rejects
        while pos < len(s) and "0" <= s[pos] <= "9":
            pos += 1
        if pos == start:
            raise fail("expected an integer")
        return int(s[start:pos])

    open_kids: list[list[Nested]] = []  # children read so far of each open '('
    leaves = 0  # counted as read, so an oversized tree is rejected before it is built
    while True:
        if pos < len(s) and s[pos] == "(":
            pos += 1
            open_kids.append([])
            continue
        node: Nested = read_int()
        leaves += 1
        if leaves > MAX_VERTICES:
            raise fail(f"more than {MAX_VERTICES} leaves: the vertex count exceeds the limit")
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
    return Cotree(node)


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
