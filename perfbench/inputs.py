"""Seeded input generators with their expected answers.

Everything here uses only the standard library, so the expected answers
(canonical cotrees, edge lists, symbol maps, planted certificates) do not
come from the code under test.  A tree is nested tuples: a leaf is a vertex
id, an inner node is ``(label, [children])``, and a planted induced path is
``("P4", (a, b, c, d))``, which behaves as a leaf set with the path edges
a-b, b-c, c-d inside it.
"""

from __future__ import annotations

import random

P4 = "P4"


# ---------------------------------------------------------------------------
# cograph trees
# ---------------------------------------------------------------------------


def random_tree(vs: list[int], label: int, rng: random.Random, fanout: int, symbols: int = 2):
    """Random canonical-shaped tree over ``vs`` whose root carries ``label``.

    Each inner node has 2..fanout children and never repeats its parent's
    label; with ``symbols`` = 2 the labels alternate (a cotree).
    """
    if len(vs) == 1:
        return vs[0]
    width = min(len(vs), rng.randint(2, fanout))
    cuts = sorted(rng.sample(range(1, len(vs)), width - 1))
    parts = [vs[a:b] for a, b in zip([0] + cuts, cuts + [len(vs)])]
    kids = []
    for part in parts:
        child = rng.choice([s for s in range(symbols) if s != label])
        kids.append(random_tree(part, child, rng, fanout, symbols))
    return (label, kids)


def sparse_cograph(vs: list[int], rng: random.Random, block: int = 12):
    """Union (label 0) of connected random cographs on 2..block vertices."""
    kids, pos = [], 0
    while pos < len(vs):
        size = min(len(vs) - pos, rng.randint(2, block))
        part = vs[pos : pos + size]
        kids.append(random_tree(part, 1, rng, 4) if size > 1 else part[0])
        pos += size
    return (0, kids) if len(kids) > 1 else kids[0]


def dense_cograph(vs: list[int], rng: random.Random):
    """Join (label 1) of two sparse halves: about n^2 / 4 edges."""
    half = len(vs) // 2
    return (1, [sparse_cograph(vs[:half], rng), sparse_cograph(vs[half:], rng)])


def shuffled(n: int, rng: random.Random) -> list[int]:
    vs = list(range(n))
    rng.shuffle(vs)
    return vs


def plant_p4(tree, extra: tuple[int, int, int], rng: random.Random):
    """Replace one random leaf v by the induced path v-e0-e1-e2."""
    leaves = []
    _walk_leaves(tree, (), leaves)
    path, v = leaves[rng.randrange(len(leaves))]
    module = (P4, (v,) + tuple(extra))
    if not path:
        return module
    return _replace(tree, path, module)


def _walk_leaves(node, path, out) -> None:
    if isinstance(node, int):
        out.append((path, node))
        return
    for i, child in enumerate(node[1]):
        _walk_leaves(child, path + (i,), out)


def _replace(node, path, new):
    if not path:
        return new
    kids = list(node[1])
    kids[path[0]] = _replace(kids[path[0]], path[1:], new)
    return (node[0], kids)


def threshold_tree(order: list[int]):
    """Alternating threshold cotree: ``order[i]`` joins everything before it
    for odd i and stays isolated from it for even i; depth len(order) - 1."""
    tree = order[0]
    for i in range(1, len(order)):
        tree = (i % 2, [tree, order[i]])
    return tree


def caterpillar_newick(n: int) -> str:
    """Newick of the alternating caterpillar on leaves 0..n-1 (depth n - 1)."""
    text = "0"
    for i in range(1, n):
        text = f"({text},{i}){i % 2}"
    return text + ";"


def _postorder(tree):
    """Inner nodes children-first, without recursion (trees may be deep)."""
    order, stack = [], [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple) and node[0] != P4:
            order.append(node)
            stack.extend(node[1])
    order.reverse()
    return order


def tree_edges(tree) -> list[tuple[int, int]]:
    """Edges of the graph a (possibly planted) cotree describes."""
    edges: list[tuple[int, int]] = []
    leaves: dict[int, list[int]] = {}

    def leaf_set(node) -> list[int]:
        if isinstance(node, int):
            return [node]
        if node[0] == P4:
            return list(node[1])
        return leaves[id(node)]

    for node in _iter_p4(tree):
        a, b, c, d = node[1]
        edges.extend(((a, b), (b, c), (c, d)))
    for node in _postorder(tree):
        groups = [leaf_set(child) for child in node[1]]
        if node[0] == 1:
            for i in range(len(groups)):
                for j in range(i + 1, len(groups)):
                    edges.extend((x, y) for x in groups[i] for y in groups[j])
        leaves[id(node)] = [v for grp in groups for v in grp]
    return edges


def _iter_p4(tree):
    stack = [tree]
    while stack:
        node = stack.pop()
        if isinstance(node, tuple):
            if node[0] == P4:
                yield node
            else:
                stack.extend(node[1])


def canonical_newick(tree) -> str:
    """Newick of the canonical form: children ordered by smallest leaf."""
    text: dict[int, tuple[int, str]] = {}

    def rendered(node) -> tuple[int, str]:
        if isinstance(node, int):
            return node, str(node)
        return text[id(node)]

    for node in _postorder(tree):
        kids = sorted(rendered(child) for child in node[1])
        text[id(node)] = (kids[0][0], "(" + ",".join(s for _, s in kids) + f"){node[0]}")
    return rendered(tree)[1] + ";"


def parse_newick(s: str):
    """Nested tree of a newick string (shallow trees only)."""
    pos = 0

    def number() -> int:
        nonlocal pos
        start = pos
        while s[pos].isdigit():
            pos += 1
        return int(s[start:pos])

    def node():
        nonlocal pos
        if s[pos] != "(":
            return number()
        kids = []
        while s[pos] in "(,":
            pos += 1
            kids.append(node())
        pos += 1  # ')'
        return (number(), kids)

    return node()


# ---------------------------------------------------------------------------
# graphs, maps, formulas, decompositions
# ---------------------------------------------------------------------------


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    return [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p]


def threshold_edges(order: list[int]) -> list[tuple[int, int]]:
    return [(order[j], order[i]) for i in range(1, len(order), 2) for j in range(i)]


def edge_list_text(n: int, edges) -> str:
    canon = sorted({(u, v) if u < v else (v, u) for u, v in edges})
    return f"{n} {len(canon)}\n" + "".join(f"{u} {v}\n" for u, v in canon)


def pair_index(n: int, u: int, v: int) -> int:
    if u > v:
        u, v = v, u
    return u * n - u * (u + 1) // 2 + (v - u - 1)


def tree_symbols(tree, n: int) -> list[int]:
    """Symbol of every pair (row-major, u < v): the label of its lca."""
    symbols = [-1] * (n * (n - 1) // 2)
    below: dict[int, list[int]] = {}
    for node in _postorder(tree):
        groups = [[c] if isinstance(c, int) else below[id(c)] for c in node[1]]
        for i in range(len(groups)):
            for j in range(i + 1, len(groups)):
                for x in groups[i]:
                    for y in groups[j]:
                        symbols[pair_index(n, x, y)] = node[0]
        below[id(node)] = [v for grp in groups for v in grp]
    return symbols


def map_text(n: int, k: int, symbols: list[int]) -> str:
    rows = [f"{n} {k}"]
    for x in range(n):
        rows.append(" ".join("-" if x == y else f"s{symbols[pair_index(n, x, y)]}" for y in range(n)))
    return "\n".join(rows) + "\n"


def plant_u2(n: int, symbols: list[int], rng: random.Random) -> tuple[int, int, int]:
    """Give one vertex triple three different symbols (violates U2)."""
    x, y, z = sorted(rng.sample(range(n), 3))
    for (u, v), s in zip(((x, y), (x, z), (y, z)), (0, 1, 2)):
        symbols[pair_index(n, u, v)] = s
    return x, y, z


def planted_formula(num_vars: int, num_clauses: int, rng: random.Random):
    """Random monotone clauses that a random assignment satisfies (NAE)."""
    values = [rng.random() < 0.5 for _ in range(num_vars)]
    values[0], values[1] = True, False
    clauses = []
    while len(clauses) < num_clauses:
        clause = rng.sample(range(num_vars), 3)
        if len({values[v] for v in clause}) == 2:
            clauses.append(tuple(clause))
    return values, clauses


def formula_text(num_vars: int, clauses) -> str:
    return f"{num_vars} {len(clauses)}\n" + "".join(f"{a} {b} {c}\n" for a, b, c in clauses)


def planted_decomposition(rigid: int, free: int, free_size: int, rng: random.Random):
    """Matching classes whose coarsest merge is known.

    For every pair of the ``rigid`` classes i < j an isolated path a-b-c-d
    puts ab, cd in class i and bc in class j, so any union of two or more
    rigid classes has an induced path.  The ``free`` classes are matchings
    on fresh vertices and merge into rigid ones.  Coarsening therefore ends
    with exactly ``rigid`` classes, each holding one rigid class, after
    testing every subset of them.  Returns (n, classes, rigid class ids).
    """
    classes: list[list[tuple[int, int]]] = [[] for _ in range(rigid + free)]
    nxt = 0
    for i in range(rigid):
        for j in range(i + 1, rigid):
            a, b, c, d = range(nxt, nxt + 4)
            nxt += 4
            classes[i] += [(a, b), (c, d)]
            classes[j].append((b, c))
    for f in range(rigid, rigid + free):
        for _ in range(free_size):
            classes[f].append((nxt, nxt + 1))
            nxt += 2
    relabel = shuffled(nxt, rng)
    classes = [[tuple(sorted((relabel[u], relabel[v]))) for u, v in cls] for cls in classes]
    ids = list(range(len(classes)))
    rng.shuffle(ids)
    return nxt, [classes[i] for i in ids], {pos for pos, i in enumerate(ids) if i < rigid}


def is_matching(edges) -> bool:
    seen: set[int] = set()
    for u, v in edges:
        if u in seen or v in seen:
            return False
        seen.update((u, v))
    return True
