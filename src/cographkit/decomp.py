"""Cograph edge decompositions: validation, proper-coloring construction,
greedy coarsening, and exact minimum search.

A decomposition splits the edge set of a host graph into classes whose
class graphs (on the full vertex set) must all be induced-path free.
Partitions require pairwise disjoint classes; covers may overlap.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterator, NamedTuple, Sequence

from .cotree import _cotree_or_witness
from .graph import Graph, P4Witness, _bits, _check_vertex_count, _is_int, hypercube

__all__ = [
    "PARTITION",
    "COVER",
    "Decomposition",
    "ValidationFault",
    "SearchOutcome",
    "SolveResult",
    "SOLVED",
    "INFEASIBLE",
    "TIMEOUT",
    "validate",
    "vizing_partition",
    "greedy_partition",
    "coarsen",
    "is_coarsest",
    "p4_constraints",
    "search_assignments",
    "exact_min_partition",
    "exact_min_cover",
    "layers_partition",
    "decomposition_to_json",
    "decomposition_from_json",
]

PARTITION = "partition"
COVER = "cover"

Edge = tuple[int, int]


def _canon_edge(e: Edge) -> Edge:
    u, v = e
    return (u, v) if u < v else (v, u)


# the subclass checks its arguments in __new__, which a NamedTuple body
# cannot define
class _DecompositionFields(NamedTuple):
    host: Graph
    classes: tuple[frozenset[Edge], ...]
    mode: str = PARTITION


class Decomposition(_DecompositionFields):
    """Family of edge classes over a host graph.

    ``classes[i]`` holds canonical (u, v) pairs with u < v; ``mode`` is
    ``"partition"`` or ``"cover"``.
    """

    __slots__ = ()

    def __new__(cls, host: Graph, classes, mode: str = PARTITION) -> Decomposition:
        if mode not in (PARTITION, COVER):
            raise ValueError(f"mode must be {PARTITION!r} or {COVER!r}, got {mode!r}")
        classes = tuple(frozenset(_canon_edge(e) for e in c) for c in classes)
        return super().__new__(cls, host, classes, mode)

    @property
    def k(self) -> int:
        return len(self.classes)

    def sorted_classes(self) -> list[list[Edge]]:
        return [sorted(cls) for cls in self.classes]


class ValidationFault(NamedTuple):
    """First problem found by ``validate``; kind names the broken rule."""

    kind: str  # "foreign-edge" | "coverage" | "overlap" | "class-not-cograph"
    class_index: int | None = None
    witness: P4Witness | None = None
    detail: str = ""


def validate(d: Decomposition) -> ValidationFault | None:
    """None when the decomposition is well formed and every class graph
    is induced-path free; otherwise the first fault in a fixed scan order
    (foreign edges, coverage, overlaps, then per-class recognition).

    Each class is tested on the vertices its edges touch, not on all n:
    an isolated vertex lies on no induced path, and ``recognize`` on the
    full class graph splits those vertices off first, so the witness is
    the one it would report."""
    host_edges = d.host.edge_set
    for idx, cls in enumerate(d.classes):
        for e in sorted(cls):
            if e not in host_edges:
                return ValidationFault(
                    kind="foreign-edge",
                    class_index=idx,
                    detail=f"class {idx} contains non-host edge {e}",
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


def _adjacency(edges) -> dict[int, int]:
    """``{vertex: adjacency mask}`` of the vertices the edges touch."""
    adj: dict[int, int] = {}
    for u, v in edges:
        adj[u] = adj.get(u, 0) | 1 << v
        adj[v] = adj.get(v, 0) | 1 << u
    return adj


def _class_witness(adj: dict[int, int]) -> P4Witness | None:
    """First induced path of the graph on the vertices of ``adj`` (a
    ``{vertex: adjacency mask}`` map), or None when it is a cograph: the
    witness ``cotree._cotree_or_witness`` reports.  An empty map is a
    cograph and is not split."""
    if not adj:
        return None
    result = _cotree_or_witness(adj, sum(1 << v for v in adj))
    return result if isinstance(result, P4Witness) else None


# ---------------------------------------------------------------------------
# proper edge coloring (fan rotation / alternating path recoloring)
# ---------------------------------------------------------------------------


def _free_color(taken: int) -> int:
    """Smallest color c >= 1 whose bit is clear in ``taken``."""
    taken |= 1
    return (~taken & (taken + 1)).bit_length() - 1


def vizing_partition(g: Graph) -> Decomposition:
    """Partition into at most max_degree + 1 matchings via proper edge coloring.

    Uses the Misra-Gries fan/rotation scheme, so the bound holds for
    every input; each color class is a matching and therefore a cograph.
    An edgeless graph yields the single empty class, keeping k total.
    Classes come out in ascending color order.
    """
    if not g.edges:
        return Decomposition(g, (frozenset(),), PARTITION)
    palette = g.max_degree() + 1
    at: list[dict[int, int]] = [dict() for _ in range(g.n)]  # color -> neighbor
    used = [0] * g.n  # bit c set when color c (1..palette) is taken at v

    for u, v in g.edges:
        # maximal fan of u starting at v: each next fan edge's color is
        # free at the previous fan vertex; the lowest such color wins
        at_u = at[u]
        fan_colors = []  # colors of the fan edges after u-v, in fan order
        avail = used[u]
        last = v
        while True:
            cand = avail & ~used[last]
            if not cand:
                break
            low = cand & -cand
            avail ^= low
            col = low.bit_length() - 1
            fan_colors.append(col)
            last = at_u[col]
        c = _free_color(used[u])
        d = _free_color(used[last])
        assert max(c, d) <= palette, "palette exhausted"
        if d != c and used[u] >> d & 1:
            # swap d and c on the maximal alternating d/c path starting at u;
            # interior path vertices keep both colors, only the two ends flip
            x, y = u, at_u.pop(d)
            at_u[c] = y
            a, b = d, c  # edge x-y was colored a and is now colored b
            while True:
                at_y = at[y]
                z = at_y.get(b)
                at_y[b] = x
                if z is None:
                    del at_y[a]
                    break
                at_y[a] = z
                x, y, a, b = y, z, b, a
            used[u] ^= 1 << c | 1 << d
            used[y] ^= 1 << c | 1 << d
            # of the edges at u, only its former d-edge changed color
            if d in fan_colors:
                fan_colors[fan_colors.index(d)] = c
        # rotate up to the first fan vertex w with d free: each fan edge
        # passes its color to the edge before it, then u-w takes d
        w = v
        for col in fan_colors:
            if not used[w] >> d & 1:
                break
            assert not used[w] >> col & 1, "prefix is still a fan"
            x = at_u[col]
            at_u[col] = w
            at[w][col] = u
            used[w] |= 1 << col
            del at[x][col]
            used[x] ^= 1 << col
            w = x
        assert not used[w] >> d & 1, "fan rotation target must exist"
        at_u[d] = w
        at[w][d] = u
        used[w] |= 1 << d
        used[u] |= 1 << d

    buckets: dict[int, list[Edge]] = {}
    for x in range(g.n):
        for col, y in at[x].items():
            if x < y:
                buckets.setdefault(col, []).append((x, y))
    classes = tuple(frozenset(buckets[col]) for col in sorted(buckets))
    return Decomposition(g, classes, PARTITION)


def greedy_partition(g: Graph, stats: dict | None = None) -> Decomposition:
    """Proper-coloring partition coarsened by greedy class merging;
    ``stats`` is handed to ``coarsen``."""
    return coarsen(vizing_partition(g), stats)


# ---------------------------------------------------------------------------
# coarsening
# ---------------------------------------------------------------------------


def _open_subsets(k: int, size: int, nogoods: list[tuple[int, int]]) -> Iterator[tuple[int, ...]]:
    """The ``size``-subsets of ``range(k)`` in lexicographic order, minus those
    a nogood rules out.

    A nogood ``(S, H)`` of class bitmasks rules out every subset that
    contains S and avoids H.  The subsets are built depth first, and a prefix
    p is dropped with its whole subtree once a nogood has S within p and H
    within {0..last(p)} minus p, since no completion of p can meet H.  Each
    open prefix keeps its armed nogoods (S within p, H avoiding p); a nogood
    is armed when the prefix takes the highest class of its S.  ``nogoods``
    is read once, before the first subset is yielded.
    """
    by_top: list[list[tuple[int, int]]] = [[] for _ in range(k)]
    for s, h in nogoods:
        by_top[s.bit_length() - 1].append((s, h))
    stack: list[list] = [[0, 0, []]]  # open prefixes: [next index, prefix mask, armed nogoods]
    while stack:
        top = stack[-1]
        i, pmask, armed = top
        depth = pmask.bit_count()
        if k - i < size - depth:
            stack.pop()
            continue
        top[0] = i + 1
        bit = 1 << i
        mask = pmask | bit
        armed = [(s, h) for s, h in armed if not h & bit]
        armed += [(s, h) for s, h in by_top[i] if not s & ~mask and not h & mask]
        if depth + 1 == size:
            if not armed:
                yield tuple(_bits(mask))
            continue
        low = (bit << 1) - 1
        if any(not h & ~low for _, h in armed):
            continue
        stack.append([i + 1, mask, armed])


def _first_cograph_union(
    classes: Sequence[frozenset[Edge]], stats: dict | None = None
) -> tuple[tuple[int, ...], frozenset[Edge]] | None:
    """First subset of two or more classes whose union is induced-path
    free, smallest subsets first and lexicographic within a size, with
    that union; None when there is none.

    Each class becomes a ``{vertex: adjacency mask}`` map once; a subset
    ORs the maps of its classes and recognizes the union on the vertices
    it touches (an isolated vertex lies on no induced path).  A failing
    subset S yields an induced path a-b-c-d of its union and the set H of
    classes holding one of the chords ac, bd, ad.  Every superset of S that
    avoids H keeps that path induced, so ``_open_subsets`` never hands it
    out, and the first union found is the one the full scan would find.
    A nogood of one size rules out no other subset of that size, so each
    size's scan reads the nogoods of the smaller sizes only.
    ``stats``, when given, has its ``unions_tested`` count raised once per
    subset recognized.
    """
    adjs = [_adjacency(cls) for cls in classes]
    holders: dict[Edge, int] = {}
    for i, cls in enumerate(classes):
        for e in cls:
            holders[e] = holders.get(e, 0) | 1 << i
    nogoods: list[tuple[int, int]] = []
    for size in range(2, len(classes) + 1):
        for subset in _open_subsets(len(classes), size, nogoods):
            if stats is not None:
                stats["unions_tested"] += 1
            union = adjs[subset[0]].copy()
            for i in subset[1:]:
                for v, nb in adjs[i].items():
                    union[v] = union.get(v, 0) | nb
            witness = _class_witness(union)
            if witness is None:
                return subset, frozenset().union(*(classes[i] for i in subset))
            a, b, c, d = witness
            chords = 0
            for e in ((a, c), (b, d), (a, d)):
                chords |= holders.get(_canon_edge(e), 0)
            nogoods.append((sum(1 << i for i in subset), chords))
    return None


def coarsen(d: Decomposition, stats: dict | None = None) -> Decomposition:
    """Merge classes while some union of classes stays induced-path free.

    Repeatedly replaces the lexicographically first mergeable subset
    (smallest subsets first) by its union, so the result is coarsest and
    deterministic.  Invalid input is rejected.  Each round skips the
    subsets an induced path of a smaller failing union already rules out
    (see ``_first_cograph_union``).  Unlike ``is_coarsest`` there is no
    limit on k, and no budget: the skipping leaves the worst case of a
    round exponential in k.

    ``stats``, when given, receives ``unions_tested`` (class subsets whose
    union was recognized) and ``merges`` (subsets replaced by their union).
    """
    fault = validate(d)
    if fault is not None:
        raise ValueError(f"cannot coarsen an invalid decomposition: {fault}")
    if stats is not None:
        stats["unions_tested"] = 0
        stats["merges"] = 0
    classes = list(d.classes)
    while len(classes) > 1:
        merged = _first_cograph_union(classes, stats)
        if merged is None:
            break
        subset, union = merged
        keep = [cls for i, cls in enumerate(classes) if i not in subset]
        keep.insert(subset[0], union)
        classes = keep
        if stats is not None:
            stats["merges"] += 1
    return Decomposition(d.host, tuple(classes), d.mode)


def is_coarsest(d: Decomposition) -> bool:
    """True when no union of two or more classes is induced-path free.

    Guarded to k <= 20: the scan skips the subsets that induced paths of
    smaller unions rule out, but a class holding a chord of each such path
    keeps its supersets open, so a scan may still visit up to 2^k subsets,
    and no budget bounds it yet.
    """
    fault = validate(d)
    if fault is not None:
        raise ValueError(f"cannot test an invalid decomposition: {fault}")
    if d.k > 20:
        raise ValueError(f"subset scan limited to 20 classes, got {d.k}")
    return _first_cograph_union(d.classes) is None


# ---------------------------------------------------------------------------
# induced-path constraints and the exact search engine
# ---------------------------------------------------------------------------


_Constraint = tuple[int, int, int, tuple[int, ...]]


def p4_constraints(g: Graph, limit: int | None = None) -> list[_Constraint]:
    """One constraint per length-3 path (as a subgraph) of g.

    A path a-b-c-d with a < d becomes ``(ab, bc, cd, chords)``: ids into
    ``g.edges`` of its three edges, then of those of ac, bd, ad (in that
    order) that are host edges, possibly none.  A class violates the
    constraint exactly when it holds the three path edges and none of the
    chords.  Paths come edge by edge in host order, each edge b-c in both
    orientations, then by a and d ascending.  With ``limit`` the scan
    stops as soon as it holds limit + 1 constraints, so a longer result
    than ``limit`` is a truncated prefix that only shows the count is
    over it.
    """
    ids: list[dict[int, int]] = [{} for _ in range(g.n)]  # neighbour -> edge id, ascending
    for i, (u, v) in enumerate(g.edges):
        ids[u][v] = i
        ids[v][u] = i
    out = []
    for bc, edge in enumerate(g.edges):
        for b, c in (edge, edge[::-1]):
            at_b, at_c = ids[b], ids[c]
            for a, ab in at_b.items():
                if a == c:
                    continue
                at_a = ids[a]
                ac = at_a.get(c)
                for d, cd in at_c.items():
                    if d == b or d <= a:
                        continue
                    chords = tuple(e for e in (ac, at_b.get(d), at_a.get(d)) if e is not None)
                    out.append((ab, bc, cd, chords))
                    if limit is not None and len(out) > limit:
                        return out
    return out


class SearchOutcome(NamedTuple):
    """Raw result of the assignment search.

    ``solutions`` holds per-edge class bitmasks in host edge order;
    ``completed`` is False when the node budget ran out first.
    """

    solutions: list[tuple[int, ...]]
    nodes: int
    completed: bool


def search_assignments(
    host: Graph,
    k: int,
    mode: str = PARTITION,
    *,
    forced: dict[Edge, int] | None = None,
    find_all: bool = False,
    symmetry: bool = True,
    prune: bool = True,
    node_budget: int | None = None,
    constraints: list[_Constraint] | None = None,
) -> SearchOutcome:
    """Backtracking search over per-edge class assignments.

    Partition mode assigns each edge one class (a singleton bitmask),
    cover mode any non-empty subset of the k classes.  Search order:
    edges by endpoint degree sum descending, candidate masks ascending.

    With ``prune`` the induced-path constraints are propagated.  Each
    unassigned edge keeps the classes it may not contain and the classes
    it must contain.  After an assignment, every constraint of that edge
    is examined: when two path edges share a class, the third is
    unassigned and every chord is assigned outside that class, the third
    edge is banned from it; when all three path edges share a class and
    the assigned chords miss it, a conflict is reported if no chord is
    open, and a single open chord is required to take the class.  An
    emptied domain backtracks; a domain left with one mask is assigned
    at once and propagated in turn.  Such implied edges are not search
    nodes: when the search reaches one, it only applies the symmetry
    test below to its mask.  Propagation only removes masks that cannot
    be part of a solution, so the solutions and their order are exactly
    those of the unpruned search (``prune=False``), which checks each
    complete assignment instead.  ``nodes`` counts the candidate masks
    actually tried.

    ``symmetry`` breaks class relabeling: a fresh class id may only be
    introduced as the next unused one.  ``forced`` pins host edges to
    fixed bitmasks (only with ``symmetry=False``).  ``constraints`` is
    the host's ``p4_constraints`` list, edge-id tuples used as they are,
    when the caller already has it; otherwise it is built here, and a
    budget smaller than its length ends the search before it starts, as
    not completed.  A negative ``node_budget`` is rejected.
    """
    if k < 1:
        raise ValueError(f"class count must be at least 1, got {k}")
    if mode not in (PARTITION, COVER):
        raise ValueError(f"mode must be {PARTITION!r} or {COVER!r}, got {mode!r}")
    if forced and symmetry:
        raise ValueError("forced assignments require symmetry=False")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    edges = host.edges
    m = len(edges)
    if m == 0:
        return SearchOutcome(solutions=[()], nodes=0, completed=True)
    eidx = {e: i for i, e in enumerate(edges)}
    forced_mask = [0] * m
    for e, mask in (forced or {}).items():
        ce = _canon_edge(e)
        if ce not in eidx:
            raise ValueError(f"forced edge {e} is not a host edge")
        if not 0 < mask < 1 << k:
            raise ValueError(f"forced mask {mask} for edge {e} is out of range")
        if mode == PARTITION and mask & (mask - 1):
            raise ValueError(f"forced mask {mask} is not a single class in partition mode")
        forced_mask[eidx[ce]] = mask
    if constraints is None:
        constraints = p4_constraints(host, node_budget)
        if node_budget is not None and len(constraints) > node_budget:
            return SearchOutcome(solutions=[], nodes=0, completed=False)

    deg = [host.degree(v) for v in range(host.n)]
    order = sorted(range(m), key=lambda i: (-(deg[edges[i][0]] + deg[edges[i][1]]), edges[i]))
    if prune:
        return _propagating_search(order, constraints, k, mode, forced_mask, find_all, symmetry, node_budget)
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


def _breaks_symmetry(mask: int, used: int) -> bool:
    """True when mask introduces classes other than the next unused ids."""
    fresh = mask & ~used
    return bool(fresh) and fresh != ((1 << fresh.bit_count()) - 1) << used.bit_length()


def _propagating_search(
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


SOLVED = "solved"
INFEASIBLE = "infeasible"
TIMEOUT = "timeout"


class SolveResult(NamedTuple):
    """Outcome of a minimum-k search.

    ``infeasible_below`` is the largest k proven to admit no solution;
    on timeout it records how far the proof got (never reported as
    infeasible).  ``nodes_per_k`` holds the search nodes of each k
    searched, from k = 1 up; they sum to ``nodes``.
    """

    status: str
    decomposition: Decomposition | None
    nodes: int
    infeasible_below: int
    nodes_per_k: tuple[int, ...] = ()


def _masks_to_decomposition(g: Graph, masks: tuple[int, ...], k: int, mode: str) -> Decomposition:
    classes = tuple(
        frozenset(e for e, mask in zip(g.edges, masks) if mask >> b & 1)
        for b in range(k)
    )
    return Decomposition(g, classes, mode)


def _exact_min(g: Graph, k_max: int, node_budget: int | None, mode: str) -> SolveResult:
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {k_max}")
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {node_budget}")
    if not g.edges:
        d = Decomposition(g, (frozenset(),), mode)
        return SolveResult(SOLVED, d, nodes=0, infeasible_below=0)
    constraints = p4_constraints(g, node_budget)
    if node_budget is not None and len(constraints) > node_budget:
        return SolveResult(TIMEOUT, None, nodes=0, infeasible_below=0)
    per_k: list[int] = []

    def result(status: str, proven: int, d: Decomposition | None = None) -> SolveResult:
        return SolveResult(status, d, sum(per_k), proven, tuple(per_k))

    for k in range(1, k_max + 1):
        remaining = None if node_budget is None else node_budget - sum(per_k)
        if remaining is not None and remaining <= 0:
            return result(TIMEOUT, k - 1)
        out = search_assignments(g, k, mode, node_budget=remaining, constraints=constraints)
        per_k.append(out.nodes)
        if out.solutions:
            return result(SOLVED, k - 1, _masks_to_decomposition(g, out.solutions[0], k, mode))
        if not out.completed:
            return result(TIMEOUT, k - 1)
    return result(INFEASIBLE, k_max)


def exact_min_partition(g: Graph, k_max: int, node_budget: int | None = None) -> SolveResult:
    """Smallest k <= k_max admitting a valid k-partition, by exhaustive search.

    Classes are tried in ascending k with relabeling symmetry broken, so
    the returned partition is the canonical first solution.  The budget
    counts explored assignment nodes, summed over k; the constraints are
    built once, and more of them than the budget also reports timeout.
    Exceeding it reports timeout, never infeasibility.
    """
    return _exact_min(g, k_max, node_budget, PARTITION)


def exact_min_cover(g: Graph, k_max: int, node_budget: int | None = None) -> SolveResult:
    """Smallest k <= k_max admitting a valid k-cover (classes may overlap)."""
    return _exact_min(g, k_max, node_budget, COVER)


# ---------------------------------------------------------------------------
# hypercube layer partition
# ---------------------------------------------------------------------------


def layers_partition(half_dim: int) -> Decomposition:
    """Partition of the 2n-cube into n classes of square layers.

    An edge flipping coordinate c lands in class c // 2, so each class
    collects the 4-cycle layers of one coordinate pair and is a disjoint
    union of squares.
    """
    if half_dim < 1:
        raise ValueError(f"half dimension must be at least 1, got {half_dim}")
    host = hypercube(2 * half_dim)
    classes: list[set[Edge]] = [set() for _ in range(half_dim)]
    for u, v in host.edges:
        bit = (u ^ v).bit_length() - 1
        classes[bit // 2].add((u, v))
    return Decomposition(host, tuple(frozenset(c) for c in classes), PARTITION)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def decomposition_to_json(d: Decomposition) -> dict:
    """JSON object {"mode", "k", "n", "classes"} with sorted edge lists."""
    return {
        "mode": d.mode,
        "k": d.k,
        "n": d.host.n,
        "classes": [[[u, v] for u, v in cls] for cls in d.sorted_classes()],
    }


def decomposition_from_json(obj: dict, host: Graph | None = None) -> Decomposition:
    """Rebuild a decomposition; without an explicit host the vertex count
    comes from "n" and the host edges are the union of the classes.

    Malformed input raises ValueError: "classes" must be a list of
    classes, each a list of [u, v] integer pairs, "k" must be an integer,
    and "n" an integer of at most ``graph.MAX_VERTICES``.
    """
    if not isinstance(obj, dict):
        raise ValueError("decomposition JSON must be an object")
    for field in ("mode", "k", "classes"):
        if field not in obj:
            raise ValueError(f"decomposition JSON is missing {field!r}")
    raw = obj["classes"]
    if not isinstance(raw, (list, tuple)) or not all(
        isinstance(cls, (list, tuple))
        and all(isinstance(e, (list, tuple)) and len(e) == 2 and all(map(_is_int, e)) for e in cls)
        for cls in raw
    ):
        raise ValueError("decomposition JSON \"classes\" must be a list of lists of [u, v] integer pairs")
    classes = tuple(frozenset(_canon_edge((u, v)) for u, v in cls) for cls in raw)
    if not _is_int(obj["k"]):
        raise ValueError(f"decomposition JSON \"k\" must be an integer, got {obj['k']!r}")
    if obj["k"] != len(classes):
        raise ValueError(f"declared k={obj['k']} but found {len(classes)} classes")
    n = obj.get("n")
    if "n" in obj and not _is_int(n):
        raise ValueError(f"decomposition JSON \"n\" must be an integer, got {n!r}")
    _check_vertex_count(n)
    if host is None:
        if n is None:
            raise ValueError("decomposition JSON needs \"n\" when no host graph is given")
        union = sorted(set().union(*classes)) if classes else []
        host = Graph(n, union)
    elif n is not None and n != host.n:
        raise ValueError(f"declared n={n} does not match the host graph ({host.n})")
    return Decomposition(host, classes, obj["mode"])
