"""Cograph edge decompositions: validation, proper-coloring construction,
greedy coarsening, and exact minimum search.

A decomposition splits the edge set of a host graph into classes whose
class graphs (on the full vertex set) must all be induced-path free.
Partitions require pairwise disjoint classes; covers may overlap.
"""

from __future__ import annotations

from functools import partial
from itertools import combinations
from typing import Collection, Iterator, NamedTuple, Sequence

from .cotree import _cotree_or_witness
from .graph import Graph, P4Witness, _bits, _check_vertex_count, _excerpt, _is_int, hypercube

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
    """``e`` as a (u, v) tuple with u < v: ``e`` itself when it is one, as in ``Graph``, else a copy."""
    u, v = e
    if u < v:
        return e if type(e) is tuple else (u, v)
    return (v, u)


# the subclass checks its arguments in __new__, which a NamedTuple body
# cannot define
class _DecompositionFields(NamedTuple):
    host: Graph
    classes: tuple[frozenset[Edge], ...]
    mode: str = PARTITION


class Decomposition(_DecompositionFields):
    """Family of edge classes over a host graph.

    ``classes[i]`` holds canonical (u, v) pairs with u < v; ``mode`` is
    ``"partition"`` or ``"cover"``.  A class may be given as any iterable of
    pairs, read once; a pair that is already a canonical tuple is kept.
    """

    __slots__ = ()

    def __new__(cls, host: Graph, classes, mode: str = PARTITION) -> Decomposition:
        _check_mode(mode)
        classes = tuple(frozenset(map(_canon_edge, c)) for c in classes)
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
        if foreign := cls - host_edges:
            return ValidationFault(
                kind="foreign-edge",
                class_index=idx,
                detail=f"class {idx} contains non-host edge {_excerpt(min(foreign))}",
            )
    covered = set().union(*d.classes)
    missing = sorted(host_edges - covered)
    if missing:
        return ValidationFault(kind="coverage", detail=f"host edges not covered: {_excerpt(missing)}")
    # classes overlap exactly when their sizes sum past their union; pairs only name it
    if d.mode == PARTITION and sum(map(len, d.classes)) > len(covered):
        for i, j in combinations(range(len(d.classes)), 2):
            shared = sorted(d.classes[i] & d.classes[j])
            if shared:
                return ValidationFault(
                    kind="overlap",
                    class_index=i,
                    detail=f"classes {i} and {j} share edges {_excerpt(shared)}",
                )
    for idx, cls in enumerate(d.classes):
        witness = _class_witness(_adjacency(cls))
        if witness is not None:
            return ValidationFault(kind="class-not-cograph", class_index=idx, witness=witness)
    return None


class _InvalidDecomposition(ValueError):
    """Refusal of the validity gate; ``fault`` is what ``validate`` found."""


def _require_valid(d: Decomposition, action: str) -> None:
    """The one validity gate: ``validate`` runs once, and a refusal carries its fault."""
    fault = validate(d)
    if fault is not None:
        exc = _InvalidDecomposition(f"cannot {action} an invalid decomposition: {fault}")
        exc.fault = fault
        raise exc


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


def vizing_partition(g: Graph) -> Decomposition:
    """Partition into at most max_degree + 1 matchings via proper edge coloring.

    Edges are colored in host edge order.  Each takes the lowest color
    free at both of its ends; an edge with no such color gets the
    Misra-Gries fan/rotation step, so the bound holds for every input.
    Each color class is a matching and therefore a cograph.
    An edgeless graph yields the single empty class, keeping k total.
    Classes come out in ascending color order and hold the host's own
    edge tuples; the per-vertex color maps are freed before the classes
    are built.
    """
    if not g.edges:
        return Decomposition(g, ((),), PARTITION)
    palette = g.max_degree() + 1
    # color -> the host's tuple of the edge with that color at v; the
    # other end of edge e at v is e[0] + e[1] - v
    at: list[dict[int, Edge]] = [dict() for _ in range(g.n)]
    used = [0] * g.n  # bit c set when color c (1..palette) is taken at v

    for e in g.edges:
        u, v = e
        # the lowest clear bit of taken is the lowest free color c >= 1;
        # bit 0 is never a color
        taken = used[u] | used[v] | 1
        bit = ~taken & (taken + 1)
        c = bit.bit_length() - 1
        if c <= palette:  # a color free at both ends needs no fan
            at[u][c] = at[v][c] = e
            used[u] |= bit
            used[v] |= bit
            continue
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
            f = at_u[col]
            last = f[0] + f[1] - u
        taken = used[u] | 1
        c = (~taken & (taken + 1)).bit_length() - 1
        taken = used[last] | 1
        d = (~taken & (taken + 1)).bit_length() - 1
        assert max(c, d) <= palette, "palette exhausted"
        if d != c and used[u] >> d & 1:
            # swap d and c on the maximal alternating d/c path starting at u;
            # interior path vertices keep both colors, only the two ends flip
            f = at_u.pop(d)
            at_u[c] = f
            y = f[0] + f[1] - u
            a, b = d, c  # edge f, ending at y, was colored a and is now colored b
            while True:
                at_y = at[y]
                h = at_y.get(b)
                at_y[b] = f
                if h is None:
                    del at_y[a]
                    break
                at_y[a] = h
                f, y, a, b = h, h[0] + h[1] - y, b, a
            used[u] ^= 1 << c | 1 << d
            used[y] ^= 1 << c | 1 << d
            # of the edges at u, only its former d-edge changed color
            if d in fan_colors:
                fan_colors[fan_colors.index(d)] = c
        # rotate up to the first fan vertex w with d free: each fan edge
        # passes its color to the edge before it, then u-w (edge f) takes d
        w, f = v, e
        for col in fan_colors:
            if not used[w] >> d & 1:
                break
            assert not used[w] >> col & 1, "prefix is still a fan"
            h = at_u[col]
            x = h[0] + h[1] - u
            at_u[col] = at[w][col] = f
            used[w] |= 1 << col
            del at[x][col]
            used[x] ^= 1 << col
            w, f = x, h
        assert not used[w] >> d & 1, "fan rotation target must exist"
        at_u[d] = at[w][d] = f
        used[w] |= 1 << d
        used[u] |= 1 << d

    buckets: dict[int, list[Edge]] = {}
    for x, at_x in enumerate(at):
        for col, e in at_x.items():
            if e[0] == x:  # each edge once, from its lower end
                buckets.setdefault(col, []).append(e)
    del at
    return Decomposition(g, [buckets[col] for col in sorted(buckets)], PARTITION)


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
    classes: Sequence[Collection[Edge]], stats: dict
) -> tuple[tuple[int, ...], set[Edge]] | None:
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
    ``stats`` has its ``unions_tested`` count raised once per subset
    recognized.
    """
    adjs = [_adjacency(cls) for cls in classes]
    holders: dict[Edge, int] = {}
    for i, cls in enumerate(classes):
        for e in cls:
            holders[e] = holders.get(e, 0) | 1 << i
    nogoods: list[tuple[int, int]] = []
    for size in range(2, len(classes) + 1):
        for subset in _open_subsets(len(classes), size, nogoods):
            stats["unions_tested"] += 1
            union = adjs[subset[0]].copy()
            for i in subset[1:]:
                for v, nb in adjs[i].items():
                    union[v] = union.get(v, 0) | nb
            witness = _class_witness(union)
            if witness is None:
                return subset, set().union(*(classes[i] for i in subset))
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
    _require_valid(d, "coarsen")
    stats = {} if stats is None else stats
    stats.update(unions_tested=0, merges=0)
    classes = list(d.classes)
    while len(classes) > 1:
        merged = _first_cograph_union(classes, stats)
        if merged is None:
            break
        subset, union = merged
        keep = [cls for i, cls in enumerate(classes) if i not in subset]
        keep.insert(subset[0], union)
        classes = keep
        stats["merges"] += 1
    return Decomposition(d.host, classes, d.mode)


def is_coarsest(d: Decomposition) -> bool:
    """True when no union of two or more classes is induced-path free.

    Guarded to k <= 20: the scan skips the subsets that induced paths of
    smaller unions rule out, but a class holding a chord of each such path
    keeps its supersets open, so a scan may still visit up to 2^k subsets,
    and no budget bounds it yet.
    """
    _require_valid(d, "test")
    if d.k > 20:
        raise ValueError(f"subset scan limited to 20 classes, got {d.k}")
    return _first_cograph_union(d.classes, {"unions_tested": 0}) is None


# ---------------------------------------------------------------------------
# induced-path constraints and the exact search engine
# ---------------------------------------------------------------------------


_Constraint = tuple[int, int, int, tuple[int, ...]]


def p4_constraints(g: Graph) -> list[_Constraint]:
    """One constraint per length-3 path (as a subgraph) of g.

    A path a-b-c-d with a < d becomes ``(ab, bc, cd, chords)``: ids into
    ``g.edges`` of its three edges, then of those of ac, bd, ad (in that
    order) that are host edges, possibly none.  A class violates the
    constraint exactly when it holds the three path edges and none of the
    chords.  Paths come edge by edge in host order, each edge b-c in both
    orientations, then by a and d ascending.
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
                ac_only = () if ac is None else (ac,)
                for d, cd in at_c.items():
                    if d == b or d <= a:
                        continue
                    bd = at_b.get(d)
                    ad = at_a.get(d)
                    if bd is None:
                        chords = ac_only if ad is None else ac_only + (ad,)
                    else:
                        chords = ac_only + ((bd,) if ad is None else (bd, ad))
                    out.append((ab, bc, cd, chords))
    return out


class _SearchIndex(NamedTuple):
    """The search input of one host, built once by ``_search_index`` and
    shared by every search on it: the host, its ``p4_constraints`` list, the
    edge ids in search order, and the constraints of each edge."""

    host: Graph
    constraints: list[_Constraint]
    order: list[int]
    cons_of: list[list[_Constraint]]


def _check_mode(mode: str) -> None:
    """Reject a mode other than partition or cover, quoting it in bounded form."""
    if mode not in (PARTITION, COVER):
        raise ValueError(f"mode must be {PARTITION!r} or {COVER!r}, got {_excerpt(mode)}")


def _check_budget(node_budget: int | None) -> None:
    """Reject a negative node budget, quoting it in bounded form."""
    if node_budget is not None and node_budget < 0:
        raise ValueError(f"node budget must be non-negative, got {_excerpt(node_budget)}")


def _search_index(host: Graph, node_budget: int | None) -> _SearchIndex | None:
    """The search input of ``host``, or None when its constraints outnumber
    ``node_budget`` (a negative budget is rejected): edges by endpoint degree
    sum descending, then in host edge order, and the constraints of each
    edge (its path edges' and chords').  They are counted before any is
    built: an edge bc is the middle of (deg b - 1)(deg c - 1) - |N(b) & N(c)| of them."""
    _check_budget(node_budget)
    adj = host._adj
    deg = [host.degree(v) for v in range(host.n)]
    if node_budget is not None and node_budget < sum(
        (deg[b] - 1) * (deg[c] - 1) - (adj[b] & adj[c]).bit_count() for b, c in host.edges
    ):
        return None
    constraints = p4_constraints(host)
    sums = [deg[u] + deg[v] for u, v in host.edges]
    # a stable sort keeps equal sums in host edge order, reversed or not
    order = sorted(range(len(sums)), key=sums.__getitem__, reverse=True)
    cons_of: list[list[_Constraint]] = [[] for _ in order]
    for con in constraints:
        p1, p2, p3, chords = con
        cons_of[p1].append(con)
        cons_of[p2].append(con)
        cons_of[p3].append(con)
        for ch in chords:
            cons_of[ch].append(con)
    return _SearchIndex(host, constraints, order, cons_of)


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
    constraints: _SearchIndex | None = None,
) -> SearchOutcome:
    """Backtracking search over per-edge class assignments.

    Partition mode assigns each edge one class (a singleton bitmask),
    cover mode any non-empty subset of the k classes.  Search order:
    edges by endpoint degree sum descending, candidate masks ascending.

    With ``prune`` the induced-path constraints are propagated.  Each
    unassigned edge keeps the classes it may not contain and the classes
    it must contain.  After an assignment, one rule is applied to every
    constraint of that edge.  Let bad be the classes its assigned path
    edges share and its assigned chords miss.  With two or more members
    (path edges or chords) open nothing follows; with one open, an open
    path edge is banned from bad and an open chord must take bad; with
    none open, a non-empty bad is a conflict.  An emptied domain
    backtracks; a domain left with one mask is assigned at once and
    propagated in turn.  Such implied edges are not search nodes: when
    the search reaches one, it only applies the symmetry test below to
    its mask.  Propagation only removes masks that cannot be part of a
    solution, so the solutions and their order are exactly those of the
    unpruned search (``prune=False``).  That search skips no node: it
    settles each constraint once, at the search position of its last member
    (path edge or chord), and keeps a leaf whose settled constraints all
    hold.  A node under a prefix that already failed is still tried and
    counted, but settles nothing.  ``nodes`` counts the candidate masks
    actually tried.

    ``symmetry`` breaks class relabeling: a fresh class id may only be
    introduced as the next unused one.  ``forced`` pins host edges to
    fixed bitmasks (only with ``symmetry=False``).

    ``node_budget`` bounds the nodes and, first, the host's induced-path
    constraints, counted before any is built: more of them than the budget
    end the search before it starts, with no node and not completed.  A
    negative budget is rejected.  ``constraints`` is the host's search input
    from ``_search_index``, whose budget has bounded the constraints already
    (an index of another host is rejected); ``exact_min_partition`` and
    ``exact_min_cover`` prepare it once and pass it to the search of every
    k.  Without it the search prepares it under ``node_budget``.
    """
    if k < 1:
        raise ValueError(f"class count must be at least 1, got {_excerpt(k)}")
    _check_mode(mode)
    if forced and symmetry:
        raise ValueError("forced assignments require symmetry=False")
    _check_budget(node_budget)
    if constraints is not None and constraints.host != host:
        raise ValueError("the search index was built for another host")
    edges = host.edges
    m = len(edges)
    if m == 0:
        return SearchOutcome(solutions=[()], nodes=0, completed=True)
    forced_mask = [0] * m
    if forced:
        eidx = {e: i for i, e in enumerate(edges)}
        for e, mask in forced.items():
            ce = _canon_edge(e)
            if ce not in eidx:
                raise ValueError(f"forced edge {_excerpt(e)} is not a host edge")
            if not 0 < mask < 1 << k:
                raise ValueError(f"forced mask {_excerpt(mask)} for edge {e} is out of range")
            if mode == PARTITION and mask & (mask - 1):
                raise ValueError(f"forced mask {_excerpt(mask)} is not a single class in partition mode")
            forced_mask[eidx[ce]] = mask
    index = _search_index(host, node_budget) if constraints is None else constraints
    if index is None:
        return SearchOutcome(solutions=[], nodes=0, completed=False)
    engine = _propagating_search if prune else _unpruned_search
    return engine(index, k, mode, forced_mask, find_all, symmetry, node_budget)


def _breaks_symmetry(mask: int, used: int) -> bool:
    """True when mask introduces classes other than the next unused ids."""
    fresh = mask & ~used
    return bool(fresh) and fresh != ((1 << fresh.bit_count()) - 1) << used.bit_length()


def _holds(assign: list[int], constraints: list[_Constraint]) -> bool:
    """True when no constraint's path is induced in a class of ``assign``."""
    for p1, p2, p3, chords in constraints:
        bad = assign[p1] & assign[p2] & assign[p3]
        for ch in chords:
            bad &= ~assign[ch]
        if bad:
            return False
    return True


def _unpruned_search(
    index: _SearchIndex,
    k: int,
    mode: str,
    forced_mask: list[int],
    find_all: bool,
    symmetry: bool,
    node_budget: int | None,
) -> SearchOutcome:
    """The ``prune=False`` engine of ``search_assignments``: every candidate
    of every position is a node, on an explicit loop over positions so that
    the depth of the search is not bounded by recursion.  Each constraint is
    settled once, when the last of its members (path edges and chords) in
    search order is assigned; a prefix in which one settled constraint fails
    stays failed, and a leaf is a solution exactly when none failed.  A node
    under a failed prefix is still tried and counted, one at a time, but it
    runs only the symmetry and budget tests: it writes no assignment and
    settles nothing.  Each position's candidate list is built once: a free
    position shares the ascending masks 1 << i (partition mode) or i + 1
    (cover mode), made lazily on each entry, and a pinned one has its mask
    alone.  The last position is tried in a loop of its own."""
    order = index.order
    m = len(order)
    at = [0] * m  # position of each edge in search order
    for pos, e in enumerate(order):
        at[e] = pos
    settled: list[list[_Constraint]] = [[] for _ in order]  # constraints by last position
    for con in index.constraints:
        p1, p2, p3, chords = con
        settled[max(at[p1], at[p2], at[p3], *[at[ch] for ch in chords])].append(con)
    if mode == PARTITION:
        free = partial(map, (1).__lshift__, range(k))
    else:
        free = partial(iter, range(1, 1 << k))
    cands = [partial(iter, (forced_mask[e],)) if forced_mask[e] else free for e in order]
    limit = -1 if node_budget is None else node_budget  # nodes == limit: the budget is spent
    assign = [0] * m
    used = [0] * m  # with symmetry: the classes taken by the edges before each position
    left: list = [cands[0]()] + [None] * (m - 1)  # the untried candidates of each position
    # the position whose candidate fails a settled constraint, or m: the
    # prefix of each position up to it is clean, of each one past it failed
    failed = m
    solutions: list[tuple[int, ...]] = []
    nodes = 0
    last = m - 1
    pos = 0
    while True:
        if pos < last:
            if pos <= failed:
                failed = m
                for mask in left[pos]:
                    if symmetry and _breaks_symmetry(mask, used[pos]):
                        continue
                    if nodes == limit:
                        return SearchOutcome(solutions=solutions, nodes=nodes, completed=False)
                    nodes += 1
                    assign[order[pos]] = mask
                    if not _holds(assign, settled[pos]):
                        failed = pos
                    break
                else:
                    mask = 0  # no candidate left
            else:
                for mask in left[pos]:
                    if symmetry and _breaks_symmetry(mask, used[pos]):
                        continue
                    if nodes == limit:
                        return SearchOutcome(solutions=solutions, nodes=nodes, completed=False)
                    nodes += 1
                    break
                else:
                    mask = 0
            if mask:
                pos += 1
                if symmetry:
                    used[pos] = used[pos - 1] | mask
                if pos < last:
                    left[pos] = cands[pos]()
                    continue
        if pos == last:  # each candidate is a leaf
            if pos <= failed:
                e = order[pos]
                here = settled[pos]
                for mask in cands[pos]():
                    if symmetry and _breaks_symmetry(mask, used[pos]):
                        continue
                    if nodes == limit:
                        return SearchOutcome(solutions=solutions, nodes=nodes, completed=False)
                    nodes += 1
                    assign[e] = mask
                    if _holds(assign, here):
                        solutions.append(tuple(assign))
                        if not find_all:
                            return SearchOutcome(solutions=solutions, nodes=nodes, completed=True)
            else:
                for mask in cands[pos]():
                    if symmetry and _breaks_symmetry(mask, used[pos]):
                        continue
                    if nodes == limit:
                        return SearchOutcome(solutions=solutions, nodes=nodes, completed=False)
                    nodes += 1
        if pos == 0:
            return SearchOutcome(solutions=solutions, nodes=nodes, completed=True)
        pos -= 1


def _propagating_search(
    index: _SearchIndex,
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
    order = index.order
    cons_of = index.cons_of
    m = len(order)
    full = (1 << k) - 1
    partition = mode == PARTITION
    size = k if partition else full
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
            allowed = r
        elif allowed & (allowed - 1) and allowed != r:
            return True
        assign[e] = allowed
        queue.append(e)
        return True

    def propagate() -> bool:
        while queue:
            for p1, p2, p3, chords in cons_of[queue.pop()]:
                # bad: the classes the assigned path edges share and the
                # assigned chords miss; last: the one open member, or -1
                a1 = assign[p1]
                a2 = assign[p2]
                a3 = assign[p3]
                if a1 and a2:
                    bad = a1 & a2 & (a3 or full)
                    last = -1 if a3 else p3
                elif a3 and (a1 or a2):
                    bad = a3 & (a1 or a2)
                    last = p2 if a1 else p1
                else:
                    continue  # two path edges are open
                if not bad:
                    continue
                path_open = last >= 0
                for ch in chords:
                    a = assign[ch]
                    if a:
                        bad &= ~a
                    elif last < 0:
                        last = ch
                    else:
                        break  # two members are open
                else:
                    # an open path edge is banned from bad, an open chord must
                    # take it; with none open the path is induced in a class
                    if bad and (last < 0 or not (
                            restrict(last, bad, 0) if path_open else restrict(last, 0, bad))):
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
    classes = [[e for e, mask in zip(g.edges, masks) if mask >> b & 1] for b in range(k)]
    return Decomposition(g, classes, mode)


def _exact_min(g: Graph, k_max: int, node_budget: int | None, mode: str) -> SolveResult:
    if k_max < 1:
        raise ValueError(f"k_max must be at least 1, got {_excerpt(k_max)}")
    index = _search_index(g, node_budget)  # shared by the search of every k
    if index is None:
        return SolveResult(TIMEOUT, None, nodes=0, infeasible_below=0)
    if not g.edges:
        d = Decomposition(g, ((),), mode)
        return SolveResult(SOLVED, d, nodes=0, infeasible_below=0)
    per_k: list[int] = []

    def result(status: str, proven: int, d: Decomposition | None = None) -> SolveResult:
        return SolveResult(status, d, sum(per_k), proven, tuple(per_k))

    for k in range(1, k_max + 1):
        remaining = None if node_budget is None else node_budget - sum(per_k)
        if remaining is not None and remaining <= 0:
            return result(TIMEOUT, k - 1)
        out = search_assignments(g, k, mode, node_budget=remaining, constraints=index)
        per_k.append(out.nodes)
        if out.solutions:
            return result(SOLVED, k - 1, _masks_to_decomposition(g, out.solutions[0], k, mode))
        if not out.completed:
            return result(TIMEOUT, k - 1)
    return result(INFEASIBLE, k_max)


def exact_min_partition(g: Graph, k_max: int, node_budget: int | None = None) -> SolveResult:
    """Smallest k <= k_max admitting a valid k-partition, by exhaustive search.

    Classes are tried in ascending k with relabeling symmetry broken, so
    the returned partition is the canonical first solution.  The search
    input (the constraint list, the edge order and the constraints of each
    edge) is prepared once per host and shared by the search of every k.
    ``node_budget`` bounds the nodes, summed over k, and first the
    constraints, as in ``search_assignments``; running out reports timeout,
    never infeasibility.
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
        raise ValueError(f"half dimension must be at least 1, got {_excerpt(half_dim)}")
    host = hypercube(2 * half_dim)
    classes: list[list[Edge]] = [[] for _ in range(half_dim)]
    for e in host.edges:
        u, v = e
        bit = (u ^ v).bit_length() - 1
        classes[bit // 2].append(e)
    return Decomposition(host, classes, PARTITION)


# ---------------------------------------------------------------------------
# JSON form
# ---------------------------------------------------------------------------


def decomposition_to_json(d: Decomposition) -> dict:
    """JSON object {"mode", "k", "n", "classes"} with sorted edge lists; the
    class tuples go to the encoder as they are, which writes them as arrays."""
    return {"mode": d.mode, "k": d.k, "n": d.host.n, "classes": d.sorted_classes()}


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
    classes = [list(map(_canon_edge, cls)) for cls in raw]
    if not _is_int(obj["k"]):
        raise ValueError(f"decomposition JSON \"k\" must be an integer, got {_excerpt(obj['k'])}")
    if obj["k"] != len(classes):
        raise ValueError(f"declared k={_excerpt(obj['k'])} but found {len(classes)} classes")
    n = obj.get("n")
    if "n" in obj and not _is_int(n):
        raise ValueError(f"decomposition JSON \"n\" must be an integer, got {_excerpt(n)}")
    _check_vertex_count(n)
    if host is None:
        if n is None:
            raise ValueError("decomposition JSON needs \"n\" when no host graph is given")
        union = sorted(set().union(*classes)) if classes else []
        host = Graph(n, union)
    elif n is not None and n != host.n:
        raise ValueError(f"declared n={_excerpt(n)} does not match the host graph ({host.n})")
    return Decomposition(host, classes, obj["mode"])
