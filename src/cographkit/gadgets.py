"""Hardness gadgets linking monotone not-all-equal 3-SAT to two-class
cograph edge partitions.

Each variable becomes a fixed 9-vertex literal graph whose only valid
two-class splits put the central triangle entirely in one class; each
clause becomes a triangle attached to its three literal graphs through
fresh connector vertices.  Certificates translate in both directions:
an assignment yields a two-partition of the formula graph, and any
valid two-partition reads back to a satisfying assignment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, NamedTuple, Sequence

from .graph import Graph, _check_vertex_count, _excerpt, _read_ints, _read_rows

if TYPE_CHECKING:
    from .decomp import Decomposition, SearchOutcome

__all__ = [
    "NaeFormula",
    "GadgetGraph",
    "literal_graph",
    "literal_partition",
    "extended_literal_graph",
    "extended_literal_partition",
    "clause_gadget",
    "build_formula_graph",
    "eval_nae",
    "partition_from_assignment",
    "assignment_from_partition",
    "enumerate_two_class_assignments",
    "parse_formula",
    "format_formula",
]

Edge = tuple[int, int]

# 9 vertices: triangle 0-1-2, and between each triangle pair a two-vertex
# bridge (3,4 between 0 and 1; 5,6 between 1 and 2; 7,8 between 2 and 0)
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
_LITERAL_TRIANGLE = _LITERAL_EDGES[:3]
# the unique two-class split: triangle plus the middle bridge edges on one
# side, the six spokes on the other
_LITERAL_TRIANGLE_SIDE: tuple[Edge, ...] = _LITERAL_TRIANGLE + ((3, 4), (5, 6), (7, 8))
_LITERAL_SPOKE_SIDE: tuple[Edge, ...] = ((0, 3), (1, 4), (1, 5), (2, 6), (2, 7), (0, 8))

# connector p of a clause attaches to these two clause-triangle corners
# (0 = a, 1 = b, 2 = c), following clause literal order
_ATTACH_CORNERS = ((0, 2), (0, 1), (2, 1))


# the subclass checks its arguments in __new__, which a NamedTuple body
# cannot define
class _NaeFormulaFields(NamedTuple):
    num_vars: int
    clauses: tuple[tuple[int, int, int], ...]


class NaeFormula(_NaeFormulaFields):
    """Monotone 3-clauses: each clause is three distinct variable ids."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple[tuple[int, int, int], ...]) -> NaeFormula:
        if num_vars < 0:
            raise ValueError(f"variable count must be non-negative, got {_excerpt(num_vars)}")
        for i, clause in enumerate(clauses):
            if len(clause) != 3 or len(set(clause)) != 3:
                raise ValueError(f"clause {i} must name three distinct variables, got {_excerpt(clause)}")
            for var in clause:
                if not 0 <= var < num_vars:
                    raise ValueError(f"clause {i} names unknown variable {_excerpt(var)}")
        return super().__new__(cls, num_vars, clauses)


class GadgetGraph(NamedTuple):
    """A constructed gadget plus the role map naming every vertex."""

    graph: Graph
    roles: Mapping[str, int]

    def vertex(self, role: str) -> int:
        if role not in self.roles:
            raise ValueError(f"unknown role {_excerpt(role)}")
        return self.roles[role]


def _shift(edges: Sequence[Edge], offset: int) -> list[Edge]:
    return [(u + offset, v + offset) for u, v in edges]


def literal_graph() -> GadgetGraph:
    """The 9-vertex, 12-edge variable gadget."""
    roles = {f"v{i}": i for i in range(9)}
    return GadgetGraph(Graph(9, _LITERAL_EDGES), roles)


def literal_partition() -> Decomposition:
    """The gadget's unique two-class split (up to swapping the classes)."""
    from . import decomp

    g = literal_graph().graph
    return decomp.Decomposition(g, (_LITERAL_TRIANGLE_SIDE, _LITERAL_SPOKE_SIDE), decomp.PARTITION)


def extended_literal_graph() -> GadgetGraph:
    """Literal gadget plus a pendant connector 9 carrying leaves 10 and 11."""
    edges = list(_LITERAL_EDGES) + [(6, 9), (9, 10), (9, 11)]
    roles = {f"v{i}": i for i in range(12)}
    return GadgetGraph(Graph(12, edges), roles)


def extended_literal_partition() -> Decomposition:
    """Unique split of the extended gadget: the pendant edge follows the
    triangle's class, the connector's leaf edges go opposite."""
    from . import decomp

    g = extended_literal_graph().graph
    side_a = _LITERAL_TRIANGLE_SIDE + ((6, 9),)
    side_b = _LITERAL_SPOKE_SIDE + ((9, 10), (9, 11))
    return decomp.Decomposition(g, (side_a, side_b), decomp.PARTITION)


def _formula_order(num_vars: int, num_clauses: int) -> int:
    """Vertex count of a formula graph, and so where clause ``num_clauses``
    starts: nine vertices per variable, then six per clause."""
    return 9 * num_vars + 6 * num_clauses


def _formula_pieces(f: NaeFormula) -> Iterator[tuple[int, list[Edge], list[Edge]]]:
    """The formula graph's edges, each exactly once, as ``(var, same,
    opposite)``: a two-partition that puts every ``same`` list in the class
    of its variable's value and every ``opposite`` list in the other class
    is valid whenever the assignment is not-all-equal.

    Variable j occupies vertices 9j..9j+8; its piece is the literal
    gadget's unique split.  Clause i occupies six vertices after the
    literal block: connectors 9_1, 9_2, 9_3, then triangle corners a, b,
    c.  Connector p hangs off vertex 6 of its literal gadget, which is its
    piece's ``same`` edge, and attaches to two triangle corners following
    clause literal order; those two edges and the triangle edge that
    closes them are its ``opposite`` edges.  Each triangle edge closes
    exactly one connector's triangle.
    """
    for j in range(f.num_vars):
        yield j, _shift(_LITERAL_TRIANGLE_SIDE, 9 * j), _shift(_LITERAL_SPOKE_SIDE, 9 * j)
    for i, clause in enumerate(f.clauses):
        base = _formula_order(f.num_vars, i)
        for p, var in enumerate(clause):
            connector = base + p
            # (u, v) may be unordered: Graph and Decomposition canonicalise pairs
            u, v = (base + 3 + corner for corner in _ATTACH_CORNERS[p])
            yield var, [(9 * var + 6, connector)], [(connector, u), (connector, v), (u, v)]


def build_formula_graph(f: NaeFormula) -> GadgetGraph:
    """One literal gadget per variable, one triangle plus three fresh
    connectors per clause, laid out as ``_formula_pieces`` describes."""
    roles = {f"x{j}.v{t}": 9 * j + t for j in range(f.num_vars) for t in range(9)}
    for i in range(len(f.clauses)):
        base = _formula_order(f.num_vars, i)
        roles[f"C{i}.a"], roles[f"C{i}.b"], roles[f"C{i}.c"] = base + 3, base + 4, base + 5
        for p in range(3):
            roles[f"C{i}.9_{p + 1}"] = base + p
    edges = [e for _, same, opposite in _formula_pieces(f) for e in (*same, *opposite)]
    return GadgetGraph(Graph(_formula_order(f.num_vars, len(f.clauses)), edges), roles)


def clause_gadget() -> GadgetGraph:
    """The single-clause formula graph over three fresh variables."""
    return build_formula_graph(NaeFormula(3, ((0, 1, 2),)))


def eval_nae(f: NaeFormula, values: Sequence[bool]) -> bool:
    """True when every clause sees at least one true and one false literal."""
    if len(values) != f.num_vars:
        raise ValueError(f"expected {_excerpt(f.num_vars)} values, got {len(values)}")
    for clause in f.clauses:
        seen = {bool(values[var]) for var in clause}
        if len(seen) != 2:
            return False
    return True


def partition_from_assignment(f: NaeFormula, values: Sequence[bool]) -> Decomposition:
    """Two-partition of the formula graph encoding a satisfying assignment.

    True variables put their triangle (and the edges tied to it) in
    class 0, false variables in class 1; every clause edge goes opposite
    the literal whose connector it attaches or whose connector triangle
    it closes, and each pendant edge follows its literal.  The result is
    re-validated before return, so a construction bug raises instead of
    leaking a bad certificate.
    """
    from . import decomp

    if not eval_nae(f, values):
        raise ValueError("assignment does not satisfy the not-all-equal condition")
    cls: tuple[set[Edge], set[Edge]] = (set(), set())
    for var, same, opposite in _formula_pieces(f):
        side = 0 if values[var] else 1
        cls[side].update(same)
        cls[1 - side].update(opposite)
    d = decomp.Decomposition(build_formula_graph(f).graph, cls, decomp.PARTITION)
    fault = decomp.validate(d)
    if fault is not None:
        raise RuntimeError(f"internal construction fault: {fault}")
    return d


def assignment_from_partition(f: NaeFormula, d: Decomposition) -> tuple[bool, ...]:
    """Read the truth assignment back from a valid two-class decomposition.

    Each variable's value is the class of its literal triangle (class 0
    means true); a triangle split across classes is rejected.  The
    extracted assignment is re-checked against the formula.
    """
    from . import decomp

    gadget = build_formula_graph(f)
    if d.host != gadget.graph:
        raise ValueError("decomposition host does not match the formula graph")
    if d.k != 2:
        raise ValueError(f"expected exactly 2 classes, got {d.k}")
    decomp._require_valid(d, "read an assignment from")
    values = []
    for j in range(f.num_vars):
        memberships = {
            frozenset(idx for idx, cls in enumerate(d.classes) if e in cls)
            for e in _shift(_LITERAL_TRIANGLE, 9 * j)
        }
        if len(memberships) != 1 or len(next(iter(memberships))) != 1:
            raise ValueError(f"literal triangle of variable {j} is split across classes")
        values.append(next(iter(memberships)) == {0})
    if not eval_nae(f, values):
        raise ValueError("extracted assignment violates the not-all-equal condition")
    return tuple(values)


def enumerate_two_class_assignments(
    g: Graph,
    mode: str,
    *,
    forced: dict[Edge, int] | None = None,
    node_budget: int | None = None,
    prune: bool = True,
) -> SearchOutcome:
    """All valid two-class assignments of g (no symmetry breaking).

    In ``"cover"`` mode each edge takes a non-empty subset of
    {class 0, class 1}, a 3^m space; in ``"partition"`` mode exactly one
    class, a 2^m space.  The induced-path constraints are propagated
    unless ``prune`` is off; then no node is skipped, and each constraint
    is settled once, at the search position of its last member.
    """
    from . import decomp

    return decomp.search_assignments(
        g,
        2,
        mode,
        forced=forced,
        find_all=True,
        symmetry=False,
        prune=prune,
        node_budget=node_budget,
    )


def parse_formula(text: str) -> NaeFormula:
    """Read the ``v c`` / three-ids-per-line clause format; its formula
    graph may have at most ``MAX_VERTICES`` vertices."""
    (num_vars, num_clauses), rows = _read_rows(text, "v c")
    _check_vertex_count(_formula_order(num_vars, num_clauses))
    clauses: list[tuple[int, int, int]] = []
    for lineno, raw, fields in rows:
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected three variable ids, got {_excerpt(raw)}")
        try:
            a, b, c = _read_ints(fields)
        except ValueError:
            raise ValueError(f"line {lineno}: variable ids must be integers") from None
        if len(clauses) >= num_clauses:
            raise ValueError(f"line {lineno}: more clause lines than the declared count {_excerpt(num_clauses)}")
        clauses.append((a, b, c))
    if len(clauses) != num_clauses:
        raise ValueError(f"declared {_excerpt(num_clauses)} clauses but found {len(clauses)}")
    return NaeFormula(num_vars, tuple(clauses))


def format_formula(f: NaeFormula) -> str:
    """Canonical formula text; parse_formula round-trips it byte for byte."""
    lines = [f"{f.num_vars} {len(f.clauses)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in f.clauses)
    return "\n".join(lines) + "\n"
