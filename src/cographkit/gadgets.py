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

from typing import Mapping, NamedTuple, Sequence

from .decomp import (
    PARTITION,
    Decomposition,
    SearchOutcome,
    search_assignments,
    validate,
)
from .graph import Graph, _check_vertex_count, _read_rows

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
# the unique two-class split: triangle plus the middle bridge edges on one
# side, the six spokes on the other
_LITERAL_TRIANGLE_SIDE: tuple[Edge, ...] = ((0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (7, 8))
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
            raise ValueError(f"variable count must be non-negative, got {num_vars}")
        for i, clause in enumerate(clauses):
            if len(clause) != 3 or len(set(clause)) != 3:
                raise ValueError(f"clause {i} must name three distinct variables, got {clause}")
            for var in clause:
                if not 0 <= var < num_vars:
                    raise ValueError(f"clause {i} names unknown variable {var}")
        return super().__new__(cls, num_vars, clauses)


class GadgetGraph(NamedTuple):
    """A constructed gadget plus the role map naming every vertex."""

    graph: Graph
    roles: Mapping[str, int]

    def vertex(self, role: str) -> int:
        if role not in self.roles:
            raise ValueError(f"unknown role {role!r}")
        return self.roles[role]


def _shift(edges: Sequence[Edge], offset: int) -> list[Edge]:
    return [(u + offset, v + offset) for u, v in edges]


def literal_graph() -> GadgetGraph:
    """The 9-vertex, 12-edge variable gadget."""
    roles = {f"v{i}": i for i in range(9)}
    return GadgetGraph(Graph(9, _LITERAL_EDGES), roles)


def literal_partition() -> Decomposition:
    """The gadget's unique two-class split (up to swapping the classes)."""
    g = literal_graph().graph
    return Decomposition(
        g,
        (frozenset(_LITERAL_TRIANGLE_SIDE), frozenset(_LITERAL_SPOKE_SIDE)),
        PARTITION,
    )


def extended_literal_graph() -> GadgetGraph:
    """Literal gadget plus a pendant connector 9 carrying leaves 10 and 11."""
    edges = list(_LITERAL_EDGES) + [(6, 9), (9, 10), (9, 11)]
    roles = {f"v{i}": i for i in range(12)}
    return GadgetGraph(Graph(12, edges), roles)


def extended_literal_partition() -> Decomposition:
    """Unique split of the extended gadget: the pendant edge follows the
    triangle's class, the connector's leaf edges go opposite."""
    g = extended_literal_graph().graph
    side_a = frozenset(list(_LITERAL_TRIANGLE_SIDE) + [(6, 9)])
    side_b = frozenset(list(_LITERAL_SPOKE_SIDE) + [(9, 10), (9, 11)])
    return Decomposition(g, (side_a, side_b), PARTITION)


def build_formula_graph(f: NaeFormula) -> GadgetGraph:
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


def clause_gadget() -> GadgetGraph:
    """The single-clause formula graph over three fresh variables."""
    return build_formula_graph(NaeFormula(3, ((0, 1, 2),)))


def eval_nae(f: NaeFormula, values: Sequence[bool]) -> bool:
    """True when every clause sees at least one true and one false literal."""
    if len(values) != f.num_vars:
        raise ValueError(f"expected {f.num_vars} values, got {len(values)}")
    for clause in f.clauses:
        seen = {bool(values[var]) for var in clause}
        if len(seen) != 2:
            return False
    return True


def partition_from_assignment(f: NaeFormula, values: Sequence[bool]) -> Decomposition:
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
    gadget = build_formula_graph(f)
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


def assignment_from_partition(f: NaeFormula, d: Decomposition) -> tuple[bool, ...]:
    """Read the truth assignment back from a valid two-class decomposition.

    Each variable's value is the class of its literal triangle (class 0
    means true); a triangle split across classes is rejected.  The
    extracted assignment is re-checked against the formula.
    """
    gadget = build_formula_graph(f)
    if d.host != gadget.graph:
        raise ValueError("decomposition host does not match the formula graph")
    if d.k != 2:
        raise ValueError(f"expected exactly 2 classes, got {d.k}")
    fault = validate(d)
    if fault is not None:
        raise ValueError(f"invalid decomposition: {fault}")
    values = []
    for j in range(f.num_vars):
        base = 9 * j
        triangle = [(base, base + 1), (base + 1, base + 2), (base, base + 2)]
        memberships = {
            frozenset(idx for idx, cls in enumerate(d.classes) if e in cls) for e in triangle
        }
        if len(memberships) != 1 or len(next(iter(memberships))) != 1:
            raise ValueError(f"literal triangle of variable {j} is split across classes")
        values.append(next(iter(memberships)) == {0})
    result = tuple(values)
    if not eval_nae(f, result):
        raise ValueError("extracted assignment violates the not-all-equal condition")
    return result


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
    unless ``prune`` is off (then candidates are only checked at the
    leaves).
    """
    return search_assignments(
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
    _check_vertex_count(9 * num_vars + 6 * num_clauses)
    clauses: list[tuple[int, int, int]] = []
    for lineno, raw, fields in rows:
        if len(fields) != 3:
            raise ValueError(f"line {lineno}: expected three variable ids, got {raw!r}")
        try:
            a, b, c = (int(x) for x in fields)
        except ValueError:
            raise ValueError(f"line {lineno}: variable ids must be integers") from None
        clauses.append((a, b, c))
    if len(clauses) != num_clauses:
        raise ValueError(f"declared {num_clauses} clauses but found {len(clauses)}")
    return NaeFormula(num_vars, tuple(clauses))


def format_formula(f: NaeFormula) -> str:
    """Canonical formula text; parse_formula round-trips it byte for byte."""
    lines = [f"{f.num_vars} {len(f.clauses)}"]
    lines.extend(f"{a} {b} {c}" for a, b, c in f.clauses)
    return "\n".join(lines) + "\n"
