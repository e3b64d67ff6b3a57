"""Workload plans: seeded inputs, the timed operations and their checks.

A plan is a fixed list of operations.  The runner times each ``Op.run``
and afterwards hands the result to ``Op.check``, which returns one verdict
per library call it covers: PASS, FAIL, or DEFECT for a result that is
wrong in a way known at the seed (listed in the README).  Probes are
operations run once, outside the timed rounds, on inputs that exercise a
known defect.

Library calls go through module attributes (``decomp.coarsen(...)``), never
through names bound at import, so the traced run's wrappers see them.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from cographkit import cotree, decomp, gadgets, graph

import inputs

ROOT = Path(__file__).resolve().parent.parent
PASS, FAIL, DEFECT = "pass", "fail", "known-defect"
Verdicts = list[tuple[str, str]]


@dataclass
class Raised:
    """Result of an operation that raised instead of returning."""

    error: BaseException


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], Verdicts]
    # exceptions that are a known defect of the seed version, not a failure
    defect_errors: tuple[type, ...] = ()
    # extra per-op figures for the report, such as search nodes
    stats: Callable[[Any], dict] | None = None


@dataclass
class Plan:
    ops: list[Op]
    probes: list[Op] = field(default_factory=list)
    cli: "Cli | None" = None


def verdict(ok: bool, what: str) -> Verdicts:
    return [(PASS if ok else FAIL, what)]


def build_graph(rec, n: int, edges) -> graph.Graph:
    """The benchmark's own ``Graph(...)`` call, traced as ``graph.build``."""
    with rec.span("graph.build") as span:
        g = graph.Graph(n, edges)
        span.counts = {"edges": len(g.edges)}
    return g


def write(work: Path, name: str, text: str) -> None:
    (work / name).write_text(text, encoding="utf-8")


# ---------------------------------------------------------------------------
# refute: exhaustive two-class search on the paper's gadgets
# ---------------------------------------------------------------------------

TRIANGLE = ((0, 1), (1, 2), (0, 2))
# the paper's unique two-class split of the literal gadget: the triangle
# and the middle bridge edges on one side, the six spokes on the other
LITERAL_TRIANGLE_SIDE = {(0, 1), (1, 2), (0, 2), (3, 4), (5, 6), (7, 8)}
EXTENDED_TRIANGLE_SIDE = LITERAL_TRIANGLE_SIDE | {(6, 9)}
REFUTE_BUDGET = 30_000_000


def _splits(g: graph.Graph, side: set) -> set[tuple[int, ...]]:
    one = tuple(1 if e in side else 2 for e in g.edges)
    return {one, tuple(3 - m for m in one)}


def _search_stats(out) -> dict:
    return {"nodes": out.nodes}


def setup_refute(seed: int, work: Path, rec, tiny: bool) -> Plan:
    # the gadgets are fixed by the paper; the seed changes nothing here
    clause = gadgets.extended_literal_graph().graph if tiny else gadgets.clause_gadget().graph
    forced = {e: 1 for e in TRIANGLE} if tiny else {
        (u + 9 * j, v + 9 * j): 1 for j in range(3) for u, v in TRIANGLE
    }
    if tiny:
        forced[(6, 9)] = 2  # the pendant edge must follow the triangle
    literal = gadgets.literal_graph().graph
    extended = gadgets.extended_literal_graph().graph
    want_literal = _splits(literal, LITERAL_TRIANGLE_SIDE)
    want_extended = _splits(extended, EXTENDED_TRIANGLE_SIDE)

    def search(g, prune, pinned=None):
        return decomp.search_assignments(
            g, 2, decomp.COVER, forced=pinned, find_all=True, symmetry=False,
            prune=prune, node_budget=REFUTE_BUDGET,
        )

    def refuted(out) -> Verdicts:
        return verdict(out.completed and out.solutions == [], "refutation completed with no solution")

    def exactly(want):
        return lambda out: verdict(
            out.completed and len(out.solutions) == 2 and set(out.solutions) == want,
            "exactly the two canonical splits",
        )

    # the unpruned enumeration runs five times a round: it is the median
    # operation, and one sample of a 0.4 s call is too noisy to compare
    literal_op = Op("literal_unpruned", lambda: search(literal, False), exactly(want_literal),
                    stats=_search_stats)
    return Plan(ops=[
        Op("criterion7_refutation", lambda: search(clause, True, forced), refuted, stats=_search_stats),
        *[literal_op] * 5,
        Op("extended_pruned", lambda: search(extended, True), exactly(want_extended), stats=_search_stats),
    ])


# ---------------------------------------------------------------------------
# decompose: the same search used find-first, plus coloring and coarsening
# ---------------------------------------------------------------------------

FIGURE_CLAUSES = ((0, 3, 1), (1, 2, 3), (3, 4, 5))
BATCH_BUDGET = 200_000


def _check_solve(g: graph.Graph, k_max: int, defect_on_timeout: bool = False):
    def check(res) -> Verdicts:
        if res.status == decomp.SOLVED:
            d = res.decomposition
            ok = d.host == g and d.k <= k_max and decomp.validate(d) is None
            return verdict(ok, f"valid decomposition with k <= {k_max}")
        if res.status == decomp.INFEASIBLE:
            if defect_on_timeout:
                return [(FAIL, "reported infeasible although a solution exists")]
            return verdict(res.infeasible_below == k_max, "infeasible up to k_max")
        if defect_on_timeout:
            return [(DEFECT, f"timeout after {res.nodes} nodes although a solution exists")]
        return [(FAIL, f"timeout after {res.nodes} nodes")]

    return check


def _check_partition_of(host_edges, max_k: int | None, rigid: int | None = None, planted=None):
    """Classes are disjoint matchings covering ``host_edges``; with ``planted``
    each class also holds exactly one of the planted rigid classes."""
    want = set(host_edges)

    def check(d) -> Verdicts:
        seen: set = set()
        for cls in d.classes:
            if not inputs.is_matching(cls) or seen & cls:
                return [(FAIL, "classes are not disjoint matchings")]
            seen |= cls
        if seen != want:
            return [(FAIL, "classes do not cover the host edges")]
        if max_k is not None and d.k > max_k:
            return [(FAIL, f"k = {d.k} exceeds {max_k}")]
        if planted is not None:
            holders = [sum(1 for r in planted if r <= cls) for cls in d.classes]
            if d.k != rigid or holders != [1] * rigid:
                return [(FAIL, f"expected {rigid} classes each holding one rigid class")]
        return [(PASS, "partition into matchings")]

    return check


def setup_decompose(seed: int, work: Path, rec, tiny: bool) -> Plan:
    rng = random.Random(seed)
    batch = 3 if tiny else 60
    part_hosts = [graph.Graph(9, inputs.gnp_edges(9, 0.4, rng)) for _ in range(batch)]
    cover_hosts = [graph.Graph(7, inputs.gnp_edges(7, 0.5, rng)) for _ in range(batch)]
    figure = gadgets.build_formula_graph(gadgets.NaeFormula(6, FIGURE_CLAUSES)).graph
    figure_budget = 20_000 if tiny else 2_000_000
    big_n = 40 if tiny else 300
    big = graph.Graph(big_n, inputs.gnp_edges(big_n, 0.3, rng))
    rigid = 4 if tiny else 11
    n, classes, rigid_ids = inputs.planted_decomposition(rigid, 2, 6, rng)
    host = graph.Graph(n, [e for cls in classes for e in cls])
    planted = decomp.Decomposition(host, tuple(frozenset(c) for c in classes), decomp.PARTITION)
    rigid_classes = [frozenset(classes[i]) for i in sorted(rigid_ids)]

    def solve_all(solver, hosts):
        return [solver(g, 3, node_budget=BATCH_BUDGET) for g in hosts]

    def check_all(hosts):
        checks = [_check_solve(g, 3) for g in hosts]
        return lambda results: [v for chk, r in zip(checks, results) for v in chk(r)]

    def nodes_of(results) -> dict:
        return {"nodes": sum(r.nodes for r in results)}

    return Plan(ops=[
        Op("exact_partition_batch", lambda: solve_all(decomp.exact_min_partition, part_hosts),
           check_all(part_hosts), stats=nodes_of),
        Op("exact_cover_batch", lambda: solve_all(decomp.exact_min_cover, cover_hosts),
           check_all(cover_hosts), stats=nodes_of),
        Op("figure_formula_k2", lambda: decomp.exact_min_partition(figure, 2, node_budget=figure_budget),
           _check_solve(figure, 2, defect_on_timeout=True), stats=lambda r: {"nodes": r.nodes}),
        Op("vizing_g300", lambda: decomp.vizing_partition(big),
           _check_partition_of(big.edges, big.max_degree() + 1)),
        Op("coarsen_planted", lambda: decomp.coarsen(planted),
           _check_partition_of(host.edges, None, rigid, rigid_classes)),
    ])


# ---------------------------------------------------------------------------
# recognize: Graph build + recognition + newick on cographs and planted paths
# ---------------------------------------------------------------------------


def _recognize_op(rec, name: str, n: int, edges, want: str | None, defect_errors=()) -> Op:
    """``want`` is the canonical newick, or None for a planted induced path."""

    def run():
        g = build_graph(rec, n, edges)
        res = cotree.recognize(g)
        if isinstance(res, graph.P4Witness):
            return g, res
        return g, cotree.to_newick(res)

    def check(out) -> Verdicts:
        g, res = out
        if want is None:
            return verdict(isinstance(res, graph.P4Witness) and res.holds_in(g), "witness holds")
        return verdict(res == want, "cotree equals the generating tree")

    return Op(name, run, check, defect_errors=defect_errors)


def setup_recognize(seed: int, work: Path, rec, tiny: bool) -> Plan:
    rng = random.Random(seed)
    # (kind, n, cographs, planted non-cographs) per round.  One dense graph,
    # first, on a clean heap: with two, or after the sparse ones, whether the
    # allocator reused the earlier memory, and so the peak RSS (137 or 163
    # MB), depended on the seed.
    mix = (("dense", 60, 1, 0), ("sparse", 100, 2, 2)) if tiny else (
        ("dense", 1000, 1, 0), ("sparse", 1000, 20, 20), ("sparse", 3000, 10, 10))
    ops = []
    for kind, n, cographs, planted in mix:
        make = inputs.sparse_cograph if kind == "sparse" else inputs.dense_cograph
        for i in range(cographs + planted):
            vs = inputs.shuffled(n, rng)
            if i < cographs:
                tree = make(vs, rng)
                want = inputs.canonical_newick(tree)
            else:
                tree = inputs.plant_p4(make(vs[3:], rng), tuple(vs[:3]), rng)
                want = None
            label = f"{kind}{n}_{'cograph' if want else 'planted'}"
            ops.append(_recognize_op(rec, label, n, inputs.tree_edges(tree), want))
    n = 50 if tiny else 1000
    order = inputs.shuffled(n, rng)
    edges = inputs.threshold_edges(order)
    # the cotree of an alternating threshold graph is n - 1 deep; the
    # recursive split raises RecursionError at the seed
    probe = _recognize_op(rec, f"threshold{n}", n, edges,
                          inputs.canonical_newick(inputs.threshold_tree(order)), (RecursionError,))
    return Plan(ops=ops, probes=[probe])


# ---------------------------------------------------------------------------
# cli: every invocation in a fresh interpreter
# ---------------------------------------------------------------------------

CHILD_TIMEOUT_S = 150


class Cli:
    """Runs ``cographkit`` the way a user does: ``python -m cographkit.cli``.

    Children run with ``-B`` (no bytecode written), so each one compiles
    the package, as every start does where bytecode writing is off.  When
    ``traced`` is set, children start through ``cli_entry.py`` instead,
    which installs the span wrappers and writes the spans back here.
    """

    def __init__(self, root: Path, work: Path, rec) -> None:
        self.work, self.rec, self.traced = work, rec, False
        self.entry = str(Path(__file__).with_name("cli_entry.py"))
        src = str(root / "src")
        old = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + old if old else ""))
        self._count = 0

    def _argv(self, args: list[str]) -> tuple[list[str], Path | None]:
        if not self.traced:
            return [sys.executable, "-B", "-m", "cographkit.cli", *args], None
        self._count += 1
        span_file = self.work / f"spans-{self._count}.jsonl"
        return [sys.executable, "-B", self.entry, str(span_file), *args], span_file

    def _adopt(self, span_files, parent: int) -> None:
        for path in span_files:
            if path is not None and path.exists():
                with open(path, encoding="utf-8") as handle:
                    self.rec.add([json.loads(line) for line in handle], parent)
                path.unlink()

    def run(self, *commands: list[str]) -> list[tuple[int | None, str, str]]:
        """Run one command, or a pipeline of commands joined stdout to stdin.

        Returns (exit code, stdout, stderr) per command; the code is None
        for a child killed at the timeout.
        """
        with self.rec.span("cli.process") as span:
            procs, files, prev = [], [], None
            try:
                for i, args in enumerate(commands):
                    argv, span_file = self._argv(args)
                    last = i == len(commands) - 1
                    proc = subprocess.Popen(
                        argv, cwd=self.work, env=self.env, stdin=prev or subprocess.DEVNULL,
                        stdout=subprocess.PIPE, stderr=subprocess.PIPE if last else subprocess.DEVNULL,
                        text=True,
                    )
                    if prev is not None:
                        prev.close()
                    prev = proc.stdout
                    procs.append(proc)
                    files.append(span_file)
                try:
                    out, err = procs[-1].communicate(timeout=CHILD_TIMEOUT_S)
                    codes = [p.wait(timeout=CHILD_TIMEOUT_S) for p in procs]
                except subprocess.TimeoutExpired:
                    out, err, codes = "", "timeout", [None] * len(procs)
            finally:
                for proc in procs:
                    if proc.poll() is None:
                        proc.kill()
                    proc.wait()
            if span.idx is not None:
                self._adopt(files, span.idx)
        results = [(code, "", "") for code in codes]
        results[-1] = (codes[-1], out, err)
        return results

    def startup_s(self, repeats: int = 3) -> float:
        """Median wall time of a trivial invocation: the per-call floor."""
        walls = []
        for _ in range(repeats):
            start = time.perf_counter()
            subprocess.run(
                [sys.executable, "-B", "-m", "cographkit.cli", "gadget", "literal"],
                cwd=self.work, env=self.env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                timeout=CHILD_TIMEOUT_S, check=False,
            )
            walls.append(time.perf_counter() - start)
        return statistics.median(walls)


def _report(out, code: int | None, verdict_name: str):
    """Parsed payload when the exit code and verdict match, else None."""
    exit_code, stdout, _ = out
    if exit_code != code:
        return None
    try:
        doc = json.loads(stdout)
    except json.JSONDecodeError:
        return None
    return doc.get("payload") if doc.get("verdict") == verdict_name else None


def _cli_check(code: int, verdict_name: str, payload_ok=lambda p: True, defect_on_recursion=False):
    def check(outs) -> Verdicts:
        if any(c != 0 for c, _, _ in outs[:-1]):
            return [(FAIL, "an upstream stage of the pipe failed")]
        code_seen, _, err = outs[-1]
        if defect_on_recursion and code_seen == 1 and "RecursionError" in err:
            return [(DEFECT, "traceback with RecursionError, exit 1")]
        payload = _report(outs[-1], code, verdict_name)
        if payload is None:
            return [(FAIL, f"expected exit {code} and verdict {verdict_name!r}, got exit {code_seen}")]
        return verdict(bool(payload_ok(payload)), f"{verdict_name} payload checked")

    return check


def _edges_of(payload) -> set:
    return {tuple(e) for e in payload["edges"]}


def _classes_of(payload) -> list[frozenset]:
    return [frozenset(tuple(e) for e in cls) for cls in payload["classes"]]


def setup_cli(seed: int, work: Path, rec, tiny: bool) -> Plan:
    rng = random.Random(seed)
    cli = Cli(ROOT, work, rec)
    ops: list[Op] = []

    def op(name, check, *commands):
        ops.append(Op(name, lambda: cli.run(*commands), check))

    # symbol maps from random 4-symbol trees; the second one gets a planted
    # U2 violation (one triple with three different symbols).  It is smaller
    # because every check builds all quadruple tables, valid map or not.
    n_map, n_bad = (8, 6) if tiny else (40, 30)
    tree = inputs.random_tree(inputs.shuffled(n_map, rng), 0, rng, 4, symbols=4)
    symbols = inputs.tree_symbols(tree, n_map)
    write(work, "map_yes.txt", inputs.map_text(n_map, 4, symbols))
    broken = inputs.tree_symbols(inputs.random_tree(inputs.shuffled(n_bad, rng), 0, rng, 4, symbols=4), n_bad)
    inputs.plant_u2(n_bad, broken, rng)
    write(work, "map_no.txt", inputs.map_text(n_bad, 4, broken))

    def represents(payload) -> bool:
        return inputs.tree_symbols(inputs.parse_newick(payload["newick"]), n_map) == symbols

    op("ultrametric_check_yes", _cli_check(0, "ultrametric"), ["ultrametric", "check", "map_yes.txt"])
    op("ultrametric_check_no", _cli_check(1, "not-ultrametric"), ["ultrametric", "check", "map_no.txt"])
    op("ultrametric_represent", _cli_check(0, "ultrametric", represents),
       ["ultrametric", "represent", "map_yes.txt"])

    for i in range(2):
        num_vars = 5 if tiny else 8
        values, clauses = inputs.planted_formula(num_vars, num_vars + 2, rng)
        write(work, f"formula{i}.nae", inputs.formula_text(num_vars, clauses))
        formula = gadgets.NaeFormula(num_vars, tuple(clauses))
        fg = gadgets.build_formula_graph(formula).graph
        certificate = gadgets.partition_from_assignment(formula, values)
        write(work, f"certificate{i}.json", json.dumps(decomp.decomposition_to_json(certificate)))
        want_edges = set(fg.edges)

        def colored(payload, want_edges=want_edges, bound=fg.max_degree() + 1):
            classes = _classes_of(payload)
            union = set().union(*classes)
            return (union == want_edges and len(classes) <= bound
                    and sum(map(len, classes)) == len(union)
                    and all(inputs.is_matching(c) for c in classes))

        op("pipe_gadget_decompose_vizing", _cli_check(0, "decomposed", colored),
           ["gadget", "formula", f"formula{i}.nae"], ["decompose", "--strategy", "vizing", "-"])
        op("reduce_to_graph", _cli_check(0, "ok", lambda p, w=want_edges: _edges_of(p) == w),
           ["reduce", "to-graph", f"formula{i}.nae"])
        op("reduce_from_partition", _cli_check(0, "satisfiable", lambda p, v=values: p["values"] == v),
           ["reduce", "from-partition", "--formula", f"formula{i}.nae", f"certificate{i}.json"])

    rigid = 4 if tiny else 8
    n, classes, rigid_ids = inputs.planted_decomposition(rigid, 2, 4, rng)
    write(work, "planted.json", json.dumps({
        "mode": "partition", "k": len(classes), "n": n,
        "classes": [sorted(list(e) for e in cls) for cls in classes],
    }))
    rigid_sets = [frozenset(classes[i]) for i in sorted(rigid_ids)]

    def coarsened(payload) -> bool:
        final = _classes_of(payload)
        return len(final) == rigid and all(sum(1 for r in rigid_sets if r <= c) == 1 for c in final)

    op("coarsen_planted", _cli_check(0, "coarsened", coarsened), ["coarsen", "planted.json"])

    n_rec = 100 if tiny else 1000
    for i in range(8):
        vs = inputs.shuffled(n_rec, rng)
        if i < 4:
            tree = inputs.sparse_cograph(vs, rng)
            edges = inputs.tree_edges(tree)
            check = _cli_check(0, "cograph", lambda p, w=inputs.canonical_newick(tree): p["newick"] == w)
        else:
            tree = inputs.plant_p4(inputs.sparse_cograph(vs[3:], rng), tuple(vs[:3]), rng)
            edges = inputs.tree_edges(tree)
            edge_set = {(min(e), max(e)) for e in edges}
            check = _cli_check(1, "not-cograph", lambda p, s=edge_set: _is_induced_p4(p["p4"], s))
        write(work, f"graph{i}.txt", inputs.edge_list_text(n_rec, edges))
        op("recognize_cograph" if i < 4 else "recognize_planted", check, ["recognize", f"graph{i}.txt"])

    for i in range(8):
        mode, n_small, p = ("partition", 9, 0.4) if i < 4 else ("cover", 7, 0.5)
        g = graph.Graph(n_small, inputs.gnp_edges(n_small, p, rng))
        write(work, f"small{i}.txt", inputs.edge_list_text(g.n, g.edges))

        def solved(outs, g=g):
            code, _, _ = outs[-1]
            if code == 1:
                return _cli_check(1, "infeasible")(outs)
            return _cli_check(0, "decomposed", lambda p: decomp.validate(
                decomp.decomposition_from_json(p, host=g)) is None)(outs)

        op(f"decompose_exact_{mode}", solved,
           ["decompose", "--strategy", "exact", "--mode", mode, "--k-max", "3",
            "--budget-nodes", str(BATCH_BUDGET), f"small{i}.txt"])

    for i in range(4):
        tree = inputs.sparse_cograph(inputs.shuffled(n_rec // 2, rng), rng)
        write(work, f"tree{i}.newick", inputs.canonical_newick(tree) + "\n")
        want = inputs.edge_list_text(n_rec // 2, inputs.tree_edges(tree))
        op("cotree", _cli_check(0, "ok", lambda p, w=want: p["edge_list"] == w), ["cotree", f"tree{i}.newick"])

    # probes: inputs deep enough to hit the recursion limit at the seed
    n_thr = 60 if tiny else 600
    order = inputs.shuffled(n_thr, rng)
    write(work, "threshold.txt", inputs.edge_list_text(n_thr, inputs.threshold_edges(order)))
    want_thr = inputs.canonical_newick(inputs.threshold_tree(order))
    depth = 60 if tiny else 700
    write(work, "deep.newick", inputs.caterpillar_newick(depth + 1) + "\n")
    want_deep = inputs.edge_list_text(depth + 1, inputs.tree_edges(inputs.threshold_tree(list(range(depth + 1)))))
    probes = [
        Op("threshold_recognize", lambda: cli.run(["recognize", "threshold.txt"]),
           _cli_check(0, "cograph", lambda p: p["newick"] == want_thr, defect_on_recursion=True)),
        Op("deep_cotree", lambda: cli.run(["cotree", "deep.newick"]),
           _cli_check(0, "ok", lambda p: p["edge_list"] == want_deep, defect_on_recursion=True)),
    ]
    return Plan(ops=ops, probes=probes, cli=cli)


def _is_induced_p4(p4, edges: set) -> bool:
    a, b, c, d = p4
    has = lambda u, v: (min(u, v), max(u, v)) in edges  # noqa: E731
    return (len({a, b, c, d}) == 4 and has(a, b) and has(b, c) and has(c, d)
            and not has(a, c) and not has(b, d) and not has(a, d))
