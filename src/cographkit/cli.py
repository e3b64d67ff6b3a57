"""Command-line front end.

Every invocation prints exactly one JSON report on stdout (command echo,
verdict, payload, statistics) and a short human summary on stderr.
The exit code follows the verdict: 1 for ``not-cograph``,
``not-ultrametric``, ``infeasible``, ``invalid`` and ``extraction-failed``,
3 for ``timeout`` (node budget exhausted), 0 for every other verdict.
A usage or input error exits 2 and an internal error 4, with no report;
running out of memory is not a fault of the program and exits 2 too.
A line that stderr cannot take is dropped, and the exit code stays.
"""

from __future__ import annotations

import argparse
import errno
import json
import os
import sys
import time

from .cotree import cotree_to_graph, parse_newick, recognize, to_newick
from .graph import (
    MAX_VERTICES,
    Graph,
    P4Witness,
    _check_vertex_count,
    _excerpt,
    enumerate_induced_p4,
    format_edge_list,
    hypercube,
    parse_edge_list,
)

EXIT_USAGE = 2
EXIT_INTERNAL = 4
OUT_OF_MEMORY = "error: out of memory"
# exit code per verdict; a verdict not listed exits 0
_VERDICT_EXIT = {
    **dict.fromkeys(("not-cograph", "not-ultrametric", "infeasible", "invalid", "extraction-failed"), 1),
    "timeout": 3,
}


class InputError(ValueError):
    """File or format problem; reported on stderr with exit status 2."""


def _read_text(path: str) -> str:
    """The text of ``path`` ('-' is standard input): its bytes decoded as
    strict UTF-8, with no newline translation, so a file and standard
    input give the same text for the same bytes."""
    if path != "-":
        with open(path, "rb") as handle:
            return handle.read().decode("utf-8")
    if sys.stdin is None:
        raise _no_stream()
    return sys.stdin.buffer.read().decode("utf-8")


def _no_stream() -> OSError:
    """The error of a standard stream whose file descriptor was closed
    when the interpreter started, which leaves the stream ``None``."""
    return OSError(errno.EBADF, os.strerror(errno.EBADF))


def _read(path: str, parse):
    """``parse`` applied to the text of ``path`` ('-' is standard input).
    A file that cannot be read, decoded or parsed is an ``InputError``
    that names the path once."""
    try:
        return parse(_read_text(path))
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from exc


def graph_to_json(g: Graph) -> dict:
    return {"n": g.n, "m": len(g.edges), "edges": g.edges}


def graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InputError("graph JSON needs \"n\" and \"edges\"")
    try:
        _check_vertex_count(obj["n"])
        return Graph(obj["n"], obj["edges"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from exc


def _json_int(token: str) -> int:
    """``int(token)`` for the decoder; a number past Python's limit on
    text-to-int conversion is an input error that quotes it."""
    try:
        return int(token)
    except ValueError:
        raise InputError(f"invalid JSON: integer {_excerpt(token)} has {len(token.lstrip('-'))} digits, "
                         f"more than the {sys.get_int_max_str_digits()} Python converts") from None


def _json_payload(text: str):
    """Decoded JSON text; the ``payload`` when it is a report of this CLI.
    Nesting too deep for the decoder, or a number too long for ``int``, is
    an input error like bad syntax."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    except ValueError:  # int() refused a number, naming neither it nor its place
        doc = json.loads(text, parse_int=_json_int)
    if isinstance(doc, dict) and "payload" in doc:
        return doc["payload"]
    return doc


def _parse_graph(text: str) -> Graph:
    """Graph JSON (a report payload included) or an edge list."""
    if text.lstrip().startswith("{"):
        return graph_from_json(_json_payload(text))
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (verdict, payload, stats, summary)
# and imports the modules it runs only when it is called, so a command loads
# no module it does not use
# ---------------------------------------------------------------------------


def _cmd_recognize(args):
    result = recognize(_read(args.graph, _parse_graph))
    if isinstance(result, P4Witness):
        return "not-cograph", {"p4": result}, {}, f"not a cograph: induced path on {tuple(result)}"
    newick = to_newick(result)
    return "cograph", {"newick": newick, "leaves": result.num_leaves}, {}, f"cograph: {newick}"


def _cmd_cotree(args):
    g = _read(args.tree, lambda text: cotree_to_graph(parse_newick(text)))
    payload = graph_to_json(g)
    payload["edge_list"] = format_edge_list(g)
    return "ok", payload, {}, f"reconstructed {g.n} vertices, {len(g.edges)} edges"


def _cmd_p4s(args):
    g = _read(args.graph, _parse_graph)
    witnesses = enumerate_induced_p4(g)
    payload = {"count": len(witnesses), "witnesses": witnesses}
    return "ok", payload, {}, f"{len(witnesses)} induced paths"


def _cmd_hypercube(args):
    if args.dimension < 0:
        raise InputError("dimension must be non-negative")
    # 2**d exceeds the limit exactly when d reaches its bit length; 1 << d is unbounded
    if args.dimension >= MAX_VERTICES.bit_length():
        raise InputError(f"vertex count 2**{_excerpt(args.dimension)} exceeds the limit of {MAX_VERTICES}")
    if args.layers:
        if args.dimension % 2 or args.dimension == 0:
            raise InputError("--layers needs a positive even dimension")
        from . import decomp

        d = decomp.layers_partition(args.dimension // 2)
        payload = decomp.decomposition_to_json(d)
        return "ok", payload, {}, f"layer partition of the {args.dimension}-cube, k={d.k}"
    g = hypercube(args.dimension)
    return "ok", graph_to_json(g), {}, f"{args.dimension}-cube: {g.n} vertices, {len(g.edges)} edges"


def _cmd_ultrametric(args):
    """``check`` and ``represent`` both decide by building the tree; they
    differ in the success payload, and an empty map passes ``check`` only."""
    from . import symbolic

    d = _read(args.map, symbolic.parse_symbolic_map)
    check = args.subcommand == "check"
    try:
        tree = symbolic.build_representation(d) if d.n or not check else None
    except symbolic.NotUltrametricError as exc:
        v = exc.violation
        where = f" at {v.vertices or v.symbol}" if check else ""
        return "not-ultrametric", v._asdict(), {}, f"violates {v.axiom}{where}"
    if check:
        return "ultrametric", {"n": d.n, "symbols": d.num_symbols}, {}, "map is tree-representable"
    newick = to_newick(tree)
    return "ultrametric", {"newick": newick, "symbols": d.num_symbols}, {}, f"representation: {newick}"


def _cmd_decompose(args):
    from . import decomp

    if args.strategy != "exact":
        for flag, given in (
            ("--mode cover", args.mode == "cover"),
            ("--k-max", args.k_max is not None),
            ("--budget-nodes", args.budget_nodes is not None),
        ):
            if given:
                raise InputError(f"{flag} applies only to --strategy exact")
    g = _read(args.graph, _parse_graph)
    if args.strategy in ("vizing", "greedy"):
        merging: dict = {}
        d = decomp.vizing_partition(g) if args.strategy == "vizing" else decomp.greedy_partition(g, merging)
        payload = decomp.decomposition_to_json(d)
        stats = {"strategy": args.strategy, "k": d.k, "nodes": 0, **merging}
        return "decomposed", payload, stats, f"{args.strategy}: k={d.k}"
    k_max = args.k_max if args.k_max is not None else max(1, g.max_degree() + 1)
    solve = decomp.exact_min_partition if args.mode == decomp.PARTITION else decomp.exact_min_cover
    budget = 10_000_000 if args.budget_nodes is None else args.budget_nodes
    result = solve(g, k_max, node_budget=budget)
    stats = {
        "strategy": "exact",
        "nodes": result.nodes,
        "nodes_per_k": list(result.nodes_per_k),
        "k_max": k_max,
    }
    if result.status == decomp.SOLVED:
        payload = decomp.decomposition_to_json(result.decomposition)
        stats["k"] = result.decomposition.k
        return "decomposed", payload, stats, f"exact minimum k={result.decomposition.k}"
    payload = {"k_max": k_max, "infeasible_below": result.infeasible_below}
    if result.status == decomp.INFEASIBLE:
        return "infeasible", payload, stats, f"no {args.mode} with k <= {k_max}"
    return "timeout", payload, stats, f"budget exhausted; no {args.mode} with k <= {result.infeasible_below}"


def _cmd_coarsen(args):
    from . import decomp

    host = None if args.graph is None else _read(args.graph, _parse_graph)
    d = _read(args.decomposition, lambda text: decomp.decomposition_from_json(_json_payload(text), host=host))
    merging: dict = {}
    try:
        coarse = decomp.coarsen(d, merging)
    except decomp._InvalidDecomposition as exc:
        kind, detail = exc.fault.kind, exc.fault.detail or str(exc.fault)
        return "invalid", {"kind": kind, "detail": detail}, {}, f"input decomposition invalid: {kind}"
    payload = decomp.decomposition_to_json(coarse)
    return "coarsened", payload, {"k": coarse.k, **merging}, f"coarsened to k={coarse.k}"


def _cmd_gadget(args):
    from . import gadgets

    if args.kind == "literal":
        gg = gadgets.literal_graph()
    elif args.kind == "extended":
        gg = gadgets.extended_literal_graph()
    elif args.kind == "clause":
        gg = gadgets.clause_gadget()
    else:
        gg = gadgets.build_formula_graph(_read(args.formula, gadgets.parse_formula))
    g = gg.graph
    payload = graph_to_json(g)
    payload["roles"] = dict(sorted(gg.roles.items()))
    return "ok", payload, {}, f"{args.kind} gadget: {g.n} vertices, {len(g.edges)} edges"


def _cmd_reduce_from_partition(args):
    from . import decomp, gadgets

    f = _read(args.formula, gadgets.parse_formula)
    d = _read(args.decomposition, lambda text: decomp.decomposition_from_json(_json_payload(text)))
    try:
        values = gadgets.assignment_from_partition(f, d)
    except ValueError as exc:
        why = f"invalid decomposition: {exc.fault.kind}" if isinstance(exc, decomp._InvalidDecomposition) else exc
        return "extraction-failed", {"reason": str(exc)}, {}, f"extraction failed: {why}"
    payload = {"values": [bool(v) for v in values]}
    return "satisfiable", payload, {}, f"assignment {''.join('T' if v else 'F' for v in values)}"


def _int_argument(text: str) -> int:
    """An integer argument; argparse's own error for ``type=int`` would
    quote a bad value in full."""
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {_excerpt(text)}") from None


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cographkit",
        description="Cograph recognition, tree representations, edge decompositions, "
        "and satisfiability reduction gadgets.  '-' reads standard input.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("recognize", help="decide cograph-ness; emit a cotree or an induced-path witness")
    p.add_argument("graph", help="edge-list or graph-JSON file, or -")
    p.set_defaults(handler=_cmd_recognize)

    p = sub.add_parser("cotree", help="rebuild the graph encoded by a cotree file")
    p.add_argument("tree", help="newick cotree file, or -")
    p.set_defaults(handler=_cmd_cotree)

    p = sub.add_parser("p4s", help="list all induced paths on four vertices")
    p.add_argument("graph")
    p.set_defaults(handler=_cmd_p4s)

    p = sub.add_parser("hypercube", help="emit the d-cube, optionally its square-layer partition")
    p.add_argument("dimension", type=_int_argument)
    p.add_argument("--layers", action="store_true", help="emit the layer partition (even d only)")
    p.set_defaults(handler=_cmd_hypercube)

    p = sub.add_parser("ultrametric", help="check or represent a symbol map")
    usub = p.add_subparsers(dest="subcommand", required=True)
    pc = usub.add_parser("check", help="test the tree-representability axioms")
    pc.add_argument("map", help="symbol map file, or -")
    pc.set_defaults(handler=_cmd_ultrametric)
    pr = usub.add_parser("represent", help="build a realizing labeled tree")
    pr.add_argument("map")
    pr.set_defaults(handler=_cmd_ultrametric)

    p = sub.add_parser("decompose", help="split the edge set into cograph classes")
    p.add_argument("graph")
    p.add_argument("--mode", choices=["partition", "cover"], default="partition")
    p.add_argument(
        "--strategy",
        choices=["vizing", "greedy", "exact"],
        default="exact",
        help="vizing: proper-coloring bound; greedy: coloring plus coarsening; exact: minimum search",
    )
    p.add_argument("--k-max", type=_int_argument, default=None, help="largest k to try (default: max degree + 1)")
    p.add_argument(
        "--budget-nodes",
        type=_int_argument,
        default=None,
        help="search node budget (default 10,000,000); on a 30-vertex G(30, 0.5) the "
        "default can run for over an hour before exit 3, and a smaller budget exits 3 sooner",
    )
    p.set_defaults(handler=_cmd_decompose)

    p = sub.add_parser("coarsen", help="merge decomposition classes while unions stay cographs")
    p.add_argument("decomposition", help="decomposition JSON file, or -")
    p.add_argument("--graph", default=None, help="optional host graph file for coverage checking")
    p.set_defaults(handler=_cmd_coarsen)

    p = sub.add_parser("gadget", help="emit a reduction gadget graph with its role map")
    gsub = p.add_subparsers(dest="kind", required=True)
    for kind in ("literal", "extended", "clause"):
        pg = gsub.add_parser(kind)
        pg.set_defaults(handler=_cmd_gadget, kind=kind)
    pg = gsub.add_parser("formula")
    pg.add_argument("formula", help="formula file, or -")
    pg.set_defaults(handler=_cmd_gadget, kind="formula")

    p = sub.add_parser("reduce", help="translate between formulas and decomposition certificates")
    rsub = p.add_subparsers(dest="subcommand", required=True)
    rt = rsub.add_parser("to-graph", help="formula to gadget graph")
    rt.add_argument("formula")
    rt.set_defaults(handler=_cmd_gadget, kind="formula")
    rf = rsub.add_parser("from-partition", help="two-class decomposition back to an assignment")
    rf.add_argument("decomposition", help="decomposition JSON file, or -")
    rf.add_argument("--formula", required=True, help="formula file the gadget graph was built from")
    rf.set_defaults(handler=_cmd_reduce_from_partition)

    return parser


def _discard(fd: int) -> None:
    """Point ``fd`` at the null device after a write to it failed (a closed
    pipe, a full device), so the exit flush of what stays buffered is quiet."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    if devnull != fd:  # else ``fd`` was closed and ``os.open`` took it
        os.dup2(devnull, fd)
        os.close(devnull)


def _note(line: str) -> None:
    """``line`` on stderr; a stderr that cannot be written loses the line,
    not the exit code."""
    if sys.stderr is None:
        return
    try:
        print(line, file=sys.stderr, flush=True)
    except OSError:
        _discard(2)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        verdict, payload, stats, summary = args.handler(args)
    except ValueError as exc:
        _note(f"error: {exc}")
        return EXIT_USAGE
    except MemoryError:
        _note(OUT_OF_MEMORY)
        return EXIT_USAGE
    except Exception as exc:
        _note(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL
    report = {
        "command": args.command,
        "argv": argv,
        "verdict": verdict,
        "payload": payload,
        "stats": {"elapsed_s": round(time.perf_counter() - started, 6), **stats},
    }
    try:
        if sys.stdout is None:
            raise _no_stream()
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as exc:
        _discard(1)
        _note(f"error: cannot write report: {exc.strerror or exc}")
        return EXIT_USAGE
    except MemoryError:
        _note(OUT_OF_MEMORY)
        return EXIT_USAGE
    _note(summary)
    return _VERDICT_EXIT.get(verdict, 0)


if __name__ == "__main__":
    raise SystemExit(main())
