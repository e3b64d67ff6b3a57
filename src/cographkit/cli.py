"""Command-line front end.

Every invocation prints exactly one JSON report on stdout (command echo,
verdict, payload, statistics) and a short human summary on stderr.
Exit codes: 0 positive verdict / success, 1 negative verdict (not a
cograph, infeasible, failed certificate extraction), 2 usage or input
error, 3 node budget exhausted, 4 internal error (no report is written).
"""

from __future__ import annotations

import argparse
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
    enumerate_induced_p4,
    format_edge_list,
    hypercube,
    parse_edge_list,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_TIMEOUT = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    """File or format problem; reported on stderr with exit status 2."""


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


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
    return {"n": g.n, "m": len(g.edges), "edges": [[u, v] for u, v in g.edges]}


def graph_from_json(obj) -> Graph:
    if not isinstance(obj, dict) or "n" not in obj or "edges" not in obj:
        raise InputError("graph JSON needs \"n\" and \"edges\"")
    try:
        _check_vertex_count(obj["n"])
        return Graph(obj["n"], obj["edges"])
    except (TypeError, ValueError) as exc:
        raise InputError(f"bad graph JSON: {exc}") from exc


def _json_payload(text: str):
    """Decoded JSON text; the ``payload`` when it is a report of this CLI.
    Nesting too deep for the decoder is an input error like bad syntax."""
    try:
        doc = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
    if isinstance(doc, dict) and "payload" in doc:
        return doc["payload"]
    return doc


def _parse_graph(text: str) -> Graph:
    """Graph JSON (a report payload included) or an edge list."""
    if text.lstrip().startswith("{"):
        return graph_from_json(_json_payload(text))
    return parse_edge_list(text)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (exit_code, verdict, payload, stats, summary)
# and imports the modules it runs only when it is called, so a command loads
# no module it does not use
# ---------------------------------------------------------------------------


def _cmd_recognize(args):
    result = recognize(_read(args.graph, _parse_graph))
    if isinstance(result, P4Witness):
        return (
            EXIT_NEGATIVE,
            "not-cograph",
            {"p4": result},
            {},
            f"not a cograph: induced path on {tuple(result)}",
        )
    newick = to_newick(result)
    return EXIT_OK, "cograph", {"newick": newick, "leaves": result.num_leaves}, {}, f"cograph: {newick}"


def _cmd_cotree(args):
    g = _read(args.tree, lambda text: cotree_to_graph(parse_newick(text)))
    payload = graph_to_json(g)
    payload["edge_list"] = format_edge_list(g)
    return EXIT_OK, "ok", payload, {}, f"reconstructed {g.n} vertices, {len(g.edges)} edges"


def _cmd_p4s(args):
    g = _read(args.graph, _parse_graph)
    witnesses = enumerate_induced_p4(g)
    payload = {"count": len(witnesses), "witnesses": witnesses}
    return EXIT_OK, "ok", payload, {}, f"{len(witnesses)} induced paths"


def _cmd_hypercube(args):
    if args.dimension < 0:
        raise InputError("dimension must be non-negative")
    # 2**d exceeds the limit exactly when d reaches its bit length; 1 << d is unbounded
    if args.dimension >= MAX_VERTICES.bit_length():
        raise InputError(f"vertex count 2**{args.dimension} exceeds the limit of {MAX_VERTICES}")
    if args.layers:
        if args.dimension % 2 or args.dimension == 0:
            raise InputError("--layers needs a positive even dimension")
        from . import decomp

        d = decomp.layers_partition(args.dimension // 2)
        payload = decomp.decomposition_to_json(d)
        return EXIT_OK, "ok", payload, {}, f"layer partition of the {args.dimension}-cube, k={d.k}"
    g = hypercube(args.dimension)
    return EXIT_OK, "ok", graph_to_json(g), {}, f"{args.dimension}-cube: {g.n} vertices, {len(g.edges)} edges"


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
        return EXIT_NEGATIVE, "not-ultrametric", v._asdict(), {}, f"violates {v.axiom}{where}"
    if check:
        return EXIT_OK, "ultrametric", {"n": d.n, "symbols": d.num_symbols}, {}, "map is tree-representable"
    newick = to_newick(tree)
    return EXIT_OK, "ultrametric", {"newick": newick, "symbols": d.num_symbols}, {}, f"representation: {newick}"


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
        return EXIT_OK, "decomposed", payload, stats, f"{args.strategy}: k={d.k}"
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
        return EXIT_OK, "decomposed", payload, stats, f"exact minimum k={result.decomposition.k}"
    if result.status == decomp.INFEASIBLE:
        payload = {"k_max": k_max, "infeasible_below": result.infeasible_below}
        return EXIT_NEGATIVE, "infeasible", payload, stats, f"no {args.mode} with k <= {k_max}"
    payload = {"k_max": k_max, "infeasible_below": result.infeasible_below}
    return (
        EXIT_TIMEOUT,
        "timeout",
        payload,
        stats,
        f"budget exhausted; no {args.mode} with k <= {result.infeasible_below}",
    )


def _cmd_coarsen(args):
    from . import decomp

    host = None if args.graph is None else _read(args.graph, _parse_graph)
    d = _read(args.decomposition, lambda text: decomp.decomposition_from_json(_json_payload(text), host=host))
    fault = decomp.validate(d)
    if fault is not None:
        payload = {"kind": fault.kind, "detail": fault.detail or str(fault)}
        return EXIT_NEGATIVE, "invalid", payload, {}, f"input decomposition invalid: {fault.kind}"
    merging: dict = {}
    coarse = decomp.coarsen(d, merging)
    payload = decomp.decomposition_to_json(coarse)
    return EXIT_OK, "coarsened", payload, {"k": coarse.k, **merging}, f"coarsened to k={coarse.k}"


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
    return EXIT_OK, "ok", payload, {}, f"{args.kind} gadget: {g.n} vertices, {len(g.edges)} edges"


def _cmd_reduce_from_partition(args):
    from . import decomp, gadgets

    f = _read(args.formula, gadgets.parse_formula)
    d = _read(args.decomposition, lambda text: decomp.decomposition_from_json(_json_payload(text)))
    try:
        values = gadgets.assignment_from_partition(f, d)
    except ValueError as exc:
        return EXIT_NEGATIVE, "extraction-failed", {"reason": str(exc)}, {}, f"extraction failed: {exc}"
    payload = {"values": [bool(v) for v in values]}
    return EXIT_OK, "satisfiable", payload, {}, f"assignment {''.join('T' if v else 'F' for v in values)}"


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
    p.add_argument("dimension", type=int)
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
    p.add_argument("--k-max", type=int, default=None, help="largest k to try (default: max degree + 1)")
    p.add_argument(
        "--budget-nodes",
        type=int,
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


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    started = time.perf_counter()
    try:
        code, verdict, payload, stats, summary = args.handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    report = {
        "command": args.command,
        "argv": argv,
        "verdict": verdict,
        "payload": payload,
        "stats": {"elapsed_s": round(time.perf_counter() - started, 6), **stats},
    }
    try:
        json.dump(report, sys.stdout, indent=2)
        sys.stdout.write("\n")
        sys.stdout.flush()
    except OSError as exc:
        # a closed pipe or a full device: keep the exit flush quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)
        os.close(devnull)
        try:
            print(f"error: cannot write report: {exc.strerror or exc}", file=sys.stderr)
        except OSError:
            pass
        return EXIT_USAGE
    print(summary, file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
