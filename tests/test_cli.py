"""Command-line behavior: verdicts, exit codes, JSON reports, piping,
and byte-exact artifact round trips."""

import contextlib
import errno
import functools
import io
import json
import os
import random
import re
import subprocess
import sys
import tracemalloc

import pytest

from cographkit import (
    PARTITION,
    Decomposition,
    Graph,
    build_formula_graph,
    cotree_to_graph,
    decomposition_from_json,
    decomposition_to_json,
    enumerate_induced_p4,
    format_edge_list,
    hypercube,
    parse_formula,
    parse_newick,
    random_cotree,
    random_graph,
    to_newick,
    validate,
    vizing_partition,
)
from cographkit import cli
from cographkit.cli import graph_from_json, graph_to_json
from cographkit.graph import MAX_VERTICES
from helpers import (
    alternating_threshold,
    caterpillar_newick,
    child_env,
    cli_command,
    reference_format_edge_list,
    reference_graph_to_json,
    reference_validate,
    run_cli,
)

P4_TEXT = "4 3\n0 1\n1 2\n2 3\n"
K3_TEXT = "3 3\n0 1\n1 2\n0 2\n"
MAP_OK = "3 2\n- s0 s0\ns0 - s1\ns0 s1 -\n"
MAP_BAD = (
    "4 2\n"
    "- s0 s1 s1\n"
    "s0 - s1 s0\n"
    "s1 s1 - s0\n"
    "s1 s0 s0 -\n"
)
FORMULA_TEXT = "6 3\n0 3 1\n1 2 3\n3 4 5\n"


def report_of(out: str) -> dict:
    doc = json.loads(out)
    for field in ("command", "argv", "verdict", "payload", "stats"):
        assert field in doc
    return doc


def test_recognize_cograph_exits_zero(tmp_path):
    path = tmp_path / "k3.graph"
    path.write_text(K3_TEXT)
    code, out, err = run_cli(["recognize", str(path)])
    assert code == 0
    doc = report_of(out)
    assert doc["verdict"] == "cograph"
    assert doc["payload"]["newick"] == "(0,1,2)1;"
    assert "cograph" in err


def test_recognize_path_exits_one_with_witness():
    code, out, _ = run_cli(["recognize", "-"], stdin=P4_TEXT)
    assert code == 1
    doc = report_of(out)
    assert doc["verdict"] == "not-cograph"
    assert doc["payload"]["p4"] == [0, 1, 2, 3]


def test_recognize_missing_file_exits_two():
    code, out, err = run_cli(["recognize", "/no/such/file.graph"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_recognize_malformed_file_reports_line(tmp_path):
    path = tmp_path / "bad.graph"
    path.write_text("3 1\n0 1 2\n")
    code, _, err = run_cli(["recognize", str(path)])
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize(
    "text",
    [
        '{"n": 3.9, "edges": [[0, 2.5]]}',
        '{"n": "3", "edges": [[0, true]]}',
        '{"n": 1e400, "edges": []}',
    ],
)
def test_non_integer_graph_json_exits_two(text):
    code, out, err = run_cli(["recognize", "-"], stdin=text)
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


def test_graph_json_item_that_is_not_a_pair_is_named():
    for edges, shown in (("[[0, 1, 2]]", "[0, 1, 2]"), ("[5]", "5")):
        code, out, err = run_cli(["recognize", "-"], stdin='{"n": 3, "edges": ' + edges + "}")
        assert (code, out) == (2, "")
        assert f"bad graph JSON: edge {shown} is not a pair of endpoints" in err


def test_deeply_nested_graph_json_exits_two():
    text = '{"n": ' + "[" * 100_000 + "]" * 100_000 + ', "edges": []}'
    code, out, err = run_cli(["recognize", "-"], stdin=text)
    assert (code, out) == (2, "")
    assert err.startswith("error:")


@pytest.mark.parametrize(
    "text",
    ["1000000000000 0\n", '{"n": 1000000000000, "edges": []}', f"{MAX_VERTICES + 1} 0\n"],
)
def test_vertex_count_above_limit_exits_two(text):
    code, out, err = run_cli(["recognize", "-"], stdin=text)
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["gadget", "formula", "-"],
        ["reduce", "to-graph", "-"],
        ["reduce", "from-partition", "--formula", "-", "unread.json"],
        ["hypercube", "17"],
        ["hypercube", "40"],
        ["hypercube", "40", "--layers"],
    ],
)
def test_generated_graph_above_vertex_limit_exits_two(argv):
    # the formula header declares 9 * 10^12 gadget vertices; the 17-cube has 131,072
    code, out, err = run_cli(argv, stdin="1000000000000 0\n")
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "exceeds the limit" in err


def test_graph_json_vertex_limit():
    assert graph_from_json({"n": MAX_VERTICES, "edges": []}).n == MAX_VERTICES
    with pytest.raises(cli.InputError, match="exceeds the limit"):
        graph_from_json({"n": MAX_VERTICES + 1, "edges": []})


def test_internal_error_exits_four_without_report(monkeypatch):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_cmd_recognize", broken)
    code, out, err = run_cli(["recognize", "-"], stdin=K3_TEXT)
    assert code == cli.EXIT_INTERNAL == 4
    assert out == ""
    assert err == "internal error: RuntimeError: boom\n"


def test_recognize_threshold_graph_of_600_vertices():
    g, tree = alternating_threshold(random.Random(67).sample(range(600), 600))
    code, out, _ = run_cli(["recognize", "-"], stdin=format_edge_list(g))
    assert code == 0
    assert report_of(out)["payload"]["newick"] == to_newick(tree)


def test_cotree_of_depth_700():
    code, out, _ = run_cli(["cotree", "-"], stdin=caterpillar_newick(701) + "\n")
    assert code == 0
    want = Graph(701, [(x, y) for y in range(1, 701, 2) for x in range(y)])
    assert report_of(out)["payload"]["edge_list"] == format_edge_list(want)


def test_usage_error_exits_two():
    code, _, _ = run_cli(["no-such-command"])
    assert code == 2


def test_cotree_reconstructs_graph():
    code, out, _ = run_cli(["cotree", "-"], stdin="((0,1)0,2)1;\n")
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["edges"] == [[0, 2], [1, 2]]
    assert payload["edge_list"] == "3 2\n0 2\n1 2\n"


def test_p4s_lists_witnesses():
    code, out, _ = run_cli(["p4s", "-"], stdin="5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n")
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["count"] == 5
    assert len(payload["witnesses"]) == 5


def test_p4s_holds_one_copy_of_its_witnesses(tmp_path):
    # the report is written from the list enumerate_induced_p4 returns
    g = random_graph(60, 0.5, random.Random(1))
    path = tmp_path / "g.txt"
    path.write_text(format_edge_list(g))
    tracemalloc.start()
    try:
        assert len(enumerate_induced_p4(g)) == 93_176
        oracle_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["p4s", str(path)]) == 0
        cli_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli_peak < 1.25 * oracle_peak


def test_cotree_holds_one_copy_of_its_edges(tmp_path):
    # the payload holds the graph's own edge tuple and the edge-list text,
    # which is written without an object per edge
    text = "(" + ",".join(map(str, range(600))) + ")1;\n"
    path = tmp_path / "k600.tree"
    path.write_text(text)
    tracemalloc.start()
    try:
        assert cotree_to_graph(parse_newick(text)).m == 179_700
        oracle_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(["cotree", str(path)]) == 0
        cli_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cli_peak < 1.5 * oracle_peak


def test_graph_reports_match_the_per_edge_oracle(tmp_path):
    # each graph report is byte for byte the one written from [u, v] lists
    # and one "u v" line per edge
    rng = random.Random(31)
    formula = tmp_path / "f.nae"
    formula.write_text(FORMULA_TEXT)
    gadget = build_formula_graph(parse_formula(FORMULA_TEXT))
    cases = [(["hypercube", str(d)], "", hypercube(d), {}) for d in range(6)]
    for newick in [to_newick(random_cotree(rng.randint(1, 30), rng)) for _ in range(8)] + [caterpillar_newick(40)]:
        g = cotree_to_graph(parse_newick(newick))
        cases.append((["cotree", "-"], newick, g, {"edge_list": reference_format_edge_list(g)}))
    roles = {"roles": dict(sorted(gadget.roles.items()))}
    for argv in (["gadget", "formula", str(formula)], ["reduce", "to-graph", str(formula)]):
        cases.append((argv, "", gadget.graph, roles))
    for argv, stdin, g, extra in cases:
        assert graph_to_json(g)["edges"] is g.edges
        code, out, _ = run_cli(argv, stdin)
        assert code == 0
        want = {
            "command": argv[0],
            "argv": argv,
            "verdict": "ok",
            "payload": {**reference_graph_to_json(g), **extra},
            "stats": {"elapsed_s": json.loads(out)["stats"]["elapsed_s"]},
        }
        assert out == json.dumps(want, indent=2) + "\n", argv


def test_hypercube_graph_payload():
    code, out, _ = run_cli(["hypercube", "3"])
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["n"] == 8 and payload["m"] == 12


def test_hypercube_layer_partition():
    code, out, _ = run_cli(["hypercube", "4", "--layers"])
    assert code == 0
    payload = report_of(out)["payload"]
    assert payload["k"] == 2 and payload["mode"] == "partition"
    d = decomposition_from_json(payload)
    # the payload was decoded into lists; the report builder hands on tuples
    assert json.loads(json.dumps(decomposition_to_json(d))) == payload


def test_hypercube_layers_needs_even_dimension():
    code, _, err = run_cli(["hypercube", "3", "--layers"])
    assert code == 2
    assert "even" in err


def test_hypercube_negative_dimension_exits_two():
    assert run_cli(["hypercube", "-1"]) == (2, "", "error: dimension must be non-negative\n")


def test_ultrametric_check_verdicts():
    code, out, _ = run_cli(["ultrametric", "check", "-"], stdin=MAP_OK)
    assert code == 0
    assert report_of(out)["verdict"] == "ultrametric"

    code, out, _ = run_cli(["ultrametric", "check", "-"], stdin=MAP_BAD)
    assert code == 1
    doc = report_of(out)
    assert doc["verdict"] == "not-ultrametric"
    assert doc["payload"]["axiom"] in ("U2", "U3")


def test_ultrametric_represent_emits_tree():
    code, out, _ = run_cli(["ultrametric", "represent", "-"], stdin=MAP_OK)
    assert code == 0
    payload = report_of(out)["payload"]
    tree = parse_newick(payload["newick"])
    assert to_newick(tree) == payload["newick"]
    assert tree.lca_label(1, 2) == 1
    assert tree.lca_label(0, 1) == 0


def test_ultrametric_empty_map_passes_check_only():
    code, out, _ = run_cli(["ultrametric", "check", "-"], stdin="0 1\n")
    assert (code, report_of(out)["payload"]) == (0, {"n": 0, "symbols": 1})
    code, out, err = run_cli(["ultrametric", "represent", "-"], stdin="0 1\n")
    assert (code, out) == (2, "")
    assert err == "error: representation needs at least one vertex\n"


def test_ultrametric_check_of_an_empty_alphabet_names_it(tmp_path):
    path = tmp_path / "k0.map"
    path.write_text("2 0\n- s0\ns0 -\n")
    assert run_cli(["ultrametric", "check", str(path)]) == (
        2, "", f"error: {path}: alphabet must contain at least one symbol, got 0\n")


def test_ultrametric_represent_bad_map_exits_one():
    code, out, _ = run_cli(["ultrametric", "represent", "-"], stdin=MAP_BAD)
    assert code == 1
    assert report_of(out)["verdict"] == "not-ultrametric"


def test_decompose_exact_on_literal_gadget():
    from cographkit.gadgets import literal_partition

    code, out, _ = run_cli(["gadget", "literal"])
    assert code == 0
    code, out2, _ = run_cli(
        ["decompose", "--mode", "partition", "--strategy", "exact", "--k-max", "3", "-"],
        stdin=out,
    )
    assert code == 0
    doc = report_of(out2)
    assert doc["verdict"] == "decomposed"
    assert doc["payload"]["k"] == 2
    assert doc["payload"] == json.loads(json.dumps(decomposition_to_json(literal_partition())))
    assert doc["stats"]["nodes"] > 0


@pytest.mark.parametrize("leaves", [MAX_VERTICES, MAX_VERTICES + 1])
def test_cotree_newick_leaf_limit(tmp_path, leaves):
    path = tmp_path / "star.newick"
    path.write_text("(" + ",".join(map(str, range(leaves))) + ")0;\n")
    code, out, err = run_cli(["cotree", str(path)])
    if leaves <= MAX_VERTICES:
        assert code == 0
        assert report_of(out)["payload"]["edge_list"] == f"{leaves} 0\n"
    else:
        assert (code, out) == (2, "")
        assert err.startswith(f"error: {path}: ") and "exceeds the limit" in err


def test_cotree_malformed_newick_exits_two():
    code, _, err = run_cli(["cotree", "-"], stdin="((0,1)0,2)1")
    assert code == 2
    assert "newick position" in err


@pytest.mark.parametrize("text", ["(\u0663,1)0;", "(\u00b2,1)0;"])
def test_cotree_non_ascii_digit_exits_two(text):
    code, out, err = run_cli(["cotree", "-"], stdin=text + "\n")
    assert (code, out) == (2, "")
    assert "newick position 1: expected an integer" in err


def test_cotree_renumbered_leaf_error_names_the_leaf():
    leaves = list(range(20_000))
    leaves[17] = 20_017
    code, out, err = run_cli(["cotree", "-"], stdin="(" + ",".join(map(str, leaves)) + ")0;\n")
    assert (code, out) == (2, "")
    assert err == "error: -: leaf vertices must be exactly 0..19999, got leaf 20017\n"
    assert len(err.encode()) < 200


LONG = 100_000
# one oversized input per error message that quotes its input
OVERSIZED_INPUTS = {
    "edge-list-header": (["recognize", "-"], "0 " * 200_000 + "\n"),
    "edge-list-header-token": (["recognize", "-"], "x" * 300_000 + "\n"),
    "edge-list-line": (["recognize", "-"], "3 1\n0 " + "1" * LONG + " 2\n"),
    "graph-json-edge": (["recognize", "-"], json.dumps({"n": 3, "edges": [[0] * 50_000]})),
    "graph-json-endpoint": (["recognize", "-"], json.dumps({"n": 3, "edges": [[0, "x" * LONG]]})),
    "graph-json-n": (["recognize", "-"], json.dumps({"n": "x" * LONG, "edges": []})),
    "formula-line": (["gadget", "formula", "-"], "3 1\n" + "0 " * LONG + "\n"),
    "map-token": (["ultrametric", "check", "-"], "2 1\n- s" + "0" * LONG + "x\ns0 -\n"),
    "decomposition-k": (["coarsen", "-"], json.dumps({"n": 2, "mode": "partition", "k": "k" * LONG, "classes": []})),
    "decomposition-n": (["coarsen", "-"], json.dumps({"n": "n" * LONG, "mode": "partition", "k": 0, "classes": []})),
    "decomposition-mode": (["coarsen", "-"], json.dumps({"n": 2, "mode": "m" * LONG, "k": 0, "classes": []})),
}


@pytest.mark.parametrize("argv, text", OVERSIZED_INPUTS.values(), ids=OVERSIZED_INPUTS.keys())
def test_errors_quote_a_bounded_excerpt(argv, text):
    code, out, err = run_cli(argv, stdin=text)
    assert (code, out) == (2, "")
    assert len(err.encode()) <= 300 and "..." in err, err[:400]


D = "9" * 4000
HUGE = "1" + "0" * 4299  # 10**4299, the widest integer Python converts to text by default
# one input per message that quotes an integer, or a token of digits, read from the input
OVERSIZED_INTEGERS = {
    "edge-list-declared-edges": (["recognize", "-"], f"1 {D}\n"),
    "header-negative": (["recognize", "-"], f"-{D} 1\n"),
    "graph-json-vertex-count": (["recognize", "-"], f'{{"n": {HUGE}, "edges": []}}'),
    "formula-vertex-count": (["gadget", "formula", "-"], f"0 {D}\n"),
    "map-rows": (["ultrametric", "check", "-"], f"{D} 1\n"),
    "map-symbol": (["ultrametric", "check", "-"], f"2 1\n- s{D}\ns{D} -\n"),
    "formula-clause": (["gadget", "formula", "-"], f"1 1\n0 0 {D}\n"),
    "formula-unknown-variable": (["gadget", "formula", "-"], f"3 1\n0 1 {D}\n"),
    "hypercube": (["hypercube", D], ""),
    "decomposition-k": (["coarsen", "-"], f'{{"n": 2, "mode": "partition", "k": {HUGE}, "classes": []}}'),
    # past Python's limit on int-to-text conversion: a formula order of 4,301
    # digits, and a JSON number of 5,000 digits that the decoder cannot read
    "formula-order-past-the-digit-limit": (["gadget", "formula", "-"], "9" * 4300 + " 0\n"),
    "graph-json-past-the-digit-limit": (["recognize", "-"], f'{{"n": {"9" * 5000}, "edges": []}}'),
    "cotree-leaf": (["cotree", "-"], f"(0,{D})1;"),
    "cotree-repeated-leaf": (["cotree", "-"], f"({D},{D})1;"),
    "cotree-label": (["cotree", "-"], f"(0,1){D};"),
}


C5_TEXT = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
# integer arguments of 5,000 digits, past Python's limit on int-from-text
# conversion; argparse's usage text comes first, so their bound is wider.
# The negative ones parse, and the solver rejects them on the 5-cycle
OVERSIZED_ARGUMENTS = {
    "hypercube-dimension-argument": (["hypercube", "9" * 5000], ""),
    "k-max-argument": (["decompose", "--k-max", "9" * 5000, "-"], ""),
    "budget-nodes-argument": (["decompose", "--budget-nodes", "9" * 5000, "-"], ""),
    "negative-k-max-argument": (["decompose", "--k-max", f"-{D}", "-"], C5_TEXT),
    "negative-budget-nodes-argument": (["decompose", "--budget-nodes", f"-{D}", "-"], C5_TEXT),
}


@pytest.mark.parametrize(
    "argv, text, limit",
    [(argv, text, 300) for argv, text in OVERSIZED_INTEGERS.values()]
    + [(argv, text, 400) for argv, text in OVERSIZED_ARGUMENTS.values()],
    ids=[*OVERSIZED_INTEGERS, *OVERSIZED_ARGUMENTS],
)
def test_errors_quote_a_bounded_excerpt_of_integers(argv, text, limit):
    code, out, err = run_cli(argv, stdin=text)
    assert (code, out) == (2, "")
    assert len(err.encode()) <= limit and "..." in err, err[:400]


def test_coarsen_with_explicit_host(tmp_path):
    host = tmp_path / "k3.graph"
    host.write_text(K3_TEXT)
    obj = {
        "mode": "partition",
        "k": 3,
        "n": 3,
        "classes": [[[0, 1]], [[1, 2]], [[0, 2]]],
    }
    code, out, _ = run_cli(["coarsen", "--graph", str(host), "-"], stdin=json.dumps(obj))
    assert code == 0
    assert report_of(out)["payload"]["k"] == 1


def test_coarsen_with_empty_host_path_exits_two():
    # an empty path names a file that cannot be read; it does not mean "no host"
    obj = {"mode": "partition", "k": 1, "n": 3, "classes": [[[0, 1]]]}
    code, out, err = run_cli(["coarsen", "--graph", "", "-"], stdin=json.dumps(obj))
    assert (code, out) == (2, "")
    assert err == "error: cannot read : No such file or directory\n"


def test_decompose_vizing_pipe_from_gadget(tmp_path):
    path = tmp_path / "formula.nae"
    path.write_text(FORMULA_TEXT)
    code, out, _ = run_cli(["gadget", "formula", str(path)])
    assert code == 0
    gg = report_of(out)["payload"]
    assert gg["n"] == 72
    code, out2, _ = run_cli(["decompose", "--strategy", "vizing", "-"], stdin=out)
    assert code == 0
    payload = report_of(out2)["payload"]
    host = graph_from_json(gg)
    assert payload["k"] <= host.max_degree() + 1


def test_decompose_infeasible_exits_one():
    code, out, _ = run_cli(
        ["decompose", "--strategy", "exact", "--k-max", "1", "-"], stdin=P4_TEXT
    )
    assert code == 1
    assert report_of(out)["verdict"] == "infeasible"


def test_decompose_budget_timeout_exits_three():
    code, out, _ = run_cli(
        [
            "decompose",
            "--strategy",
            "exact",
            "--k-max",
            "2",
            "--budget-nodes",
            "2",
            "-",
        ],
        stdin="5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    )
    assert code == 3
    assert report_of(out)["verdict"] == "timeout"


def test_decompose_constraint_budget_timeout_exits_three():
    # about 10^8 length-3 paths; the budget also bounds building them
    import random

    from cographkit import random_graph

    g = random_graph(300, 0.3, random.Random(300))
    code, out, _ = run_cli(
        ["decompose", "--strategy", "exact", "--budget-nodes", "100000", "-"],
        stdin=format_edge_list(g),
    )
    assert code == 3
    assert report_of(out)["verdict"] == "timeout"


def test_decompose_counts_constraints_over_the_default_budget(tmp_path):
    # about 10^8 length-3 paths against the default budget of 10^7: they are
    # counted, and none is built, so the timeout is quick and small
    import time

    path = tmp_path / "g300.txt"
    path.write_text(format_edge_list(random_graph(300, 0.3, random.Random(1))))
    out, err = io.StringIO(), io.StringIO()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(["decompose", "--strategy", "exact", str(path)])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3
    stats = report_of(out.getvalue())["stats"]
    assert stats["nodes"] == 0 and stats["nodes_per_k"] == []
    assert "budget exhausted; no partition with k <= 0" in err.getvalue()
    assert peak < 16 << 20
    assert elapsed < 2.0


def test_decompose_exact_reports_nodes_per_k():
    code, out, _ = run_cli(
        ["decompose", "--strategy", "exact", "--k-max", "3", "-"],
        stdin="5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n",
    )
    assert code == 0
    stats = report_of(out)["stats"]
    assert len(stats["nodes_per_k"]) == 2
    assert sum(stats["nodes_per_k"]) == stats["nodes"]


def test_decompose_greedy_coarsens():
    code, out, _ = run_cli(["decompose", "--strategy", "greedy", "-"], stdin=K3_TEXT)
    assert code == 0
    assert report_of(out)["payload"]["k"] == 1


def test_decompose_greedy_reports_coarsening_counts():
    # the three color classes of a triangle merge pairwise in two rounds
    code, out, _ = run_cli(["decompose", "--strategy", "greedy", "-"], stdin=K3_TEXT)
    assert code == 0
    stats = report_of(out)["stats"]
    assert (stats["unions_tested"], stats["merges"]) == (2, 2)


def test_decompose_greedy_on_dense_forty_vertex_graph():
    g = random_graph(40, 0.5, random.Random(1))
    code, out, _ = run_cli(["decompose", "--strategy", "greedy", "-"], stdin=format_edge_list(g))
    assert code == 0
    d = decomposition_from_json(report_of(out)["payload"], host=g)
    assert validate(d) is None


def test_coarsen_decomposition_json():
    # two singleton classes of a triangle merge into one
    obj = {
        "mode": "partition",
        "k": 3,
        "n": 3,
        "classes": [[[0, 1]], [[1, 2]], [[0, 2]]],
    }
    code, out, _ = run_cli(["coarsen", "-"], stdin=json.dumps(obj))
    assert code == 0
    assert report_of(out)["payload"]["k"] == 1


def test_coarsen_reports_unions_tested_and_merges():
    obj = {"mode": "partition", "k": 3, "n": 4, "classes": [[[0, 1]], [[1, 2]], [[2, 3]]]}
    code, out, _ = run_cli(["coarsen", "-"], stdin=json.dumps(obj))
    assert code == 0
    doc = report_of(out)
    # 01+12 merge; the path 01+12+23 is not a cograph, so the scan stops
    assert doc["payload"]["k"] == 2
    assert (doc["stats"]["unions_tested"], doc["stats"]["merges"]) == (2, 1)


MALFORMED_DECOMPOSITIONS = [
    {"mode": "partition", "k": 1, "n": 3, "classes": [5]},
    {"mode": "partition", "k": 1, "n": None, "classes": [[[0, 1]]]},
    {"mode": "partition", "k": "1", "n": 3, "classes": [[[0, 1]]]},
]


@pytest.mark.parametrize("obj", MALFORMED_DECOMPOSITIONS)
def test_coarsen_malformed_decomposition_exits_two(obj):
    code, out, err = run_cli(["coarsen", "-"], stdin=json.dumps(obj))
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


@pytest.mark.parametrize("obj", MALFORMED_DECOMPOSITIONS)
def test_reduce_from_partition_malformed_decomposition_exits_two(tmp_path, obj):
    formula = tmp_path / "f.nae"
    formula.write_text("3 1\n0 1 2\n")
    code, out, err = run_cli(
        ["reduce", "from-partition", "--formula", str(formula), "-"], stdin=json.dumps(obj)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:")


GOOD_DECOMPOSITION = json.dumps({"mode": "partition", "k": 1, "n": 3, "classes": [[[0, 1]]]})
BAD_DECOMPOSITION = json.dumps({"mode": "partition", "k": 1, "n": 3, "classes": [5]})

# (argv with {bad} for the malformed file and {good} for a well-formed one,
# malformed contents, well-formed contents)
MALFORMED_INPUTS = {
    "edge-list": (["recognize", "{bad}"], "3 1\n0 1 2\n", None),
    "graph-json": (["recognize", "{bad}"], '{"n": 3}', None),
    "graph-json-syntax": (["p4s", "{bad}"], '{"n": 3,', None),
    "newick": (["cotree", "{bad}"], "(0,1", None),
    "symbol-map": (["ultrametric", "check", "{bad}"], "2 1\n- s0\ns1 -\n", None),
    "formula": (["gadget", "formula", "{bad}"], "3 1\n0 x 2\n", None),
    "formula-to-graph": (["reduce", "to-graph", "{bad}"], "3 1\n0 1\n", None),
    "decomposition": (["coarsen", "{bad}"], BAD_DECOMPOSITION, None),
    "decomposition-syntax": (["coarsen", "{bad}"], "[", None),
    "non-utf8": (["decompose", "{bad}"], b"4 3\n0 1\n\xff\xfe\n", None),
    "from-partition-formula": (["reduce", "from-partition", "--formula", "{bad}", "{good}"], "3 1\n0 x 2\n",
                               GOOD_DECOMPOSITION),
    "from-partition-decomposition": (["reduce", "from-partition", "--formula", "{good}", "{bad}"],
                                     BAD_DECOMPOSITION, "3 1\n0 1 2\n"),
    "coarsen-graph": (["coarsen", "{good}", "--graph", "{bad}"], "3 1\n0 9\n", GOOD_DECOMPOSITION),
    "coarsen-decomposition": (["coarsen", "{bad}", "--graph", "{good}"], BAD_DECOMPOSITION, "3 1\n0 1\n"),
    "coarsen-host-mismatch": (["coarsen", "{bad}", "--graph", "{good}"], GOOD_DECOMPOSITION, "4 1\n0 1\n"),
}


@pytest.mark.parametrize("argv, bad, good", MALFORMED_INPUTS.values(), ids=MALFORMED_INPUTS.keys())
def test_malformed_input_error_names_its_file(tmp_path, argv, bad, good):
    paths = {"bad": tmp_path / "input.bad", "good": tmp_path / "input.good"}
    for name, contents in (("bad", bad), ("good", good)):
        if contents is not None:
            paths[name].write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    bad_path = str(paths["bad"])
    code, out, err = run_cli([arg.format(bad=bad_path, good=paths["good"]) for arg in argv])
    assert (code, out) == (2, ""), err
    assert err.startswith(f"error: {bad_path}: "), err
    assert err.count(bad_path) == 1 and str(paths["good"]) not in err


def test_mutated_inputs_exit_two_naming_the_file_never_four(tmp_path):
    """Seeded byte mutations of one well-formed input per reader: a rejected
    input exits 2 with the file named first, and none is an internal error."""
    valid = [
        (["recognize"], P4_TEXT),
        (["recognize"], json.dumps(graph_to_json(Graph(4, [(0, 1), (1, 2), (2, 3)])))),
        (["cotree"], "(0,(1,2)1)0;\n"),
        (["ultrametric", "check"], MAP_OK),
        (["gadget", "formula"], FORMULA_TEXT),
        (["coarsen"], GOOD_DECOMPOSITION),
    ]
    alphabet = b' -,;:()[]{}"01239nxs\n\xff'
    path = tmp_path / "mutated"
    rng = random.Random(4)
    for argv, text in valid:
        for _ in range(60):
            data = bytearray(text.encode())
            for _ in range(rng.randint(1, 2)):
                pos = rng.randrange(len(data))
                if rng.random() < 0.5:
                    del data[pos]
                else:
                    data.insert(pos, rng.choice(alphabet))
            path.write_bytes(bytes(data))
            code, out, err = run_cli([*argv, str(path)])
            assert code != 4, (argv, bytes(data), err)
            if code == 2:
                assert out == "" and err.startswith(f"error: {path}: "), (argv, bytes(data), err)


@pytest.mark.parametrize("strategy", ["vizing", "greedy"])
@pytest.mark.parametrize("flag, value", [("--mode", "cover"), ("--k-max", "1"), ("--budget-nodes", "0")])
def test_decompose_rejects_exact_only_flags(strategy, flag, value):
    code, out, err = run_cli(["decompose", "--strategy", strategy, flag, value, "-"], stdin=P4_TEXT)
    assert (code, out) == (2, "")
    named = f"{flag} {value}" if flag == "--mode" else flag
    assert err == f"error: {named} applies only to --strategy exact\n"


@pytest.mark.parametrize("strategy", ["vizing", "greedy"])
def test_decompose_heuristics_accept_partition_mode(strategy):
    code, out, _ = run_cli(["decompose", "--strategy", strategy, "--mode", "partition", "-"], stdin=P4_TEXT)
    assert code == 0
    assert report_of(out)["payload"]["mode"] == "partition"


def test_reduce_to_graph_is_gadget_formula(tmp_path):
    formula = tmp_path / "f.nae"
    formula.write_text(FORMULA_TEXT)
    reports = []
    for argv in (["gadget", "formula", str(formula)], ["reduce", "to-graph", str(formula)]):
        code, out, err = run_cli(argv)
        assert code == 0
        reports.append(report_of(out))
        assert err == "formula gadget: 72 vertices, 108 edges\n"
    assert reports[0]["payload"] == reports[1]["payload"]


def test_coarsen_invalid_decomposition_exits_one():
    obj = {
        "mode": "partition",
        "k": 1,
        "n": 5,
        "classes": [[[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]],
    }
    code, out, _ = run_cli(["coarsen", "-"], stdin=json.dumps(obj))
    assert code == 1
    assert report_of(out)["verdict"] == "invalid"


def test_coarsen_validates_a_valid_input_once(tmp_path, monkeypatch):
    from cographkit import decomp

    calls = []
    real = decomp.validate

    def counting(d):
        calls.append(d)
        return real(d)

    monkeypatch.setattr(decomp, "validate", counting)
    path = tmp_path / "d.json"
    path.write_text(json.dumps({"mode": "partition", "k": 3, "n": 3, "classes": [[[0, 1]], [[1, 2]], [[0, 2]]]}))
    assert run_cli(["coarsen", str(path)])[0] == 0
    assert len(calls) == 1
    # an invalid input still reports the first fault, read from coarsen's error
    path.write_text(json.dumps({"mode": "partition", "k": 2, "n": 3, "classes": [[[0, 1], [1, 2]], [[1, 2]]]}))
    calls.clear()
    code, out, _ = run_cli(["coarsen", str(path)])
    assert code == 1
    assert len(calls) == 1
    doc = report_of(out)
    assert doc["payload"] == {"kind": "overlap", "detail": "classes 0 and 1 share edges [(1, 2)]"}
    assert set(doc["stats"]) == {"elapsed_s"}


def test_coarsen_reports_an_invalid_merge_of_vizing_classes_as_the_pairwise_oracle(tmp_path):
    # the 120 Vizing classes of G(300, 0.3) with the last two merged: 119
    # disjoint classes, and the merged one is not a cograph
    d = vizing_partition(random_graph(300, 0.3, random.Random(1)))
    d = Decomposition(d.host, (*d.classes[:-2], d.classes[-2] | d.classes[-1]), PARTITION)
    fault = reference_validate(d)
    assert (d.k, fault.kind, fault.class_index) == (119, "class-not-cograph", 118)
    path = tmp_path / "d.json"
    path.write_text(json.dumps(decomposition_to_json(d)))
    code, out, err = run_cli(["coarsen", str(path)])
    report = {
        "command": "coarsen",
        "argv": ["coarsen", str(path)],
        "verdict": "invalid",
        "payload": {"kind": fault.kind, "detail": str(fault)},
        "stats": {"elapsed_s": 0},
    }
    masked = re.sub(r'"elapsed_s": [0-9.e-]+', '"elapsed_s": 0', out)
    assert (code, masked, err) == (1, json.dumps(report, indent=2) + "\n", "input decomposition invalid: class-not-cograph\n")


def test_gadget_payloads_round_trip_roles():
    for kind, n in (("literal", 9), ("extended", 12), ("clause", 33)):
        code, out, _ = run_cli(["gadget", kind])
        assert code == 0
        payload = report_of(out)["payload"]
        assert payload["n"] == n
        assert sorted(payload["roles"].values()) == list(range(n))


def test_reduce_round_trip(tmp_path):
    from cographkit import NaeFormula, partition_from_assignment

    formula = tmp_path / "f.nae"
    formula.write_text(FORMULA_TEXT)
    code, out, _ = run_cli(["reduce", "to-graph", str(formula)])
    assert code == 0
    assert report_of(out)["payload"]["n"] == 72

    # certificate built from a satisfying assignment, then read back
    f = NaeFormula(6, ((0, 3, 1), (1, 2, 3), (3, 4, 5)))
    values = (True, False, True, False, True, False)
    d = partition_from_assignment(f, values)
    code, out2, _ = run_cli(
        ["reduce", "from-partition", "--formula", str(formula), "-"],
        stdin=json.dumps(decomposition_to_json(d)),
    )
    assert code == 0
    doc = report_of(out2)
    assert doc["verdict"] == "satisfiable"
    assert tuple(doc["payload"]["values"]) == values


def test_reduce_from_partition_rejects_bad_certificate(tmp_path):
    formula = tmp_path / "f.nae"
    formula.write_text("3 1\n0 1 2\n")
    obj = {"mode": "partition", "k": 2, "n": 33, "classes": [[[0, 1]], [[1, 2]]]}
    code, out, _ = run_cli(
        ["reduce", "from-partition", "--formula", str(formula), "-"],
        stdin=json.dumps(obj),
    )
    assert code == 1
    assert report_of(out)["verdict"] == "extraction-failed"


def test_reduce_from_partition_names_the_fault_kind_of_an_overlapping_certificate(tmp_path):
    # both classes hold every edge of the one-clause formula graph: the
    # summary names the fault kind, not each of the 48 shared edges
    formula = tmp_path / "clause.nae"
    formula.write_text("3 1\n0 1 2\n")
    code, out, _ = run_cli(["reduce", "to-graph", str(formula)])
    graph = report_of(out)["payload"]
    obj = {"mode": "partition", "k": 2, "n": graph["n"], "classes": [graph["edges"], graph["edges"]]}
    code, out, err = run_cli(
        ["reduce", "from-partition", "--formula", str(formula), "-"], stdin=json.dumps(obj)
    )
    assert code == 1
    doc = report_of(out)
    assert doc["verdict"] == "extraction-failed"
    assert doc["payload"]["reason"].startswith("cannot read an assignment from an invalid decomposition: ")
    assert "kind='overlap'" in doc["payload"]["reason"]
    assert len(err.encode()) <= 300 and "overlap" in err
    assert err == "extraction failed: invalid decomposition: overlap\n"


def test_overlap_of_a_large_certificate_is_quoted_in_bounded_form(tmp_path):
    # 400 clauses (i, i+1, i+2) mod 400, and both classes hold all 9,600
    # edges of the formula graph: the detail quotes a bounded part of the
    # shared-edge list instead of the whole list
    formula = tmp_path / "f.nae"
    formula.write_text("400 400\n" + "".join(f"{i} {(i + 1) % 400} {(i + 2) % 400}\n" for i in range(400)))
    graph = report_of(run_cli(["reduce", "to-graph", str(formula)])[1])["payload"]
    assert len(graph["edges"]) == 9600
    cert = tmp_path / "c.json"
    cert.write_text(json.dumps({"mode": "partition", "k": 2, "n": graph["n"], "classes": [graph["edges"]] * 2}))
    cases = (
        (["reduce", "from-partition", "--formula", str(formula), str(cert)], "extraction-failed",
         "extraction failed: invalid decomposition: overlap\n"),
        (["coarsen", str(cert)], "invalid", "input decomposition invalid: overlap\n"),
    )
    for argv, verdict, summary in cases:
        code, out, err = run_cli(argv)
        assert (code, report_of(out)["verdict"], err) == (1, verdict, summary)
        assert "classes 0 and 1 share edges [(0, 1), (0, 2), " in out
        assert len(out.encode()) < 1024, len(out.encode())


def test_graph_json_round_trip_is_canonical():
    g = Graph(4, [(0, 1), (1, 2), (2, 3)])
    obj = graph_to_json(g)
    assert graph_from_json(obj) == g
    assert graph_to_json(graph_from_json(obj)) == obj
    text = format_edge_list(g)
    assert format_edge_list(graph_from_json(obj)) == text


def test_emitted_newick_round_trips_bytes():
    code, out, _ = run_cli(["recognize", "-"], stdin=K3_TEXT)
    newick = report_of(out)["payload"]["newick"]
    assert to_newick(parse_newick(newick)) == newick


def test_bad_solver_parameters_exit_two():
    code, out, err = run_cli(
        ["decompose", "--strategy", "exact", "--k-max", "0", "-"], stdin=K3_TEXT
    )
    assert code == 2
    assert out == ""
    assert "k_max" in err


@pytest.mark.parametrize("text", [P4_TEXT, "3 0\n"])
def test_negative_node_budget_exits_two(text):
    for mode in ("partition", "cover"):
        argv = ["decompose", "--strategy", "exact", "--mode", mode, "--budget-nodes", "-1", "-"]
        code, out, err = run_cli(argv, stdin=text)
        assert (code, out) == (2, "")
        assert err == "error: node budget must be non-negative, got -1\n"
    # a zero budget stays valid: the path times out, the edgeless graph needs no node
    code, _, _ = run_cli(["decompose", "--strategy", "exact", "--budget-nodes", "0", "-"], stdin=text)
    assert code == (3 if text == P4_TEXT else 0)


def _run_cli_process(
    argv: list[str], stdout, stderr=subprocess.PIPE, close: int | None = None, **options
) -> subprocess.CompletedProcess:
    """The CLI in a fresh interpreter with the given stdout and stderr files
    or fds, block-buffered as it is by default; ``close`` is a standard fd
    that the child starts without, as a shell's ``<&-`` leaves it."""
    preexec = None if close is None else functools.partial(os.close, close)
    return subprocess.run(
        [*cli_command(), *argv], stdout=stdout, stderr=stderr, env=child_env(), timeout=120, preexec_fn=preexec,
        **options,
    )


def _assert_unwritable_report(proc: subprocess.CompletedProcess, reason: str) -> None:
    err = proc.stderr.decode()
    assert proc.returncode == 2, err
    assert "Traceback" not in err
    assert err == f"error: cannot write report: {reason}\n"


# a report larger than the stdout buffer fails while it is written; a small
# one fails at the flush and stays buffered, so the exit flush would fail again
UNWRITABLE_REPORTS = [["hypercube", "12"], ["hypercube", "3"]]


@pytest.mark.parametrize("argv", UNWRITABLE_REPORTS)
def test_closed_stdout_pipe_exits_two(argv):
    read_end, write_end = os.pipe()
    os.close(read_end)  # closed before the child writes anything
    try:
        proc = _run_cli_process(argv, write_end)
    finally:
        os.close(write_end)
    _assert_unwritable_report(proc, os.strerror(errno.EPIPE))


NEEDS_DEV_FULL = pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")


@NEEDS_DEV_FULL
@pytest.mark.parametrize("argv", UNWRITABLE_REPORTS)
def test_full_device_stdout_exits_two(argv):
    with open("/dev/full", "wb") as full:
        proc = _run_cli_process(argv, full)
    _assert_unwritable_report(proc, os.strerror(errno.ENOSPC))


@pytest.mark.parametrize("argv", UNWRITABLE_REPORTS)
def test_closed_stdout_exits_two(argv):
    proc = _run_cli_process(argv, None, close=1)
    _assert_unwritable_report(proc, os.strerror(errno.EBADF))


# a stderr that cannot be written loses the summary or the error line, not
# the exit code, which would otherwise read 1, a negative verdict
@pytest.mark.parametrize("sink", ["closed", pytest.param("full", marks=NEEDS_DEV_FULL)])
@pytest.mark.parametrize(
    "argv, code",
    [(["recognize", "p3.txt"], 0), (["hypercube", "3"], 0), (["recognize", "missing.txt"], 2)],
    ids=["recognize", "hypercube", "missing-file"],
)
def test_unwritable_stderr_keeps_the_exit_code(argv, code, sink, tmp_path):
    (tmp_path / "p3.txt").write_text("3 2\n0 1\n1 2\n")
    with open(os.devnull if sink == "closed" else "/dev/full", "wb") as err:
        proc = _run_cli_process(argv, subprocess.PIPE, err, close=2 if sink == "closed" else None, cwd=tmp_path)
    assert proc.returncode == code
    if code:
        assert proc.stdout == b""
    else:  # the report alone: a summary never lands on stdout
        assert json.loads(proc.stdout)["argv"] == argv


def test_closed_stdin_is_an_input_error():
    proc = _run_cli_process(["recognize", "-"], subprocess.PIPE, close=0)
    assert (proc.returncode, proc.stdout) == (2, b"")
    assert proc.stderr.decode() == f"error: cannot read -: {os.strerror(errno.EBADF)}\n"


@pytest.mark.parametrize(
    "data, code",
    [
        (b"3 2\r\n0 1\r\n1 2\r\n", 0),
        (b"3 2\r0 1\r1 2\r", 2),  # a line ends at \n alone
        (b"\xff", 2),
        (b"3 2\n0 1\n1 \xff\n", 2),
    ],
    ids=["crlf", "cr", "not-utf8-header", "not-utf8-edge"],
)
def test_a_file_and_stdin_give_the_same_outcome(data, code, tmp_path):
    (tmp_path / "g.txt").write_bytes(data)
    from_file = _run_cli_process(["recognize", "g.txt"], subprocess.PIPE, cwd=tmp_path)
    from_stdin = _run_cli_process(["recognize", "-"], subprocess.PIPE, input=data)
    assert from_file.returncode == from_stdin.returncode == code
    assert from_file.stderr.decode().replace("error: g.txt: ", "error: -: ") == from_stdin.stderr.decode()
    if code == 0:
        assert json.loads(from_file.stdout)["payload"] == json.loads(from_stdin.stdout)["payload"]


DECOMP, GADGETS, SYMBOLIC = "cographkit.decomp", "cographkit.gadgets", "cographkit.symbolic"


@pytest.mark.parametrize(
    "argv, stdin, loaded, absent",
    [
        (["recognize", "-"], P4_TEXT, (), (DECOMP, GADGETS, SYMBOLIC, "dataclasses")),
        (["cotree", "-"], "(0,(1,2)1)0;\n", (), (DECOMP, GADGETS, SYMBOLIC, "dataclasses")),
        (["ultrametric", "check", "-"], MAP_OK, (SYMBOLIC,), (DECOMP, GADGETS)),
        (["decompose", "-"], P4_TEXT, (DECOMP,), (GADGETS, SYMBOLIC, "dataclasses", "inspect")),
        (["gadget", "literal"], "", (GADGETS,), (DECOMP, SYMBOLIC)),
        (["reduce", "to-graph", "-"], FORMULA_TEXT, (GADGETS,), (DECOMP, SYMBOLIC)),
        (None, "", (), (DECOMP, GADGETS, SYMBOLIC, "cographkit.cli")),
    ],
    ids=["recognize", "cotree", "ultrametric-check", "decompose", "gadget-literal", "reduce-to-graph", "import-only"],
)
def test_each_command_imports_only_the_modules_it_runs(argv, stdin, loaded, absent):
    """A fresh ``python -B`` child runs one command (or only imports the
    package) and reports the modules it loaded: a top-level import that
    pulls in an unused module would show here."""
    run = f"from cographkit.cli import main; code = main({argv!r})" if argv else "import cographkit; code = 0"
    script = (
        "import io, json, sys\n"
        "out, sys.stdout = sys.stdout, io.StringIO()\n"
        f"{run}\n"
        "out.write(json.dumps([code, sorted(sys.modules)]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], input=stdin, capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    code, modules = json.loads(proc.stdout)
    assert code in (0, 1), proc.stderr
    assert set(loaded) <= set(modules)
    assert not set(absent) & set(modules), sorted(set(absent) & set(modules))
    if argv is None:
        assert sorted(m for m in modules if m.startswith("cographkit.")) == sorted(loaded)


@pytest.mark.parametrize(
    "name, loaded",
    [
        ("Graph", ("graph",)),
        ("Cotree", ("cotree", "graph")),
        ("coarsen", ("cotree", "decomp", "graph")),
        ("literal_graph", ("gadgets", "graph")),
        ("SymbolicMap", ("cotree", "graph", "symbolic")),
    ],
    ids=["Graph", "Cotree", "coarsen", "literal_graph", "SymbolicMap"],
)
def test_each_export_loads_only_its_module_and_the_modules_it_imports(name, loaded):
    """A fresh ``python -B`` child reads one exported name: ``cotree`` imports
    ``graph``, ``decomp`` and ``symbolic`` import both, ``gadgets`` imports
    ``graph``, and no other submodule is loaded."""
    script = (
        f"import json, sys, cographkit; cographkit.{name}; "
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('cographkit.'))))"
    )
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], capture_output=True, text=True, env=child_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [f"cographkit.{m}" for m in loaded]
