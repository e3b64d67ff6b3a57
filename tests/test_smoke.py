"""Entry-point smoke checks: each row of ``CASES`` runs fresh children, as
a shell would, in an empty directory holding the row's input files.

A word ``cographkit`` starts the CLI through ``helpers.cli_command``: the
console script when the one on ``PATH`` imports the package under test,
else ``python -m cographkit.cli``; an installed package (one outside the
checkout's ``src/``) must be run through its script, or the import test
fails.  A word ``python`` starts this
interpreter.  Every child gets ``helpers.child_env()``.  The full suite
runs this module against the package it imports; CI also runs it alone
after ``pip install``, against the installed package and script.  Many
rows have in-process twins in ``test_cli.py``; only a child checks the
entry point, the interpreter's own streams and the exit code.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import pytest

import cographkit
from cographkit import (
    build_formula_graph,
    format_edge_list,
    format_symbolic_map,
    parse_formula,
    random_graph,
    random_labeled_tree,
    tree_to_map,
)
from helpers import child_env, cli_command, imported_package

P4 = b"4 3\n0 1\n1 2\n2 3\n"
P3_NEWICK = '"newick": "((0,2)0,1)1;"'
C5 = b"5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
CLAUSE = b"3 1\n0 1 2\n"


@dataclass(frozen=True)
class Case:
    """One smoke check: a command, or a pipe of two, and what it must give.

    ``files`` maps a file name to its bytes, or to a function making them.
    ``code`` is the exit code of the last command; a command piped into
    another exits 0.  ``out`` and ``err`` are fragments of the last
    command's stdout and stderr, ``err_lacks`` fragments its stderr must
    not hold, ``err_is`` its whole stderr and ``err_max`` a bound on the
    bytes of stderr.  ``canonical`` asks that stdout be the JSON that
    ``json.dumps(..., indent=2)`` writes, with one newline after it.
    ``payload`` makes the items that the ``payload`` of stdout's JSON must
    hold.  ``timeout`` is each child's wall-clock ceiling in seconds.
    """

    id: str
    cmd: tuple[tuple[str, ...], ...]
    stdin: bytes = b""
    files: dict[str, bytes | Callable[[], bytes]] = field(default_factory=dict)
    code: int = 0
    out: tuple[str, ...] = ()
    err: tuple[str, ...] = ()
    err_lacks: tuple[str, ...] = ()
    err_is: str | None = None
    err_max: int | None = None
    canonical: bool = False
    payload: Callable[[], dict] | None = None
    timeout: float = 120


def cli(*args: str) -> tuple[tuple[str, ...], ...]:
    return (("cographkit", *args),)


def py(code: str) -> tuple[tuple[str, ...], ...]:
    return (("python", "-c", code),)


def g300() -> bytes:
    return format_edge_list(random_graph(300, 0.3, random.Random(1))).encode()


def map300() -> bytes:
    return format_symbolic_map(tree_to_map(random_labeled_tree(300, 4, random.Random(1)), 4)).encode()


def clause_graph() -> dict:
    """The order and edges of the formula graph of ``CLAUSE``, as JSON decodes them."""
    g = build_formula_graph(parse_formula(CLAUSE.decode())).graph
    return json.loads(json.dumps({"n": g.n, "edges": g.edges}))


def overlap() -> bytes:
    """The formula graph of ``CLAUSE`` with its whole edge set in both classes."""
    g = clause_graph()
    return json.dumps({"mode": "partition", "k": 2, "n": g["n"], "classes": [g["edges"], g["edges"]]}).encode()


LAZY_IMPORT = (
    "import sys, cographkit; loaded = [m for m in sys.modules if m.startswith('cographkit.')]; "
    "assert not loaded, loaded; assert cographkit.coarsen is cographkit.decomp.coarsen"
)
HUGE_DIMENSION = """from cographkit import hypercube
try:
    hypercube(-10**5000)
except ValueError as exc:
    assert len(str(exc)) <= 200, len(str(exc))
else:
    raise SystemExit('no error')"""
UNPRUNED = (
    "from cographkit.gadgets import enumerate_two_class_assignments, literal_graph; "
    "out = enumerate_two_class_assignments(literal_graph().graph, 'cover', prune=False); "
    "assert (out.nodes, len(out.solutions), out.completed) == (797160, 2, True), out"
)

CASES = [
    Case("lazy-import", py(LAZY_IMPORT)),
    Case("gadget-pipe-vizing", cli("gadget", "literal") + cli("decompose", "--strategy", "vizing", "-")),
    Case("p4s-p4", cli("p4s", "p4.txt"), files={"p4.txt": P4}),
    Case("recognize-p4-exits-1", cli("recognize", "p4.txt"), files={"p4.txt": P4}, code=1),
    Case("recognize-p3", cli("recognize", "p3.txt"), files={"p3.txt": b"3 2\n0 1\n1 2\n"}, out=(P3_NEWICK,)),
    Case("recognize-p3-repeated-edges", cli("recognize", "p3dup.txt"),
         files={"p3dup.txt": b"3 3\n1 0\n0 1\n2 1\n"}, out=(P3_NEWICK,)),
    Case("recognize-two-edges", cli("recognize", "-"), stdin=b"4 2\n0 1\n2 3\n",
         out=('"newick": "((0,1)1,(2,3)1)0;"',)),
    Case("recognize-c4", cli("recognize", "-"), stdin=b"4 4\n0 2\n0 3\n1 2\n1 3\n",
         out=('"newick": "((0,1)0,(2,3)0)1;"',)),
    Case("recognize-edgeless", cli("recognize", "-"), stdin=b"3 0\n", out=('"newick": "(0,1,2)0;"',)),
    Case("cotree-p3-edge-list", cli("cotree", "-"), stdin=b"((0,2)0,1)1;\n",
         out=(r'"edge_list": "3 2\n0 1\n1 2\n"',)),
    Case("cotree-p3-canonical", cli("cotree", "-"), stdin=b"((0,2)0,1)1;\n", canonical=True),
    Case("hypercube-4-canonical", cli("hypercube", "4"), canonical=True),
    Case("hypercube-4-layers-canonical", cli("hypercube", "4", "--layers"), canonical=True),
    Case("formula-extra-clause-line", cli("gadget", "formula", "-"), stdin=b"3 1\n0 1 2\n0 1 2\n", code=2,
         err=("line 3: more clause lines than the declared count 1",)),
    Case("exact-c5", cli("decompose", "--strategy", "exact", "-"), stdin=C5, out=('"nodes": 4,',)),
    Case("exact-c5-cover", cli("decompose", "--strategy", "exact", "--mode", "cover", "-"), stdin=C5,
         out=('"mode": "cover"', '"nodes": 4,')),
    Case("exact-c5-budget-1", cli("decompose", "--strategy", "exact", "--budget-nodes", "1", "c5.txt"),
         files={"c5.txt": C5}, code=3, out=('"nodes": 0,',)),
    Case("exact-g300-over-budget", cli("decompose", "--strategy", "exact", "g300.txt"), files={"g300.txt": g300},
         code=3, out=('"nodes": 0,',), timeout=20),
    Case("vizing-g300", cli("decompose", "--strategy", "vizing", "g300.txt"), files={"g300.txt": g300},
         timeout=10),
    Case("vizing-p5", cli("decompose", "--strategy", "vizing", "-"), stdin=b"5 4\n0 1\n1 2\n2 3\n3 4\n",
         out=('"k": 2,',)),
    Case("recognize-arabic-digit", cli("recognize", "digit3.txt"), files={"digit3.txt": b"3 1\n0 \xd9\xa3\n"},
         code=2, err=("line 2: edge endpoints must be integers",)),
    Case("cotree-sparse-leaves", cli("cotree", "-"), stdin=b"(0,5)1;\n", code=2,
         err_is="error: -: leaf vertices must be exactly 0..1, got leaf 5\n"),
    Case("recognize-wide-header", cli("recognize", "zeros.txt"), files={"zeros.txt": b"0 " * 100000 + b"\n"},
         code=2, err_max=300),
    Case("represent-map", cli("ultrametric", "represent", "-"), stdin=b"3 2\n- s0 s1\ns0 - s1\ns1 s1 -\n",
         out=('"newick": "((0,1)0,2)1;"',)),
    Case("check-map300", cli("ultrametric", "check", "map300.txt"), files={"map300.txt": map300},
         out=('"verdict": "ultrametric"',)),
    Case("check-asymmetric-map", cli("ultrametric", "check", "asym.txt"),
         files={"asym.txt": b"3 2\n- s0 s0\ns1 - s0\ns0 s0 -\n"}, code=2,
         err_is="error: asym.txt: entries (0,1) and (1,0) are not symmetric\n"),
    Case("check-empty-alphabet", cli("ultrametric", "check", "-"), stdin=b"2 0\n- s0\ns0 -\n", code=2,
         err=("alphabet must contain at least one symbol",), err_max=300),
    Case("recognize-long-edge-count", cli("recognize", "nines.txt"),
         files={"nines.txt": b"1 " + b"9" * 4000 + b"\n"}, code=2, err_max=300),
    Case("formula-huge-order", cli("gadget", "formula", "order.nae"), files={"order.nae": b"9" * 4300 + b" 0\n"},
         code=2, err=("order.nae",), err_lacks=("Exceeds the limit",), err_max=300),
    Case("recognize-json-huge-n", cli("recognize", "wide.json"),
         files={"wide.json": b'{"n": ' + b"9" * 5000 + b', "edges": []}'},
         code=2, err=("wide.json: invalid JSON",), err_lacks=("Exceeds the limit",), err_max=300),
    Case("coarsen-invalid", cli("coarsen", "c5one.json"),
         files={"c5one.json": b'{"mode": "partition", "k": 1, "n": 5, "classes": '
                              b'[[[0, 1], [1, 2], [2, 3], [3, 4], [0, 4]]]}'},
         code=1, out=('"verdict": "invalid"',)),
    Case("reduce-to-graph", cli("reduce", "to-graph", "clause.nae"), files={"clause.nae": CLAUSE}, canonical=True,
         payload=clause_graph),
    Case("from-partition-overlap", cli("reduce", "from-partition", "--formula", "clause.nae", "overlap.json"),
         files={"clause.nae": CLAUSE, "overlap.json": overlap}, code=1,
         out=('"verdict": "extraction-failed"',), err=("overlap",), err_max=300),
    Case("library-huge-dimension", py(HUGE_DIMENSION)),
    Case("library-unpruned-literal-cover", py(UNPRUNED), timeout=20),
    *(
        Case(f"{name}-{sign}", cli(*args, value), files={"c5.txt": C5}, code=2, err_max=400)
        for sign, value in (("long", "9" * 5000), ("negative", "-" + "9" * 4000))
        for name, args in (
            ("hypercube", ("hypercube",)),
            ("k-max", ("decompose", "c5.txt", "--k-max")),
            ("budget-nodes", ("decompose", "c5.txt", "--budget-nodes")),
        )
    ),
]


def _argv(words: tuple[str, ...]) -> list[str]:
    head = cli_command() if words[0] == "cographkit" else (sys.executable,)
    return [*head, *words[1:]]


@pytest.mark.parametrize("case", CASES, ids=[case.id for case in CASES])
def test_smoke(case, tmp_path):
    for name, data in case.files.items():
        (tmp_path / name).write_bytes(data if isinstance(data, bytes) else data())
    procs, stdin = [], case.stdin
    for words in case.cmd:
        procs.append(subprocess.run(_argv(words), input=stdin, capture_output=True, cwd=tmp_path, env=child_env(),
                                    timeout=case.timeout))
        stdin = procs[-1].stdout
    *piped, proc = procs
    assert [p.returncode for p in piped] == [0] * len(piped), [p.stderr for p in piped]
    out, err = proc.stdout.decode(), proc.stderr.decode()
    assert proc.returncode == case.code, err
    for fragment in case.out:
        assert fragment in out
    for fragment in case.err:
        assert fragment in err
    for fragment in case.err_lacks:
        assert fragment not in err
    if case.err_is is not None:
        assert err == case.err_is
    if case.err_max is not None:
        assert len(proc.stderr) <= case.err_max, err
    if case.canonical:
        assert json.dumps(json.loads(out), indent=2) + "\n" == out
    if case.payload is not None:
        expected = case.payload()
        payload = json.loads(out)["payload"]
        assert {key: payload[key] for key in expected} == expected


def test_children_import_the_package_under_test():
    assert imported_package([*cli_command(), "--help"]) == cographkit.__file__
    # an installed package must be run through its own console script
    checkout_src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src", "")
    if not os.path.abspath(cographkit.__file__).startswith(checkout_src):
        assert cli_command() == (shutil.which("cographkit"),)
    assert imported_package([sys.executable, "-c", "import cographkit"]) == cographkit.__file__
