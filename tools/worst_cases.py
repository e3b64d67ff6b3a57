"""The worst-case input table: each adversarial input of ROADMAP's State
table run once as a fresh child, with the owning item and its target.

    python3 tools/worst_cases.py --out BENCH_<pr>.json [--tiny]

A row is a CLI call (``python -m cographkit.cli ...``) on an input file
written here by a seeded generator, whose figures are its report's
``stats``, or a ``python -c`` snippet that times one call in-process and
prints its figures as one JSON object on its last line (``inner_s`` is the
time of that call).  Each row records the input's size, the child's wall
time, its peak RSS from ``os.wait4`` (``ru_maxrss``, read by a small
launcher process that starts the child), its exit code, the owning ROADMAP
item and that item's target, and whether the target is ``met`` (None for
a row that has no target).  Each child runs under a wall-clock ceiling of
``TIMEOUT_S``, and a row whose known peak is above 2 GB under an
``RLIMIT_AS`` ceiling of ``CEILING_MB``; a child that hits either is
recorded as over target.  ``--tiny`` shrinks every input, for a quick
check that each row runs to the exit code it has at full size.  The table
is stored under ``"worst_cases"`` in the output file, next to any
``bench_pairs`` entries there.  Standard library and the package under
``src/`` only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Callable, NamedTuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from cographkit import (  # noqa: E402
    Graph,
    decomposition_to_json,
    delta_from_graph,
    format_edge_list,
    format_symbolic_map,
    random_graph,
    random_labeled_tree,
    tree_to_map,
    vizing_partition,
)

CEILING_MB = 2048  # RLIMIT_AS of a child whose known peak is above 2 GB
TIMEOUT_S = 120  # wall-clock ceiling of each child
TINY_BUDGET = 20  # --budget-nodes of a tiny exact row that has one: below its host's constraints, so exit 3
TAIL_BYTES = 1 << 16  # the end of a child's stdout that is read back


class Row(NamedTuple):
    """One adversarial input.  ``make(tiny, work)`` writes what the child
    reads into the directory ``work`` and returns the child's arguments
    after the interpreter and the input's size; ``met(record)`` judges the
    item's target on the record (None: the row has no target)."""

    name: str
    item: str
    target: str
    known_peak_mb: float
    make: Callable[[bool, Path], tuple[list[str], dict]]
    met: Callable[[dict], bool] | None = None
    exit_code: int = 0  # the exit code of a run that completes


def _cli(*words: str) -> list[str]:
    return ["-m", "cographkit.cli", *words]


def _snippet(body: str, work: Path, **values) -> list[str]:
    """A ``python -c`` child running ``body``, which prints its figures as
    one JSON line, with ``values`` bound as globals first; they go through a
    JSON file in ``work``, since one argument holds at most 128 KiB."""
    path = _write(work, "values.json", json.dumps(values))
    return ["-c", f"import json, time\nglobals().update(json.load(open({path!r})))\n{body}"]


def _write(work: Path, name: str, text: str) -> str:
    path = work / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def _edge_file(work: Path, n: int, edges: list[tuple[int, int]]) -> tuple[str, dict]:
    """An edge list of canonical sorted pairs, written with no ``Graph`` built."""
    text = f"{n} {len(edges)}\n" + "".join(f"{u} {v}\n" for u, v in edges)
    return _write(work, "graph.txt", text), {"n": n, "m": len(edges)}


def _figures(key: str, limit: float) -> Callable[[dict], bool]:
    return lambda rec: rec["figures"].get(key, limit + 1) <= limit


def _nodes_per_s(rate: float) -> Callable[[dict], bool]:
    return lambda rec: rec["figures"].get("nodes", 0) >= rate * rec["figures"].get("elapsed_s", float("inf"))


def _within(wall_s: float | None = None, peak_rss_mb: float | None = None) -> Callable[[dict], bool]:
    return lambda rec: ((wall_s is None or rec["wall_s"] <= wall_s)
                        and (peak_rss_mb is None or rec["peak_rss_mb"] <= peak_rss_mb))


# --- the inputs ------------------------------------------------------------

def _flipped_threshold(n: int, flip: tuple[int, int]) -> list[tuple[int, int]]:
    """The alternating threshold graph on 0..n-1 (odd i joins every j < i)
    with the pair ``flip`` toggled."""
    return sorted({(j, i) for i in range(1, n, 2) for j in range(i)} ^ {flip})


FLIPPED_RECOGNIZE = """from cographkit import Graph, recognize
g = Graph(n, [tuple(e) for e in edges])
t = time.perf_counter()
w = recognize(g)
print(json.dumps({"inner_s": time.perf_counter() - t, "witness": w}))
"""

BUILD = """from cographkit import Graph
pairs = [tuple(e) for e in edges]
best = float("inf")
for _ in range(5):
    t = time.perf_counter()
    Graph(n, pairs)
    best = min(best, time.perf_counter() - t)
print(json.dumps({"inner_s": best}))
"""

REFUTATION = """from cographkit import decomp, gadgets
g = gadgets.clause_gadget().graph
triangle = ((0, 1), (1, 2), (0, 2))
forced = {(u + 9 * j, v + 9 * j): 1 for j in range(3) for u, v in triangle}
best = float("inf")
for _ in range(5):
    t = time.perf_counter()
    out = decomp.search_assignments(g, 2, decomp.COVER, forced=forced, find_all=True, symmetry=False,
                                    prune=True, node_budget=30_000_000)
    best = min(best, time.perf_counter() - t)
print(json.dumps({"inner_s": best, "nodes": out.nodes, "completed": out.completed,
                  "solutions": len(out.solutions)}))
"""


def _dense_cograph(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The join of two halves of shuffled vertices, each half a disjoint
    union of blocks of 2-12 vertices joined in full or left edgeless in
    turn: about n^2 / 4 edges, in shuffled order."""
    vs = rng.sample(range(n), n)
    half = n // 2
    edges = [(min(u, v), max(u, v)) for u in vs[:half] for v in vs[half:]]
    for side in (vs[:half], vs[half:]):
        pos = 0
        while pos < len(side):
            block = side[pos : pos + rng.randint(2, 12)]
            if rng.random() < 0.5:
                edges += [(min(u, v), max(u, v)) for i, u in enumerate(block) for v in block[i + 1 :]]
            pos += len(block)
    rng.shuffle(edges)
    return edges


def _threshold(n: int, rng: random.Random) -> list[tuple[int, int]]:
    """The alternating threshold graph on shuffled vertices, its edges in
    the order they are drawn."""
    order = rng.sample(range(n), n)
    return [(min(order[j], order[i]), max(order[j], order[i])) for i in range(1, n, 2) for j in range(i)]


def _recognize_flipped(tiny: bool, work: Path):
    n = 20 if tiny else 800
    edges = _flipped_threshold(n, (n // 2 - 1, n // 2 + 2))
    return _snippet(FLIPPED_RECOGNIZE, work, n=n, edges=edges), {"n": n, "m": len(edges)}


def _represent_flipped(tiny: bool, work: Path):
    n = 12 if tiny else 200
    text = format_symbolic_map(delta_from_graph(Graph(n, _flipped_threshold(n, (n - 5, n - 2)))))
    return _cli("ultrametric", "check", _write(work, "map.txt", text)), {"n": n, "pairs": n * (n - 1) // 2}


def _exact(mode: str, n: int, p: float, seed: int, k_max: int, budget: int | None, tiny_n: int):
    """``decompose --strategy exact`` on G(n, p); a row with no ``budget``
    runs under the CLI's default, and a tiny row with one runs out of it."""
    def make(tiny: bool, work: Path):
        size = tiny_n if tiny else n
        cap = TINY_BUDGET if tiny and budget else budget
        g = random_graph(size, p, random.Random(seed))
        flags = ["--mode", mode, "--k-max", str(k_max)] + ([] if cap is None else ["--budget-nodes", str(cap)])
        return (_cli("decompose", "--strategy", "exact", *flags, _write(work, "graph.txt", format_edge_list(g))),
                {"n": size, "m": g.m, "k_max": k_max, "budget": cap})
    return make


def _coarsen(n: int, p: float, tiny_n: int):
    def make(tiny: bool, work: Path):
        size = tiny_n if tiny else n
        g = random_graph(size, p, random.Random(1))
        text = json.dumps(decomposition_to_json(vizing_partition(g)))
        return _cli("coarsen", _write(work, "partition.json", text)), {"n": size, "m": g.m}
    return make


def _sparse(kind: str, command: tuple[str, ...]):
    def make(tiny: bool, work: Path):
        n = 100 if tiny else 100_000
        edges = {"edgeless": [], "path": [(v, v + 1) for v in range(n - 1)],
                 "matching": [(v, v + 1) for v in range(0, n - 1, 2)]}[kind]
        path, size = _edge_file(work, n, edges)
        return _cli(*command, path), size
    return make


def _complete_cotree(tiny: bool, work: Path):
    n = 20 if tiny else 2000
    return _cli("cotree", _write(work, "tree.nwk", f"({','.join(map(str, range(n)))})1;\n")), {"leaves": n}


def _p4s(tiny: bool, work: Path):
    n = 10 if tiny else 100
    g = random_graph(n, 0.5, random.Random(1))
    return _cli("p4s", _write(work, "graph.txt", format_edge_list(g))), {"n": n, "m": g.m}


def _hypercube(*flags: str):
    def make(tiny: bool, work: Path):
        d = 4 if tiny else 16
        return _cli("hypercube", str(d), *flags), {"n": 1 << d, "m": d << (d - 1)}
    return make


def _build(generate: Callable[[int, random.Random], list[tuple[int, int]]]):
    def make(tiny: bool, work: Path):
        n = 60 if tiny else 1000
        edges = generate(n, random.Random(1))
        return _snippet(BUILD, work, n=n, edges=edges), {"n": n, "m": len(edges)}
    return make


def _symbol_map(tiny: bool, work: Path):
    n = 20 if tiny else 2000
    text = format_symbolic_map(tree_to_map(random_labeled_tree(n, 4, random.Random(1)), 4))
    return _cli("ultrametric", "check", _write(work, "map.txt", text)), {"n": n, "k": 4, "bytes": len(text)}


def _budget_one(tiny: bool, work: Path):
    path, size = _edge_file(work, 5, [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)])
    return _cli("decompose", "--strategy", "exact", "--budget-nodes", "1", path), size


def _refutation(tiny: bool, work: Path):
    return _snippet(REFUTATION, work), {"n": 27, "gadget": "clause"}


def _phase_seconds(rec: dict) -> bool:
    return any(k.endswith("_s") and k != "elapsed_s" for k in rec["figures"])


ROWS = [
    Row("recognize_flipped_threshold_800", "2", "under 0.5 s in-process; witness (400, 401, 399, 402)", 50,
        _recognize_flipped, _figures("inner_s", 0.5)),
    Row("represent_flipped_threshold_map_200", "13", "under 0.5 s in-process", 50,
        _represent_flipped, _figures("elapsed_s", 0.5), exit_code=1),
    Row("exact_partition_g30_budget45000", "11", "3x the 3,429 nodes/s of re-anchor 7", 50,
        _exact("partition", 30, 0.5, 6, 3, 45_000, 8), _nodes_per_s(3 * 3_429), exit_code=3),
    Row("exact_cover_g30_budget45000", "11", "3x the 4,353 nodes/s of re-anchor 7", 50,
        _exact("cover", 30, 0.5, 6, 3, 45_000, 8), _nodes_per_s(3 * 4_353), exit_code=3),
    Row("exact_partition_g160_k1", "20", "under 2 s and 100 MB", 1_281,
        _exact("partition", 160, 0.3, 1, 1, None, 12), _within(2.0, 100), exit_code=1),
    Row("exact_partition_g120_k1", "20", "under 2 s and 100 MB (the G(160) target)", 392,
        _exact("partition", 120, 0.3, 1, 1, None, 12), _within(2.0, 100), exit_code=1),
    Row("coarsen_vizing_g80", "12", "at most 1,000 unions tested", 50,
        _coarsen(80, 0.3, 12), _figures("unions_tested", 1_000)),
    Row("coarsen_vizing_g40", "12", "at most 450 unions tested", 50,
        _coarsen(40, 0.5, 10), _figures("unions_tested", 450)),
    Row("recognize_edgeless_1e5", "10", "under 0.2 s", 45, _sparse("edgeless", ("recognize",)), _within(0.2)),
    Row("recognize_path_1e5", "10", "under 2 s and 150 MB", 678,
        _sparse("path", ("recognize",)), _within(2.0, 150), exit_code=1),
    Row("recognize_matching_1e5", "10", "under 2 s and 150 MB", 709,
        _sparse("matching", ("recognize",)), _within(2.0, 150)),
    Row("decompose_greedy_path_1e5", "10", "under 2 s and 150 MB", 2_628,
        _sparse("path", ("decompose", "--strategy", "greedy")), _within(2.0, 150)),
    Row("decompose_greedy_matching_1e5", "10", "under 2 s and 150 MB", 1_363,
        _sparse("matching", ("decompose", "--strategy", "greedy")), _within(2.0, 150)),
    Row("cotree_complete_2000", "14, 19", "under 4 s (19) and 60 MB (14)", 227, _complete_cotree, _within(4.0, 60)),
    Row("p4s_g100", "14, 19", "under 40 MB (14)", 77, _p4s, _within(peak_rss_mb=40)),
    Row("hypercube_16", "23, 19", "under 120 MB (23) and 3.2 s (19)", 695, _hypercube(), _within(3.2, 120)),
    Row("hypercube_16_layers", "23", "under 120 MB", 703, _hypercube("--layers"), _within(peak_rss_mb=120)),
    Row("build_dense_cograph_1000", "17", "2x faster than the 140 ms of PR 38, best of 5 in-process", 150,
        _build(_dense_cograph), _figures("inner_s", 0.140 / 2)),
    Row("build_threshold_1000", "17", "2x faster than the 111 ms of PR 38, best of 5 in-process", 100,
        _build(_threshold), _figures("inner_s", 0.111 / 2)),
    Row("ultrametric_check_map_2000", "-", "-", 76, _symbol_map),
    Row("decompose_exact_budget1_c5", "3", "exit 3 with seconds per phase in stats", 30,
        _budget_one, _phase_seconds, exit_code=3),
    Row("criterion7_refutation", "20", "441 nodes, at most 5.7 ms best of 5 in-process", 30,
        _refutation, lambda rec: rec["figures"].get("nodes") == 441 and rec["figures"]["inner_s"] <= 0.0057),
]


# --- running a row ---------------------------------------------------------

# The launcher starts the measured child and reaps it with os.wait4.  A
# child's ru_maxrss counts the memory of the process that started it, up to
# the exec, so the child is started by this small fresh process and not by
# the table's own, which has grown by the inputs it made.
LAUNCHER = """import json, os, resource, subprocess, sys, threading, time
spec = json.loads(sys.argv[1])

def limit():
    resource.setrlimit(resource.RLIMIT_AS, (spec["ceiling"], spec["ceiling"]))

with open(spec["stdout"], "wb") as out, open(spec["stderr"], "wb") as err:
    start = time.perf_counter()
    proc = subprocess.Popen(spec["argv"], cwd=spec["cwd"], env=spec["env"], stdin=subprocess.DEVNULL,
                            stdout=out, stderr=err, preexec_fn=limit if spec["ceiling"] else None)
    reaped = {}

    def reap():
        _, status, usage = os.wait4(proc.pid, 0)
        reaped.update(end=time.perf_counter(), status=status, maxrss=usage.ru_maxrss)

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(spec["timeout"])
    timed_out = waiter.is_alive()
    if timed_out:
        proc.kill()
        waiter.join()
    proc.returncode = os.waitstatus_to_exitcode(reaped["status"])  # reaped here, not by Popen
print(json.dumps({"wall_s": round(reaped["end"] - start, 4), "peak_rss_mb": round(reaped["maxrss"] / 1024, 1),
                  "exit_code": proc.returncode, "timed_out": timed_out}))
"""


def run_child(args: list[str], work: Path, timeout: float, ceiling_mb: int | None) -> dict:
    """Run ``python args`` from the repository root with ``src/`` on the
    path, through ``LAUNCHER``; return its wall time, peak RSS (``os.wait4``,
    ``ru_maxrss`` in KiB on Linux), exit code, whether it timed out, the
    size of its stdout and its last ``TAIL_BYTES``, and the tail of its
    stderr."""
    out_path, err_path = work / "stdout", work / "stderr"
    spec = {"argv": [sys.executable, *args], "cwd": str(ROOT), "env": dict(os.environ, PYTHONPATH=str(ROOT / "src")),
            "stdout": str(out_path), "stderr": str(err_path), "timeout": timeout,
            "ceiling": None if ceiling_mb is None else ceiling_mb << 20}
    launched = subprocess.run([sys.executable, "-c", LAUNCHER, json.dumps(spec)], capture_output=True, text=True,
                              timeout=timeout + 60, check=True)
    out_bytes = out_path.stat().st_size
    with open(out_path, "rb") as out:
        out.seek(max(0, out_bytes - TAIL_BYTES))
        tail = out.read()
    return {**json.loads(launched.stdout), "out_bytes": out_bytes, "stdout_tail": tail,
            "stderr_tail": err_path.read_text(encoding="utf-8", errors="replace")[-300:]}


STATS_KEY = '\n  "stats": '  # the last key of a CLI report, as the CLI indents it


def _read_figures(row_args: list[str], tail: bytes) -> dict:
    """A snippet's last line, or a CLI report's ``stats``, from the tail of
    the child's stdout; empty when the child wrote neither."""
    text = tail.decode("utf-8", errors="replace")
    try:
        if row_args[0] == "-c":
            return json.loads(text.strip().splitlines()[-1])
        return json.JSONDecoder().raw_decode(text, text.rindex(STATS_KEY) + len(STATS_KEY))[0]
    except (ValueError, IndexError):
        return {}


def run_row(row: Row, tiny: bool) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        args, size = row.make(tiny, work)
        ceiling = CEILING_MB if row.known_peak_mb > 2000 else None
        child = run_child(args, work, TIMEOUT_S, ceiling)
        command = [arg.replace(f"{work}{os.sep}", "") for arg in args]  # input files by name
    tail = child.pop("stdout_tail")
    rec = {"name": row.name, "item": row.item, "target": row.target, "size": size,
           "command": command, "ceiling_mb": ceiling,
           "known_peak_mb": row.known_peak_mb, **child,
           "figures": _read_figures(args, tail)}
    completed = not child["timed_out"] and child["exit_code"] == row.exit_code
    rec["completed"] = completed
    rec["met"] = None if row.met is None else completed and bool(row.met(rec))
    return rec


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", type=Path, required=True, help="JSON file to store the table in")
    ap.add_argument("--tiny", action="store_true", help="shrink every input (a quick check that each row runs)")
    args = ap.parse_args(argv)
    rows = []
    for row in ROWS:
        rec = run_row(row, args.tiny)
        rows.append(rec)
        print(f"{rec['name']:38s} item {rec['item']:7s} {rec['wall_s']:8.3f} s {rec['peak_rss_mb']:8.1f} MB "
              f"exit {rec['exit_code']}{' timeout' if rec['timed_out'] else ''}  met {rec['met']}", file=sys.stderr)
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc["worst_cases"] = {
        "command": "python3 tools/worst_cases.py" + (" --tiny" if args.tiny else ""),
        "host": {"python": platform.python_version(), "machine": platform.machine(), "cpus": os.cpu_count()},
        "timeout_s": TIMEOUT_S,
        "rows": rows,
    }
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
