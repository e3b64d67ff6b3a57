"""Paired benchmark runs of two checkouts, summarized into a BENCH_*.json entry.

    python3 tools/bench_pairs.py PARENT CHANGE --workload recognize --seed 1 \
        --pairs 10 --out BENCH_16.json

Each pair runs ``python3 perfbench/run.py --workload W --seed S --seconds T
--trace 0`` once on each of three sides, T being ``run_seconds`` of the
change's ``BENCHMARK.json``: the parent, the change, and a control, which
is a second copy of the parent.  Each side is a fresh copy made once in a
temporary directory, without ``.git``, ``.perfbench`` or ``__pycache__``,
so a checkout that has run the tests reads the same as a clean one and
no run writes into a given checkout.  The sides take turns to run first:
pair i runs them in ``PAIR_SIDES`` order rotated by i.  The control shows
how far the parent's own figures drift between two copies run in the
same interleaving.  After the pairs come ``TRACED_RUNS`` rounds of
``--trace 1`` runs, each side once per round, rotated like the pairs and
each given ``TRACED_SECONDS_FACTOR`` times T (``traced_seconds``); a
round is a pair like the others.

The last line of each run's output is its result object.  The entry
summarizes three kinds of figure the same way, each by its direction
(``better``): the end-to-end metrics of the untraced runs (``metrics``),
the median ``latency_ms`` of each operation from an untraced run's report
``.perfbench/report-<workload>-seed<S>-trace0.json`` (``ops``, lower is
better), so the ``refute`` headline (``criterion7_refutation``) is timed on
its own, and the per-layer metrics of the traced rounds (``per_layer``,
directed by ``per_layer`` of ``BENCHMARK.json``).  Each gives the parent's,
the change's and the control's medians and quartiles, the change's and the
control's shift in percent, their wins over the parent (ties count for
neither side) and every pair's values.  One rule decides them all: a
figure has ``moved`` when the change lies on one side of the parent in at
least ``MOVED_WIN_SHARE`` of the pairs (nine of ten, three of three traced
rounds), better or worse, and the change's quartile range lies wholly on
that same side of the control's.  An end-to-end metric also gives the
parent's quartile distance as a share of its median and whether that share
is below the metric's bound (``resolved``: a metric whose own spread is as
wide as its bound cannot show a change within the bound).

The entry is stored under ``"<workload>/seed<seed>"`` in the output file,
so one file collects several workloads and seeds, and a report is printed:
a line per figure, saying which way it moved, then the unresolved metrics
and the metrics that the control alone moves past their bound.  Standard
library only.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

CONTROL = "control"  # a second copy of the parent, run as a third side
PAIR_SIDES = ("parent", "change", CONTROL)  # the sides of each pair, in the order of pair 0
MOVED_WIN_SHARE = 0.9  # share of pairs the change must win to have moved a metric
TRACED_RUNS = 3  # --trace 1 runs of each side: a single one is too noisy to compare layers
# a traced run's --seconds as a multiple of run_seconds: at run_seconds a
# traced decompose run has time for a single round, too few to resolve a layer
TRACED_SECONDS_FACTOR = 3


def run_once(checkout: Path, workload: str, seed: int, seconds: float, trace: int = 0) -> dict:
    """Run the benchmark in ``checkout`` and return its result object; with
    ``trace=1`` its metrics are the per-layer ones, and without it the
    object also holds ``ops``, each operation's latency from the run's report."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, env=env, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: {' '.join(cmd)} exited {proc.returncode}\n{proc.stderr}")
    result = last_result(proc.stdout)
    if not trace:
        report = checkout / ".perfbench" / f"report-{workload}-seed{seed}-trace0.json"
        result["ops"] = op_latencies(json.loads(report.read_text(encoding="utf-8")))
    return result


def op_latencies(report: dict) -> dict[str, float]:
    """Median ``latency_ms`` of each operation of a run's report."""
    return {name: statistics.median(row["latency_ms"]) for name, row in report["ops"].items()}


def last_result(stdout: str) -> dict:
    """The result object a run prints as its last line."""
    lines = stdout.strip().splitlines()
    if not lines:
        raise ValueError("the run printed no result line")
    return json.loads(lines[-1])


def _rotation(i: int) -> tuple[str, ...]:
    """The three sides in the order of pair (or traced round) i: parent,
    change, control rotated by i, so that each side runs first in every
    third one."""
    return PAIR_SIDES[i % 3:] + PAIR_SIDES[:i % 3]


def _spread(values: list[float]) -> dict:
    """Median and quartiles (inclusive method; one value is its own quartiles)."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3}


def _change_pct(parent: dict, change: dict) -> float | None:
    base = parent["median"]
    return 100 * (change["median"] - base) / base if base else None


def _paired(values: list[list[float]], better: str) -> dict:
    """From ``[parent, change, control]`` per pair: the parent's and the
    change's spreads, the change in percent, the pairs the change won and
    the ``[parent, change]`` values; the same for the control against the
    parent; and whether the change has ``moved`` the figure: below (above)
    the parent in ``MOVED_WIN_SHARE`` of the pairs, and its quartile range
    wholly below (above) the control's."""
    parent, change, control = (_spread([row[i] for row in values]) for i in range(3))
    sign = 1 if better == "lower" else -1
    wins = sum(sign * (p - c) > 0 for p, c, _ in values)
    need = MOVED_WIN_SHARE * len(values)
    below = sum(c < p for p, c, _ in values) >= need and change["q3"] < control["q1"]
    above = sum(c > p for p, c, _ in values) >= need and change["q1"] > control["q3"]
    return {
        "parent": parent,
        "change": change,
        "change_pct": _change_pct(parent, change),
        "wins": wins,
        "values": [[p, c] for p, c, _ in values],
        "control": control,
        "control_change_pct": _change_pct(parent, control),
        "control_wins": sum(sign * (p - r) > 0 for p, _, r in values),
        "control_values": [r for _, _, r in values],
        "moved": below or above,
    }


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    """Summary of paired runs.

    ``pairs`` holds ``{"first": side, "parent": result, "change": result,
    "control": result}`` per pair, each result the last line of a run with
    the ``ops`` that ``run_once`` adds; ``end_to_end`` is the ``BENCHMARK.json`` list of
    metrics with their units and directions.  A result without ``ops``
    adds no operation to the summary.
    """
    summary = {
        "pairs": len(pairs),
        "first": [pair["first"] for pair in pairs],
        "correct": {side: all(pair[side]["correct"] for pair in pairs) for side in PAIR_SIDES},
        "attempted": {side: sum(pair[side]["attempted"] for pair in pairs) for side in PAIR_SIDES},
        "failed": {side: sum(pair[side]["failed"] for pair in pairs) for side in PAIR_SIDES},
        "metrics": {},
        "ops": {},
    }
    for metric in end_to_end:
        name = metric["name"]
        entry = _paired([[pair[side]["metrics"][name]["value"] for side in PAIR_SIDES]
                         for pair in pairs], metric["better"])
        base = entry["parent"]["median"]
        share = (entry["parent"]["q3"] - entry["parent"]["q1"]) / base if base else None
        summary["metrics"][name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": metric["bound"],
            "parent_iqr_share": share,
            "resolved": share is not None and share < metric["bound"],
            **entry,
        }
    for name in pairs[0]["parent"].get("ops", {}):
        entry = _paired([[pair[side]["ops"][name] for side in PAIR_SIDES] for pair in pairs], "lower")
        summary["ops"][name] = {"unit": "ms", **entry}
    return summary


def _pct(value: float | None) -> str:
    return "n/a" if value is None else f"{value:+.1f}%"


def _versus(m: dict) -> str:
    """The change's and the control's shift and wins, and which way the change moved."""
    better, pairs = m.get("better", "lower"), len(m["values"])
    way = "better" if m["wins"] >= MOVED_WIN_SHARE * pairs else "worse"
    return (f"({_pct(m['change_pct'])}, change {better} in {m['wins']}/{pairs};"
            f" control {_pct(m['control_change_pct'])}, {m['control_wins']}/{pairs})"
            + (f" moved, {way}" if m["moved"] else ""))


def report(key: str, summary: dict) -> str:
    """Lines that show an entry: each metric's, operation's and layer's
    medians, the change's and the control's shift and wins, and which way
    the change moved it where it did; then the metrics the parent's spread
    leaves unresolved and the metrics the control alone moves past their
    bound."""
    pairs = summary["pairs"]
    lines = [f"{key}: {pairs} pairs; " + "; ".join(
        f"{side} correct {summary['correct'][side]}, {summary['failed'][side]} failed"
        for side in PAIR_SIDES)]
    unresolved, drifted = [], []
    for name, m in summary["metrics"].items():
        lines.append(f"  {name:12s} {m['parent']['median']:.6g} -> {m['change']['median']:.6g} {m['unit']}"
                     f" {_versus(m)}")
        if not m["resolved"]:
            share = "n/a" if m["parent_iqr_share"] is None else f"{100 * m['parent_iqr_share']:.1f}%"
            unresolved.append(f"{name} (parent IQR {share}, bound {100 * m['bound']:.0f}%)")
        if m["control_change_pct"] is not None and abs(m["control_change_pct"]) > 100 * m["bound"]:
            drifted.append(f"{name} ({_pct(m['control_change_pct'])}, bound {100 * m['bound']:.0f}%)")
    for kind, figures in (("op", summary["ops"]), ("layer", summary.get("per_layer", {}))):
        for name, m in figures.items():
            lines.append(f"  {kind} {name}: {m['parent']['median']:.6g} -> {m['change']['median']:.6g}"
                         f" {m['unit']} {_versus(m)}")
    lines.append("  unresolved: " + (", ".join(unresolved) if unresolved else "none"))
    lines.append("  control past its bound: " + (", ".join(drifted) if drifted else "none"))
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path, help="checkout of the parent commit")
    ap.add_argument("change", type=Path, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--out", type=Path, required=True, help="JSON file to add the entry to")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    with tempfile.TemporaryDirectory() as tmp:
        checkouts = {side: Path(tmp) / side for side in PAIR_SIDES}
        for side, source in zip(PAIR_SIDES, (args.parent, args.change, args.parent)):
            shutil.copytree(source, checkouts[side],
                            ignore=shutil.ignore_patterns(".git", ".perfbench", "__pycache__"))
        pairs = []
        for i in range(args.pairs):
            order = _rotation(i)
            pair: dict = {"first": order[0]}
            for side in order:
                pair[side] = run_once(checkouts[side], args.workload, args.seed, spec["run_seconds"])
            pairs.append(pair)
            print(f"pair {i + 1}/{args.pairs}: " + ", ".join(
                f"{side} {pair[side]['metrics']['op_p50_ms']['value']:.3f} ms p50" for side in order),
                file=sys.stderr)
        traced_seconds = TRACED_SECONDS_FACTOR * spec["run_seconds"]
        rounds = [{side: run_once(checkouts[side], args.workload, args.seed, traced_seconds, trace=1)["metrics"]
                   for side in _rotation(i)} for i in range(TRACED_RUNS)]
    summary = summarize(pairs, spec["end_to_end"])
    summary["traced_seconds"] = traced_seconds
    better = {layer["name"]: layer["better"] for layer in spec["per_layer"]}
    summary["per_layer"] = {
        name: {"unit": first["unit"], "better": better[name],
               **_paired([[r[side][name]["value"] for side in PAIR_SIDES] for r in rounds], better[name])}
        for name, first in rounds[0]["parent"].items()}
    doc = json.loads(args.out.read_text(encoding="utf-8")) if args.out.exists() else {}
    doc.setdefault("command", "python3 perfbench/run.py --workload W --seed S "
                   f"--seconds {spec['run_seconds']} --trace 0")
    doc.setdefault("host", {
        "python": platform.python_version(),
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
    })
    key = f"{args.workload}/seed{args.seed}"
    doc.setdefault("entries", {})[key] = summary
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(report(key, summary), file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
