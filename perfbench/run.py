"""Seeded benchmark of cographkit: one workload per run, one JSON line out.

    python3 perfbench/run.py --workload refute --seed 1 --seconds 20 --trace 0

Run from a checkout; the package is imported from ``src/``.  A run sets its
inputs up, times whole rounds of the workload's fixed operation list, one
operation at a time, and checks every result outside the timed region.
Known-defect probes run once after the rounds, and then the set-up is
repeated for its median time.  Times are scaled to a reference speed
(``speed.py``).  ``--trace 1`` alternates untraced and traced rounds and
prints the per-layer metrics instead of the end-to-end ones.  The last line
of standard output is the result object; a readable table and the path of
a full JSON report come before it.  See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".perfbench"
# a seed kept out of tuning, for confirming a claimed gain
HELDOUT_SEED = 7919

# name -> (nominal seconds per round at the seed, set-up repeats)
WORKLOADS = {
    "refute": (11.0, 25),
    "decompose": (5.5, 5),
    "recognize": (2.8, 3),
    "cli": (9.0, 3),
}

END_TO_END = (
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

PER_LAYER = (
    ("decomp.search.nodes", "count"),
    ("decomp.search.nodes_per_s", "1/s"),
    ("decomp.search_s", "s"),
    ("decomp.search.timeouts", "count"),
    ("decomp.p4_constraints_s", "s"),
    ("decomp.constraints", "count"),
    ("decomp.vizing_s", "s"),
    ("decomp.coarsen_s", "s"),
    ("decomp.coarsen.recognize_calls", "count"),
    ("decomp.coarsen.merge_ratio", "ratio"),
    ("decomp.validate_s", "s"),
    ("cotree.recognize_s", "s"),
    ("cotree.recognize_calls", "count"),
    ("cotree.newick_s", "s"),
    ("graph.build_s", "s"),
    ("graph.build_edges", "count"),
    ("graph.parse_s", "s"),
    ("symbolic.check_s", "s"),
    ("symbolic.represent_s", "s"),
    ("symbolic.parse_s", "s"),
    ("gadgets.build_s", "s"),
    ("gadgets.translate_s", "s"),
    ("cli.process_s", "s"),
    ("cli.startup_s", "s"),
    ("cli.read_s", "s"),
    ("cli.emit_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.unaccounted_s", "s"),
)

# inputs left out because they do not finish, or cost too much, at the seed
LEFT_OUT = {
    "ultrametric check at n = 200": "the quadruple tables alone would need tens of GB",
    "decompose --strategy greedy on G(40, 0.5)": "coarsening k = 28 classes scans 2^28 subsets",
    "p4_constraints on G(300, 0.3)": "did not finish in 30 s and no budget bounds it",
    "threshold graphs with n = 3000": "9.3 s and 574 MB to build per run; n = 1000 already hits the recursion limit",
}

def nearest_rank(values: list[float], pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered) - 1e-9) - 1)]


def tail_level(count: int) -> float:
    """Highest percentile with at least ten samples beyond it, 100 (N - 10) / N,
    which picks the eleventh-largest sample.  Below 20 samples that is not
    above the median, and the maximum (100) stands in."""
    return 100.0 * (count - 10) / count if count >= 20 else 100.0


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.defects: list[str] = []
        self.failures: list[str] = []

    def judge(self, workloads, op, result) -> None:
        if isinstance(result, workloads.Raised):
            err = result.error
            status = workloads.DEFECT if isinstance(err, op.defect_errors) else workloads.FAIL
            verdicts = [(status, f"raised {type(err).__name__}: {str(err)[:120]}")]
        else:
            try:
                verdicts = op.check(result)
            except Exception as exc:  # a result the check cannot even read
                verdicts = [(workloads.FAIL, f"check raised {type(exc).__name__}: {exc}")]
        for status, detail in verdicts:
            self.attempted += 1
            if status == workloads.DEFECT:
                self.defects.append(f"{op.name}: {detail}")
            elif status == workloads.FAIL:
                self.failures.append(f"{op.name}: {detail}")


def run_op(workloads, rec, clock, op, traced: bool, in_process: bool):
    def call():
        rec.op_id += 1
        rec.enabled = traced
        try:
            return op.run()
        except Exception as exc:
            return workloads.Raised(exc)
        finally:
            rec.enabled = False

    return clock.time(call, in_process)


def environment() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cographkit").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "recursion_limit": sys.getrecursionlimit(),
        "dont_write_bytecode_flag": sys.flags.dont_write_bytecode,
        "cli_children": "python -B (no bytecode written; the package compiles on every start)",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": git_commit(ROOT),
        "src_sha256": digest.hexdigest(),
    }


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def layer_metrics(spans, rec_spans, traced_rounds: int, startup_s: float,
                  overhead_s: float, traced_mean_s: float) -> dict[str, float]:
    totals = spans.layer_totals(rec_spans)
    per = 1.0 / traced_rounds

    def self_s(name):
        return totals[name]["self_s"] * per if name in totals else 0.0

    def count(name, key=None):
        if name not in totals:
            return 0
        entry = totals[name]
        return (entry["counts"].get(key, 0) if key else entry["calls"]) * per

    search_self = self_s("decomp.search")
    nodes = count("decomp.search", "nodes")
    coarsen_calls = spans.children_named(rec_spans, "cotree.recognize", "decomp.coarsen") * per
    merges = count("decomp.coarsen", "merges")
    return {
        "decomp.search.nodes": nodes,
        "decomp.search.nodes_per_s": nodes / search_self if search_self else 0.0,
        "decomp.search_s": search_self,
        "decomp.search.timeouts": count("decomp.search", "timeouts"),
        "decomp.p4_constraints_s": self_s("decomp.p4_constraints"),
        "decomp.constraints": count("decomp.p4_constraints", "constraints"),
        "decomp.vizing_s": self_s("decomp.vizing"),
        "decomp.coarsen_s": self_s("decomp.coarsen"),
        "decomp.coarsen.recognize_calls": coarsen_calls,
        "decomp.coarsen.merge_ratio": merges / coarsen_calls if coarsen_calls else 0.0,
        "decomp.validate_s": self_s("decomp.validate"),
        "cotree.recognize_s": self_s("cotree.recognize"),
        "cotree.recognize_calls": count("cotree.recognize"),
        "cotree.newick_s": self_s("cotree.newick"),
        "graph.build_s": self_s("graph.build"),
        "graph.build_edges": count("graph.build", "edges"),
        "graph.parse_s": self_s("graph.parse"),
        "symbolic.check_s": self_s("symbolic.check"),
        "symbolic.represent_s": self_s("symbolic.represent"),
        "symbolic.parse_s": self_s("symbolic.parse"),
        "gadgets.build_s": self_s("gadgets.build"),
        "gadgets.translate_s": self_s("gadgets.translate"),
        "cli.process_s": totals["cli.process"]["total_s"] * per if "cli.process" in totals else 0.0,
        "cli.startup_s": startup_s,
        "cli.read_s": self_s("cli.read"),
        "cli.emit_s": self_s("cli.emit"),
        "trace.overhead_s": overhead_s,
        "trace.unaccounted_s": traced_mean_s - spans.root_time(rec_spans) * per,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description="Seeded cographkit benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: minute inputs, for the benchmark's own test")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "cographkit" / "__init__.py").is_file():
        print(f"error: no cographkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import spans
    import speed
    import workloads

    tiny = args.scale == "tiny"
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = OUT / f"work-{tag}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rec = spans.Recorder()
    setup = getattr(workloads, f"setup_{args.workload}")
    nominal, setup_reps = WORKLOADS[args.workload]

    with speed.Clock() as clock:
        # the rounds run on the first set-up; the repeats come after them, so
        # that peak memory is that of one set-up, as a user of the library has
        plan, _, first_setup = clock.time(lambda: setup(args.seed, work, rec, tiny))
        setup_times = [first_setup]

        in_process = plan.cli is None
        if in_process:
            # CLI children are not paused by the sampler, and on two cores
            # a sampler slowed the CLI pipe instead
            clock.start_sampling()
        rounds = 1 if tiny else max(1, int(args.seconds // nominal))
        schedule = [False, True] * max(1, rounds // 2) if args.trace else [False] * rounds
        tally = Tally()
        # times[traced][i], raws[traced][i]: scaled and raw seconds of
        # operation i over the rounds of that kind.  Arrays keep the samples
        # off the Python heap, where they would pin freed memory.
        times = {mode: [array("d") for _ in plan.ops] for mode in (False, True)}
        raws = {mode: [array("d") for _ in plan.ops] for mode in (False, True)}
        stats: dict[str, dict] = {}
        who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
        peak_rss_mb = None
        for traced in schedule:
            undo = spans.install(rec) if traced else []
            if plan.cli is not None:
                plan.cli.traced = traced
            try:
                for i, op in enumerate(plan.ops):
                    result, raw, elapsed = run_op(workloads, rec, clock, op, traced, in_process)
                    times[traced][i].append(elapsed)
                    raws[traced][i].append(raw)
                    if op.stats is not None and op.name not in stats and not isinstance(result, workloads.Raised):
                        stats[op.name] = op.stats(result)
                    tally.judge(workloads, op, result)
                    result = None  # free it before the next operation allocates
            finally:
                spans.uninstall(undo)
                if plan.cli is not None:
                    plan.cli.traced = False
            if peak_rss_mb is None:
                # after one set-up and one round: later rounds only add
                # allocator fragmentation, which varies from seed to seed
                peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024

        probes = {}
        for op in plan.probes:
            result, _, elapsed = run_op(workloads, rec, clock, op, False, in_process)
            before = len(tally.defects) + len(tally.failures)
            tally.judge(workloads, op, result)
            failed = len(tally.defects) + len(tally.failures) > before
            probes[op.name] = {"seconds": elapsed, "outcome": "failed" if failed else "passed"}

        for _ in range(setup_reps - 1):
            plan = None
            plan, _, seconds = clock.time(lambda: setup(args.seed, work, rec, tiny))
            setup_times.append(seconds)

    # each operation's latency is its median over the rounds
    mid = {mode: [statistics.median(t) for t in times[mode] if t] for mode in (False, True)}
    level = tail_level(len(mid[False]))
    e2e = {
        "wall_s": sum(mid[False]),
        "op_p50_ms": nearest_rank(mid[False], 50) * 1000,
        "op_tail_ms": nearest_rank(mid[False], level) * 1000,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    layers = None
    if args.trace:
        startup = plan.cli.startup_s() if plan.cli is not None else 0.0
        traced_rounds = schedule.count(True)
        traced_raw = sum(sum(r) for r in raws[True])
        layers = layer_metrics(spans, rec.spans, traced_rounds, startup,
                               sum(mid[True]) - e2e["wall_s"], traced_raw / traced_rounds)
        rec.write(OUT / f"spans-{tag}.jsonl")
    shutil.rmtree(work, ignore_errors=True)

    per_op: dict[str, dict] = {}
    for op, scaled_s, raw_s in zip(plan.ops, times[False], raws[False]):
        row = per_op.setdefault(op.name, {"latency_ms": [], "raw_ms": [], **stats.get(op.name, {})})
        row["latency_ms"] += [t * 1000 for t in scaled_s]
        row["raw_ms"] += [t * 1000 for t in raw_s]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "heldout_seed": HELDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "environment": environment(),
        "rounds": {"untraced": schedule.count(False), "traced": schedule.count(True)},
        "round_sums_s": [sum(r) for r in zip(*times[False])],
        "traced_round_sums_s": [sum(r) for r in zip(*times[True])],
        "setup_s_each": setup_times,
        "op_samples": len(mid[False]),
        "raw_wall_s_per_round": sum(sum(r) for r in raws[False]) / schedule.count(False),
        "op_tail_percentile": level,
        "ops": per_op,
        "ops_attempted": tally.attempted,
        "ops_failed": len(tally.defects) + len(tally.failures),
        "known_defects": tally.defects,
        "unexpected_failures": tally.failures,
        "probes": probes,
        "left_out": LEFT_OUT,
        "end_to_end": e2e,
        "per_layer": layers,
        "layer_spans": spans.layer_totals(rec.spans) if args.trace else None,
    }
    report_path = OUT / f"report-{tag}.json"
    report_path.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")

    shown = layers if args.trace else e2e
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in shown.items():
        print(f"{name:34s} {value:16.6f} {units[name]}")
    print(f"{'ops_attempted':34s} {tally.attempted:16d} count")
    print(f"{'ops_failed':34s} {report['ops_failed']:16d} count "
          f"({len(tally.defects)} known defects, {len(tally.failures)} unexpected)")
    print(f"op_tail_ms is p{level:.4g} of {len(mid[False])} operations (each its median over "
          f"{schedule.count(False)} rounds); report: {report_path}")
    for name, row in per_op.items():
        if "nodes" in row:
            print(f"{name + ' nodes':34s} {row['nodes']:16d} count")
    for line in tally.failures:
        print(f"UNEXPECTED FAILURE {line}")
    result = {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": {name: {"value": shown[name], "unit": units[name]} for name in units},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
