"""The benchmark's own test: every workload at a tiny scale, and the gate.

    PYTHONPATH=src python -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from cographkit import P4Witness, cotree, graph  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric(workload, trace):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "1",
                  "--trace", str(trace), "--scale", "tiny")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in spec}
    for m in spec:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))


def test_runner_and_spec_agree_on_names():
    assert [n for n, _ in run.END_TO_END] == [m["name"] for m in SPEC["end_to_end"]]
    assert [n for n, _ in run.PER_LAYER] == [m["name"] for m in SPEC["per_layer"]]
    assert sorted(run.WORKLOADS) == sorted(w["name"] for w in SPEC["workloads"])


def test_without_the_package_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _bench("--workload", "refute", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def _recognize_plan(tmp_path):
    return workloads.setup_recognize(5, tmp_path, spans.Recorder(), tiny=True)


def test_gate_counts_a_tampered_witness_as_failed(tmp_path):
    plan = _recognize_plan(tmp_path)
    planted = next(op for op in plan.ops if op.name.endswith("planted"))
    g, witness = planted.run()
    assert isinstance(witness, P4Witness)
    honest, tampered = run.Tally(), run.Tally()
    honest.judge(workloads, planted, (g, witness))
    a, b, c, d = witness
    tampered.judge(workloads, planted, (g, P4Witness(b, a, c, d)))
    assert honest.failures == [] and honest.attempted == 1
    assert len(tampered.failures) == 1 and tampered.attempted == 1


def test_gate_counts_a_wrong_cotree_as_failed(tmp_path):
    plan = _recognize_plan(tmp_path)
    op = next(op for op in plan.ops if op.name.endswith("cograph"))
    g, newick = op.run()
    tally = run.Tally()
    tally.judge(workloads, op, (g, newick.replace(")0", ")1", 1)))
    assert len(tally.failures) == 1


def test_only_listed_errors_are_known_defects(tmp_path):
    probe = _recognize_plan(tmp_path).probes[0]
    tally = run.Tally()
    tally.judge(workloads, probe, workloads.Raised(RecursionError("deep")))
    tally.judge(workloads, probe, workloads.Raised(ValueError("bad")))
    assert len(tally.defects) == 1 and len(tally.failures) == 1 and tally.attempted == 2


def test_tail_is_the_highest_level_with_ten_samples_beyond():
    assert run.tail_level(19) == 100
    assert run.tail_level(20) == 50
    assert run.tail_level(40) == 75
    for n in (20, 30, 64, 101):
        values = list(range(n))
        assert run.nearest_rank(values, run.tail_level(n)) == n - 11  # eleventh largest
    assert run.nearest_rank([4, 1, 3, 2], 50) == 2


def test_generators_match_the_library():
    rng = random.Random(9)
    order = inputs.shuffled(40, rng)
    tree = inputs.threshold_tree(order)
    g = graph.Graph(40, inputs.threshold_edges(order))
    assert sorted(g.edges) == sorted(graph.Graph(40, inputs.tree_edges(tree)).edges)
    assert cotree.to_newick(cotree.recognize(g)) == inputs.canonical_newick(tree)
    n, classes, rigid = inputs.planted_decomposition(3, 1, 2, rng)
    assert len(classes) == 4 and len(rigid) == 3 and all(inputs.is_matching(c) for c in classes)
