"""The paired-run summary of tools/bench_pairs.py, on canned result lines
(no benchmark runs here)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

END_TO_END = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def _line(p50: float, wall: float, correct: bool = True, failed: int = 0) -> dict:
    """The result object read back from a run's output: a table, then the
    object as the last line."""
    values = {"wall_s": wall, "op_p50_ms": p50, "op_tail_ms": 3 * p50, "peak_rss_mb": 100.0, "setup_s": 0.5}
    units = {m["name"]: m["unit"] for m in END_TO_END}
    result = {
        "correct": correct,
        "attempted": 62,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": units[name]} for name, v in values.items()},
    }
    table = "".join(f"{name:34s} {v:16.6f} {units[name]}\n" for name, v in values.items())
    return bench_pairs.last_result(table + json.dumps(result) + "\n")


def test_summary_of_canned_pairs():
    parent_p50 = [8.0, 7.0, 9.0, 10.0, 6.0]
    change_p50 = [6.0, 7.0, 6.5, 6.0, 7.0]  # lower in 3, a tie, higher in 1
    pairs = [
        {"first": "parent" if i % 2 == 0 else "change",
         "parent": _line(p, 1.0), "change": _line(c, 0.9, correct=i != 4, failed=int(i == 4))}
        for i, (p, c) in enumerate(zip(parent_p50, change_p50))
    ]
    s = bench_pairs.summarize(pairs, END_TO_END)
    assert s["pairs"] == 5
    assert s["first"] == ["parent", "change", "parent", "change", "parent"]
    assert s["correct"] == {"parent": True, "change": False}
    assert s["attempted"] == {"parent": 310, "change": 310}
    assert s["failed"] == {"parent": 0, "change": 1}
    p50 = s["metrics"]["op_p50_ms"]
    assert (p50["unit"], p50["better"], p50["bound"]) == ("ms", "lower", 0.25)
    # inclusive quartiles of 6, 7, 8, 9, 10 and of 6, 6, 6.5, 7, 7
    assert p50["parent"] == {"median": 8.0, "q1": 7.0, "q3": 9.0}
    assert p50["change"] == {"median": 6.5, "q1": 6.0, "q3": 7.0}
    assert p50["change_pct"] == pytest.approx(-18.75)
    assert p50["parent_iqr_share"] == pytest.approx(0.25)
    assert p50["wins"] == 3
    assert p50["values"] == [[p, c] for p, c in zip(parent_p50, change_p50)]
    assert s["metrics"]["wall_s"]["wins"] == 5
    # equal on every pair: no wins, no spread
    rss = s["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["change_pct"], rss["parent_iqr_share"]) == (0, 0.0, 0.0)


def test_summary_counts_wins_by_direction_and_takes_one_pair():
    higher = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]
    pair = {"first": "parent",
            "parent": {"correct": True, "attempted": 1, "failed": 0, "metrics": {"rate": {"value": 2.0}}},
            "change": {"correct": True, "attempted": 1, "failed": 0, "metrics": {"rate": {"value": 3.0}}}}
    rate = bench_pairs.summarize([pair], higher)["metrics"]["rate"]
    assert rate["wins"] == 1
    assert rate["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert rate["change_pct"] == pytest.approx(50.0)


def test_a_run_without_output_has_no_result():
    with pytest.raises(ValueError, match="no result line"):
        bench_pairs.last_result("\n")
