"""The paired-run summary of tools/bench_pairs.py, on canned result lines
(no benchmark runs here)."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = SPEC["end_to_end"]
LAYERS = {layer["name"]: layer for layer in SPEC["per_layer"]}


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
    control_p50 = [7.0, 8.0, 9.0, 9.0, 8.0]  # lower in 2, a tie, higher in 2
    pairs = [
        {"first": bench_pairs._rotation(i)[0],
         "parent": _line(p, 1.0), "change": _line(c, 0.9, correct=i != 4, failed=int(i == 4)),
         "control": _line(r, 1.0)}
        for i, (p, c, r) in enumerate(zip(parent_p50, change_p50, control_p50))
    ]
    s = bench_pairs.summarize(pairs, END_TO_END)
    assert s["pairs"] == 5
    assert s["first"] == ["parent", "change", "control", "parent", "change"]
    assert s["correct"] == {"parent": True, "change": False, "control": True}
    assert s["attempted"] == {"parent": 310, "change": 310, "control": 310}
    assert s["failed"] == {"parent": 0, "change": 1, "control": 0}
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
    # the control against the parent, next to the change's figures
    assert p50["control"] == {"median": 8.0, "q1": 8.0, "q3": 9.0}
    assert p50["control_change_pct"] == 0.0
    assert p50["control_wins"] == 2
    assert p50["control_values"] == control_p50
    # the change's median 6.5 is outside the control's 8..9, but it won only 3 of 5
    assert p50["moved"] is False
    # wall_s: 0.9 against 1.0 in every pair, outside the control's 1.0..1.0
    assert s["metrics"]["wall_s"]["moved"] is True
    # equal on every pair: no wins, no spread
    rss = s["metrics"]["peak_rss_mb"]
    assert (rss["wins"], rss["change_pct"], rss["parent_iqr_share"]) == (0, 0.0, 0.0)


def test_summary_counts_wins_by_direction_and_takes_one_pair():
    higher = [{"name": "rate", "unit": "1/s", "better": "higher", "bound": 0.1}]
    def result(value):
        return {"correct": True, "attempted": 1, "failed": 0, "metrics": {"rate": {"value": value}}}

    pair = {"first": "parent", "parent": result(2.0), "change": result(3.0), "control": result(1.0)}
    rate = bench_pairs.summarize([pair], higher)["metrics"]["rate"]
    assert rate["wins"] == 1
    assert rate["parent"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert rate["change_pct"] == pytest.approx(50.0)
    # lower is worse here: the control lost its one pair
    assert (rate["control_wins"], rate["control_change_pct"]) == (0, pytest.approx(-50.0))


def test_a_run_without_output_has_no_result():
    with pytest.raises(ValueError, match="no result line"):
        bench_pairs.last_result("\n")


def _pairs(parent_values, change_values, metric="op_p50_ms", control_values=None):
    """Canned pairs in which only ``metric`` varies; the control reads as
    the parent unless its values are given."""
    pairs = []
    control_values = parent_values if control_values is None else control_values
    for i, values in enumerate(zip(parent_values, change_values, control_values)):
        pair = {"first": bench_pairs._rotation(i)[0]}
        for side, value in zip(("parent", "change", "control"), values):
            pair[side] = _line(5.0, 1.0)
            pair[side]["metrics"][metric]["value"] = value
        pairs.append(pair)
    return pairs


def test_a_metric_is_resolved_only_when_its_parent_spread_is_below_its_bound():
    # setup_s has a bound of 0.25: an IQR of 18.75% of the median is
    # resolved, one of 25% is not, however far the change moves
    narrow = bench_pairs.summarize(_pairs([0.8125, 0.90625, 1.0, 1.09375, 1.1875], [1.2] * 5, "setup_s"), END_TO_END)
    wide = bench_pairs.summarize(_pairs([0.75, 0.875, 1.0, 1.125, 1.25], [1.2] * 5, "setup_s"), END_TO_END)
    assert narrow["metrics"]["setup_s"]["parent_iqr_share"] == 0.1875
    assert narrow["metrics"]["setup_s"]["resolved"] is True
    assert wide["metrics"]["setup_s"]["parent_iqr_share"] == 0.25
    assert wide["metrics"]["setup_s"]["resolved"] is False
    # a zero parent median has no share and so is never resolved
    zero = bench_pairs.summarize(_pairs([0.0] * 3, [1.0] * 3, "setup_s"), END_TO_END)
    assert zero["metrics"]["setup_s"]["parent_iqr_share"] is None
    assert zero["metrics"]["setup_s"]["resolved"] is False
    text = bench_pairs.report("refute/seed1", wide)
    assert "  unresolved: setup_s (parent IQR 25.0%, bound 25%)" in text.splitlines()
    assert "setup_s      1 -> 1.2 s (+20.0%, change lower in 1/5; control +0.0%, 0/5)" in text
    assert "  unresolved: none" in bench_pairs.report("refute/seed1", narrow).splitlines()


def test_main_adds_three_traced_runs_per_side_as_per_layer(tmp_path, monkeypatch, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        checkout.mkdir()
    (change / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    calls = []
    copies = {"parent": set(), "change": set(), "control": set()}
    builds = {"parent": [0.5, 1.5, 1.0], "change": [0.25, 0.75, 0.5], "control": [1.5, 1.0, 0.5]}

    run_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    traced_seconds = 3 * run_seconds

    for checkout in (parent, change):
        (checkout / "marker").write_text(checkout.name)
        (checkout / "__pycache__").mkdir()
        (checkout / "__pycache__" / "stale.pyc").write_bytes(b"")

    def fake_run_once(checkout, workload, seed, seconds, trace=0):
        calls.append((checkout.name, workload, seed, seconds, trace))
        # every side is a fresh copy, apart from the given checkouts: the
        # control a second copy of the parent, and none holds __pycache__
        source = "parent" if checkout.name == "control" else checkout.name
        assert checkout not in (parent, change) and (checkout / "marker").read_text() == source
        assert not (checkout / "__pycache__").exists()
        copies[checkout.name].add(checkout)
        # a traced run gets three times run_seconds, an untraced one run_seconds
        assert seconds == (traced_seconds if trace else run_seconds)
        if trace:
            build = builds[checkout.name].pop(0)
            return {"correct": True, "attempted": 62, "failed": 0,
                    "metrics": {"graph.build_s": {"value": build, "unit": "s"},
                                "cotree.recognize_s": {"value": 0.31, "unit": "s"}}}
        return _line(5.1 if checkout.name == "change" else 5.4, 0.7)

    monkeypatch.setattr(bench_pairs, "run_once", fake_run_once)
    out = tmp_path / "bench.json"
    argv = [str(parent), str(change), "--workload", "recognize", "--seed", "1", "--pairs", "2", "--out", str(out)]
    assert bench_pairs.main(argv) == 0
    # the pairs rotate which of the three sides runs first; then three
    # traced runs of each side, the control included, rotated the same way
    # and each three times as long
    assert bench_pairs.TRACED_RUNS == 3
    assert calls == [
        ("parent", "recognize", 1, run_seconds, 0), ("change", "recognize", 1, run_seconds, 0),
        ("control", "recognize", 1, run_seconds, 0),
        ("change", "recognize", 1, run_seconds, 0), ("control", "recognize", 1, run_seconds, 0),
        ("parent", "recognize", 1, run_seconds, 0),
        ("parent", "recognize", 1, traced_seconds, 1), ("change", "recognize", 1, traced_seconds, 1),
        ("control", "recognize", 1, traced_seconds, 1),
        ("change", "recognize", 1, traced_seconds, 1), ("control", "recognize", 1, traced_seconds, 1),
        ("parent", "recognize", 1, traced_seconds, 1),
        ("control", "recognize", 1, traced_seconds, 1), ("parent", "recognize", 1, traced_seconds, 1),
        ("change", "recognize", 1, traced_seconds, 1),
    ]
    entry = json.loads(out.read_text())["entries"]["recognize/seed1"]
    assert entry["traced_seconds"] == traced_seconds
    assert entry["pairs"] == 2 and entry["metrics"]["op_p50_ms"]["wins"] == 2
    assert entry["metrics"]["op_p50_ms"]["control_values"] == [5.4, 5.4]
    # one copy per side served the pairs and the traced runs, and is gone once they are run
    for paths in copies.values():
        assert len(paths) == 1 and not next(iter(paths)).exists()
    recognize = {"median": 0.31, "q1": 0.31, "q3": 0.31}
    # each traced round is a pair: [parent, change, control] per round is
    # [0.5, 0.25, 1.5], [1.5, 0.75, 1.0], [1.0, 0.5, 0.5]
    assert entry["per_layer"] == {
        "graph.build_s": {
            "unit": "s",
            "better": "lower",
            "parent": {"median": 1.0, "q1": 0.75, "q3": 1.25},
            "change": {"median": 0.5, "q1": 0.375, "q3": 0.625},
            "change_pct": -50.0,
            "wins": 3,
            "values": [[0.5, 0.25], [1.5, 0.75], [1.0, 0.5]],
            "control": {"median": 1.0, "q1": 0.75, "q3": 1.25},
            "control_change_pct": 0.0,
            "control_wins": 2,
            "control_values": [1.5, 1.0, 0.5],
            # lower in 3 of 3 rounds, and the change's 0.375..0.625 lies
            # below the control's 0.75..1.25
            "moved": True,
        },
        # equal on every side: no wins, and the quartile ranges meet
        "cotree.recognize_s": {
            "unit": "s", "better": "lower", "parent": recognize, "change": recognize, "change_pct": 0.0,
            "wins": 0, "values": [[0.31, 0.31]] * 3, "control": recognize, "control_change_pct": 0.0,
            "control_wins": 0, "control_values": [0.31] * 3, "moved": False,
        },
    }
    err = capsys.readouterr().err
    assert "recognize/seed1: 2 pairs" in err
    assert err.splitlines()[-4:] == [
        "  layer graph.build_s: 1 -> 0.5 s (-50.0%, change lower in 3/3; control +0.0%, 2/3) moved, better",
        "  layer cotree.recognize_s: 0.31 -> 0.31 s (+0.0%, change lower in 0/3; control +0.0%, 0/3)",
        "  unresolved: none",
        "  control past its bound: none",
    ]


def _layer(name, parent, change, control):
    """A per-layer entry of three traced rounds, each a pair, directed by
    the layer's ``better`` in BENCHMARK.json."""
    unit, better = LAYERS[name]["unit"], LAYERS[name]["better"]
    return {"unit": unit, "better": better,
            **bench_pairs._paired([list(run) for run in zip(parent, change, control)], better)}


def _layer_line(name, layer):
    summary = bench_pairs.summarize(_pairs([5.0], [5.0]), END_TO_END)
    summary["per_layer"] = {name: layer}
    return next(line for line in bench_pairs.report("decompose/seed1", summary).splitlines() if "layer" in line)


def test_a_layer_is_resolved_only_when_the_quartile_ranges_are_disjoint():
    # a layer moves only when the change's quartile range and the
    # control's are disjoint, after 3 of 3 rounds on that side
    apart = _layer("decomp.search_s", [0.040, 0.039, 0.041], [0.024, 0.025, 0.023], [0.040, 0.039, 0.041])
    assert apart["parent"] == {"median": 0.040, "q1": 0.0395, "q3": 0.0405}
    assert apart["change_pct"] == pytest.approx(-40.0)
    assert (apart["wins"], apart["moved"]) == (3, True)
    # slower in 3 of 3 rounds, but the change's 0.043..0.052 meets the control's 0.035..0.045
    overlap = _layer("decomp.search_s", [0.030, 0.040, 0.050], [0.042, 0.044, 0.060], [0.030, 0.040, 0.050])
    assert overlap["change_pct"] == pytest.approx(10.0)
    assert (overlap["wins"], overlap["moved"]) == (0, False)
    # lower in 3 of 3 rounds, but the quartile ranges touch at 0.035
    touching = _layer("decomp.search_s", [0.040] * 3, [0.030, 0.034, 0.036], [0.036, 0.034, 0.040])
    assert touching["change"]["q3"] == touching["control"]["q1"] == pytest.approx(0.035)
    assert (touching["wins"], touching["moved"]) == (3, False)
    unused = _layer("symbolic.check_s", [0.0] * 3, [0.0] * 3, [0.0] * 3)
    assert (unused["change_pct"], unused["wins"], unused["moved"]) == (None, 0, False)
    assert _layer_line("decomp.search_s", apart) == (
        "  layer decomp.search_s: 0.04 -> 0.024 s (-40.0%, change lower in 3/3; control +0.0%, 0/3) moved, better")
    assert _layer_line("decomp.search_s", overlap) == (
        "  layer decomp.search_s: 0.04 -> 0.044 s (+10.0%, change lower in 0/3; control +0.0%, 0/3)")


def test_a_resolved_layer_has_not_moved_when_the_control_shifts_as_far():
    newick = _layer("cotree.newick_s", [0.040, 0.039, 0.041], [0.045, 0.046, 0.044], [0.044, 0.046, 0.045])
    # slower than the parent in 3 of 3 rounds, but the control shifts as
    # far: the change's 0.0445..0.0455 is the control's
    assert newick["control"] == {"median": 0.045, "q1": pytest.approx(0.0445), "q3": pytest.approx(0.0455)}
    assert newick["change"] == newick["control"]
    assert newick["change_pct"] == pytest.approx(12.5) and newick["control_change_pct"] == pytest.approx(12.5)
    assert (newick["wins"], newick["control_wins"], newick["moved"]) == (0, 0, False)
    assert _layer_line("cotree.newick_s", newick) == (
        "  layer cotree.newick_s: 0.04 -> 0.045 s (+12.5%, change lower in 0/3; control +12.5%, 0/3)")


def test_a_layer_with_the_control_as_far_off_has_not_moved():
    # three rounds that read the change 10.5% and the control 8.2% below
    # the parent: lower in 3 of 3, but the change's 0.4956..0.5106 and the
    # control's 0.50704..0.52204 overlap
    search = _layer("decomp.search_s", [0.56, 0.55, 0.57], [0.5012, 0.49, 0.52], [0.51408, 0.50, 0.53])
    assert search["change_pct"] == pytest.approx(-10.5)
    assert search["control_change_pct"] == pytest.approx(-8.2)
    assert search["change"]["q3"] > search["control"]["q1"]
    assert (search["wins"], search["control_wins"], search["moved"]) == (3, 3, False)


def test_a_layer_worse_in_every_round_and_clear_of_the_control_has_moved_worse():
    search = _layer("decomp.search_s", [0.40, 0.41, 0.39], [0.46, 0.47, 0.45], [0.40, 0.42, 0.39])
    assert search["change"]["q1"] > search["control"]["q3"]
    assert (search["wins"], search["moved"]) == (0, True)
    assert _layer_line("decomp.search_s", search) == (
        "  layer decomp.search_s: 0.4 -> 0.46 s (+15.0%, change lower in 0/3; control +0.0%, 0/3) moved, worse")


def test_a_rise_of_a_higher_is_better_layer_is_a_win():
    assert LAYERS["decomp.search.nodes_per_s"]["better"] == "higher"
    rate = _layer("decomp.search.nodes_per_s", [1000.0, 1010.0, 990.0], [1200.0, 1210.0, 1190.0],
                  [1000.0, 1005.0, 995.0])
    assert (rate["wins"], rate["control_wins"], rate["moved"]) == (3, 1, True)
    assert _layer_line("decomp.search.nodes_per_s", rate).endswith(
        "(+20.0%, change higher in 3/3; control +0.0%, 1/3) moved, better")
    # the same values read the other way: lower in 3 of 3 is a loss
    slower = _layer("decomp.search.nodes_per_s", [1200.0, 1210.0, 1190.0], [1000.0, 1010.0, 990.0],
                    [1200.0, 1205.0, 1195.0])
    assert (slower["wins"], slower["moved"]) == (0, True)
    assert _layer_line("decomp.search.nodes_per_s", slower).endswith(
        "(-16.7%, change higher in 0/3; control +0.0%, 1/3) moved, worse")


def _report(latencies: dict[str, list[float]]) -> dict:
    """The parts of a run's report file that ``op_latencies`` reads: each
    operation's samples, one per round (more when an operation runs twice)."""
    return {"workload": "refute", "ops": {
        name: {"latency_ms": samples, "raw_ms": [2 * t for t in samples], "nodes": 441}
        for name, samples in latencies.items()}}


def test_op_latencies_are_each_operations_median():
    report = _report({"criterion7_refutation": [3.0, 1.0, 2.0], "literal_unpruned": [400.0, 410.0]})
    assert bench_pairs.op_latencies(report) == {"criterion7_refutation": 2.0, "literal_unpruned": 405.0}


def test_run_once_reads_the_untraced_runs_report(tmp_path, monkeypatch):
    checkout = tmp_path / "change"
    (checkout / ".perfbench").mkdir(parents=True)
    (checkout / ".perfbench" / "report-refute-seed7-trace0.json").write_text(
        json.dumps(_report({"criterion7_refutation": [0.5, 0.25, 0.75]})))
    # a traced run's report is not read: its file is left out on purpose
    line = json.dumps({"correct": True, "attempted": 3, "failed": 0, "metrics": {}})
    commands = []

    def fake_run(cmd, cwd, **kwargs):
        commands.append((cmd[1:], cwd))
        return subprocess.CompletedProcess(cmd, 0, stdout="table\n" + line + "\n", stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    untraced = bench_pairs.run_once(checkout, "refute", 7, 20)
    assert untraced["ops"] == {"criterion7_refutation": 0.5}
    assert "ops" not in bench_pairs.run_once(checkout, "refute", 7, 20, trace=1)
    assert commands[0] == (["perfbench/run.py", "--workload", "refute", "--seed", "7",
                            "--seconds", "20", "--trace", "0"], checkout)


def test_summary_pairs_each_operations_latency():
    headline = [(0.40, 0.30), (0.50, 0.35), (0.45, 0.45), (0.42, 0.50)]  # lower in 2, a tie, higher in 1
    pairs = []
    for i, (p, c) in enumerate(headline):
        pair = {"first": bench_pairs._rotation(i)[0],
                "parent": _line(5.0, 1.0), "change": _line(5.0, 1.0), "control": _line(5.0, 1.0)}
        pair["parent"]["ops"] = {"criterion7_refutation": p, "literal_unpruned": 400.0}
        pair["change"]["ops"] = {"criterion7_refutation": c, "literal_unpruned": 380.0}
        pair["control"]["ops"] = {"criterion7_refutation": p, "literal_unpruned": 404.0}
        pairs.append(pair)
    s = bench_pairs.summarize(pairs, END_TO_END)
    assert set(s["ops"]) == {"criterion7_refutation", "literal_unpruned"}
    c7 = s["ops"]["criterion7_refutation"]
    assert c7["unit"] == "ms"
    assert c7["parent"] == {"median": 0.435, "q1": pytest.approx(0.415), "q3": pytest.approx(0.4625)}
    assert c7["change"]["median"] == pytest.approx(0.40)
    assert c7["change_pct"] == pytest.approx(100 * (0.40 - 0.435) / 0.435)
    assert c7["wins"] == 2
    assert c7["values"] == [list(v) for v in headline]
    assert s["ops"]["literal_unpruned"]["wins"] == 4
    assert s["ops"]["literal_unpruned"]["control_change_pct"] == pytest.approx(1.0)
    assert s["ops"]["literal_unpruned"]["control_wins"] == 0
    # 380 against the control's 404 in all four pairs
    assert s["ops"]["literal_unpruned"]["moved"] is True
    text = bench_pairs.report("refute/seed1", s)
    assert "  op criterion7_refutation: 0.435 -> 0.4 ms (-8.0%, change lower in 2/4; control +0.0%, 0/4)" in text
    assert "  op literal_unpruned: 400 -> 380 ms (-5.0%, change lower in 4/4; control +1.0%, 0/4) moved" in text
    assert "  unresolved: none" in text.splitlines()
    # results without ops (a canned line) add no operation
    assert bench_pairs.summarize(_pairs([5.0], [5.0]), END_TO_END)["ops"] == {}


def test_pairs_rotate_the_three_sides():
    assert [bench_pairs._rotation(i) for i in range(4)] == [
        ("parent", "change", "control"), ("change", "control", "parent"),
        ("control", "parent", "change"), ("parent", "change", "control"),
    ]


def test_a_metric_moves_only_outside_the_control_spread_and_in_nine_of_ten_pairs():
    parent = [2.0, 2.1, 1.9, 2.0, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    control = [1.9, 2.1, 1.95, 2.05, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    faster = [1.5] * 10

    def wall(change):
        return bench_pairs.summarize(_pairs(parent, change, "wall_s", control), END_TO_END)["metrics"]["wall_s"]

    assert wall(faster)["wins"] == 10 and wall(faster)["moved"] is True
    # nine wins of ten still move it, eight do not
    assert wall(faster[:9] + [2.5])["moved"] is True
    assert wall(faster[:8] + [2.5, 2.5])["moved"] is False
    # ten wins, but the change's median lies within the control's quartiles
    close = [p - 0.01 for p in parent]
    assert wall(close)["wins"] == 10
    assert wall(close)["control"]["q1"] <= wall(close)["change"]["median"] <= wall(close)["control"]["q3"]
    assert wall(close)["moved"] is False


def test_report_names_the_metrics_the_control_alone_moves_past_their_bound():
    # setup_s: bound 25%, the control reads 30% slower than the parent
    drift = bench_pairs.summarize(_pairs([1.0] * 5, [1.0] * 5, "setup_s", [1.3] * 5), END_TO_END)
    assert drift["metrics"]["setup_s"]["control_change_pct"] == pytest.approx(30.0)
    lines = bench_pairs.report("refute/seed1", drift).splitlines()
    assert lines[-1] == "  control past its bound: setup_s (+30.0%, bound 25%)"
    calm = bench_pairs.summarize(_pairs([1.0] * 5, [1.0] * 5, "setup_s", [1.2] * 5), END_TO_END)
    assert bench_pairs.report("refute/seed1", calm).splitlines()[-1] == "  control past its bound: none"


def test_an_end_to_end_metric_worse_in_every_pair_and_clear_of_the_control_has_moved_worse():
    parent = [2.0, 2.1, 1.9, 2.0, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    control = [1.9, 2.1, 1.95, 2.05, 2.2, 1.8, 2.0, 2.1, 1.9, 2.0]
    summary = bench_pairs.summarize(_pairs(parent, [p + 0.5 for p in parent], "wall_s", control), END_TO_END)
    wall = summary["metrics"]["wall_s"]
    assert wall["change"]["q1"] > wall["control"]["q3"]
    assert (wall["wins"], wall["moved"]) == (0, True)
    assert "  wall_s       2 -> 2.5 s (+25.0%, change lower in 0/10; control +0.0%, 1/10) moved, worse" in (
        bench_pairs.report("refute/seed1", summary).splitlines())
    # nine losses of ten still move it, eight do not
    assert bench_pairs.summarize(_pairs(parent, [p + 0.5 for p in parent[:9]] + [1.0], "wall_s", control),
                                 END_TO_END)["metrics"]["wall_s"]["moved"] is True
    assert bench_pairs.summarize(_pairs(parent, [p + 0.5 for p in parent[:8]] + [1.0, 1.0], "wall_s", control),
                                 END_TO_END)["metrics"]["wall_s"]["moved"] is False
