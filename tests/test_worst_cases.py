"""tools/worst_cases.py on tiny inputs: every row runs as a child to the
exit code it has at full size, and is recorded with its size, figures,
item and target."""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_worst_case_table_on_tiny_inputs(tmp_path):
    out = tmp_path / "table.json"
    out.write_text(json.dumps({"entries": {"recognize/seed1": {}}}))
    proc = subprocess.run([sys.executable, str(ROOT / "tools" / "worst_cases.py"), "--tiny", "--out", str(out)],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(out.read_text())
    assert doc["entries"] == {"recognize/seed1": {}}  # a bench_pairs entry stays
    rows = {row["name"]: row for row in doc["worst_cases"]["rows"]}
    assert len(rows) == 22
    for row in rows.values():
        assert row["completed"] and not row["timed_out"], row
        assert row["wall_s"] > 0 and row["peak_rss_mb"] > 0 and row["size"] and row["item"] and row["target"]
        assert (row["ceiling_mb"] is not None) == (row["known_peak_mb"] > 2000)
        assert row["met"] is None if row["item"] == "-" else isinstance(row["met"], bool)
    flipped = rows["recognize_flipped_threshold_800"]
    assert flipped["item"] == "2" and flipped["size"] == {"n": 20, "m": 101}
    assert flipped["figures"]["witness"] == [10, 11, 9, 12]
    assert rows["decompose_greedy_path_1e5"]["ceiling_mb"] == 2048
    assert rows["decompose_exact_budget1_c5"]["exit_code"] == 3
    assert rows["criterion7_refutation"]["figures"]["nodes"] == 441
    assert rows["cotree_complete_2000"]["command"] == ["-m", "cographkit.cli", "cotree", "tree.nwk"]
    # rows whose figures the CLI reports run the CLI, to the exit codes they have at full size
    converted = {"exact_partition_g30_budget45000": (3, "nodes"), "exact_cover_g30_budget45000": (3, "nodes"),
                 "exact_partition_g160_k1": (1, "nodes"), "exact_partition_g120_k1": (1, "nodes"),
                 "coarsen_vizing_g80": (0, "unions_tested"), "coarsen_vizing_g40": (0, "unions_tested"),
                 "represent_flipped_threshold_map_200": (1, "elapsed_s")}
    for name, (code, figure) in converted.items():
        row = rows[name]
        assert row["command"][:2] == ["-m", "cographkit.cli"] and row["exit_code"] == code and figure in row["figures"]
    cli_rows = [row for row in rows.values() if row["command"][:2] == ["-m", "cographkit.cli"]]
    assert len(cli_rows) == 18
    assert all("elapsed_s" in row["figures"] for row in cli_rows)


def test_figures_of_a_report_larger_than_the_tail_read_back():
    spec = importlib.util.spec_from_file_location("worst_cases", ROOT / "tools" / "worst_cases.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    stats = {"elapsed_s": 0.5, "nodes": 2, "nodes_per_k": [2]}
    report = {"command": "p4s", "payload": {"witnesses": [["stats"]] * 20_000}, "stats": stats}
    text = json.dumps(report, indent=2).encode()
    assert len(text) > 4 * tool.TAIL_BYTES
    assert tool._read_figures(["-m", "cographkit.cli"], text[-tool.TAIL_BYTES:]) == stats
    assert tool._read_figures(["-m", "cographkit.cli"], b"") == {}
