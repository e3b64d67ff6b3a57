"""tools/worst_cases.py on tiny inputs: every row runs as a child and is
recorded with its size, figures, item and target."""

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
