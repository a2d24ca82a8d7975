"""Smoke test of the pair runner, ``tools/pair.py``, at the tiny benchmark profile."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
LEFT_BEHIND = (".git", "__pycache__", ".bench_out", ".pytest_cache", ".hypothesis", "results")


@pytest.mark.skipif(shutil.which("git") is None, reason="the pair runner exports with git")
def test_one_tiny_pair_against_head_of_a_throwaway_repo(tmp_path):
    repo = tmp_path / "repo"
    shutil.copytree(ROOT, repo, ignore=shutil.ignore_patterns(*LEFT_BEHIND))

    def git(*args):
        return subprocess.run(["git", *args], cwd=repo, check=True, capture_output=True,
                              text=True, timeout=60).stdout

    git("init", "-q")
    git("add", "-A")
    git("-c", "user.name=pair", "-c", "user.email=pair@example.invalid",
        "commit", "-q", "-m", "snapshot")
    out = tmp_path / "bench.json"
    proc = subprocess.run([sys.executable, "tools/pair.py", "--against", "HEAD",
                           "--workload", "sea-ddm-continual", "--pairs", "1", "--seconds", "0.2",
                           "--profile", "tiny", "--out", str(out)],
                          cwd=repo, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    record = json.loads(out.read_text())
    assert json.loads(proc.stdout)["parent_commit"] == record["parent_commit"] == git(
        "rev-parse", "HEAD").strip()
    series = record["workloads"]["sea-ddm-continual-seed0"]
    assert series["pairs"] == 1 and series["order"] == [["parent", "change"]]
    assert series["correct"] == {"parent": [True], "change": [True]}
    assert series["digests_equal"] == [True]
    assert "WARNING" not in proc.stderr
    assert sorted(series["metrics"]) == sorted(m["name"] for m in SPEC["end_to_end"])
    for figures in series["metrics"].values():
        assert figures["change_wins"] in ("0/1", "1/1")
        assert figures["parent"]["values"][0] == figures["parent"]["median"] > 0
    lines = record["src_lines"]
    assert lines["parent"] == lines["change"] > 0 and lines["net"] == 0
    code = record["src_code_lines"]
    assert code["net"] == 0 and all(type(code[side]) is int and 0 < code[side] <= lines[side]
                                    for side in ("parent", "change"))
    # the runs leave the throwaway repo as it was committed
    assert git("status", "--porcelain") == ""
