"""Command line entry points and their exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drifttune.cli import main

SRC = Path(__file__).resolve().parent.parent / "src"

CONFIG = """\
stream:
  kind: sea
  n_chunks: 20
  chunk_size: 200
detector:
  kind: ddm
seeds: 2
"""


def write_config(tmp_path, name="cell.yaml", text=CONFIG):
    path = tmp_path / name
    path.write_text(text)
    return path


class TestRun:
    def test_runs_and_prints_table(self, tmp_path, capsys):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "results")])
        assert code == 0
        out = capsys.readouterr().out
        assert "experiment" in out and "cell" in out
        assert (tmp_path / "results" / "cell__baseline" / "summary.json").exists()
        assert (tmp_path / "results" / "cell__dtd" / "summary.json").exists()

    def test_method_narrowing(self, tmp_path):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                     "--method", "dtd"])
        assert code == 0
        assert not (tmp_path / "r" / "cell__baseline").exists()
        assert (tmp_path / "r" / "cell__dtd").exists()

    def test_seeds_override(self, tmp_path):
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                     "--seeds", "3", "--method", "baseline"])
        assert code == 0
        stored = json.loads((tmp_path / "r" / "cell__baseline" / "summary.json").read_text())
        assert stored["seeds"] == [0, 1, 2]

    def test_zero_seed_override_is_config_error(self, tmp_path):
        config = write_config(tmp_path)
        assert main(["run", "--config", str(config), "--seeds", "0"]) == 1

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["run", "--config", str(tmp_path / "absent.yaml")])
        assert code == 1
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("detector", ["ddm\n  threshold: abc", "ddm\n  threshold: null",
                                          "kswin\n  window: 100.5", "ddm\n  threshold: .nan",
                                          "ph\n  delta: .nan"])
    def test_badly_typed_detector_value_is_a_config_error(self, tmp_path, capsys, detector):
        text = CONFIG.replace("kind: ddm", "kind: " + detector)
        config = write_config(tmp_path, text=text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "results")]) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("kind", ["[ddm]", "{a: 1}"])
    def test_non_string_detector_kind_is_a_config_error(self, tmp_path, capsys, kind):
        config = write_config(tmp_path, text=CONFIG.replace("kind: ddm", "kind: " + kind))
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "results")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "unknown detector kind" in err

    @pytest.mark.parametrize("verb", ["run", "suite"])
    @pytest.mark.parametrize("parallel", ["0", "-3"])
    def test_non_positive_parallel_is_a_config_error(self, tmp_path, capsys, verb, parallel):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        assert main([verb, "--config", str(config), "--out", str(out), "--parallel", parallel]) == 1
        assert capsys.readouterr().err.startswith("config error: parallel")
        assert not out.exists()

    def test_invalid_config_content(self, tmp_path):
        config = write_config(tmp_path, text="stream: {kind: sea}\ndetector: {kind: bogus}\n")
        assert main(["run", "--config", str(config)]) == 1


class TestSuite:
    def test_directory_of_configs(self, tmp_path, capsys):
        conf_dir = tmp_path / "configs"
        conf_dir.mkdir()
        write_config(conf_dir, "alpha.yaml")
        write_config(conf_dir, "beta.yaml", CONFIG.replace("kind: ddm", "kind: ph"))
        out = tmp_path / "results"
        code = main(["suite", "--config", str(conf_dir), "--out", str(out), "--parallel", "2"])
        assert code == 0
        assert (out / "suite_summary.json").exists()
        assert (out / "suite_summary.txt").exists()
        report = json.loads((out / "suite_summary.json").read_text())
        assert report["n_pairs"] == 2
        assert "win_rate" in capsys.readouterr().out

    def test_empty_directory(self, tmp_path):
        conf_dir = tmp_path / "configs"
        conf_dir.mkdir()
        assert main(["suite", "--config", str(conf_dir)]) == 1


class TestReport:
    def test_rebuilds_from_stored_results(self, tmp_path, capsys):
        config = write_config(tmp_path)
        out = tmp_path / "results"
        assert main(["run", "--config", str(config), "--out", str(out)]) == 0
        capsys.readouterr()
        code = main(["report", "--out", str(out)])
        assert code == 0
        assert "cell" in capsys.readouterr().out
        assert (out / "suite_summary.json").exists()
        assert (out / "suite_summary.txt").exists()

    def test_empty_results_dir_is_a_data_error(self, tmp_path, capsys):
        (tmp_path / "results").mkdir()
        code = main(["report", "--out", str(tmp_path / "results")])
        assert code == 2
        assert "no summary.json" in capsys.readouterr().err

    @pytest.mark.parametrize("damage", ["not json", "missing key", "wrong type"])
    def test_bad_summary_is_a_data_error(self, tmp_path, capsys, damage):
        out = tmp_path / "results"
        assert main(["run", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 0
        path = out / "cell__baseline" / "summary.json"
        stored = json.loads(path.read_text())
        if damage == "wrong type":
            stored["mean_accuracy"] = "high"
        else:
            del stored["mean_accuracy"]
        path.write_text("{" if damage == "not json" else json.dumps(stored))
        capsys.readouterr()
        assert main(["report", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: ") and "Traceback" not in err


class TestValidateTheory:
    def test_passes_and_writes_report(self, tmp_path, capsys):
        code = main(["validate-theory", "--out", str(tmp_path)])
        assert code == 0
        printed = json.loads(capsys.readouterr().out)
        assert printed["pass"] is True
        stored = json.loads((tmp_path / "theory_report.json").read_text())
        assert stored == printed


class TestUsage:
    def test_no_verb(self):
        assert main([]) == 1

    def test_unknown_verb(self):
        assert main(["frobnicate"]) == 1

    def test_missing_required_flag(self):
        assert main(["run"]) == 1

    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_console_script_help(self):
        # the subprocess imports this checkout's package, installed or not
        path = [str(SRC), os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
        out = subprocess.run([sys.executable, "-m", "drifttune.cli", "--help"],
                             capture_output=True, text=True, env=env)
        assert out.returncode == 0
        assert "run" in out.stdout and "validate-theory" in out.stdout
