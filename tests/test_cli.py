"""Command line entry points and their exit codes."""

import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path

import pytest

from drifttune import harness
from drifttune.cli import main
from drifttune.dtd import baseline_step
from drifttune.errors import ModelError

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


class TestInertCells:
    def test_run_names_an_inert_cell_on_stderr_and_runs_it(self, tmp_path, capsys):
        text = "stream:\n  kind: mixed\n  chunk_size: 20\ndetector:\n  kind: kswin\nseeds: 1\n"
        config = write_config(tmp_path, "mixed_kswin.yaml", text)
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "r")]) == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [harness.inert_cells([harness.load_config(config)])[0]]
        assert "mixed_kswin: its kswin monitor needs 100 updates" in captured.err
        assert "gives 99" in captured.err and "inert" not in captured.out
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == [
            "mixed_kswin__baseline", "mixed_kswin__dtd"]

    def test_suite_prints_nothing_for_a_window_that_fills(self, tmp_path, capsys):
        config = SRC.parent / "configs" / "sea_kswin_tuned.yaml"
        assert main(["suite", "--config", str(config), "--seeds", "1",
                     "--out", str(tmp_path / "r")]) == 0
        assert capsys.readouterr().err == ""


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
        # --method replaces the config's method; left out, the config's stands
        config = write_config(tmp_path)
        code = main(["run", "--config", str(config), "--out", str(tmp_path / "r"),
                     "--method", "dtd"])
        assert code == 0
        assert not (tmp_path / "r" / "cell__baseline").exists()
        assert (tmp_path / "r" / "cell__dtd").exists()
        dtd_only = write_config(tmp_path, "dtd_only.yaml", CONFIG + "method: dtd\n")
        assert main(["run", "--config", str(dtd_only), "--out", str(tmp_path / "own")]) == 0
        assert sorted(p.name for p in (tmp_path / "own").iterdir()) == ["dtd_only__dtd"]
        assert main(["run", "--config", str(dtd_only), "--out", str(tmp_path / "both"),
                     "--method", "both"]) == 0
        assert sorted(p.name for p in (tmp_path / "both").iterdir()) == [
            "dtd_only__baseline", "dtd_only__dtd"]

    def test_out_flag_replaces_the_configs_out(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, text=CONFIG + "out: mine\n")
        assert main(["run", "--config", str(config), "--out", "flagged", "--method", "baseline"]) == 0
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.yaml", "flagged"]
        assert (tmp_path / "flagged" / "cell__baseline" / "summary.json").exists()

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

    @pytest.mark.parametrize("line", ["name: {x: 1}", "name:", "out: [a, b]"])
    def test_non_string_name_or_out_is_a_config_error(self, tmp_path, monkeypatch, capsys, line):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, text=CONFIG + line + "\n")
        assert main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err.startswith("config error: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cell.yaml"]

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

    @pytest.mark.parametrize("failure", ["raise", "exit"])
    def test_a_failing_child_share_is_a_runtime_error(self, tmp_path, capsys, monkeypatch, failure):
        # alpha and beta read one stream, so --parallel 2 runs beta in a child
        conf_dir = tmp_path / "configs"
        conf_dir.mkdir()
        write_config(conf_dir, "alpha.yaml")
        write_config(conf_dir, "beta.yaml", CONFIG.replace("kind: ddm", "kind: ph"))
        caller = os.getpid()

        def step(state, chunk):
            if os.getpid() != caller:
                if failure == "exit":
                    os._exit(3)
                raise ModelError("child share failed")
            return baseline_step(state, chunk)

        monkeypatch.setattr(harness, "baseline_step", step)
        code = main(["suite", "--config", str(conf_dir), "--out", str(tmp_path / "results"),
                     "--parallel", "2", "--method", "baseline"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err
        assert ("exit code 3" if failure == "exit" else "child share failed") in err
        assert multiprocessing.active_children() == []

    def test_writes_to_the_configs_out_without_out_flag(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        conf_dir = tmp_path / "configs"
        conf_dir.mkdir()
        write_config(conf_dir, "alpha.yaml", CONFIG + "out: mine\n")
        assert main(["suite", "--config", str(conf_dir), "--method", "baseline"]) == 0
        assert (tmp_path / "mine" / "alpha__baseline" / "summary.json").exists()
        assert (tmp_path / "mine" / "suite_summary.json").exists()
        assert not (tmp_path / "results").exists()

    def test_method_both_runs_both_on_a_single_method_config(self, tmp_path):
        conf_dir = tmp_path / "configs"
        conf_dir.mkdir()
        write_config(conf_dir, "alpha.yaml", CONFIG + "method: dtd\n")
        out = tmp_path / "results"
        assert main(["suite", "--config", str(conf_dir), "--out", str(out), "--method", "both"]) == 0
        assert (out / "alpha__baseline" / "summary.json").exists()
        assert (out / "alpha__dtd" / "summary.json").exists()
        assert json.loads((out / "suite_summary.json").read_text())["n_pairs"] == 1

    def test_configs_with_different_outs_need_out_flag(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        conf_dir = tmp_path / "configs"
        conf_dir.mkdir()
        write_config(conf_dir, "alpha.yaml", CONFIG + "out: mine\n")
        write_config(conf_dir, "beta.yaml")
        assert main(["suite", "--config", str(conf_dir)]) == 1
        assert "different out directories" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["configs"]

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
