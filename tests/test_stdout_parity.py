"""scripts/stdout_parity.py names each command whose output moves between two trees."""
from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "stdout_parity.py"
_spec = importlib.util.spec_from_file_location("stdout_parity", SCRIPT)
stdout_parity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(stdout_parity)


def tree(tmp_path: Path, name: str) -> Path:
    """A copy of the package sources under ``tmp_path / name / src``."""
    shutil.copytree(ROOT / "src", tmp_path / name / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / name


def parity(*argv) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(SCRIPT), "--size", "tiny", "--seed", "1", *argv],
                          capture_output=True, text=True, timeout=600)


def test_a_tree_compared_with_itself_reports_nothing(tmp_path):
    same = tree(tmp_path, "same")
    done = parity("--trees", str(same), str(same))
    assert done.returncode == 0, done.stderr
    # one command for each bootstrap workload, three for simulate-fit
    assert done.stdout.splitlines() == [
        "6 commands compared over seeds [1], 0 exiting non-zero: exit codes, stdout and files identical"]


def test_a_changed_rounding_is_reported_at_its_command(tmp_path):
    parent, change = tree(tmp_path, "parent"), tree(tmp_path, "change")
    cli = change / "src" / "natfx" / "cli.py"
    text = cli.read_text(encoding="utf-8")
    assert text.count(':.12g}")') == 1
    cli.write_text(text.replace(':.12g}")', ':.11g}")'), encoding="utf-8")
    done = parity("--trees", str(parent), str(change), "--workloads", "plugin-seq2", "linear")
    assert done.returncode == 1, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split(": ")[0] for line in lines[:-1]] == [
        "seed 1 plugin-seq2 command 0 (bootstrap-report)", "seed 1 linear command 0 (bootstrap-report)"]
    assert all("stdout differs" in line for line in lines[:-1])
    assert lines[-1] == "2 commands compared over seeds [1], 0 exiting non-zero: 2 difference(s)"


def test_written_files_and_exit_codes_are_compared():
    Outcome = stdout_parity.Outcome
    base = Outcome(0, b"{}\n", {"/tmp/x/sample.csv": b"A\n1\n"})
    assert stdout_parity.differences(base, Outcome(0, b"{}\n", {"/tmp/x/sample.csv": b"A\n1\n"})) == []
    assert stdout_parity.differences(base, Outcome(2, b"{}\n", {})) == [
        "exit code 0 != 2", "written file sample.csv differs"]
    assert stdout_parity.differences(base, Outcome(0, b"{ }\n", {"/tmp/x/sample.csv": b"A\n2\n"})) == [
        "stdout differs (3 and 4 bytes)", "written file sample.csv differs"]
