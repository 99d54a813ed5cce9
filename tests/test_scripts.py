"""The scripts under ``scripts/`` and the examples of README.md, run as their
users run them."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from cct_lens import workload as wl
from cct_lens.cli import main

REPO = Path(__file__).resolve().parents[1]


def run_python(*argv: str, cwd=None) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    return subprocess.run([sys.executable, *argv], capture_output=True, text=True, env=env,
                          timeout=120, cwd=cwd)


def run_script(name: str, *argv: str) -> subprocess.CompletedProcess:
    return run_python(str(REPO / "scripts" / name), *argv)


def test_reproduce_hotspot_table_matches_analyze(capsys, tmp_path):
    trace = tmp_path / "fig8.tsv"
    trace.write_text(wl.simulate(wl.figure8_preset()), encoding="utf-8")
    assert main(["analyze", str(trace), "--format", "json"]) == 0
    expected = capsys.readouterr().out
    result = run_script("reproduce_hotspot_table.py", "--format", "json")
    assert result.returncode == 0, result.stderr
    assert result.stdout == expected


def test_load_level_comparison_unit_ratios_at_zero_jitter():
    result = run_script("load_level_comparison.py", "--jitter", "0")
    assert result.returncode == 0, result.stderr
    rows = [line.split() for line in result.stdout.splitlines()]
    # columns end with: ratio, invocations a, invocations b, status
    shared = [row for row in rows if row and row[-1] == "shared"]
    assert shared and all(row[-4] == "1.000" for row in shared)


@pytest.mark.parametrize("name", ["reproduce_hotspot_table.py", "load_level_comparison.py"])
def test_unwritable_output_is_one_error_line(name, tmp_path):
    path = tmp_path / "missing" / "report.txt"
    result = run_script(name, "-o", str(path))
    assert result.returncode == 1
    assert "Traceback" not in result.stderr
    errors = [line for line in result.stderr.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and str(path) in errors[0], result.stderr
    assert result.stdout == ""


@pytest.mark.parametrize("argv", [["--users-a", "0"], ["--users-b", "-3"], ["--jitter", "1.5"]])
def test_bad_load_level_is_one_error_line(argv):
    result = run_script("load_level_comparison.py", *argv)
    assert (result.returncode, result.stdout) == (1, "")
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, result.stderr


def test_readme_examples_run(capsys, tmp_path):
    # each python block runs where the figure8 trace is portal.tsv
    trace = str(tmp_path / "portal.tsv")
    assert main(["simulate", "--preset", "figure8", "-o", trace]) == 0
    capsys.readouterr()
    assert main(["analyze", trace, "--exclude", "com.sun.*"]) == 0
    report = capsys.readouterr().out
    blocks = re.findall(r"^```python\n(.*?)^```$", (REPO / "README.md").read_text("utf-8"),
                        re.M | re.S)
    outputs = []
    for block in blocks:
        result = run_python("-c", block, cwd=tmp_path)
        assert (result.returncode, result.stderr) == (0, ""), block
        outputs.append(result.stdout)
    assert all(outputs) and report in outputs
