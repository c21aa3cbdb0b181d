"""Smoke tests of the report scripts: each runs small and prints its landmark."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

SCRIPTS = {
    "braid_report.py": (["--max-n", "3", "--oracle-syllables", "3"],
                        "n=3 basis x_i: certified"),
    "confluence_report.py": (["--max-n", "3", "--trials", "20"],
                             "26 critical pairs, 9 non-joinable"),
    "cli_corpus.py": ([], "total of 134 cases"),
}


@pytest.mark.parametrize("script", SCRIPTS)
def test_report_script_runs(script):
    args, landmark = SCRIPTS[script]
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")},
    )
    assert proc.returncode == 0, proc.stderr
    assert landmark in proc.stdout
