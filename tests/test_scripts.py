"""Smoke tests of the report scripts: each runs small and prints its landmark,
and the CLI corpus prints its pinned output in full."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# every case's hash and the total, so that a change in any CLI output shows
# here; the help text it hashes is argparse's layout, which may differ
# between Python versions
CLI_CORPUS = open(os.path.join(ROOT, "tests", "cli_corpus.txt")).read()

SCRIPTS = {
    "braid_report.py": (["--max-n", "3", "--oracle-syllables", "3"],
                        "n=3 basis x_i: certified"),
    "confluence_report.py": (["--max-n", "3", "--trials", "20"],
                             "26 critical pairs, 9 non-joinable"),
    "cli_corpus.py": ([], CLI_CORPUS),
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
    if script == "cli_corpus.py":
        assert proc.stdout == CLI_CORPUS
    else:
        assert landmark in proc.stdout
