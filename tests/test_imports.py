"""The package loads no numpy: a command-line run that reproduces the paper
imports nothing beyond the standard library, so each fresh interpreter
skips numpy's start-up time and memory."""

import os
import subprocess
import sys
from pathlib import Path

import zecomm

SRC = Path(zecomm.__file__).resolve().parents[1]

PROGRAM = """
import contextlib, io, sys
import zecomm, zecomm.cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = zecomm.cli.main(["verify-paper", "--json"])
print(code, '"all_passed": true' in out.getvalue(), "numpy" in sys.modules)
"""


def test_verify_paper_runs_without_loading_numpy():
    done = subprocess.run([sys.executable, "-c", PROGRAM], env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True,
                          text=True, timeout=120, check=True)
    assert done.stdout.split() == ["0", "True", "False"]
