"""The package loads no numpy: a command-line run that reproduces the paper
imports nothing beyond the standard library, so each fresh interpreter
skips numpy's start-up time and memory.  Nor does it load ``dataclasses``,
``inspect`` or ``typing``, whose import and class generation cost each
process about 10 ms before any work."""

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


def test_import_loads_no_dataclasses_inspect_or_typing():
    # -S: without site packages, whose .pth files may import typing themselves
    program = "import sys, zecomm, zecomm.cli; print(*sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-S", "-c", program], env={**os.environ, "PYTHONPATH": str(SRC)},
                          capture_output=True, text=True, timeout=120, check=True)
    assert done.stdout.split() == []
