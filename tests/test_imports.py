"""The package loads no numpy: a command-line run that reproduces the paper
imports nothing beyond the standard library, so each fresh interpreter
skips numpy's start-up time and memory.  Nor does it load ``dataclasses``,
``inspect`` or ``typing``, whose import and class generation cost each
process about 10 ms before any work, and a well-formed command line loads no
``argparse`` (with ``gettext``, 2-3 ms): ``zecomm.cli`` reads it straight off
its option table."""

import json
import os
import subprocess
import sys
from pathlib import Path

import zecomm
import zecomm.cli

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


#: one well-formed line per command; ``{out}`` stands for a temporary directory
WELL_FORMED = [
    ["channel", "--family", "Nm", "--m", "2", "--out", "{out}/nm2.json"],
    ["behavior", "--family", "pr", "--m", "2", "--out", "{out}/pr.json"],
    ["capacity", "--family", "Nm", "--m", "2", "--json"],
    ["graph", "--family", "Nm", "--m", "2", "--format", "json"],
    ["success", "--family", "Nm", "--m", "2", "--box-family", "pm", "--scheme", "theorem2"],
    ["search-classical", "--family", "Nm", "--m", "2", "-K", "2"],
    ["search-assisted", "--family", "Nm", "--m", "2", "--box-family", "pr", "--messages", "2"],
    ["verify-paper"],
]

LINES_THEN_HELP = """
import contextlib, io, json, sys
import zecomm, zecomm.cli
lines = [[token.replace("{out}", sys.argv[1]) for token in line] for line in json.loads(sys.argv[2])]
with contextlib.redirect_stdout(io.StringIO()):
    codes = [zecomm.cli.main(line) for line in lines]
before = "argparse" in sys.modules
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = zecomm.cli.main(["--help"])
print(json.dumps([codes, before, code, out.getvalue()]))
"""


def test_well_formed_lines_load_no_argparse_and_help_still_works(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width
    done = subprocess.run([sys.executable, "-S", "-c", LINES_THEN_HELP, str(tmp_path), json.dumps(WELL_FORMED)],
                          env={**os.environ, "PYTHONPATH": str(SRC)}, capture_output=True, text=True, timeout=120,
                          check=True)
    codes, argparse_loaded, help_code, help_text = json.loads(done.stdout)
    assert len(codes) == len(zecomm.cli.COMMANDS) and set(codes) == {0}
    assert not argparse_loaded
    assert (help_code, help_text) == (zecomm.cli.main(["--help"]), capsys.readouterr().out)
    assert help_code == 0 and help_text.startswith("usage: zecomm [-h]")
