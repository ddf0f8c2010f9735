"""The library does no printing: of the modules in ``src/zecomm``, only the
command-line front end ``cli.py`` calls ``print`` or writes to
``sys.stdout`` or ``sys.stderr``."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "zecomm").glob("*.py"))


def console_writes(path: Path) -> list[str]:
    """Each ``print`` call and each use of ``sys.stdout``/``sys.stderr`` in
    the module at ``path``, as ``"<line>: <what>"``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "print":
            found.append(f"{node.lineno}: print")
        elif (isinstance(node, ast.Attribute) and node.attr in ("stdout", "stderr")
              and isinstance(node.value, ast.Name) and node.value.id == "sys"):
            found.append(f"{node.lineno}: sys.{node.attr}")
        elif isinstance(node, ast.ImportFrom) and node.module == "sys":
            found += [f"{node.lineno}: from sys import {a.name}" for a in node.names if a.name in ("stdout", "stderr")]
    return found


@pytest.mark.parametrize("path", [p for p in SOURCES if p.name != "cli.py"], ids=lambda p: p.name)
def test_library_module_does_not_print(path):
    assert console_writes(path) == []


def test_the_check_finds_the_printing_of_the_cli():
    found = console_writes(next(p for p in SOURCES if p.name == "cli.py"))
    assert any(w.endswith(": print") for w in found)
    assert any(w.endswith(": sys.stderr") for w in found)
