"""The library keeps no code for the tests alone: every public top-level
function and class of ``src/zecomm``, and every public method, is named by
some ``ast.Name`` or ``ast.Attribute`` in the package's own modules (its
``__init__.py`` re-exports aside) or in the benchmark under ``perfbench/``
(its tests aside).  Test oracles live in ``tests/``."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

#: Reached by nothing yet, kept on purpose: ROADMAP item 8 (which nonlocal
#: boxes are needed) builds on these boxes.
KEEP = {"make_jones_box", "make_local_deterministic", "uniform_behavior"}


def referenced_names(paths) -> set[str]:
    """Every name and attribute name that the modules at ``paths`` use."""
    names = set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def public_members(path: Path) -> list[str]:
    """The public top-level functions and classes of the module at ``path``,
    then each public method of a class, as ``"Class.method"``."""
    found = []
    for node in ast.parse(path.read_text(), filename=str(path)).body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            found.append(node.name)
            if isinstance(node, ast.ClassDef):
                found += [f"{node.name}.{m.name}" for m in node.body
                          if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return found


def unreached(package: Path, benchmark: Path) -> list[str]:
    """The public members of ``package`` that neither its modules nor the
    benchmark name, as ``"module.member"``.  The ``cmd_*`` handlers are
    exempt (``cli.main`` looks them up by string), and so is ``KEEP``."""
    modules = sorted(package.glob("*.py"))
    users = [p for p in modules if p.name != "__init__.py"]
    users += [p for p in sorted(benchmark.rglob("*.py")) if "tests" not in p.relative_to(benchmark).parts]
    reached = referenced_names(users)
    report = []
    for path in modules:
        for member in public_members(path):
            name = member.rpartition(".")[2]
            if name not in reached and name not in KEEP and not name.startswith("cmd_"):
                report.append(f"{path.stem}.{member}")
    return report


def test_every_public_member_is_reached_outside_the_tests():
    assert unreached(ROOT / "src" / "zecomm", ROOT / "perfbench") == []


def test_the_keep_list_names_members_that_exist():
    members = {m for path in (ROOT / "src" / "zecomm").glob("*.py") for m in public_members(path)}
    assert KEEP <= members


def test_the_check_finds_members_that_only_tests_reach(tmp_path):
    package, benchmark = tmp_path / "pkg", tmp_path / "bench"
    (benchmark / "tests").mkdir(parents=True)
    package.mkdir()
    (package / "__init__.py").write_text("from .core import Box, helper, orphan\n")
    (package / "core.py").write_text(
        "class Box:\n"
        "    def used(self): return helper()\n"
        "    def unused(self): pass\n"
        "    def _private(self): pass\n"
        "def helper(): pass\n"
        "def orphan(): pass\n"
        "def called_by_bench(): pass\n"
        "def only_in_bench_tests(): pass\n"
        "def cmd_run(args): pass\n"
        "def _internal(): pass\n"
    )
    (benchmark / "job.py").write_text("import pkg\npkg.core.called_by_bench(pkg.Box().used())\n")
    (benchmark / "tests" / "test_job.py").write_text("from pkg.core import only_in_bench_tests, orphan\n"
                                                      "only_in_bench_tests(); orphan()\n")
    assert unreached(package, benchmark) == ["core.Box.unused", "core.orphan", "core.only_in_bench_tests"]
