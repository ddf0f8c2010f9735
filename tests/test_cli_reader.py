"""The table reader of ``zecomm.cli``: ``main`` reads a well-formed line
straight off ``cli.COMMANDS`` and leaves every other line to the argparse
parser derived from the same table, built once and only then.  The reader
must return either None or exactly the attributes argparse sets, and must
read every CLI line of the benchmark's ``paper``, ``sampling`` and
``search`` jobs.
"""

import contextlib
import io
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_cli import run
from test_imports import WELL_FORMED

from zecomm import cli
from zecomm.cli import COMMANDS, EXIT_OK, EXIT_USAGE

ROOT = Path(__file__).resolve().parents[1]


def test_well_formed_lines_build_no_parser_and_the_rest_share_one(monkeypatch, capsys, tmp_path):
    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    lines = [[token.replace("{out}", str(tmp_path)) for token in line] for line in WELL_FORMED]
    try:
        assert sorted(line[0] for line in lines) == sorted(COMMANDS)
        for line in lines:
            assert run(capsys, *line)[0] == EXIT_OK, line
        assert built == []
        code, stdout, _ = run(capsys, "--help")
        assert code == EXIT_OK and stdout.startswith("usage: zecomm [-h]")
        assert run(capsys, "capacity")[0] == EXIT_USAGE
        assert run(capsys, "capacity", "--fam", "Nm")[0] == EXIT_OK
        assert built == [1]
    finally:
        cli._parser.cache_clear()


def parsed(argv):
    """``vars()`` of what argparse makes of ``argv``, or None where it exits."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(cli._parser().parse_args(argv))
        except SystemExit:
            return None


#: at most one flaw is drawn into a line; the first five leave it plain:
#: full option strings, and values that do not start with ``-``
FLAWS = [None, "missing", "conflict", "bad value", "no value", "abbreviation", "equals", "dash value", "unknown",
         "command"]
PLAIN = {None, "missing", "conflict", "bad value", "no value"}


def values_of(keywords) -> tuple:
    """(good values, bad values) of an option that takes one."""
    if keywords.get("type") is int:
        return ["0", "3", " 2", "1_0"], ["x", "", "2.5"]
    if keywords.get("choices"):
        return list(keywords["choices"]), ["bogus", ""]
    return ["c.json", "a=b", ""], []


@st.composite
def drawn_lines(draw):
    """``(argv, flaw)``: a well-formed line of ``COMMANDS``, its options in any
    order and some repeated, with at most one flaw: a missing option, both
    channel sources, a bad or empty value, a missing value, an abbreviation,
    an ``=`` form, a value that starts with ``-``, an unknown token or an
    unknown command."""
    command = draw(st.sampled_from(list(COMMANDS)))
    rows = COMMANDS[command][1]
    sources = [row for row in rows if row[1]]
    others = [row for row in rows if not row[1]]
    picked = [row for row in others if row[2].get("required")] + draw(st.lists(st.sampled_from(others), max_size=4))
    flaw = draw(st.sampled_from(FLAWS))
    if sources:
        source = draw(st.sampled_from(sources))
        picked += [source] + [row for row in sources if row is not source and flaw == "conflict"]
    picked = draw(st.permutations(picked))
    if flaw == "missing" and picked:
        del picked[draw(st.integers(0, len(picked) - 1))]
    options = []
    for strings, _, keywords in picked:
        value = [draw(st.sampled_from(values_of(keywords)[0]))] if keywords.get("action") != "store_true" else []
        options.append([draw(st.sampled_from(strings)), *value])
    if options:
        i = draw(st.integers(0, len(options) - 1))
        string, *value = options[i]
        bad = values_of(picked[i][2])[1] if value else []
        if flaw == "bad value" and bad:
            options[i] = [string, draw(st.sampled_from(bad))]
        elif flaw == "no value":
            options[i] = [string]
        elif flaw == "abbreviation" and len(string) > 3:
            options[i] = [string[:draw(st.integers(3, len(string) - 1))], *value]
        elif flaw == "equals" and value:
            options[i] = [f"{string}={value[0]}"]
        elif flaw == "dash value":
            options[i] = [string, draw(st.sampled_from(["-5", "-1", "-", "--json", "-x"]))]
    argv = [command] + [token for option in options for token in option]
    if flaw == "unknown":
        argv.insert(draw(st.integers(1, len(argv))), draw(st.sampled_from(["--bogus", "-h", "--help", "x", "--"])))
    elif flaw == "command":
        argv[0] = draw(st.sampled_from(["capacit", "nonsense", "--help", "-h"]))
    return argv, flaw


@settings(max_examples=600, deadline=None)
@given(drawn_lines())
def test_reader_gives_none_or_exactly_what_argparse_sets(line):
    argv, flaw = line
    read = cli._read_argv(argv)
    expected = parsed(argv)
    if read is not None:
        assert vars(read) == expected
    if flaw in PLAIN:  # the reader decides every plain line itself
        assert (read is None) == (expected is None)


@pytest.mark.parametrize("workload", ["paper", "sampling", "search"])
def test_reader_reads_every_benchmark_line(monkeypatch, tmp_path, workload):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import workloads

    lines = [job.args for seed in (1, 2, 3) for job in workloads.build_jobs(workload, seed, str(tmp_path))
             if job.kind == "cli"]
    assert lines
    for argv in lines:
        read = cli._read_argv(argv)
        assert read is not None and vars(read) == parsed(list(argv)), argv
