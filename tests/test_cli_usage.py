"""The command line as argparse shows it: the help of ``zecomm`` and of
every command, the answers to rejected lines, and an abbreviation argparse
accepts.  They were recorded from the parser built by explicit
``add_argument`` calls, before ``cli.COMMANDS`` declared the options;
argparse lays them out differently in other Python versions, so the texts
are checked under the version they were recorded with.
"""

import sys

import pytest
from test_cli import run

from zecomm.cli import EXIT_OK, EXIT_USAGE

recorded_with_3_11 = pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                                        reason="argparse's layout and messages differ between Python versions")

HELP = {
    (): """\
usage: zecomm [-h]
              {channel,behavior,capacity,graph,success,search-classical,search-assisted,verify-paper}
              ...

Command-line surface: build channels and behaviors, compute capacities and
assisted success probabilities, run searches, and verify the published claims.
Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error, 4 search
budget exhausted (``search-assisted`` reached ``--max-branches``).

positional arguments:
  {channel,behavior,capacity,graph,success,search-classical,search-assisted,verify-paper}
    channel             construct a channel and write its JSON file
    behavior            construct a behavior and write its JSON file
    capacity            one-shot zero-error capacity of a channel
    graph               export the confusability graph
    success             success probability of an assisted scheme
    search-classical    optimal deterministic unassisted encoder
    search-assisted     exhaustive search for a zero-error assisted protocol
    verify-paper        recompute and check every published value

options:
  -h, --help            show this help message and exit
""",
    ("channel",): """\
usage: zecomm channel [-h] --family {Nm,Mm,identity} --m M --out OUT
                      [--csv CSV] [--json]

options:
  -h, --help            show this help message and exit
  --family {Nm,Mm,identity}
  --m M
  --out OUT
  --csv CSV             also export the stochastic matrix as CSV
  --json
""",
    ("behavior",): """\
usage: zecomm behavior [-h] --family {pm,pr,rtilde,cglmp,i3322,i3322-float}
                       [--m M] --out OUT [--csv CSV] [--json]

options:
  -h, --help            show this help message and exit
  --family {pm,pr,rtilde,cglmp,i3322,i3322-float}
  --m M
  --out OUT
  --csv CSV             also export the table as CSV
  --json
""",
    ("capacity",): """\
usage: zecomm capacity [-h] (--channel CHANNEL | --family {Nm,Mm,identity})
                       [--m M] [--json]

options:
  -h, --help            show this help message and exit
  --channel CHANNEL     channel JSON file
  --family {Nm,Mm,identity}
  --m M                 family size parameter
  --json
""",
    ("graph",): """\
usage: zecomm graph [-h] (--channel CHANNEL | --family {Nm,Mm,identity})
                    [--m M] [--format {dimacs,json}] [--out OUT]

options:
  -h, --help            show this help message and exit
  --channel CHANNEL     channel JSON file
  --family {Nm,Mm,identity}
  --m M                 family size parameter
  --format {dimacs,json}
  --out OUT
""",
    ("success",): """\
usage: zecomm success [-h] (--channel CHANNEL | --family {Nm,Mm,identity})
                      [--m M] [--box BOX]
                      [--box-family {pm,pr,rtilde,cglmp,i3322,i3322-float}]
                      --scheme {theorem2,theorem3} [--mc MC] [--seed SEED]
                      [--float] [--json]

options:
  -h, --help            show this help message and exit
  --channel CHANNEL     channel JSON file
  --family {Nm,Mm,identity}
  --m M                 family size parameter
  --box BOX             behavior JSON file (overrides --box-family)
  --box-family {pm,pr,rtilde,cglmp,i3322,i3322-float}
  --scheme {theorem2,theorem3}
  --mc MC               Monte-Carlo trials instead of exact evaluation
  --seed SEED           Monte-Carlo seed, required with --mc and refused
                        without it
  --float               render values as decimals
  --json
""",
    ("search-classical",): """\
usage: zecomm search-classical [-h]
                               (--channel CHANNEL | --family {Nm,Mm,identity})
                               [--m M] --messages MESSAGES [--float] [--json]

options:
  -h, --help            show this help message and exit
  --channel CHANNEL     channel JSON file
  --family {Nm,Mm,identity}
  --m M                 family size parameter
  --messages MESSAGES, -K MESSAGES
  --float
  --json
""",
    ("search-assisted",): """\
usage: zecomm search-assisted [-h]
                              (--channel CHANNEL | --family {Nm,Mm,identity})
                              [--m M] [--box BOX]
                              [--box-family {pm,pr,rtilde,i3322}] --messages
                              MESSAGES [--max-branches MAX_BRANCHES] [--json]

options:
  -h, --help            show this help message and exit
  --channel CHANNEL     channel JSON file
  --family {Nm,Mm,identity}
  --m M                 family size parameter
  --box BOX             behavior JSON file (overrides --box-family)
  --box-family {pm,pr,rtilde,i3322}
  --messages MESSAGES, -K MESSAGES
  --max-branches MAX_BRANCHES
  --json
""",
    ("verify-paper",): """\
usage: zecomm verify-paper [-h] [--json]

options:
  -h, --help  show this help message and exit
  --json
""",
}

CAPACITY_USAGE = """\
usage: zecomm capacity [-h] (--channel CHANNEL | --family {Nm,Mm,identity})
                       [--m M] [--json]
"""

ZECOMM_USAGE = """\
usage: zecomm [-h]
              {channel,behavior,capacity,graph,success,search-classical,search-assisted,verify-paper}
              ...
"""

#: rejected lines -> (exit code, stderr); none of them prints to stdout
REJECTED = {
    ("capacity",):
        (EXIT_USAGE, CAPACITY_USAGE + "zecomm capacity: error: one of the arguments --channel --family is required\n"),
    ("capacity", "--channel", "c.json", "--family", "Nm"):
        (EXIT_USAGE, CAPACITY_USAGE + "zecomm capacity: error: argument --family: not allowed with argument --channel\n"),
    ("capacity", "--family", "bogus"):
        (EXIT_USAGE, CAPACITY_USAGE + "zecomm capacity: error: argument --family: invalid choice: 'bogus' "
                                      "(choose from 'Nm', 'Mm', 'identity')\n"),
    ("capacity", "--family", "Nm", "--m", "x"):
        (EXIT_USAGE, CAPACITY_USAGE + "zecomm capacity: error: argument --m: invalid int value: 'x'\n"),
    ("capacity", "--family", "Nm", "--bogus"):
        (EXIT_USAGE, ZECOMM_USAGE + "zecomm: error: unrecognized arguments: --bogus\n"),
    ("success", "--family", "Nm", "--m", "3", "--box-family", "pm", "--scheme", "theorem2", "--mc", "-5", "--seed", "1"):
        (EXIT_USAGE, "error: --mc must be at least 1 trial, got -5\n"),
}


@pytest.fixture(autouse=True)
def columns(monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to the terminal width


@recorded_with_3_11
@pytest.mark.parametrize("command", list(HELP))
def test_help_text_is_the_recorded_one(capsys, command):
    assert run(capsys, *command, "--help") == (EXIT_OK, HELP[command], "")


@recorded_with_3_11
@pytest.mark.parametrize("argv", list(REJECTED))
def test_rejected_line_gets_the_recorded_answer(capsys, argv):
    assert run(capsys, *argv) == (REJECTED[argv][0], "", REJECTED[argv][1])


def test_an_abbreviation_that_argparse_accepts_still_runs(capsys):
    assert run(capsys, "capacity", "--fam", "Nm") == (
        EXIT_OK, "alpha = 1, one-shot zero-error capacity = 0 bits, complete graph: True\n", "")
