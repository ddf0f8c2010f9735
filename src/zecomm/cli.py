"""Command-line surface: build channels and behaviors, compute capacities and
assisted success probabilities, run searches, and verify the published claims.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 search budget exhausted (``search-assisted`` reached ``--max-branches``).

Each command's options are declared once, as rows of ``COMMANDS``: option
strings, ``add_argument`` keywords, and whether the row belongs to the
required one-of ``--channel``/``--family`` group.  ``main`` reads a
well-formed line straight off that table: a command name, then only that
command's option strings spelled in full, each value-taking one followed by
a value that does not start with ``-``; ``int`` values that ``int()`` reads,
allowed choices, every required option and exactly one channel source.  It
gets the attributes argparse would set, defaults included.  Every other line
(``--help``, abbreviations, ``--opt=value``, ``-K2``, negative values and
every error) goes to the argparse parser that ``build_parser`` derives from
the same table, so help and messages are argparse's own.  ``argparse`` is
imported and the parser built only for such a line, once per process; later
calls reuse it.

Neither the table nor the parser holds a handler: ``main`` resolves
``cmd_<command>`` by name in this module when it runs, so a handler rebound
on the module is the one called.  Each channel family, box family and scheme
is declared once, in ``CHANNEL_FAMILIES``, ``BOX_FAMILIES`` and
``protocols.SCHEMES``; the ``choices`` of the table, the commands and the
scheme check all read those tables.  Their entries look each builder up on
its module when called, so a rebound builder is the one used there too.
"""

from __future__ import annotations

import csv
import functools
import json
import sys
from types import SimpleNamespace

from . import behaviors, channels, graphs, protocols, quantum, verify
from .numeric import FLOAT, RATIONAL, format_value

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_BUDGET = 4


class CliError(Exception):
    def __init__(self, message: str, code: int = EXIT_USAGE):
        super().__init__(message)
        self.code = code


#: ``--family`` name -> the channel of size m
CHANNEL_FAMILIES = {
    "Nm": lambda m: channels.make_nm(m),
    "Mm": lambda m: channels.make_mm(m),
    "identity": lambda m: channels.identity_channel(m),
}

#: ``--family``/``--box-family`` name -> (numeric mode, the box for size m); the
#: first is the default, and ``search-assisted`` offers only the rational ones
BOX_FAMILIES = {
    "pm": (RATIONAL, lambda m: behaviors.make_extremal_box(m, m)),
    "pr": (RATIONAL, lambda m: behaviors.make_extremal_box(2, 2)),
    "rtilde": (RATIONAL, lambda m: behaviors.make_rtilde_box(m)),
    "cglmp": (FLOAT, lambda m: quantum.make_cglmp_behavior()),
    "i3322": (RATIONAL, lambda m: quantum.make_i3322_rational_table()),
    "i3322-float": (FLOAT, lambda m: quantum.behavior_from_quantum(quantum.make_i3322_model())),
}


def _load(path: str, load, kind: str):
    """``load(path)``, with an unreadable or malformed file reported as an I/O error."""
    try:
        return load(path)
    except OSError as exc:
        raise CliError(f"cannot read {kind} file: {exc}", EXIT_IO)
    except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
        raise CliError(f"bad {kind} file: {exc}", EXIT_IO)


def _load_channel_arg(args) -> channels.Channel:
    if args.channel:
        return _load(args.channel, channels.load_channel, "channel")
    return CHANNEL_FAMILIES[args.family](args.m)


def _load_box_arg(args) -> behaviors.Behavior:
    if args.box:
        return _load(args.box, behaviors.load_behavior, "behavior")
    return BOX_FAMILIES[args.box_family][1](args.m)


def _emit(payload: dict, args, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def _write(path: str, write, obj):
    """``write(obj, path)``, with an unwritable path reported as an I/O error."""
    try:
        return write(obj, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def _write_text(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv_channel(c: channels.Channel, path: str, matrix: list) -> None:
    """The table of ``c`` with one row per output; ``matrix`` is the
    ``"num/den"`` text of ``channels.channel_to_json(c)``."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["output"] + [str(l) for l in c.input_space.labels()])
        for out_label, row in zip(c.output_space.labels(), zip(*matrix)):
            writer.writerow([str(out_label), *row])


def _write_csv_behavior(b: behaviors.Behavior, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "a", "b", "p"])
        for x, y in b.inputs():
            for a, bo in b.outputs():
                writer.writerow([x, y, a, bo, format_value(b.prob(x, y, a, bo))])


def cmd_channel(args) -> int:
    c = CHANNEL_FAMILIES[args.family](args.m)
    data = _write(args.out, channels.save_channel, c)  # one text matrix for both files
    if args.csv:
        _write(args.csv, functools.partial(_write_csv_channel, matrix=data["matrix"]), c)
    _emit(
        {"inputs": c.n_inputs, "outputs": c.n_outputs, "path": args.out},
        args,
        f"wrote {args.out}: {c.n_inputs} inputs, {c.n_outputs} outputs",
    )
    return EXIT_OK


def cmd_behavior(args) -> int:
    b = BOX_FAMILIES[args.family][1](args.m)
    _write(args.out, behaviors.save_behavior, b)
    if args.csv:
        _write(args.csv, _write_csv_behavior, b)
    s = b.scenario
    _emit(
        {"scenario": [s.x_card, s.y_card, s.a_card, s.b_card], "mode": b.mode, "path": args.out},
        args,
        f"wrote {args.out}: scenario {_scenario_label(s)}, mode {b.mode}",
    )
    return EXIT_OK


def cmd_capacity(args) -> int:
    c = _load_channel_arg(args)
    alpha, capacity, exact_bits = graphs.zero_error_capacity_oneshot(c)
    complete = alpha == 1  # a graph on at least one vertex is complete iff alpha is 1
    payload = {
        "alpha": alpha,
        "capacity_bits": capacity,
        "exact_bits": exact_bits,
        "complete_graph": complete,
    }
    _emit(
        payload,
        args,
        f"alpha = {alpha}, one-shot zero-error capacity = {capacity:.6g} bits, complete graph: {complete}",
    )
    return EXIT_OK


def cmd_graph(args) -> int:
    c = _load_channel_arg(args)
    g = graphs.confusability_graph(c)
    if args.format == "dimacs":
        text = graphs.graph_to_dimacs(g)
    else:
        text = json.dumps(graphs.graph_to_json(g), indent=1)
    if args.out:
        _write(args.out, _write_text, text)
        print(f"wrote {args.out}")
    else:
        print(text)
    return EXIT_OK


def _scenario_label(s: behaviors.Scenario) -> str:
    return f"{s.x_card}-{s.y_card}-{s.a_card}-{s.b_card}"


def _check_scheme_alphabets(c: channels.Channel, box: behaviors.Behavior, scheme: str, m: int) -> None:
    """Refuse a channel whose alphabet sizes, or a box whose scenario,
    differ from those the scheme for ``--m`` is written for."""
    _, spaces, scenario_of = protocols.SCHEMES[scheme]
    inputs, outputs = spaces(m)
    if (c.n_inputs, c.n_outputs) != (inputs.size, outputs.size):
        raise CliError(
            f"--m {m} gives the {scheme} scheme {inputs.size} channel inputs and {outputs.size} outputs, "
            f"but the channel has {c.n_inputs} inputs and {c.n_outputs} outputs"
        )
    scenario = scenario_of(m)
    if box.scenario != scenario:
        raise CliError(f"--m {m} gives the {scheme} scheme box scenario {_scenario_label(scenario)} (x-y-a-b), "
                       f"but the box has scenario {_scenario_label(box.scenario)}")


def cmd_success(args) -> int:
    if args.seed is not None and args.mc is None:
        raise CliError("--seed requires --mc: exact evaluation draws nothing")
    c = _load_channel_arg(args)
    box = _load_box_arg(args)
    _check_scheme_alphabets(c, box, args.scheme, args.m)
    p = protocols.SCHEMES[args.scheme][0](args.m)
    if args.mc is not None:
        if args.mc < 1:
            raise CliError(f"--mc must be at least 1 trial, got {args.mc}")
        if args.seed is None:
            raise CliError("--mc requires an explicit --seed")
        estimate, stderr = protocols.monte_carlo_success(c, box, p, args.mc, args.seed)
        lo, hi = protocols.wilson_interval(estimate, args.mc)
        payload = {"success": estimate, "stderr": stderr, "interval": [lo, hi], "trials": args.mc, "seed": args.seed}
        _emit(payload, args, f"success ~= {estimate:.6f} +/- {stderr:.6f}, 95% Wilson interval [{lo:.6f}, {hi:.6f}] "
                             f"({args.mc} trials, seed {args.seed})")
        return EXIT_OK
    per_message = protocols.per_message_success(c, box, p)
    value = protocols.average_success(per_message)
    exact_mode = box.mode == RATIONAL
    zero_error = exact_mode and all(v == 1 for v in per_message)
    rendered = format_value(value, as_float=args.float)
    payload = {
        "success": rendered,
        "zero_error": zero_error,
        "mode": "exact" if exact_mode else "float",
    }
    _emit(payload, args, f"success = {rendered}, zero_error = {zero_error}")
    return EXIT_OK


def cmd_search_classical(args) -> int:
    c = _load_channel_arg(args)
    value, encoder = protocols.best_unassisted_success(c, args.messages)
    rendered = format_value(value, as_float=args.float)
    payload = {"success": rendered, "encoder": list(encoder)}
    _emit(payload, args, f"best unassisted success = {rendered}, encoder = {list(encoder)}")
    return EXIT_OK


def cmd_search_assisted(args) -> int:
    if args.max_branches < 1:
        raise CliError(f"--max-branches must be at least 1 branch, got {args.max_branches}")
    c = _load_channel_arg(args)
    box = _load_box_arg(args)
    try:
        found, protocol = protocols.exhaustive_assisted_search(c, box, args.messages, args.max_branches)
    except protocols.SearchLimitExceeded as stop:
        x_card, k = box.scenario.x_card, len(stop.enc_box)
        rank = 1 + sum(x * x_card ** (k - 1 - g) for g, x in enumerate(stop.enc_box))
        raise CliError(f"search budget exhausted: reached --max-branches {args.max_branches} before the search ended; "
                       f"it stopped in box-input tuple {rank} of {x_card ** k}, {stop.enc_box}", EXIT_BUDGET)
    payload = {"found": found}
    if found:
        payload["protocol"] = protocols.protocol_to_json(protocol)
    _emit(payload, args, "zero-error protocol found" if found else "no zero-error protocol in the search space")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    checks = verify.run_verification()
    if args.json:
        print(json.dumps(verify.report_json(checks), indent=1))
    else:
        print(verify.format_report(checks))
    return EXIT_OK if all(c.passed for c in checks) else EXIT_CHECK_FAILED


def _option(*strings, one_of=False, **keywords):
    """One row of ``COMMANDS``: option strings, long one first; whether the
    option belongs to the required one-of ``--channel``/``--family`` group;
    and its ``add_argument`` keywords, of which ``_read_argv`` knows
    ``action="store_true"``, ``type=int``, ``choices``, ``default`` and
    ``required``."""
    return strings, one_of, keywords


_JSON = _option("--json", action="store_true")
_CHANNEL_SOURCE = (
    _option("--channel", one_of=True, help="channel JSON file"),
    _option("--family", one_of=True, choices=list(CHANNEL_FAMILIES)),
    _option("--m", type=int, default=3, help="family size parameter"),
)


def _box_source(families: list) -> tuple:
    return (_option("--box", help="behavior JSON file (overrides --box-family)"),
            _option("--box-family", default=families[0], choices=families))


#: command -> (its line in ``zecomm --help``, its option rows in the order
#: its ``--help`` lists them)
COMMANDS = {
    "channel": ("construct a channel and write its JSON file", (
        _option("--family", required=True, choices=list(CHANNEL_FAMILIES)),
        _option("--m", type=int, required=True),
        _option("--out", required=True),
        _option("--csv", help="also export the stochastic matrix as CSV"),
        _JSON,
    )),
    "behavior": ("construct a behavior and write its JSON file", (
        _option("--family", required=True, choices=list(BOX_FAMILIES)),
        _option("--m", type=int, default=3),
        _option("--out", required=True),
        _option("--csv", help="also export the table as CSV"),
        _JSON,
    )),
    "capacity": ("one-shot zero-error capacity of a channel", (*_CHANNEL_SOURCE, _JSON)),
    "graph": ("export the confusability graph", (
        *_CHANNEL_SOURCE,
        _option("--format", choices=["dimacs", "json"], default="dimacs"),
        _option("--out"),
    )),
    "success": ("success probability of an assisted scheme", (
        *_CHANNEL_SOURCE,
        *_box_source(list(BOX_FAMILIES)),
        _option("--scheme", required=True, choices=list(protocols.SCHEMES)),
        _option("--mc", type=int, help="Monte-Carlo trials instead of exact evaluation"),
        _option("--seed", type=int, help="Monte-Carlo seed, required with --mc and refused without it"),
        _option("--float", action="store_true", help="render values as decimals"),
        _JSON,
    )),
    "search-classical": ("optimal deterministic unassisted encoder", (
        *_CHANNEL_SOURCE,
        _option("--messages", "-K", type=int, required=True),
        _option("--float", action="store_true"),
        _JSON,
    )),
    "search-assisted": ("exhaustive search for a zero-error assisted protocol", (
        *_CHANNEL_SOURCE,
        *_box_source([name for name, (mode, _) in BOX_FAMILIES.items() if mode == RATIONAL]),
        _option("--messages", "-K", type=int, required=True),
        _option("--max-branches", type=int, default=10**9),
        _JSON,
    )),
    "verify-paper": ("recompute and check every published value", (_JSON,)),
}


def _reading(rows) -> tuple:
    """What ``_read_argv`` needs of one command's rows: option string ->
    (dest, type, choices), with type ``bool`` for a flag; the defaults of
    every dest; the required dests; and the dests of the one-of group."""
    options, defaults, required, one_of = {}, {}, set(), set()
    for strings, member, keywords in rows:
        dest = strings[0][2:].replace("-", "_")  # as argparse names it, from the long option string
        kind = bool if keywords.get("action") == "store_true" else keywords.get("type", str)
        defaults[dest] = keywords.get("default", False if kind is bool else None)
        for string in strings:
            options[string] = dest, kind, keywords.get("choices")
        if keywords.get("required"):
            required.add(dest)
        if member:
            one_of.add(dest)
    return options, defaults, required, one_of


_READINGS = {name: _reading(rows) for name, (_, rows) in COMMANDS.items()}


def _read_argv(argv):
    """The attributes argparse sets for a well-formed ``argv``, defaults
    included, read straight off ``COMMANDS``; None for any other line."""
    reading = _READINGS.get(argv[0]) if argv else None
    if reading is None:
        return None
    options, defaults, required, one_of = reading
    values = {"command": argv[0], **defaults}
    given = set()
    tokens = iter(argv[1:])
    for token in tokens:
        option = options.get(token)
        if option is None:  # an abbreviation, an ``=`` form, ``-K2``, help or an unknown token
            return None
        dest, kind, choices = option
        value = True
        if kind is not bool:
            value = next(tokens, "-")
            if value.startswith("-"):  # no value, or one argparse may read as an option
                return None
            if kind is int:
                try:
                    value = int(value)
                except ValueError:
                    return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        given.add(dest)
    if required - given or (one_of and len(one_of & given) != 1):
        return None
    return SimpleNamespace(**values)


def build_parser():
    """The argparse parser of ``COMMANDS``."""
    import argparse

    # --help shows the first two paragraphs of the module docstring; the rest is about the code
    parser = argparse.ArgumentParser(prog="zecomm", description="\n\n".join(__doc__.split("\n\n", 2)[:2]))
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, rows) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        group = None
        for strings, member, keywords in rows:
            if member and group is None:
                group = p.add_mutually_exclusive_group(required=True)
            (group if member else p).add_argument(*strings, **keywords)
    return parser


@functools.cache
def _parser():
    return build_parser()


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    args = _read_argv(argv)
    if args is None:
        try:
            args = _parser().parse_args(argv)
        except SystemExit as exc:
            return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.code
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
