"""Command-line surface: build channels and behaviors, compute capacities and
assisted success probabilities, run searches, and verify the published claims.

Exit codes: 0 success, 1 check failure, 2 usage error, 3 I/O error,
4 search budget exhausted (``search-assisted`` reached ``--max-branches``).

The argument parser is built once, on the first ``main`` call, and reused by
later calls in the same process.  It holds no handler: ``main`` resolves
``cmd_<command>`` by name in this module when it runs, so a handler rebound
on the module is the one called.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import sys

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


def _build_channel(family: str, m: int) -> channels.Channel:
    if family == "Nm":
        return channels.make_nm(m)
    if family == "Mm":
        return channels.make_mm(m)
    if family == "identity":
        return channels.identity_channel(m)
    raise CliError(f"unknown channel family {family!r}")


def _build_behavior(family: str, m: int) -> behaviors.Behavior:
    if family == "pm":
        return behaviors.make_extremal_box(m, m)
    if family == "pr":
        return behaviors.make_extremal_box(2, 2)
    if family == "rtilde":
        return behaviors.make_rtilde_box(m)
    if family == "cglmp":
        return quantum.make_cglmp_behavior()
    if family == "i3322":
        return quantum.make_i3322_rational_table()
    if family == "i3322-float":
        return quantum.behavior_from_quantum(quantum.make_i3322_model())
    raise CliError(f"unknown behavior family {family!r}")


def _load_channel_arg(args) -> channels.Channel:
    if args.channel:
        try:
            return channels.load_channel(args.channel)
        except OSError as exc:
            raise CliError(f"cannot read channel file: {exc}", EXIT_IO)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise CliError(f"bad channel file: {exc}", EXIT_IO)
    return _build_channel(args.family, args.m)


def _load_box_arg(args) -> behaviors.Behavior:
    if args.box:
        try:
            return behaviors.load_behavior(args.box)
        except OSError as exc:
            raise CliError(f"cannot read behavior file: {exc}", EXIT_IO)
        except (ValueError, KeyError, TypeError, ZeroDivisionError) as exc:
            raise CliError(f"bad behavior file: {exc}", EXIT_IO)
    return _build_behavior(args.box_family, args.m)


def _emit(payload: dict, args, text: str) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, indent=1))
    else:
        print(text)


def _write(path: str, write, obj) -> None:
    """``write(obj, path)``, with an unwritable path reported as an I/O error."""
    try:
        write(obj, path)
    except OSError as exc:
        raise CliError(f"cannot write {path}: {exc}", EXIT_IO)


def _write_text(text: str, path: str) -> None:
    with open(path, "w") as fh:
        fh.write(text)


def _write_csv_channel(c: channels.Channel, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["output"] + [str(l) for l in c.input_space.labels()])
        for o, out_label in enumerate(c.output_space.labels()):
            writer.writerow([str(out_label)] + [format_value(c.prob(o, i), RATIONAL) for i in range(c.n_inputs)])


def _write_csv_behavior(b: behaviors.Behavior, path: str) -> None:
    s = b.scenario
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "a", "b", "p"])
        for x, y in b.inputs():
            for a, bo in b.outputs():
                writer.writerow([x, y, a, bo, format_value(b.prob(x, y, a, bo), b.mode)])


def cmd_channel(args) -> int:
    c = _build_channel(args.family, args.m)
    _write(args.out, channels.save_channel, c)
    if args.csv:
        _write(args.csv, _write_csv_channel, c)
    _emit(
        {"inputs": c.n_inputs, "outputs": c.n_outputs, "path": args.out},
        args,
        f"wrote {args.out}: {c.n_inputs} inputs, {c.n_outputs} outputs",
    )
    return EXIT_OK


def cmd_behavior(args) -> int:
    b = _build_behavior(args.family, args.m)
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
    inputs, outputs = {"theorem2": channels._nm_spaces, "theorem3": channels._mm_spaces}[scheme](m)
    if (c.n_inputs, c.n_outputs) != (inputs.size, outputs.size):
        raise CliError(
            f"--m {m} gives the {scheme} scheme {inputs.size} channel inputs and {outputs.size} outputs, "
            f"but the channel has {c.n_inputs} inputs and {c.n_outputs} outputs"
        )
    scenario = behaviors.Scenario(2, 2, m, m) if scheme == "theorem2" else behaviors.Scenario(m, m, 2, 2)
    if box.scenario != scenario:
        raise CliError(f"--m {m} gives the {scheme} scheme box scenario {_scenario_label(scenario)} (x-y-a-b), "
                       f"but the box has scenario {_scenario_label(box.scenario)}")


def _scheme_protocol(scheme: str, m: int) -> protocols.AssistedProtocol:
    if scheme == "theorem2":
        return protocols.make_theorem2_protocol(m)
    if scheme == "theorem3":
        return protocols.make_theorem3_protocol(m)
    raise CliError(f"unknown scheme {scheme!r}")


def cmd_success(args) -> int:
    c = _load_channel_arg(args)
    box = _load_box_arg(args)
    _check_scheme_alphabets(c, box, args.scheme, args.m)
    p = _scheme_protocol(args.scheme, args.m)
    if args.mc is not None:
        if args.mc < 1:
            raise CliError(f"--mc must be at least 1 trial, got {args.mc}")
        if args.seed is None:
            raise CliError("--mc requires an explicit --seed")
        estimate, stderr = protocols.monte_carlo_success(c, box, p, args.mc, args.seed)
        payload = {"success": estimate, "stderr": stderr, "trials": args.mc, "seed": args.seed}
        _emit(payload, args, f"success ~= {estimate:.6f} +/- {stderr:.6f} ({args.mc} trials, seed {args.seed})")
        return EXIT_OK
    per_message = protocols.per_message_success(c, box, p)
    value = protocols.average_success(per_message)
    exact_mode = box.mode == RATIONAL
    zero_error = exact_mode and all(v == 1 for v in per_message)
    rendered = format_value(value, RATIONAL if exact_mode else FLOAT, as_float=args.float)
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
    rendered = format_value(value, RATIONAL, as_float=args.float)
    payload = {"success": rendered, "encoder": list(encoder)}
    _emit(payload, args, f"best unassisted success = {rendered}, encoder = {list(encoder)}")
    return EXIT_OK


def cmd_search_assisted(args) -> int:
    c = _load_channel_arg(args)
    box = _load_box_arg(args)
    try:
        found, protocol = protocols.exhaustive_assisted_search(c, box, args.messages, args.max_branches)
    except protocols.SearchLimitExceeded:
        raise CliError(f"search budget exhausted: reached --max-branches {args.max_branches} before the search ended",
                       EXIT_BUDGET)
    payload = {"found": found}
    if found:
        payload["protocol"] = protocols.protocol_to_json(protocol)
    _emit(payload, args, "zero-error protocol found" if found else "no zero-error protocol in the search space")
    return EXIT_OK


def cmd_verify_paper(args) -> int:
    report = verify.run_verification()
    if args.json:
        print(json.dumps(report.to_json(), indent=1))
    else:
        print(verify.format_report(report))
    return EXIT_OK if report.all_passed else EXIT_CHECK_FAILED


def _add_channel_source(sub):
    source = sub.add_mutually_exclusive_group(required=True)
    source.add_argument("--channel", help="channel JSON file")
    source.add_argument("--family", choices=["Nm", "Mm", "identity"])
    sub.add_argument("--m", type=int, default=3, help="family size parameter")


def build_parser() -> argparse.ArgumentParser:
    # --help shows the module docstring without its last paragraph, which is about the code
    parser = argparse.ArgumentParser(prog="zecomm", description=__doc__.rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", help="construct a channel and write its JSON file")
    p.add_argument("--family", required=True, choices=["Nm", "Mm", "identity"])
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export the stochastic matrix as CSV")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("behavior", help="construct a behavior and write its JSON file")
    p.add_argument("--family", required=True, choices=["pm", "pr", "rtilde", "cglmp", "i3322", "i3322-float"])
    p.add_argument("--m", type=int, default=3)
    p.add_argument("--out", required=True)
    p.add_argument("--csv", help="also export the table as CSV")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("capacity", help="one-shot zero-error capacity of a channel")
    _add_channel_source(p)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("graph", help="export the confusability graph")
    _add_channel_source(p)
    p.add_argument("--format", choices=["dimacs", "json"], default="dimacs")
    p.add_argument("--out")

    p = sub.add_parser("success", help="success probability of an assisted scheme")
    _add_channel_source(p)
    p.add_argument("--box", help="behavior JSON file (overrides --box-family)")
    p.add_argument("--box-family", default="pm", choices=["pm", "pr", "rtilde", "cglmp", "i3322", "i3322-float"])
    p.add_argument("--scheme", required=True, choices=["theorem2", "theorem3"])
    p.add_argument("--mc", type=int, help="Monte-Carlo trials instead of exact evaluation")
    p.add_argument("--seed", type=int)
    p.add_argument("--float", action="store_true", help="render values as decimals")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search-classical", help="optimal deterministic unassisted encoder")
    _add_channel_source(p)
    p.add_argument("--messages", "-K", type=int, required=True)
    p.add_argument("--float", action="store_true")
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("search-assisted", help="exhaustive search for a zero-error assisted protocol")
    _add_channel_source(p)
    p.add_argument("--box", help="behavior JSON file (overrides --box-family)")
    p.add_argument("--box-family", default="pm", choices=["pm", "pr", "rtilde", "i3322"])
    p.add_argument("--messages", "-K", type=int, required=True)
    p.add_argument("--max-branches", type=int, default=10**9)
    p.add_argument("--json", action="store_true")

    p = sub.add_parser("verify-paper", help="recompute and check every published value")
    p.add_argument("--json", action="store_true")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    return build_parser()


def main(argv=None) -> int:
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
