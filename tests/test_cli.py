import json
import tracemalloc
from fractions import Fraction

import pytest

from zecomm import channels, reference, verify
from zecomm.behaviors import Scenario, behavior_to_json, make_extremal_box, make_local_deterministic
from zecomm.channels import channel_to_json, identity_channel, load_channel, make_mm, make_nm, save_channel
from zecomm.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, _write_csv_channel, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_channel_command_writes_file(tmp_path, capsys):
    out = tmp_path / "nm3.json"
    code, stdout, _ = run(capsys, "channel", "--family", "Nm", "--m", "3", "--out", str(out))
    assert code == EXIT_OK
    assert "12 outputs" in stdout
    assert load_channel(str(out)) == make_nm(3)


def test_channel_csv_export(tmp_path, capsys):
    out = tmp_path / "c.json"
    csv_path = tmp_path / "c.csv"
    code, _, _ = run(capsys, "channel", "--family", "Mm", "--m", "3", "--out", str(out), "--csv", str(csv_path))
    assert code == EXIT_OK
    header = csv_path.read_text().splitlines()[0]
    assert header.startswith("output,")


def test_channel_command_builds_the_text_matrix_once(tmp_path, capsys, monkeypatch):
    out, csv_path = tmp_path / "c.json", tmp_path / "c.csv"
    save_channel(make_mm(3), str(tmp_path / "saved.json"))
    _write_csv_channel(make_mm(3), str(tmp_path / "saved.csv"), channel_to_json(make_mm(3))["matrix"])
    calls = []
    monkeypatch.setattr(channels, "channel_to_json", lambda c: calls.append(c) or channel_to_json(c))
    code, _, _ = run(capsys, "channel", "--family", "Mm", "--m", "3", "--out", str(out), "--csv", str(csv_path))
    assert code == EXIT_OK and len(calls) == 1
    assert out.read_bytes() == (tmp_path / "saved.json").read_bytes()
    assert csv_path.read_bytes() == (tmp_path / "saved.csv").read_bytes()


def test_behavior_command(tmp_path, capsys):
    out = tmp_path / "box.json"
    code, stdout, _ = run(capsys, "behavior", "--family", "rtilde", "--m", "3", "--out", str(out))
    assert code == EXIT_OK
    assert "scenario 3-3-2-2" in stdout
    data = json.loads(out.read_text())
    assert data["mode"] == "rational"


def test_capacity_command_json(capsys):
    code, stdout, _ = run(capsys, "capacity", "--family", "Nm", "--m", "3", "--json")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["alpha"] == 1
    assert payload["complete_graph"] is True


def test_capacity_of_a_complete_graph_past_the_vertex_limit(capsys):
    # Mm(21) has 42 inputs and a complete graph, so alpha = 1 needs no branch and bound
    code, stdout, _ = run(capsys, "capacity", "--family", "Mm", "--m", "21", "--json")
    assert code == EXIT_OK and json.loads(stdout)["alpha"] == 1
    code, _, stderr = run(capsys, "capacity", "--family", "Nm", "--m", "21")
    assert code == EXIT_USAGE and stderr == "error: graph has 42 vertices, limit is 40\n"


def test_graph_command_dimacs(capsys):
    code, stdout, _ = run(capsys, "graph", "--family", "Nm", "--m", "2")
    assert code == EXIT_OK
    assert stdout.startswith("p edge 4 6")


def test_success_command_exact(capsys):
    code, stdout, _ = run(
        capsys, "success", "--family", "Mm", "--m", "3", "--box-family", "i3322", "--scheme", "theorem3"
    )
    assert code == EXIT_OK
    assert "success = 6/7" in stdout
    assert "zero_error = False" in stdout


def test_success_command_zero_error(capsys):
    code, stdout, _ = run(
        capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm", "--scheme", "theorem2"
    )
    assert code == EXIT_OK
    assert "success = 1/1" in stdout
    assert "zero_error = True" in stdout


def test_success_command_monte_carlo_requires_seed(capsys):
    code, _, stderr = run(
        capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm",
        "--scheme", "theorem2", "--mc", "100",
    )
    assert code == EXIT_USAGE
    assert "seed" in stderr


def test_success_command_refuses_a_seed_without_monte_carlo(capsys):
    code, stdout, stderr = run(
        capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm",
        "--scheme", "theorem2", "--seed", "5",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert stderr == "error: --seed requires --mc: exact evaluation draws nothing\n"


def test_success_command_monte_carlo_refuses_a_negative_seed(capsys):
    # random.Random seeds with |seed|: -5 would print the estimate of seed 5
    code, stdout, stderr = run(
        capsys, "success", "--family", "Mm", "--m", "3", "--box-family", "i3322",
        "--scheme", "theorem3", "--mc", "1000", "--seed", "-5",
    )
    assert code == EXIT_USAGE
    assert stdout == ""
    assert "seed must be non-negative, got -5" in stderr


def test_success_command_monte_carlo(capsys):
    code, stdout, _ = run(
        capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm",
        "--scheme", "theorem2", "--mc", "200", "--seed", "5", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["success"] == 1.0 and payload["seed"] == 5
    assert payload["stderr"] == 0.0 and payload["trials"] == 200
    lo, hi = payload["interval"]
    assert hi == 1.0 and lo == pytest.approx(200 / (200 + 1.959963984540054**2))
    code, stdout, _ = run(
        capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm",
        "--scheme", "theorem2", "--mc", "200", "--seed", "5",
    )
    assert code == EXIT_OK
    assert stdout.strip() == "success ~= 1.000000 +/- 0.000000, 95% Wilson interval [0.981155, 1.000000] " \
                             "(200 trials, seed 5)"


def test_search_classical_command(capsys):
    code, stdout, _ = run(capsys, "search-classical", "--family", "Nm", "--m", "3", "-K", "2")
    assert code == EXIT_OK
    assert "7/8" in stdout


def test_search_classical_reaches_mm7_with_seven_messages(capsys):
    code, stdout, _ = run(capsys, "search-classical", "--family", "Mm", "--m", "7", "-K", "7", "--json")
    assert code == EXIT_OK
    assert json.loads(stdout) == {"success": "265/301", "encoder": [0, 2, 4, 6, 8, 10, 12]}


def test_search_classical_refuses_a_walk_beyond_the_limit(capsys):
    # Mm(7) has 14 inputs: C(14 + 12, 12) - 1 = 9,657,699 nodes, C(14 + 13, 13) - 1 = 20,058,299
    code, stdout, stderr = run(capsys, "search-classical", "--family", "Mm", "--m", "7", "-K", "13")
    assert code == EXIT_USAGE and stdout == ""
    assert "C(14 + 13, 13) - 1 walk nodes exceed limit 10000000" in stderr


def test_search_assisted_command(capsys):
    code, stdout, _ = run(
        capsys, "search-assisted", "--family", "Nm", "--m", "2", "--box-family", "pr", "-K", "2"
    )
    assert code == EXIT_OK
    assert "zero-error protocol found" in stdout


# perfbench/workloads.py expects exactly these 14 checks (``checks=14``, read by
# ``_check_verify``), so any other count fails every verify job of the
# ``paper`` workload; a new check needs that benchmark changed first.
VERIFY_CHECKS = [
    "nm3-matrix", "mm3-matrix", "capacity-zero", "nm-large-alpha", "assisted-one-bit", "assisted-log-m",
    "unassisted-nm3", "unassisted-mm3", "cglmp-assisted", "singlet-assisted", "singlet-table", "cglmp-table",
    "tensor-two-bits", "no-signaling-suite",
]


def test_verify_paper_command(capsys):
    code, stdout, _ = run(capsys, "verify-paper")
    assert code == EXIT_OK
    assert "checks passed" in stdout
    assert "FAIL" not in stdout


def test_verify_paper_json(capsys):
    code, stdout, _ = run(capsys, "verify-paper", "--json")
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["all_passed"] is True
    assert [c["name"] for c in payload["checks"]] == VERIFY_CHECKS


def test_verify_paper_reports_a_failed_check(capsys, monkeypatch):
    monkeypatch.setattr(reference, "NM3_UNASSISTED_OPTIMUM", Fraction(1, 2))
    code, stdout, _ = run(capsys, "verify-paper")
    assert code == EXIT_CHECK_FAILED
    lines = stdout.splitlines()
    failed = [i for i, line in enumerate(lines) if line.startswith("[FAIL]")]
    assert len(failed) == 1 and lines[failed[0]].split()[1] == "unassisted-nm3"
    assert lines[failed[0]].endswith("expected 1/2")
    assert lines[failed[0] + 1] == "       computed: 7/8"
    assert lines[failed[0] + 2] == "       source:   classical one-shot optimum for two messages"
    assert lines[-1] == "13/14 checks passed"

    code, stdout, _ = run(capsys, "verify-paper", "--json")
    assert code == EXIT_CHECK_FAILED
    payload = json.loads(stdout)
    assert payload["all_passed"] is False
    assert [c["name"] for c in payload["checks"] if not c["passed"]] == ["unassisted-nm3"]


def test_verify_paper_reports_a_crashed_check_and_runs_the_rest(monkeypatch):
    def broken():
        raise RuntimeError("no table")

    monkeypatch.setattr(verify, "make_cglmp_behavior", broken)
    checks = verify.run_verification()
    assert [c.name for c in checks] == VERIFY_CHECKS
    crashed = [c for c in checks if not c.passed]
    # both CGLMP checks build the box, so both fail; the other 12 still run and pass
    assert [c.name for c in crashed] == ["cglmp-assisted", "cglmp-table"]
    assert all(c.computed == "error: no table" and c.expected == "-" for c in crashed)


def test_missing_file_is_io_error(tmp_path, capsys):
    code, _, stderr = run(
        capsys, "capacity", "--channel", str(tmp_path / "absent.json")
    )
    assert code == EXIT_IO
    assert "cannot read" in stderr


def test_bad_usage(capsys):
    assert run(capsys, "capacity", "--family", "bogus")[0] == EXIT_USAGE
    assert run(capsys, "nonsense")[0] == EXIT_USAGE


def test_channel_source_is_required(capsys):
    code, _, stderr = run(capsys, "capacity")
    assert code == EXIT_USAGE
    assert "--channel" in stderr and "--family" in stderr


def test_roundtrip_channel_through_cli(tmp_path, capsys):
    out = tmp_path / "nm2.json"
    run(capsys, "channel", "--family", "Nm", "--m", "2", "--out", str(out))
    code, stdout, _ = run(capsys, "capacity", "--channel", str(out), "--json")
    assert code == EXIT_OK
    assert json.loads(stdout)["alpha"] == 1


def test_capacity_builds_confusability_graph_once(monkeypatch, capsys):
    from zecomm import graphs

    calls = []
    original = graphs.confusability_graph

    def counted(c):
        calls.append(c)
        return original(c)

    monkeypatch.setattr(graphs, "confusability_graph", counted)
    for family, m, complete in (("Mm", 3, True), ("Nm", 4, False)):
        calls.clear()
        code, stdout, _ = run(capsys, "capacity", "--family", family, "--m", str(m), "--json")
        assert code == EXIT_OK
        assert json.loads(stdout)["complete_graph"] is complete
        assert len(calls) == 1


@pytest.mark.parametrize("m, sizes", [
    ("4", "8 channel inputs and 52 outputs"),
    ("2", "4 channel inputs and 6 outputs"),
])
def test_success_rejects_m_that_does_not_match_channel_file(tmp_path, capsys, m, sizes):
    path = tmp_path / "mm3.json"
    run(capsys, "channel", "--family", "Mm", "--m", "3", "--out", str(path))
    code, _, stderr = run(capsys, "success", "--channel", str(path), "--m", m, "--scheme", "theorem3")
    assert code == EXIT_USAGE
    assert f"--m {m}" in stderr and sizes in stderr and "6 inputs and 21 outputs" in stderr


def test_capped_search_assisted_reports_budget(capsys):
    code, stdout, stderr = run(
        capsys, "search-assisted", "--family", "Mm", "--m", "3", "--box-family", "rtilde", "-K", "3",
        "--max-branches", "10",
    )
    assert code == 4  # documented exit code: search budget exhausted
    assert stdout == ""
    assert stderr.count("\n") == 1 and "--max-branches 10" in stderr
    assert stderr.endswith("it stopped in box-input tuple 1 of 27, (0, 0, 0)\n")


def test_capped_search_assisted_on_a_large_table_reports_budget(capsys):
    # Nm(6) with the 2-2-6 box: 12**6 blocks per box input, none of them built
    # unless its passing bit is set
    code, stdout, stderr = run(capsys, "search-assisted", "--family", "Nm", "--m", "6", "--box-family", "pm",
                               "-K", "2", "--max-branches", "300000")
    assert code == 4 and stdout == ""
    assert stderr.count("\n") == 1 and "--max-branches 300000" in stderr
    assert stderr.endswith("it stopped in box-input tuple 1 of 4, (0, 0)\n")


def test_capped_search_assisted_names_the_box_inputs_it_stopped_in(capsys):
    # Nm(3) with the PR box, K = 2: the first hit is encoder 1,355, in box-input tuple (0, 1)
    code, _, stderr = run(capsys, "search-assisted", "--family", "Nm", "--m", "3", "--box-family", "pr", "-K", "2",
                          "--max-branches", "1354")
    assert code == 4
    assert stderr.endswith("it stopped in box-input tuple 2 of 4, (0, 1)\n")


def test_success_rejects_signaling_box_file(tmp_path, capsys):
    box = tmp_path / "signaling.json"  # a is uniform and b = x
    table = [[[["1/2", "0/1"], ["1/2", "0/1"]]] * 2, [[["0/1", "1/2"], ["0/1", "1/2"]]] * 2]
    box.write_text(json.dumps({"scenario": {"x": 2, "y": 2, "a": 2, "b": 2}, "mode": "rational", "p": table}))
    code, stdout, err = run(capsys, "success", "--family", "Nm", "--m", "2", "--box", str(box), "--scheme", "theorem2")
    assert code == EXIT_USAGE and stdout == ""
    assert "signaling box" in err


@pytest.mark.parametrize("argv, scenarios", [
    (["--family", "Mm", "--m", "3", "--box", "{rtilde2}", "--scheme", "theorem3"], ("3-3-2-2", "2-2-2-2")),
    (["--family", "Nm", "--m", "3", "--box-family", "pr", "--scheme", "theorem2"], ("2-2-3-3", "2-2-2-2")),
    (["--family", "Nm", "--m", "3", "--box-family", "rtilde", "--scheme", "theorem2"], ("2-2-3-3", "3-3-2-2")),
])
def test_success_rejects_box_that_does_not_fit_scheme(tmp_path, capsys, argv, scenarios):
    rtilde2 = tmp_path / "rtilde2.json"
    assert run(capsys, "behavior", "--family", "rtilde", "--m", "2", "--out", str(rtilde2))[0] == EXIT_OK
    argv = [arg.format(rtilde2=rtilde2) for arg in argv]
    code, stdout, err = run(capsys, "success", *argv)
    assert code == EXIT_USAGE and stdout == ""
    assert "--m 3" in err and all(f"scenario {s}" in err for s in scenarios)


def test_success_evaluates_the_scheme_once(monkeypatch, capsys):
    from zecomm import protocols

    calls = []
    original = protocols.per_message_success

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(protocols, "per_message_success", counted)
    code, stdout, _ = run(capsys, "success", "--family", "Mm", "--m", "3", "--box-family", "rtilde",
                          "--scheme", "theorem3", "--json")
    assert code == EXIT_OK
    assert json.loads(stdout) == {"success": "1/1", "zero_error": True, "mode": "exact"}
    assert len(calls) == 1


def test_main_reuses_one_parser_without_leaking_options(monkeypatch, capsys):
    from zecomm import cli

    built = []
    original = cli.build_parser

    def counted():
        built.append(1)
        return original()

    cli._parser.cache_clear()
    monkeypatch.setattr(cli, "build_parser", counted)
    try:
        success = ["success", "--family", "Mm", "--m", "3", "--box-family", "i3322", "--scheme", "theorem3"]
        assert run(capsys, *success, "--float")[:2] == (EXIT_OK, "success = 0.857142857143, zero_error = False\n")
        assert run(capsys, *success)[:2] == (EXIT_OK, "success = 6/7, zero_error = False\n")
        code, stdout, _ = run(capsys, "capacity", "--family", "Nm", "--m", "2", "--json")
        assert code == EXIT_OK and json.loads(stdout)["alpha"] == 1
        code, stdout, _ = run(capsys, "graph", "--family", "Nm", "--m", "2")
        assert code == EXIT_OK and stdout.startswith("p edge 4 6")
        assert run(capsys, "capacity")[0] == EXIT_USAGE
        assert run(capsys, "capacity", "--family", "Nm", "--m", "2")[1].startswith("alpha = 1,")

        handled = []
        monkeypatch.setattr(cli, "cmd_capacity", lambda args: handled.append(args) or EXIT_OK)
        assert run(capsys, "capacity", "--family", "Mm", "--m", "4") == (EXIT_OK, "", "")
        assert [(a.family, a.m, a.json) for a in handled] == [("Mm", 4, False)]
        assert len(built) == 1
    finally:
        cli._parser.cache_clear()


@pytest.mark.parametrize("trials", ["0", "-5"])
def test_success_refuses_fewer_than_one_mc_trial(capsys, trials):
    code, stdout, stderr = run(capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm",
                               "--scheme", "theorem2", "--mc", trials, "--seed", "1")
    assert code == EXIT_USAGE and stdout == ""
    assert f"--mc must be at least 1 trial, got {trials}" in stderr


@pytest.mark.parametrize("budget", ["0", "-3"])
def test_search_assisted_refuses_a_budget_below_one_branch(capsys, budget):
    code, stdout, stderr = run(capsys, "search-assisted", "--family", "Nm", "--m", "2", "--box-family", "pr",
                               "-K", "2", "--max-branches", budget)
    assert code == EXIT_USAGE and stdout == ""
    assert stderr == f"error: --max-branches must be at least 1 branch, got {budget}\n"


@pytest.mark.parametrize("command", ["search-assisted", "search-classical"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_searches_refuse_fewer_than_one_message(capsys, command, k):
    code, stdout, stderr = run(capsys, command, "--family", "Nm", "--m", "2", "-K", k)
    assert code == EXIT_USAGE and stdout == ""
    assert f"message count K = {k} must be at least 1" in stderr


# the smallest sizes beyond the table cap; without the cap, each builds a
# table of tens of MiB (pm: about 100 MiB) before anything refuses it
@pytest.mark.parametrize("argv", [
    ["capacity", "--family", "Nm", "--m", "80"],
    ["graph", "--family", "Mm", "--m", "27"],
    ["channel", "--family", "identity", "--m", "1001", "--out", "{out}"],
    ["behavior", "--family", "pm", "--m", "501", "--out", "{out}"],
], ids=lambda argv: f"{argv[0]}-{argv[2]}")
def test_oversize_m_is_refused_before_the_table_is_built(tmp_path, capsys, argv):
    argv = [a.format(out=tmp_path / "out.json") for a in argv]
    run(capsys, "capacity", "--family", "Nm", "--m", "2")  # build the parser before measuring
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == EXIT_USAGE
    assert "exceeds the limit of 1000000" in err
    assert peak < 2**20
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("command, family", [("channel", "Nm"), ("behavior", "pm")])
def test_unwritable_csv_is_io_error(tmp_path, capsys, command, family):
    csv_path = tmp_path / "absent" / "x.csv"
    code, stdout, stderr = run(capsys, command, "--family", family, "--m", "3",
                               "--out", str(tmp_path / "x.json"), "--csv", str(csv_path))
    assert code == EXIT_IO and stdout == ""
    assert f"cannot write {csv_path}" in stderr


def test_float_mode_channel_file_is_io_error(tmp_path, capsys):
    path = tmp_path / "float.json"
    space = {"factors": [2], "offsets": [0]}
    path.write_text(json.dumps({"inputs": space, "outputs": space, "mode": "float", "matrix": [[1.0, 0.0], [0.0, 1.0]]}))
    code, stdout, stderr = run(capsys, "capacity", "--channel", str(path))
    assert code == EXIT_IO and stdout == ""
    assert "bad channel file" in stderr and "'float'" in stderr


def _set(path, value):
    """A change to a valid table: ``path`` is a key path into its JSON, or
    None for the whole file."""
    def change(data):
        if path is None:
            return value
        target = data
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return data
    return change


def _text(old, new):
    """A change to the text of a valid table file: the first ``old`` replaced
    by ``new``."""
    return lambda data: json.dumps(data).replace(old, new, 1)


def _ones_as_true(data):
    """A change to the whole file: ``data`` with every entry "1/1", and every
    scenario cardinality 1, written as JSON true, which Python reads as 1.
    Unless bools are refused, the file loads as the table ``data`` holds."""
    data = json.loads(json.dumps(data).replace('"1/1"', "true"))
    for key, card in data.get("scenario", {}).items():
        if card == 1:
            data["scenario"][key] = True
    return _set(None, data)


@pytest.mark.parametrize("kind, change", [
    ("channel", _set(None, [1, 2])),
    ("channel", _set(("inputs", "factors"), None)),
    ("channel", _set(("matrix", 0, 0), None)),
    ("channel", _set(("matrix", 0, 0), "1/0")),
    ("channel", _set(("inputs", "offsets"), ["x", 0])),
    ("channel", _ones_as_true(channel_to_json(identity_channel(2)))),
    ("behavior", _set(None, [1, 2])),
    ("behavior", _set(("p", 0, 0, 0, 0), "1/0")),
    ("behavior", _ones_as_true(behavior_to_json(make_local_deterministic([0, 1], [1, 0], Scenario(2, 2, 2, 2))))),
    ("behavior", _ones_as_true(behavior_to_json(make_local_deterministic([0], [1], Scenario(1, 1, 2, 2))))),
    ("channel", _text('"1/3"', "Infinity")),
    ("behavior", _text('"1/2"', "1e400")),  # JSON reads it as an infinite float
], ids=["channel-list", "channel-null-factors", "channel-null-entry", "channel-zero-denominator",
        "channel-string-offset", "channel-true-entries", "behavior-list", "behavior-zero-denominator",
        "behavior-true-entries", "behavior-true-cardinalities", "channel-infinite-entry", "behavior-overflowing-entry"])
def test_malformed_table_file_is_io_error(tmp_path, capsys, kind, change):
    path = tmp_path / f"{kind}.json"
    if kind == "channel":
        data = change(channel_to_json(make_nm(2)))
        argv = ["capacity", "--channel", str(path)]
    else:
        data = change(behavior_to_json(make_extremal_box(2, 2)))
        argv = ["success", "--family", "Nm", "--m", "2", "--box", str(path), "--scheme", "theorem2"]
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    code, stdout, stderr = run(capsys, *argv)
    assert code == EXIT_IO and stdout == ""
    assert stderr.startswith(f"error: bad {kind} file: ") and stderr.count("\n") == 1


def test_unwritable_graph_out_is_io_error(tmp_path, capsys):
    out = tmp_path / "absent" / "g.txt"
    code, stdout, stderr = run(capsys, "graph", "--family", "Nm", "--m", "2", "--out", str(out))
    assert code == EXIT_IO and stdout == ""
    assert stderr.startswith(f"error: cannot write {out}: ")


#: the recorded output of ``search-assisted --family Nm --m 2 --box-family pr
#: -K 2 --json``; the protocol file format keeps ``guess_remap``, as an empty list
NM2_PR_PROTOCOL = {
    "found": True,
    "protocol": {
        "message_count": 2,
        "enc_box_input": [0, 1],
        "enc_channel_input": [[0, 0, 0], [0, 1, 1], [1, 0, 2], [1, 1, 3]],
        "dec_box_input": ["skip", "skip", 1, 1, 0, 0],
        "dec_guess": [[0, "skip", 0], [1, "skip", 1], [2, 0, 0], [2, 1, 1], [3, 0, 1], [3, 1, 0],
                      [4, 0, 0], [4, 1, 1], [5, 0, 1], [5, 1, 0]],
        "guess_remap": [],
    },
}


def test_search_assisted_json_matches_recorded_output(capsys):
    code, stdout, stderr = run(capsys, "search-assisted", "--family", "Nm", "--m", "2", "--box-family", "pr",
                               "-K", "2", "--json")
    assert (code, stderr) == (EXIT_OK, "")
    assert stdout == json.dumps(NM2_PR_PROTOCOL, indent=1) + "\n"


def test_success_calls_the_builders_bound_on_their_modules(monkeypatch, capsys):
    # the family and scheme tables look each builder up when called, so a
    # builder rebound on its module (as a tracer does) is the one used
    from zecomm import behaviors, channels, protocols

    called = []

    def recorded(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *args: called.append(name) or original(*args))

    recorded(channels, "make_nm")
    recorded(behaviors, "make_extremal_box")
    recorded(protocols, "make_theorem2_protocol")
    code, stdout, _ = run(capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm", "--scheme", "theorem2")
    assert (code, stdout) == (EXIT_OK, "success = 1/1, zero_error = True\n")
    assert sorted(called) == ["make_extremal_box", "make_nm", "make_theorem2_protocol"]


def test_box_families_declare_the_mode_they_build():
    from zecomm.cli import BOX_FAMILIES

    for name, (mode, build) in BOX_FAMILIES.items():
        assert build(3).mode == mode, name


def test_help_of_every_command_exits_ok(capsys):
    from zecomm import cli

    commands = [name[len("cmd_"):].replace("_", "-") for name in vars(cli) if name.startswith("cmd_")]
    assert len(commands) == 8
    for argv in [["--help"]] + [[command, "--help"] for command in commands]:
        code, stdout, _ = run(capsys, *argv)
        assert code == EXIT_OK and stdout.startswith("usage: zecomm"), argv
