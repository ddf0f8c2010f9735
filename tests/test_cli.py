import json

import pytest

from zecomm.behaviors import behavior_to_json, make_extremal_box
from zecomm.channels import channel_to_json, load_channel, make_nm
from zecomm.cli import EXIT_IO, EXIT_OK, EXIT_USAGE, main


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


def test_success_command_monte_carlo(capsys):
    code, stdout, _ = run(
        capsys, "success", "--family", "Nm", "--m", "3", "--box-family", "pm",
        "--scheme", "theorem2", "--mc", "200", "--seed", "5", "--json",
    )
    assert code == EXIT_OK
    payload = json.loads(stdout)
    assert payload["success"] == 1.0 and payload["seed"] == 5


def test_search_classical_command(capsys):
    code, stdout, _ = run(capsys, "search-classical", "--family", "Nm", "--m", "3", "-K", "2")
    assert code == EXIT_OK
    assert "7/8" in stdout


@pytest.mark.slow
def test_search_assisted_command(capsys):
    code, stdout, _ = run(
        capsys, "search-assisted", "--family", "Nm", "--m", "2", "--box-family", "pr", "-K", "2"
    )
    assert code == EXIT_OK
    assert "zero-error protocol found" in stdout


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
    assert len(payload["checks"]) >= 12


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


@pytest.mark.parametrize("command", ["search-assisted", "search-classical"])
@pytest.mark.parametrize("k", ["0", "-1"])
def test_searches_refuse_fewer_than_one_message(capsys, command, k):
    code, stdout, stderr = run(capsys, command, "--family", "Nm", "--m", "2", "-K", k)
    assert code == EXIT_USAGE and stdout == ""
    assert f"message count K = {k} must be at least 1" in stderr


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


@pytest.mark.parametrize("kind, change", [
    ("channel", _set(None, [1, 2])),
    ("channel", _set(("inputs", "factors"), None)),
    ("channel", _set(("matrix", 0, 0), None)),
    ("channel", _set(("matrix", 0, 0), "1/0")),
    ("channel", _set(("inputs", "offsets"), ["x", 0])),
    ("behavior", _set(None, [1, 2])),
    ("behavior", _set(("p", 0, 0, 0, 0), "1/0")),
], ids=["channel-list", "channel-null-factors", "channel-null-entry", "channel-zero-denominator",
        "channel-string-offset", "behavior-list", "behavior-zero-denominator"])
def test_malformed_table_file_is_io_error(tmp_path, capsys, kind, change):
    path = tmp_path / f"{kind}.json"
    if kind == "channel":
        path.write_text(json.dumps(change(channel_to_json(make_nm(2)))))
        argv = ["capacity", "--channel", str(path)]
    else:
        path.write_text(json.dumps(change(behavior_to_json(make_extremal_box(2, 2)))))
        argv = ["success", "--family", "Nm", "--m", "2", "--box", str(path), "--scheme", "theorem2"]
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
