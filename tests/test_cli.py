import json

import pytest

from zecomm.channels import load_channel, make_nm
from zecomm.cli import EXIT_CHECK_FAILED, EXIT_IO, EXIT_OK, EXIT_USAGE, main


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
