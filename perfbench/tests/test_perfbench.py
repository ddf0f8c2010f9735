"""Tests of the benchmark itself: seeded job lists, output checks, span
arithmetic and the computed search branch count.

    PYTHONPATH=src python3 -m pytest -q perfbench/tests
"""

import json
import os
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from zecomm import behaviors, channels, cli, protocols  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_jobs_other_seed_other_jobs(workload, tmp_path):
    first = workloads.build_jobs(workload, 7, str(tmp_path))
    again = workloads.build_jobs(workload, 7, str(tmp_path))
    other = workloads.build_jobs(workload, 8, str(tmp_path))
    assert first == again
    assert first != other
    assert len(first) > run.TAIL_BEYOND * 2, "a tail above the median needs more than twenty jobs"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_changes_parameters_not_the_cases(workload, tmp_path):
    def kinds(seed):
        return sorted(job.check for job in workloads.build_jobs(workload, seed, str(tmp_path)))

    assert kinds(1) == kinds(2)


def _run(job, tmp_path):
    return worker.run_job(job, worker.prepare(job))


def test_wrong_expected_value_fails_the_job(tmp_path):
    jobs = [job for job in workloads.build_jobs("search", 3, str(tmp_path)) if job.name == "classical-Nm3-K2"]
    outcomes = [_run(job, tmp_path) for job in jobs]
    assert worker.check_all(jobs, outcomes) == ({}, 0)

    wrong = workloads.Job("classical-Nm3-K2", "cli", jobs[0].args, "exact", {"success": "1/1", "zero_error": True})
    failures, _ = worker.check_all([wrong], outcomes)
    assert list(failures) == ["classical-Nm3-K2"]


def test_wrong_alpha_and_crashing_job_fail(tmp_path):
    job = workloads.Job("alpha-C5xC9", "alpha", ((("C", 5), ("C", 9)), 4), "alpha", {"alpha": 9})
    assert worker.check_all([job], [_run(job, tmp_path)]) == ({}, 0)
    wrong = workloads.Job("wrong", "alpha", job.args, "alpha", {"alpha": 10})
    crashed = workloads.Job("crashed", "alpha", job.args, "alpha", {"alpha": 9})
    failures, _ = worker.check_all([wrong, crashed], [9, "Traceback\nValueError: boom\n"])
    assert failures == {"wrong": "alpha 9, want 10", "crashed": "raised: ValueError: boom"}


def test_mc_estimate_outside_five_standard_errors_fails():
    job = workloads.Job("mc", "cli", (), "mc", {"case": "i3322", "trials": 500})
    ok = json.dumps({"success": 6 / 7, "trials": 500})
    far = json.dumps({"success": 6 / 7 - 0.1, "trials": 500})
    assert workloads.check_output(job, (0, ok, "")) is None
    assert workloads.check_output(job, (0, far, ""))
    zero_error = workloads.Job("mc", "cli", (), "mc", {"case": "pm", "trials": 500})
    assert workloads.check_output(zero_error, (0, json.dumps({"success": 0.998, "trials": 500}), ""))


def test_classical_oracle_matches_published_optima():
    from zecomm import reference

    assert workloads.classical_optimum("Nm", 2) == reference.NM3_UNASSISTED_OPTIMUM
    assert workloads.classical_optimum("Mm", 3) == reference.MM3_UNASSISTED_OPTIMUM


def test_self_time_on_hand_built_tree():
    # job [0, 10] > cli.main [1, 9] > channels.make_nm [2, 5] and graphs.strong_product [6, 8];
    # make_nm > channels.make_channel [3, 4]
    names = [tracing.JOB_SPAN, "cli.main", "channels.make_nm", "channels.make_channel", "graphs.strong_product"]
    spans = tracing.Spans(names, name=[0, 1, 2, 3, 4], parent=[-1, 0, 1, 2, 1],
                          start=[0.0, 1.0, 2.0, 3.0, 6.0], end=[10.0, 9.0, 5.0, 4.0, 8.0],
                          count=[-1, -1, 14, 14, -1])
    assert spans.self_times() == [2.0, 3.0, 2.0, 1.0, 2.0]
    metrics = tracing.layer_metrics(spans, wall_s=11.0, verify_checks_passed=0)
    assert metrics["cli.self_s"] == 3.0
    assert metrics["channels.self_s"] == 3.0
    assert metrics["graphs.self_s"] == 2.0
    assert metrics["bench.self_s"] == 3.0  # job span self time 2 plus 1 outside any span
    assert metrics["channels.build_calls"] == 1  # make_channel runs inside make_nm
    assert metrics["channels.build_s"] == 3.0
    assert metrics["channels.entries_built"] == 14

    spans.scale_jobs([0.5])  # one job: every span in it runs at half the time
    assert spans.self_times() == [1.0, 1.5, 1.0, 0.5, 1.0]
    assert tracing.layer_metrics(spans, wall_s=5.5, verify_checks_passed=0)["bench.self_s"] == 1.5


@pytest.mark.parametrize("k, found", [(2, True), (3, False)])
def test_computed_branch_rank_matches_brute_force_count(monkeypatch, k, found):
    calls = []
    complete = protocols._complete_decoder

    def counting(*args):
        calls.append(1)
        return complete(*args)

    monkeypatch.setattr(protocols, "_complete_decoder", counting)
    c, box = channels.make_nm(2), behaviors.make_extremal_box(2, 2)
    result = protocols.exhaustive_assisted_search(c, box, k)
    assert result[0] is found
    assert tracing.assisted_branches({"c": c, "box": box, "k": k}, result) == len(calls)


def test_tracer_records_nested_spans_and_restores_the_program(tmp_path):
    original = channels.make_nm
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert channels.make_nm is not original
        job = tracer.job_span()
        assert worker.run_job(workloads.Job("cap", "cli", ("capacity", "--family", "Nm", "--m", "3", "--json"),
                                            "capacity", {"alpha": 1}), None)[0] == 0
        tracer.finish(job)
    finally:
        tracer.uninstall()
    assert channels.make_nm is original and cli.main.__module__ == "zecomm.cli"
    assert not hasattr(cli.main, "__wrapped__")
    path = str(tmp_path / "spans")
    tracer.write(path)
    spans = tracing.Spans.read(path)
    names = [spans.qualname(i) for i in range(len(spans))]
    assert names[:2] == [tracing.JOB_SPAN, "cli.main"]
    assert "graphs.independence_number" in names and "channels.make_nm" in names
    make_nm = names.index("channels.make_nm")
    assert spans.qualname(spans.parent[spans.parent[make_nm]]).startswith("cli.")
    assert all(t >= 0 for t in spans.self_times())


def test_layer_metrics_cover_exactly_the_declared_per_layer_metrics():
    spans = tracing.Spans([], [], [], [], [], [])
    measured = set(tracing.layer_metrics(spans, 1.0, 0))
    measured |= {"trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s"}
    assert measured == {name for name, _, _, _ in tracing.PER_LAYER}


def test_benchmark_json_lists_the_metrics_the_benchmark_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in tracing.PER_LAYER]


def test_tail_is_the_highest_percentile_with_ten_jobs_beyond():
    value, percentile = run.tail([float(i) for i in range(1, 41)])
    assert value == 30.0 and percentile == 75.0
    with pytest.raises(run.BenchError):
        run.tail([1.0] * 10)
