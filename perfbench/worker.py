"""One benchmark round in a fresh interpreter.

The round imports zecomm (the time from launch to that point is the round's
set-up time), prepares the job inputs, runs the workload's job list as a
closed loop with one client, then checks every output outside the timed
region and prints one JSON line.  run.py launches it; run by hand:

    PYTHONPATH=src python3 perfbench/worker.py --workload paper --seed 1 \
        --launched 0 --workdir perfbench/_run
"""

import sys
import time

import zecomm  # timed: set-up ends when zecomm and its CLI are imported
import zecomm.cli

IMPORTED = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def calibration_loop() -> int:
    """Fixed pure-Python work of about a millisecond: Fraction arithmetic,
    dict and big-int operations, the program's own kinds of work.  It is
    timed after the imports and between jobs; run.py scales the set-up and
    job times by it to read them at the reference speed."""
    total = Fraction(0)
    table = {}
    mask = 0
    for i in range(1, 301):
        total += Fraction(i % 5 + 1, i % 40 + 3)
        table[(i, i % 7)] = total.denominator % 1009
        mask |= 1 << (i * 7 % 251)
    return sum(table.values()) + mask.bit_count() + total.numerator % 97


def relabelled(graph, seed: int):
    """``graph`` with its vertices renamed by a seeded permutation, built
    through the public edge-list constructor."""
    from zecomm import graphs

    n = graph.vertex_count
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    edges = []
    for u, row in enumerate(graph.adjacency):
        row >>= u + 1  # bit i is vertex u + 1 + i: each edge once
        while row:
            low = row & -row
            edges.append((perm[u], perm[u + low.bit_length()]))
            row ^= low
    return graphs.graph_from_edges(n, edges)


def prepare(job: workloads.Job):
    """Untimed input for a library job: the factor graphs of an alpha job."""
    if job.kind != "alpha":
        return None
    from zecomm import channels, graphs

    factors, _ = job.args
    return [graphs.cycle_graph(n) if kind == "C" else graphs.confusability_graph(channels.make_nm(n))
            for kind, n in factors]


def run_job(job: workloads.Job, factors):
    """Run one job; return (exit code, stdout, stderr) for a CLI job, the
    value for a library job."""
    if job.kind == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = zecomm.cli.main(list(job.args))
        return code, out.getvalue(), err.getvalue()
    if job.kind == "tensor":
        from zecomm import behaviors, channels, protocols

        mm3, box = channels.make_mm(3), behaviors.make_rtilde_box(3)
        scheme = protocols.make_theorem3_protocol(3)
        product = protocols.tensor_protocols(scheme, scheme, mm3, mm3, box, box)
        return protocols.is_zero_error(channels.tensor_channels(mm3, mm3), behaviors.tensor_behaviors(box, box),
                                       product)
    from zecomm import graphs

    power = factors[0]
    for factor in factors[1:]:
        power = graphs.strong_product(power, factor)
    graph = relabelled(power, job.args[1])
    return graphs.independence_number(graph, limit=graph.vertex_count)


def check_all(jobs: list, outcomes: list) -> tuple[dict, int]:
    """Failed jobs (name -> reason) and the verify-paper checks that passed."""
    failures = {}
    verify_checks_passed = 0
    for job, outcome in zip(jobs, outcomes):
        if isinstance(outcome, str):
            failures[job.name] = "raised: " + outcome.strip().splitlines()[-1]
            continue
        try:
            problem = workloads.check_output(job, outcome)
            if job.check == "verify" and outcome[0] == 0:
                verify_checks_passed += sum(c["passed"] for c in json.loads(outcome[1])["checks"])
        except Exception as exc:  # unparsable output fails the job
            problem = f"output check raised {exc!r}"
        if problem:
            failures[job.name] = problem
    return failures, verify_checks_passed


def time_calibration() -> float:
    start = time.perf_counter()
    calibration_loop()
    return time.perf_counter() - start


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--launched", type=float, required=True, help="perf_counter() of the parent at launch")
    parser.add_argument("--probe", action="store_true", help="report set-up time only")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int)
    parser.add_argument("--workdir")
    parser.add_argument("--spans", help="trace the round and write its spans to this path")
    args = parser.parse_args()
    setup_s = IMPORTED - args.launched
    setup_calibration_s = statistics.median(time_calibration() for _ in range(3))
    src = os.path.abspath("src")
    if not os.path.abspath(zecomm.__file__).startswith(src + os.sep):
        print(f"zecomm was imported from {zecomm.__file__}, not from {src}", file=sys.stderr)
        return 2
    if args.probe:
        print(json.dumps({"setup_s": setup_s, "setup_calibration_s": setup_calibration_s}))
        return 0

    jobs = workloads.build_jobs(args.workload, args.seed, args.workdir)
    inputs = [prepare(job) for job in jobs]
    tracer = tracing.Tracer() if args.spans else None
    if tracer:
        tracer.install()
    outcomes, latencies, calibration = [], [], []
    loop_start = time.perf_counter()
    for job, factors in zip(jobs, inputs):
        calibration.append(time_calibration())
        start = time.perf_counter()
        span = tracer.job_span() if tracer else None
        try:
            outcome = run_job(job, factors)
        except Exception:  # a crashing job is a failed job, not a crashed round
            outcome = traceback.format_exc()
        if tracer:
            tracer.finish(span)
        latencies.append(time.perf_counter() - start)
        outcomes.append(outcome)
    wall_s = time.perf_counter() - loop_start - sum(calibration)
    calibration.append(time_calibration())
    if tracer:
        tracer.uninstall()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failures, verify_checks_passed = check_all(jobs, outcomes)
    if tracer:
        tracer.write(args.spans)
    print(json.dumps({
        "setup_s": setup_s,
        "setup_calibration_s": setup_calibration_s,
        "wall_s": wall_s,
        "jobs": [job.name for job in jobs],
        "latencies_s": latencies,
        "calibration_s": calibration,
        "failures": failures,
        "peak_rss_mib": peak_rss_mib,
        "verify_checks_passed": verify_checks_passed,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
