"""zecomm benchmark: run one seeded workload for a fixed time and print its
metrics.

    python3 perfbench/run.py --workload paper --seed 1 --seconds 30 --trace 0

Run from the repository root; the program is imported from ./src.  The run
is a sequence of rounds.  Each round is a fresh interpreter (a CLI user pays
the import on every call, and no state carries between rounds) that runs the
workload's whole job list once as a closed loop with one client and checks
every output.  Rounds repeat until --seconds are spent.

The speed of a small shared machine swings by up to 1.8x over seconds to
minutes as other tenants load it: the fastest time of one fixed 10 ms job,
taken over 5 s windows, ranged from 10.5 to 18.8 ms within two minutes.  So
the worker times a fixed calibration loop (worker.calibration_loop, about a
millisecond of Fraction, dict and big-int work) between consecutive jobs,
and each job time is scaled by REFERENCE_CALIBRATION_S / (the mean of the
loops just before and after the job), so it reads as the time at the
reference speed; the unscaled figures are printed too.  A job's latency is
the median of its scaled times over the rounds; wall_s is the sum of the job
latencies, job_p50_ms and job_tail_ms are taken over jobs.  setup_s is the
median over one set-up probe before each round and the rounds' own set-ups,
each scaled by the median of three calibration loops timed right after the
imports: unscaled, it rose from 0.16 s to 0.26 s as the load rose.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
#: scratch space for job files and span files, removed at exit
RUN_DIR = os.path.join(HERE, "_run")
#: a single round may not take longer than this, so that a run ends within
#: 180 s even when its last round hangs
ROUND_TIMEOUT_S = 120
#: jobs beyond the reported tail percentile
TAIL_BEYOND = 10
#: time of worker.calibration_loop on the reference machine, unloaded: a
#: 2-vCPU VM with Python 3.11.7, where the figures in README.md were taken
REFERENCE_CALIBRATION_S = 0.0008

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "job_p50_ms": "ms", "job_tail_ms": "ms", "peak_rss_mib": "MiB"}
PER_LAYER_UNITS = {name: unit for name, unit, _, _ in tracing.PER_LAYER}


class BenchError(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def launch(extra: list[str]) -> dict:
    """Run the worker in a fresh interpreter and return its JSON report."""
    # a fixed hash seed keeps set and dict order, and so the work, the same in every round
    env = dict(os.environ, PYTHONPATH=os.path.abspath("src"), PYTHONHASHSEED="0")
    argv = [sys.executable, os.path.join(HERE, "worker.py")] + extra
    launched = time.perf_counter()
    proc = subprocess.run(argv + ["--launched", repr(launched)], env=env, capture_output=True, text=True,
                          timeout=ROUND_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile of ``values`` with TAIL_BEYOND values above it,
    as (value, percentile)."""
    n = len(values)
    if n <= TAIL_BEYOND:
        raise BenchError(f"{n} jobs per round; a tail needs more than {TAIL_BEYOND}")
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_rounds(workload: str, seed: int, seconds: float, trace: bool) -> tuple[list[dict], list[dict]]:
    """Rounds until ``seconds`` are spent, and the set-up reports; with
    ``trace`` every second round is traced.  A new round starts only if it
    should end before the deadline by half a round's length."""
    rounds, setups = [], []
    launch(["--probe"])  # untimed: warms the file cache, and the bytecode cache where one is written
    start = time.perf_counter()
    while True:
        setups.append(launch(["--probe"]))
        traced = trace and len(rounds) % 2 == 1
        extra = ["--workload", workload, "--seed", str(seed), "--workdir", RUN_DIR]
        spans_path = os.path.join(RUN_DIR, f"spans-{len(rounds)}") if traced else None
        if spans_path:
            extra += ["--spans", spans_path]
        began = time.perf_counter()
        report = launch(extra)
        report["round_s"] = time.perf_counter() - began
        report["spans_path"] = spans_path
        rounds.append(report)
        setups.append(report)
        typical = statistics.median(r["round_s"] for r in rounds)
        enough = len(rounds) >= (2 if trace else 1)
        if enough and time.perf_counter() - start + typical / 2 > seconds:
            return rounds, setups


def job_metrics(per_job: list[float]) -> tuple[dict, float]:
    """wall_s, job_p50_ms and job_tail_ms from per-job latencies in seconds,
    and the tail's percentile."""
    tail_s, percentile = tail(per_job)
    return {"wall_s": sum(per_job), "job_p50_ms": 1000 * statistics.median(per_job),
            "job_tail_ms": 1000 * tail_s}, percentile


def job_scales(report: dict) -> list[float]:
    """Per job of a round, REFERENCE_CALIBRATION_S over the mean of the
    calibration loops just before and after the job."""
    cal = report["calibration_s"]
    return [2 * REFERENCE_CALIBRATION_S / (cal[j] + cal[j + 1]) for j in range(len(report["latencies_s"]))]


def scaled_latencies(report: dict) -> list[float]:
    """A round's job latencies at the reference speed."""
    return [t * scale for t, scale in zip(report["latencies_s"], job_scales(report))]


def per_job_latencies(rounds: list[dict]) -> list[float]:
    """Each job's median scaled latency over ``rounds``."""
    scaled = [scaled_latencies(r) for r in rounds]
    return [statistics.median(s[j] for s in scaled) for j in range(len(scaled[0]))]


def end_to_end(rounds: list[dict], setups: list[dict]) -> tuple[dict, list[str]]:
    per_job = per_job_latencies(rounds)
    unscaled = [statistics.median(r["latencies_s"][j] for r in rounds) for j in range(len(per_job))]
    timing, percentile = job_metrics(per_job)
    raw_timing, _ = job_metrics(unscaled)
    setup_s = statistics.median(s["setup_s"] * REFERENCE_CALIBRATION_S / s["setup_calibration_s"] for s in setups)
    metrics = {"setup_s": setup_s, **timing,
               "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in rounds)}
    speed = statistics.median(c for r in rounds for c in r["calibration_s"]) / REFERENCE_CALIBRATION_S
    notes = [
        f"rounds {len(rounds)}, jobs per round {len(per_job)}, set-up samples {len(setups)}",
        f"job latency: median over rounds per job; job_tail_ms is p{percentile:.1f} of {len(per_job)} jobs",
        f"calibration loop took {speed:.3f} x its reference {REFERENCE_CALIBRATION_S * 1e3:.3f} ms (median)",
        "unscaled: " + ", ".join(f"{name} {value:.6f}" for name, value in raw_timing.items())
        + f", setup_s {statistics.median(s['setup_s'] for s in setups):.6f}",
    ]
    return metrics, notes


def per_layer(rounds: list[dict]) -> tuple[dict, list[str]]:
    untraced = [r for r in rounds if not r["spans_path"]]
    traced = [r for r in rounds if r["spans_path"]]
    samples = []
    for r in traced:
        spans = tracing.Spans.read(r["spans_path"])
        spans.scale_jobs(job_scales(r))
        samples.append(tracing.layer_metrics(spans, sum(scaled_latencies(r)), r["verify_checks_passed"]))
    metrics = {name: statistics.median(s[name] for s in samples) for name in samples[0]}
    metrics["trace.wall_s"] = statistics.median(sum(scaled_latencies(r)) for r in traced)
    metrics["trace.untraced_wall_s"] = statistics.median(sum(scaled_latencies(r)) for r in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    layer_sum = sum(metrics[f"{layer}.self_s"] for layer in tracing.LAYERS)
    notes = [
        f"traced rounds {len(traced)}, untraced rounds {len(untraced)}; medians over traced rounds of times"
        " scaled job by job like the end-to-end metrics",
        f"layer self times {layer_sum:.4f} s + bench.self_s {metrics['bench.self_s']:.4f} s;"
        f" traced wall_s {metrics['trace.wall_s']:.4f} s (in each round the parts sum to its wall_s)",
        f"tracing adds {metrics['trace.overhead_s']:.4f} s to the untraced {metrics['trace.untraced_wall_s']:.4f} s"
        f" ({100 * metrics['trace.overhead_s'] / metrics['trace.untraced_wall_s']:.1f} %)",
        "computed by the benchmark, not counted by the program: " + ", ".join(sorted(tracing.COMPUTED)),
    ]
    return metrics, notes



def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join("src", "zecomm", "cli.py")):
        print("error: run from the repository root; src/zecomm is missing here", file=sys.stderr)
        return 2
    os.makedirs(RUN_DIR, exist_ok=True)
    try:
        rounds, setups = run_rounds(args.workload, args.seed, args.seconds, bool(args.trace))
        if args.trace:
            metrics, notes = per_layer(rounds)
            units = PER_LAYER_UNITS
        else:
            metrics, notes = end_to_end(rounds, setups)
            units = END_TO_END_UNITS
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(RUN_DIR, ignore_errors=True)

    attempted = sum(len(r["jobs"]) for r in rounds)
    failures = {name: why for r in rounds for name, why in r["failures"].items()}
    failed = sum(len(r["failures"]) for r in rounds)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for note in notes:
        print(note)
    print(f"error_rate {failed / attempted:.6f} fraction ({failed} of {attempted} jobs failed)")
    for name, why in sorted(failures.items()):
        print(f"FAILED {name}: {why}")
    for name, value in metrics.items():
        print(f"{name:40s} {value:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
