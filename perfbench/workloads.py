"""Seeded job lists for the four benchmark workloads, and the check of every
job's output.

A job is one real CLI invocation (``zecomm.cli.main(argv)``) or, where the
CLI cannot reach the input, a short sequence of public library calls.  The
seed fixes job order and the seeded parameters (Monte-Carlo seeds, vertex
relabellings, temp-file names, output formats); the set of cases, and so the
work a round does, is the same for every seed, so that run-to-run spread
measures the machine and the program rather than the draw.

Building a job list needs no zecomm import; checking outputs does, and runs
outside the timed region.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

WORKLOADS = ("paper", "sampling", "search", "shannon")

#: Monte-Carlo trials per `success --mc` job
MC_TRIALS = 500
#: MC seeds per sampling case; 4 cases x 12 seeds = 48 jobs per round
MC_SEEDS_PER_CASE = 12
#: an MC estimate passes when it lies within this many standard errors
MC_SIGMAS = 5


@dataclass
class Job:
    """One unit of work in a round.

    ``kind`` is "cli" (``args`` is the argv), "tensor" (the library tensor
    check, no parameters) or "alpha" (``args`` is (factor specs, relabelling
    seed)).  ``check`` names the output check and ``expect`` holds what it
    compares against.
    """

    name: str
    kind: str
    args: tuple
    check: str
    expect: dict = field(default_factory=dict)


def build_jobs(workload: str, seed: int, workdir: str) -> list[Job]:
    """The ordered job list of one round of ``workload`` for ``seed``.

    Jobs that must run in sequence (an export followed by its reload) form a
    group; groups are shuffled, jobs inside a group keep their order.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    rng = random.Random(f"{workload}:{seed}")
    groups = _BUILDERS[workload](rng, workdir)
    rng.shuffle(groups)
    jobs = [job for group in groups for job in group]
    names = [job.name for job in jobs]
    if len(set(names)) != len(names):
        raise AssertionError("job names must be unique within a round")
    return jobs


def _cli(name, argv, check, **expect) -> Job:
    return Job(name, "cli", tuple(argv), check, expect)


def _balanced_flags(rng: random.Random, count: int) -> list[bool]:
    """``count`` booleans, half of them true, in seeded order."""
    flags = [i < count // 2 for i in range(count)]
    rng.shuffle(flags)
    return flags


# --- paper --------------------------------------------------------------------

#: one-shot alpha of the family graphs: Mm(m) is complete (the paper's claim);
#: Nm(m) is complete for m <= 3 and has alpha 2 for m >= 4 under the rule as
#: printed (the defect verify-paper pins as nm-large-alpha)
def family_alpha(family: str, m: int) -> int:
    if family == "Nm" and m >= 4:
        return 2
    return 1


def _paper(rng: random.Random, workdir: str) -> list[list[Job]]:
    groups = [[_cli("verify-paper", ["verify-paper", "--json"], "verify", checks=14)]]
    for m in range(2, 9):
        groups.append([_cli(f"success-t2-Nm{m}", ["success", "--family", "Nm", "--m", str(m), "--box-family", "pm",
                                                  "--scheme", "theorem2", "--json"],
                            "exact", success="1/1", zero_error=True)])
        groups.append([_cli(f"success-t3-Mm{m}", ["success", "--family", "Mm", "--m", str(m), "--box-family", "rtilde",
                                                  "--scheme", "theorem3", "--json"],
                            "exact", success="1/1", zero_error=True)])
    groups.append([_cli("success-i3322-Mm3", ["success", "--family", "Mm", "--m", "3", "--box-family", "i3322",
                                              "--scheme", "theorem3", "--json"],
                        "exact", success="6/7", zero_error=False)])
    groups.append([_cli("success-cglmp-Nm3", ["success", "--family", "Nm", "--m", "3", "--box-family", "cglmp",
                                              "--scheme", "theorem2", "--float", "--json"], "cglmp")])
    cases = [(family, m) for family in ("Nm", "Mm") for m in range(2, 13)]
    for (family, m), as_json in zip(cases, _balanced_flags(rng, len(cases))):
        alpha = family_alpha(family, m)
        groups.append([_cli(f"capacity-{family}{m}", ["capacity", "--family", family, "--m", str(m), "--json"],
                            "capacity", alpha=alpha)])
        fmt = "json" if as_json else "dimacs"
        out = os.path.join(workdir, f"{rng.getrandbits(32):08x}-graph-{family}{m}.{fmt}")
        groups.append([_cli(f"graph-{family}{m}", ["graph", "--family", family, "--m", str(m), "--format", fmt,
                                                   "--out", out],
                            "graph", vertices=2 * m, complete=alpha == 1, format=fmt, path=out)])
    chains = [(family, box, scheme, m) for family, box, scheme in (("Nm", "pm", "theorem2"), ("Mm", "rtilde", "theorem3"))
              for m in (3, 4, 5)]
    for (family, box, scheme, m), with_csv in zip(chains, _balanced_flags(rng, len(chains))):
        token = f"{rng.getrandbits(32):08x}"
        chan = os.path.join(workdir, f"{token}-channel-{family}{m}.json")
        beh = os.path.join(workdir, f"{token}-box-{box}{m}.json")
        chan_argv = ["channel", "--family", family, "--m", str(m), "--out", chan, "--json"]
        if with_csv:
            chan_argv += ["--csv", chan[:-len(".json")] + ".csv"]
        groups.append([
            _cli(f"export-channel-{family}{m}", chan_argv, "export", path=chan),
            _cli(f"export-box-{box}{m}", ["behavior", "--family", box, "--m", str(m), "--out", beh, "--json"],
                 "export", path=beh),
            _cli(f"reload-success-{family}{m}", ["success", "--channel", chan, "--box", beh, "--m", str(m),
                                                 "--scheme", scheme, "--json"],
                 "exact", success="1/1", zero_error=True),
        ])
    groups.append([Job("tensor-Mm3xMm3", "tensor", (), "tensor")])
    return groups


# --- sampling -----------------------------------------------------------------

#: (family, m, box family, scheme); the exact value each case's MC estimate
#: is checked against comes from `exact_mc_value`
SAMPLING_CASES = (
    ("Mm", 3, "i3322", "theorem3"),
    ("Nm", 3, "pm", "theorem2"),
    ("Mm", 5, "rtilde", "theorem3"),
    ("Nm", 3, "cglmp", "theorem2"),
)


def _sampling(rng: random.Random, workdir: str) -> list[list[Job]]:
    groups = []
    for family, m, box, scheme in SAMPLING_CASES:
        for _ in range(MC_SEEDS_PER_CASE):
            mc_seed = rng.getrandbits(31)
            groups.append([_cli(f"mc-{box}-{family}{m}-seed{mc_seed}",
                                ["success", "--family", family, "--m", str(m), "--box-family", box,
                                 "--scheme", scheme, "--mc", str(MC_TRIALS), "--seed", str(mc_seed), "--json"],
                                "mc", case=box, trials=MC_TRIALS)])
    return groups


# --- search -------------------------------------------------------------------

#: (family, m, K) for search-classical; expected optima come from
#: `classical_optimum` over the transcribed tables in zecomm.reference
CLASSICAL_CASES = (("Nm", 3, 2), ("Nm", 3, 3), ("Nm", 3, 4), ("Mm", 3, 2), ("Mm", 3, 3), ("Mm", 3, 4))

#: (family, m, box family, K, found) for uncapped search-assisted.  Found
#: cases are the paper's schemes or smaller ones (K = 2 messages fit in every
#: scheme used here); Nm3/pm K=2 is found late in the canonical order (about
#: 1 s).  The i3322-table case is refuted over the whole space; Nm2/pr K=3 is
#: refuted too, as the fractional packing bound alpha*(Nm) = 2 certifies.
#: rtilde(2) and pm(2) equal pr, so those are not listed twice.
#:
#: Left out for steadiness: Mm3/rtilde K=3 (found after about 7 s) and the
#: Mm(5) cases (about 0.4 s each).  A run repeats the job list only as often
#: as the list fits in its seconds, and each job's latency is its fastest
#: repeat, so a long list leaves too few repeats for a steady figure on a
#: machine whose speed swings by a third.
ASSISTED_CASES = (
    ("Nm", 2, "pr", 2, True),
    ("Mm", 2, "rtilde", 2, True),
    ("Mm", 3, "rtilde", 2, True),
    ("Mm", 3, "pr", 2, True),
    ("Nm", 3, "pr", 2, True),
    ("Nm", 3, "rtilde", 2, True),
    ("Nm", 4, "pr", 2, True),
    ("Nm", 4, "rtilde", 2, True),
    ("Nm", 5, "pr", 2, True),
    ("Nm", 5, "rtilde", 2, True),
    ("Nm", 6, "pr", 2, True),
    ("Nm", 6, "rtilde", 2, True),
    ("Nm", 7, "pr", 2, True),
    ("Nm", 7, "rtilde", 2, True),
    ("Mm", 4, "rtilde", 2, True),
    ("Mm", 4, "pr", 2, True),
    ("Nm", 3, "pm", 2, True),
    ("Mm", 3, "i3322", 2, False),
    ("Nm", 2, "pr", 3, False),
)


def _search(rng: random.Random, workdir: str) -> list[list[Job]]:
    groups = []
    for family, m, k in CLASSICAL_CASES:
        groups.append([_cli(f"classical-{family}{m}-K{k}",
                            ["search-classical", "--family", family, "--m", str(m), "-K", str(k), "--json"],
                            "classical", family=family, m=m, k=k)])
    for family, m, box, k, found in ASSISTED_CASES:
        groups.append([_cli(f"assisted-{box}-{family}{m}-K{k}",
                            ["search-assisted", "--family", family, "--m", str(m), "--box-family", box,
                             "-K", str(k), "--json"],
                            "assisted", family=family, m=m, box=box, k=k, found=found)])
    return groups


# --- shannon ------------------------------------------------------------------

#: (factor list, instances per round, alpha).  A factor is ("C", n), the
#: n-cycle, or ("Nm", m), the confusability graph of Nm(m).
#: alpha(C_{2k+1} x C_{2l+1}) = floor((2l+1) k / 2) for k <= l (Hales 1973);
#: for G = Nm(m >= 4), alpha(G) = 2 and the fractional packing bound
#: alpha*(Nm) = 2 is multiplicative, so alpha(G^k) = 2^k.
#:
#: The time alpha takes depends on the relabelling (a third, one standard
#: deviation, on these graphs), and the relabelling depends on the seed.  So
#: that the figures still repeat from seed to seed, the median job falls in
#: the middle of eighty C7 x C7 instances, and job_tail_ms (ten jobs beyond
#: it) inside the Nm(4)^3 group, whose time is mostly building the 512-vertex
#: product and so varies little with the relabelling.  C5^3 and
#: larger Nm powers are left out: under some relabellings their alpha takes
#: from seconds to minutes, so one instance would set the spread.
SHANNON_CASES = (
    ((("C", 5), ("C", 9)), 20, 9),
    ((("Nm", 4), ("Nm", 4)), 4, 4),
    ((("Nm", 5), ("Nm", 5)), 4, 4),
    ((("C", 7), ("C", 7)), 80, 10),
    ((("C", 5), ("C", 11)), 10, 11),
    ((("Nm", 6), ("Nm", 6)), 4, 4),
    ((("C", 7), ("C", 9)), 8, 13),
    ((("C", 9), ("C", 9)), 2, 18),
    ((("Nm", 4), ("Nm", 4), ("Nm", 4)), 14, 8),
)


def _shannon(rng: random.Random, workdir: str) -> list[list[Job]]:
    groups = []
    for factors, instances, alpha in SHANNON_CASES:
        label = "x".join(f"{kind}{n}" for kind, n in factors)
        for _ in range(instances):
            relabel_seed = rng.getrandbits(31)
            groups.append([Job(f"alpha-{label}-perm{relabel_seed}", "alpha", (factors, relabel_seed), "alpha",
                               {"alpha": alpha})])
    return groups


_BUILDERS = {"paper": _paper, "sampling": _sampling, "search": _search, "shannon": _shannon}


# --- reference values ---------------------------------------------------------

def classical_optimum(family: str, k: int) -> Fraction:
    """Best unassisted k-message success over the transcribed m=3 tables.

    Every nonzero entry of these channels equals one weight w, so with MAP
    decoding and a uniform prior the success of an encoder is
    w * |union of the supports of its codewords| / k.
    """
    from zecomm import reference

    table, weight = {"Nm": (reference.NM3_SUPPORT, reference.NM3_WEIGHT),
                     "Mm": (reference.MM3_SUPPORT, reference.MM3_WEIGHT)}[family]
    supports: dict[tuple, set] = {}
    for out, inputs in table.items():
        for inp in inputs:
            supports.setdefault(tuple(inp), set()).add(out)
    best = max(len(set().union(*(supports[i] for i in combo)))
               for combo in itertools.combinations(sorted(supports), k))
    return weight * best / k


def exact_mc_value(case: str) -> float:
    """Exact success of a sampling case: 6/7 for the i3322 table, 1 for the
    paper's zero-error schemes, the closed form for cglmp."""
    from zecomm import quantum, reference

    if case == "i3322":
        return float(reference.MM3_SINGLET_SUCCESS)
    if case == "cglmp":
        return quantum.cglmp_assisted_success_closed_form()
    return 1.0


# --- output checks ------------------------------------------------------------

def check_output(job: Job, outcome) -> str | None:
    """None when ``outcome`` is the correct result of ``job``, else why not.

    ``outcome`` is (exit code, stdout, stderr) for a CLI job and the returned
    value for a library job.
    """
    if job.kind == "cli":
        code, out, err = outcome
        if code != 0:
            return f"exit code {code}: {err.strip()[-200:]}"
    return _CHECKS[job.check](job, outcome)


def _json_out(outcome) -> dict:
    return json.loads(outcome[1])


def _check_verify(job, outcome):
    report = _json_out(outcome)
    passed = sum(c["passed"] for c in report["checks"])
    if not report["all_passed"] or passed != job.expect["checks"] or len(report["checks"]) != job.expect["checks"]:
        return f"verify-paper passed {passed}/{len(report['checks'])}, all_passed={report['all_passed']}"
    return None


def _check_exact(job, outcome):
    data = _json_out(outcome)
    if data["mode"] != "exact" or data["success"] != job.expect["success"] or data["zero_error"] != job.expect["zero_error"]:
        return f"got {data}, want success {job.expect['success']} zero_error {job.expect['zero_error']}"
    return None


def _check_cglmp(job, outcome):
    from zecomm import reference

    closed = exact_mc_value("cglmp")
    value = float(_json_out(outcome)["success"])
    if abs(value - closed) > 1e-11 or abs(closed - reference.NM3_CGLMP_SUCCESS_APPROX) > 5e-5:
        return f"cglmp success {value}, closed form {closed}"
    return None


def _check_capacity(job, outcome):
    data = _json_out(outcome)
    alpha = job.expect["alpha"]
    if (data["alpha"] != alpha or data["complete_graph"] != (alpha == 1)
            or data["capacity_bits"] != math.log2(alpha) or data["exact_bits"] != alpha.bit_length() - 1):
        return f"capacity {data}, want alpha {alpha}"
    return None


def _check_graph(job, outcome):
    n = job.expect["vertices"]
    with open(job.expect["path"]) as fh:
        text = fh.read()
    if job.expect["format"] == "json":
        data = json.loads(text)
        adjacency = data["adjacency"]
        if data["vertex_count"] != n or len(adjacency) != n:
            return f"graph has {data['vertex_count']} vertices, want {n}"
        edges = {(u, v) for u, nbrs in enumerate(adjacency) for v in nbrs}
        if any((v, u) not in edges or u == v for u, v in edges):
            return "adjacency is not symmetric and loop-free"
        edge_count = len(edges) // 2
    else:
        lines = text.split("\n")
        header = lines[0].split()
        edge_lines = [line.split() for line in lines[1:] if line]
        if header[:2] != ["p", "edge"] or int(header[2]) != n or int(header[3]) != len(edge_lines):
            return f"bad DIMACS header {lines[0]!r} for {n} vertices"
        if any(not 1 <= int(u) < int(v) <= n for _, u, v in edge_lines):
            return "DIMACS edge out of range"
        edge_count = len(edge_lines)
    if (edge_count == n * (n - 1) // 2) != job.expect["complete"]:
        return f"{edge_count} edges on {n} vertices, want complete={job.expect['complete']}"
    return None


def _check_export(job, outcome):
    _json_out(outcome)
    if not os.path.getsize(job.expect["path"]):
        return f"{job.expect['path']} is empty"
    return None


def _check_tensor(job, outcome):
    return None if outcome is True else f"product scheme zero_error={outcome}"


def _check_mc(job, outcome):
    data = _json_out(outcome)
    exact = exact_mc_value(job.expect["case"])
    estimate, trials = data["success"], job.expect["trials"]
    if data["trials"] != trials:
        return f"ran {data['trials']} trials, asked for {trials}"
    if exact == 1.0:
        return None if estimate == 1.0 else f"zero-error scheme estimated {estimate}, want exactly 1.0"
    sigma = math.sqrt(exact * (1 - exact) / trials)
    if abs(estimate - exact) > MC_SIGMAS * sigma:
        return f"estimate {estimate} is more than {MC_SIGMAS} standard errors from {exact:.6f}"
    return None


def _check_classical(job, outcome):
    data = _json_out(outcome)
    want = classical_optimum(job.expect["family"], job.expect["k"])
    if Fraction(data["success"]) != want or len(data["encoder"]) != job.expect["k"]:
        return f"classical optimum {data['success']}, want {want}"
    return None


def _check_assisted(job, outcome):
    from zecomm import behaviors, channels, protocols

    data = _json_out(outcome)
    if data["found"] != job.expect["found"]:
        return f"found={data['found']}, want {job.expect['found']}"
    if not data["found"]:
        return None
    e = job.expect
    protocol = protocols.protocol_from_json(data["protocol"])
    channel = {"Nm": channels.make_nm, "Mm": channels.make_mm}[e["family"]](e["m"])
    box = {"pm": lambda m: behaviors.make_extremal_box(m, m),
           "pr": lambda m: behaviors.make_extremal_box(2, 2),
           "rtilde": behaviors.make_rtilde_box}[e["box"]](e["m"])
    if protocol.message_count != e["k"] or not protocols.is_zero_error(channel, box, protocol):
        return "returned protocol is not a zero-error code for the requested message count"
    return None


def _check_alpha(job, outcome):
    return None if outcome == job.expect["alpha"] else f"alpha {outcome}, want {job.expect['alpha']}"


_CHECKS = {
    "verify": _check_verify,
    "exact": _check_exact,
    "cglmp": _check_cglmp,
    "capacity": _check_capacity,
    "graph": _check_graph,
    "export": _check_export,
    "tensor": _check_tensor,
    "mc": _check_mc,
    "classical": _check_classical,
    "assisted": _check_assisted,
    "alpha": _check_alpha,
}
