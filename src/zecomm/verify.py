"""End-to-end verification of every published quantitative claim the package
reproduces, run by ``zecomm verify-paper``.

Each check records an expected value with a short provenance note, the
computed value, the numeric mode, a pass flag and the elapsed time.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from fractions import Fraction

from . import reference
from .behaviors import is_no_signaling, make_extremal_box, make_rtilde_box, tensor_behaviors
from .channels import Channel, make_mm, make_nm, tensor_channels
from .graphs import confusability_graph, independence_number
from .numeric import FLOAT, RATIONAL, format_value
from .protocols import (
    exact_success,
    is_zero_error,
    make_theorem2_protocol,
    make_theorem3_protocol,
    per_message_success,
    best_unassisted_success,
    tensor_protocols,
)
from .quantum import (
    behavior_from_quantum,
    cglmp_assisted_success_closed_form,
    make_cglmp_behavior,
    make_i3322_model,
    make_i3322_rational_table,
)


@dataclass
class Check:
    name: str
    provenance: str
    expected: str
    computed: str
    mode: str
    passed: bool
    elapsed: float


def _run(name: str, provenance: str, mode: str, check) -> Check:
    start = time.perf_counter()
    try:
        expected, computed, passed = check()
    except Exception as exc:  # a crash is a failed check, not a crashed report
        expected, computed, passed = "-", f"error: {exc}", False
    return Check(name, provenance, str(expected), str(computed), mode, passed, time.perf_counter() - start)


# Each check returns (expected, computed, passed); it looks its builders up here when it runs.

def _check_matrix(c: Channel, support: dict, weight: Fraction):
    """Compare every entry of ``c`` with a published matrix given as output
    label -> inputs of weight ``weight`` (all other entries 0)."""
    mismatches = 0
    for out, out_label in enumerate(c.output_space.labels()):
        ref_inputs = set(map(tuple, support.get(out_label, [])))
        for i, in_label in enumerate(c.input_space.labels()):
            expect = weight if in_label in ref_inputs else Fraction(0)
            if c.prob(out, i) != expect:
                mismatches += 1
    entries = c.n_inputs * c.n_outputs
    return f"0 mismatches in {entries} entries", f"{mismatches} mismatches", mismatches == 0


def _check_capacity_zero():
    alphas = []
    for family, make_channel, ms in (("Nm", make_nm, (2, 3)), ("Mm", make_mm, range(2, 6))):
        for m in ms:
            g = confusability_graph(make_channel(m))
            alphas.append((f"{family} m={m}", independence_number(g), g.is_complete()))
    ok = all(a == 1 and complete for _, a, complete in alphas)
    return "alpha=1, complete graph", f"{alphas}", ok


def _check_nm_large():
    # The published general-m rule for the two-layer channel claims a
    # complete confusability graph, but for m >= 4 the cross matchings
    # induced by the shifted permutations double-cover some input pairs
    # and miss others: e.g. inputs (0,1) and (1,2) of the m=4 channel
    # share no output.  alpha = 2 under the rule as printed.
    alphas = [independence_number(confusability_graph(make_nm(m))) for m in (4, 5, 6)]
    return "alpha=2 for m in {4,5,6} (known defect in the published rule)", f"{alphas}", alphas == [2, 2, 2]


def _check_perfect_scheme(make_channel, make_box, make_protocol, ms: range):
    values = {m: per_message_success(make_channel(m), make_box(m), make_protocol(m)) for m in ms}
    ok = all(all(v == 1 for v in per) for per in values.values())
    return (f"per-message success 1 for m in {ms[0]}..{ms[-1]}",
            f"{ {m: [str(v) for v in per] for m, per in values.items()} }", ok)


def _check_unassisted(c: Channel, k: int, expected: Fraction):
    value, _ = best_unassisted_success(c, k)
    return format_value(expected), format_value(value), value == expected


def _check_cglmp_success():
    value = exact_success(make_nm(3), make_cglmp_behavior(), make_theorem2_protocol(3))
    closed = cglmp_assisted_success_closed_form()
    ok = abs(value - closed) <= 1e-12 and abs(value - reference.NM3_CGLMP_SUCCESS_APPROX) <= 5e-5
    return f"{closed:.12f} (~{format_value(reference.NM3_CGLMP_SUCCESS_APPROX)})", f"{value:.12f}", ok


def _check_singlet_success():
    exact = exact_success(make_mm(3), make_i3322_rational_table(), make_theorem3_protocol(3))
    expected = reference.MM3_SINGLET_SUCCESS
    return f"{format_value(expected)} exact", format_value(exact), exact == expected


def _check_singlet_table():
    # The published table and the published measurement angles disagree at
    # the single input pair (2,1): the table has perfect correlation there,
    # the singlet with equal angles gives perfect anti-correlation.  This
    # check pins down exactly that relationship: all other input pairs
    # match within 1e-12 and (2,1) is precisely the outcome swap.
    beh = behavior_from_quantum(make_i3322_model())
    agree = max(
        abs(beh.prob(x, y, a, b) - float(reference.singlet_reference_prob(x, y, a, b)))
        for x in range(3) for y in range(3) for a in range(2) for b in range(2)
        if (x, y) != (2, 1)
    )
    swap = max(
        abs(beh.prob(2, 1, a, b) - float(reference.singlet_reference_prob(2, 1, a, 1 - b)))
        for a in range(2) for b in range(2)
    )
    ok = agree <= 1e-12 and swap <= 1e-12
    return (
        "8 of 9 input pairs within 1e-12; (2,1) equals the outcome swap",
        f"max deviation {agree:.3e} elsewhere, {swap:.3e} after swapping (2,1)",
        ok,
    )


def _check_cglmp_table():
    beh = make_cglmp_behavior()
    norm = max(
        abs(sum(beh.prob(x, y, a, b) for a in range(3) for b in range(3)) - 1.0)
        for x in range(2) for y in range(2)
    )
    ns_ok, violation = is_no_signaling(beh, tol=1e-12)
    ok = norm <= 1e-12 and ns_ok
    return "rows normalize and no-signaling within 1e-12", f"norm dev {norm:.3e}, NS dev {violation:.3e}", ok


def _check_tensor_claim():
    nm2, pr = make_nm(2), make_extremal_box(2, 2)
    c = tensor_channels(nm2, nm2)
    box = tensor_behaviors(pr, pr)
    base = make_theorem2_protocol(2)
    prod = tensor_protocols(base, base, nm2, nm2, pr, pr)
    zero_error = is_zero_error(c, box, prod)
    alpha = independence_number(confusability_graph(c))
    ok = zero_error and alpha == 1
    return "zero-error with K=4 and product-graph alpha 1", f"zero_error={zero_error}, alpha={alpha}", ok


def _check_ns_suite():
    worst = Fraction(0)
    ok = True
    for m in range(2, 11):
        for beh in (make_extremal_box(m, m), make_rtilde_box(m)):
            good, violation = is_no_signaling(beh)
            ok &= good
            worst = max(worst, violation)
    return "exact no-signaling for m in 2..10", f"ok={ok}, max violation {worst}", ok and worst == 0


#: every check, in report order, as (name, provenance, mode, check)
_CHECKS = (
    ("nm3-matrix", "published 12x6 stochastic matrix of the m=3 two-layer channel", RATIONAL,
     lambda: _check_matrix(make_nm(3), reference.NM3_SUPPORT, reference.NM3_WEIGHT)),
    ("mm3-matrix", "published 21x6 stochastic matrix of the m=3 block channel", RATIONAL,
     lambda: _check_matrix(make_mm(3), reference.MM3_SUPPORT, reference.MM3_WEIGHT)),
    ("capacity-zero", "complete confusability graphs K_2m (two-layer family m<=3, block family m<=5)", RATIONAL,
     _check_capacity_zero),
    ("nm-large-alpha", "incomplete confusability graphs of the two-layer family for m>=4 as printed", RATIONAL,
     _check_nm_large),
    ("assisted-one-bit", "perfect one-bit transmission with the 2-input m-outcome extremal box", RATIONAL,
     lambda: _check_perfect_scheme(make_nm, lambda m: make_extremal_box(m, m), make_theorem2_protocol, range(2, 7))),
    ("assisted-log-m", "perfect log(m)-bit transmission with the m-input 2-outcome extremal box", RATIONAL,
     lambda: _check_perfect_scheme(make_mm, make_rtilde_box, make_theorem3_protocol, range(2, 6))),
    ("unassisted-nm3", "classical one-shot optimum for two messages", RATIONAL,
     lambda: _check_unassisted(make_nm(3), 2, reference.NM3_UNASSISTED_OPTIMUM)),
    ("unassisted-mm3", "classical one-shot optimum for three messages", RATIONAL,
     lambda: _check_unassisted(make_mm(3), 3, reference.MM3_UNASSISTED_OPTIMUM)),
    ("cglmp-assisted", "one-bit success with the optimal two-qutrit correlation", FLOAT, _check_cglmp_success),
    ("singlet-assisted", "log(3)-bit success with the published two-outcome table", RATIONAL, _check_singlet_success),
    ("singlet-table", "published dyadic table vs the stated planar angles (known single-column discrepancy)", FLOAT,
     _check_singlet_table),
    ("cglmp-table", "closed-form cosecant-squared correlation, eta=1/54", FLOAT, _check_cglmp_table),
    ("tensor-two-bits", "two perfect bits through the doubled channel with a doubled box", RATIONAL,
     _check_tensor_claim),
    ("no-signaling-suite", "extremal boxes are valid and exactly no-signaling", RATIONAL, _check_ns_suite),
)


def run_verification() -> list[Check]:
    """Run every check in report order; a check that raises is a failed check."""
    return [_run(*row) for row in _CHECKS]


def report_json(checks: list[Check]) -> dict:
    """The ``verify-paper --json`` object: ``all_passed`` and each check's
    fields in order, its time as ``elapsed_seconds`` rounded to 4 places."""
    records = [asdict(c) for c in checks]
    for record in records:
        record["elapsed_seconds"] = round(record.pop("elapsed"), 4)
    return {"all_passed": all(c.passed for c in checks), "checks": records}


def format_report(checks: list[Check]) -> str:
    lines = []
    name_width = max(len(c.name) for c in checks)
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"[{status}] {c.name:<{name_width}}  {c.elapsed:7.3f}s  expected {c.expected}")
        if not c.passed:
            lines.append(f"       computed: {c.computed}")
            lines.append(f"       source:   {c.provenance}")
    lines.append("")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"{n_pass}/{len(checks)} checks passed")
    return "\n".join(lines)
