"""Acceptance suite: the twelve headline claims the package must reproduce.

Each test prints one [PASS]/[FAIL] line (run with ``pytest -s`` to see them
all).  Three clauses are asserted exactly as stated even though the underlying
published data cannot support them; they fail by design rather than being
weakened:

* criterion 2: the general-m two-layer channel rule leaves its confusability
  graph incomplete for m >= 4 (see test_graphs for the explicit non-edge), so
  alpha = 2 there, not 1;
* criterion 7, second clause: the float path through the quantum kernel gives
  16/21, not 6/7, because the stated measurement angles disagree with the
  published rational table at input pair (2,1);
* criterion 8, first clause: same single-column disagreement; the published
  table entry at (2,1) is not realizable by the stated state and measurements
  (nor by any quantum model).

The truthful versions of these facts are pinned down in the ``verify`` module
and its tests.
"""

from fractions import Fraction

from zecomm import reference
from zecomm.behaviors import (
    is_no_signaling,
    make_extremal_box,
    make_rtilde_box,
    tensor_behaviors,
    uniform_behavior,
    validate_behavior,
    Scenario,
)
from zecomm.channels import make_mm, make_nm, tensor_channels
from zecomm.graphs import confusability_graph, independence_number, strong_product
from zecomm.protocols import (
    best_unassisted_success,
    exact_success,
    exhaustive_assisted_search,
    is_zero_error,
    make_theorem2_protocol,
    make_theorem3_protocol,
    per_message_success,
    tensor_protocols,
)
from zecomm.quantum import (
    behavior_from_quantum,
    cglmp_assisted_success_closed_form,
    make_cglmp_behavior,
    make_i3322_model,
    make_i3322_rational_table,
)


def report(number: int, description: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] criterion {number:2d}: {description}"
    if detail and not ok:
        line += f"  ({detail})"
    print(line)
    assert ok, f"criterion {number}: {description} {detail}"


def test_criterion_01_channel_fidelity():
    ok = True
    c = make_nm(3)
    for out_label in c.output_space.labels():
        support = set(map(tuple, reference.NM3_SUPPORT.get(out_label, [])))
        for in_label in c.input_space.labels():
            expect = reference.NM3_WEIGHT if in_label in support else Fraction(0)
            ok &= c.prob_labels(out_label, in_label) == expect
    c = make_mm(3)
    for out_label in c.output_space.labels():
        support = set(map(tuple, reference.MM3_SUPPORT.get(out_label, [])))
        for in_label in c.input_space.labels():
            expect = reference.MM3_WEIGHT if in_label in support else Fraction(0)
            ok &= c.prob_labels(out_label, in_label) == expect
    report(1, "12x6 and 21x6 stochastic matrices match the references exactly", ok)


def test_criterion_02_capacity_zero():
    results = []
    for m in range(2, 7):
        g = confusability_graph(make_nm(m))
        results.append((f"Nm({m})", independence_number(g), g.is_complete()))
    for m in range(2, 6):
        g = confusability_graph(make_mm(m))
        results.append((f"Mm({m})", independence_number(g), g.is_complete()))
    ok = all(alpha == 1 and complete for _, alpha, complete in results)
    report(2, "alpha = 1 and complete K_2m for both families at all stated m", ok,
           detail=f"got {results}")


def test_criterion_03_one_bit_schemes():
    ok = True
    for m in range(2, 7):
        per = per_message_success(make_nm(m), make_extremal_box(m, m), make_theorem2_protocol(m))
        ok &= per == [Fraction(1)] * 2
    report(3, "one-bit scheme succeeds with certainty per message, m in 2..6", ok)


def test_criterion_04_log_m_schemes():
    ok = True
    for m in range(2, 6):
        p = make_theorem3_protocol(m)
        ok &= p.message_count == m
        ok &= exact_success(make_mm(m), make_rtilde_box(m), p) == 1
    report(4, "log(m)-bit scheme succeeds with certainty, m in 2..5", ok)


def test_criterion_05_unassisted_optima():
    v1, _ = best_unassisted_success(make_nm(3), 2)
    v2, _ = best_unassisted_success(make_mm(3), 3)
    ok = v1 == Fraction(7, 8) and v2 == Fraction(17, 21)
    report(5, "unassisted optima 7/8 and 17/21 exactly", ok, detail=f"got {v1}, {v2}")


def test_criterion_06_cglmp_assisted_success():
    value = exact_success(make_nm(3), make_cglmp_behavior(), make_theorem2_protocol(3))
    closed = cglmp_assisted_success_closed_form()
    ok = abs(value - closed) <= 1e-12 and abs(value - 0.9008) <= 5e-5
    report(6, "two-qutrit-assisted one-bit success matches the closed form (~0.9008)", ok,
           detail=f"got {value!r}")


def test_criterion_07_singlet_assisted_success():
    exact = exact_success(make_mm(3), make_i3322_rational_table(), make_theorem3_protocol(3))
    float_path = exact_success(
        make_mm(3), behavior_from_quantum(make_i3322_model()), make_theorem3_protocol(3)
    )
    ok = exact == Fraction(6, 7) and abs(float_path - 6 / 7) <= 1e-9
    report(7, "singlet-assisted success 6/7 exactly and via the float kernel path", ok,
           detail=f"exact {exact}, float path {float_path!r}")


def test_criterion_08_quantum_kernel_tables():
    kernel = behavior_from_quantum(make_i3322_model())
    worst = max(
        abs(kernel.prob(x, y, a, b) - float(reference.singlet_reference_prob(x, y, a, b)))
        for x in range(3) for y in range(3) for a in range(2) for b in range(2)
    )
    cglmp = make_cglmp_behavior()
    norm = max(
        abs(sum(cglmp.prob(x, y, a, b) for a in range(3) for b in range(3)) - 1.0)
        for x in range(2) for y in range(2)
    )
    ns_ok, _ = is_no_signaling(cglmp, tol=1e-12)
    ok = worst <= 1e-12 and norm <= 1e-12 and ns_ok
    report(8, "kernel reproduces the two-outcome table entrywise; three-outcome table normalizes and is NS", ok,
           detail=f"worst table deviation {worst:.3e}")


def test_criterion_09_tensor_claim():
    n2, p2 = make_nm(2), make_extremal_box(2, 2)
    channel = tensor_channels(n2, n2)
    box = tensor_behaviors(p2, p2)
    base = make_theorem2_protocol(2)
    protocol = tensor_protocols(base, base, n2, n2, p2, p2)
    zero_error = is_zero_error(channel, box, protocol) and protocol.message_count == 4
    alpha = independence_number(confusability_graph(channel))
    ok = zero_error and alpha == 1
    report(9, "doubled channel carries 2 perfect bits while the product graph has alpha 1", ok)


def test_criterion_10_graph_oracle_equivalence():
    import random

    from zecomm.graphs import graph_from_edges, independence_number_bruteforce

    rng = random.Random(99)
    ok = True
    for trial in range(200):
        n = rng.randint(2, 16) if trial < 190 else rng.randint(17, 22)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < rng.choice([0.2, 0.5, 0.8])]
        g = graph_from_edges(n, edges)
        ok &= independence_number(g) == independence_number_bruteforce(g)
    n2 = make_nm(2)
    g1 = confusability_graph(n2)
    ok &= strong_product(g1, g1).adjacency == confusability_graph(tensor_channels(n2, n2)).adjacency
    report(10, "solver equals brute force on 200 random graphs; strong product commutes with channel tensor", ok)


def test_criterion_11_exhaustive_probe():
    found, protocol = exhaustive_assisted_search(make_nm(2), make_extremal_box(2, 2), 2)
    ok = found and is_zero_error(make_nm(2), make_extremal_box(2, 2), protocol)
    trivial_found, _ = exhaustive_assisted_search(make_nm(2), uniform_behavior(Scenario(2, 2, 2, 2)), 2)
    ok &= not trivial_found
    report(11, "exhaustive search finds a zero-error protocol with the extremal box and none with a trivial box", ok)


def test_criterion_12_no_signaling_suite():
    ok = True
    for m in range(2, 11):
        for box in (make_extremal_box(m, m), make_rtilde_box(m)):
            good, violation = is_no_signaling(box)
            ok &= good and violation == 0 and validate_behavior(box) == []
    for beh in (make_cglmp_behavior(), behavior_from_quantum(make_i3322_model())):
        good, violation = is_no_signaling(beh, tol=1e-9)
        ok &= good
    report(12, "extremal families exactly no-signaling for m in 2..10; kernel behaviors within 1e-9", ok)
