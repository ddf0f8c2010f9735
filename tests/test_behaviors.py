import itertools
import json
import math
import random
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecomm.behaviors import (
    Behavior,
    Scenario,
    behavior_from_json,
    behavior_to_json,
    is_no_signaling,
    make_behavior,
    make_extremal_box,
    make_jones_box,
    make_local_deterministic,
    make_rtilde_box,
    tensor_behaviors,
    uniform_behavior,
    validate_behavior,
)
from zecomm.numeric import FLOAT, RATIONAL, as_prob
from zecomm.quantum import make_cglmp_behavior, make_i3322_rational_table


# --- reference: the per-entry callback builder ---------------------------------
# Every entry is computed by a callback on (x, y, a, b) and coerced on its own,
# as the package built its boxes before the integer tables; the tests below
# compare the builders with it entry by entry.

def entry_table(scenario, mode, entry):
    return [[[[as_prob(entry(x, y, a, b), mode) for b in range(scenario.b_card)] for a in range(scenario.a_card)]
             for y in range(scenario.y_card)] for x in range(scenario.x_card)]


def reference_extremal(m, k):
    w = Fraction(1, k)
    return entry_table(Scenario(2, 2, m, m), RATIONAL,
                       lambda x, y, a, b: w if a < k and b < k and (b - a) % k == x * y else 0)


def reference_jones(m1, m2, q):
    def entry(x, y, a, b):
        parity = (1 if (x == 1 and y == 1) else 0) + sum(1 for (i, j) in q if x == i and y == j)
        return Fraction(1, 2) if (a ^ b) == parity % 2 else 0

    return entry_table(Scenario(m1, m2, 2, 2), RATIONAL, entry)


def reference_rtilde(m):
    return entry_table(Scenario(m, m, 2, 2), RATIONAL,
                       lambda x, y, a, b: Fraction(1, 2) if (a ^ b) == (1 if (x == y and x != 0) else 0) else 0)


def reference_tensor(s1, ref1, s2, ref2):
    s = Scenario(s1.x_card * s2.x_card, s1.y_card * s2.y_card, s1.a_card * s2.a_card, s1.b_card * s2.b_card)

    def entry(x, y, a, b):
        (x1, x2), (y1, y2) = divmod(x, s2.x_card), divmod(y, s2.y_card)
        (a1, a2), (b1, b2) = divmod(a, s2.a_card), divmod(b, s2.b_card)
        return ref1[x1][y1][a1][b1] * ref2[x2][y2][a2][b2]

    return entry_table(s, RATIONAL, entry)


def table_of(box):
    """The box's entries through ``prob``, after checking that its stored
    numerators are ints in lowest terms (rational mode) and that ``alice``
    holds its y = 0 marginals, the sums of ``prob`` over b."""
    s = box.scenario
    rational = box.mode == RATIONAL
    if rational:
        numerators = [w for xs in box.weights for block in xs for row in block for w in row]
        assert {type(w) for w in numerators} == {int}
        assert math.gcd(box.denominator, *numerators) == 1
    for x, a in itertools.product(range(s.x_card), range(s.a_card)):
        alice = Fraction(box.alice[x][a], box.denominator) if rational else box.alice[x][a]
        assert alice == sum(box.prob(x, 0, a, b) for b in range(s.b_card))
    return [[[[box.prob(x, y, a, b) for b in range(s.b_card)] for a in range(s.a_card)] for y in range(s.y_card)]
            for x in range(s.x_card)]


@pytest.mark.parametrize("m", range(2, 7))
def test_extremal_box_matches_reference(m):
    for k in range(2, m + 1):
        box = make_extremal_box(m, k)
        assert box.scenario == Scenario(2, 2, m, m)
        assert table_of(box) == reference_extremal(m, k)


@pytest.mark.parametrize("m", range(2, 7))
def test_rtilde_box_matches_reference(m):
    box = make_rtilde_box(m)
    assert box.scenario == Scenario(m, m, 2, 2)
    assert table_of(box) == reference_rtilde(m)


def test_jones_box_matches_reference():
    rng = random.Random(20240)
    for m1, m2 in itertools.product(range(2, 6), repeat=2):
        pairs = [(i, j) for i in range(1, m1) for j in range(1, m2) if (i, j) != (1, 1)]
        for _ in range(3):
            q = rng.sample(pairs, rng.randint(0, len(pairs)))
            assert table_of(make_jones_box(m1, m2, q)) == reference_jones(m1, m2, q)


def test_local_uniform_and_mixed_boxes_match_reference():
    s = Scenario(3, 2, 2, 3)
    f_alice, f_bob = [1, 0, 1], [2, 0]
    local = make_local_deterministic(f_alice, f_bob, s)
    ref_local = entry_table(s, RATIONAL, lambda x, y, a, b: 1 if (a == f_alice[x] and b == f_bob[y]) else 0)
    assert table_of(local) == ref_local
    ref_uniform = entry_table(s, RATIONAL, lambda x, y, a, b: Fraction(1, 6))
    assert table_of(uniform_behavior(s)) == ref_uniform
    other = make_local_deterministic([0, 0, 1], [1, 1], s)
    ref_other = entry_table(s, RATIONAL, lambda x, y, a, b: 1 if (a == [0, 0, 1][x] and b == 1) else 0)
    assert table_of(other) == ref_other
    table_of(make_cglmp_behavior())  # checks a float box's alice marginals


def test_tensor_boxes_match_reference():
    pr, rtilde = make_extremal_box(2, 2), make_rtilde_box(3)
    assert table_of(tensor_behaviors(pr, pr)) == reference_tensor(pr.scenario, reference_extremal(2, 2),
                                                                  pr.scenario, reference_extremal(2, 2))
    assert table_of(tensor_behaviors(rtilde, rtilde)) == reference_tensor(rtilde.scenario, reference_rtilde(3),
                                                                          rtilde.scenario, reference_rtilde(3))


# behavior_to_json output recorded before the integer tables
PM3_JSON = (
    '{"scenario": {"x": 2, "y": 2, "a": 3, "b": 3}, "mode": "rational", "p": '
    '[[[["1/3", "0/1", "0/1"], ["0/1", "1/3", "0/1"], ["0/1", "0/1", "1/3"]], '
    '[["1/3", "0/1", "0/1"], ["0/1", "1/3", "0/1"], ["0/1", "0/1", "1/3"]]], '
    '[[["1/3", "0/1", "0/1"], ["0/1", "1/3", "0/1"], ["0/1", "0/1", "1/3"]], '
    '[["0/1", "1/3", "0/1"], ["0/1", "0/1", "1/3"], ["1/3", "0/1", "0/1"]]]]}'
)
I3322_JSON = (
    '{"scenario": {"x": 3, "y": 3, "a": 2, "b": 2}, "mode": "rational", "p": '
    '[[[["3/8", "1/8"], ["1/8", "3/8"]], [["3/8", "1/8"], ["1/8", "3/8"]], [["1/2", "0/1"], ["0/1", "1/2"]]], '
    '[[["1/2", "0/1"], ["0/1", "1/2"]], [["1/8", "3/8"], ["3/8", "1/8"]], [["3/8", "1/8"], ["1/8", "3/8"]]], '
    '[[["3/8", "1/8"], ["1/8", "3/8"]], [["1/2", "0/1"], ["0/1", "1/2"]], [["1/8", "3/8"], ["3/8", "1/8"]]]]}'
)


def test_behavior_json_matches_recorded_output():
    assert json.dumps(behavior_to_json(make_extremal_box(3, 3))) == PM3_JSON
    assert json.dumps(behavior_to_json(make_i3322_rational_table())) == I3322_JSON
    assert behavior_from_json(json.loads(I3322_JSON)) == make_i3322_rational_table()

# behavior_to_json output recorded before the shared "num/den" writer, one box per mode
PR_JSON = (
    '{"scenario": {"x": 2, "y": 2, "a": 2, "b": 2}, "mode": "rational", "p": '
    '[[[["1/2", "0/1"], ["0/1", "1/2"]], [["1/2", "0/1"], ["0/1", "1/2"]]], '
    '[[["1/2", "0/1"], ["0/1", "1/2"]], [["0/1", "1/2"], ["1/2", "0/1"]]]]}'
)
_C1, _C3, _C5 = "0.276448207968065", "0.03703703703703704", "0.01984808832823131"
CGLMP_JSON = (
    '{"scenario": {"x": 2, "y": 2, "a": 3, "b": 3}, "mode": "float", "p": '
    f'[[[[{_C1}, {_C5}, {_C3}], [{_C3}, {_C1}, {_C5}], [{_C5}, {_C3}, {_C1}]], '
    f'[[{_C1}, {_C3}, {_C5}], [{_C5}, {_C1}, {_C3}], [{_C3}, {_C5}, {_C1}]]], '
    f'[[[{_C1}, {_C3}, {_C5}], [{_C5}, {_C1}, {_C3}], [{_C3}, {_C5}, {_C1}]], '
    f'[[{_C3}, {_C1}, {_C5}], [{_C5}, {_C3}, {_C1}], [{_C1}, {_C5}, {_C3}]]]]}}'
)


def test_box_json_matches_recorded_output_in_both_modes():
    assert json.dumps(behavior_to_json(make_extremal_box(2, 2))) == PR_JSON
    assert json.dumps(behavior_to_json(make_cglmp_behavior())) == CGLMP_JSON
    assert behavior_from_json(json.loads(CGLMP_JSON)) == make_cglmp_behavior()


def test_scenario_validation():
    with pytest.raises(ValueError):
        Scenario(0, 2, 2, 2)
    for card in (True, 2.0, "2"):
        with pytest.raises(ValueError, match="is not an int"):
            Scenario(2, 2, card, 2)


def test_extremal_box_support_pattern():
    box = make_extremal_box(3, 3)
    for x, y in box.inputs():
        for a, b in box.outputs():
            expect = Fraction(1, 3) if (b - a) % 3 == x * y else 0
            assert box.prob(x, y, a, b) == expect
    assert validate_behavior(box) == []
    ok, violation = is_no_signaling(box)
    assert ok and violation == 0


def test_extremal_box_is_pr_box_at_two():
    pr = make_extremal_box(2, 2)
    for x, y in pr.inputs():
        for a, b in pr.outputs():
            expect = Fraction(1, 2) if (a ^ b) == x * y else 0
            assert pr.prob(x, y, a, b) == expect


def test_extremal_box_bad_params():
    with pytest.raises(ValueError):
        make_extremal_box(3, 4)
    with pytest.raises(ValueError):
        make_extremal_box(2, 1)


@pytest.mark.parametrize("build, name, value", [
    (lambda v: make_extremal_box(3, v), "k", 2.0),
    (lambda v: make_extremal_box(3, v), "k", True),
    (lambda v: make_extremal_box(v, 3), "m", 3.0),
    (lambda v: make_extremal_box(v, 2), "m", "3"),
    (lambda v: make_rtilde_box(v), "m", 3.0),
    (lambda v: make_rtilde_box(v), "m", True),
    (lambda v: make_jones_box(v, 3, []), "m1", 3.0),
    (lambda v: make_jones_box(3, v, [(2, 1)]), "m2", True),
])
def test_box_builders_refuse_a_size_that_is_not_an_int(build, name, value):
    # as the channel builders do: a float, a string or a bool is not a size
    with pytest.raises(ValueError, match=f"^{name} must be an int, got {re.escape(repr(value))}$"):
        build(value)


def test_rtilde_entries():
    box = make_rtilde_box(3)
    # correlated except on equal nonzero inputs
    assert box.prob(0, 0, 0, 0) == Fraction(1, 2)
    assert box.prob(1, 1, 0, 1) == Fraction(1, 2)
    assert box.prob(1, 1, 0, 0) == 0
    assert box.prob(2, 1, 0, 1) == 0
    assert box.prob(2, 1, 1, 1) == Fraction(1, 2)
    assert validate_behavior(box) == []


@pytest.mark.parametrize("index, refusal", [
    ((-1, 0, 0, 0), "box input x index -1 is not an int in 0..2"),
    ((3, 0, 0, 0), "box input x index 3 is not an int in 0..2"),
    ((0, True, 0, 0), "box input y index True is not an int in 0..2"),
    ((0, 0, -1, 0), "outcome a index -1 is not an int in 0..1"),
    ((0, 0, 0, 2), "outcome b index 2 is not an int in 0..1"),
    ((0, 0, 0, 1.0), "outcome b index 1.0 is not an int in 0..1"),
], ids=["x-negative", "x-past-end", "y-bool", "a-negative", "b-past-end", "b-float"])
def test_prob_refuses_an_index_that_is_not_an_int_in_range(index, refusal):
    # Python's negative indexing would read the x = 2 entry for x = -1
    with pytest.raises(ValueError, match=f"^{re.escape(refusal)}$"):
        make_rtilde_box(3).prob(*index)


def test_jones_box_generalizes_rtilde():
    q = [(i, i) for i in range(2, 4)]
    jones = make_jones_box(4, 4, q)
    rtilde = make_rtilde_box(4)
    assert jones == rtilde


def test_jones_box_invalid_q():
    with pytest.raises(ValueError):
        make_jones_box(3, 3, [(1, 1)])
    with pytest.raises(ValueError):
        make_jones_box(3, 3, [(0, 2)])


@pytest.mark.parametrize("m1, m2, refusal", [
    (0, 2, "require m1 >= 2"),
    (-1, 3, "require m1 >= 2"),
    (1, 3, "require m1 >= 2"),
    (2, 0, "require m2 >= 2"),
    (3, 1, "require m2 >= 2"),
    (1000, 1000, "a table of 4000000 entries exceeds the limit of 1000000"),
], ids=["m1-zero", "m1-negative", "m1-one", "m2-zero", "m2-one", "oversize"])
def test_jones_box_refuses_sizes_its_rule_cannot_read(m1, m2, refusal):
    # the rule reads inputs x = 1 and y = 1, as make_rtilde_box's does
    with pytest.raises(ValueError, match=f"^{refusal}$"):
        make_jones_box(m1, m2, [])


@pytest.mark.parametrize("pair", [(1.0, 2), (True, 2), (1, 2, 3), (2,), 5, "12"],
                         ids=["float", "bool", "triple", "single", "int", "string"])
def test_jones_box_refuses_a_q_entry_that_is_not_a_pair_of_ints(pair):
    with pytest.raises(ValueError, match=f"^Q entry {re.escape(repr(pair))} is not a pair of ints$"):
        make_jones_box(3, 3, [(2, 1), pair])
    assert make_jones_box(3, 3, [[1, 2], (2, 1)]) == make_jones_box(3, 3, [(2, 1), (1, 2)])


@pytest.mark.parametrize("f_alice, f_bob, refusal", [
    ([0, True], [0, 0], "f_alice[1] = True is not an int in 0..1"),
    ([0, 1.0], [0, 0], "f_alice[1] = 1.0 is not an int in 0..1"),
    ([0, 2], [0, 0], "f_alice[1] = 2 is not an int in 0..1"),
    ([0, 1], [-1, 0], "f_bob[0] = -1 is not an int in 0..2"),
    ([0, 1], [1, 3], "f_bob[1] = 3 is not an int in 0..2"),
], ids=["bool", "float", "past-end", "negative", "bob-past-end"])
def test_local_deterministic_refuses_a_strategy_value_that_is_not_an_outcome(f_alice, f_bob, refusal):
    with pytest.raises(ValueError, match=f"^strategy entry {re.escape(refusal)}$"):
        make_local_deterministic(f_alice, f_bob, Scenario(2, 2, 2, 3))


def test_local_deterministic_and_marginals():
    box = make_local_deterministic([0, 1], [1, 0], Scenario(2, 2, 2, 2))
    assert box.prob(0, 0, 0, 1) == 1
    assert box.prob(0, 0, 1, 1) == 0
    assert Fraction(box.alice[1][1], box.denominator) == sum(box.prob(1, 0, 1, b) for b in range(2)) == 1
    assert sum(box.prob(0, 1, a, 0) for a in range(2)) == 1  # Bob's marginal p(b=0|y=1)
    ok, _ = is_no_signaling(box)
    assert ok


def test_signaling_detected():
    # Alice's outcome copies Bob's input: maximally signaling
    beh = make_behavior(
        Scenario(2, 2, 2, 2), RATIONAL, [[[[1 if (a == y and b == 0) else 0 for b in range(2)] for a in range(2)]
                                          for y in range(2)] for x in range(2)]
    )
    ok, violation = is_no_signaling(beh)
    assert not ok and violation == 1


def test_tensor_behaviors():
    pr = make_extremal_box(2, 2)
    prod = tensor_behaviors(pr, pr)
    s = prod.scenario
    assert (s.x_card, s.y_card, s.a_card, s.b_card) == (4, 4, 4, 4)
    # factorization at a sample point: (x,y,a,b) = (3,3,0,3) -> (1,1,0,1)x(1,1,0,1)
    assert prod.prob(3, 3, 0, 3) == pr.prob(1, 1, 0, 1) ** 2
    ok, violation = is_no_signaling(prod)
    assert ok and violation == 0


def test_validate_behavior_reports():
    with pytest.raises(ValueError, match="normalization"):
        Behavior(
            Scenario(1, 1, 1, 2),
            RATIONAL,
            ((((Fraction(1, 2), Fraction(1, 4)),),),),
        )


def test_json_roundtrip(tmp_path):
    box = make_rtilde_box(3)
    data = behavior_to_json(box)
    again = behavior_from_json(data)
    assert again == box


@pytest.mark.parametrize("make", [
    lambda: make_extremal_box(4, 3),
    lambda: make_rtilde_box(4),
    lambda: make_jones_box(3, 4, [(1, 2), (2, 3)]),
    lambda: make_local_deterministic([1, 0, 1], [2, 0], Scenario(3, 2, 2, 3)),
    lambda: uniform_behavior(Scenario(2, 3, 3, 2)),
    lambda: tensor_behaviors(make_extremal_box(2, 2), make_rtilde_box(3)),
    make_i3322_rational_table,
], ids=["extremal", "rtilde", "jones", "local", "uniform", "tensor", "i3322"])
def test_json_roundtrip_of_every_rational_family(make):
    box = make()
    again = behavior_from_json(json.loads(json.dumps(behavior_to_json(box))))
    assert again == box and again.alice == box.alice


def test_make_behavior_refuses_a_bool_after_an_equal_int():
    # True == 1 and both hash alike: the parse of the 1 must not be reused for True
    s = Scenario(2, 1, 1, 1)
    for mode in (RATIONAL, FLOAT):
        with pytest.raises(ValueError, match="^probability True is a bool, not a number$"):
            make_behavior(s, mode, [[[[1]]], [[[True]]]])


def test_json_rejects_invalid():
    box = make_extremal_box(2, 2)
    data = behavior_to_json(box)
    data["p"][0][0][0][0] = "1/3"
    with pytest.raises(ValueError):
        behavior_from_json(data)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 6), k=st.integers(2, 6))
def test_extremal_family_ns_property(m, k):
    if k > m:
        k = m
    box = make_extremal_box(m, k)
    assert validate_behavior(box) == []
    ok, violation = is_no_signaling(box)
    assert ok and violation == 0


@settings(max_examples=20, deadline=None)
@given(m1=st.integers(2, 5), m2=st.integers(2, 5), data=st.data())
def test_jones_family_ns_property(m1, m2, data):
    pairs = [(i, j) for i in range(1, m1) for j in range(1, m2) if (i, j) != (1, 1)]
    q = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    box = make_jones_box(m1, m2, q)
    assert validate_behavior(box) == []
    ok, violation = is_no_signaling(box)
    assert ok and violation == 0
