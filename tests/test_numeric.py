import math
import re
from fractions import Fraction

import numpy as np
import pytest

from zecomm import numeric
from zecomm.behaviors import Behavior, Scenario, make_extremal_box, make_rtilde_box, validate_behavior
from zecomm.channels import Channel, IndexSpace, identity_channel, make_mm, make_nm
from zecomm.numeric import (
    FLOAT,
    FLOAT_TOL,
    RATIONAL,
    ModeMismatchError,
    as_prob,
    check_mode,
    format_value,
    prob_parser,
    ratio_text,
    require_same_mode,
    table_problems,
)
from zecomm.quantum import behavior_from_quantum, make_cglmp_behavior, make_i3322_model


def test_check_mode():
    assert check_mode(RATIONAL) == RATIONAL
    assert check_mode(FLOAT) == FLOAT
    with pytest.raises(ValueError):
        check_mode("decimal")


def test_require_same_mode():
    assert require_same_mode(RATIONAL, RATIONAL) == RATIONAL
    with pytest.raises(ModeMismatchError):
        require_same_mode(RATIONAL, FLOAT)


def test_as_prob_rational():
    assert as_prob("3/4", RATIONAL) == Fraction(3, 4)
    assert as_prob(1, RATIONAL) == 1
    assert isinstance(as_prob(0, RATIONAL), Fraction)
    with pytest.raises(ValueError):
        as_prob(Fraction(5, 4), RATIONAL)
    with pytest.raises(ValueError):
        as_prob(-1, RATIONAL)


def test_as_prob_float_clamps_noise():
    assert as_prob(-1e-15, FLOAT) == 0.0
    assert as_prob(1 + 1e-15, FLOAT) == 1.0
    with pytest.raises(ValueError):
        as_prob(-1e-6, FLOAT)
    with pytest.raises(ValueError):
        as_prob(1.1, FLOAT)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
def test_as_prob_refuses_bools(mode):
    for value in (True, False):
        with pytest.raises(ValueError, match="is a bool"):
            as_prob(value, mode)


@pytest.mark.parametrize("mode", [RATIONAL, FLOAT])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_as_prob_refuses_non_finite_floats(mode, value):
    with pytest.raises(ValueError):
        as_prob(value, mode)


def test_json_roundtrip():
    assert ratio_text(2, 6) == "1/3"
    assert as_prob("1/3", RATIONAL) == Fraction(1, 3)
    assert as_prob(0.25, FLOAT) == 0.25


def test_prob_parser_coerces_each_distinct_entry_once(monkeypatch):
    calls = []

    def counting(value, mode):
        calls.append(value)
        return as_prob(value, mode)

    monkeypatch.setattr(numeric, "as_prob", counting)
    parse = prob_parser(RATIONAL)
    entries = ("1/2", 0, "1/2", 0, 1, Fraction(1), 1)
    assert list(map(parse, entries)) == [Fraction(1, 2), 0, Fraction(1, 2), 0, 1, 1, 1]
    assert calls == ["1/2", 0, 1, Fraction(1)]
    with pytest.raises(ValueError, match="bool"):
        parse(True)


def test_format_value():
    assert format_value(Fraction(6, 7)) == "6/7"
    assert format_value(1) == "1/1"
    assert format_value(Fraction(1, 2), as_float=True) == "0.5"
    assert format_value(0.9008) == "0.9008"
    assert float(Fraction(1, 4)) == 0.25


# One block of two entries with one problem each: the block is a one-column
# channel and a one-(x, y) box.  Channels are rational only, so they refuse a
# float block as non-rational.
@pytest.mark.parametrize("entries, denominator, mode, problem", [
    ([Fraction(1, 2), 0.5], 1, RATIONAL, "non-rational numerator at {block}"),
    ([2, -1], 1, RATIONAL, "negative entry at {block}"),
    ([1, 1], 3, RATIONAL, "normalization violated at {block}: sum=2/3"),
    ([1, 1], 0, RATIONAL, "denominator 0 is not a positive integer"),
    ([0.5, 0.5], 2, FLOAT, r"denominator 2 is not a positive integer \(1 in float mode\)"),
    ([0.5, 0.5 + 2 * FLOAT_TOL], 1, FLOAT, "normalization violated at {block}: sum=1.000000002"),
    ([math.nan, 1.0], 1, FLOAT, "non-numeric or non-finite entry at {block}"),
    ([True, 0.0], 1, FLOAT, "non-numeric or non-finite entry at {block}"),
    (["0.5", 0.5], 1, FLOAT, "non-numeric or non-finite entry at {block}"),
], ids=["non-rational", "negative", "sum", "denominator", "float-denominator", "float-sum", "float-nan", "float-bool",
        "float-str"])
def test_both_table_kinds_refuse_through_the_shared_check(entries, denominator, mode, problem):
    def pattern(block):
        return problem.format(block=re.escape(block))

    rational = mode == RATIONAL
    assert re.match(pattern("b"), table_problems([("b", entries)], denominator, rational)[0])
    with pytest.raises(ValueError, match="invalid behavior: " + pattern("(x=0,y=0)")):
        Behavior(Scenario(1, 1, 1, 2), mode, [[[entries]]], denominator)
    channel_problem = pattern("column 0") if rational else "non-rational numerator at column 0"
    with pytest.raises(ValueError, match="invalid channel: " + channel_problem):
        Channel(IndexSpace((1,)), IndexSpace((2,)), [((0, 1), entries)], denominator)


def test_fraction_blocks_report_their_sum_and_sign_as_exact_fractions():
    third, sixth = Fraction(1, 3), Fraction(1, 6)
    blocks = [
        ("short", [third, Fraction(1, 4), 0]),  # 7/12
        ("negative", [Fraction(3, 2), Fraction(-1, 2)]),  # sums to 1
        ("both", [-third, sixth, 2]),  # 11/6
        ("mixed", [Fraction(1, 2), 1, 0]),  # 3/2
        ("exact", [third, sixth, Fraction(1, 2)]),
    ]
    assert table_problems(blocks, 1, rational=True) == [
        "normalization violated at short: sum=7/12",
        "negative entry at negative",
        "negative entry at both",
        "normalization violated at both: sum=11/6",
        "normalization violated at mixed: sum=3/2",
    ]
    assert table_problems(blocks, 3, rational=True)[0] == "normalization violated at short: sum=7/36"
    assert table_problems([("whole", [Fraction(3, 2), Fraction(1, 2)])], 2, rational=True) == []
    assert table_problems([("whole", [Fraction(3, 2), Fraction(3, 2)])], 2, rational=True) == [
        "normalization violated at whole: sum=3/2"]


@pytest.mark.parametrize("build", [
    make_cglmp_behavior,
    lambda: behavior_from_quantum(make_i3322_model()),
    lambda: Behavior(Scenario(1, 1, 1, 2), FLOAT, [[[np.array([0.25, 0.75])]]]),
], ids=["cglmp", "i3322-float", "numpy-float64"])
def test_float_boxes_pass_the_shared_check(build):
    box = build()
    assert box.mode == FLOAT and validate_behavior(box) == []


def _entries(table):
    if isinstance(table, Channel):
        return table.n_inputs * table.n_outputs
    s = table.scenario
    return s.x_card * s.y_card * s.a_card * s.b_card


@pytest.mark.parametrize("build", [make_nm, make_mm, identity_channel, lambda m: make_extremal_box(m, 2),
                                   make_rtilde_box], ids=["Nm", "Mm", "identity", "extremal", "rtilde"])
def test_builders_refuse_a_table_beyond_the_cap(monkeypatch, build):
    entries = _entries(build(3))
    monkeypatch.setattr(numeric, "MAX_TABLE_ENTRIES", entries)
    assert _entries(build(3)) == entries
    with pytest.raises(ValueError, match=f"exceeds the limit of {entries}"):
        build(4)
