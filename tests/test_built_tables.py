"""Builders that hand their tables over unchecked: each family, product and
fixed-table builder stores a table that is canonical as built (tuples,
channels keeping positive entries only, numerators in lowest terms) without
the entry-point check.  What it stores must be exactly what the checked
constructor would make of the same table, instance dict included, and the
check must not run at all."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zecomm import behaviors, channels
from zecomm.behaviors import (
    Behavior,
    Scenario,
    make_behavior,
    make_extremal_box,
    make_jones_box,
    make_local_deterministic,
    make_rtilde_box,
    tensor_behaviors,
    uniform_behavior,
)
from zecomm.channels import Channel, IndexSpace, identity_channel, make_channel, make_mm, make_nm, tensor_channels
from zecomm.numeric import RATIONAL
from zecomm.quantum import make_i3322_rational_table

CHANNEL_FIELDS = ["input_space", "output_space", "columns", "denominator", "supports"]
BEHAVIOR_FIELDS = ["scenario", "mode", "weights", "denominator", "alice"]


def assert_as_checked(value):
    """``value`` equals its checked construction, with the same instance dict in the same order."""
    if isinstance(value, Channel):
        checked, fields = Channel(value.input_space, value.output_space, value.columns, value.denominator), CHANNEL_FIELDS
    else:
        checked, fields = Behavior(value.scenario, value.mode, value.weights, value.denominator), BEHAVIOR_FIELDS
    assert checked == value and vars(checked) == vars(value)
    assert list(vars(value)) == list(vars(checked)) == fields


def routed_channels():
    yield from (make_nm(m) for m in range(2, 13))
    yield from (make_mm(m) for m in range(2, 13))
    yield from (identity_channel(n) for n in range(1, 21))
    yield tensor_channels(make_nm(3), make_mm(2))
    yield tensor_channels(identity_channel(2), make_nm(2))


def routed_behaviors():
    yield from (make_extremal_box(m, k) for m in range(2, 11) for k in range(2, m + 1))
    yield from (make_rtilde_box(m) for m in range(2, 11))
    yield make_jones_box(3, 4, [(1, 2), (2, 3)])
    yield make_jones_box(2, 2, [])
    yield make_local_deterministic([1, 0, 1], [2, 0], Scenario(3, 2, 2, 3))
    yield make_local_deterministic([0], [0], Scenario(1, 1, 1, 1))
    yield uniform_behavior(Scenario(3, 2, 2, 3))
    yield uniform_behavior(Scenario(1, 1, 1, 1))
    yield tensor_behaviors(make_rtilde_box(3), make_extremal_box(3, 2))
    yield make_i3322_rational_table()


def test_routed_channels_equal_their_checked_construction():
    for c in routed_channels():
        assert_as_checked(c)


def test_routed_behaviors_equal_their_checked_construction():
    for b in routed_behaviors():
        assert_as_checked(b)


@st.composite
def checked_channels(draw):
    """A channel of up to 4 inputs and outputs through ``make_channel``, its
    entries Fractions or "num/den" strings of small integer weights."""
    n_in, n_out = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    columns = [draw(st.lists(st.integers(0, 3), min_size=n_out, max_size=n_out).filter(any)) for _ in range(n_in)]
    as_text = draw(st.booleans())
    matrix = [[f"{w}/{sum(column)}" if as_text else Fraction(w, sum(column)) for w in column] for column in columns]
    return make_channel(matrix, IndexSpace((n_in,)), IndexSpace((n_out,)))


@st.composite
def checked_behaviors(draw):
    """A rational behavior of up to 2 inputs and 3 outcomes per party
    through ``make_behavior``, signaling allowed, each (x, y) block of
    Fraction entries over its own small sum."""
    x, y, a, b = (draw(st.integers(1, n)) for n in (2, 2, 3, 3))
    values = []
    for _ in range(x):
        row = []
        for _ in range(y):
            weights = draw(st.lists(st.integers(0, 4), min_size=a * b, max_size=a * b).filter(any))
            row.append([[Fraction(w, sum(weights)) for w in weights[i * b:(i + 1) * b]] for i in range(a)])
        values.append(row)
    return make_behavior(Scenario(x, y, a, b), RATIONAL, values)


@settings(max_examples=60, deadline=None)
@given(checked_channels(), checked_channels())
def test_tensor_channels_of_checked_tables_equal_their_checked_construction(c1, c2):
    assert_as_checked(tensor_channels(c1, c2))


@settings(max_examples=60, deadline=None)
@given(checked_behaviors(), checked_behaviors())
def test_tensor_behaviors_of_checked_tables_equal_their_checked_construction(b1, b2):
    assert_as_checked(tensor_behaviors(b1, b2))


def test_routed_builders_run_no_check(monkeypatch):
    # inputs of the products first, built while the check still runs
    nm3, mm2 = make_nm(3), make_mm(2)
    rtilde3, pr = make_rtilde_box(3), make_extremal_box(2, 2)

    def refuse(*args):
        raise AssertionError("the check ran")

    for module, name in ((channels, "table_problems"), (channels, "_shape_problem"),
                         (behaviors, "validate_behavior")):
        monkeypatch.setattr(module, name, refuse)
    with pytest.raises(AssertionError, match="the check ran"):
        Channel(nm3.input_space, nm3.output_space, nm3.columns, nm3.denominator)
    with pytest.raises(AssertionError, match="the check ran"):
        Behavior(pr.scenario, pr.mode, pr.weights, pr.denominator)
    built = [make_nm(4), make_mm(4), identity_channel(5), tensor_channels(nm3, mm2),
             make_extremal_box(4, 3), make_rtilde_box(4), make_jones_box(3, 3, [(2, 2)]),
             make_local_deterministic([0, 1], [1, 0], Scenario(2, 2, 2, 2)), uniform_behavior(Scenario(2, 2, 2, 2)),
             tensor_behaviors(rtilde3, pr), make_i3322_rational_table()]
    monkeypatch.undo()
    for value in built:
        assert_as_checked(value)
