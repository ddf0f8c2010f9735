import math
from fractions import Fraction

import pytest

from zecomm.numeric import (
    FLOAT,
    RATIONAL,
    ModeMismatchError,
    as_prob,
    check_mode,
    format_value,
    prob_to_json,
    require_same_mode,
)


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
    assert prob_to_json(Fraction(1, 3), RATIONAL) == "1/3"
    assert as_prob("1/3", RATIONAL) == Fraction(1, 3)
    assert as_prob(0.25, FLOAT) == 0.25


def test_format_value():
    assert format_value(Fraction(6, 7), RATIONAL) == "6/7"
    assert format_value(Fraction(1, 2), RATIONAL, as_float=True) == "0.5"
    assert float(Fraction(1, 4)) == 0.25
