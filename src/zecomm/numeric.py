"""Dual numeric backend: exact rationals for zero-error claims, floats for
quantum-kernel output.

Every probability table in the package is tagged with one of the two modes.
Mixing modes in one arithmetic operation is forbidden; callers convert
explicitly with ``float()``.
"""

from __future__ import annotations

from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

#: default tolerance for float-mode comparisons
FLOAT_TOL = 1e-9

#: entries below this threshold count as zero for support/confusability purposes
POS_EPS = 1e-12


class ModeMismatchError(ValueError):
    """Raised when rational-mode and float-mode objects are combined."""


class ZeroConditioningError(ValueError):
    """Raised when conditioning on an outcome of probability zero."""


def check_mode(mode: str) -> str:
    if mode not in (RATIONAL, FLOAT):
        raise ValueError(f"unknown numeric mode {mode!r}")
    return mode


def require_same_mode(mode1: str, mode2: str) -> str:
    if mode1 != mode2:
        raise ModeMismatchError(f"mixed numeric modes: {mode1!r} vs {mode2!r}")
    return mode1


def as_prob(value, mode: str):
    """Coerce ``value`` into a probability of the given mode.

    Rational mode accepts ints, Fractions and "num/den" strings and requires
    the value to lie in [0, 1] exactly.  Float mode clamps tiny negative /
    above-one noise (within 1e-12) to the unit interval.
    """
    if mode == RATIONAL:
        f = Fraction(value)
        if not 0 <= f <= 1:
            raise ValueError(f"rational probability {f} outside [0, 1]")
        return f
    check_mode(mode)
    v = float(value)
    if not -POS_EPS <= v <= 1 + POS_EPS:
        raise ValueError(f"float probability {v} outside [0, 1] tolerance")
    return min(1.0, max(0.0, v))


def zero(mode: str):
    return Fraction(0) if mode == RATIONAL else 0.0


def one(mode: str):
    return Fraction(1) if mode == RATIONAL else 1.0


def is_positive(value, mode: str) -> bool:
    """Strict positivity; float mode uses the POS_EPS threshold."""
    if mode == RATIONAL:
        return value > 0
    return value > POS_EPS


def prob_to_json(value, mode: str):
    if mode == RATIONAL:
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return float(value)


def format_value(value, mode: str, as_float: bool = False) -> str:
    if mode == RATIONAL and not as_float:
        f = Fraction(value)
        return f"{f.numerator}/{f.denominator}"
    return f"{float(value):.12g}"
