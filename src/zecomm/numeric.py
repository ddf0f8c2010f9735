"""Numeric helpers: exact rationals for channels and zero-error claims, floats
for quantum-kernel boxes only.

A rational table (every channel, and the rational boxes) holds int numerators
over one denominator in lowest terms (:func:`integer_rows`).  A box may
instead be tagged float mode and hold floats over denominator 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

RATIONAL = "rational"
FLOAT = "float"

#: default tolerance for float-mode comparisons
FLOAT_TOL = 1e-9

#: float box entries at or below this count as zero in evaluation; as_prob
#: clamps float noise this close to [0, 1]
POS_EPS = 1e-12


class ModeMismatchError(ValueError):
    """Raised when rational-mode and float-mode objects are combined."""


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


def integer_rows(rows, denominator: int) -> tuple[tuple, int]:
    """The rationals ``rows[i][j] / denominator`` (int or Fraction entries)
    as rows of int numerators over one denominator in lowest terms: Fractions
    are scaled to the lcm of their denominators, then everything is divided
    by the common gcd, so equal tables get one representation."""
    try:
        g = math.gcd(denominator, *(math.gcd(*row) for row in rows))
    except TypeError:  # a Fraction entry: bring all entries to one denominator first
        scale = math.lcm(*(v.denominator for row in rows for v in row))
        rows = [[v.numerator * (scale // v.denominator) for v in row] for row in rows]
        denominator *= scale
        g = math.gcd(denominator, *(math.gcd(*row) for row in rows))
    if g > 1:
        rows = [[v // g for v in row] for row in rows]
    return tuple(map(tuple, rows)), denominator // g


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
