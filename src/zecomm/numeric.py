"""Numeric helpers: exact rationals for channels and zero-error claims, floats
for quantum-kernel boxes only.

A rational table (every channel, and the rational boxes) holds int numerators
over one denominator in lowest terms (:func:`integer_rows`).  A box may
instead be tagged float mode and hold floats over denominator 1.  Both kinds
are checked by :func:`table_problems`, one block per distribution, written as
"num/den" by :func:`ratio_text`, and capped at ``MAX_TABLE_ENTRIES`` entries.

The package's value types (alphabets, channels, scenarios, behaviors, graphs,
protocols and quantum models) derive from :class:`Frozen`, one plain base
class: importing ``dataclasses`` and generating each type's methods from it
would cost every process about 10 ms at start-up.  Each type sets
its fields in its own ``__init__`` and keeps them in the instance
``__dict__``; ``Frozen`` compares and hashes the fields named in ``_fields``,
prints them dataclass-style and refuses assignment and deletion.
"""

from __future__ import annotations

import math
from fractions import Fraction
from numbers import Real

RATIONAL = "rational"
FLOAT = "float"

#: default tolerance for float-mode comparisons
FLOAT_TOL = 1e-9

#: as_prob clamps float noise this close to [0, 1]
POS_EPS = 1e-12

#: largest table, in dense entries (zeros included), that a builder accepts,
#: products included: a channel stores only its positive entries, but its
#: JSON and CSV export write every entry
MAX_TABLE_ENTRIES = 10**6


#: the entry types of a rational table
RATIONAL_TYPES = frozenset((int, Fraction))


class Frozen:
    """Immutable value: equal to another of its class, and hashed, by the
    fields named in ``_fields``; printed as ``Name(field=value, ...)`` over
    them.  A subclass ``__init__`` stores every field, derived views
    included, with ``object.__setattr__``."""

    _fields = ()

    def _key(self) -> tuple:
        return tuple(map(self.__dict__.__getitem__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        fields = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._key()))
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


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
    above-one noise (within 1e-12) to the unit interval.  Both modes refuse
    bools, which Python would read as 0 and 1, and non-finite floats.
    """
    if isinstance(value, bool):
        raise ValueError(f"probability {value!r} is a bool, not a number")
    if mode == RATIONAL:
        try:
            f = Fraction(value)
        except OverflowError:  # an infinite float; a NaN raises ValueError itself
            raise ValueError(f"rational probability {value!r} is not finite") from None
        if not 0 <= f <= 1:
            raise ValueError(f"rational probability {f} outside [0, 1]")
        return f
    check_mode(mode)
    v = float(value)
    if not -POS_EPS <= v <= 1 + POS_EPS:
        raise ValueError(f"float probability {v} outside [0, 1] tolerance")
    return min(1.0, max(0.0, v))


def prob_parser(mode: str):
    """``as_prob`` in ``mode`` for the entries of one table, each distinct
    entry coerced once.  Entries are told apart by type as well as value:
    True, 1 and Fraction(1) are equal and hash alike, and a bool must still
    be refused."""
    memo = {}

    def parse(value):
        key = (type(value), value)
        if key not in memo:
            memo[key] = as_prob(value, mode)
        return memo[key]

    return parse


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


def table_problems(blocks, denominator, rational: bool) -> list[str]:
    """Violated constraints of a table of ``(name, entries)`` blocks, each
    one distribution as a flat sequence: the denominator is a positive int (1
    in float mode); entries are non-negative, int or Fraction in rational
    mode and finite real numbers other than bools in float mode; each block
    sums to the denominator, exactly or (float mode) within FLOAT_TOL of 1."""
    if not (type(denominator) is int and denominator >= 1 and (rational or denominator == 1)):
        return [f"denominator {denominator!r} is not a positive integer (1 in float mode)"]
    report = []
    for name, entries in blocks:
        scale = 1
        if rational:
            types = set(map(type, entries))
            if not types <= RATIONAL_TYPES:
                report.append(f"non-rational numerator at {name}")
                continue
            if Fraction in types:  # ints over the lcm of the denominators: no Fraction arithmetic per entry
                scale = math.lcm(*[v.denominator for v in entries])
                entries = [v.numerator * (scale // v.denominator) for v in entries]
        elif not all(isinstance(v, Real) and type(v) is not bool and math.isfinite(v) for v in entries):
            report.append(f"non-numeric or non-finite entry at {name}")
            continue
        if min(entries, default=0) < 0:
            report.append(f"negative entry at {name}")
        total = sum(entries)
        if rational:
            if total != denominator * scale:
                report.append(f"normalization violated at {name}: sum={Fraction(total, denominator * scale)}")
        elif abs(total - 1.0) > FLOAT_TOL:
            report.append(f"normalization violated at {name}: sum={total}")
    return report


def check_size(name: str, value) -> None:
    """Refuse a family size that is not an int, a bool included, naming it as ``name``."""
    if type(value) is not int:
        raise ValueError(f"{name} must be an int, got {value!r}")


def check_table_size(entries: int) -> None:
    """Refuse a table of more than ``MAX_TABLE_ENTRIES`` dense entries, before it is built."""
    if entries > MAX_TABLE_ENTRIES:
        raise ValueError(f"a table of {entries} entries exceeds the limit of {MAX_TABLE_ENTRIES}")


def is_index(v, n: int) -> bool:
    """True iff ``v`` is an int (not a bool) in 0..n-1."""
    return type(v) is int and 0 <= v < n


def check_index(name: str, v, n: int) -> None:
    """Refuse ``v`` unless :func:`is_index` holds, naming it as ``name``."""
    if not is_index(v, n):
        raise ValueError(f"{name} index {v!r} is not an int in 0..{n - 1}")


def ratio_text(numerator: int, denominator: int) -> str:
    """``numerator / denominator`` in lowest terms, as "num/den"."""
    g = math.gcd(numerator, denominator)
    return f"{numerator // g}/{denominator // g}"


def format_value(value, as_float: bool = False) -> str:
    """An int or Fraction as "num/den" (a decimal with ``as_float``); any
    other number as a 12-significant-digit decimal."""
    if type(value) in RATIONAL_TYPES and not as_float:
        return ratio_text(value.numerator, value.denominator)
    return f"{float(value):.12g}"
