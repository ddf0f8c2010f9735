"""Stochastic channels over tuple-structured alphabets, including the two
families whose confusability graphs are complete yet which become useful under
extremal no-signaling assistance.

A channel is column-stochastic: ``matrix[input][output]`` holds p(o|i) and each
column (fixed input) sums to 1.  Alphabets are :class:`IndexSpace` objects that
map between flat indices and display tuples; the first output factor of the
structured families carries a +1 display offset (labels 1..m+1 resp.
1..m(m-1)+1, stored 0-based).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .numeric import (
    RATIONAL,
    as_prob,
    check_mode,
    is_positive,
    prob_to_json,
    require_same_mode,
    zero,
)


@dataclass(frozen=True)
class IndexSpace:
    """Product alphabet with a bijection between flat indices and tuple labels.

    Flattening is row-major with the first factor most significant.  Offsets
    shift the displayed labels only (e.g. an output factor labeled 1..m+1).
    """

    factors: tuple[int, ...]
    offsets: tuple[int, ...] = None

    def __post_init__(self):
        if any(f < 1 for f in self.factors):
            raise ValueError("factor cardinalities must be >= 1")
        if self.offsets is None:
            object.__setattr__(self, "offsets", (0,) * len(self.factors))
        elif len(self.offsets) != len(self.factors):
            raise ValueError("offsets length must match factors")

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    def flatten(self, label: Sequence[int]) -> int:
        if len(label) != len(self.factors):
            raise ValueError("label arity mismatch")
        flat = 0
        for value, factor, offset in zip(label, self.factors, self.offsets):
            v = value - offset
            if not 0 <= v < factor:
                raise ValueError(f"label {tuple(label)} out of range for {self.factors}")
            flat = flat * factor + v
        return flat

    def unflatten(self, flat: int) -> tuple[int, ...]:
        if not 0 <= flat < self.size:
            raise ValueError("flat index out of range")
        label = []
        for factor in reversed(self.factors):
            flat, rem = divmod(flat, factor)
            label.append(rem)
        return tuple(v + off for v, off in zip(reversed(label), self.offsets))

    def labels(self):
        return (self.unflatten(i) for i in range(self.size))


@dataclass(frozen=True)
class Channel:
    """Column-stochastic matrix with structured input/output alphabets."""

    input_space: IndexSpace
    output_space: IndexSpace
    mode: str
    matrix: tuple  # matrix[input_flat][output_flat]

    def prob(self, output_flat: int, input_flat: int):
        return self.matrix[input_flat][output_flat]

    def prob_labels(self, output_label: Sequence[int], input_label: Sequence[int]):
        return self.prob(self.output_space.flatten(output_label), self.input_space.flatten(input_label))

    @property
    def n_inputs(self) -> int:
        return self.input_space.size

    @property
    def n_outputs(self) -> int:
        return self.output_space.size

    def support(self, input_flat: int) -> list[int]:
        return [o for o in range(self.n_outputs) if is_positive(self.matrix[input_flat][o], self.mode)]


def validate_channel(c: Channel, tol: float = 1e-9) -> list[str]:
    report = []
    if len(c.matrix) != c.n_inputs:
        report.append("column count does not match input space")
        return report
    for i, column in enumerate(c.matrix):
        if len(column) != c.n_outputs:
            report.append(f"column {i} has wrong length")
            continue
        total = zero(c.mode)
        for o, v in enumerate(column):
            if v < 0:
                report.append(f"negative entry at output {o}, input {i}")
            total += v
        if c.mode == RATIONAL:
            if total != 1:
                report.append(f"column {i} sums to {total}, not 1")
        elif abs(total - 1.0) > tol:
            report.append(f"column {i} sums to {total}, not 1")
    return report


def make_channel(
    matrix: Sequence[Sequence[object]],
    input_space: IndexSpace,
    output_space: IndexSpace,
    mode: str = RATIONAL,
) -> Channel:
    """Build and validate a channel from a column-major matrix
    (``matrix[input][output]``)."""
    check_mode(mode)
    cols = tuple(tuple(as_prob(v, mode) for v in column) for column in matrix)
    c = Channel(input_space, output_space, mode, cols)
    problems = validate_channel(c)
    if problems:
        raise ValueError("invalid channel: " + "; ".join(problems))
    return c


def channel_from_rule(
    input_space: IndexSpace,
    output_space: IndexSpace,
    entry: Callable[[tuple, tuple], object],
    mode: str = RATIONAL,
) -> Channel:
    matrix = [
        [entry(out_label, in_label) for out_label in output_space.labels()]
        for in_label in input_space.labels()
    ]
    return make_channel(matrix, input_space, output_space, mode)


# --- permutation algebra ----------------------------------------------------

def pi_perm(m: int, shift: int, i2: int) -> int:
    """Output permutation family: 0 is fixed, the nonzero symbols are rotated
    by ``shift`` within {1..m-1}.  A bijection on {0..m-1} for every shift.
    """
    if not 0 <= i2 < m:
        raise ValueError("symbol out of range")
    if not 0 <= shift < m - 1:
        raise ValueError("shift out of range")
    if i2 == 0:
        return 0
    return (i2 - 1 + shift) % (m - 1) + 1


def pi_hat(m: int, u: int) -> int:
    """Additive inverse mod m: u + pi_hat(m, u) = 0 (mod m)."""
    if not 0 <= u < m:
        raise ValueError("symbol out of range")
    return (m - u) % m


# --- channel families -------------------------------------------------------

def make_nm(m: int) -> Channel:
    """Channel with inputs {0,1} x {0..m-1} and outputs {1..m+1} x {0..m-1}.

    The first output coordinate is uniform with weight 1/(m+1); the second is
    a deterministic function of the input: o2 = i1 for o1 = 1, o2 = i2 for
    o1 = 2, and o2 = i1 + pi_perm(m, o1-3, i2) mod m for o1 in {3..m+1}.

    For m in {2, 3} every pair of inputs shares an output and the
    confusability graph is complete on 2m vertices.  For m >= 4 this rule
    leaves some cross pairs with disjoint supports (the shifted permutations
    double-cover other pairs), so the graph is not complete; the one-bit
    assisted scheme still succeeds with certainty for every m.
    """
    if m < 2:
        raise ValueError("require m >= 2")
    omega = Fraction(1, m + 1)
    input_space = IndexSpace((2, m))
    output_space = IndexSpace((m + 1, m), offsets=(1, 0))

    def o2_of(o1: int, i1: int, i2: int) -> int:
        if o1 == 1:
            return i1
        if o1 == 2:
            return i2
        return (i1 + pi_perm(m, o1 - 3, i2)) % m

    def entry(out_label, in_label):
        (o1, o2), (i1, i2) = out_label, in_label
        return omega if o2 == o2_of(o1, i1, i2) else 0

    return channel_from_rule(input_space, output_space, entry)


def mm_block_anchor(m: int, j: int) -> int:
    """First o1 label of block j in the m-block channel: (m-1)*j + 2."""
    return (m - 1) * j + 2


def mm_block_of(m: int, o1: int) -> int:
    """Block index j such that o1 lies in {(m-1)j+2 .. (m-1)j+m}; o1 >= 2."""
    return (o1 - 2) // (m - 1)


def make_mm(m: int) -> Channel:
    """Channel with inputs {0..m-1} x {0,1} and outputs
    {1..m(m-1)+1} x {0..m-1}.

    The first output coordinate is uniform with weight 1/(m(m-1)+1).  For
    o1 = 1, o2 = i1.  The remaining labels split into m blocks of width m-1;
    within block j the rule is o2 = i1 + pi_perm(m, o1 - anchor(j), i2') mod m
    with i2' = i2 xor [i1 = j] for j >= 1 and i2' = i2 for block 0.  (The
    block-0 rule has no xor flip; with it the per-block intersection pattern
    that completes the confusability graph would break.)  Every output row has
    exactly two positive entries, and the confusability graph is complete on
    2m vertices.
    """
    if m < 2:
        raise ValueError("require m >= 2")
    n_first = m * (m - 1) + 1
    omega = Fraction(1, n_first)
    input_space = IndexSpace((m, 2))
    output_space = IndexSpace((n_first, m), offsets=(1, 0))

    def o2_of(o1: int, i1: int, i2: int) -> int:
        if o1 == 1:
            return i1
        j = mm_block_of(m, o1)
        shift = o1 - mm_block_anchor(m, j)
        flip = 1 if (j != 0 and i1 == j) else 0
        return (i1 + pi_perm(m, shift, i2 ^ flip)) % m

    def entry(out_label, in_label):
        (o1, o2), (i1, i2) = out_label, in_label
        return omega if o2 == o2_of(o1, i1, i2) else 0

    return channel_from_rule(input_space, output_space, entry)


def identity_channel(n: int, mode: str = RATIONAL) -> Channel:
    space = IndexSpace((n,))
    return channel_from_rule(space, space, lambda o, i: 1 if o == i else 0, mode)


def tensor_channels(c1: Channel, c2: Channel) -> Channel:
    """Independent parallel use; entries multiply over the product alphabets."""
    mode = require_same_mode(c1.mode, c2.mode)
    input_space = IndexSpace(
        c1.input_space.factors + c2.input_space.factors,
        c1.input_space.offsets + c2.input_space.offsets,
    )
    output_space = IndexSpace(
        c1.output_space.factors + c2.output_space.factors,
        c1.output_space.offsets + c2.output_space.offsets,
    )
    k1 = len(c1.output_space.factors)
    ki = len(c1.input_space.factors)

    def entry(out_label, in_label):
        return c1.prob_labels(out_label[:k1], in_label[:ki]) * c2.prob_labels(out_label[k1:], in_label[ki:])

    return channel_from_rule(input_space, output_space, entry, mode)


def sample_output(c: Channel, input_flat: int, seed: int) -> int:
    """Draw one output for the given input; deterministic in the seed.

    Rational columns are sampled by exact cumulative comparison against a
    64-bit uniform draw, so no rounding enters the distribution.
    """
    if not 0 <= input_flat < c.n_inputs:
        raise ValueError("input index out of range")
    rng = random.Random(seed)
    return _sample_column(c.matrix[input_flat], c.mode, rng)


def _sample_column(column, mode, rng: random.Random) -> int:
    if mode == RATIONAL:
        u = Fraction(rng.getrandbits(64), 2**64)
    else:
        u = rng.random()
    cumulative = zero(mode)
    last = 0
    for idx, v in enumerate(column):
        if v > 0:
            last = idx
            cumulative += v
            if u < cumulative:
                return idx
    return last  # guard against float round-off at the top end


# --- JSON interchange -------------------------------------------------------

def channel_to_json(c: Channel) -> dict:
    return {
        "inputs": {"factors": list(c.input_space.factors), "offsets": list(c.input_space.offsets)},
        "outputs": {"factors": list(c.output_space.factors), "offsets": list(c.output_space.offsets)},
        "mode": c.mode,
        "matrix": [[prob_to_json(v, c.mode) for v in column] for column in c.matrix],
    }


def channel_from_json(data: dict) -> Channel:
    def space(d):
        return IndexSpace(tuple(d["factors"]), tuple(d.get("offsets", [0] * len(d["factors"]))))

    mode = check_mode(data["mode"])
    return make_channel(data["matrix"], space(data["inputs"]), space(data["outputs"]), mode)


def save_channel(c: Channel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_json(c), fh, indent=1)


def load_channel(path: str) -> Channel:
    with open(path) as fh:
        return channel_from_json(json.load(fh))
