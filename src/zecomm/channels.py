"""Stochastic channels over tuple-structured alphabets, including the two
families whose confusability graphs are complete yet which become useful under
extremal no-signaling assistance.

A channel is an integer table: ``weights[input][output]`` holds the numerator
of p(o|i) over one common ``denominator`` (in lowest terms), and each column
(fixed input) sums exactly to the denominator.  Channels are always exact;
only boxes (:mod:`zecomm.behaviors`) may hold floats.  Both families are
layered and built from their layer rule o2 = o2_of(o1, i1, i2): one output per
(input, first output coordinate), each of numerator 1 over the layer count.
Alphabets are :class:`IndexSpace` objects, whose labels are display tuples in
flat-index order; the first output factor of the structured families carries
a +1 display offset (labels 1..m+1 resp. 1..m(m-1)+1, stored 0-based).
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import compress, product
from typing import Sequence

from .numeric import RATIONAL, as_prob, check_table_size, integer_rows, ratio_text, table_problems


@dataclass(frozen=True)
class IndexSpace:
    """Product alphabet; ``labels()`` enumerates the labels in flat-index order.

    Flat indices are row-major with the first factor most significant.  Offsets
    shift the displayed labels only (e.g. an output factor labeled 1..m+1).
    """

    factors: tuple[int, ...]
    offsets: tuple[int, ...] = None

    def __post_init__(self):
        if self.offsets is None:
            object.__setattr__(self, "offsets", (0,) * len(self.factors))
        if not all(type(v) is int for v in self.factors + self.offsets):
            raise ValueError(f"factors {self.factors} and offsets {self.offsets} must be ints")
        if any(f < 1 for f in self.factors):
            raise ValueError("factor cardinalities must be >= 1")
        if len(self.offsets) != len(self.factors):
            raise ValueError("offsets length must match factors")

    @property
    def size(self) -> int:
        n = 1
        for f in self.factors:
            n *= f
        return n

    def labels(self):
        """Every label in flat-index order."""
        return product(*(range(offset, offset + factor) for factor, offset in zip(self.factors, self.offsets)))


@dataclass(frozen=True)
class Channel:
    """Column-stochastic table with structured input/output alphabets.

    ``weights[input_flat][output_flat]`` holds p(o|i) as an int numerator over
    ``denominator``, in lowest terms by ``integer_rows`` so that equal
    channels compare equal; Fraction numerators given on construction are
    converted.  Every channel is validated on construction, and each input's
    support is computed once.
    """

    input_space: IndexSpace
    output_space: IndexSpace
    weights: tuple  # weights[input_flat][output_flat]
    denominator: int = 1
    supports: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        weights = tuple(tuple(row) for row in self.weights)
        object.__setattr__(self, "weights", weights)
        problems = validate_channel(self)
        if problems:
            raise ValueError("invalid channel: " + "; ".join(problems))
        weights, denominator = integer_rows(weights, self.denominator)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "denominator", denominator)
        n_out = self.n_outputs
        object.__setattr__(self, "supports", tuple(tuple(compress(range(n_out), row)) for row in weights))

    def prob(self, output_flat: int, input_flat: int) -> Fraction:
        return Fraction(self.weights[input_flat][output_flat], self.denominator)

    @property
    def n_inputs(self) -> int:
        return self.input_space.size

    @property
    def n_outputs(self) -> int:
        return self.output_space.size


def validate_channel(c: Channel) -> list[str]:
    """Violated constraints of ``c``'s table: its shape, then the shared
    table rule (:func:`~zecomm.numeric.table_problems`), one block per
    column."""
    if len(c.weights) != c.n_inputs:
        return ["column count does not match input space"]
    report = [f"column {i} has wrong length" for i, column in enumerate(c.weights) if len(column) != c.n_outputs]
    return report or table_problems(((f"column {i}", column) for i, column in enumerate(c.weights)),
                                    c.denominator, rational=True)


def make_channel(
    matrix: Sequence[Sequence[object]],
    input_space: IndexSpace,
    output_space: IndexSpace,
) -> Channel:
    """Build and validate a channel from a column-major matrix
    (``matrix[input][output]``) of outside entries: ints, Fractions, "num/den"
    strings or floats, each coerced once to an exact rational."""
    return Channel(input_space, output_space, [[as_prob(v, RATIONAL) for v in column] for column in matrix])


def _layered(input_space: IndexSpace, output_space: IndexSpace, o2_of) -> Channel:
    """Channel with o1 (labels 1..L) uniform and o2 = ``o2_of(o1, i1, i2)``:
    column (i1, i2) has numerator 1 over L at (o1, o2) for each layer o1."""
    layers, m = output_space.factors
    weights = []
    for i1, i2 in input_space.labels():
        row = [0] * output_space.size
        for o1 in range(1, layers + 1):  # output (o1, o2) is flat index (o1 - 1) * m + o2
            row[(o1 - 1) * m + o2_of(o1, i1, i2)] = 1
        weights.append(row)
    return Channel(input_space, output_space, weights, layers)


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

def _nm_spaces(m: int) -> tuple[IndexSpace, IndexSpace]:
    """Input and output alphabets of ``make_nm(m)``."""
    if m < 2:
        raise ValueError("require m >= 2")
    check_table_size(2 * m * (m + 1) * m)
    return IndexSpace((2, m)), IndexSpace((m + 1, m), offsets=(1, 0))


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
    def o2_of(o1: int, i1: int, i2: int) -> int:
        if o1 == 1:
            return i1
        if o1 == 2:
            return i2
        return (i1 + pi_perm(m, o1 - 3, i2)) % m

    return _layered(*_nm_spaces(m), o2_of)


def mm_block_anchor(m: int, j: int) -> int:
    """First o1 label of block j in the m-block channel: (m-1)*j + 2."""
    return (m - 1) * j + 2


def mm_block_of(m: int, o1: int) -> int:
    """Block index j such that o1 lies in {(m-1)j+2 .. (m-1)j+m}; o1 >= 2."""
    return (o1 - 2) // (m - 1)


def _mm_spaces(m: int) -> tuple[IndexSpace, IndexSpace]:
    """Input and output alphabets of ``make_mm(m)``."""
    if m < 2:
        raise ValueError("require m >= 2")
    check_table_size(m * 2 * (m * (m - 1) + 1) * m)
    return IndexSpace((m, 2)), IndexSpace((m * (m - 1) + 1, m), offsets=(1, 0))


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
    def o2_of(o1: int, i1: int, i2: int) -> int:
        if o1 == 1:
            return i1
        j = mm_block_of(m, o1)
        shift = o1 - mm_block_anchor(m, j)
        flip = 1 if (j != 0 and i1 == j) else 0
        return (i1 + pi_perm(m, shift, i2 ^ flip)) % m

    return _layered(*_mm_spaces(m), o2_of)


def identity_channel(n: int) -> Channel:
    space = IndexSpace((n,))
    check_table_size(n * n)
    return Channel(space, space, [[1 if o == i else 0 for o in range(n)] for i in range(n)])


def tensor_channels(c1: Channel, c2: Channel) -> Channel:
    """Independent parallel use; numerators multiply over the product
    alphabets, and so do denominators."""
    input_space = IndexSpace(
        c1.input_space.factors + c2.input_space.factors,
        c1.input_space.offsets + c2.input_space.offsets,
    )
    output_space = IndexSpace(
        c1.output_space.factors + c2.output_space.factors,
        c1.output_space.offsets + c2.output_space.offsets,
    )
    n_out2 = c2.n_outputs
    weights = []
    for row1, support1 in zip(c1.weights, c1.supports):
        for row2, support2 in zip(c2.weights, c2.supports):
            row = [0] * output_space.size
            for o1 in support1:
                w1, base = row1[o1], o1 * n_out2
                for o2 in support2:
                    row[base + o2] = w1 * row2[o2]
            weights.append(row)
    return Channel(input_space, output_space, weights, c1.denominator * c2.denominator)


def _sampling_table(column, denominator=None) -> tuple:
    """Cumulative table of one distribution for ``_sample_column``.

    ``column`` is int numerators over ``denominator``, or floats when
    ``denominator`` is None.  The table lists the indices of the positive
    entries and their running totals (shifted left 64 bits in the integer
    case); a column with no positive entry samples index 0.
    """
    indices, bounds, total = [], [], 0
    for idx, w in enumerate(column):
        if w > 0:
            total += w
            indices.append(idx)
            bounds.append(total << 64 if denominator else total)
    return indices or [0], bounds, denominator


def _sample_column(table, rng: random.Random) -> int:
    """Index drawn from a ``_sampling_table``.

    An integer table draws a 64-bit r and returns the first positive entry
    whose running numerator N has r * denominator < N << 64, which is exactly
    r / 2**64 < N / denominator.  The draw lies on a 2**-64 grid, so an entry
    such as 1/3 is sampled with an error below 2**-64, not exactly.  A float
    table compares ``rng.random()`` with the running float sums.  A draw
    beyond the last total (float round-off) returns the last positive entry.
    """
    indices, bounds, denominator = table
    key = rng.getrandbits(64) * denominator if denominator else rng.random()
    return indices[min(bisect_right(bounds, key), len(indices) - 1)]


# --- JSON interchange -------------------------------------------------------

def channel_to_json(c: Channel) -> dict:
    return {
        "inputs": {"factors": list(c.input_space.factors), "offsets": list(c.input_space.offsets)},
        "outputs": {"factors": list(c.output_space.factors), "offsets": list(c.output_space.offsets)},
        "mode": RATIONAL,
        "matrix": [[ratio_text(w, c.denominator) for w in column] for column in c.weights],
    }


def channel_from_json(data: dict) -> Channel:
    def space(d):
        return IndexSpace(tuple(d["factors"]), tuple(d.get("offsets", [0] * len(d["factors"]))))

    if data["mode"] != RATIONAL:
        raise ValueError(f"channel mode {data['mode']!r} is not supported: channels are {RATIONAL!r}")
    return make_channel(data["matrix"], space(data["inputs"]), space(data["outputs"]))


def save_channel(c: Channel, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(channel_to_json(c), fh, indent=1)


def load_channel(path: str) -> Channel:
    with open(path) as fh:
        return channel_from_json(json.load(fh))
